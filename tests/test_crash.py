"""Crash-consistency harness tests (Table 2, reduced crash budget --
the full 1000-point sweep runs in benchmarks/test_tab02_crashmonkey.py)."""

import pytest

from repro.crash import CRASH_WORKLOADS, run_crash_test
from repro.crash.crashmonkey import snapshot_with_content
from repro.fs import NovaFS, PMImage
from repro.fs.structures import ROOT_INO
from repro.hw.platform import Platform, PlatformConfig
from tests.conftest import run_proc


class TestHarness:
    def test_workload_catalogue_matches_table2(self):
        assert set(CRASH_WORKLOADS) == {"create_delete", "generic_056",
                                        "generic_090", "generic_322"}

    def test_snapshot_includes_content_digest(self):
        fs = NovaFS(Platform(PlatformConfig.single_node()), PMImage()).mount()
        def scenario():
            ino = yield from fs.create(fs.context(), "/f")
            yield from fs.write(fs.context(), ino, 0, 4096, b"x" * 4096)
        run_proc(fs.engine, scenario())
        snap = snapshot_with_content(fs._mem, fs.image)
        assert snap["/f"][0] == "file"
        assert snap["/f"][1] == 4096
        assert snap["/f"][2] is not None

    def test_content_digest_distinguishes_payloads(self):
        def snap_for(payload):
            fs = NovaFS(Platform(PlatformConfig.single_node()),
                        PMImage()).mount()
            def scenario():
                ino = yield from fs.create(fs.context(), "/f")
                yield from fs.write(fs.context(), ino, 0, 4096, payload)
            run_proc(fs.engine, scenario())
            return snapshot_with_content(fs._mem, fs.image)["/f"][2]
        assert snap_for(b"a" * 4096) != snap_for(b"b" * 4096)


class TestContentMemo:
    """The sweep-wide digest memo is keyed on page bytes, not page
    ids: CoW recycles a freed page id for a later file's new bytes."""

    def test_recycled_page_id_gets_its_own_digest(self):
        from repro.crash.crashmonkey import _page_states, _record_workload
        from repro.fs.recovery import recover

        _desc, driver, _ = CRASH_WORKLOADS["create_delete"]
        image, _oracle = _record_workload("nova", driver, 6)
        memo: dict = {}
        by_layout: dict = {}
        for k, img in _page_states(image, range(image.crash_points() + 1)):
            inodes = recover(img).inodes
            snap = snapshot_with_content(inodes, img, content_memo=memo)
            assert snap == snapshot_with_content(inodes, img), k
            for name, ino in inodes[ROOT_INO].dentries.items():
                m = inodes[ino]
                layout = (m.size, tuple((off, pm.page_id)
                                        for off, pm in m.index.items()))
                by_layout.setdefault(layout, set()).add(snap[f"/{name}"][2])
        # Some (size, page ids) layout recurs with different bytes: a
        # memo keyed on page ids would hand the later state the
        # earlier digest.
        assert any(len(d) > 1 for d in by_layout.values())

    @pytest.mark.parametrize("kind,granularity,mutant", [
        ("easyio", "page", None),
        ("nova", "line", None),
        ("easyio", "line", "skip_append_fence"),
    ])
    def test_sweep_verdicts_match_memo_less_run(self, monkeypatch, kind,
                                                granularity, mutant):
        from repro.crash import crashmonkey

        def sweep():
            return run_crash_test(kind, "create_delete", crash_points=120,
                                  granularity=granularity, mutant=mutant)

        memoised = sweep()
        plain = crashmonkey.snapshot_with_content
        monkeypatch.setattr(
            crashmonkey, "snapshot_with_content",
            lambda inodes, image, content_memo=None, tree=None:
            plain(inodes, image))
        assert sweep() == memoised
        assert memoised.all_passed == (mutant is None)


@pytest.mark.parametrize("workload", sorted(CRASH_WORKLOADS))
class TestCrashSweeps:
    def test_easyio_passes(self, workload):
        report = run_crash_test("easyio", workload, crash_points=60)
        assert report.all_passed, report.failures[:3]

    def test_nova_passes(self, workload):
        report = run_crash_test("nova", workload, crash_points=40)
        assert report.all_passed, report.failures[:3]

    def test_naive_passes(self, workload):
        report = run_crash_test("naive", workload, crash_points=40)
        assert report.all_passed, report.failures[:3]


class TestDetection:
    def test_checker_detects_broken_recovery(self):
        """If EasyIO recovery ignored SN validation, some crash point
        must fail -- proving the checker has teeth."""
        from repro.crash import crashmonkey as cmky
        from repro.fs.recovery import recover

        desc, driver, iterations = CRASH_WORKLOADS["generic_090"]
        image, oracle = cmky._record_workload("easyio", driver, 8)
        total = image.crash_points()
        failures = 0
        for k in range(0, total + 1, max(1, total // 80)):
            img = image.replay(k)
            # Deliberately skip SN validation.
            snap = snapshot_with_content(recover(img, None).inodes, img)
            durable = sum(1 for (_s, e, _sn) in oracle if e <= k)
            started = sum(1 for (s, _e, _sn) in oracle if s <= k)
            cands = [{} if i == 0 else oracle[i - 1][2]
                     for i in range(durable, started + 1)]
            if not any(snap == c for c in cands):
                failures += 1
        assert failures > 0, \
            "disabling SN validation should corrupt some crash point"


def _count_platforms(monkeypatch):
    """Count Platform constructions from here on."""
    built = []
    init = Platform.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Platform, "__init__", counting)
    return built


class TestNoMachineAfterRecording:
    """Crash checks recover from the image alone: the recording
    platform is the only one a sweep builds."""

    def test_line_sweep_builds_one_platform(self, monkeypatch):
        built = _count_platforms(monkeypatch)
        report = run_crash_test("easyio", "generic_056", granularity="line")
        assert report.total_crash_points > 1
        assert len(built) == 1

    def test_page_sweep_builds_one_platform(self, monkeypatch):
        built = _count_platforms(monkeypatch)
        report = run_crash_test("easyio", "generic_056", crash_points=30)
        assert report.total_crash_points == 30
        assert len(built) == 1

    def test_fuzz_scenario_plans_once(self, monkeypatch):
        from repro.crash.plans import CrashPlanner
        from repro.fuzz import ScenarioTuple, run_scenario, schedule_from_seed

        built = _count_platforms(monkeypatch)
        calls = []
        plans = CrashPlanner.plans

        def counting(self):
            out = plans(self)
            calls.append(len(out))
            return out

        monkeypatch.setattr(CrashPlanner, "plans", counting)
        t = ScenarioTuple(workload=schedule_from_seed(17, n_ops=6))
        assert t.crash.enabled and not t.net.enabled
        result = run_scenario(t)
        assert calls == [result.crash_plans] and result.crash_plans > 0
        # The recording platform and the differential detector's
        # reference NOVA platform; none for the crash plans.
        assert len(built) == 2
