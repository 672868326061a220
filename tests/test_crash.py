"""Crash-consistency harness tests (Table 2, reduced crash budget --
the full 1000-point sweep runs in benchmarks/test_tab02_crashmonkey.py)."""

import pytest

from repro.crash import CRASH_WORKLOADS, run_crash_test
from repro.crash.crashmonkey import snapshot_with_content
from repro.fs import NovaFS, PMImage
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
