"""Line-granularity crash sweeps + planted-mutant validation.

The headline claims of the cache-line crash model:

* clean implementations pass the line sweep (no false positives, with
  and without injected DMA faults), for every filesystem kind;
* two planted persistence bugs -- a skipped append/commit fence and a
  reordered failover (SN amend persisted before the degraded pages) --
  are caught by the line sweep;
* the skipped fence is *invisible* to the page-granularity sweep (the
  mutation journal records logical stores, not fences), demonstrating
  the detection gap the line model closes;
* two planted recovery bugs -- torn journal records left in place, and
  recovery run without the completion-buffer SN rule -- are caught by
  the ``torn-journal`` and ``no-resurrect`` mechanism oracles.

Failing plans from the mutant runs are dumped to
``crash_mutant_plans.json`` (CI uploads it as an artifact).
"""

import json
from pathlib import Path

import pytest

from repro.core.easyio import CRASH_MUTANTS, install_crash_mutant
from repro.crash import crashmonkey
from repro.crash.crashmonkey import (CRASH_WORKLOADS, _line_sweep,
                                     _record_workload, run_crash_test)
from repro.faults import ChannelHaltFault, FaultPlan
from repro.fs.structures import TornRecord

ARTIFACT = Path("crash_mutant_plans.json")

#: Reduced iteration counts keep the exhaustive (per_signature=None)
#: sweeps under a second; detection does not depend on workload length
#: (every epoch of the mutant is broken the same way).
ITER = 20


def _line_report(kind, workload="generic_056", iterations=ITER,
                 mutant=None, fault_plan=None, per_signature=None):
    desc, driver, _ = CRASH_WORKLOADS[workload]
    image, oracle = _record_workload(kind, driver, iterations, fault_plan,
                                     lines=True, mutant=mutant)
    return _line_sweep(kind, workload, image, oracle,
                       kind in ("easyio", "naive"),
                       per_signature=per_signature, budget=None, seed=0)


def _dump_artifact(name, report):
    data = {}
    if ARTIFACT.exists():
        data = json.loads(ARTIFACT.read_text())
    data[name] = {
        "workload": report.workload,
        "kind": report.kind,
        "granularity": report.granularity,
        "total_crash_points": report.total_crash_points,
        "passed": report.passed,
        "plan_classes": report.plan_classes,
        "failures": [f._asdict() for f in report.failures],
    }
    ARTIFACT.write_text(json.dumps(data, indent=2, sort_keys=True))


def _halt_all_channels():
    # single_node has 8 DMA channels; halting each one's first
    # descriptor forces every supervised write through the full
    # retry -> failover -> degrade path.
    return FaultPlan(schedule=[ChannelHaltFault(ch, 1) for ch in range(8)])


class TestCleanSweeps:
    @pytest.mark.parametrize("kind", ["easyio", "nova", "naive"])
    def test_clean_line_sweep_passes(self, kind):
        report = _line_report(kind)
        assert report.granularity == "line"
        assert report.all_passed, report.failures[:5]
        assert report.raw_states > report.total_crash_points ** 2

    @pytest.mark.parametrize("kind", ["easyio", "nova"])
    def test_clean_line_sweep_passes_over_recycled_pages(self, kind):
        """create_delete hands freed page ids to later files with new
        bytes: crash states that map one page id to different content
        must still get their own digests."""
        report = _line_report(kind, workload="create_delete")
        assert report.all_passed, report.failures[:5]

    def test_clean_line_sweep_passes_under_halts(self):
        """Channel halts exercise retry/failover/degrade; the correct
        implementation must still pass every plan (no false
        positives from cancellation, re-announcement, or amends)."""
        report = _line_report("easyio", fault_plan=_halt_all_channels)
        assert report.all_passed, report.failures[:5]

    def test_run_crash_test_line_entrypoint(self):
        report = run_crash_test("easyio", "generic_056",
                                granularity="line", per_signature=2)
        assert report.granularity == "line"
        assert report.all_passed, report.failures[:5]
        assert sum(report.plan_classes.values()) == report.total_crash_points

    def test_unknown_granularity_rejected(self):
        with pytest.raises(ValueError, match="granularity"):
            run_crash_test("easyio", "generic_056", granularity="byte")


class TestMutantDetection:
    def test_skip_append_fence_caught_by_line_sweep(self):
        report = _line_report("easyio", mutant="skip_append_fence")
        _dump_artifact("skip_append_fence/line", report)
        assert not report.all_passed
        checks = {f.check for f in report.failures}
        assert "torn-entry" in checks
        # Every failure names its crash-plan class for replay.
        assert all(f.plan for f in report.failures)
        assert any(f.plan.startswith("torn") for f in report.failures)

    def test_skip_append_fence_caught_even_when_sampled(self):
        report = _line_report("easyio", mutant="skip_append_fence",
                              per_signature=3)
        assert not report.all_passed
        assert {f.check for f in report.failures} == {"torn-entry"}

    def test_skip_append_fence_missed_by_page_sweep(self):
        """The detection gap: the page sweep replays whole-mutation
        prefixes, where the missing fence is invisible."""
        report = run_crash_test("easyio", "generic_056", crash_points=200,
                                mutant="skip_append_fence")
        assert report.granularity == "page"
        assert report.all_passed, report.failures[:5]

    def test_reorder_amend_persist_caught_by_line_sweep(self):
        report = _line_report("easyio", mutant="reorder_amend_persist",
                              fault_plan=_halt_all_channels)
        _dump_artifact("reorder_amend_persist/line", report)
        assert not report.all_passed
        checks = {f.check for f in report.failures}
        assert "sn-pages" in checks

    def test_mutants_require_their_preconditions(self):
        from repro.hw.platform import Platform, PlatformConfig
        from repro.workloads.factory import make_fs
        platform = Platform(PlatformConfig.single_node())
        fs = make_fs("easyio", platform, record=True)
        with pytest.raises(RuntimeError, match="line-recording"):
            install_crash_mutant(fs, "skip_append_fence")
        with pytest.raises(ValueError, match="unknown crash mutant"):
            install_crash_mutant(fs, "nonsense")
        assert set(CRASH_MUTANTS) == {"skip_append_fence",
                                      "reorder_amend_persist"}


def _keep_torn(recover):
    """Recovery mutant: put back every torn journal record that
    recovery retired."""
    def mutant(img, validator=None):
        torn = [txn for txn in img.journal if isinstance(txn, TornRecord)]
        recovered = recover(img, validator)
        img.journal.extend(torn)
        return recovered
    return mutant


def _drop_validator(recover):
    """Recovery mutant: replay committed write entries without the
    completion-buffer SN rule."""
    def mutant(img, validator=None):
        return recover(img, None)
    return mutant


class TestRecoveryMutants:
    """Each mechanism oracle must name the recovery bug it exists for.

    The mutants wrap ``recover`` as the plan-check loop calls it; the
    same sweep must pass without the mutant."""

    @pytest.mark.parametrize("kind", ["easyio", "nova"])
    def test_keep_torn_caught_as_torn_journal(self, kind, monkeypatch):
        assert _line_report(kind, "generic_322", per_signature=3).all_passed
        monkeypatch.setattr(crashmonkey, "recover",
                            _keep_torn(crashmonkey.recover))
        report = _line_report(kind, "generic_322", per_signature=3)
        assert {f.check for f in report.failures} == {"torn-journal"}

    @pytest.mark.parametrize("workload", sorted(CRASH_WORKLOADS))
    def test_drop_validator_caught_as_no_resurrect(self, workload,
                                                   monkeypatch):
        assert _line_report("easyio", workload, per_signature=3).all_passed
        monkeypatch.setattr(crashmonkey, "recover",
                            _drop_validator(crashmonkey.recover))
        report = _line_report("easyio", workload, per_signature=3)
        assert "no-resurrect" in {f.check for f in report.failures}


class TestReportShape:
    def test_failures_are_structured(self):
        report = _line_report("easyio", mutant="skip_append_fence",
                              per_signature=2)
        f = report.failures[0]
        point, check, detail, plan = f
        assert isinstance(point, int) and check == "torn-entry"
        assert "committed log prefix" in detail
        assert plan.startswith("torn")

    def test_page_report_unchanged_shape(self):
        report = run_crash_test("easyio", "generic_056", crash_points=40)
        assert report.granularity == "page"
        assert report.raw_states == 0
        assert report.plan_classes == {}
        assert report.all_passed
