"""Parallel sweep runner: many independent simulations, many cores.

A parameter sweep (Figure 9's throughput-latency curves, Figure 12's
throttling grid) is embarrassingly parallel: every point is a fresh
:class:`~repro.workloads.fxmark.FxmarkConfig` run in its own engine,
sharing nothing with its neighbours.  This module fans the points out
over a ``multiprocessing`` pool.

Determinism: each point's result depends only on its config (the
simulator is seeded and single-threaded inside one engine), so the
sweep output is byte-identical whether it runs serially, with two
workers, or with twenty -- ``run_sweep`` preserves input order and
tests/test_sweep.py pins this down.

Workers are plain module-level functions (picklable) and results are
plain dicts of floats/ints (cheap to ship back over the pipe --
LatencySeries and friends stay in the worker).
"""

from __future__ import annotations

import multiprocessing
import os
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Sequence)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.workloads.fxmark import FxmarkConfig, FxmarkResult

# repro.workloads is imported inside the functions below:
# repro.core.channel_manager imports this package's metrics module
# while repro.core is still initialising, so a module-level workloads
# import here would close an import cycle.


def summarize(result: "FxmarkResult") -> dict:
    """The canonical scalar summary of one sweep point.

    Exactly the metric set the golden-equivalence suite pins, so a
    sweep summary can be compared against ``golden_pre_refactor.json``
    directly.
    """
    return {
        "throughput_ops": result.throughput_ops,
        "bandwidth_gbps": result.bandwidth_gbps,
        "total_ops": result.total_ops,
        "mean_us": result.mean_us,
        "p99_us": result.p99_us,
        "cpu_busy_fraction": result.cpu_busy_fraction,
    }


def fxmark_point(cfg: "FxmarkConfig") -> dict:
    """Run one configuration and return its scalar summary.

    Module-level so a multiprocessing pool can pickle it by reference.
    """
    from repro.workloads.fxmark import run_fxmark
    return summarize(run_fxmark(cfg))


def _pool_map(fn: Callable[..., dict], items: Iterable,
              processes: Optional[int]) -> List[dict]:
    """``[fn(x) for x in items]``, in input order, over a worker pool.

    ``processes=None`` uses one worker per host CPU; ``processes<=1``
    (or a single item) runs serially in this process -- same results
    either way, the pool only changes wall-clock time.
    """
    items = list(items)
    if processes is None:
        processes = os.cpu_count() or 1
    if processes <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # fork (the Linux default) skips re-importing the simulator in
    # every worker; chunksize=1 keeps long items from queueing behind
    # one worker while others sit idle.
    with multiprocessing.Pool(min(processes, len(items))) as pool:
        return pool.map(fn, items, chunksize=1)


def run_sweep(configs: Sequence["FxmarkConfig"],
              processes: Optional[int] = None) -> List[dict]:
    """Run every config, in input order, and return their summaries
    (see :func:`_pool_map` for ``processes``)."""
    return _pool_map(fxmark_point, configs, processes)


def fxmark_sweep(kinds: Iterable[str], workers: Iterable[int],
                 op: str = "write", io_size: int = 16384,
                 duration_us: int = 1200, warmup_us: int = 300,
                 processes: Optional[int] = None) -> Dict[str, dict]:
    """The Figure 9 grid: ``{op}/{kind}/{workers}`` -> point summary."""
    from repro.workloads.fxmark import FxmarkConfig
    kinds = list(kinds)
    workers = list(workers)
    configs = [FxmarkConfig(kind=kind, op=op, io_size=io_size,
                            workers=n, duration_us=duration_us,
                            warmup_us=warmup_us)
               for kind in kinds for n in workers]
    keys = [f"{op}/{kind}/{n}" for kind in kinds for n in workers]
    return dict(zip(keys, run_sweep(configs, processes=processes)))


# ----------------------------------------------------------------------
# Crash sweeps (Table 2): one process per (kind, workload, granularity)
# ----------------------------------------------------------------------
def crash_point(spec: dict) -> dict:
    """Run one crash test and return a plain-dict summary.

    ``spec`` is keyword arguments for
    :func:`repro.crash.run_crash_test` (``kind``, ``workload``, and
    optionally ``granularity``, ``crash_points``, planner knobs...).
    Module-level and dict-in/dict-out so a multiprocessing pool can
    ship it; crash tests are seeded and engine-local, so the summary
    is a pure function of the spec (run_crash_sweep's determinism).
    """
    from repro.crash import run_crash_test
    report = run_crash_test(**spec)
    return {
        "workload": report.workload,
        "kind": report.kind,
        "granularity": report.granularity,
        "total_crash_points": report.total_crash_points,
        "passed": report.passed,
        "all_passed": report.all_passed,
        "raw_states": report.raw_states,
        "plan_classes": dict(sorted(report.plan_classes.items())),
        "failures": [tuple(f) for f in report.failures[:5]],
    }


def run_crash_sweep(specs: Sequence[dict],
                    processes: Optional[int] = None) -> List[dict]:
    """Run every crash spec, in input order (parallel over a pool).

    Same contract as :func:`run_sweep`: ``processes<=1`` or a single
    spec runs serially, and the summaries are identical either way.
    """
    return _pool_map(crash_point, specs, processes)


# -- fuzz campaigns ----------------------------------------------------

def fuzz_point(spec: dict) -> dict:
    """Run one fuzz scenario spec and return the picklable verdict.

    ``spec`` is ``{"tuple": <ScenarioTuple.to_dict()>, "mutant":
    str-or-None}``; the result is ``ScenarioResult.as_dict()``.
    Module-level so a multiprocessing pool can pickle it by reference.
    """
    from repro.fuzz.scenario import run_scenario
    from repro.fuzz.tuples import ScenarioTuple
    t = ScenarioTuple.from_dict(spec["tuple"])
    return run_scenario(t, mutant=spec.get("mutant")).as_dict()


def run_fuzz_batch(specs: Sequence[dict],
                   processes: Optional[int] = None) -> List[dict]:
    """Evaluate one generation of fuzz specs, in input order.

    Same determinism contract as :func:`run_sweep`: each spec's
    verdict depends only on the spec (the scenario runner is a pure
    function of the tuple), and order is preserved -- so a campaign
    that batches by generation sees byte-identical results at any
    worker count (tests/test_fuzz_campaign.py pins serial == parallel).
    """
    return _pool_map(fuzz_point, specs, processes)
