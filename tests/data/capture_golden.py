"""Capture the golden pre-refactor summary metrics for the pipeline
equivalence tests (tests/test_golden_equivalence.py), and the exact
work counts of the same fixed-seed runs (tests/test_work_counts.py).

Run from the repo root::

    PYTHONPATH=src python tests/data/capture_golden.py

The output file ``tests/data/golden_pre_refactor.json`` was produced at
the last pre-refactor commit; the refactored I/O pipeline must
reproduce every number *exactly* (the simulator is deterministic under
fixed seeds, so any drift means the refactor changed behaviour).

``tests/data/work_counts.json`` pins how much work those runs do:
engine events, pool transfers, DMA descriptors and filesystem ops per
golden point, plus the plan and line-record counts of one line crash
sweep, and the full plan list (as a digest) of each Table 2 line
sweep.  A change may move these on purpose (a perf change that drops
events, say); recapture them then and say why in the change.
"""

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict

from repro.analysis.sweep import run_sweep
from repro.crash import crashmonkey
from repro.workloads import FxmarkConfig, fxmark
from repro.workloads.fxmark import measure_single_op
from repro.workloads.hwbench import measure_copy_bandwidth

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "golden_pre_refactor.json")
COUNTS_OUT = os.path.join(HERE, "work_counts.json")

FIG02_CORES = (1, 4, 16)
FIG08_KINDS = ("nova", "nova-dma", "odinfs", "easyio", "naive")
FIG08_SIZES = (4096, 65536)
FIG09_KINDS = ("nova", "nova-dma", "odinfs", "easyio")
FIG09_WORKERS = (1, 4)
CRASH_LINE_SWEEPS = tuple(f"{kind}/{workload}"
                          for kind in ("easyio", "nova")
                          for workload in ("create_delete", "generic_056",
                                           "generic_090", "generic_322"))


def fig02():
    out = {}
    for write in (True, False):
        d = "write" if write else "read"
        for cores in FIG02_CORES:
            key = f"{d}/memcpy-4K/{cores}"
            out[key] = measure_copy_bandwidth(
                "memcpy", write, cores, 4096).bandwidth_gbps
            key = f"{d}/DMA-64K-B/{cores}"
            out[key] = measure_copy_bandwidth(
                "dma", write, cores, 65536, batch=4).bandwidth_gbps
    return out


def fig08():
    out = {}
    for op in ("write", "read"):
        for kind in FIG08_KINDS:
            for size in FIG08_SIZES:
                lat, cpu, bd = measure_single_op(kind, op, size)
                out[f"{op}/{kind}/{size}"] = {
                    "lat": lat, "cpu": cpu,
                    "breakdown": {k: bd[k] for k in sorted(bd)},
                }
    return out


def fig09(processes=1):
    """The 16-point sweep.  ``processes`` must not change a single
    number (the equivalence tests run it serial and parallel)."""
    keys, configs = [], []
    for op in ("write", "read"):
        for kind in FIG09_KINDS:
            for workers in FIG09_WORKERS:
                keys.append(f"{op}/{kind}/{workers}")
                configs.append(FxmarkConfig(
                    kind=kind, op=op, io_size=16384, workers=workers,
                    duration_us=1200, warmup_us=300))
    return dict(zip(keys, run_sweep(configs, processes=processes)))


@contextmanager
def capturing(module, name):
    """Wrap the factory ``module.name`` so every object it builds is
    also appended to the yielded list."""
    built, real = [], getattr(module, name)

    def factory(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]
    setattr(module, name, factory)
    try:
        yield built
    finally:
        setattr(module, name, real)


def work_counts(fs):
    """The work counters one finished run kept on its filesystem and
    platform."""
    platform = fs.platform
    return {
        "engine": asdict(platform.engine.stats),
        "pools": {pool.name: [pool.transfers_completed, pool.bytes_moved]
                  for pool in (platform.memory.read_pool,
                               platform.memory.write_pool)},
        "dma_descriptors": sum(ch.descriptors_completed
                               for ch in platform.dma.channels),
        "fs_ops": fs.ops_completed,
    }


def counted(capture_fn):
    """Run a per-point golden capture (:func:`fig08`, :func:`fig09`)
    serially; return its summaries and each point's work counts."""
    with capturing(fxmark, "make_fs") as built:
        summaries = capture_fn()
    assert len(built) == len(summaries), "one filesystem per golden point"
    return summaries, {key: work_counts(fs)
                       for key, fs in zip(summaries, built)}


def crash_line_counts():
    """Plans (and how many passed), line records and raw states of the
    easyio/generic_056 line crash sweep."""
    with capturing(crashmonkey, "CrashPlanner") as planners:
        report = crashmonkey.run_crash_test("easyio", "generic_056",
                                            granularity="line")
    (planner,) = planners
    return {"plans": report.total_crash_points, "passed": report.passed,
            "line_records": len(planner.stream.records),
            "raw_states": report.raw_states}


def plan_digest(plans):
    """SHA-1 over the ordered plan list, every field included."""
    h = hashlib.sha1()
    for p in plans:
        h.update(repr((p.point, p.cls, sorted(p.applied), p.partials,
                       p.lo, p.hi, p.signature)).encode())
        h.update(b"\n")
    return h.hexdigest()


def crash_line_plan_list(sweep):
    """What the planner of one ``kind/workload`` line sweep
    (``per_signature=3``, ``plan_seed=0``) chose: its plan count and
    plan-list digest, positions, raw states and per-class counts."""
    kind, workload = sweep.split("/")
    with capturing(crashmonkey, "CrashPlanner") as planners:
        crashmonkey.run_crash_test(kind, workload, granularity="line",
                                   per_signature=3, plan_seed=0)
    (planner,) = planners
    plans = planner.plans()
    return {"plans": len(plans), "sha1": plan_digest(plans),
            "positions": planner.positions,
            "raw_states": planner.raw_states,
            "plan_classes": planner.plan_classes}


def capture():
    """``(golden summaries, work counts)`` of the fixed-seed runs."""
    fig08_out, fig08_counts = counted(fig08)
    fig09_out, fig09_counts = counted(fig09)
    golden = {"fig02": fig02(), "fig08": fig08_out, "fig09": fig09_out}
    counts = {"fig08": fig08_counts, "fig09": fig09_counts,
              "crash_line": crash_line_counts(),
              "crash_line_plans": {sweep: crash_line_plan_list(sweep)
                                   for sweep in CRASH_LINE_SWEEPS}}
    return golden, counts


if __name__ == "__main__":
    for path, data in zip((OUT, COUNTS_OUT), capture()):
        with open(path, "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {path}")
