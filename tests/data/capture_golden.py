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
engine events, pool transfers, pool rate solves and wake-up timer
allocations, DMA descriptors and filesystem ops per golden point, plus
the plan and line-record counts of one line crash sweep, and the full
plan list (as a digest) of each Table 2 line sweep.  A change may move these on purpose (a perf change that drops
events, say); recapture them then and say why in the change.

Its ``replication`` key pins the replicated-log layer: for each config
of a seeded grid of ``run_replication`` runs, the SHA-1 of the run's
trace events, ``NetStats``, lease log and latency samples; and the
engine events and cancellations summed over the replication runs of
the benchmark's seed-0 fuzz_scenarios pass.
"""

import hashlib
import importlib.util
import json
import os
import random
import sys
from contextlib import contextmanager
from dataclasses import asdict

from repro.analysis.sweep import run_sweep
from repro.crash import crashmonkey
from repro.net import NodeCrashFault, PartitionFault
from repro.obs import default_tracing
from repro.workloads import (FxmarkConfig, ReplicationConfig, fxmark,
                             replication)
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
#: Random cells of the replication grid, drawn from this seed.
REPLICATION_GRID_SEED = 2024
REPLICATION_RANDOM_CELLS = 240
#: The replica tick grid every config uses (ClusterConfig's default).
TICK_NS = 20_000
BENCH_WORKLOADS = os.path.join(HERE, os.pardir, os.pardir, "benchmarks",
                               "e2e", "workloads.py")


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
    pools = (platform.memory.read_pool, platform.memory.write_pool)
    return {
        "engine": asdict(platform.engine.stats),
        "pools": {pool.name: [pool.transfers_completed, pool.bytes_moved]
                  for pool in pools},
        "pool_work": {pool.name: {"rate_solves": pool.rate_solves,
                                  "timers_allocated": pool.timers_allocated}
                      for pool in pools},
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


def _fixed_replication_cells():
    """Hand-picked boundary configs of the replication grid."""
    cells = [
        # The same-instant tie: node 2's Probes land at 2,715,725 ns,
        # a grid instant that node 1, waiting out its election
        # backoff, sleeps through.
        dict(n_nodes=3, n_clients=1, writes_per_client=15, seed=190,
             run_until_us=5000,
             schedule=(NodeCrashFault(0, at_ns=1_748_356, down_ns=700_000),
                       PartitionFault(1_547_839, 545_963, (1, 2)))),
        dict(n_nodes=1, n_clients=1, writes_per_client=8, seed=1),
        dict(n_nodes=1, n_clients=2, writes_per_client=6, seed=2,
             schedule=(NodeCrashFault(0, at_ns=300_000, down_ns=9_000),)),
        dict(n_nodes=1, n_clients=1, writes_per_client=6, seed=3,
             deadline_us=500,
             schedule=(NodeCrashFault(0, at_ns=400_000, down_ns=60_000),)),
    ]
    for n in (2, 3, 4, 5):
        cells.append(dict(n_nodes=n, quorum=n, n_clients=2,
                          writes_per_client=6, seed=10 + n))
        cells.append(dict(n_nodes=n, quorum=n, n_clients=1,
                          writes_per_client=8, seed=20 + n, p_drop=0.1,
                          max_faults=40, run_until_us=6000))
    # Crash and restart on exact tick multiples, and windows shorter
    # than a tick, on the primary and on a backup.
    for node in (0, 1):
        for at, down in ((2_000_000, 40_000), (1_000_000, TICK_NS),
                         (1_500_000, 1), (1_220_000, 19_999),
                         (1_234_567, 7_000), (1_600_000, 300_000),
                         (1_107_000, 13_000)):
            cells.append(dict(n_nodes=3, n_clients=2, writes_per_client=10,
                              seed=30 + node, run_until_us=6000,
                              schedule=(NodeCrashFault(node, at_ns=at,
                                                       down_ns=down),)))
    # A crash during a partition, inside and across the window.
    for node, at, down in ((0, 1_500_000, 400_000), (1, 1_700_000, 15_000),
                           (0, 1_960_000, 900_000), (2, 1_400_000, 80_000)):
        cells.append(dict(
            n_nodes=3, n_clients=2, writes_per_client=12, seed=40 + node,
            run_until_us=7000,
            schedule=(PartitionFault(1_300_000, 800_000, (0,)),
                      NodeCrashFault(node, at_ns=at, down_ns=down))))
    # Deadlined clients, a partitioned primary and a lossy network.
    for deadline in (200, 800, 3_000):
        cells.append(dict(
            n_nodes=3, n_clients=2, writes_per_client=10, seed=50,
            deadline_us=deadline, p_drop=0.05, p_delay=0.05,
            max_faults=64, run_until_us=6000,
            schedule=(PartitionFault(1_000_000, 1_500_000, (0,)),)))
    return cells


def _random_crash(rng, node):
    """A crash window on ``node``: at a random instant or on the tick
    grid, down for less than a tick, a tick multiple, or a random
    span."""
    at = rng.randrange(0, 3_000_000)
    if rng.random() < 0.3:
        at -= at % TICK_NS
    style = rng.randrange(3)
    if style == 0:
        down = rng.randint(1, TICK_NS - 1)
    elif style == 1:
        down = TICK_NS * rng.randint(1, 60)
    else:
        down = rng.randint(TICK_NS, 2_500_000)
    return NodeCrashFault(node, at_ns=at, down_ns=down)


def _random_replication_cell(rng):
    n = rng.randint(1, 5)
    schedule = []
    crashed = set()
    for _ in range(rng.choice((0, 1, 1, 2))):
        start = rng.randrange(200_000, 4_000_000)
        dur = rng.randint(1, 2_000_000)
        group = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        schedule.append(PartitionFault(start, dur, group))
        node = rng.randrange(n)
        if rng.random() < 0.4 and node not in crashed:
            # Crash a node while the partition is in force.
            crashed.add(node)
            schedule.append(NodeCrashFault(
                node, at_ns=start + rng.randrange(dur),
                down_ns=rng.choice((rng.randint(1, TICK_NS - 1),
                                    rng.randint(1, 1_500_000)))))
    for _ in range(rng.choice((0, 1, 1, 2))):
        node = rng.randrange(n)
        if node not in crashed:
            crashed.add(node)
            schedule.append(_random_crash(rng, node))
    # Partitions of the same group must not overlap: keep the first.
    seen, kept = set(), []
    for f in schedule:
        if isinstance(f, PartitionFault):
            if f.group in seen:
                continue
            seen.add(f.group)
        kept.append(f)
    p_drop, p_dup, p_delay = (rng.choice((0.0, 0.0, 0.05, 0.15))
                              for _ in range(3))
    return dict(
        n_nodes=n, quorum=rng.choice((None, None, n, rng.randint(1, n))),
        n_clients=rng.randint(1, 3), writes_per_client=rng.randint(2, 15),
        gap_ns=rng.choice((200_000, 200_000, 60_000)),
        deadline_us=rng.choice((None, None, 300, 1_500, 6_000)),
        seed=rng.randrange(1000), p_drop=p_drop, p_dup=p_dup,
        p_delay=p_delay, max_faults=rng.choice((16, 64, 200)),
        schedule=tuple(kept), run_until_us=rng.choice((3000, 5000, 8000)))


def replication_grid():
    """The grid's ``ReplicationConfig`` list: the fixed boundary cells,
    then REPLICATION_RANDOM_CELLS seeded random ones."""
    rng = random.Random(REPLICATION_GRID_SEED)
    cells = _fixed_replication_cells() + [
        _random_replication_cell(rng)
        for _ in range(REPLICATION_RANDOM_CELLS)]
    return [ReplicationConfig(**c) for c in cells]


def _sha1(items):
    h = hashlib.sha1()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def replication_digests(cfg):
    """``[trace, NetStats, lease log, latencies]`` SHA-1s of one run."""
    tracers = []
    with default_tracing(collect=tracers):
        res = replication.run_replication(cfg)
    (tracer,) = tracers
    return [_sha1((e.t, e.ph, e.name, e.track, e.op,
                   sorted((e.args or {}).items()))
                  for e in tracer.events),
            _sha1(asdict(res.stats).items()),
            _sha1(res.lease_log),
            _sha1(res.latency.samples)]


def fuzz_replication_events():
    """Engine events and cancellations summed over the replication runs
    of the benchmark's seed-0 fuzz_scenarios pass."""
    from repro.fuzz.scenario import _net_section
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses look their module up.
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    tuples = [t for t in workloads.fuzz_tuples(workloads.DEFAULT_SEED)
              if t.net.enabled]
    with capturing(replication, "Cluster") as clusters:
        for t in tuples:
            _net_section(t, [])
    stats = [c.engine.stats for c in clusters]
    return {"runs": len(stats),
            "events_fired": sum(s.events_fired for s in stats),
            "events_cancelled": sum(s.events_cancelled for s in stats)}


def replication_counts():
    return {"grid": [replication_digests(cfg)
                     for cfg in replication_grid()],
            "fuzz_events": fuzz_replication_events()}


def capture():
    """``(golden summaries, work counts)`` of the fixed-seed runs."""
    fig08_out, fig08_counts = counted(fig08)
    fig09_out, fig09_counts = counted(fig09)
    golden = {"fig02": fig02(), "fig08": fig08_out, "fig09": fig09_out}
    counts = {"fig08": fig08_counts, "fig09": fig09_counts,
              "crash_line": crash_line_counts(),
              "crash_line_plans": {sweep: crash_line_plan_list(sweep)
                                   for sweep in CRASH_LINE_SWEEPS},
              "replication": replication_counts()}
    return golden, counts


if __name__ == "__main__":
    for path, data in zip((OUT, COUNTS_OUT), capture()):
        with open(path, "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {path}")
