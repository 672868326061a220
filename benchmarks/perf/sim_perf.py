"""Wall-clock performance harness for the simulator itself.

Everything else in ``benchmarks/`` measures *simulated* metrics; this
script measures how fast the simulator runs on the host:

* ``engine``: a pure engine microbenchmark (pooled sleeps, no
  filesystem) reporting events/sec from :class:`EngineStats`;
* ``fig08_probe``: one single-op latency probe (the Figure 8 unit);
* ``fig09_sweep_serial``: the 16-point Figure 9 throughput-latency
  sweep exactly as the golden capture runs it (full payload plumbing,
  one process);
* ``fig09_sweep_fast``: the same sweep through the parallel sweep
  runner -- the configuration performance sweeps should use.  The
  harness asserts its summaries are identical to the serial run's
  before trusting its timing;
* ``replication``: one traced 3-node crash-failover run, cluster
  oracle replay included (the DESIGN.md §12 layer's wall-clock unit);
* ``crash_prune``: one pruned line-granularity crash sweep of
  easyio/generic_056 (record + plan + replay/recover every plan), the
  crash model's wall-clock unit (DESIGN.md §13).

Results land in ``BENCH_sim_perf.json`` at the repo root (committed,
so CI can gate on regressions).  The file is an append-only
*trajectory*: ``{"entries": [...]}``, one labelled report per PR (the
ROADMAP item-2 tracked history), newest last.  A legacy single-report
file is adopted as the first entry.  Usage::

    PYTHONPATH=src python benchmarks/perf/sim_perf.py            # measure + append
    PYTHONPATH=src python benchmarks/perf/sim_perf.py --quick    # CI-sized run
    PYTHONPATH=src python benchmarks/perf/sim_perf.py --check    # gate vs committed
    PYTHONPATH=src python benchmarks/perf/sim_perf.py --label pr9
    PYTHONPATH=src python benchmarks/perf/sim_perf.py --out x.json

``--check`` compares against the committed baseline's **latest entry**
and exits 1 when any wall-clock metric regressed by more than
``REGRESSION_MAX`` (CI runners are noisy; 1.5x is a real regression,
not jitter).  Timings are best-of-``--repeat`` to shave scheduling
noise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as _platform
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.analysis.sweep import fxmark_sweep          # noqa: E402
from repro.sim import Engine                           # noqa: E402
from repro.workloads.fxmark import measure_single_op   # noqa: E402

DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_sim_perf.json")

#: --check fails when a wall-clock metric is this much worse than the
#: committed baseline.
REGRESSION_MAX = 1.5

#: The fig09 sweep wall time at the commit before this harness (and
#: the engine/data-plane optimisations) landed, measured on the same
#: host the committed baseline was captured on.  `speedup_vs_pre_pr`
#: in the report is the fast sweep against this number.
PRE_PR_FIG09_SERIAL_WALL_S = 1.149

FIG09_KINDS = ("nova", "nova-dma", "odinfs", "easyio")
FIG09_WORKERS = (1, 4)


def _best_of(repeat, fn):
    """Best wall-clock of ``repeat`` runs; returns (seconds, result)."""
    best, result = None, None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best, result = dt, out
    return best, result


# ----------------------------------------------------------------------
# Section 1: pure engine throughput
# ----------------------------------------------------------------------
def bench_engine(events_target: int) -> dict:
    """Events/sec of the bare engine: pooled sleeps across processes."""
    def run():
        engine = Engine()
        per_proc = events_target // 4

        def ticker():
            sleep = engine.sleep
            for _ in range(per_proc):
                yield sleep(100)

        for _ in range(4):
            engine.process(ticker())
        engine.run()
        return engine.stats.as_dict()

    wall, stats = _best_of(2, run)
    return {
        "wall_s": round(wall, 4),
        "events_fired": stats["events_fired"],
        "events_per_sec": round(stats["events_fired"] / wall),
        "sleeps_reused": stats["sleeps_reused"],
    }


# ----------------------------------------------------------------------
# Section 2: per-figure wall clock
# ----------------------------------------------------------------------
def bench_fig08_probe(repeat: int) -> dict:
    wall, _ = _best_of(repeat, lambda: measure_single_op(
        "easyio", "write", 16384))
    return {"wall_s": round(wall, 4)}


def bench_fig09(repeat: int, duration_us: int, warmup_us: int) -> dict:
    """Serial sweep vs parallel sweep (same grid)."""
    def grid(processes):
        out = {}
        for op in ("write", "read"):
            out.update(fxmark_sweep(
                FIG09_KINDS, FIG09_WORKERS, op=op, io_size=16384,
                duration_us=duration_us, warmup_us=warmup_us,
                processes=processes))
        return out

    serial_wall, serial = _best_of(repeat, lambda: grid(1))
    fast_wall, fast = _best_of(repeat, lambda: grid(None))
    if fast != serial:
        drift = sorted(k for k in serial if fast.get(k) != serial[k])
        raise SystemExit(f"FAIL: parallel sweep drifted from the "
                         f"serial run on {drift}")
    points = len(serial)
    return {
        "points": points,
        "fig09_sweep_serial": {"wall_s": round(serial_wall, 4)},
        "fig09_sweep_fast": {"wall_s": round(fast_wall, 4),
                             "processes": os.cpu_count() or 1},
        "speedup_fast_vs_serial": round(serial_wall / fast_wall, 3),
    }


def bench_crash_prune(repeat: int) -> dict:
    """One pruned line-granularity crash sweep (easyio/generic_056):
    record, plan, replay every plan, recover, check -- the crash
    model's wall-clock unit."""
    from repro.crash import run_crash_test

    def run():
        report = run_crash_test("easyio", "generic_056",
                                granularity="line", per_signature=3)
        if not report.all_passed:
            raise SystemExit("FAIL: crash_prune bench found violations: "
                             f"{report.failures[:3]}")
        return report

    wall, report = _best_of(repeat, run)
    return {
        "wall_s": round(wall, 4),
        "plans": report.total_crash_points,
        "raw_states_log10": round(len(str(report.raw_states)) - 1),
    }


def bench_replication(repeat: int) -> dict:
    """One traced crash-failover replication run, oracle replay
    included -- the cluster layer's wall-clock unit."""
    from repro.net import NodeCrashFault
    from repro.workloads.replication import (ReplicationConfig,
                                             run_replication)

    def run():
        res = run_replication(ReplicationConfig(
            n_clients=2, writes_per_client=12, seed=42,
            schedule=(NodeCrashFault(0, at_ns=2_000_000,
                                     down_ns=15_000_000),)))
        if not (res.drained and res.goodput == 1.0
                and not res.violations):
            raise SystemExit("FAIL: replication bench run misbehaved")
        return res

    wall, _ = _best_of(repeat, run)
    return {"wall_s": round(wall, 4)}


# ----------------------------------------------------------------------
# Report / regression gate
# ----------------------------------------------------------------------
def measure(quick: bool, repeat: int) -> dict:
    events = 100_000 if quick else 400_000
    duration_us, warmup_us = (400, 100) if quick else (1200, 300)
    engine = bench_engine(events)
    fig08 = bench_fig08_probe(repeat)
    fig09 = bench_fig09(repeat, duration_us, warmup_us)
    repl = bench_replication(repeat)
    crash = bench_crash_prune(repeat)
    report = {
        "mode": "quick" if quick else "full",
        "host_cpus": os.cpu_count() or 1,
        # Wall clocks are only comparable across entries measured in
        # the same interpreter/kernel configuration; record it.
        "environment": {
            "python": _platform.python_version(),
        },
        "engine": engine,
        "figures": {
            "fig08_probe": fig08,
            "fig09_sweep_serial": fig09["fig09_sweep_serial"],
            "fig09_sweep_fast": fig09["fig09_sweep_fast"],
            "replication": repl,
            "crash_prune": crash,
        },
        "fig09_points": fig09["points"],
        "speedup_fast_vs_serial": fig09["speedup_fast_vs_serial"],
    }
    if not quick:
        report["baseline_pre_pr_fig09_serial_wall_s"] = \
            PRE_PR_FIG09_SERIAL_WALL_S
        report["speedup_vs_pre_pr"] = round(
            PRE_PR_FIG09_SERIAL_WALL_S
            / fig09["fig09_sweep_fast"]["wall_s"], 3)
    return report


def load_entries(path: str) -> list:
    """The benchmark trajectory at ``path`` (oldest first).

    Accepts both the current ``{"entries": [...]}`` layout and the
    legacy single-report file, which becomes the first entry.
    """
    try:
        with open(path) as f:
            data = json.load(f)
    except FileNotFoundError:
        return []
    if isinstance(data, dict) and "entries" in data:
        return list(data["entries"])
    if isinstance(data, dict) and data:
        data.setdefault("label", "pre-trajectory")
        return [data]
    return []


def check(report: dict, baseline_path: str) -> int:
    """Exit status for the CI gate: 1 on a >REGRESSION_MAX regression
    against the committed trajectory's latest entry."""
    entries = load_entries(baseline_path)
    if not entries:
        print(f"check: no committed baseline at {baseline_path}; skipping")
        return 0
    baseline = entries[-1]
    if baseline.get("mode") != report["mode"]:
        # Wall times are only comparable at the same sweep size: scale
        # the gate off the freshly measured serial/fast ratio instead.
        ratio = report["speedup_fast_vs_serial"]
        if ratio * REGRESSION_MAX < 1.0:
            print(f"check: FAIL fast sweep is {1 / ratio:.2f}x slower "
                  f"than serial (mode mismatch vs baseline "
                  f"{baseline.get('mode')!r})")
            return 1
        print(f"check: baseline mode {baseline.get('mode')!r} != "
              f"{report['mode']!r}; fast-vs-serial ratio {ratio:.2f} ok")
        return 0
    failures = []
    for name in ("fig08_probe", "fig09_sweep_serial", "fig09_sweep_fast",
                 "replication", "crash_prune"):
        base = baseline.get("figures", {}).get(name, {}).get("wall_s")
        new = report["figures"][name]["wall_s"]
        if base and new > base * REGRESSION_MAX:
            failures.append(f"{name}: {new:.3f}s vs baseline {base:.3f}s "
                            f"(> {REGRESSION_MAX}x)")
    base_eps = baseline.get("engine", {}).get("events_per_sec")
    new_eps = report["engine"]["events_per_sec"]
    if base_eps and new_eps * REGRESSION_MAX < base_eps:
        failures.append(f"engine: {new_eps} events/s vs baseline "
                        f"{base_eps} (> {REGRESSION_MAX}x slower)")
    for line in failures:
        print(f"check: FAIL {line}")
    if not failures:
        print(f"check: ok (no metric regressed by > {REGRESSION_MAX}x)")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized run (smaller sweeps, same structure)")
    ap.add_argument("--check", action="store_true",
                    help=f"fail on a >{REGRESSION_MAX}x wall-clock "
                         f"regression vs the committed baseline")
    ap.add_argument("--repeat", type=int, default=2,
                    help="timings are best-of-N (default 2)")
    ap.add_argument("--label", default="dev",
                    help="trajectory entry label, e.g. pr9 (default dev)")
    ap.add_argument("--out", default=None,
                    help=f"append the report here (default {DEFAULT_OUT}; "
                         f"with --check the default is to not write)")
    args = ap.parse_args(argv)

    report = measure(args.quick, args.repeat)
    report["label"] = args.label
    print(json.dumps(report, indent=1, sort_keys=True))
    status = 0
    if args.check:
        status = check(report, DEFAULT_OUT)
    out = args.out
    if out is None and not args.check:
        out = DEFAULT_OUT
    if out:
        entries = load_entries(out)
        # Re-measuring under an existing label replaces that entry
        # (keeps one entry per PR however often the harness reruns).
        entries = [e for e in entries if e.get("label") != args.label]
        entries.append(report)
        with open(out, "w") as f:
            json.dump({"entries": entries}, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {out} ({len(entries)} entries, newest "
              f"{args.label!r})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
