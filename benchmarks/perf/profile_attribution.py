"""Per-subsystem cProfile attribution for the tracked wall-clock units.

The perf trajectory (``BENCH_sim_perf.json``) tells us *that* a sweep
got slower or faster; it does not say *where* the time goes.  This
script profiles two tracked wall-clock units --

* the serial full-payload fig09 throughput-latency sweep, and
* the pruned line-granularity crash sweep (``crash_prune``),

-- and aggregates cumulative/total time per repro subsystem (the
top-level package directory a frame's file lives in: ``hw``, ``crash``,
``sim``, ``analysis``, ...), plus the top functions by tottime.  The
breakdown is committed as ``PROFILE_attribution.json`` next to this
script so each change's kernel choices are justified by numbers in the
tree, not by folklore.  Usage::

    PYTHONPATH=src python benchmarks/perf/profile_attribution.py
    PYTHONPATH=src python benchmarks/perf/profile_attribution.py --quick
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "PROFILE_attribution.json")

SRC_MARKER = os.path.join("repro", "")


def _subsystem(filename: str) -> str:
    """Map a frame's file to its repro subsystem (or a builtin tag)."""
    idx = filename.rfind(SRC_MARKER)
    if idx < 0:
        return "<other>" if os.sep in filename else "<builtin>"
    rel = filename[idx + len(SRC_MARKER):]
    head = rel.split(os.sep, 1)
    return f"repro.{head[0][:-3]}" if head[0].endswith(".py") and len(head) == 1 \
        else f"repro.{head[0]}"


def profile_unit(label: str, fn) -> dict:
    prof = cProfile.Profile()
    prof.enable()
    fn()
    prof.disable()
    stats = pstats.Stats(prof)
    stats.calc_callees()
    total = stats.total_tt

    by_subsystem: dict = {}
    top_functions = []
    for (filename, lineno, name), (cc, nc, tt, ct, _callers) in \
            stats.stats.items():
        sub = _subsystem(filename)
        agg = by_subsystem.setdefault(sub, {"tottime": 0.0, "calls": 0})
        agg["tottime"] += tt
        agg["calls"] += nc
        top_functions.append((tt, ct, nc, f"{sub}:{name}"))
    top_functions.sort(reverse=True)

    return {
        "label": label,
        "total_tt_s": round(total, 4),
        "by_subsystem": {
            sub: {"tottime_s": round(v["tottime"], 4),
                  "share": round(v["tottime"] / total, 4) if total else 0.0,
                  "calls": v["calls"]}
            for sub, v in sorted(by_subsystem.items(),
                                 key=lambda kv: -kv[1]["tottime"])},
        "top_functions": [
            {"where": where, "tottime_s": round(tt, 4),
             "cumtime_s": round(ct, 4), "calls": nc}
            for tt, ct, nc, where in top_functions[:25]],
    }


def fig09_serial(duration_us: int, warmup_us: int):
    from repro.analysis.sweep import fxmark_sweep
    out = {}
    for op in ("write", "read"):
        out.update(fxmark_sweep(
            ("nova", "nova-dma", "odinfs", "easyio"), (1, 4), op=op,
            io_size=16384, duration_us=duration_us, warmup_us=warmup_us,
            processes=1))
    return out


def crash_prune():
    from repro.crash import run_crash_test
    report = run_crash_test("easyio", "generic_056", granularity="line",
                            per_signature=3)
    assert report.all_passed
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller fig09 sweep (same structure)")
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)

    duration_us, warmup_us = (400, 100) if args.quick else (1200, 300)
    report = {
        "mode": "quick" if args.quick else "full",
        "python": sys.version.split()[0],
        "units": [
            profile_unit("fig09_sweep_serial",
                         lambda: fig09_serial(duration_us, warmup_us)),
            profile_unit("crash_prune", crash_prune),
        ],
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    for unit in report["units"]:
        print(f"== {unit['label']} ({unit['total_tt_s']}s) ==")
        for sub, v in list(unit["by_subsystem"].items())[:8]:
            print(f"  {sub:<24} {v['tottime_s']:>8.3f}s  "
                  f"{v['share'] * 100:5.1f}%")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
