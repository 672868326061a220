"""Overload robustness: admission control vs open-loop queue blow-up.

Not a figure from the paper -- a robustness claim the artifact adds on
top of it.  An open-loop Poisson arrival stream at ~3x the data path's
capacity drives the EasyIO runtime four ways:

* **unprotected** (no deadlines, no admission): every request eventually
  completes, but the run queue and p99 latency grow with the length of
  the burst -- the classic open-loop collapse;
* **deadline-only**: per-request deadlines bound p99 (late requests die
  with ``DeadlineExceeded``), but only *after* wasting queue time, so
  goodput is poor;
* **admission (reject)**: a queue-depth gate turns the excess away at
  the syscall boundary while it is still cheap -- backlog stays near
  the configured bound, completed requests keep a tight p99, and
  goodput *beats* the deadline-only run;
* **admission (shed)**: same, but priority-aware -- high-priority
  requests ride through the overload.

The whole experiment is deterministic (seeded arrivals, simulated
clock): an identical re-run must reproduce identical counts.
"""

from dataclasses import asdict

from benchmarks.conftest import run_once, show
from repro.analysis.report import banner, fmt_counters, fmt_table
from repro.workloads.overload import OverloadConfig, run_overload

RATE = 600_000          # offered load, ops/s (~3x capacity of 2 cores)
DURATION_US = 2000
DEADLINE_US = 300
MAX_QDEPTH = 16
SEED = 42


def _cfg(**kw):
    base = dict(arrival_rate_ops_per_sec=RATE, duration_us=DURATION_US,
                seed=SEED)
    base.update(kw)
    return OverloadConfig(**base)


def reproduce():
    return {
        "unprotected": run_overload(_cfg(deadline_us=None)),
        "deadline": run_overload(_cfg(deadline_us=DEADLINE_US)),
        "admit": run_overload(_cfg(deadline_us=DEADLINE_US,
                                   admission_policy="reject",
                                   max_queue_depth=MAX_QDEPTH,
                                   watchdog=True)),
        "admit2": run_overload(_cfg(deadline_us=DEADLINE_US,
                                    admission_policy="reject",
                                    max_queue_depth=MAX_QDEPTH,
                                    watchdog=True)),
        "shed": run_overload(_cfg(deadline_us=DEADLINE_US,
                                  admission_policy="shed",
                                  max_queue_depth=MAX_QDEPTH,
                                  priority_fraction=0.2)),
    }


def test_overload(benchmark):
    out = run_once(benchmark, reproduce)
    unprot, dl, admit, admit2, shed = (
        out["unprotected"], out["deadline"], out["admit"], out["admit2"],
        out["shed"])

    show(banner(f"Open-loop overload: {RATE/1000:.0f}k ops/s offered on "
                f"{unprot.config.cores} cores for {DURATION_US} us"))
    rows = []
    for name, r in (("unprotected", unprot), ("deadline-only", dl),
                    ("admission/reject", admit), ("admission/shed", shed)):
        rows.append([name, r.offered, r.completed, r.rejected,
                     r.deadline_missed, r.queue_high_water,
                     f"{r.p99_us:.0f}", f"{r.goodput:.2f}",
                     f"{r.drain_ns // 1000}"])
    show(fmt_table(["config", "offered", "done", "rej", "miss",
                    "queue hw", "p99 us", "goodput", "drain us"], rows))
    show(fmt_counters("admission/reject counters", asdict(admit.stats)))

    # Open-loop collapse: the unprotected run's backlog and p99 blow up.
    assert unprot.completed == unprot.offered
    assert unprot.queue_high_water > 5 * admit.queue_high_water
    assert unprot.p99_us > 5 * admit.p99_us

    # Deadlines alone bound p99 (within one parked-completion of the
    # budget) but waste queue time before giving up.
    assert dl.deadline_missed > 0
    assert dl.p99_us < DEADLINE_US + 100
    assert dl.stats.deadline_misses == dl.deadline_missed

    # Admission keeps backlog near the configured bound and turns the
    # excess into fast failures -- beating deadline-only goodput.
    assert admit.queue_high_water <= 2 * MAX_QDEPTH
    assert admit.rejected > 0
    assert admit.goodput > dl.goodput
    assert admit.p99_us < dl.p99_us
    # Mechanism-side counters agree with what the requests observed.
    assert admit.stats.rejected == admit.rejected
    assert admit.stats.admitted == admit.completed + admit.deadline_missed
    # A healthy protected run never trips the hang watchdog.
    assert admit.stats.watchdog_trips == 0 and not admit.hang_reports

    # Priority-aware shedding behaves like reject for the masses.
    assert shed.stats.shed > 0 and shed.completed > 0
    assert shed.queue_high_water <= 2 * MAX_QDEPTH

    # Determinism: the same seed reproduces the run exactly.
    for field in ("offered", "completed", "rejected", "deadline_missed",
                  "queue_high_water"):
        assert getattr(admit, field) == getattr(admit2, field), field
    assert admit.p99_us == admit2.p99_us
