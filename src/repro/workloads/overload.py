"""Open-loop overload workload (robustness experiment).

Unlike the closed-loop FxMark drivers (each worker issues its next op
only after the previous one returns), requests here arrive on an
**open-loop** Poisson process at a configured offered load, independent
of service completions -- the regime where an unprotected runtime's
queues grow without bound and p99 latency diverges.

Each arrival spawns a fresh uthread with an absolute **deadline**
(``deadline_us`` past its arrival) that propagates into the
filesystem's waits (:mod:`repro.fs.nova`) and is judged by the
:class:`~repro.runtime.watchdog.Watchdog`.  The optional
:class:`~repro.runtime.admission.AdmissionController` gates the syscall
boundary; comparing a run with it off against a run with it on is the
whole experiment:

* admission **off**, offered load > capacity: run-queue high-water and
  p99 grow with the duration of the burst;
* admission **on**: backlog stays near the configured bound, completed
  requests keep a bounded p99, and the turned-away remainder fails
  fast (``rejected``) instead of slowly (``deadline_missed``).

Everything is deterministic: one seeded ``random.Random`` drives
arrival gaps and priority assignment, and time is the simulated clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.metrics import LatencySeries, OverloadStats
from repro.fs.nova import DeadlineExceeded, FsError
from repro.fs.structures import PAGE_SIZE
from repro.runtime import (
    AdmissionController,
    OverloadRejected,
    Runtime,
    Syscall,
    Watchdog,
)
from repro.sim import WaitTimeout
from repro.workloads.factory import make_fs, make_platform
from repro.workloads.fxmark import US, _op_once, _prepare_file, run_to_completion


@dataclass
class OverloadConfig:
    """One open-loop overload run."""

    kind: str = "easyio"
    op: str = "write"             # "write" | "read"
    io_size: int = 16 * 1024
    cores: int = 2                # worker cores under the runtime
    #: Offered load (request arrivals per second, open loop).
    arrival_rate_ops_per_sec: float = 150_000.0
    duration_us: int = 2000       # arrival window (drain time excluded)
    #: Per-request budget past arrival; ``None`` = unbounded requests.
    deadline_us: Optional[int] = 300
    n_files: int = 8
    file_bytes: int = 1024 * 1024
    seed: int = 42
    single_node: bool = True
    steal: bool = True
    # -- admission control (None policy = no controller installed) ----
    admission_policy: Optional[str] = None   # "reject" | "shed" | "degrade"
    admit_rate_ops_per_sec: Optional[float] = None
    admit_burst: int = 32
    max_inflight: Optional[int] = None
    max_queue_depth: Optional[int] = None
    #: Fraction of requests spawned high-priority (rides through "shed").
    priority_fraction: float = 0.0
    # -- watchdog ------------------------------------------------------
    watchdog: bool = False
    watchdog_grace_factor: int = 3
    watchdog_budget_us: Optional[int] = None  # for deadline-less uthreads

    def __post_init__(self):
        if self.op not in ("write", "read"):
            raise ValueError(f"op must be 'read' or 'write', got {self.op!r}")
        if self.io_size % PAGE_SIZE:
            raise ValueError("io_size must be page-aligned")
        if self.arrival_rate_ops_per_sec <= 0:
            raise ValueError("arrival rate must be > 0")


@dataclass
class OverloadResult:
    """Observed outcome of one run (workload-side view).

    ``stats`` is the runtime's shared counter set -- the mechanism-side
    view (what admission/scheduler/fs/watchdog each counted); the
    integer fields here are what the *requests* observed, so the two
    cross-check each other.
    """

    config: OverloadConfig
    offered: int                  # requests that arrived
    completed: int
    rejected: int                 # OverloadRejected observed
    deadline_missed: int          # DeadlineExceeded observed
    failed: int                   # other typed filesystem failures
    latency: LatencySeries        # completed requests only
    queue_high_water: int         # deepest per-core run queue seen
    inflight_high_water: int      # 0 when no controller installed
    drain_ns: int                 # time to drain backlog after arrivals
    stats: OverloadStats
    hang_reports: List = field(default_factory=list)

    @property
    def goodput(self) -> float:
        """Fraction of offered requests that completed in time."""
        return self.completed / self.offered if self.offered else 0.0

    @property
    def p99_us(self) -> float:
        return self.latency.p99_us()


def run_overload(cfg: OverloadConfig) -> OverloadResult:
    """Execute one open-loop overload configuration."""
    platform = make_platform(single_node=cfg.single_node)
    fs = make_fs(cfg.kind, platform)
    engine = platform.engine
    worker_cores = platform.cores[:cfg.cores]

    files: List[int] = []

    def setup():
        for i in range(cfg.n_files):
            ino = yield from _prepare_file(fs, f"/ov{i}", cfg.file_bytes)
            files.append(ino)
    run_to_completion(engine, engine.process(setup()), "overload setup")

    admission = None
    if cfg.admission_policy is not None:
        admission = AdmissionController(
            engine,
            rate_ops_per_sec=cfg.admit_rate_ops_per_sec,
            burst=cfg.admit_burst,
            max_inflight=cfg.max_inflight,
            max_queue_depth=cfg.max_queue_depth,
            policy=cfg.admission_policy,
        )
    runtime = Runtime(platform, cores=worker_cores, steal=cfg.steal,
                      admission=admission)
    watchdog = None
    if cfg.watchdog:
        budget = (cfg.watchdog_budget_us * US
                  if cfg.watchdog_budget_us is not None else None)
        watchdog = Watchdog(runtime, grace_factor=cfg.watchdog_grace_factor,
                            default_budget_ns=budget)

    rng = random.Random(cfg.seed)
    slots = cfg.file_bytes // cfg.io_size
    lat = LatencySeries()
    counts = {"offered": 0, "completed": 0, "rejected": 0,
              "deadline_missed": 0, "failed": 0}

    def request(rid: int, ino: int, off: int, t0: int):
        # ``t0`` is the *arrival* time: latency includes the run-queue
        # delay before first scheduling, which is where open-loop
        # overload actually hurts.
        try:
            yield Syscall(lambda ctx: _op_once(fs, ctx, cfg.op, ino, off,
                                               cfg.io_size))
        except OverloadRejected:
            counts["rejected"] += 1
            return
        except DeadlineExceeded:
            counts["deadline_missed"] += 1
            return
        except (FsError, WaitTimeout):
            counts["failed"] += 1
            return
        lat.record(engine.now - t0)
        counts["completed"] += 1

    t_start = engine.now
    t_close = t_start + cfg.duration_us * US
    rate_per_ns = cfg.arrival_rate_ops_per_sec / 1e9

    def arrivals():
        rid = 0
        while True:
            gap = max(1, round(rng.expovariate(rate_per_ns)))
            yield engine.sleep(gap)
            if engine.now >= t_close:
                return
            counts["offered"] += 1
            deadline = (engine.now + cfg.deadline_us * US
                        if cfg.deadline_us is not None else None)
            priority = 1 if rng.random() < cfg.priority_fraction else 0
            ino = files[rid % cfg.n_files]
            off = ((rid // cfg.n_files) % slots) * cfg.io_size
            runtime.spawn(request(rid, ino, off, engine.now),
                          name=f"req{rid}", deadline=deadline,
                          priority=priority)
            rid += 1

    engine.process(arrivals(), name="arrivals")
    engine.run()
    drain_ns = engine.now - t_close
    if runtime.active_uthreads:
        raise RuntimeError(
            f"{runtime.active_uthreads} requests never finished "
            f"(lost wakeup -- the watchdog reports should say where)")

    return OverloadResult(
        config=cfg,
        offered=counts["offered"],
        completed=counts["completed"],
        rejected=counts["rejected"],
        deadline_missed=counts["deadline_missed"],
        failed=counts["failed"],
        latency=lat,
        queue_high_water=max(s.queue_high_water
                             for s in runtime.schedulers),
        inflight_high_water=(admission.inflight_high_water
                             if admission is not None else 0),
        drain_ns=max(0, drain_ns),
        stats=runtime.overload_stats,
        hang_reports=list(watchdog.reports) if watchdog is not None else [],
    )
