"""FxMark-style microbenchmarks [58].

Three of FxMark's data-plane workloads, as the paper uses them:

* **DWAL/DWOL** (private-file writes) and **DRBL** (private-file reads)
  drive the Figure 8 single-thread latency comparison and the Figure 9
  throughput-vs-latency sweeps.  Each worker owns a preallocated file
  and issues fixed-size I/Os at rotating offsets.
* **DWOM** (shared-file writes) drives the Figure 11 two-level-locking
  ablation: every worker overwrites distinct blocks of one shared file,
  so the file lock is the bottleneck.

Two driver modes, matching the paper's methodology (§6.2):

* synchronous filesystems run one kernel thread pinned per core;
* EasyIO/Naive run inside the Caladan-like runtime, two uthreads per
  core, optionally colocated with pure-compute uthreads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.metrics import LatencySeries, ThroughputMeter
from repro.fs.structures import PAGE_SIZE
from repro.runtime import Compute, Runtime, Syscall, Yield
from repro.workloads.factory import make_fs, make_platform, uses_uthread_runtime

US = 1000  # ns per µs


@dataclass
class FxmarkConfig:
    """One microbenchmark run."""

    kind: str = "nova"            # filesystem under test
    op: str = "write"             # "write" | "read"
    io_size: int = 16 * 1024
    workers: int = 1              # worker threads == cores in sync mode
    shared: bool = False          # DWOM: all workers share one file
    duration_us: int = 3000
    warmup_us: int = 600
    file_bytes: int = 4 * 1024 * 1024
    uthreads_per_core: int = 2    # EasyIO runs 2x uthreads (paper §6.2)
    compute_ns: int = 0           # per-op application compute
    compute_uthreads_per_core: int = 0   # colocated pure-compute uthreads
    single_node: bool = False
    steal: bool = True
    model: object = None          # optional CostModel override

    def __post_init__(self):
        if self.op not in ("write", "read"):
            raise ValueError(f"op must be 'read' or 'write', got {self.op!r}")
        if self.io_size % PAGE_SIZE:
            raise ValueError("io_size must be page-aligned for FxMark runs")
        if self.io_size > self.file_bytes:
            raise ValueError("io_size larger than the file")


@dataclass
class FxmarkResult:
    """Measured outcome of one run."""

    config: FxmarkConfig
    throughput_ops: float         # ops/s in the measurement window
    bandwidth_gbps: float
    latency: LatencySeries
    cores: int                    # worker cores occupied
    cpu_busy_fraction: float      # of the worker cores, in the window
    total_ops: int
    breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_us(self) -> float:
        return self.latency.mean_us()

    @property
    def p99_us(self) -> float:
        return self.latency.p99_us()


def settle(fs, result):
    """Wait out an asynchronous op; run its deferred commit syscall if
    the filesystem (the Naive ablation) split the op in two."""
    if result.is_async:
        yield result.pending
    continuation = getattr(result, "continuation", None)
    if continuation is not None:
        ctx = fs.context(record=False)
        yield from continuation(ctx)
    return result


def run_to_completion(engine, proc, what: str = "workload"):
    """Drain the engine and fail loudly if the process stalled."""
    engine.run()
    if proc.is_alive:
        raise RuntimeError(f"{what} stalled (deadlock or missing wakeup)")
    if not proc.ok:
        raise proc.value
    return proc.value


def _prepare_file(fs, path: str, nbytes: int):
    """Create and fill one file (setup phase, costs excluded).

    One write fills the whole file.  It runs the same pipeline and
    leaves the same pages and mapping as any chunking would, and how
    setup is chunked never reaches the measured window: every Figure 9
    point measures identically with a single fill write or with 256 KiB
    chunks (the end-to-end benchmark's 120 fig09 digests are equal
    either way).
    """
    ctx = fs.context(record=False)
    ino = yield from fs.create(ctx, path)
    if nbytes:
        ctx = fs.context(record=False)
        result = yield from fs.write(ctx, ino, 0, nbytes)
        yield from settle(fs, result)
    return ino


def _op_once(fs, ctx, op: str, ino: int, offset: int, size: int):
    """The op's coroutine.  A plain call rather than a wrapping
    generator, so no extra frame sits on every resume."""
    if op == "write":
        return fs.write(ctx, ino, offset, size)
    return fs.read(ctx, ino, offset, size)


def run_fxmark(cfg: FxmarkConfig) -> FxmarkResult:
    """Execute one microbenchmark configuration and return its result."""
    platform = make_platform(single_node=cfg.single_node, model=cfg.model)
    fs = make_fs(cfg.kind, platform)
    engine = platform.engine
    n = cfg.workers
    if n < 1:
        raise ValueError("need at least one worker")
    worker_cores = platform.cores[:n]

    # ---- setup: files ------------------------------------------------
    slots = cfg.file_bytes // cfg.io_size
    files: List[int] = []
    uthread_mode = uses_uthread_runtime(cfg.kind)
    total_workers = n * cfg.uthreads_per_core if uthread_mode else n
    n_files = 1 if cfg.shared else total_workers
    def setup():
        for i in range(n_files):
            ino = yield from _prepare_file(fs, f"/fx{i}", cfg.file_bytes)
            files.append(ino)
    proc = engine.process(setup())
    run_to_completion(engine, proc, "fxmark setup")

    t_start = engine.now
    warmup_end = t_start + cfg.warmup_us * US
    t_end = t_start + cfg.duration_us * US
    meter = ThroughputMeter(warmup_end, t_end)
    lat = LatencySeries(f"{cfg.kind}-{cfg.op}")
    busy_at_warmup: List[int] = []

    def snapshot_busy():
        yield engine.sleep(warmup_end - engine.now)
        busy_at_warmup.extend(core.busy_ns() for core in worker_cores)
    engine.process(snapshot_busy())

    def offset_for(worker: int, i: int) -> int:
        if cfg.shared:
            # DWOM: distinct rotating blocks of the shared file.
            return ((worker + i * n) % slots) * cfg.io_size
        return (i % slots) * cfg.io_size

    breakdown_sum: Dict[str, float] = {}
    breakdown_ops = 0

    def account(result):
        nonlocal breakdown_ops
        if result.ctx is not None and engine.now >= warmup_end:
            for phase, ns in result.ctx.breakdown.items():
                breakdown_sum[phase] = breakdown_sum.get(phase, 0.0) + ns
            breakdown_ops += 1

    if uthread_mode:
        runtime = Runtime(platform, cores=worker_cores, steal=cfg.steal)

        def ut_worker(widx: int, ino: int):
            i = 0
            while engine.now < t_end:
                off = offset_for(widx, i)
                t0 = engine.now
                result = yield Syscall(
                    lambda ctx, o=off: _op_once(fs, ctx, cfg.op, ino, o,
                                                cfg.io_size))
                if engine.now >= warmup_end:
                    lat.record(engine.now - t0)
                meter.record(engine.now, cfg.io_size)
                account(result)
                if cfg.compute_ns:
                    yield Compute(cfg.compute_ns)
                i += 1

        def compute_worker():
            # Scientific-computation uthread (Fig 11): computes in
            # slices and yields cooperatively between them.
            while engine.now < t_end:
                yield Compute(5 * US)
                yield Yield()

        for u in range(total_workers):
            ino = files[0] if cfg.shared else files[u % n_files]
            runtime.spawn(ut_worker(u, ino), core=u % n, name=f"fx{u}")
        for c in range(n * cfg.compute_uthreads_per_core):
            runtime.spawn(compute_worker(), core=c % n, name=f"cpu{c}")
        engine.run()
        if runtime.active_uthreads:
            # This really happens: the Naive ablation holds the file
            # lock across its two syscalls, so colocating two DWOM
            # uthreads on one core deadlocks (§3 of the paper).
            raise RuntimeError(
                f"{runtime.active_uthreads} uthreads deadlocked "
                f"({cfg.kind} on a shared file: the §3 lock-across-"
                f"scheduling deadlock)")
    else:
        def sync_worker(widx: int, ino: int, core):
            i = 0
            core.mark_busy(f"fx{widx}")
            try:
                while engine.now < t_end:
                    off = offset_for(widx, i)
                    ctx = fs.context(core=core)
                    t0 = engine.now
                    result = yield from _op_once(fs, ctx, cfg.op, ino, off,
                                                 cfg.io_size)
                    # Busy-poll the completion (single-thread EasyIO
                    # latency mode; sync filesystems never hit this) and
                    # run any deferred commit (the Naive ablation).
                    yield from settle(fs, result)
                    if engine.now >= warmup_end:
                        lat.record(engine.now - t0)
                    meter.record(engine.now, cfg.io_size)
                    account(result)
                    if cfg.compute_ns:
                        yield engine.sleep(cfg.compute_ns)
                    i += 1
            finally:
                core.mark_idle()

        procs = [engine.process(
                     sync_worker(w, files[0] if cfg.shared else files[w],
                                 worker_cores[w]),
                     name=f"fx{w}")
                 for w in range(n)]
        engine.run()
        for proc in procs:
            if not proc.ok:  # pragma: no cover
                raise proc.value

    window = t_end - warmup_end
    if busy_at_warmup:
        busy = sum(core.busy_ns() - b0
                   for core, b0 in zip(worker_cores, busy_at_warmup))
        cpu_fraction = busy / (len(worker_cores) * window)
    else:  # pragma: no cover - warmup snapshot always runs
        cpu_fraction = 1.0
    avg_breakdown = {p: v / breakdown_ops for p, v in breakdown_sum.items()} \
        if breakdown_ops else {}
    return FxmarkResult(
        config=cfg,
        throughput_ops=meter.ops_per_sec(),
        bandwidth_gbps=meter.bandwidth_gbps(),
        latency=lat,
        cores=n,
        cpu_busy_fraction=min(1.0, cpu_fraction),
        total_ops=meter.ops,
        breakdown=avg_breakdown,
    )


def measure_single_op(kind: str, op: str, io_size: int,
                      single_node: bool = False, repeats: int = 32,
                      model=None):
    """Single-threaded per-op latency + CPU breakdown (Figures 1 and 8).

    One worker, busy-polling completions, private preallocated file.
    Returns ``(mean_latency_ns, mean_cpu_ns, breakdown_dict)``.
    """
    platform = make_platform(single_node=single_node, model=model)
    fs = make_fs(kind, platform)
    engine = platform.engine
    file_bytes = max(4 * 1024 * 1024, io_size * 4)
    slots = file_bytes // io_size
    out = {"lat": 0, "cpu": 0, "bd": {}, "n": 0}

    def run():
        ino = yield from _prepare_file(fs, "/probe", file_bytes)
        # Warm two ops, then measure.
        for i in range(repeats + 2):
            off = (i % slots) * io_size
            ctx = fs.context()
            t0 = engine.now
            result = yield from _op_once(fs, ctx, op, ino, off, io_size)
            yield from settle(fs, result)
            if i < 2:
                continue
            out["lat"] += engine.now - t0
            out["cpu"] += ctx.cpu_ns
            for phase, ns in ctx.breakdown.items():
                out["bd"][phase] = out["bd"].get(phase, 0) + ns
            out["n"] += 1

    proc = engine.process(run())
    run_to_completion(engine, proc, "single-op probe")
    n = out["n"]
    return (out["lat"] / n, out["cpu"] / n,
            {p: v / n for p, v in out["bd"].items()})
