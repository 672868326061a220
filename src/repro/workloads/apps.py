"""The eight real-world applications (Table 1, Figure 10) and the
web-server + garbage-collector colocation (Figure 12).

Each application is modelled as a closed loop of
``read -> compute -> (sometimes) write`` with Table 1's exact I/O sizes
and read/write ratios.  The compute-per-operation constants are chosen
from the underlying libraries' published per-byte costs so each app
lands in the paper's classification:

* Snappy, Grep, KNN, BFS, Fileserver -- I/O-intensive or balanced
  (EasyIO wins big);
* JPGDecoder, AES -- computation-dominated (EasyIO wins slightly);
* Webserver -- high contention on the shared log (EasyIO capped).

As in the paper, synchronous filesystems run one worker thread per
core; EasyIO runs workers as uthreads (two per core) on the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.metrics import LatencySeries, ThroughputMeter, Timeline
from repro.core.channel_manager import AppProfile
from repro.runtime import Compute, Runtime, Sleep, Syscall
from repro.workloads.factory import make_fs, make_platform, uses_uthread_runtime
from repro.workloads.fxmark import US, _prepare_file, run_to_completion, settle

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class AppSpec:
    """One Table-1 application."""

    name: str
    read_bytes: int            # avg read size per loop iteration
    write_bytes: int           # avg write size (0 = read-only)
    write_every: int           # one write per this many iterations
    compute_ns: int            # application compute per iteration
    shared_log: bool = False   # webserver: all workers append one log
    fileserver: bool = False   # create/write/read/stat/delete cycle

    @property
    def rw_ratio(self) -> str:
        if self.write_bytes == 0:
            return "1:0"
        if self.write_every > 1:
            return f"{self.write_every}:1"
        return "1:1"


#: Table 1, with calibrated compute costs (see module docstring).
APPS: Dict[str, AppSpec] = {
    "snappy": AppSpec("Snappy", read_bytes=910 * KB, write_bytes=1900 * KB,
                      write_every=1, compute_ns=400_000),
    "jpgdecoder": AppSpec("JPGDecoder", read_bytes=343 * KB,
                          write_bytes=6300 * KB, write_every=1,
                          compute_ns=9_000_000),
    "aes": AppSpec("AES", read_bytes=64 * KB, write_bytes=64 * KB,
                   write_every=1, compute_ns=450_000),
    "grep": AppSpec("Grep", read_bytes=2 * MB, write_bytes=0,
                    write_every=1, compute_ns=350_000),
    "knn": AppSpec("KNN", read_bytes=1 * MB, write_bytes=0,
                   write_every=1, compute_ns=470_000),
    "bfs": AppSpec("BFS", read_bytes=1 * MB, write_bytes=0,
                   write_every=1, compute_ns=120_000),
    "fileserver": AppSpec("Fileserver", read_bytes=1 * MB,
                          write_bytes=1040 * KB, write_every=1,
                          compute_ns=30_000, fileserver=True),
    "webserver": AppSpec("Webserver", read_bytes=256 * KB,
                         write_bytes=16 * KB, write_every=10,
                         compute_ns=15_000, shared_log=True),
}


@dataclass
class AppResult:
    """Outcome of one application run."""

    app: str
    kind: str
    cores: int
    throughput_ops: float
    latency: LatencySeries
    total_ops: int
    cpu_busy_fraction: float


def run_app(kind: str, app_name: str, cores: int,
            duration_us: int = 40_000, warmup_us: int = 8_000,
            single_node: bool = False) -> AppResult:
    """Run one application on one filesystem with ``cores`` workers."""
    spec = APPS[app_name.lower()]
    platform = make_platform(single_node=single_node)
    fs = make_fs(kind, platform)
    engine = platform.engine
    uthread_mode = uses_uthread_runtime(kind)
    workers = cores * 2 if uthread_mode else cores
    worker_cores = platform.cores[:cores]

    # ---- setup ---------------------------------------------------------
    inputs: List[int] = []
    outputs: List[int] = []
    log_ino: List[int] = []

    def setup():
        for w in range(workers):
            ino = yield from _prepare_file(fs, f"/in{w}",
                                           max(spec.read_bytes, 4096))
            inputs.append(ino)
            if spec.write_bytes and not spec.shared_log:
                ctx = fs.context(record=False)
                out = yield from fs.create(ctx, f"/out{w}")
                outputs.append(out)
        if spec.shared_log:
            ctx = fs.context(record=False)
            ino = yield from fs.create(ctx, "/log")
            log_ino.append(ino)
        if spec.fileserver:
            for w in range(workers):
                ctx = fs.context(record=False)
                yield from fs.mkdir(ctx, f"/dir{w}")

    proc = engine.process(setup())
    run_to_completion(engine, proc, "app setup")

    t_start = engine.now
    warmup_end = t_start + warmup_us * US
    t_end = t_start + duration_us * US
    meter = ThroughputMeter(warmup_end, t_end)
    lat = LatencySeries()
    busy0: List[int] = []

    def snapshot():
        yield engine.sleep(warmup_end - engine.now)
        busy0.extend(c.busy_ns() for c in worker_cores)
    engine.process(snapshot())

    def iteration_ops(w: int, i: int):
        """The (op-factory, is_write) steps of one loop iteration."""
        steps = []
        if spec.fileserver:
            path = f"/dir{w}/f{i}"
            steps.append(lambda ctx: fs.create(ctx, path))
            steps.append(lambda ctx, p=path: _write_path(fs, ctx, p,
                                                         spec.write_bytes))
            steps.append(lambda ctx, p=path: _read_path(fs, ctx, p,
                                                        spec.read_bytes))
            steps.append(lambda ctx, p=path: fs.stat(ctx, p))
            steps.append(lambda ctx, p=path: fs.unlink(ctx, p))
            return steps
        ino = inputs[w]
        steps.append(lambda ctx: fs.read(ctx, ino, 0, spec.read_bytes))
        if spec.write_bytes and i % spec.write_every == 0:
            if spec.shared_log:
                target = log_ino[0]
                # Append to the shared log at a bounded rotating offset
                # (a real log is truncated/rotated; this keeps the
                # contention pattern without unbounded growth).
                off = (i % 256) * spec.write_bytes
                steps.append(lambda ctx, o=off: fs.write(
                    ctx, target, o, spec.write_bytes))
            else:
                target = outputs[w]
                steps.append(lambda ctx: fs.write(
                    ctx, target, 0, spec.write_bytes))
        return steps

    if uthread_mode:
        runtime = Runtime(platform, cores=worker_cores)

        def ut_worker(w: int):
            i = 0
            # Stagger start-up so identical per-op times do not convoy
            # every worker into the same I/O phase.
            yield Sleep(1 + (w * (spec.compute_ns + 40_000)) // max(1, workers))
            while engine.now < t_end:
                t0 = engine.now
                for make in iteration_ops(w, i):
                    yield Syscall(make)
                if spec.compute_ns:
                    yield Compute(spec.compute_ns)
                if engine.now >= warmup_end:
                    lat.record(engine.now - t0)
                meter.record(engine.now, spec.read_bytes)
                i += 1

        for w in range(workers):
            runtime.spawn(ut_worker(w), core=w % cores, name=f"{app_name}{w}")
        engine.run()
    else:
        def sync_worker(w: int, core):
            i = 0
            core.mark_busy(f"{app_name}{w}")
            try:
                # Same start-up stagger as the uthread driver.
                yield engine.sleep(
                    1 + (w * (spec.compute_ns + 40_000)) // max(1, workers))
                while engine.now < t_end:
                    t0 = engine.now
                    for make in iteration_ops(w, i):
                        ctx = fs.context(core=core, record=False)
                        result = yield from make(ctx)
                        if hasattr(result, "is_async"):
                            yield from settle(fs, result)
                    if spec.compute_ns:
                        yield engine.sleep(spec.compute_ns)
                    if engine.now >= warmup_end:
                        lat.record(engine.now - t0)
                    meter.record(engine.now, spec.read_bytes)
                    i += 1
            finally:
                core.mark_idle()

        procs = [engine.process(sync_worker(w, worker_cores[w]),
                                name=f"{app_name}{w}")
                 for w in range(cores)]
        engine.run()
        for proc in procs:
            if not proc.ok:  # pragma: no cover
                raise proc.value

    window = t_end - warmup_end
    busy = sum(c.busy_ns() - b for c, b in zip(worker_cores, busy0)) \
        if busy0 else window * cores
    return AppResult(
        app=spec.name, kind=kind, cores=cores,
        throughput_ops=meter.ops_per_sec(),
        latency=lat, total_ops=meter.ops,
        cpu_busy_fraction=min(1.0, busy / (cores * window)),
    )


def _write_path(fs, ctx, path: str, nbytes: int):
    ino = yield from fs.lookup(ctx, path)
    result = yield from fs.write(ctx, ino, 0, nbytes)
    return result


def _read_path(fs, ctx, path: str, nbytes: int):
    ino = yield from fs.lookup(ctx, path)
    result = yield from fs.read(ctx, ino, 0, nbytes)
    return result


# ----------------------------------------------------------------------
# Figure 12: web server (L-app) + garbage collector (B-app) colocation
# ----------------------------------------------------------------------
@dataclass
class ColocationResult:
    """Web-server latency timeline under a periodic GC."""

    mode: str
    timeline: Timeline           # (t, request latency us)
    gc_windows: List             # [(start, end)] of GC activity
    b_limit_trace: List          # channel-manager limit changes

    def max_latency_us(self, during_gc: bool) -> float:
        vals = []
        for t, v in self.timeline.points:
            in_gc = any(s <= t < e for s, e in self.gc_windows)
            if in_gc == during_gc:
                vals.append(v)
        return max(vals) if vals else 0.0


def run_webserver_gc(mode: str, duration_us: int = 20_000,
                     request_interval_us: int = 90,
                     html_bytes: int = 64 * KB,
                     gc_bulk_bytes: int = 2 * MB,
                     slo_us: int = 21,
                     b_limit: float = 1.0,
                     seed: int = 7) -> ColocationResult:
    """Reproduce Figure 12's colocation experiment.

    ``mode`` is one of:

    * ``"dma"`` -- the channel manager throttles the GC's DMA channel
      (EasyIO's approach; the B channel is capped near ``b_limit`` GB/s);
    * ``"cpu"`` -- the GC gets fewer CPU cycles (Caladan-style), which
      fails because its data moves via DMA anyway;
    * ``"none"`` -- no throttling.

    The web server issues Poisson-arrival 64 KB reads (L-app); the GC
    periodically copies ``gc_bulk_bytes`` via the filesystem (B-app).
    """
    import random
    if mode not in ("dma", "cpu", "none"):
        raise ValueError(f"unknown throttle mode {mode!r}")
    rng = random.Random(seed)
    # Colocation happens within one socket (one DMA engine), as in the
    # paper's interference study.
    platform = make_platform(single_node=True)
    from repro.core.channel_manager import ChannelManager
    cm = ChannelManager(platform, b_limit=b_limit)
    fs = make_fs("easyio", platform, channel_manager=cm)
    engine = platform.engine

    web_app = cm.register(AppProfile("webserver", kind="L",
                                     slo_ns=slo_us * US))
    gc_app = cm.register(AppProfile("gc", kind="B"))

    html: List[int] = []
    gc_files: List[int] = []

    def setup():
        for i in range(8):
            ino = yield from _prepare_file(fs, f"/html{i}", html_bytes)
            html.append(ino)
        src = yield from _prepare_file(fs, "/gc_src", gc_bulk_bytes)
        gc_files.append(src)
        for g in range(2):
            ctx = fs.context(record=False)
            dst = yield from fs.create(ctx, f"/gc_dst{g}")
            gc_files.append(dst)

    proc = engine.process(setup())
    run_to_completion(engine, proc, "colocation setup")
    if mode == "dma":
        # Start regulation only now: its epoch ticker would otherwise
        # keep the drain-style setup run() from ever returning.
        cm.start_throttling()

    t_start = engine.now
    t_end = t_start + duration_us * US
    timeline = Timeline()
    # GC activity: bursts in the middle two quarters, like the paper's
    # two GC windows over the 10 s trace.
    q = duration_us * US // 8
    gc_windows = [(t_start + 1 * q, t_start + 3 * q),
                  (t_start + 5 * q, t_start + 7 * q)]

    runtime = Runtime(platform, cores=platform.cores[:4])

    def web_client():
        while engine.now < t_end:
            gap = max(1, int(rng.expovariate(1.0 / (request_interval_us * US))))
            yield Sleep(gap)
            if engine.now >= t_end:
                break
            ino = html[rng.randrange(len(html))]
            t0 = engine.now
            result = yield Syscall(
                lambda ctx, i=ino: _with_app(fs.read(ctx, i, 0, html_bytes),
                                             ctx, web_app))
            latency = engine.now - t0
            web_app.observe(latency)
            timeline.record(engine.now, latency / 1000.0)

    def gc_worker(idx: int):
        src, dst = gc_files[0], gc_files[1 + idx]
        while engine.now < t_end:
            in_gc = any(s <= engine.now < e for s, e in gc_windows)
            if not in_gc:
                yield Sleep(50 * US)
                continue
            # One bulk copy: read the source region, write it back out.
            yield Syscall(lambda ctx: _with_app(
                fs.read(ctx, src, 0, gc_bulk_bytes), ctx, gc_app))
            yield Syscall(lambda ctx: _with_app(
                fs.write(ctx, dst, 0, gc_bulk_bytes), ctx, gc_app))
            if mode == "cpu":
                # CPU throttling: the GC is given far fewer cycles, so
                # it sleeps between copies -- but its DMA traffic is
                # unaffected (the paper's point).
                yield Sleep(120 * US)

    for c in range(3):
        runtime.spawn(web_client(), core=c, name=f"web{c}")
    # The GC keeps a couple of bulk copies in flight (a real collector
    # pipelines its evacuation I/O).
    for g in range(2):
        runtime.spawn(gc_worker(g), core=3, name=f"gc{g}")
    engine.run(until=t_end + 2000 * US)
    cm.stop()
    engine.run()
    return ColocationResult(mode=mode, timeline=timeline,
                            gc_windows=gc_windows,
                            b_limit_trace=list(cm.limit_changes))


def _with_app(op, ctx, app: AppProfile):
    """Tag the context with the issuing app, then run the op."""
    ctx.app = app
    result = yield from op
    return result
