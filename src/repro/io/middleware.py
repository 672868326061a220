"""Middleware stages shared by the I/O pipelines.

A pipeline threads each operation through a short, fixed chain --
level-2 gate -> lock-contention charge -> deadline check -> admission
-> copy backend -> fault supervision -> stats -- and each stage here
owns exactly one of those policies.  The stages hold *policy*, not
data movement: the bytes move in :mod:`repro.io.backends`.
"""

from __future__ import annotations


class Level2Gate:
    """The two-level lock's level-2 check (EasyIO §4.3).

    Blocks until the previous write's DMA lands.  Runs with the
    level-1 lock held; safe because completion is hardware-driven and
    always makes progress (no deadlock).  The wait spins inside the
    syscall, so it costs CPU -- which is why high-contention workloads
    cap EasyIO's benefit (§6.6).

    Under fault supervision the wait targets the supervisor's
    all-data-landed event instead of the raw completion buffer: a
    halted channel's completion may never arrive, but the supervisor
    always resolves (retry, failover, or memcpy).

    With a context deadline the wait is bounded: it raises
    ``DeadlineExceeded`` (detaching from, never cancelling, the shared
    completion event) once the budget runs out.
    """

    def __init__(self, fs):
        self.fs = fs

    def wait(self, ctx, m):
        done = m.pending_done
        if done is not None and not done.triggered:
            ctx.trace_begin("level2", ino=m.ino)
            try:
                yield from ctx.timed_wait(done,
                                          what=f"level-2 wait ino{m.ino}")
            finally:
                ctx.trace_end("level2")
            return
        for chid, sn in m.pending_sns:
            ch = self.fs.platform.dma.channel(chid)
            if not ch.is_complete(sn):
                ctx.trace_begin("level2", ino=m.ino, ch=chid, sn=sn)
                try:
                    yield from ctx.timed_wait(
                        ch.completion_event(sn),
                        what=f"level-2 completion ch{chid}/sn{sn}")
                finally:
                    ctx.trace_end("level2")


class DeadlineGate:
    """Clean abort point: nothing allocated or submitted yet."""

    @staticmethod
    def check(ctx, m) -> None:
        if ctx.deadline is not None:
            ctx.check_deadline(f"write ino{m.ino} pre-submit")


class AdmissionControl:
    """Overload policy: run the data path synchronously when the
    scheduler demanded it or the deadline budget is too thin."""

    def __init__(self, overload_stats, min_async_ns: int):
        self.overload_stats = overload_stats
        #: Below this much remaining budget the async path is not
        #: worth the completion-wait risk: stay on the memcpy path.
        self.min_async_ns = min_async_ns

    def forces_sync(self, ctx) -> bool:
        if ctx.force_sync:
            return True
        rem = ctx.remaining()
        return rem is not None and rem < self.min_async_ns

    def note_degraded(self) -> None:
        self.overload_stats.degraded_to_sync += 1


class SupervisionPolicy:
    """Should offloaded operations run under a fault supervisor?

    Reads the filesystem's ``fault_tolerant`` override dynamically
    (None = auto: supervise iff a fault plan is installed on the image
    or any DMA channel; detection is sticky once seen).
    """

    def __init__(self, fs, supervisor):
        self.fs = fs
        #: The :class:`~repro.io.supervision.FaultSupervisor` driving
        #: supervised operations to resolution.
        self.supervisor = supervisor
        self._ft_seen = False

    def active(self) -> bool:
        fs = self.fs
        if fs.fault_tolerant is not None:
            return fs.fault_tolerant
        if self._ft_seen:
            return True
        if (fs.image.fault_plan is not None
                or any(ch.fault_plan is not None
                       for ch in fs.platform.dma.channels)):
            self._ft_seen = True
            return True
        return False


class OpCounters:
    """The stats stage: per-variant operation counters.

    The counters themselves stay as plain attributes on the filesystem
    object (``fs.dma_writes``, ``fs.memcpy_ops``, ...) -- the public
    surface tests and benchmarks read -- and this stage is the single
    place pipelines bump them through.
    """

    def __init__(self, fs):
        self.fs = fs

    def bump(self, name: str, by: int = 1) -> None:
        setattr(self.fs, name, getattr(self.fs, name) + by)
