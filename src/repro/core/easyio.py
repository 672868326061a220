"""EasyIO applied to NOVA (§4-§5): the asynchronous slow-memory filesystem.

What changes relative to the synchronous :class:`~repro.fs.nova.NovaFS`
mirrors the paper's <50-line NOVA patch:

* the read/write data paths go through the channel manager and the
  on-chip DMA engine instead of memcpy (with selective offloading);
* write log entries carry the SN of their DMA descriptors, letting the
  metadata commit proceed *in parallel* with the data copy
  (**orderless file operation**, §4.2);
* the file lock is released as soon as the metadata commit lands, and
  a **two-level lock** (§4.3) -- the level-2 check compares the last
  committed mapping's SN against the channel's completion buffer --
  regulates write-write/read conflicts while read-write conflicts
  proceed immediately (CoW protects in-flight readers);
* recovery discards committed entries whose SNs the persistent
  completion buffers do not cover (wired via
  :func:`repro.fs.recovery.completion_buffer_validator`).

Fault tolerance (active when a :class:`~repro.faults.FaultPlan` is
installed, or forced via ``fault_tolerant=True``): every offloaded
operation gets a *supervisor* process
(:class:`~repro.io.supervision.FaultSupervisor`) that watches its
descriptors -- retry with bounded backoff, failover to a healthy
channel, graceful degradation to memcpy.  SN-safety: failed/stranded
SNs are persisted as poisoned *before* any later completion can cover
them (the hardware reports them through ``on_error``/``on_reset``
first), and after a failover the committed log entry's SN field is
amended to the new (channel, sn) pairs -- so the recovery validator
stays sound at every crash point inside the retry/failover window.

Its data path (see :mod:`repro.io`) is the
:class:`~repro.io.pipeline.OrderlessWritePipeline` and
:class:`~repro.io.pipeline.AsyncReadPipeline` over
:class:`~repro.io.backends.DmaAsyncBackend`, returning one pending
event per descriptor batch.  The policies those pipelines consult are
methods here: the level-2 wait (:meth:`EasyIoFS._wait_level2`), the
admission test (:meth:`EasyIoFS._forces_sync`) and whether to run
under the fault supervisor (:meth:`EasyIoFS._supervised`).

:class:`NaiveAsyncFS` is the §6.4 ablation: asynchronous DMA offload
*without* orderless operation or two-level locking -- data and metadata
strictly ordered into two syscalls, the file lock held across the gap
(:class:`~repro.io.pipeline.OrderedAsyncWritePipeline`).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.metrics import OverloadStats
from repro.core.channel_manager import ChannelManager
from repro.fs.nova import NovaFS, OpContext
from repro.fs.pmimage import PMImage
from repro.fs.structures import MemInode
from repro.hw.dma import DmaChannel
from repro.hw.platform import Platform
from repro.io import (
    AsyncReadPipeline,
    DmaAsyncBackend,
    FaultSupervisor,
    MemcpyBackend,
    OrderedAsyncWritePipeline,
    OrderlessWritePipeline,
    VerifyingPagePersister,
)


class EasyIoFS(NovaFS):
    """NOVA + EasyIO: asynchronous read()/write() with orderless
    metadata, two-level locking, and fault-tolerant offload."""

    name = "EasyIO"

    #: Bounded exponential backoff for descriptor retries (sim-time);
    #: mirrored from the fault supervisor for API stability.
    DMA_RETRY_MAX = FaultSupervisor.DMA_RETRY_MAX
    DMA_RETRY_BASE_NS = FaultSupervisor.DMA_RETRY_BASE_NS
    DMA_RETRY_CAP_NS = FaultSupervisor.DMA_RETRY_CAP_NS
    #: Give up on a page after this many checksum-verify rewrites.
    MEDIA_REWRITE_MAX = VerifyingPagePersister.MEDIA_REWRITE_MAX
    #: Below this much remaining deadline budget the async path is not
    #: worth the completion-wait risk: stay on the memcpy path.
    DEADLINE_MIN_ASYNC_NS = 10_000

    def __init__(self, platform: Platform, image: Optional[PMImage] = None,
                 channel_manager: Optional[ChannelManager] = None,
                 fault_tolerant: Optional[bool] = None,
                 overload_stats: Optional[OverloadStats] = None):
        self.cm = channel_manager or ChannelManager(platform)
        #: Overload/deadline counters, shareable with the runtime's
        #: admission controller and watchdog.
        self.overload_stats = overload_stats or OverloadStats()
        #: None = auto: supervise offloaded ops iff a fault plan is
        #: installed on the hardware or the image.  True/False forces.
        self.fault_tolerant = fault_tolerant
        self._ft_seen = False
        super().__init__(platform, image)
        # EasyIO places completion buffers in a persistent region
        # (§4.2): every completion-buffer update is a durable store.
        # Failed/stranded SNs are likewise persisted (poisoned) the
        # instant the hardware reports them -- before any later
        # completion can cover them.
        for ch in platform.dma.channels:
            ch.on_completion = self._persist_completion
            ch.on_error = self._persist_channel_errors
            ch.on_reset = self._persist_channel_errors

    @property
    def fault_stats(self):
        """Shared fault/retry/degradation counters (see FaultStats)."""
        return self.cm.fault_stats

    def _persist_completion(self, channel: DmaChannel) -> None:
        self.image.update_completion_buffer(channel.channel_id,
                                            channel.completion_sn)

    def _persist_channel_errors(self, channel: DmaChannel, sns) -> None:
        self.image.record_channel_errors(channel.channel_id, tuple(sns))

    # ------------------------------------------------------------------
    # Two-level locking (§4.3)
    # ------------------------------------------------------------------
    def _wait_level2(self, ctx: OpContext, m: MemInode):
        """Level-2 check: block until the previous write's DMA lands.

        Runs with the level-1 lock held; safe because completion is
        hardware-driven and always makes progress (no deadlock).  The
        wait spins inside the syscall, so it costs CPU -- which is why
        high-contention workloads cap EasyIO's benefit (§6.6).

        Under fault supervision the wait targets the supervisor's
        all-data-landed event instead of the raw completion buffer: a
        halted channel's completion may never arrive, but the
        supervisor always resolves (retry, failover, or memcpy).

        With a context deadline the wait is bounded: it raises
        ``DeadlineExceeded`` (detaching from, never cancelling, the
        shared completion event) once the budget runs out.
        """
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
            ch = self.platform.dma.channel(chid)
            if not ch.is_complete(sn):
                ctx.trace_begin("level2", ino=m.ino, ch=chid, sn=sn)
                try:
                    yield from ctx.timed_wait(
                        ch.completion_event(sn),
                        what=f"level-2 completion ch{chid}/sn{sn}")
                finally:
                    ctx.trace_end("level2")

    # ------------------------------------------------------------------
    # Admission and supervision (§4.4)
    # ------------------------------------------------------------------
    def _forces_sync(self, ctx: OpContext) -> bool:
        """Overload policy: run the data path synchronously when the
        scheduler demanded it or the deadline budget is too thin."""
        if ctx.force_sync:
            return True
        rem = ctx.remaining()
        return rem is not None and rem < self.DEADLINE_MIN_ASYNC_NS

    def _supervised(self) -> bool:
        """Should offloaded operations run under the fault supervisor?

        ``fault_tolerant`` forces the answer; when it is None, supervise
        once a fault plan is seen on the image or any DMA channel (the
        detection is sticky).
        """
        if self.fault_tolerant is not None:
            return self.fault_tolerant
        if not self._ft_seen:
            self._ft_seen = (
                self.image.fault_plan is not None
                or any(ch.fault_plan is not None
                       for ch in self.platform.dma.channels))
        return self._ft_seen

    # ------------------------------------------------------------------
    # Data path (§4.2-§4.4)
    # ------------------------------------------------------------------
    def _build_pipelines(self):
        persister = VerifyingPagePersister(
            self.image, self.engine, self.fault_stats,
            rewrite_max=self.MEDIA_REWRITE_MAX)
        #: Drives supervised operations to resolution (see _supervised).
        self.supervisor = FaultSupervisor(self.engine, self.cm, self.image,
                                          self.memory, persister,
                                          self.overload_stats)
        backend = DmaAsyncBackend(self, persister)
        fallback = MemcpyBackend(self.memory, persister)
        self.write_pipeline = OrderlessWritePipeline(self, backend, fallback)
        self.read_pipeline = AsyncReadPipeline(self, backend)


class NaiveAsyncFS(EasyIoFS):
    """The §6.4 ablation: asynchronous offload, strictly ordered.

    Data and metadata updates are split into two syscalls: the first
    submits the DMA and *keeps the file locked*; once the completion
    arrives, the runtime issues the second syscall, which commits the
    metadata and only then unlocks.  Intermediate scheduling between
    the two prolongs the critical section (Figure 11) and -- without
    the care the paper describes -- risks deadlock (§3).
    """

    name = "Naive"

    def _build_pipelines(self):
        super()._build_pipelines()
        w = self.write_pipeline
        self.write_pipeline = OrderedAsyncWritePipeline(self, w.backend,
                                                        w.fallback)


#: Planted persistence bugs for crash-model validation.  Each mutant
#: breaks one fence/ordering rule the line-granularity crash model is
#: supposed to catch and the page-granularity model cannot (or need
#: not) see:
#:
#: * ``skip_append_fence``     -- drop the sfence between a WriteEntry
#:   log append and its tail commit: the commit can land while the
#:   entry is torn.  Invisible to the mutation journal (the journal
#:   records logical stores, not fences), so the page sweep passes.
#: * ``reorder_amend_persist`` -- persist a failover's SN amendment
#:   *before* the degraded memcpy'd pages land: a crash in between
#:   leaves a validated entry pointing at absent data.
CRASH_MUTANTS = ("skip_append_fence", "reorder_amend_persist")


def install_crash_mutant(fs, mutant: str) -> None:
    """Plant one of :data:`CRASH_MUTANTS` into a live filesystem.

    Test-only: used by the crash harness to validate that the
    line-granularity sweep detects known fence/ordering bugs.
    """
    if mutant == "skip_append_fence":
        stream = fs.image.linestream
        if stream is None:
            raise RuntimeError(
                "skip_append_fence needs a line-recording image")
        stream.skipped_fences.add("append:WriteEntry")
    elif mutant == "reorder_amend_persist":
        fs.supervisor.mutant_reorder_amend = True
    else:
        raise ValueError(f"unknown crash mutant {mutant!r}; "
                         f"choose from {CRASH_MUTANTS}")
