"""I/OAT-style on-chip DMA engine.

Each :class:`DmaChannel` owns a bounded hardware descriptor ring served
by one processing engine.  Submitting costs the CPU a descriptor-prep
plus an MMIO doorbell (charged to the *caller*); the engine then pays a
per-descriptor startup overhead -- lower when descriptors stream
back-to-back (batching / pipelining) -- and moves the payload through
the slow-memory bandwidth pools (DMA class, so the calibrated DMA
asymmetries apply).

Completion is claimed exactly as the paper describes (§2.2, §4.2): the
engine bumps the channel's *completion buffer*, a 64-bit value pointing
at the most recently finished descriptor in the ring.  We additionally
expose the wraparound counter (CNT) that EasyIO maintains alongside it,
so ``completion CNT·ADDR`` forms the monotonically increasing sequence
number (SN) EasyIO's orderless file operation relies on.

Channels support CHANCMD-style suspend/resume (the in-flight descriptor
executes to completion; fetching stops), which the channel manager uses
for µs-scale bandwidth throttling.

Fault semantics (CHANERR-style, driven by an installed
:class:`~repro.faults.FaultPlan`):

* a **transfer error** fails one descriptor -- no data lands, its
  ``status`` becomes ``"error"``, the completion buffer does *not*
  advance for it -- and the channel keeps serving;
* a **channel halt** additionally stops the channel: ``halted`` is set,
  ``error_sn``/``chanerr`` identify the failure, and everything still
  in the ring is stranded until software issues :meth:`reset`, which
  hands the stranded descriptors back (``status == "stranded"``).

Because later completions make the completion SN *jump past* failed
descriptors, every failed/stranded SN is reported through ``on_error``
/ ``on_reset`` *before* any later completion can cover it -- EasyIO
persists these as poisoned SNs so its recovery validity rule stays
sound under failover.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Sequence

from repro.hw.memory import SlowMemory
from repro.hw.params import CostModel
from repro.sim import Channel as SimChannel
from repro.sim import Engine, Event, Gate

class DmaDescriptor:
    """One DMA work descriptor (a memory-copy command).

    Attributes
    ----------
    nbytes:
        Payload size.
    write:
        True for DRAM->PM (a PM write), False for PM->DRAM (a PM read).
    done:
        Event fired when the engine posts this descriptor's completion.
    sn:
        Channel-local sequence number, assigned at submit time.  The
        descriptor is complete once the channel's completion SN is
        >= this value.
    status:
        ``"pending"`` until the engine decides its fate, then ``"ok"``,
        ``"error"`` (transfer error / CHANERR), or ``"stranded"`` (was
        in the ring when the channel halted and got torn down by
        ``reset()``).  ``done`` fires in *every* case -- software
        inspects ``status`` to tell success from failure.
    """

    __slots__ = ("nbytes", "write", "done", "sn", "pipelined",
                 "on_complete", "status", "error")

    def __init__(self, nbytes: int, write: bool,
                 on_complete: Optional[Callable[["DmaDescriptor"], None]] = None):
        if nbytes <= 0:
            raise ValueError(f"descriptor payload must be positive, got {nbytes}")
        self.nbytes = nbytes
        self.write = write
        self.done: Optional[Event] = None
        self.sn: Optional[int] = None
        self.pipelined = False
        #: Invoked by the engine when the payload has landed, *before*
        #: the completion buffer is bumped -- the DMA writes its data,
        #: then claims completion.  EasyIO hooks page persistence here.
        self.on_complete = on_complete
        self.status = "pending"
        #: Fault kind when status is "error" (see repro.faults).
        self.error: Optional[str] = None


class DmaChannel:
    """One DMA channel: descriptor ring + processing engine + completion buffer."""

    def __init__(self, engine: Engine, model: CostModel, memory: SlowMemory,
                 channel_id: int):
        self.engine = engine
        self.model = model
        self.memory = memory
        self.channel_id = channel_id
        self._ring = SimChannel(engine, model.dma_ring_size)
        self._suspended = False
        self._resume_gate = Gate(engine, opened=True)
        self._submitted_total = 0
        self._completion_sn = 0
        self._queued = 0
        self._pipeline_next = False
        # (sn, event) waiters resolved when completion SN reaches sn.
        self._sn_waiters: List = []
        self._waiter_seq = 0
        # Observability / throttling inputs.
        self.bytes_moved = 0
        self.descriptors_completed = 0
        # -- fault state (CHANERR semantics) ---------------------------
        self._halted = False
        self._halt_gate = Gate(engine, opened=True)
        #: SN of the descriptor whose failure halted the channel.
        self.error_sn: Optional[int] = None
        #: CHANERR code (a repro.faults kind) while halted.
        self.chanerr: Optional[str] = None
        #: Every SN that failed or was stranded on this channel
        #: (volatile mirror; EasyIO persists them via on_error/on_reset).
        self.error_sns: set = set()
        self.resets = 0
        #: Installed FaultPlan (or None for perfect hardware); read
        #: per descriptor, so a plan installed mid-flight applies to
        #: every descriptor fetched after the install.
        self.fault_plan = None
        #: Called as fn(channel, (sn, ...)) the instant SNs fail --
        #: strictly before any later completion can cover them.
        self.on_error: Optional[Callable] = None
        #: Called as fn(channel) when the channel halts (the CHANERR
        #: interrupt); the channel manager hooks its recovery path here.
        self.on_halt: Optional[Callable] = None
        #: Called as fn(channel, (sn, ...)) from reset() with the
        #: stranded SNs, before service resumes.
        self.on_reset: Optional[Callable] = None
        #: Called as fn(channel) after every completion-buffer update;
        #: the persistent-memory image hooks this to journal the update.
        self.on_completion: Optional[Callable[["DmaChannel"], None]] = None
        #: Set by the owning DmaEngine; used for engine-capacity sharing.
        self.owner_engine: Optional["DmaEngine"] = None
        #: Trace track name (repro.obs): one row per channel.
        self._track = f"ch{channel_id}"
        engine.process(self._service_loop(), name=f"dma-ch{channel_id}")

    # -- software-visible state ----------------------------------------
    @property
    def queue_depth(self) -> int:
        """Descriptors submitted but not yet completed, failed, or
        stranded."""
        return self._queued

    @property
    def completion_sn(self) -> int:
        """Monotonic completion sequence number (CNT·ADDR combined).

        Under faults this *jumps past* failed descriptors (their SNs
        are reported through ``on_error``/``on_reset`` first); with
        perfect hardware it advances by exactly one per completion.
        """
        return self._completion_sn

    @property
    def completion_addr(self) -> int:
        """The raw 64-bit completion buffer: ring slot of the newest
        finished descriptor (wraps around)."""
        return self._completion_sn % self.model.dma_ring_size

    @property
    def completion_cnt(self) -> int:
        """Wraparound counter maintained alongside the completion buffer."""
        return self._completion_sn // self.model.dma_ring_size

    @property
    def suspended(self) -> bool:
        return self._suspended

    @property
    def halted(self) -> bool:
        """Has a CHANERR halted this channel (pending reset())?"""
        return self._halted

    # -- submission -------------------------------------------------------
    def submit(self, descriptors: Sequence[DmaDescriptor]):
        """Process generator: CPU-side submission of one batch.

        Charges the caller descriptor-prep per descriptor plus one
        doorbell, then enqueues into the hardware ring (blocking if the
        ring is full).  Sets each descriptor's ``sn`` and ``done`` event.
        """
        if not descriptors:
            return []
        if len(descriptors) > self.model.dma_batch_max:
            raise ValueError(
                f"batch of {len(descriptors)} exceeds max {self.model.dma_batch_max}")
        prep = self.model.dma_desc_prep_cost * len(descriptors)
        yield self.engine.sleep(prep + self.model.dma_doorbell_cost)
        tr = self.engine.tracer
        for i, desc in enumerate(descriptors):
            desc.pipelined = i > 0
            desc.done = self.engine.event()
            self._submitted_total += 1
            desc.sn = self._submitted_total
            self._queued += 1
            if tr is not None:
                tr.point("dma_submit", track=self._track, sn=desc.sn,
                         nbytes=desc.nbytes, write=desc.write)
            yield self._ring.put(desc)
        return list(descriptors)

    def submit_all(self, descriptors: Sequence[DmaDescriptor]):
        """Process generator: submit an arbitrary-length descriptor list.

        The backend-neutral submission API (used by the ``repro.io``
        copy backends): chunks the list into ring submissions of at
        most ``dma_batch_max`` descriptors, charging the caller per
        batch exactly as :meth:`submit` does.
        """
        step = self.model.dma_batch_max
        for i in range(0, len(descriptors), step):
            yield from self.submit(descriptors[i:i + step])
        return list(descriptors)

    def try_submit_one(self, desc: DmaDescriptor) -> bool:
        """Non-blocking single-descriptor submit (no CPU cost charged).

        Used where the caller has already accounted for submission cost
        and must not block; returns False if the ring is full.
        """
        if self._ring.full:
            return False
        desc.pipelined = False
        desc.done = self.engine.event()
        self._submitted_total += 1
        desc.sn = self._submitted_total
        self._queued += 1
        tr = self.engine.tracer
        if tr is not None:
            tr.point("dma_submit", track=self._track, sn=desc.sn,
                     nbytes=desc.nbytes, write=desc.write)
        ev = self._ring.put(desc)
        assert ev.triggered, "ring accepted the descriptor synchronously"
        return True

    # -- completion waiting ------------------------------------------------
    def completion_event(self, sn: int) -> Event:
        """Event firing once the completion SN reaches ``sn``.

        Fires immediately if it already has.  This models software
        polling the (read-only exported) completion buffer: the sim
        event fires at the exact instant the buffer value covers ``sn``.
        """
        ev = self.engine.event()
        if self._completion_sn >= sn:
            ev.succeed(self._completion_sn)
        else:
            self._waiter_seq += 1
            heapq.heappush(self._sn_waiters, (sn, self._waiter_seq, ev))
        return ev

    def is_complete(self, sn: int) -> bool:
        """Poll: has the completion buffer covered ``sn``?

        Under faults a covered SN is only a *successful* completion if
        it is not in ``error_sns`` (recovery applies the same rule via
        the persisted poisoned-SN set).
        """
        return self._completion_sn >= sn

    # -- CHANCMD ------------------------------------------------------------
    def suspend(self) -> None:
        """Stop fetching descriptors (in-flight one runs to completion)."""
        self._suspended = True
        self._resume_gate.close()
        tr = self.engine.tracer
        if tr is not None:
            tr.point("chancmd_suspend", track=self._track)

    def resume(self) -> None:
        """Resume descriptor fetching."""
        self._suspended = False
        self._resume_gate.open()
        tr = self.engine.tracer
        if tr is not None:
            tr.point("chancmd_resume", track=self._track)

    # -- CHANERR reset ------------------------------------------------------
    def reset(self) -> List[DmaDescriptor]:
        """Software CHANERR handling: tear down and restart the channel.

        Drains the ring (unblocking any submitter stuck on a full
        ring), marks every drained descriptor ``"stranded"`` and fires
        its ``done`` event, reports the stranded SNs through
        ``on_reset`` *before* service can resume (so software persists
        them as poisoned before any later completion covers them),
        clears the halt, and returns the stranded descriptors.
        """
        if not self._halted:
            return []
        stranded = self._ring.drain()
        self._queued -= len(stranded)
        burned = tuple(d.sn for d in stranded)
        self.error_sns.update(burned)
        for d in stranded:
            d.status = "stranded"
            d.done.succeed(d)
        tr = self.engine.tracer
        if tr is not None:
            tr.point("dma_reset", track=self._track, sns=burned)
        if self.on_reset is not None and burned:
            self.on_reset(self, burned)
        self._halted = False
        self.error_sn = None
        self.chanerr = None
        self.resets += 1
        self._halt_gate.open()
        return stranded

    # -- engine ----------------------------------------------------------------
    def _service_loop(self):
        model = self.model
        while True:
            desc = yield self._ring.get()
            if self._suspended:
                yield self._resume_gate.wait()
            if self._halted:
                yield self._halt_gate.wait()
            pipelined = desc.pipelined or self._pipeline_next
            self._pipeline_next = len(self._ring) > 0
            overhead = (model.dma_desc_overhead_batched if pipelined
                        else model.dma_desc_overhead)
            yield self.engine.sleep(overhead)
            fault = (self.fault_plan.descriptor_fault(self, desc)
                     if self.fault_plan is not None else None)
            if fault is not None:
                yield self.engine.sleep(model.dma_error_latency)
                self._fail_descriptor(desc, fault)
                if self._halted:
                    yield self._halt_gate.wait()
                continue
            rate = (model.dma_channel_write_rate if desc.write
                    else model.dma_channel_read_rate)
            # The engine's processing capacity is shared by every
            # channel currently serving a descriptor; a channel's rate
            # is capped at its share (snapshotted at descriptor start,
            # which is exact for the <=64 KB split descriptors and a
            # fair approximation for rare bulk ones).
            owner = self.owner_engine
            if owner is not None:
                rate = min(rate, owner.claim_share())
            try:
                yield self.memory.dma_transfer(desc.nbytes, desc.write, rate,
                                               self.channel_id)
            finally:
                if owner is not None:
                    owner.release_share()
            yield self.engine.sleep(model.dma_completion_write_cost)
            if desc.on_complete is not None:
                desc.on_complete(desc)
            # Jump to this descriptor's SN: identical to +1 in FIFO
            # operation, and skips past failed SNs (already poisoned
            # via on_error/on_reset) after a fault.
            self._completion_sn = desc.sn
            self._queued -= 1
            self.bytes_moved += desc.nbytes
            self.descriptors_completed += 1
            desc.status = "ok"
            tr = self.engine.tracer
            if tr is not None:
                tr.point("dma_complete", track=self._track, sn=desc.sn)
            if self.on_completion is not None:
                self.on_completion(self)
            done = desc.done
            assert done is not None
            done.succeed(desc)
            while self._sn_waiters and self._sn_waiters[0][0] <= self._completion_sn:
                _sn, _seq, ev = heapq.heappop(self._sn_waiters)
                ev.succeed(self._completion_sn)

    def _fail_descriptor(self, desc: DmaDescriptor, fault: str) -> None:
        """Engine-side error handling for one faulted descriptor.

        No data lands and the completion buffer does not advance; the
        SN is reported as poisoned *before* the done event fires, so
        software (and, via on_error, the persistent image) knows about
        the failure before any later completion can cover the SN.
        """
        desc.status = "error"
        desc.error = fault
        self._queued -= 1
        self.error_sns.add(desc.sn)
        halting = fault == "chan_halt"
        tr = self.engine.tracer
        if tr is not None:
            tr.point("dma_fault", track=self._track, sn=desc.sn,
                     fault=fault, halting=halting)
        if halting:
            self._halted = True
            self._halt_gate.close()
            self.error_sn = desc.sn
            self.chanerr = fault
        if self.on_error is not None:
            self.on_error(self, (desc.sn,))
        desc.done.succeed(desc)
        if halting and self.on_halt is not None:
            self.on_halt(self)


class DmaEngine:
    """The per-socket DMA engine: a set of channels over one memory device."""

    def __init__(self, engine: Engine, model: CostModel, memory: SlowMemory,
                 num_channels: Optional[int] = None, sockets: int = 1):
        n = num_channels if num_channels is not None else model.dma_channels_per_socket
        if n < 1:
            raise ValueError(f"need at least one DMA channel, got {n}")
        self.channels = [DmaChannel(engine, model, memory, channel_id=i)
                         for i in range(n)]
        #: Total processing capacity shared by all channels (B/ns).
        self.capacity = model.dma_engine_capacity_per_socket * sockets
        self._serving = 0
        for ch in self.channels:
            ch.owner_engine = self

    # -- engine capacity sharing ----------------------------------------
    def claim_share(self) -> float:
        """A channel starts serving a descriptor: its capacity share."""
        self._serving += 1
        return self.capacity / self._serving

    def release_share(self) -> None:
        self._serving -= 1
        assert self._serving >= 0, "unbalanced engine share accounting"

    @property
    def serving_channels(self) -> int:
        return self._serving

    def __len__(self) -> int:
        return len(self.channels)

    def channel(self, idx: int) -> DmaChannel:
        return self.channels[idx]

    def least_loaded(self, candidates: Optional[Sequence[int]] = None) -> DmaChannel:
        """The candidate channel with the shallowest queue (ties: lowest id)."""
        chans = (self.channels if candidates is None
                 else [self.channels[i] for i in candidates])
        return min(chans, key=lambda c: (c.queue_depth, c.channel_id))
