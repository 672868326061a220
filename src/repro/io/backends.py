"""Copy backends: the four data-movement policies of the paper's
evaluation (§6).

A backend moves the bytes an :class:`~repro.io.plan.IoPlan` describes:

* :class:`MemcpyBackend` -- synchronous CPU copy (NOVA, and everyone's
  degradation fallback);
* :class:`DmaPollBackend` -- synchronous DMA offload, busy-polled
  (NOVA-DMA, the Fastmove stand-in);
* :class:`DmaAsyncBackend` -- asynchronous DMA through the
  traffic-aware channel manager (EasyIO; returns retryable jobs);
* :class:`DelegationBackend` -- background delegation threads on
  reserved cores (Odinfs).

Synchronous backends (``write(ctx, plan)`` / ``read(ctx, plan)``)
return once the data has moved and, for writes, persisted; the
asynchronous one submits and returns in-flight jobs.  Each backend
also owns how its caller waits: :class:`DmaPollBackend` busy-polls,
:class:`DelegationBackend` parks and pays the wakeup.  Backends charge
the *caller's* CPU (submission/dispatch costs land in the "memcpy"
phase) and bump the per-variant op counters (``dma_writes``,
``memcpy_ops``, ...) directly on the filesystem object.
"""

from __future__ import annotations

from typing import List

from repro.fs.structures import PAGE_SIZE
from repro.hw.dma import DmaDescriptor
from repro.hw.memory import DELEGATION_GROUP
from repro.io.plan import IoPlan
from repro.io.supervision import DmaJob
from repro.sim import Store


class MemcpyBackend:
    """Synchronous CPU memcpy into/out of slow memory (NOVA's path)."""

    def __init__(self, memory, persister):
        self.memory = memory
        self.persister = persister

    def write(self, ctx, plan: IoPlan):
        """One CPU copy per contiguous run, then persist the pages."""
        for run_bytes in plan.run_sizes:
            yield from ctx.timed_cpu(
                "memcpy", self.memory.cpu_copy(run_bytes, write=True))
        self.persister.persist(plan.page_ids, plan.contents)

    def read(self, ctx, plan: IoPlan):
        """One CPU copy per contiguous mapped extent."""
        for extent in plan.extents:
            if extent.page_ids:
                yield from ctx.timed_cpu(
                    "memcpy", self.memory.cpu_copy(extent.nbytes, write=False))


class DmaPollBackend:
    """Synchronous DMA offload, busy-polled (NOVA-DMA / Fastmove).

    The interface stays synchronous -- the CPU core busy-polls the
    completion buffer until the copy lands, so no cycles are
    harvested.  Requests spread across **all** channels (the paper
    calls this out as the reason NOVA-DMA's write throughput collapses
    under high concurrency -- the §2.2 multi-channel penalty bites).
    """

    def __init__(self, fs, persister):
        self.fs = fs
        self.dma = fs.platform.dma
        self.memory = fs.memory
        self.persister = persister
        #: Small copies stay on the CPU (see NovaDmaFS.OFFLOAD_THRESHOLD).
        self.offload_threshold = fs.OFFLOAD_THRESHOLD

    def _pick_channel(self):
        """Least-loaded across *all* channels (no traffic separation)."""
        return self.dma.least_loaded()

    @staticmethod
    def _busy_poll(ctx, descs):
        """Spin until every descriptor completes.

        The elapsed time is charged to the "memcpy" phase -- to the
        software it is indistinguishable from a slow synchronous copy.
        """
        engine = ctx.engine
        for desc in descs:
            if not desc.done.triggered:
                t0 = engine.now
                yield desc.done
                elapsed = engine.now - t0
                if ctx.record:
                    ctx.breakdown["memcpy"] += elapsed
                ctx.cpu_ns += elapsed

    def write(self, ctx, plan: IoPlan):
        """Submit, busy-poll, persist (strictly ordered)."""
        if plan.nbytes <= self.offload_threshold:
            self.fs.memcpy_ops += 1
            for run_bytes in plan.run_sizes:
                yield from ctx.timed_cpu(
                    "memcpy", self.memory.cpu_copy(run_bytes, write=True))
        else:
            self.fs.dma_writes += 1
            channel = self._pick_channel()
            descs = [DmaDescriptor(run_bytes, write=True)
                     for run_bytes in plan.run_sizes]
            yield from ctx.timed_cpu("memcpy", channel.submit_all(descs))
            yield from self._busy_poll(ctx, descs)
        self.persister.persist(plan.page_ids, plan.contents)

    def read(self, ctx, plan: IoPlan):
        """DMA for every extent above the threshold, else memcpy."""
        for extent in plan.extents:
            if not extent.page_ids:
                continue
            run_bytes = extent.nbytes
            if run_bytes <= self.offload_threshold:
                self.fs.memcpy_ops += 1
                yield from ctx.timed_cpu(
                    "memcpy", self.memory.cpu_copy(run_bytes, write=False))
            else:
                self.fs.dma_reads += 1
                channel = self._pick_channel()
                desc = DmaDescriptor(run_bytes, write=False)
                yield from ctx.timed_cpu("memcpy", channel.submit([desc]))
                yield from self._busy_poll(ctx, [desc])


class DmaAsyncBackend:
    """Asynchronous DMA through the channel manager (EasyIO §4).

    Writes and reads are split per the traffic policy (B-apps: 64 KB),
    batch-submitted, and returned as :class:`DmaJob` lists still in
    flight -- the pipeline decides whether a supervisor or a plain
    pending event tracks them.
    """

    def __init__(self, fs, persister):
        self.fs = fs
        self.cm = fs.cm
        self.memory = fs.memory
        self.persister = persister

    def select_write_channel(self, ctx):
        """The channel-manager's pick for this write (None = degrade)."""
        return self.cm.write_channel(ctx.app)

    def submit_write(self, ctx, plan: IoPlan, channel=None) -> List[DmaJob]:
        """Build one descriptor per contiguous page run (B-apps: split
        to 64 KB), batch-submit, and hook page persistence.

        Returns the submitted :class:`DmaJob` list (one per
        descriptor, carrying the pages needed for retries).
        """
        app = ctx.app
        if channel is None:
            channel = self.cm.write_channel(app)
        jobs: List[DmaJob] = []
        for extent in plan.extents:
            pids, contents = list(extent.page_ids), list(extent.contents)
            run_bytes = len(pids) * PAGE_SIZE
            for chunk in self.cm.split(app, run_bytes):
                take = chunk // PAGE_SIZE
                chunk_pids, pids = pids[:take], pids[take:]
                chunk_contents, contents = contents[:take], contents[take:]
                desc = DmaDescriptor(chunk, write=True)
                desc.on_complete = self.persister.on_complete(
                    chunk_pids, chunk_contents)
                jobs.append(DmaJob(desc, channel, write=True,
                                   pids=chunk_pids,
                                   contents=chunk_contents))
        # The submission cost is the CPU's remaining share of the data
        # movement, so it lands in the memcpy bucket.
        descs = [j.desc for j in jobs]
        yield from ctx.timed_cpu("memcpy", channel.submit_all(descs))
        stream = self.persister.image.linestream
        if stream is not None:
            # Line-granularity crash model: the pages are in flight
            # from submission (SNs are assigned by submit_all) until a
            # completion fence covers their descriptor.
            for j in jobs:
                stream.announce_dma_pages(channel.channel_id, j.desc.sn,
                                          j.pids, j.contents)
        return jobs

    def read(self, ctx, plan: IoPlan, force_sync: bool) -> List[DmaJob]:
        """Per-extent read admission (Listing 2): DMA when a channel
        admits the run, memcpy otherwise.  Returns in-flight jobs."""
        jobs: List[DmaJob] = []
        for extent in plan.extents:
            if not extent.page_ids:
                continue
            run_bytes = extent.nbytes
            channel = (None if force_sync
                       else self.cm.admit_read(run_bytes, ctx.app))
            if channel is None:
                self.fs.memcpy_reads += 1
                yield from ctx.timed_cpu(
                    "memcpy", self.memory.cpu_copy(run_bytes, write=False))
            else:
                self.fs.dma_reads += 1
                # B-apps' bulk reads are split to 64 KB like their
                # writes, so a channel suspension never wastes a
                # large in-flight transfer (§4.4).
                descs = [DmaDescriptor(chunk, write=False)
                         for chunk in self.cm.split(ctx.app, run_bytes)]
                yield from ctx.timed_cpu("memcpy", channel.submit_all(descs))
                jobs.extend(DmaJob(d, channel, write=False)
                            for d in descs)
        return jobs


class DelegationRequest:
    """One chunk handed to a delegation thread."""

    __slots__ = ("nbytes", "write", "done")

    def __init__(self, engine, nbytes: int, write: bool):
        self.nbytes = nbytes
        self.write = write
        self.done = engine.event()


class DelegationThread:
    """One background thread pinned to a reserved core."""

    def __init__(self, backend: "DelegationBackend", core):
        self.backend = backend
        self.core = core
        self.queue = Store(backend.engine)
        backend.engine.process(self._loop(),
                               name=f"odinfs-dg{core.core_id}")

    def _loop(self):
        while True:
            req = yield self.queue.get()
            self.core.mark_busy("odinfs-delegation")
            try:
                yield from self.backend.memory.cpu_copy(
                    req.nbytes, req.write, DELEGATION_GROUP)
            finally:
                self.core.mark_idle()
            req.done.succeed()


class DelegationBackend:
    """NUMA-aware delegation to reserved cores (Odinfs).

    The application thread splits each request into chunks, fans them
    out round-robin over the delegation threads, and parks until every
    chunk lands (synchronous interface: the saved cycles only help
    whole-machine utilisation, not the application's own throughput).
    """

    def __init__(self, engine, model, memory, cores, persister):
        self.engine = engine
        self.model = model
        self.memory = memory
        self.persister = persister
        self.threads = [DelegationThread(self, core) for core in cores]
        self._rr = 0
        self.requests_delegated = 0

    def transfer(self, ctx, nbytes: int, write: bool):
        """Split, fan out round-robin, park until all chunks land."""
        chunk = self.model.delegation_chunk
        sizes = [chunk] * (nbytes // chunk)
        if nbytes % chunk:
            sizes.append(nbytes % chunk)
        events = []
        for size in sizes:
            # Dispatch costs the app thread a ring enqueue per chunk.
            yield ctx.charge("memcpy",
                                  self.model.delegation_dispatch_cost)
            thread = self.threads[self._rr % len(self.threads)]
            self._rr += 1
            req = DelegationRequest(self.engine, size, write)
            thread.queue.put(req)
            events.append(req.done)
            self.requests_delegated += 1
        yield from self._park_and_wake(ctx, events)

    def _park_and_wake(self, ctx, events):
        """Sleep until every chunk lands, then pay the kernel wakeup."""
        engine = ctx.engine
        t0 = engine.now
        yield from ctx.idle_wait(engine.all_of(events))
        yield ctx.charge("syscall", self.model.kernel_wakeup_cost)
        if ctx.record:
            ctx.breakdown["wait"] += engine.now - t0

    def write(self, ctx, plan: IoPlan):
        """Delegate the logical write, then persist the CoW pages."""
        yield from self.transfer(ctx, plan.nbytes, True)
        self.persister.persist(plan.page_ids, plan.contents)

    def read(self, ctx, plan: IoPlan):
        """Delegate the read's total mapped bytes as one batch."""
        total = plan.mapped_bytes
        if total:
            yield from self.transfer(ctx, total, False)
