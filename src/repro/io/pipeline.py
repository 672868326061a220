"""The I/O pipelines: how an operation is staged, not how bytes move.

Every filesystem variant's read and write path is one of these five
classes, built over a copy backend by the variant's
``_build_pipelines`` (planning goes through the filesystem's
``planner``):

* :class:`SyncWritePipeline` / :class:`SyncReadPipeline` -- strictly
  ordered: copy + persist, then the metadata commit, then unlock
  (NOVA, NOVA-DMA, Odinfs; only the backend differs).
* :class:`OrderlessWritePipeline` -- EasyIO §4.2: metadata commits in
  parallel with the in-flight DMA, the lock releases at commit, and
  the SNs embedded in the log entry regulate later conflicts.
* :class:`OrderedAsyncWritePipeline` -- the §6.4 Naive ablation:
  asynchronous submission but strictly ordered commit in a *second*
  syscall, the file lock held across the gap.
* :class:`AsyncReadPipeline` -- EasyIO reads: per-extent admission,
  unlock immediately, completion observed after return.

Each ``run`` is the whole staging in order (level-2 wait, contention
charge, deadline check, admission, copy, supervision, counters).  The
policies it consults live on the filesystem (``_wait_level2``,
``_forces_sync``, ``_supervised``); all data movement lives in the
backends and all metadata stays on the filesystem (``_commit_write``
and friends).
"""

from __future__ import annotations

from typing import List

from repro.fs.nova import OpResult
from repro.fs.pmimage import file_bytes
from repro.io.supervision import DmaJob


def batched_pending(engine, descs):
    """The one pending event EasyIO's syscall returns: it fires once
    every descriptor of the batch has resolved (orderless operation)."""
    if len(descs) == 1:
        return descs[0].done
    return engine.all_of([d.done for d in descs])


class SyncWritePipeline:
    """Strictly ordered write: data pages first, then the commit."""

    def __init__(self, fs, backend):
        self.fs = fs
        self.backend = backend

    def run(self, ctx, m, offset: int, nbytes: int, payload):
        fs = self.fs
        try:
            yield from fs._charge_lock_contention(ctx)
            ctx.trace_begin("plan")
            try:
                prep = yield from fs.planner.prepare_cow(ctx, m, offset,
                                                         nbytes, payload)
                plan = fs.planner.write_plan(m, prep)
            finally:
                ctx.trace_end("plan")
            # Data pages first (strict order)...
            ctx.trace_begin("copy")
            try:
                yield from self.backend.write(ctx, plan)
            finally:
                ctx.trace_end("copy")
            # ...then the metadata commit.
            yield from fs._commit_write(ctx, m, prep, sns=())
        finally:
            m.lock.release_write()
        return OpResult(value=nbytes, ctx=ctx)


class SyncReadPipeline:
    """Strictly ordered read: copy every extent, then return."""

    def __init__(self, fs, backend):
        self.fs = fs
        self.backend = backend

    def run(self, ctx, m, offset: int, nbytes: int, runs, want_data: bool):
        fs = self.fs
        try:
            plan = fs.planner.read_plan_from_runs(m.ino, offset, nbytes,
                                                  runs)
            ctx.trace_begin("copy")
            try:
                yield from self.backend.read(ctx, plan)
            finally:
                ctx.trace_end("copy")
            yield ctx.charge("metadata",
                                  fs.model.timestamp_update_cost)
            value = (file_bytes(fs.image, m, offset, nbytes)
                     if want_data else nbytes)
        finally:
            m.lock.release_read()
        return OpResult(value=value, ctx=ctx)


class OrderlessWritePipeline:
    """EasyIO's orderless file operation (§4.2).

    The log entry carries the SNs of the write's DMA descriptors, so
    the metadata commit proceeds *in parallel* with the data copy; the
    file lock is released as soon as the commit lands, and the level-2
    check (``EasyIoFS._wait_level2``) regulates later conflicts against
    the pending SNs.
    """

    def __init__(self, fs, backend, fallback):
        self.fs = fs
        self.backend = backend
        #: Degradation target: the memcpy backend (verifying persister).
        self.fallback = fallback

    def run(self, ctx, m, offset: int, nbytes: int, payload):
        fs = self.fs
        try:
            # Write-write conflict: an unfinished earlier write blocks us.
            yield from fs._wait_level2(ctx, m)
            yield from fs._charge_lock_contention(ctx)
            if ctx.deadline is not None:
                # Clean abort point: nothing allocated or submitted yet.
                ctx.check_deadline(f"write ino{m.ino} pre-submit")
            ctx.trace_begin("plan")
            try:
                prep = yield from fs.planner.prepare_cow(ctx, m, offset,
                                                         nbytes, payload)
            finally:
                ctx.trace_end("plan")
            offload = fs.cm.should_offload_write(nbytes)
            if offload and fs._forces_sync(ctx):
                fs.overload_stats.degraded_to_sync += 1
                offload = False
            channel = (self.backend.select_write_channel(ctx) if offload
                       else None)
            if channel is None:
                # Selective offloading keeps small I/O on the CPU; a
                # missing channel means graceful degradation (no
                # healthy channel left) -- same path, plus accounting.
                if offload:
                    fs.fault_stats.degraded_writes += 1
                    fs.fault_stats.degraded_bytes += nbytes
                fs.memcpy_writes += 1
                plan = fs.planner.write_plan(m, prep)
                ctx.trace_begin("copy")
                try:
                    yield from self.fallback.write(ctx, plan)
                finally:
                    ctx.trace_end("copy")
                yield from fs._commit_write(ctx, m, prep, sns=())
                m.pending_sns = ()
                m.pending_done = None
                return OpResult(value=nbytes, ctx=ctx)
            fs.dma_writes += 1
            plan = fs.planner.write_plan(m, prep)
            ctx.trace_begin("submit")
            try:
                jobs = yield from self.backend.submit_write(ctx, plan,
                                                            channel)
            finally:
                ctx.trace_end("submit")
            sns = tuple((j.channel.channel_id, j.desc.sn) for j in jobs)
            if fs._supervised():
                pending = fs.engine.event()
                _entry, log_idx = yield from fs._commit_write(
                    ctx, m, prep, sns=sns, free_on=pending)
                fs.engine.process(
                    fs.supervisor.supervise_write(
                        ctx.app, m, jobs, sns, log_idx, pending,
                        deadline=ctx.deadline),
                    name=f"supervise-w-ino{m.ino}")
                m.pending_done = pending
            else:
                pending = batched_pending(fs.engine,
                                          [j.desc for j in jobs])
                # Orderless: the metadata commit (with embedded SNs)
                # runs while the DMA engine moves the data.  The
                # replaced pages are recycled only once it has landed.
                yield from fs._commit_write(ctx, m, prep, sns=sns,
                                            free_on=pending)
                m.pending_done = None
            m.pending_sns = sns
            return OpResult(value=nbytes, pending=pending, sns=sns, ctx=ctx)
        finally:
            # Early release: the syscall both locked and unlocked the
            # file -- no lock is ever held across a scheduling point.
            m.lock.release_write()


class OrderedAsyncWritePipeline:
    """The Naive ablation (§6.4): asynchronous offload, strictly ordered.

    Data and metadata updates are split into two syscalls: the first
    submits the DMA and *keeps the file locked*; once the completion
    arrives, the runtime issues the second syscall, which commits the
    metadata and only then unlocks.  Intermediate scheduling between
    the two prolongs the critical section (Figure 11).
    """

    def __init__(self, fs, backend, fallback):
        self.fs = fs
        self.backend = backend
        self.fallback = fallback

    def run(self, ctx, m, offset: int, nbytes: int, payload):
        fs = self.fs
        yield from fs._charge_lock_contention(ctx)
        ctx.trace_begin("plan")
        try:
            prep = yield from fs.planner.prepare_cow(ctx, m, offset,
                                                     nbytes, payload)
        finally:
            ctx.trace_end("plan")
        if not fs.cm.should_offload_write(nbytes):
            try:
                fs.memcpy_writes += 1
                plan = fs.planner.write_plan(m, prep)
                ctx.trace_begin("copy")
                try:
                    yield from self.fallback.write(ctx, plan)
                finally:
                    ctx.trace_end("copy")
                yield from fs._commit_write(ctx, m, prep, sns=())
            finally:
                m.lock.release_write()
            return OpResult(value=nbytes, ctx=ctx)
        fs.dma_writes += 1
        plan = fs.planner.write_plan(m, prep)
        ctx.trace_begin("submit")
        try:
            jobs = yield from self.backend.submit_write(ctx, plan)
        finally:
            ctx.trace_end("submit")
        pending = batched_pending(fs.engine, [j.desc for j in jobs])

        def commit_syscall(ctx2):
            # Second interaction with the filesystem (§3): metadata
            # commit once the data I/O has finished.
            yield ctx2.charge("syscall", fs.model.syscall_cost)
            try:
                yield from fs._commit_write(ctx2, m, prep, sns=())
            finally:
                m.lock.release_write()
            return nbytes

        # NOTE: the level-1 lock stays held across the asynchronous gap.
        return OpResult(value=nbytes, pending=pending, ctx=ctx,
                        continuation=commit_syscall)


class AsyncReadPipeline:
    """EasyIO reads: admission-controlled DMA, unlock immediately.

    Reads only touch timestamps; commit and unlock happen right after
    submission -- later writes may start while our DMA is in flight
    (CoW plus deferred page recycling keep the data stable).
    """

    def __init__(self, fs, backend):
        self.fs = fs
        self.backend = backend

    def run(self, ctx, m, offset: int, nbytes: int, runs, want_data: bool):
        fs = self.fs
        jobs: List[DmaJob] = []
        try:
            force_sync = fs._forces_sync(ctx)
            if force_sync and any(pages for _off, pages in runs):
                fs.overload_stats.degraded_to_sync += 1
            plan = fs.planner.read_plan_from_runs(m.ino, offset, nbytes,
                                                  runs)
            ctx.trace_begin("submit")
            try:
                jobs = yield from self.backend.read(ctx, plan, force_sync)
            finally:
                ctx.trace_end("submit")
            yield ctx.charge("metadata",
                                  fs.model.timestamp_update_cost)
            value = (file_bytes(fs.image, m, offset, nbytes)
                     if want_data else nbytes)
        finally:
            m.lock.release_read()
        pending = None
        if jobs:
            if fs._supervised():
                pending = fs.engine.event()
                fs.engine.process(
                    fs.supervisor.supervise_read(
                        ctx.app, m.ino, jobs, pending,
                        deadline=ctx.deadline),
                    name=f"supervise-r-ino{m.ino}")
            else:
                pending = batched_pending(fs.engine, [j.desc for j in jobs])
        return OpResult(value=value, pending=pending, ctx=ctx)
