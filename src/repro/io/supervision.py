"""Fault supervision for offloaded operations (retry / failover /
graceful degradation).

Every offloaded EasyIO operation may run under a *supervisor* process
that watches its descriptors.  Failed descriptors are retried with
bounded exponential backoff (sim-time); descriptors lost to a channel
halt fail over to a healthy channel; when no healthy channel remains
the supervisor degrades to the memcpy path.  SN-safety: after a
failover the committed log entry's SN field is amended to the new
(channel, sn) pairs, so the recovery validator stays sound at every
crash point inside the retry/failover window.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.hw.dma import DmaChannel, DmaDescriptor


class DmaJob:
    """One descriptor's worth of an offloaded operation, retryable.

    ``final`` is None while unresolved, the achieved ``(channel, sn)``
    pair once its data landed via DMA, or ``()`` when the job was
    degraded to the memcpy path (contributing no SN).
    """

    __slots__ = ("desc", "channel", "nbytes", "write", "pids", "contents",
                 "final")

    def __init__(self, desc: DmaDescriptor, channel: DmaChannel,
                 write: bool, pids=None, contents=None):
        self.desc = desc
        self.channel = channel
        self.nbytes = desc.nbytes
        self.write = write
        self.pids = pids
        self.contents = contents
        self.final = None


class FaultSupervisor:
    """Drives offloaded jobs to resolution and settles their metadata.

    One instance per filesystem; each supervised operation spawns one
    supervisor *process* running :meth:`supervise_write` /
    :meth:`supervise_read`.
    """

    #: Bounded exponential backoff for descriptor retries (sim-time).
    DMA_RETRY_MAX = 4
    DMA_RETRY_BASE_NS = 2_000
    DMA_RETRY_CAP_NS = 64_000

    #: Test-only planted ordering bug: persist degraded pages only
    #: *after* the SN amendment, instead of before (see
    #: repro.core.easyio.install_crash_mutant).  The line-granularity
    #: crash sweep must catch the valid-entry/absent-pages window this
    #: opens.
    mutant_reorder_amend = False

    def __init__(self, engine, cm, image, memory, persister,
                 overload_stats):
        self.engine = engine
        self.cm = cm
        self.image = image
        self.memory = memory
        self.persister = persister
        self.overload_stats = overload_stats
        self._deferred_persists = []

    @property
    def fault_stats(self):
        return self.cm.fault_stats

    def supervise_write(self, app, m, jobs: List[DmaJob],
                        orig_sns: Tuple[Tuple[int, int], ...],
                        log_idx: int, outer,
                        deadline: Optional[int] = None):
        """Drive one write's descriptors to resolution, then settle the
        log entry.

        Terminates because each round either resolves every job or
        consumes a retry budget, and the degradation fallback (memcpy)
        always succeeds.  Once all data has landed, the committed log
        entry's SN field is amended iff any descriptor moved (failover
        or degradation), so recovery judges the entry by SNs that are
        actually achievable.  Only then does ``outer`` fire -- which
        releases level-2 waiters and recycles the replaced CoW pages.

        ``deadline`` bounds the retry/backoff loop: once it passes, the
        supervisor stops gambling on retries and degrades immediately.
        """
        yield from self._resolve_jobs(app, m.ino, jobs, deadline=deadline)
        final_sns = tuple(j.final for j in jobs if j.final)
        if final_sns != orig_sns:
            self.image.amend_log_sns(m.ino, log_idx, final_sns)
            tr = self.engine.tracer
            if tr is not None:
                tr.point("sn_amend", track="fs", ino=m.ino,
                         old=orig_sns, new=final_sns)
            if m.pending_sns == orig_sns:
                m.pending_sns = final_sns
        if self._deferred_persists:
            # Only the reorder-amend mutant defers persists; flushing
            # them here (after the amendment) is the planted bug.
            for pids, contents in self._deferred_persists:
                self.persister.persist(pids, contents)
            self._deferred_persists.clear()
        outer.succeed(None)

    def supervise_read(self, app, ino: int, jobs: List[DmaJob], outer,
                       deadline: Optional[int] = None):
        """Drive one read's descriptors to resolution (reads carry no
        SNs, so no log settlement is needed)."""
        yield from self._resolve_jobs(app, ino, jobs, deadline=deadline)
        outer.succeed(None)

    def _resolve_jobs(self, app, ino: int, jobs: List[DmaJob],
                      deadline: Optional[int] = None):
        stats = self.fault_stats
        attempt = 0
        while True:
            waits = [j.desc.done for j in jobs
                     if j.final is None and not j.desc.done.triggered]
            if waits:
                yield self.engine.all_of(waits)
            bad: List[DmaJob] = []
            for j in jobs:
                if j.final is not None:
                    continue
                if j.desc.status == "ok":
                    j.final = (j.channel.channel_id, j.desc.sn)
                    self.cm.note_success(j.channel)
                else:
                    bad.append(j)
            if not bad:
                return
            attempt += 1
            for j in bad:
                if j.desc.status == "error" and j.desc.error == "xfer_error":
                    # Soft error: feed the health tracker.  Halts and
                    # strands are already accounted via on_halt.
                    self.cm.note_error(j.channel)
            past_deadline = (deadline is not None
                             and self.engine.now >= deadline)
            if attempt > self.DMA_RETRY_MAX or past_deadline:
                # Out of retry budget -- or out of time: a missed
                # deadline cancels the remaining retry/backoff rounds
                # and settles the data via memcpy right now.
                if past_deadline and attempt <= self.DMA_RETRY_MAX:
                    self.overload_stats.cancelled += len(bad)
                for j in bad:
                    yield from self._degrade_job(j, ino)
                continue
            backoff = min(self.DMA_RETRY_BASE_NS * (2 ** (attempt - 1)),
                          self.DMA_RETRY_CAP_NS)
            if deadline is not None:
                backoff = min(backoff, max(0, deadline - self.engine.now))
            yield self.engine.timeout(backoff)
            for j in bad:
                soft = (j.desc.status == "error"
                        and j.desc.error == "xfer_error")
                target = self.cm.retry_channel(app, j.channel, soft)
                if target is None:
                    yield from self._degrade_job(j, ino)
                    continue
                stats.retries += 1
                if target is not j.channel:
                    stats.failovers += 1
                redo = DmaDescriptor(j.nbytes, write=j.write)
                if j.write:
                    redo.on_complete = self.persister.on_complete(
                        j.pids, j.contents)
                j.desc = redo
                j.channel = target
                yield from target.submit([redo])
                stream = self.image.linestream
                if stream is not None and j.write:
                    # Re-announce the pages under the redo descriptor's
                    # (channel, sn): the original announcement was
                    # cancelled when its descriptor failed.
                    stream.announce_dma_pages(target.channel_id,
                                              redo.sn, j.pids, j.contents)

    def _degrade_job(self, j: DmaJob, ino: int):
        """Graceful degradation: move one job's bytes via memcpy."""
        stats = self.fault_stats
        if j.write:
            stats.degraded_writes += 1
        else:
            stats.degraded_reads += 1
        stats.degraded_bytes += j.nbytes
        tr = self.engine.tracer
        if tr is not None:
            tr.point("degrade", track="fs", ino=ino, sn=j.desc.sn,
                     ch=j.channel.channel_id, write=j.write)
        yield from self.memory.cpu_copy(j.nbytes, write=j.write)
        if j.write:
            if self.mutant_reorder_amend:
                self._deferred_persists.append((j.pids, j.contents))
            else:
                self.persister.persist(j.pids, j.contents)
        j.final = ()
