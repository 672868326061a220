"""NOVA-like log-structured persistent-memory filesystem.

This is the synchronous baseline the paper modifies (§5): per-inode
metadata logs with an atomic tail-pointer commit, copy-on-write data
pages, a lightweight journal for multi-inode operations (rename), and
DAX-style direct data movement (no page cache).

Every operation is a simulation coroutine (``yield from fs.write(...)``)
that charges calibrated CPU costs phase by phase, so the Figure 1
latency breakdown (metadata / memcpy / indexing / syscall & VFS) falls
out of instrumentation rather than estimation.

Data movement is delegated to the I/O pipelines (:mod:`repro.io`):
each variant -- NOVA, NOVA-DMA, Odinfs, EasyIO -- overrides only
:meth:`NovaFS._build_pipelines` to pick its write and read pipeline
and copy backend (EasyIO adds the two-level lock's level-2 wait and
its admission and supervision checks as methods).  The metadata
formats and namespace operations are shared -- mirroring the paper's
claim that EasyIO needs <50 changed lines in NOVA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.fs.alloc import PageAllocator
from repro.fs.pmimage import PMImage
from repro.fs.structures import (
    PAGE_SIZE,
    ROOT_INO,
    DentryEntry,
    FileKind,
    Inode,
    MemInode,
    PageMapping,
    RenameTxn,
    SetAttrEntry,
    WriteEntry,
)
from repro.hw.params import CostModel
from repro.hw.platform import Platform
from repro.sim import Event, RWLock, WaitTimeout


class FsError(Exception):
    """Filesystem-level error (ENOENT, EEXIST, ...)."""


class DeadlineExceeded(FsError):
    """The operation's deadline passed before it could finish.

    Raised only at clean abort points: before any data movement has
    been submitted, or while waiting on a lock/completion -- never in
    the middle of a metadata commit, so filesystem state stays legal.
    """


class OpContext:
    """Per-operation accounting context.

    Tracks the latency breakdown by phase (Figure 1's categories) and
    the CPU time the operation consumed -- which differs from its
    latency exactly when data movement is offloaded (the EasyIO-CPU
    series in Figure 8).
    """

    PHASES = ("metadata", "memcpy", "indexing", "syscall", "wait")

    __slots__ = ("engine", "core", "record", "_breakdown",
                 "cpu_ns", "app", "lock_racing", "deadline",
                 "force_sync", "op_id", "_tracer")

    def __init__(self, platform: Platform, core=None, record: bool = True,
                 deadline: Optional[int] = None):
        self.engine = platform.engine
        self.core = core
        self.record = record
        #: Structured-tracing hookup (repro.obs): the engine's tracer
        #: and a per-operation id tying this op's events together
        #: across tracks.  Both None when tracing is off.
        tr = platform.engine.tracer
        self._tracer = tr
        self.op_id = tr.next_op_id() if tr is not None else None
        # The per-phase dict is built lazily: throughput runs create one
        # context per op with record=False and never look at it.
        self._breakdown: Optional[Dict[str, int]] = None
        self.cpu_ns = 0
        #: The issuing application's profile (QoS class), if any.
        self.app = None
        #: Waiters racing for the file lock at acquire time (set by
        #: _acquire_file_lock, consumed by _charge_lock_contention).
        self.lock_racing = 0
        #: Absolute simulated-time deadline (ns); None = unbounded.
        self.deadline = deadline
        #: Overload policy: force the synchronous (memcpy) data path.
        self.force_sync = False

    @property
    def breakdown(self) -> Dict[str, int]:
        """Per-phase CPU accounting (Figure 1's categories)."""
        bd = self._breakdown
        if bd is None:
            bd = self._breakdown = {p: 0 for p in self.PHASES}
        return bd

    def remaining(self) -> Optional[int]:
        """Nanoseconds of budget left, or None when unbounded."""
        if self.deadline is None:
            return None
        return self.deadline - self.engine.now

    # -- tracing (no-ops costing one None check when tracing is off) --
    def trace_begin(self, name: str, **args) -> None:
        """Open a span on this op's track."""
        tr = self._tracer
        if tr is not None:
            tr.begin(name, track=f"op{self.op_id}", op=self.op_id, **args)

    def trace_end(self, name: str) -> None:
        """Close this op's innermost span of ``name``."""
        tr = self._tracer
        if tr is not None:
            tr.end(name, track=f"op{self.op_id}", op=self.op_id)

    def trace_point(self, name: str, track: str = "fs", **args) -> None:
        """Emit an instantaneous event attributed to this op."""
        tr = self._tracer
        if tr is not None:
            tr.point(name, track=track, op=self.op_id, **args)

    def _trace_abort(self, what: str) -> None:
        tr = self._tracer
        if tr is not None:
            tr.point("deadline_abort", track="fs", op=self.op_id, what=what)

    def check_deadline(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed."""
        if self.deadline is not None and self.engine.now >= self.deadline:
            self._trace_abort(what)
            raise DeadlineExceeded(
                f"{what}: deadline {self.deadline} passed "
                f"(now={self.engine.now})")

    def timed_wait(self, event: Event, what: str = "wait"):
        """Wait on ``event``, bounded by the context deadline.

        The elapsed time is charged to the "wait" phase as spinning CPU
        (like the level-2 wait).  On expiry raises
        :class:`DeadlineExceeded`; the shared ``event`` is only
        *detached from*, never cancelled, so other waiters still see it
        fire.
        """
        t0 = self.engine.now
        try:
            if self.deadline is None or event.triggered:
                value = yield event
                return value
            rem = self.deadline - self.engine.now
            if rem <= 0:
                self._trace_abort(what)
                raise DeadlineExceeded(
                    f"{what}: no budget left before wait")
            timer = self.engine.timeout(rem)
            fired = yield self.engine.any_of([event, timer])
            if event in fired:
                if not timer.processed:
                    timer.cancel()
                return fired[event]
            self._trace_abort(what)
            raise DeadlineExceeded(
                f"{what}: deadline exceeded after "
                f"{self.engine.now - t0} ns wait")
        finally:
            waited = self.engine.now - t0
            if waited:
                if self.record:
                    self.breakdown["wait"] += waited
                self.cpu_ns += waited

    def charge(self, phase: str, ns: int) -> Event:
        """Burn ``ns`` of CPU time attributed to ``phase``.

        Returns the event to ``yield`` -- a pooled sleep, or the
        engine's already-done no-op event when ``ns <= 0``.  The
        accounting is applied eagerly (the totals are only read once
        the operation has finished, so the order is unobservable) --
        this keeps ``charge`` a plain call instead of a sub-generator
        on the hottest path in the simulator.
        """
        if ns <= 0:
            return self.engine.done
        if self.record:
            self.breakdown[phase] += ns
        self.cpu_ns += ns
        return self.engine.sleep(ns)

    def timed_cpu(self, phase: str, gen):
        """Run a sub-generator whose elapsed time is CPU time (memcpy)."""
        t0 = self.engine.now
        result = yield from gen
        elapsed = self.engine.now - t0
        if self.record:
            self.breakdown[phase] += elapsed
        self.cpu_ns += elapsed
        return result

    def idle_wait(self, event: Event):
        """Wait on an event without consuming CPU (kernel sleep)."""
        if self.core is not None and self.core.busy:
            self.core.mark_idle()
            try:
                value = yield event
            finally:
                self.core.mark_busy()
        else:
            value = yield event
        return value


@dataclass
class OpResult:
    """What a filesystem operation returns.

    ``pending`` is None for synchronous filesystems; EasyIO returns the
    event that fires when the offloaded data movement completes, plus
    the SNs the caller can poll in the exported completion buffers.
    """

    value: Any = None
    pending: Optional[Event] = None
    sns: Tuple[Tuple[int, int], ...] = ()
    ctx: Optional[OpContext] = None
    #: Second-syscall factory (``make(ctx) -> coroutine``) the runtime
    #: must run once ``pending`` fires -- only the Naive ablation uses
    #: this (its metadata commit is a separate syscall, §6.4).
    continuation: Optional[Any] = None

    @property
    def is_async(self) -> bool:
        return self.pending is not None and not self.pending.triggered


class NovaFS:
    """The synchronous NOVA baseline (CPU memcpy data path)."""

    name = "NOVA"

    def __init__(self, platform: Platform, image: Optional[PMImage] = None):
        self.platform = platform
        self.engine = platform.engine
        self.model: CostModel = platform.model
        self.memory = platform.memory
        self.image = image if image is not None else PMImage()
        self.allocator = PageAllocator(self.image)
        self._mem: Dict[int, MemInode] = {}
        self.ops_completed = 0
        #: Per-variant operation counters, declared on every variant;
        #: each variant's backends and pipelines bump the ones its data
        #: path has.
        self.dma_writes = 0
        self.dma_reads = 0
        self.memcpy_reads = 0
        self.memcpy_writes = 0
        self.memcpy_ops = 0
        self._mounted = False
        # Imported here: repro.io imports OpResult from this module.
        from repro.io import IoPlanner
        self.planner = IoPlanner(self)
        # Built last: a variant sets what its pipelines need before
        # calling this constructor.
        self._build_pipelines()

    # ------------------------------------------------------------------
    # Mount / volatile state
    # ------------------------------------------------------------------
    def mount(self) -> "NovaFS":
        """Create (or adopt) the root directory and go live."""
        if ROOT_INO not in self.image.inodes:
            root = Inode(ROOT_INO, FileKind.DIR, links=2, ctime=self.engine.now)
            self.image.put_inode(ROOT_INO, root)
            self.image.next_ino = max(self.image.next_ino, 1)
        self._mem[ROOT_INO] = self._fresh_mem(ROOT_INO, FileKind.DIR, links=2)
        self._mounted = True
        return self

    def _fresh_mem(self, ino: int, kind: FileKind, links: int = 1) -> MemInode:
        m = MemInode(ino=ino, kind=kind, links=links)
        m.lock = RWLock(self.engine, name=f"ino{ino}")
        return m

    def minode(self, ino: int) -> MemInode:
        """Volatile inode state; raises if the inode does not exist."""
        m = self._mem.get(ino)
        if m is None:
            raise FsError(f"no such inode: {ino}")
        return m

    def context(self, core=None, record: bool = True,
                deadline: Optional[int] = None) -> OpContext:
        """Create the accounting context for one operation."""
        return OpContext(self.platform, core=core, record=record,
                         deadline=deadline)

    # ------------------------------------------------------------------
    # Path resolution
    # ------------------------------------------------------------------
    @staticmethod
    def _split(path: str) -> List[str]:
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise FsError(f"invalid path: {path!r}")
        return parts

    def _resolve_dir(self, ctx: OpContext, parts: List[str]) -> MemInode:
        """Walk all but the last component; returns the parent directory."""
        cur = self.minode(ROOT_INO)
        for name in parts[:-1]:
            yield ctx.charge("syscall", self.model.vfs_lookup_cost)
            child = cur.dentries.get(name)
            if child is None:
                raise FsError(f"no such directory: {name!r}")
            cur = self.minode(child)
            if cur.kind is not FileKind.DIR:
                raise FsError(f"not a directory: {name!r}")
        return cur

    def lookup(self, ctx: OpContext, path: str):
        """Resolve a path to an inode number (coroutine)."""
        parts = self._split(path)
        parent = yield from self._resolve_dir(ctx, parts)
        yield ctx.charge("syscall", self.model.vfs_lookup_cost)
        ino = parent.dentries.get(parts[-1])
        if ino is None:
            raise FsError(f"no such file: {path!r}")
        return ino

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------
    def create(self, ctx: OpContext, path: str, kind: FileKind = FileKind.FILE):
        """Create a file (or directory); returns its inode number."""
        yield ctx.charge("syscall", self.model.syscall_cost)
        parts = self._split(path)
        parent = yield from self._resolve_dir(ctx, parts)
        name = parts[-1]
        yield from ctx.idle_wait(parent.lock.acquire_write())
        try:
            yield ctx.charge("syscall", self.model.lock_cost)
            if name in parent.dentries:
                raise FsError(f"already exists: {path!r}")
            ino = self.image.alloc_ino()
            links = 2 if kind is FileKind.DIR else 1
            yield ctx.charge("metadata", self.model.log_append_cost)
            self.image.put_inode(ino, Inode(ino, kind, links, self.engine.now))
            yield from self._append_commit(
                ctx, parent,
                DentryEntry(name, ino, kind, valid=True, mtime=self.engine.now))
            parent.dentries[name] = ino
            parent.mtime = self.engine.now
            self._mem[ino] = self._fresh_mem(ino, kind, links)
        finally:
            parent.lock.release_write()
        self.ops_completed += 1
        return ino

    def mkdir(self, ctx: OpContext, path: str):
        """Create a directory; returns its inode number."""
        ino = yield from self.create(ctx, path, kind=FileKind.DIR)
        return ino

    def unlink(self, ctx: OpContext, path: str):
        """Remove a name; frees the inode when its link count drops to 0."""
        yield ctx.charge("syscall", self.model.syscall_cost)
        parts = self._split(path)
        parent = yield from self._resolve_dir(ctx, parts)
        name = parts[-1]
        yield from ctx.idle_wait(parent.lock.acquire_write())
        try:
            yield ctx.charge("syscall", self.model.lock_cost)
            ino = parent.dentries.get(name)
            if ino is None:
                raise FsError(f"no such file: {path!r}")
            target = self.minode(ino)
            if target.kind is FileKind.DIR and target.dentries:
                raise FsError(f"directory not empty: {path!r}")
            yield from self._append_commit(
                ctx, parent,
                DentryEntry(name, ino, target.kind, valid=False,
                            mtime=self.engine.now))
            del parent.dentries[name]
            parent.mtime = self.engine.now
            target.links -= 1
            if target.links <= 0 or (target.kind is FileKind.DIR
                                     and target.links <= 1):
                yield from self._drop_inode(ctx, target)
            else:
                yield ctx.charge("metadata", self.model.log_append_cost)
                self.image.put_inode(ino, Inode(ino, target.kind, target.links,
                                                self.engine.now))
        finally:
            parent.lock.release_write()
        self.ops_completed += 1

    def link(self, ctx: OpContext, existing: str, new: str):
        """Hard-link ``existing`` at ``new``."""
        yield ctx.charge("syscall", self.model.syscall_cost)
        ino = yield from self.lookup(ctx, existing)
        target = self.minode(ino)
        if target.kind is FileKind.DIR:
            raise FsError("cannot hard-link a directory")
        parts = self._split(new)
        parent = yield from self._resolve_dir(ctx, parts)
        name = parts[-1]
        yield from ctx.idle_wait(parent.lock.acquire_write())
        try:
            if name in parent.dentries:
                raise FsError(f"already exists: {new!r}")
            yield from self._append_commit(
                ctx, parent,
                DentryEntry(name, ino, target.kind, valid=True,
                            mtime=self.engine.now))
            parent.dentries[name] = ino
            target.links += 1
            yield ctx.charge("metadata", self.model.log_append_cost)
            self.image.put_inode(ino, Inode(ino, target.kind, target.links,
                                            self.engine.now))
        finally:
            parent.lock.release_write()
        self.ops_completed += 1

    def rename(self, ctx: OpContext, old: str, new: str):
        """Atomically move ``old`` to ``new`` (journaled, NOVA-style)."""
        yield ctx.charge("syscall", self.model.syscall_cost)
        old_parts, new_parts = self._split(old), self._split(new)
        src_dir = yield from self._resolve_dir(ctx, old_parts)
        dst_dir = yield from self._resolve_dir(ctx, new_parts)
        src_name, dst_name = old_parts[-1], new_parts[-1]
        # Lock in inode order to avoid ABBA deadlocks.
        inos = sorted({src_dir.ino, dst_dir.ino})
        first, second = inos[0], inos[-1]
        yield from ctx.idle_wait(self.minode(first).lock.acquire_write())
        if second != first:
            yield from ctx.idle_wait(self.minode(second).lock.acquire_write())
        try:
            ino = src_dir.dentries.get(src_name)
            if ino is None:
                raise FsError(f"no such file: {old!r}")
            target = self.minode(ino)
            yield ctx.charge("metadata", self.model.journal_cost)
            self.image.journal_begin(RenameTxn(src_dir.ino, src_name,
                                               dst_dir.ino, dst_name,
                                               ino, target.kind))
            replaced = dst_dir.dentries.get(dst_name)
            yield from self._append_commit(
                ctx, dst_dir,
                DentryEntry(dst_name, ino, target.kind, valid=True,
                            mtime=self.engine.now))
            dst_dir.dentries[dst_name] = ino
            yield from self._append_commit(
                ctx, src_dir,
                DentryEntry(src_name, ino, target.kind, valid=False,
                            mtime=self.engine.now))
            del src_dir.dentries[src_name]
            self.image.journal_end()
            if replaced is not None and replaced != ino:
                victim = self.minode(replaced)
                victim.links -= 1
                if victim.links <= 0:
                    yield from self._drop_inode(ctx, victim)
        finally:
            if second != first:
                self.minode(second).lock.release_write()
            self.minode(first).lock.release_write()
        self.ops_completed += 1

    def stat(self, ctx: OpContext, path: str):
        """Return ``(ino, kind, size, mtime, links)``."""
        yield ctx.charge("syscall", self.model.syscall_cost)
        ino = yield from self.lookup(ctx, path)
        m = self.minode(ino)
        yield ctx.charge("metadata", self.model.timestamp_update_cost)
        return (m.ino, m.kind, m.size, m.mtime, m.links)

    def truncate(self, ctx: OpContext, ino: int, size: int):
        """Set the file size, dropping whole pages beyond it."""
        yield ctx.charge("syscall", self.model.syscall_cost)
        m = self.minode(ino)
        yield from ctx.idle_wait(m.lock.acquire_write())
        try:
            yield from self._wait_level2(ctx, m)
            yield from self._append_commit(
                ctx, m, SetAttrEntry(size=size, mtime=self.engine.now))
            first_dead = (size + PAGE_SIZE - 1) // PAGE_SIZE
            dead = [off for off in m.index if off >= first_dead]
            freed = [m.index.pop(off).page_id for off in dead]
            m.bump_layout_epoch()
            self.allocator.free(freed)
            m.size = size
            m.mtime = self.engine.now
        finally:
            m.lock.release_write()
        self.ops_completed += 1

    def _drop_inode(self, ctx: OpContext, m: MemInode):
        yield ctx.charge("metadata", self.model.log_append_cost)
        self.allocator.free([pm.page_id for pm in m.index.values()])
        self.image.drop_inode(m.ino)
        self._mem.pop(m.ino, None)

    def _append_commit(self, ctx: OpContext, m: MemInode, entry) :
        """Append one log entry and commit the tail (the durability point)."""
        yield ctx.charge("metadata", self.model.log_append_cost)
        idx = self.image.append_log(m.ino, entry)
        yield ctx.charge("metadata", self.model.log_commit_cost)
        self.image.commit_log_tail(m.ino, idx + 1)
        return idx

    # ------------------------------------------------------------------
    # Data path: write
    # ------------------------------------------------------------------
    def write(self, ctx: OpContext, ino: int, offset: int, nbytes: int,
              payload: Optional[bytes] = None):
        """Write ``nbytes`` at ``offset``; returns an :class:`OpResult`.

        ``payload`` may be omitted for performance runs (the pages then
        hold the ``ELIDED`` marker); when given it must be exactly
        ``nbytes`` long and read-back verification works end to end.
        """
        if payload is not None and len(payload) != nbytes:
            raise FsError(f"payload length {len(payload)} != nbytes {nbytes}")
        if nbytes < 0 or offset < 0:
            raise FsError("negative offset/size")
        if ctx._tracer is not None:
            ctx.trace_begin("write", ino=ino, offset=offset, nbytes=nbytes)
        try:
            # One event for both entry costs: nothing observable happens
            # between the syscall and VFS-lookup charges, so merging them
            # halves the hot path's entry events.
            yield ctx.charge(
                "syscall",
                self.model.syscall_cost + self.model.vfs_lookup_cost)
            m = self.minode(ino)
            if m.kind is not FileKind.FILE:
                raise FsError(f"not a regular file: inode {ino}")
            if nbytes == 0:
                return OpResult(value=0, ctx=ctx)
            yield from self._acquire_file_lock(ctx, m, write=True)
            # The variant's write pipeline (see repro.io).
            result = yield from self.write_pipeline.run(ctx, m, offset,
                                                        nbytes, payload)
        finally:
            ctx.trace_end("write")
        self._trace_write_ack(ctx, result, ino)
        self.ops_completed += 1
        return result

    def _trace_write_ack(self, ctx: OpContext, result: "OpResult",
                         ino: int) -> None:
        """Emit ``write_ack`` at the instant the write's durability
        contract is met: at return for synchronous results, when the
        pending data movement fires for asynchronous ones."""
        tr = ctx._tracer
        if tr is None:
            return
        if result.is_async:
            op = ctx.op_id
            result.pending.add_callback(
                lambda _e: tr.point("write_ack", track="fs", op=op, ino=ino))
        else:
            tr.point("write_ack", track="fs", op=ctx.op_id, ino=ino)

    def append(self, ctx: OpContext, ino: int, nbytes: int,
               payload: Optional[bytes] = None):
        """Write at end-of-file (offset resolved under the lock is not
        needed for the single-writer workloads we model)."""
        m = self.minode(ino)
        result = yield from self.write(ctx, m.ino, m.size, nbytes, payload)
        return result

    def _commit_write(self, ctx: OpContext, m: MemInode, prep,
                      sns: Tuple[Tuple[int, int], ...],
                      free_on: Optional[Event] = None):
        """Append + commit the WriteEntry and update volatile state.

        ``prep`` is the :class:`repro.io.plan.CowPrep` the pipeline's
        planner produced for this write.

        ``free_on``: for asynchronous writes, the replaced CoW pages may
        only be recycled once the DMA has landed -- recovery falls back
        to them if it must discard the new mapping (§4.2).  Passing the
        pending completion event defers the free accordingly.
        """
        entry = WriteEntry(pgoff=prep.pgoff, page_ids=tuple(prep.page_ids),
                           size_after=prep.size_after, mtime=self.engine.now,
                           sns=sns)
        idx = yield from self._append_commit(ctx, m, entry)
        if ctx._tracer is not None:
            ctx.trace_point("write_commit", ino=m.ino, log_idx=idx,
                            pids=list(prep.page_ids), sns=list(sns))
        page_ids = prep.page_ids
        yield ctx.charge("indexing",
                         self.model.index_insert_cost * len(page_ids))
        m.index.update(zip(range(prep.pgoff, prep.pgoff + len(page_ids)),
                           [PageMapping(pid, sns) for pid in page_ids]))
        m.bump_layout_epoch()
        m.size = prep.size_after
        m.mtime = entry.mtime
        if free_on is None or free_on.processed:
            self.allocator.free(prep.old_pages)
        else:
            old = prep.old_pages
            free_on.add_callback(lambda _e: self.allocator.free(old))
        return entry, idx

    # ------------------------------------------------------------------
    # Data path: read
    # ------------------------------------------------------------------
    def read(self, ctx: OpContext, ino: int, offset: int, nbytes: int,
             want_data: bool = False):
        """Read up to ``nbytes`` at ``offset``; returns an :class:`OpResult`
        whose value is the byte count (or the bytes, if ``want_data``)."""
        if nbytes < 0 or offset < 0:
            raise FsError("negative offset/size")
        if ctx._tracer is not None:
            ctx.trace_begin("read", ino=ino, offset=offset, nbytes=nbytes)
        try:
            # One event for both entry costs: nothing observable happens
            # between the syscall and VFS-lookup charges, so merging them
            # halves the hot path's entry events.
            yield ctx.charge(
                "syscall",
                self.model.syscall_cost + self.model.vfs_lookup_cost)
            m = self.minode(ino)
            if m.kind is not FileKind.FILE:
                raise FsError(f"not a regular file: inode {ino}")
            yield from self._acquire_file_lock(ctx, m, write=False)
            token = self.allocator.reader_enter()
            try:
                result = yield from self._read_locked(ctx, m, offset, nbytes,
                                                      want_data)
            except BaseException:
                self.allocator.reader_exit(token)
                raise
        finally:
            ctx.trace_end("read")
        # An asynchronous read's source pages stay pinned until the DMA
        # drains; only then may CoW-replaced pages be recycled.
        if result.is_async:
            result.pending.add_callback(
                lambda _e: self.allocator.reader_exit(token))
        else:
            self.allocator.reader_exit(token)
        self.ops_completed += 1
        return result

    def _read_locked(self, ctx: OpContext, m: MemInode, offset: int,
                     nbytes: int, want_data: bool):
        try:
            # Level-2 conflict check (no-op for synchronous filesystems):
            # an earlier write whose DMA is still in flight blocks us.
            # Under a deadline it can raise DeadlineExceeded.
            yield from self._wait_level2(ctx, m)
            nbytes = max(0, min(nbytes, m.size - offset))
            if nbytes == 0:
                m.lock.release_read()
                return OpResult(value=b"" if want_data else 0, ctx=ctx)
            pgoff = offset // PAGE_SIZE
            last = (offset + nbytes - 1) // PAGE_SIZE
            npages = last - pgoff + 1
            yield ctx.charge("indexing",
                                  self.model.index_lookup_cost * npages)
            # The charge stays per-page (the simulated radix walk); only
            # the host-side recomputation is memoised.
            runs = m.cached_runs(pgoff, npages)
        except BaseException:
            # The zero-byte branch returns right after releasing, so
            # reaching here means the read lock is still held.
            m.lock.release_read()
            raise
        # The variant's read pipeline (see repro.io).
        result = yield from self.read_pipeline.run(ctx, m, offset, nbytes,
                                                   runs, want_data)
        return result

    def _acquire_file_lock(self, ctx: OpContext, m: MemInode, write: bool):
        """Take the level-1 file lock, charging contention costs.

        A contended acquire pays for the handoff plus cacheline
        bouncing proportional to the number of racing waiters -- the
        effect that makes DWOM throughput decline as writers are added.
        """
        t0 = self.engine.now
        timeout = ctx.remaining()
        if timeout is not None and timeout <= 0:
            ctx._trace_abort(f"file lock ino{m.ino}")
            raise DeadlineExceeded(
                f"file lock ino{m.ino}: no budget left before acquire")
        event = (m.lock.acquire_write(timeout=timeout) if write
                 else m.lock.acquire_read(timeout=timeout))
        # A grant on the fast path found the waiter deque empty, so
        # nobody races it: only a queued acquire scans the waiters.
        racing = 0 if event.triggered else m.lock.queued
        try:
            yield from ctx.idle_wait(event)
        except WaitTimeout as exc:
            ctx._trace_abort(f"file lock ino{m.ino}")
            raise DeadlineExceeded(f"file lock ino{m.ino}: {exc}") from exc
        yield ctx.charge("syscall", self.model.lock_cost)
        contended = (self.engine.now > t0) or racing
        ctx.lock_racing = max(1, racing) if contended else 0

    def _charge_lock_contention(self, ctx: OpContext):
        """Pay the contended-handoff cost on the holder's critical path
        (first touches of the bounced metadata cachelines)."""
        if ctx.lock_racing:
            yield ctx.charge(
                "syscall", self.model.lock_contended_cost * ctx.lock_racing)
            ctx.lock_racing = 0

    # ------------------------------------------------------------------
    # The I/O pipelines (see repro.io)
    # ------------------------------------------------------------------
    def _build_pipelines(self):
        """Set ``write_pipeline`` and ``read_pipeline``.  NOVA:
        synchronous CPU memcpy for both directions (the paper's
        baseline)."""
        from repro.io import (
            MemcpyBackend,
            PagePersister,
            SyncReadPipeline,
            SyncWritePipeline,
        )
        backend = MemcpyBackend(self.memory,
                                PagePersister(self.image, self.engine))
        self.write_pipeline = SyncWritePipeline(self, backend)
        self.read_pipeline = SyncReadPipeline(self, backend)

    # ------------------------------------------------------------------
    # Hooks EasyIO overrides
    # ------------------------------------------------------------------
    def _wait_level2(self, ctx: OpContext, m: MemInode):
        """Level-2 lock check; synchronous filesystems never have
        pending data movement, so this is a no-op for them."""
        return
        yield  # pragma: no cover - makes this a generator
