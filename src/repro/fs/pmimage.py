"""The persistent-memory image: all durable state, in persist order.

Everything a filesystem must find again after a power failure lives in
a :class:`PMImage`: data pages, per-inode logs and their committed tail
pointers, inode records, the multi-inode journal, and -- the EasyIO
twist (§4.2) -- the DMA channels' completion buffers, which EasyIO
places in a predefined persistent region.

Crash-consistency testing needs the *persist order* of mutations, so
every durable store goes through a mutation method that (optionally)
appends a :class:`MutationRecord` to the image's journal.  A simulated
power failure at crash point *k* is then "replay the first *k* records
into a fresh image": exactly CrashMonkey's black-box model, with the
8-byte-atomic granularity NOVA's commit protocol assumes.

Recording is off by default; performance experiments pay nothing for it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Set, Tuple

from repro.fs.structures import PAGE_SIZE, MemInode


@dataclass(frozen=True)
class MutationRecord:
    """One durable store, in persist order.

    ``op`` names the mutation method; ``args`` are immutable values
    sufficient to replay it.
    """

    op: str
    args: Tuple[Any, ...]


#: Marker stored for pages written without a payload
#: (``write(..., payload=None)``: performance runs that never read data
#: back).
ELIDED = object()


class PMImage:
    """All persistent state of one filesystem instance.

    The mutable containers are only ever touched through the mutation
    methods below, so the journal (when enabled) is a complete,
    replayable persist-order history.
    """

    def __init__(self, record: bool = False):
        self.pages: Dict[int, Any] = {}                 # page_id -> bytes|ELIDED
        self.inodes: Dict[int, Any] = {}                # ino -> Inode (frozen)
        self.logs: Dict[int, List[Any]] = {}            # ino -> log entries
        self.log_tails: Dict[int, int] = {}             # ino -> committed entries
        self.journal: List[Any] = []                    # lightweight txn journal
        self.completion_buffers: Dict[int, int] = {}    # channel -> completion SN
        # Persistent channel-error-SN log: SNs that failed or were
        # stranded, per channel.  A completion buffer is a high-water
        # mark, so under faults it can *cover* an SN whose descriptor
        # never moved data; recovery must treat such SNs as invalid.
        self.channel_error_sns: Dict[int, Set[int]] = {}
        self.next_ino: int = 1
        self.next_page: int = 0
        self.recording = record
        self.mutations: List[MutationRecord] = []
        #: Installed FaultPlan (media-fault injection); None = perfect PM.
        self.fault_plan = None
        #: Cache-line persistence journal (repro.crash.linestream);
        #: None = mutation-granularity recording only.
        self.linestream = None

    def enable_line_recording(self):
        """Also journal every store at cache-line granularity.

        Must be enabled on a fresh recording image (before the first
        mutation): the line stream and the mutation journal describe
        the same history, from the first store on.
        """
        if not self.recording:
            raise RuntimeError("line recording requires record=True")
        if self.mutations:
            raise RuntimeError(
                "enable_line_recording() must precede the first mutation")
        from repro.crash.linestream import LineStream
        self.linestream = LineStream()
        return self.linestream

    def pages_fence(self) -> None:
        """Order a CPU page-store train (clwb+sfence, persister-issued)."""
        if self.linestream is not None:
            self.linestream.pages_fence()

    # ------------------------------------------------------------------
    # Mutation methods -- every durable store goes through one of these.
    # ------------------------------------------------------------------
    def _record(self, op: str, *args: Any) -> None:
        """Journal one store; a line stream journals the same record."""
        if self.recording:
            rec = MutationRecord(op, args)
            self.mutations.append(rec)
            if self.linestream is not None:
                self.linestream.emit(rec)

    def write_page(self, page_id: int, data: Any) -> None:
        """Persist one data page (bytes, or ELIDED for payload-less writes).

        With a fault plan installed, a content-carrying write may
        persist garbage instead (a media fault); what actually landed
        -- garbage included -- is what gets journalled, so crash replay
        sees the corrupted state exactly as recovery would.
        """
        if self.fault_plan is not None and data is not ELIDED:
            data = self.fault_plan.corrupt_page_write(page_id, data)
        self.pages[page_id] = data
        self._record("write_page", page_id, data)

    def write_pages(self, page_ids, contents) -> None:
        """Persist a train of pages: :meth:`write_page` for each, in order.

        Without a fault plan or recording (a line stream requires
        recording) there is nothing per page to do besides the store,
        so the train lands as one ``pages.update``.
        """
        if self.fault_plan is None and not self.recording:
            self.pages.update(zip(page_ids, contents))
            return
        for page_id, data in zip(page_ids, contents):
            self.write_page(page_id, data)

    def drop_page(self, page_id: int) -> None:
        """Return a page to free space.

        Freeing is purely a (volatile) allocator notion: persistent
        memory does not erase the bytes, and recovery may legitimately
        fall back to an old CoW page after discarding an unfinished
        write's mapping.  Content only disappears when the page is
        reallocated and overwritten by a later :meth:`write_page`.
        """
        # Intentionally neither erases nor journals anything.

    def put_inode(self, ino: int, inode: Any) -> None:
        """Persist an inode record (create or in-place field update)."""
        self.inodes[ino] = inode
        self._record("put_inode", ino, inode)

    def drop_inode(self, ino: int) -> None:
        self.inodes.pop(ino, None)
        self.logs.pop(ino, None)
        self.log_tails.pop(ino, None)
        self._record("drop_inode", ino)

    def append_log(self, ino: int, entry: Any) -> int:
        """Write a log entry *past the committed tail* (not yet valid).

        Returns the entry's index.  The entry only becomes durable state
        once :meth:`commit_log_tail` moves the tail past it -- that
        split is exactly NOVA's two-step append+commit.
        """
        log = self.logs.setdefault(ino, [])
        log.append(entry)
        self._record("append_log", ino, entry)
        return len(log) - 1

    def commit_log_tail(self, ino: int, tail: int) -> None:
        """The atomic 8-byte tail update: NOVA's commit point."""
        self.log_tails[ino] = tail
        self._record("commit_log_tail", ino, tail)

    def journal_begin(self, txn: Any) -> None:
        """Persist a journal record for a multi-inode transaction."""
        self.journal.append(txn)
        self._record("journal_begin", txn)

    def journal_end(self) -> None:
        """Retire the journal record (transaction fully applied)."""
        if self.journal:
            self.journal.pop()
        self._record("journal_end")

    def update_completion_buffer(self, channel_id: int, sn: int) -> None:
        """The DMA engine persists a channel's completion buffer value.

        EasyIO places completion buffers in a persistent region (§4.2);
        this is the store that makes a finished DMA visible to recovery.
        """
        self.completion_buffers[channel_id] = sn
        self._record("update_completion_buffer", channel_id, sn)

    def record_channel_errors(self, channel_id: int,
                              sns: Tuple[int, ...]) -> None:
        """Persist poisoned SNs: descriptors that failed or were
        stranded on ``channel_id``.

        EasyIO's error handler calls this *before* the channel can
        complete any later descriptor, so at every crash point a
        covered-but-failed SN is already poisoned -- the invariant the
        recovery validator relies on.
        """
        self.channel_error_sns.setdefault(channel_id, set()).update(sns)
        self._record("record_channel_errors", channel_id, tuple(sorted(sns)))

    def amend_log_sns(self, ino: int, index: int,
                      sns: Tuple[Tuple[int, int], ...]) -> None:
        """Rewrite a committed WriteEntry's SN field in place (failover).

        After re-submitting a write's failed descriptors on a healthy
        channel, EasyIO records the new (channel, sn) pairs so the
        recovery validator judges the entry by descriptors that can
        actually complete.  Modeled as a small in-place atomic update
        (the SN field is one cacheline, persisted with a single flush).
        """
        entry = self.logs[ino][index]
        self.logs[ino][index] = replace(entry, sns=tuple(sns))
        self._record("amend_log_sns", ino, index, tuple(sns))

    # ------------------------------------------------------------------
    # Allocation counters (volatile in NOVA, rebuilt on recovery; we
    # journal them so replayed images can keep allocating).
    # ------------------------------------------------------------------
    def alloc_ino(self) -> int:
        ino = self.next_ino
        self.next_ino += 1
        self._record("alloc_ino", ino)
        return ino

    def alloc_page_ids(self, count: int) -> List[int]:
        ids = list(range(self.next_page, self.next_page + count))
        self.next_page += count
        self._record("alloc_page_ids", self.next_page)
        return ids

    # ------------------------------------------------------------------
    # Crash replay
    # ------------------------------------------------------------------
    def crash_points(self) -> int:
        """Number of distinct crash points (0 .. len(mutations))."""
        return len(self.mutations)

    def replay(self, upto: int) -> "PMImage":
        """Build the post-crash image from the first ``upto`` mutations."""
        if not self.recording:
            raise RuntimeError("replay() requires an image created with record=True")
        img = PMImage(record=False)
        for rec in self.mutations[:upto]:
            img.apply(rec)
        return img

    def copy(self) -> "PMImage":
        """A non-recording image holding the same durable state.

        Every container is the copy's own (replay and recovery mutate
        logs, journal and error-SN sets in place); the stored values --
        page bytes, frozen inode and log records -- are shared.
        """
        img = PMImage(record=False)
        img.pages = dict(self.pages)
        img.inodes = dict(self.inodes)
        img.logs = {ino: list(log) for ino, log in self.logs.items()}
        img.log_tails = dict(self.log_tails)
        img.journal = list(self.journal)
        img.completion_buffers = dict(self.completion_buffers)
        img.channel_error_sns = {ch: set(sns) for ch, sns
                                 in self.channel_error_sns.items()}
        img.next_ino = self.next_ino
        img.next_page = self.next_page
        return img

    def apply(self, rec: MutationRecord) -> None:
        """Apply one replayed mutation record."""
        op, args = rec.op, rec.args
        if op == "write_page":
            self.pages[args[0]] = args[1]
        elif op == "put_inode":
            self.inodes[args[0]] = args[1]
        elif op == "drop_inode":
            self.inodes.pop(args[0], None)
            self.logs.pop(args[0], None)
            self.log_tails.pop(args[0], None)
        elif op == "append_log":
            self.logs.setdefault(args[0], []).append(args[1])
        elif op == "commit_log_tail":
            self.log_tails[args[0]] = args[1]
        elif op == "journal_begin":
            self.journal.append(args[0])
        elif op == "journal_end":
            if self.journal:
                self.journal.pop()
        elif op == "update_completion_buffer":
            self.completion_buffers[args[0]] = args[1]
        elif op == "record_channel_errors":
            self.channel_error_sns.setdefault(args[0], set()).update(args[1])
        elif op == "amend_log_sns":
            # A line-model crash plan may have dropped the entry's
            # append; the amend then has nothing to rewrite.
            ino, index, sns = args
            log = self.logs.get(ino, ())
            if index < len(log):
                log[index] = replace(log[index], sns=sns)
        elif op == "alloc_ino":
            self.next_ino = max(self.next_ino, args[0] + 1)
        elif op == "alloc_page_ids":
            self.next_page = max(self.next_page, args[0])
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown mutation op {op!r}")

    # ------------------------------------------------------------------
    # Media-fault detection (checksum hook)
    # ------------------------------------------------------------------
    @staticmethod
    def checksum(data: bytes) -> int:
        """Page content checksum (CRC32) for media-fault detection."""
        return zlib.crc32(data) & 0xFFFFFFFF

    def verify_page(self, page_id: int, expected: int) -> bool:
        """Read back a persisted page and compare its checksum.

        ELIDED/absent pages verify trivially (nothing to check).
        """
        data = self.pages.get(page_id)
        if data is None or data is ELIDED:
            return True
        return self.checksum(data) == expected

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def committed_log(self, ino: int) -> List[Any]:
        """The committed prefix of an inode's log."""
        tail = self.log_tails.get(ino, 0)
        return self.logs.get(ino, [])[:tail]


def file_bytes(image: PMImage, m: MemInode, offset: int,
               nbytes: int) -> bytes:
    """Bytes ``[offset, offset + nbytes)`` of the file whose volatile
    inode is ``m``, as ``image`` holds them.

    Holes, unmapped pages and payload-less (``ELIDED``) pages read as
    zeros.  The read pipelines and the CoW planner's edge-page merge
    read file data here; the crash checks' content digests are defined
    as a function of exactly these bytes.
    """
    index, pages = m.index, image.pages
    out = bytearray()
    pos = offset
    end = offset + nbytes
    while pos < end:
        off = pos // PAGE_SIZE
        in_page = pos - off * PAGE_SIZE
        take = min(PAGE_SIZE - in_page, end - pos)
        mapping = index.get(off)
        data = None if mapping is None else pages.get(mapping.page_id)
        if data is None or data is ELIDED:
            out += bytes(take)
        else:
            out += data[in_page:in_page + take]
        pos += take
    return bytes(out)
