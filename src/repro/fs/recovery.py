"""Post-crash recovery: rebuild the volatile inode table from a PM image.

Recovery is a function of the persistent image alone: it builds no
engine, platform or filesystem, and returns the recovered
:class:`~repro.fs.structures.MemInode` table.  The crash checks read
that table and the image directly (a recovered state is checked, never
run), so recovered inodes carry no lock and no allocator is rebuilt.

Recovery follows NOVA's protocol (§4.2 of the paper, §5's "supplement
the recovery logic"):

1. **Tail scan** -- only the committed prefix of each inode log (up to
   the persisted tail pointer) is replayed; appended-but-uncommitted
   entries are discarded.
2. **SN validation (EasyIO)** -- a committed :class:`WriteEntry` whose
   DMA descriptors did not finish before the crash (its SN exceeds the
   channel's persistent completion-buffer value) is discarded, together
   with everything after it.  Two-level locking guarantees invalid
   entries form a log suffix, but we verify defensively.
3. **Journal replay** -- an open rename transaction is rolled forward
   if its destination dentry committed, otherwise rolled back.
4. **Orphan scan** -- inodes with no surviving dentry are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from repro.fs.pmimage import PMImage
from repro.fs.structures import (
    PAGE_SIZE,
    ROOT_INO,
    DentryEntry,
    FileKind,
    MemInode,
    PageMapping,
    SetAttrEntry,
    TornEntry,
    TornRecord,
    WriteEntry,
)

SnValidator = Callable[[Tuple[Tuple[int, int], ...]], bool]


class TornLogEntryError(Exception):
    """Metadata corruption: a torn log entry inside a committed prefix.

    NOVA log entries carry no per-entry checksum; the append/commit
    fence is the only thing guaranteeing a committed entry is whole.
    The line-granularity crash model can plant
    :class:`~repro.fs.structures.TornEntry` sentinels where that fence
    was violated -- recovery cannot parse such an entry and must fail
    loudly rather than replay garbage.  (Torn entries *beyond* the
    committed tail are simply never read: the tail scan discards them.)
    """


def completion_buffer_validator(image: PMImage) -> SnValidator:
    """The EasyIO validity rule: every (channel, sn) must be covered by
    the channel's persistent completion buffer -- and must not be in
    the channel's persistent error-SN log.

    The second clause is the fault-tolerance extension: the completion
    buffer is a high-water mark, so after an error the hardware's next
    successful completion *jumps past* the failed SN.  The error
    handler persists failed/stranded SNs before that can happen, so a
    covered-but-poisoned SN means "the descriptor never moved its
    data" and the entry must be discarded.
    """

    def valid(sns: Tuple[Tuple[int, int], ...]) -> bool:
        for ch, sn in sns:
            if image.completion_buffers.get(ch, 0) < sn:
                return False
            if sn in image.channel_error_sns.get(ch, ()):
                return False
        return True

    return valid


@dataclass
class Recovered:
    """What :func:`recover` rebuilt: the volatile inode table (root
    included) and the number of write entries SN validation dropped."""

    inodes: Dict[int, MemInode]
    discarded_entries: int = 0


def recover(image: PMImage,
            sn_validator: Optional[SnValidator] = None) -> Recovered:
    """Rebuild the volatile inode table from the post-crash ``image``.

    Pass ``completion_buffer_validator(image)`` for EasyIO-format
    images; synchronous images need no validator (their entries carry
    no SNs).  Retires the image's journal records and drops orphaned
    inodes from it, as mounting the image would.
    """
    inodes: Dict[int, MemInode] = {
        ROOT_INO: MemInode(ino=ROOT_INO, kind=FileKind.DIR, links=2)}
    discarded_entries = 0

    # Pass 1: rebuild every inode from its committed log prefix.
    for ino, inode in sorted(image.inodes.items()):
        m = inodes.get(ino) or MemInode(ino=ino, kind=inode.kind)
        m.kind, m.links = inode.kind, inode.links
        inodes[ino] = m
        for entry in image.committed_log(ino):
            if isinstance(entry, TornEntry):
                raise TornLogEntryError(
                    f"inode {ino}: torn {entry.of} "
                    f"({entry.lines}/{entry.total} lines) inside the "
                    f"committed log prefix")
            if isinstance(entry, WriteEntry):
                if entry.sns and sn_validator is not None \
                        and not sn_validator(entry.sns):
                    # Unfinished DMA: discard this and all later entries.
                    discarded_entries += 1
                    break
                for i, pid in enumerate(entry.page_ids):
                    m.index[entry.pgoff + i] = PageMapping(pid, entry.sns)
                m.bump_layout_epoch()
                m.size = entry.size_after
                m.mtime = entry.mtime
            elif isinstance(entry, SetAttrEntry):
                m.size = entry.size
                m.mtime = entry.mtime
                first_dead = (entry.size + PAGE_SIZE - 1) // PAGE_SIZE
                for off in [o for o in m.index if o >= first_dead]:
                    del m.index[off]
                m.bump_layout_epoch()
            elif isinstance(entry, DentryEntry):
                if entry.valid:
                    m.dentries[entry.name] = entry.ino
                else:
                    m.dentries.pop(entry.name, None)
                m.mtime = entry.mtime

    # Pass 2: roll the rename journal forward or back.
    for txn in list(image.journal):
        if isinstance(txn, TornRecord):
            # Journal records are checksummed (NOVA's lite journal):
            # a torn record is detectably invalid -- retire it and
            # roll back (the dentries it guards were never touched,
            # or the per-inode logs already carry them).
            image.journal_end()
            continue
        dst = inodes.get(txn.dst_dir)
        src = inodes.get(txn.src_dir)
        if dst is None or src is None:
            continue
        if dst.dentries.get(txn.dst_name) == txn.ino:
            # Destination committed: roll forward (drop the source name).
            if src.dentries.get(txn.src_name) == txn.ino:
                del src.dentries[txn.src_name]
        # else: destination never committed -- nothing to undo, the
        # source dentry is still intact (roll back is a no-op).
        image.journal_end()

    # Pass 3: orphan scan -- drop inodes unreachable from any directory.
    reachable: Set[int] = {ROOT_INO}
    stack = [ROOT_INO]
    while stack:
        cur = inodes.get(stack.pop())
        if cur is None:
            continue
        for child in cur.dentries.values():
            if child not in reachable:
                reachable.add(child)
                if child in inodes and inodes[child].kind is FileKind.DIR:
                    stack.append(child)
    for ino in [i for i in inodes if i not in reachable]:
        image.drop_inode(ino)
        del inodes[ino]

    return Recovered(inodes, discarded_entries)
