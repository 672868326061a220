"""Persistent metadata structures (NOVA-style) and their volatile mirrors.

Persistent records are frozen dataclasses: once appended to a
:class:`~repro.fs.pmimage.PMImage` log they are immutable, so crash
replay cannot observe half-updated entries (NOVA's 8-byte-atomic
tail commit is the only mutation that validates them).

The EasyIO modification (§5) appears here as the ``sns`` field of
:class:`WriteEntry`: the sequence numbers of the DMA descriptors that
carry the entry's data pages.  A recovered entry is valid only if every
one of those SNs is covered by the corresponding channel's persistent
completion buffer.  Synchronous filesystems leave ``sns`` empty.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

PAGE_SIZE = 4096
PAGE_SHIFT = 12
#: The root directory's inode number.
ROOT_INO = 0

#: Per-inode read-plan memo entries kept before the cache is reset
#: (rotating-offset benchmarks revisit a small set of ranges; an
#: unbounded cache would leak on adversarial access patterns).
_RUNS_CACHE_MAX = 1024


class FileKind(enum.Enum):
    """Inode type."""

    FILE = "file"
    DIR = "dir"


@dataclass(frozen=True)
class Inode:
    """Persistent inode record."""

    ino: int
    kind: FileKind
    links: int
    ctime: int


@dataclass(frozen=True)
class WriteEntry:
    """A committed file write: the block-mapping update for a CoW write.

    Attributes
    ----------
    pgoff:
        First file page covered.
    page_ids:
        The newly written physical pages, one per covered file page.
    size_after:
        File size after this write (NOVA log entries carry the size).
    sns:
        ``((channel_id, sn), ...)`` for the DMA descriptors moving this
        entry's data -- EasyIO's extra SN field.  Empty for CPU copies.
    """

    pgoff: int
    page_ids: Tuple[int, ...]
    size_after: int
    mtime: int
    sns: Tuple[Tuple[int, int], ...] = ()

    @property
    def num_pages(self) -> int:
        return len(self.page_ids)


@dataclass(frozen=True)
class SetAttrEntry:
    """Size/time attribute update (truncate and friends)."""

    size: int
    mtime: int


@dataclass(frozen=True)
class DentryEntry:
    """Directory log entry: add (valid=True) or remove a name."""

    name: str
    ino: int
    kind: FileKind
    valid: bool
    mtime: int


@dataclass(frozen=True)
class RenameTxn:
    """Journal record for the multi-inode rename transaction."""

    src_dir: int
    src_name: str
    dst_dir: int
    dst_name: str
    ino: int
    kind: FileKind


@dataclass(frozen=True)
class TornEntry:
    """A partially persisted log entry (cache-line crash model).

    Line-granularity crash replay plants one of these where a
    multi-line log append was interrupted mid-entry.  NOVA log entries
    carry no checksum: the only thing protecting them is the ordering
    fence between the append and the 8-byte tail commit.  A TornEntry
    *inside the committed prefix* therefore means that fence was
    violated -- recovery treats it as metadata corruption.  Beyond the
    committed tail it is harmless (the tail scan never reads it).
    """

    of: str          # entry type that was torn (e.g. "WriteEntry")
    lines: int       # cache lines that landed
    total: int       # cache lines the full entry spans


@dataclass(frozen=True)
class TornRecord:
    """A partially persisted journal record (cache-line crash model).

    Unlike log entries, journal records carry commit/checksum semantics
    (NOVA's lite journal validates records before replaying them), so a
    torn record is *detectably* invalid: recovery must silently retire
    it and roll the transaction back.
    """

    of: str
    lines: int
    total: int


@dataclass(slots=True)
class PageMapping:
    """Volatile block-mapping slot: one file page -> physical page.

    ``sns`` mirrors the owning :class:`WriteEntry`; EasyIO's two-level
    locking consults it to decide whether the page's data has landed.
    (``slots=True``: benchmarks create one per written page, millions
    per sweep.)
    """

    page_id: int
    sns: Tuple[Tuple[int, int], ...] = ()


@dataclass
class MemInode:
    """Volatile in-DRAM inode state, rebuilt from the log on recovery.

    Holds what NOVA keeps in DRAM: the page index (radix tree), current
    size/mtime, the dentry map for directories -- plus EasyIO's
    bookkeeping: ``pending_sns``, the SNs of the most recent write whose
    DMA may still be in flight (the level-2 lock state, §4.3).
    """

    ino: int
    kind: FileKind
    links: int = 1
    size: int = 0
    mtime: int = 0
    index: Dict[int, PageMapping] = field(default_factory=dict)
    dentries: Dict[str, int] = field(default_factory=dict)
    pending_sns: Tuple[Tuple[int, int], ...] = ()
    # Fault-tolerant EasyIO: the event that fires once the most recent
    # write's data has fully landed (retries/failover/degradation
    # included).  The level-2 check waits on this instead of the raw
    # completion buffer, because a halted channel's completion may
    # never arrive.  None when no supervision is active.
    pending_done: Optional[object] = None
    # The level-1 file lock: a sim RWLock a live filesystem assigns when
    # it creates the inode (it needs the engine).  None after recovery,
    # whose inode table is checked, never run.
    lock: Optional[object] = None
    #: (pgoff, npages) -> cached extent-run list for the current block
    #: mapping; cleared on every block-mapping change (write commit,
    #: truncate, recovery rebuild).  Purely a performance device --
    #: never persisted.
    _runs_cache: Dict[Tuple[int, int], list] = field(
        default_factory=dict, repr=False)

    def bump_layout_epoch(self) -> None:
        """Invalidate cached read plans after a block-mapping change."""
        self._runs_cache.clear()

    def extent_runs(self, pgoff: int, npages: int):
        """Yield ``(pgoff, [page_ids...])`` runs of physically
        consecutive pages over the requested file range.

        NOVA issues one memcpy (EasyIO: one DMA descriptor) per
        physically contiguous run.  The walk itself lives in
        :func:`repro.io.plan.extent_runs` (the shared I/O planner).
        """
        # Imported here: repro.io pulls in modules that import this one.
        from repro.io.plan import extent_runs
        yield from extent_runs(self.index, pgoff, npages)

    def cached_runs(self, pgoff: int, npages: int) -> List[tuple]:
        """Memoised :meth:`extent_runs`, valid for this layout epoch.

        The returned list (and its nested page lists) is shared between
        calls: the read pipelines only iterate it.  Rotating-offset
        benchmarks revisit the same (offset, length) ranges millions of
        times against an unchanged mapping, so this removes the radix
        walk from the read hot path.
        """
        key = (pgoff, npages)
        runs = self._runs_cache.get(key)
        if runs is None:
            if len(self._runs_cache) >= _RUNS_CACHE_MAX:
                self._runs_cache.clear()
            runs = list(self.extent_runs(pgoff, npages))
            self._runs_cache[key] = runs
        return runs
