"""Backend-neutral I/O planning: (inode, offset, length) -> IoPlan.

The planner absorbs the contiguous-run/extent helpers that used to be
copied between the filesystem variants:

* the run-size grouping in NOVA's CoW preparation
  (``NovaFS._prepare_cow``),
* EasyIO's ``_contiguous_runs`` descriptor grouping,
* the mapped-extent walk behind ``MemInode.extent_runs``.

Every copy backend consumes the same :class:`IoPlan` -- a list of
physically contiguous :class:`Extent` runs -- so planning is written
once and the backends differ only in how they move the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.fs.pmimage import ELIDED, file_bytes
from repro.fs.structures import PAGE_SIZE


def contiguous_runs(page_ids: Sequence[int],
                    contents: Optional[Sequence[Any]] = None
                    ) -> List[Tuple[list, list]]:
    """Group ``(page_ids, contents)`` into physically contiguous runs.

    NOVA issues one memcpy -- EasyIO one DMA descriptor chain -- per
    physically contiguous run of destination pages.  ``contents`` may
    be omitted when only the run shapes matter.
    """
    n = len(page_ids)
    # Fast path: freshly allocated pages are almost always one fully
    # consecutive run -- skip the element-wise grouping loop.
    if n and page_ids[-1] - page_ids[0] == n - 1 \
            and list(page_ids) == list(range(page_ids[0], page_ids[0] + n)):
        return [(list(page_ids),
                 list(contents) if contents is not None else [None] * n)]
    if contents is None:
        contents = [None] * n
    runs: List[Tuple[list, list]] = []
    cur_ids: list = []
    cur_contents: list = []
    for pid, content in zip(page_ids, contents):
        if cur_ids and pid != cur_ids[-1] + 1:
            runs.append((cur_ids, cur_contents))
            cur_ids, cur_contents = [], []
        cur_ids.append(pid)
        cur_contents.append(content)
    if cur_ids:
        runs.append((cur_ids, cur_contents))
    return runs


def run_sizes(page_ids: Sequence[int]) -> List[int]:
    """Bytes per physically contiguous run of ``page_ids``."""
    n = len(page_ids)
    if n and page_ids[-1] - page_ids[0] == n - 1 \
            and list(page_ids) == list(range(page_ids[0], page_ids[0] + n)):
        return [n * PAGE_SIZE]
    return [len(ids) * PAGE_SIZE for ids, _ in contiguous_runs(page_ids)]


def extent_runs(index: Dict[int, Any], pgoff: int,
                npages: int) -> Iterator[Tuple[int, List[int]]]:
    """Yield ``(pgoff, [page_ids...])`` runs of physically consecutive
    pages over a mapped file range.

    ``index`` maps file page offsets to :class:`PageMapping`; a hole
    (unmapped offset) is emitted as an empty run so readers can
    zero-fill.
    """
    run_start = None
    run_pages: List[int] = []
    for off in range(pgoff, pgoff + npages):
        mapping = index.get(off)
        page_id = mapping.page_id if mapping else None
        if run_pages and page_id is not None and page_id == run_pages[-1] + 1:
            run_pages.append(page_id)
            continue
        if run_pages:
            yield run_start, run_pages
        run_start, run_pages = off, ([page_id] if page_id is not None else [])
        if page_id is None:
            # A hole: emit an empty run so readers can zero-fill.
            yield off, []
            run_start, run_pages = None, []
    if run_pages:
        yield run_start, run_pages


@dataclass(frozen=True)
class Extent:
    """One physically contiguous run of pages within an :class:`IoPlan`.

    ``page_ids`` is empty for a read hole (zero-fill); ``contents``
    carries the new page contents for write plans (``None`` entries /
    ELIDED for performance runs).
    """

    pgoff: int
    page_ids: Tuple[int, ...]
    contents: Optional[Tuple[Any, ...]] = None

    @property
    def nbytes(self) -> int:
        return len(self.page_ids) * PAGE_SIZE

    @property
    def is_hole(self) -> bool:
        return not self.page_ids


@dataclass
class IoPlan:
    """A backend-neutral description of one operation's data movement."""

    write: bool
    ino: int
    offset: int
    nbytes: int                 # the operation's logical byte count
    extents: List[Extent]

    @property
    def run_sizes(self) -> List[int]:
        """Bytes per non-hole extent (what each copy call moves)."""
        return [e.nbytes for e in self.extents if e.page_ids]

    @property
    def mapped_bytes(self) -> int:
        """Total bytes backed by pages (excludes read holes)."""
        return sum(e.nbytes for e in self.extents if e.page_ids)

    @property
    def page_ids(self) -> List[int]:
        out: List[int] = []
        for e in self.extents:
            out.extend(e.page_ids)
        return out

    @property
    def contents(self) -> List[Any]:
        out: List[Any] = []
        for e in self.extents:
            if e.contents is not None:
                out.extend(e.contents)
        return out

    @property
    def tag(self) -> tuple:
        """The memory-accounting tag the legacy data paths used."""
        return ("w" if self.write else "r", self.ino)


@dataclass
class CowPrep:
    """Output of CoW preparation (pages allocated, contents computed).

    Consumed by the copy backends (via the write :class:`IoPlan`) and
    by the metadata commit (``NovaFS._commit_write``).
    """

    pgoff: int
    page_ids: List[int]
    contents: List[Any]
    old_pages: List[int]
    size_after: int
    run_sizes: List[int]
    nbytes: int
    offset: int


class IoPlanner:
    """Turns (inode, offset, length) into a backend-neutral IoPlan.

    One instance per filesystem: CoW preparation needs the allocator,
    cost model, and memory model, which the planner takes from the
    owning filesystem.
    """

    def __init__(self, fs):
        self.fs = fs

    # ------------------------------------------------------------------
    # Write planning: CoW page allocation + contents
    # ------------------------------------------------------------------
    def prepare_cow(self, ctx, m, offset: int, nbytes: int,
                    payload: Optional[bytes]):
        """Allocate CoW pages and compute their new contents.

        Partial head/tail pages cost an extra CPU copy of the preserved
        region (NOVA must merge old data into the fresh CoW page).
        """
        fs = self.fs
        pgoff = offset // PAGE_SIZE
        last = (offset + nbytes - 1) // PAGE_SIZE
        npages = last - pgoff + 1
        yield ctx.charge(
            "metadata",
            fs.model.block_alloc_cost
            + fs.model.block_alloc_page_cost * npages)
        page_ids = fs.allocator.allocate(npages)
        head_cut = offset - pgoff * PAGE_SIZE
        tail_cut = (pgoff + npages) * PAGE_SIZE - (offset + nbytes)
        # Merge cost for partially overwritten edge pages.
        merge_bytes = 0
        if head_cut and m.index.get(pgoff) is not None:
            merge_bytes += head_cut
        if tail_cut and m.index.get(last) is not None:
            merge_bytes += tail_cut
        if merge_bytes:
            yield from ctx.timed_cpu(
                "memcpy", fs.memory.cpu_copy(merge_bytes, write=True,
                                             tag=("merge", m.ino)))
        contents: List[Any] = []
        if payload is None:
            contents = [ELIDED] * npages
        else:
            for i in range(npages):
                page_start = (pgoff + i) * PAGE_SIZE
                old = file_bytes(fs.image, m, page_start, PAGE_SIZE)
                lo = max(offset, page_start) - page_start
                hi = min(offset + nbytes, page_start + PAGE_SIZE) - page_start
                data_lo = page_start + lo - offset
                new = bytearray(old)
                new[lo:hi] = payload[data_lo:data_lo + (hi - lo)]
                contents.append(bytes(new))
        index = m.index
        old_pages = ([index[off].page_id
                      for off in range(pgoff, pgoff + npages) if off in index]
                     if index else [])
        # One copy per physically contiguous run of new pages; freshly
        # allocated runs are contiguous unless the recycler fragmented
        # them -- model one run per fragment.  The edge pages move
        # fewer payload bytes, but the CoW copy still writes whole
        # pages (merge + payload), so run sizes stay page-granular --
        # matching NOVA's page-granularity CoW cost.
        sizes = run_sizes(page_ids)
        size_after = max(m.size, offset + nbytes)
        return CowPrep(pgoff, page_ids, contents, old_pages,
                       size_after, sizes, nbytes, offset)

    def write_plan(self, m, prep: CowPrep) -> IoPlan:
        """The write's IoPlan: contiguous runs of the new CoW pages."""
        extents: List[Extent] = []
        off = prep.pgoff
        for ids, cts in contiguous_runs(prep.page_ids, prep.contents):
            extents.append(Extent(off, tuple(ids), tuple(cts)))
            off += len(ids)
        return IoPlan(write=True, ino=m.ino, offset=prep.offset,
                      nbytes=prep.nbytes, extents=extents)

    # ------------------------------------------------------------------
    # Read planning: mapped extents (holes included)
    # ------------------------------------------------------------------
    def read_plan(self, m, offset: int, nbytes: int) -> IoPlan:
        pgoff = offset // PAGE_SIZE
        last = (offset + nbytes - 1) // PAGE_SIZE
        runs = extent_runs(m.index, pgoff, last - pgoff + 1)
        return self.read_plan_from_runs(m.ino, offset, nbytes, runs)

    @staticmethod
    def read_plan_from_runs(ino: int, offset: int, nbytes: int,
                            runs) -> IoPlan:
        """Wrap already-computed ``(pgoff, pages)`` runs as an IoPlan."""
        extents = [Extent(off, tuple(pages)) for off, pages in runs]
        return IoPlan(write=False, ino=ino, offset=offset, nbytes=nbytes,
                      extents=extents)
