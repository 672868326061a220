"""Data-page allocator with read-safe deferred frees.

NOVA allocates CoW pages from per-CPU free lists and defers freeing
replaced pages until no reader can still be walking the old mapping
(epoch-based reclamation).  EasyIO's two-level locking leans on the
same guarantee: a read whose DMA is still in flight must never observe
its source pages recycled (§4.3).

:class:`PageAllocator` reproduces that contract: :meth:`free` parks the
pages until every read that was in flight at free time has drained
(:meth:`reader_enter` / :meth:`reader_exit` bracket reads).  Allocation
takes recycled pages first, oldest first, in one slice, falling back to
fresh page ids from the image.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.fs.pmimage import PMImage


class PageAllocator:
    """Allocate/free 4 KB data pages over a :class:`PMImage`."""

    def __init__(self, image: PMImage):
        self.image = image
        #: Recycled page ids, oldest first (FIFO reuse).
        self._free: List[int] = []
        self._active_reads: Set[int] = set()
        self._read_token_seq = 0
        # Parked frees: (pages, set of read tokens that must drain first).
        self._deferred: List[Tuple[List[int], Set[int]]] = []
        self.pages_allocated = 0
        self.pages_freed = 0

    # -- allocation ---------------------------------------------------
    def allocate(self, count: int) -> List[int]:
        """Return ``count`` fresh or recycled page ids."""
        if count < 0:
            raise ValueError(f"negative page count: {count}")
        self.pages_allocated += count
        free = self._free
        ids = free[:count]
        del free[:count]
        if len(ids) < count:
            ids.extend(self.image.alloc_page_ids(count - len(ids)))
        return ids

    # -- reader epochs ---------------------------------------------------
    def reader_enter(self) -> int:
        """Register an in-flight read; returns a token for reader_exit."""
        self._read_token_seq += 1
        token = self._read_token_seq
        self._active_reads.add(token)
        return token

    def reader_exit(self, token: int) -> None:
        """Drain an in-flight read, releasing any frees it was blocking."""
        self._active_reads.discard(token)
        if not self._deferred:
            return
        still_parked = []
        for pages, blockers in self._deferred:
            blockers.discard(token)
            if blockers:
                still_parked.append((pages, blockers))
            else:
                self._release(pages)
        self._deferred = still_parked

    # -- freeing ------------------------------------------------------------
    def free(self, pages: List[int]) -> None:
        """Free pages, deferring until current in-flight reads drain."""
        if not pages:
            return
        self.pages_freed += len(pages)
        if self._active_reads:
            self._deferred.append((list(pages), set(self._active_reads)))
        else:
            self._release(pages)

    def _release(self, pages: List[int]) -> None:
        # Freeing never touches the image (see PMImage.drop_page).
        self._free.extend(pages)

    # -- introspection --------------------------------------------------------
    @property
    def deferred_pages(self) -> int:
        """Pages parked behind in-flight reads."""
        return sum(len(pages) for pages, _b in self._deferred)

    @property
    def free_pages(self) -> int:
        return len(self._free)
