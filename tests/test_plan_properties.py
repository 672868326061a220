"""Property-based tests for the I/O planner (seeded stdlib ``random``).

Hundreds of randomised cases, one fixed seed each, no external
dependency: every generated plan must *tile* its byte range exactly --
no gaps, no overlaps, extent bounds respected -- and CoW preparation
must allocate exactly the pages the range spans, place the payload at
the right offset inside them, and report page-granular run sizes.
"""

import random

import pytest

from repro.fs import NovaFS, PMImage, file_bytes
from repro.fs.structures import PAGE_SIZE, FileKind, MemInode, PageMapping
from repro.io.plan import IoPlanner, run_sizes
from tests.conftest import run_proc

READ_CASES = 300
COW_CASES = 40


def _random_index(rng, max_pages=32):
    """A random page index mixing holes, fragments, and adjacent runs."""
    index = {}
    pid = rng.randrange(10, 1000)
    for off in range(max_pages):
        roll = rng.random()
        if roll < 0.3:
            continue                          # hole
        pid = rng.randrange(10, 10_000) if roll < 0.5 else pid + 1
        index[off] = PageMapping(pid)
    return index


class TestReadPlanProperties:
    def test_plans_tile_the_range_exactly(self):
        rng = random.Random(0xC0FFEE)
        planner = IoPlanner(None)
        for _ in range(READ_CASES):
            m = MemInode(ino=1, kind=FileKind.FILE)
            m.index = _random_index(rng)
            offset = rng.randrange(0, 34 * PAGE_SIZE)
            nbytes = rng.randrange(1, 6 * PAGE_SIZE)
            plan = planner.read_plan(m, offset, nbytes)
            first = offset // PAGE_SIZE
            last = (offset + nbytes - 1) // PAGE_SIZE

            # Tiling: extents advance page by page, no gaps or overlaps
            # (a hole extent covers exactly one page).
            pos = first
            for e in plan.extents:
                assert e.pgoff == pos, "gap or overlap between extents"
                pos += len(e.page_ids) or 1
            assert pos == last + 1, "plan does not cover the full range"

            # Bounds: every page is inside the requested range and the
            # plan's byte accounting is page-granular.
            assert plan.offset == offset and plan.nbytes == nbytes
            assert plan.mapped_bytes == \
                sum(len(e.page_ids) for e in plan.extents) * PAGE_SIZE
            assert plan.run_sizes == \
                [e.nbytes for e in plan.extents if not e.is_hole]

            # Fidelity: data extents are physically contiguous and agree
            # with the index; holes sit exactly where mappings miss.
            for e in plan.extents:
                for i, pid in enumerate(e.page_ids):
                    assert m.index[e.pgoff + i].page_id == pid
                    if i:
                        assert pid == e.page_ids[i - 1] + 1, \
                            "data extent not physically contiguous"
                if e.is_hole:
                    assert m.index.get(e.pgoff) is None

    def test_every_mapped_page_appears_exactly_once(self):
        rng = random.Random(0xBEEF)
        planner = IoPlanner(None)
        for _ in range(READ_CASES // 3):
            m = MemInode(ino=1, kind=FileKind.FILE)
            m.index = _random_index(rng)
            offset = rng.randrange(0, 20 * PAGE_SIZE)
            nbytes = rng.randrange(1, 8 * PAGE_SIZE)
            plan = planner.read_plan(m, offset, nbytes)
            first = offset // PAGE_SIZE
            last = (offset + nbytes - 1) // PAGE_SIZE
            planned = {}
            for e in plan.extents:
                for i, pid in enumerate(e.page_ids):
                    off = e.pgoff + i
                    assert off not in planned, f"page {off} planned twice"
                    planned[off] = pid
            expected = {off: m.index[off].page_id
                        for off in range(first, last + 1)
                        if off in m.index}
            assert planned == expected


class TestCowPrepProperties:
    """prepare_cow driven through a real NovaFS with random writes."""

    def test_cow_preparation_invariants(self, node):
        rng = random.Random(42)
        fs = NovaFS(node, PMImage()).mount()
        ino = run_proc(fs.engine, fs.create(fs.context(), "/cow"))
        planner = fs.planner
        for i in range(COW_CASES):
            # Every other round, a real write evolves the file so the
            # preparation sees pre-existing pages (merge paths).
            if i % 2:
                off = rng.randrange(0, 8 * PAGE_SIZE)
                n = rng.randrange(1, 2 * PAGE_SIZE)
                run_proc(fs.engine, fs.write(fs.context(), ino, off, n,
                                             rng.randbytes(n)))
            m = fs._mem[ino]
            size_before = m.size
            offset = rng.randrange(0, 10 * PAGE_SIZE)
            nbytes = rng.randrange(1, 4 * PAGE_SIZE)
            payload = rng.randbytes(nbytes)
            prep = run_proc(fs.engine, planner.prepare_cow(
                fs.context(), m, offset, nbytes, payload))
            first = offset // PAGE_SIZE
            last = (offset + nbytes - 1) // PAGE_SIZE
            npages = last - first + 1

            # Exactly the spanned pages, each a fresh distinct page.
            assert prep.pgoff == first
            assert len(prep.page_ids) == npages
            assert len(set(prep.page_ids)) == npages
            assert prep.size_after == max(size_before, offset + nbytes)

            # Run sizes are page-granular and account for every page.
            assert prep.run_sizes == run_sizes(prep.page_ids)
            assert sum(prep.run_sizes) == npages * PAGE_SIZE

            # The payload lands at the right place inside the new pages.
            assert all(len(c) == PAGE_SIZE for c in prep.contents)
            joined = b"".join(prep.contents)
            lo = offset - first * PAGE_SIZE
            assert joined[lo:lo + nbytes] == payload

            # The write plan wraps the same pages, in order, tiled.
            plan = planner.write_plan(m, prep)
            assert plan.page_ids == prep.page_ids
            assert plan.contents == prep.contents
            pos = first
            for e in plan.extents:
                assert e.pgoff == pos and not e.is_hole
                pos += len(e.page_ids)
            assert pos == last + 1

    def test_elided_payload_prepares_same_shape(self, node):
        """A payload-less write changes contents, never geometry."""
        rng = random.Random(7)
        fs = NovaFS(node, PMImage()).mount()
        ino = run_proc(fs.engine, fs.create(fs.context(), "/e"))
        planner = fs.planner
        for _ in range(10):
            m = fs._mem[ino]
            offset = rng.randrange(0, 6 * PAGE_SIZE)
            nbytes = rng.randrange(1, 3 * PAGE_SIZE)
            prep = run_proc(fs.engine, planner.prepare_cow(
                fs.context(), m, offset, nbytes, None))
            first = offset // PAGE_SIZE
            last = (offset + nbytes - 1) // PAGE_SIZE
            assert len(prep.page_ids) == last - first + 1
            assert len(prep.contents) == len(prep.page_ids)


class TestShadowModel:
    """Random writes against a plain-bytearray shadow file."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_writes_match_shadow(self, node, seed):
        rng = random.Random(seed)
        fs = NovaFS(node, PMImage()).mount()
        ino = run_proc(fs.engine, fs.create(fs.context(), "/s"))
        shadow = bytearray()
        for _ in range(60):
            offset = rng.randrange(0, 20 * PAGE_SIZE)
            nbytes = rng.randrange(1, 3 * PAGE_SIZE)
            payload = rng.randbytes(nbytes)
            run_proc(fs.engine, fs.write(fs.context(), ino, offset,
                                         nbytes, payload))
            if len(shadow) < offset:
                shadow.extend(b"\x00" * (offset - len(shadow)))
            shadow[offset:offset + nbytes] = payload
        m = fs._mem[ino]
        assert m.size == len(shadow)
        assert file_bytes(fs.image, m, 0, m.size) == bytes(shadow)
