"""Regression tests for the shared I/O planner (repro.io.plan).

The contiguous-run / extent helpers used to be copied between the
filesystem variants; they now live in one place and every variant's
plans come from :class:`IoPlanner`.  These tests pin the edge cases
the duplicated copies used to cover: partial pages, holes, single-byte
operations, and runs that cross extent boundaries.
"""

import pytest

from repro.fs import NovaFS, PMImage
from repro.fs.structures import PAGE_SIZE, FileKind, MemInode, PageMapping
from repro.io.plan import (
    CowPrep,
    IoPlanner,
    contiguous_runs,
    extent_runs,
    run_sizes,
)
from tests.conftest import run_proc


@pytest.fixture
def fs(node):
    return NovaFS(node, PMImage()).mount()


def do(fs, gen):
    return run_proc(fs.engine, gen)


def _minode(mapping):
    m = MemInode(ino=7, kind=FileKind.FILE)
    m.index = {off: PageMapping(pid) for off, pid in mapping.items()}
    return m


class TestContiguousRuns:
    def test_empty(self):
        assert contiguous_runs([]) == []

    def test_single_run(self):
        assert contiguous_runs([4, 5, 6]) == [([4, 5, 6], [None] * 3)]

    def test_split_on_gap(self):
        runs = contiguous_runs([1, 2, 9, 10, 20])
        assert [ids for ids, _ in runs] == [[1, 2], [9, 10], [20]]

    def test_descending_pages_split(self):
        # Recycled pages can come back out of order: every step that is
        # not exactly +1 starts a new run.
        runs = contiguous_runs([5, 4, 3])
        assert [ids for ids, _ in runs] == [[5], [4], [3]]

    def test_contents_travel_with_their_pages(self):
        runs = contiguous_runs([1, 2, 9], ["a", "b", "c"])
        assert runs == [([1, 2], ["a", "b"]), ([9], ["c"])]

    def test_run_sizes_are_page_granular(self):
        assert run_sizes([1, 2, 9]) == [2 * PAGE_SIZE, PAGE_SIZE]
        assert run_sizes([]) == []


class TestExtentRuns:
    def test_fully_mapped_contiguous(self):
        m = _minode({0: 100, 1: 101, 2: 102})
        assert list(extent_runs(m.index, 0, 3)) == [(0, [100, 101, 102])]

    def test_cross_extent_split(self):
        # Physically discontiguous mappings split mid-range.
        m = _minode({0: 100, 1: 101, 2: 200, 3: 201})
        assert list(extent_runs(m.index, 0, 4)) == \
            [(0, [100, 101]), (2, [200, 201])]

    def test_hole_emits_empty_run(self):
        m = _minode({0: 100, 2: 102})
        assert list(extent_runs(m.index, 0, 3)) == \
            [(0, [100]), (1, []), (2, [102])]

    def test_hole_splits_physically_adjacent_pages(self):
        # Pages 100 and 101 are physically adjacent, but the file hole
        # between them must still break the run.
        m = _minode({0: 100, 2: 101})
        assert list(extent_runs(m.index, 0, 3)) == \
            [(0, [100]), (1, []), (2, [101])]

    def test_leading_and_trailing_holes(self):
        m = _minode({1: 50})
        assert list(extent_runs(m.index, 0, 3)) == \
            [(0, []), (1, [50]), (2, [])]

    def test_meminode_method_delegates(self):
        m = _minode({0: 100, 1: 101, 3: 50})
        assert list(m.extent_runs(0, 4)) == \
            list(extent_runs(m.index, 0, 4))


class TestReadPlan:
    def test_holes_excluded_from_data_extents(self):
        m = _minode({0: 100, 2: 102})
        plan = IoPlanner(None).read_plan(m, 0, 3 * PAGE_SIZE)
        assert not plan.write
        assert [e.is_hole for e in plan.extents] == [False, True, False]
        assert plan.mapped_bytes == 2 * PAGE_SIZE
        assert plan.run_sizes == [PAGE_SIZE, PAGE_SIZE]

    def test_single_byte_read_covers_one_page(self):
        m = _minode({0: 100})
        plan = IoPlanner(None).read_plan(m, 5, 1)
        assert plan.nbytes == 1
        assert plan.page_ids == [100]
        assert plan.mapped_bytes == PAGE_SIZE

    def test_offset_page_alignment(self):
        # A read starting mid-page must plan from that page, not page 0.
        m = _minode({0: 100, 1: 101, 2: 102})
        plan = IoPlanner(None).read_plan(m, PAGE_SIZE + 1, PAGE_SIZE)
        assert plan.extents == \
            IoPlanner.read_plan_from_runs(
                PAGE_SIZE + 1, PAGE_SIZE, [(1, (101, 102))]).extents


class TestWritePlan:
    def _plan(self, page_ids, contents=None):
        contents = contents or [b""] * len(page_ids)
        prep = CowPrep(pgoff=3, page_ids=list(page_ids),
                       contents=list(contents), old_pages=[],
                       size_after=0, run_sizes=run_sizes(page_ids),
                       nbytes=len(page_ids) * PAGE_SIZE,
                       offset=3 * PAGE_SIZE)
        return IoPlanner(None).write_plan(prep)

    def test_extents_mirror_contiguous_runs(self):
        plan = self._plan([10, 11, 40], [b"a", b"b", b"c"])
        assert [(e.pgoff, e.page_ids) for e in plan.extents] == \
            [(3, (10, 11)), (5, (40,))]
        assert plan.contents == [b"a", b"b", b"c"]
        assert plan.run_sizes == [2 * PAGE_SIZE, PAGE_SIZE]

    def test_single_page(self):
        plan = self._plan([99])
        assert len(plan.extents) == 1
        assert plan.extents[0].nbytes == PAGE_SIZE


class TestCowPrepThroughFilesystem:
    """prepare_cow edge cases, driven through a real NovaFS."""

    def _write_read(self, fs, ino, offset, payload):
        r = do(fs, fs.write(fs.context(), ino, offset, len(payload),
                            payload))
        assert r.value == len(payload)
        m = fs._mem[ino]
        rd = do(fs, fs.read(fs.context(), ino, 0, m.size, want_data=True))
        return rd.value

    def test_partial_page_overwrite_merges_old_data(self, fs):
        ino = do(fs, fs.create(fs.context(), "/f"))
        base = bytes([1]) * PAGE_SIZE
        do(fs, fs.write(fs.context(), ino, 0, PAGE_SIZE, base))
        data = self._write_read(fs, ino, 100, b"\x02" * 50)
        assert data == base[:100] + b"\x02" * 50 + base[150:]

    def test_single_byte_write(self, fs):
        ino = do(fs, fs.create(fs.context(), "/f"))
        data = self._write_read(fs, ino, 0, b"Z")
        assert data == b"Z"
        m = fs._mem[ino]
        assert m.size == 1 and len(m.index) == 1

    def test_cross_page_unaligned_write(self, fs):
        ino = do(fs, fs.create(fs.context(), "/f"))
        payload = bytes(range(256)) * 32          # 2 pages worth
        data = self._write_read(fs, ino, PAGE_SIZE // 2, payload)
        assert data == b"\x00" * (PAGE_SIZE // 2) + payload

    def test_write_beyond_hole_zero_fills(self, fs):
        ino = do(fs, fs.create(fs.context(), "/f"))
        data = self._write_read(fs, ino, 3 * PAGE_SIZE, b"end")
        assert data == b"\x00" * (3 * PAGE_SIZE) + b"end"
