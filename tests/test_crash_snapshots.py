"""The crash oracle's snapshots: what a content digest is a function
of, and recording snapshots advanced op by op from the previous one.

Every recording snapshot taken with a ``SnapshotTree`` must equal a
full walk of the live tree at the same instant.  The recordings below
cover what the Table 2 workloads and the fuzz tuples never do
(directories, cross-directory hard links, directory renames), every
Table 2 line recording, the fault-plan page recordings (media faults
included) and both corpus mutants.
"""

import random

import pytest

from repro.crash import CRASH_WORKLOADS
from repro.crash import crashmonkey
from repro.crash.crashmonkey import (SnapshotTree, _dirty_inodes,
                                     _payload, _record_workload,
                                     snapshot_with_content)
from repro.faults import ChannelHaltFault, FaultPlan, TransferErrorFault
from repro.faults.plan import MEDIA
from repro.fs import NovaFS, PMImage
from repro.fs.pmimage import ELIDED, file_bytes
from repro.fs.structures import (PAGE_SIZE, ROOT_INO, FileKind, Inode,
                                 MemInode, PageMapping)
from repro.fuzz import ScenarioTuple, run_scenario
from repro.hw.platform import Platform, PlatformConfig
from repro.workloads.fxmark import settle
from tests.conftest import run_proc
from tests.test_corpus import REPRODUCERS


def _table(size, layout, order=None):
    """``(inodes, image)`` holding one file ``/f`` of ``size`` bytes.

    ``layout`` maps a page offset to what its mapping reads: bytes,
    ``ELIDED``, or None (a page id the image does not hold).  ``order``
    is the index's insertion order (default: ascending).
    """
    image = PMImage()
    m = MemInode(1, FileKind.FILE, size=size)
    for pid, off in enumerate(order or sorted(layout)):
        m.index[off] = PageMapping(100 + pid)
        if layout[off] is not None:
            image.pages[100 + pid] = layout[off]
    root = MemInode(ROOT_INO, FileKind.DIR, dentries={"f": 1})
    return {ROOT_INO: root, 1: m}, image


def _digest(size, layout, memo=None, order=None):
    inodes, image = _table(size, layout, order)
    return snapshot_with_content(inodes, image, memo)["/f"][2]


def _bytes(size, layout, order=None):
    inodes, image = _table(size, layout, order)
    return file_bytes(image, inodes[1], 0, size)


A = random.Random(1).randbytes(PAGE_SIZE)
C = random.Random(2).randbytes(PAGE_SIZE)


class TestDigestDefinition:
    """A file's digest is a function of exactly ``file_bytes(image, m,
    0, m.size)``: equal logical content digests alike whatever the
    layout, and one differing byte changes the digest."""

    def test_hole_elided_missing_and_zero_page_digest_alike(self):
        size = 3 * PAGE_SIZE
        layouts = [{0: A, 2: C}, {0: A, 1: ELIDED, 2: C},
                   {0: A, 1: bytes(PAGE_SIZE), 2: C}, {0: A, 1: None, 2: C}]
        assert len({_bytes(size, lay) for lay in layouts}) == 1
        assert len({_digest(size, lay) for lay in layouts}) == 1

    def test_bytes_past_eof_do_not_count(self):
        size = 2 * PAGE_SIZE + 100
        tails = [C[:100] + bytes(PAGE_SIZE - 100),
                 C[:100] + A[100:], C]
        layouts = [{0: A, 1: A, 2: tail} for tail in tails]
        # A mapping wholly beyond EOF reads nothing either.
        layouts.append({0: A, 1: A, 2: C, 5: C})
        assert len({_bytes(size, lay) for lay in layouts}) == 1
        assert len({_digest(size, lay) for lay in layouts}) == 1

    def test_zero_tail_below_eof_reads_as_a_hole(self):
        size = PAGE_SIZE + 10
        assert _digest(size, {0: A, 1: bytes(10) + C[10:]}) \
            == _digest(size, {0: A})

    @pytest.mark.parametrize("pos", [0, PAGE_SIZE - 1, PAGE_SIZE,
                                     2 * PAGE_SIZE + 99])
    def test_one_differing_byte_changes_the_digest(self, pos):
        size = 2 * PAGE_SIZE + 100
        layout = {0: A, 1: A, 2: C}
        off, at = divmod(pos, PAGE_SIZE)
        page = bytearray(layout[off])
        page[at] ^= 0x01
        changed = dict(layout)
        changed[off] = bytes(page)
        assert _digest(size, changed) != _digest(size, layout)

    def test_size_is_part_of_the_content(self):
        # A trailing zero byte makes file_bytes one byte longer.
        assert _digest(PAGE_SIZE, {0: A}) != _digest(PAGE_SIZE + 1, {0: A})
        assert _digest(0, {}) != _digest(1, {})

    def test_digest_equality_is_file_bytes_equality(self):
        """Seeded layouts from a small page alphabet, so that equal
        content recurs under different layouts: digests, with one
        shared memo or none, partition them exactly as (size,
        file_bytes) does."""
        rng = random.Random(7)
        alphabet = [A, C, bytes(PAGE_SIZE), ELIDED, None,
                    A[:50] + bytes(PAGE_SIZE - 50),
                    A[:50] + C[50:], bytes(50) + C[50:]]
        memo: dict = {}
        by_content: dict = {}
        by_digest: dict = {}
        for _ in range(400):
            size = rng.choice((0, 50, PAGE_SIZE, PAGE_SIZE + 50,
                               3 * PAGE_SIZE))
            offs = rng.sample(range(4), rng.randrange(5))
            layout = {off: rng.choice(alphabet) for off in offs}
            content = (size, _bytes(size, layout, offs))
            digest = _digest(size, layout, memo, offs)
            assert digest == _digest(size, layout)
            by_content.setdefault(content, set()).add(digest)
            by_digest.setdefault(digest, set()).add(content)
        assert all(len(d) == 1 for d in by_content.values())
        assert all(len(c) == 1 for c in by_digest.values())
        assert len(by_content) < 400 / 2  # content did recur


@pytest.fixture
def checked(monkeypatch):
    """Check every recording snapshot against a full walk of the live
    tree (with its own digest memo); returns the count checked."""
    from repro.fuzz import scenario
    plain = crashmonkey.snapshot_with_content
    memos: dict = {}
    count = []

    def checking(inodes, image, content_memo=None, tree=None):
        snap = plain(inodes, image, content_memo, tree)
        if tree is not None:
            full = plain(inodes, image, memos.setdefault(id(tree), {}))
            assert snap == full, \
                (len(count), sorted(set(snap.items()) ^ set(full.items())))
            count.append(1)
        return snap

    monkeypatch.setattr(crashmonkey, "snapshot_with_content", checking)
    monkeypatch.setattr(scenario, "snapshot_with_content", checking)
    return count


def _dir_workload(fs, _iterations):
    """Nested directories, hard links across directories, a directory
    rename, and unlinks inside the renamed directory."""
    def ctx():
        return fs.context(record=False)

    def write(ino, offset, nbytes, tag):
        result = yield from fs.write(ctx(), ino, offset, nbytes,
                                     _payload(tag, nbytes))
        yield from settle(fs, result)

    yield from fs.mkdir(ctx(), "/a")
    yield ("op",)
    yield from fs.mkdir(ctx(), "/a/b")
    yield ("op",)
    f = yield from fs.create(ctx(), "/a/b/f")
    yield ("op",)
    yield from write(f, 0, 2 * PAGE_SIZE, 1)
    yield ("op",)
    yield from fs.link(ctx(), "/a/b/f", "/h")
    yield ("op",)
    g = yield from fs.create(ctx(), "/a/g")
    yield ("op",)
    yield from fs.link(ctx(), "/a/g", "/a/b/g2")
    yield ("op",)
    yield from fs.mkdir(ctx(), "/c")
    yield ("op",)
    yield from fs.rename(ctx(), "/a", "/c/a2")
    yield ("op",)
    # One file, two directories: both paths take the new content.
    yield from write(f, PAGE_SIZE, 100, 2)
    yield ("op",)
    yield from fs.unlink(ctx(), "/c/a2/b/f")
    yield ("op",)
    yield from write(g, 0, 300, 3)
    yield ("op",)
    yield from fs.rename(ctx(), "/c", "/d")
    yield ("op",)
    yield from fs.rename(ctx(), "/d/a2/g", "/top")
    yield ("op",)
    # A non-empty directory inside the renamed one goes, subtree and all.
    yield from fs.unlink(ctx(), "/d/a2/b")
    yield ("op",)
    yield from fs.mkdir(ctx(), "/d/a2/b")
    yield ("op",)
    yield from fs.rename(ctx(), "/h", "/d/a2/b/h")
    yield ("op",)
    # Rename over an existing name: the replaced file is dropped.
    yield from fs.rename(ctx(), "/top", "/d/a2/b/h")
    yield ("op",)


class TestIncrementalSnapshots:
    @pytest.mark.parametrize("kind", ["nova", "easyio"])
    def test_directory_recording(self, checked, kind):
        image, oracle = _record_workload(kind, _dir_workload, 1, lines=True)
        assert len(checked) == len(oracle) == 18
        paths = set().union(*(snap for _s, _e, snap in oracle))
        assert {"/c/a2/b/f", "/h", "/c/a2/b/g2", "/d/a2/b/g2",
                "/d/a2/b/h"} <= paths
        final = oracle[-1][2]
        assert sorted(final) == ["/d", "/d/a2", "/d/a2/b", "/d/a2/b/h"]
        # The file that replaced /d/a2/b/h is /a/g's: 300 bytes.
        assert final["/d/a2/b/h"][1] == 300

    @pytest.mark.parametrize("kind", ["easyio", "nova"])
    @pytest.mark.parametrize("workload", sorted(CRASH_WORKLOADS))
    def test_table2_line_recordings(self, checked, kind, workload):
        _desc, driver, iterations = CRASH_WORKLOADS[workload]
        _image, oracle = _record_workload(kind, driver, iterations,
                                          lines=True)
        assert len(checked) == len(oracle) > 100

    @pytest.mark.parametrize("workload", sorted(CRASH_WORKLOADS))
    def test_fault_plan_recordings(self, checked, workload):
        """The page sweeps' fault plans: DMA errors, a channel halt and
        media faults, which rewrite page bytes."""
        plans = []

        def fault_plan():
            plans.append(FaultPlan(
                seed=42, p_xfer_error=0.02, p_media=0.02, max_faults=24,
                schedule=(ChannelHaltFault(0, 5),
                          TransferErrorFault(1, 9))))
            return plans[-1]

        _desc, driver, iterations = CRASH_WORKLOADS[workload]
        _image, oracle = _record_workload("easyio", driver, iterations,
                                          fault_plan)
        assert len(checked) == len(oracle)
        assert plans[0].injected[MEDIA] > 0

    @pytest.mark.parametrize("fname,payload", REPRODUCERS,
                             ids=[f for f, _ in REPRODUCERS])
    def test_corpus_mutant_recordings(self, checked, fname, payload):
        t = ScenarioTuple.from_dict(payload["tuple"])
        result = run_scenario(t, payload["mutant"])
        assert result.failing
        assert len(checked) == t.workload.nfiles + len(t.workload.ops)


def _live_file(size):
    """A mounted NOVA fs on a recording image, holding /f."""
    fs = NovaFS(Platform(PlatformConfig.single_node()),
                PMImage(record=True)).mount()

    def scenario():
        ino = yield from fs.create(fs.context(), "/f")
        yield from fs.write(fs.context(), ino, 0, size, A[:size])
        return ino
    return fs, run_proc(fs.engine, scenario())


class TestRewalk:
    """Windows that the journal cannot fully account for re-walk the
    whole tree instead of trusting the dirty set."""

    def test_late_page_store_rewalks(self):
        fs, ino = _live_file(PAGE_SIZE)
        tree = SnapshotTree()
        before = snapshot_with_content(fs._mem, fs.image, None, tree)
        start = len(fs.image.mutations)
        # A page store with no WriteEntry in its window, like a DMA
        # that lands after its op's snapshot.
        fs.image.write_page(fs._mem[ino].index[0].page_id, C)
        assert _dirty_inodes(fs.image.mutations[start:]) is None
        after = snapshot_with_content(fs._mem, fs.image, None, tree)
        assert after == snapshot_with_content(fs._mem, fs.image)
        assert after["/f"] != before["/f"]

    def test_unlogged_dentry_change_rewalks(self):
        fs, ino = _live_file(PAGE_SIZE)
        tree = SnapshotTree()
        snapshot_with_content(fs._mem, fs.image, None, tree)
        # The root is dirty, but no log entry names the new dentry.
        fs._mem[ROOT_INO].dentries["alias"] = ino
        fs.image.put_inode(ROOT_INO, Inode(ROOT_INO, FileKind.DIR, 2, 0))
        after = snapshot_with_content(fs._mem, fs.image, None, tree)
        assert after == snapshot_with_content(fs._mem, fs.image)
        assert after["/alias"] == after["/f"]

    def test_unchanged_window_returns_the_same_snapshot(self):
        fs, _ino = _live_file(PAGE_SIZE)
        tree = SnapshotTree()
        first = snapshot_with_content(fs._mem, fs.image, None, tree)
        assert snapshot_with_content(fs._mem, fs.image, None, tree) is first

    def test_tree_needs_a_recording_image(self):
        fs = NovaFS(Platform(PlatformConfig.single_node()),
                    PMImage()).mount()
        with pytest.raises(ValueError, match="recording image"):
            snapshot_with_content(fs._mem, fs.image, None, SnapshotTree())
