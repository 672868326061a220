"""Tests for the NOVA baseline filesystem: namespace + data paths."""

from dataclasses import asdict

import pytest

from repro.fs import FsError, NovaFS, PMImage
from repro.fs.structures import PAGE_SIZE, FileKind
from repro.hw.platform import Platform, PlatformConfig
from repro.workloads.factory import FS_KINDS, make_fs
from repro.workloads.fxmark import settle
from tests.conftest import run_proc


@pytest.fixture
def fs(node):
    return NovaFS(node, PMImage()).mount()


def do(fs, gen):
    return run_proc(fs.engine, gen)


class TestNamespace:
    def test_create_and_lookup(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        assert do(fs, fs.lookup(fs.context(), "/a")) == ino

    def test_create_duplicate_rejected(self, fs):
        do(fs, fs.create(fs.context(), "/a"))
        with pytest.raises(FsError, match="exists"):
            do(fs, fs.create(fs.context(), "/a"))

    def test_lookup_missing_rejected(self, fs):
        with pytest.raises(FsError, match="no such file"):
            do(fs, fs.lookup(fs.context(), "/nope"))

    def test_mkdir_and_nested_create(self, fs):
        do(fs, fs.mkdir(fs.context(), "/d"))
        ino = do(fs, fs.create(fs.context(), "/d/x"))
        assert do(fs, fs.lookup(fs.context(), "/d/x")) == ino

    def test_create_in_missing_dir_rejected(self, fs):
        with pytest.raises(FsError, match="no such directory"):
            do(fs, fs.create(fs.context(), "/missing/x"))

    def test_path_through_file_rejected(self, fs):
        do(fs, fs.create(fs.context(), "/f"))
        with pytest.raises(FsError, match="not a directory"):
            do(fs, fs.create(fs.context(), "/f/x"))

    def test_unlink_removes_name(self, fs):
        do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.unlink(fs.context(), "/a"))
        with pytest.raises(FsError):
            do(fs, fs.lookup(fs.context(), "/a"))

    def test_unlink_missing_rejected(self, fs):
        with pytest.raises(FsError):
            do(fs, fs.unlink(fs.context(), "/ghost"))

    def test_unlink_frees_inode_and_pages(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.write(fs.context(), ino, 0, PAGE_SIZE * 4))
        before = fs.allocator.pages_freed
        do(fs, fs.unlink(fs.context(), "/a"))
        assert fs.allocator.pages_freed == before + 4
        assert ino not in fs._mem

    def test_hard_link_shares_inode(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.link(fs.context(), "/a", "/b"))
        assert do(fs, fs.lookup(fs.context(), "/b")) == ino
        assert fs.minode(ino).links == 2
        do(fs, fs.unlink(fs.context(), "/a"))
        # Still reachable through the second link.
        assert do(fs, fs.lookup(fs.context(), "/b")) == ino
        assert fs.minode(ino).links == 1

    def test_link_directory_rejected(self, fs):
        do(fs, fs.mkdir(fs.context(), "/d"))
        with pytest.raises(FsError):
            do(fs, fs.link(fs.context(), "/d", "/d2"))

    def test_rename_moves_name(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.rename(fs.context(), "/a", "/b"))
        assert do(fs, fs.lookup(fs.context(), "/b")) == ino
        with pytest.raises(FsError):
            do(fs, fs.lookup(fs.context(), "/a"))

    def test_rename_across_directories(self, fs):
        do(fs, fs.mkdir(fs.context(), "/d1"))
        do(fs, fs.mkdir(fs.context(), "/d2"))
        ino = do(fs, fs.create(fs.context(), "/d1/f"))
        do(fs, fs.rename(fs.context(), "/d1/f", "/d2/g"))
        assert do(fs, fs.lookup(fs.context(), "/d2/g")) == ino

    def test_rename_replaces_existing_target(self, fs):
        a = do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.create(fs.context(), "/b"))
        do(fs, fs.rename(fs.context(), "/a", "/b"))
        assert do(fs, fs.lookup(fs.context(), "/b")) == a

    def test_rename_journal_is_closed_after_success(self, fs):
        do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.rename(fs.context(), "/a", "/b"))
        assert fs.image.journal == []

    def test_stat_reports_size_and_kind(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.write(fs.context(), ino, 0, 5000))
        st = do(fs, fs.stat(fs.context(), "/a"))
        assert st[0] == ino
        assert st[1] is FileKind.FILE
        assert st[2] == 5000

    def test_invalid_path_rejected(self, fs):
        with pytest.raises(FsError):
            do(fs, fs.lookup(fs.context(), "///"))


class TestWrite:
    def test_write_returns_byte_count(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        result = do(fs, fs.write(fs.context(), ino, 0, 8192))
        assert result.value == 8192
        assert result.pending is None

    def test_write_grows_size(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.write(fs.context(), ino, 0, 4096))
        do(fs, fs.write(fs.context(), ino, 8192, 4096))
        assert fs.minode(ino).size == 12288

    def test_payload_length_must_match(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        with pytest.raises(FsError):
            do(fs, fs.write(fs.context(), ino, 0, 10, b"short"))

    def test_negative_offset_rejected(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        with pytest.raises(FsError):
            do(fs, fs.write(fs.context(), ino, -1, 10))

    def test_zero_byte_write_is_noop(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        result = do(fs, fs.write(fs.context(), ino, 0, 0))
        assert result.value == 0
        assert fs.minode(ino).size == 0

    def test_write_to_directory_rejected(self, fs):
        do(fs, fs.mkdir(fs.context(), "/d"))
        ino = do(fs, fs.lookup(fs.context(), "/d"))
        with pytest.raises(FsError, match="not a regular file"):
            do(fs, fs.write(fs.context(), ino, 0, 100))

    def test_cow_replaces_pages(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.write(fs.context(), ino, 0, PAGE_SIZE))
        first = fs.minode(ino).index[0].page_id
        do(fs, fs.write(fs.context(), ino, 0, PAGE_SIZE))
        second = fs.minode(ino).index[0].page_id
        assert first != second

    def test_readback_round_trip(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        data = bytes(range(256)) * 40  # 10240 bytes
        do(fs, fs.write(fs.context(), ino, 0, len(data), data))
        result = do(fs, fs.read(fs.context(), ino, 0, len(data),
                                want_data=True))
        assert result.value == data

    def test_partial_page_overwrite_merges(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        base = b"A" * PAGE_SIZE
        do(fs, fs.write(fs.context(), ino, 0, PAGE_SIZE, base))
        do(fs, fs.write(fs.context(), ino, 100, 50, b"B" * 50))
        result = do(fs, fs.read(fs.context(), ino, 0, PAGE_SIZE,
                                want_data=True))
        expected = bytearray(base)
        expected[100:150] = b"B" * 50
        assert result.value == bytes(expected)

    def test_unaligned_cross_page_write(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.write(fs.context(), ino, 0, 3 * PAGE_SIZE,
                        b"x" * (3 * PAGE_SIZE)))
        do(fs, fs.write(fs.context(), ino, PAGE_SIZE - 10, 20, b"y" * 20))
        result = do(fs, fs.read(fs.context(), ino, PAGE_SIZE - 10, 20,
                                want_data=True))
        assert result.value == b"y" * 20

    def test_append_writes_at_eof(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.write(fs.context(), ino, 0, 4096, b"a" * 4096))
        do(fs, fs.append(fs.context(), ino, 4096, b"b" * 4096))
        result = do(fs, fs.read(fs.context(), ino, 4096, 4096,
                                want_data=True))
        assert result.value == b"b" * 4096

    def test_truncate_shrinks_and_frees(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.write(fs.context(), ino, 0, 4 * PAGE_SIZE))
        freed_before = fs.allocator.pages_freed
        do(fs, fs.truncate(fs.context(), ino, PAGE_SIZE))
        assert fs.minode(ino).size == PAGE_SIZE
        assert fs.allocator.pages_freed == freed_before + 3


class TestRead:
    def test_read_clamps_to_eof(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.write(fs.context(), ino, 0, 1000, b"z" * 1000))
        result = do(fs, fs.read(fs.context(), ino, 500, 10_000,
                                want_data=True))
        assert result.value == b"z" * 500

    def test_read_past_eof_returns_empty(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        result = do(fs, fs.read(fs.context(), ino, 100, 10, want_data=True))
        assert result.value == b""

    def test_read_hole_returns_zeros(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        # Write only the third page; pages 0-1 are holes.
        do(fs, fs.write(fs.context(), ino, 2 * PAGE_SIZE, PAGE_SIZE,
                        b"q" * PAGE_SIZE))
        result = do(fs, fs.read(fs.context(), ino, 0, 3 * PAGE_SIZE,
                                want_data=True))
        assert result.value == bytes(2 * PAGE_SIZE) + b"q" * PAGE_SIZE

    def test_read_returns_count_without_want_data(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.write(fs.context(), ino, 0, 6000))
        result = do(fs, fs.read(fs.context(), ino, 0, 6000))
        assert result.value == 6000


class TestAccounting:
    def test_breakdown_phases_cover_latency(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        ctx = fs.context()
        t0 = fs.engine.now
        do(fs, fs.write(ctx, ino, 0, 65536))
        elapsed = fs.engine.now - t0
        assert sum(ctx.breakdown.values()) == pytest.approx(elapsed, rel=0.02)

    def test_memcpy_dominates_large_reads(self, fs):
        """Figure 1's headline: up to ~95 % of read CPU is data copy."""
        ino = do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.write(fs.context(), ino, 0, 65536))
        ctx = fs.context()
        do(fs, fs.read(ctx, ino, 0, 65536))
        total = sum(ctx.breakdown.values())
        assert ctx.breakdown["memcpy"] / total > 0.85

    def test_sync_write_cpu_equals_latency(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        ctx = fs.context()
        t0 = fs.engine.now
        do(fs, fs.write(ctx, ino, 0, 16384))
        assert ctx.cpu_ns == fs.engine.now - t0

    def test_ops_completed_counter(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        before = fs.ops_completed
        do(fs, fs.write(fs.context(), ino, 0, 4096))
        do(fs, fs.read(fs.context(), ino, 0, 4096))
        assert fs.ops_completed == before + 2


#: The operation counters every filesystem variant declares.
OP_COUNTERS = ("dma_writes", "dma_reads", "memcpy_reads", "memcpy_writes",
               "memcpy_ops")


def _counted_writes(kind, n):
    """A fresh ``kind`` filesystem after ``n`` 16 KiB writes (each
    settled): its op counters and its engine's stats."""
    platform = Platform(PlatformConfig.single_node())
    fs = make_fs(kind, platform)
    ino = do(fs, fs.create(fs.context(), "/c"))

    def body():
        for i in range(n):
            result = yield from fs.write(fs.context(), ino, i * 16384,
                                         16384, bytes(16384))
            yield from settle(fs, result)
    run_proc(fs.engine, body())
    counters = {name: getattr(fs, name) for name in OP_COUNTERS}
    counters["ops_completed"] = fs.ops_completed
    return counters, asdict(fs.engine.stats)


class TestOpCounters:
    @pytest.mark.parametrize("kind", FS_KINDS)
    def test_variant_declares_op_counters_and_a_write_bumps_one(self, kind):
        fs = make_fs(kind, Platform(PlatformConfig.single_node()))
        # Every variant declares every counter, whether or not its
        # data path bumps it.
        assert {name: getattr(fs, name) for name in OP_COUNTERS} \
            == dict.fromkeys(OP_COUNTERS, 0)
        counters, _ = _counted_writes(kind, 1)
        assert counters["ops_completed"] > 0
        if kind in ("nova-dma", "easyio", "naive"):
            # These variants carry per-backend counters; the memcpy and
            # delegation paths (nova, odinfs) count only ops_completed.
            assert any(counters[name] for name in OP_COUNTERS), \
                f"{kind}: the write bumped no op counter"

    def test_fresh_filesystems_count_identically(self):
        """Counters live on each filesystem and engine: a second fresh
        easyio run in the same process counts exactly like the first."""
        first = _counted_writes("easyio", 3)
        assert first[0]["dma_writes"] > 0
        assert _counted_writes("easyio", 3) == first


class TestConcurrency:
    def test_concurrent_writers_serialize_on_file_lock(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        spans = []
        def writer(i):
            ctx = fs.context()
            t0 = fs.engine.now
            yield from fs.write(ctx, ino, i * PAGE_SIZE, PAGE_SIZE)
            spans.append((t0, fs.engine.now))
        for i in range(3):
            fs.engine.process(writer(i))
        fs.engine.run()
        # Three writes must take at least 3x one write's copy time.
        durations = sorted(end for _s, end in spans)
        assert durations[-1] > durations[0] * 1.8

    def test_readers_do_not_serialize(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        do(fs, fs.write(fs.context(), ino, 0, PAGE_SIZE * 8))
        ends = []
        def reader():
            ctx = fs.context()
            yield from fs.read(ctx, ino, 0, PAGE_SIZE)
            ends.append(fs.engine.now)
        for _ in range(3):
            fs.engine.process(reader())
        fs.engine.run()
        # Shared lock: all three overlap, finishing within ~2x of one.
        assert max(ends) < min(ends) * 2.1


def _scanning_acquire(self, ctx, m, write):
    """``NovaFS._acquire_file_lock`` as it was before the fast-path
    skip: every acquire scans the waiters.  The reference below."""
    from repro.fs.nova import DeadlineExceeded
    from repro.sim import WaitTimeout
    t0 = self.engine.now
    timeout = ctx.remaining()
    if timeout is not None and timeout <= 0:
        ctx._trace_abort(f"file lock ino{m.ino}")
        raise DeadlineExceeded(
            f"file lock ino{m.ino}: no budget left before acquire")
    event = (m.lock.acquire_write(timeout=timeout) if write
             else m.lock.acquire_read(timeout=timeout))
    racing = m.lock.queued
    try:
        yield from ctx.idle_wait(event)
    except WaitTimeout as exc:
        ctx._trace_abort(f"file lock ino{m.ino}")
        raise DeadlineExceeded(f"file lock ino{m.ino}: {exc}") from exc
    yield ctx.charge("syscall", self.model.lock_cost)
    contended = (self.engine.now > t0) or racing
    ctx.lock_racing = max(1, racing) if contended else 0


class TestFileLockRacingCount:
    """A fast-path grant found no waiter, so ``_acquire_file_lock``
    counts 0 racers there without scanning; a queued acquire still
    scans.  The charged count must equal the scan's every time."""

    @staticmethod
    def _run(monkeypatch, acquire, writers, deadline_ns):
        """Run the scenario under ``acquire``; returns what each acquire
        charged, every op's outcome, and the number of waiter scans."""
        from repro.fs.nova import DeadlineExceeded
        from repro.sim import RWLock
        scans = []
        scan = RWLock.queued.fget
        monkeypatch.setattr(RWLock, "queued",
                            property(lambda lock: scans.append(1)
                                     or scan(lock)))
        charged = []

        def recorded(self, ctx, m, write):
            yield from acquire(self, ctx, m, write)
            charged.append((self.engine.now, write, ctx.lock_racing))

        monkeypatch.setattr(NovaFS, "_acquire_file_lock", recorded)
        fs = NovaFS(Platform(PlatformConfig.single_node()),
                    PMImage()).mount()
        ino = do(fs, fs.create(fs.context(), "/a"))
        outcomes = []

        def client(i):
            for j in range(3):
                if i % 3 == 2:
                    op = fs.read(fs.context(), ino, 0, 4 * PAGE_SIZE)
                else:
                    deadline = (None if deadline_ns is None
                                else fs.engine.now + deadline_ns)
                    op = fs.write(fs.context(deadline=deadline), ino,
                                  (i + j) * PAGE_SIZE, 4 * PAGE_SIZE)
                try:
                    yield from op
                    outcomes.append((i, j, "ok"))
                except DeadlineExceeded:
                    outcomes.append((i, j, "deadline"))

        for i in range(writers):
            fs.engine.process(client(i))
        fs.engine.run()
        return charged, outcomes, len(scans), fs.engine.now

    @pytest.mark.parametrize("writers,deadline_ns", [
        (1, None),       # uncontended: every acquire on the fast path
        (6, None),       # contended readers and writers
        (6, 3_000),      # contended, with timed-out (cancelled) waiters
    ])
    def test_count_matches_the_scan(self, monkeypatch, writers,
                                    deadline_ns):
        new = self._run(monkeypatch, NovaFS._acquire_file_lock, writers,
                        deadline_ns)
        ref = self._run(monkeypatch, _scanning_acquire, writers,
                        deadline_ns)
        charged, outcomes, scans, _end = new
        assert (charged, outcomes, new[3]) == (ref[0], ref[1], ref[3])
        # The reference scans on every acquire; only queued ones still do.
        assert ref[2] == len(charged) + sum(
            o == "deadline" for _i, _j, o in outcomes)
        if writers == 1:
            assert scans == 0
        else:
            assert 0 < scans < ref[2]
            assert any(racing > 1 for _t, _w, racing in charged)
        if deadline_ns is not None:
            assert any(o == "deadline" for _i, _j, o in outcomes)
            assert any(o == "ok" for _i, _j, o in outcomes)
