"""Tests for EasyIO: asynchronous I/O, orderless operation, two-level
locking, selective offload, and the Naive ablation."""

import pytest

from repro.core import EasyIoFS, NaiveAsyncFS
from repro.fs import PMImage, file_bytes
from repro.fs.recovery import completion_buffer_validator, recover
from tests.conftest import run_proc


@pytest.fixture
def fs(node):
    return EasyIoFS(node, PMImage()).mount()


def do(fs, gen):
    return run_proc(fs.engine, gen)


def settle(fs, gen):
    """Run an op and wait out its pending I/O; returns the result."""
    def wrapper():
        result = yield from gen
        if result.is_async:
            yield result.pending
        cont = result.continuation
        if cont is not None:
            yield from cont(fs.context())
        return result
    return run_proc(fs.engine, wrapper())


class TestAsyncWrite:
    def test_large_write_returns_pending(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        result = settle(fs, fs.write(fs.context(), ino, 0, 65536))
        assert result.sns, "offloaded write must carry SNs"
        assert result.pending is not None

    def test_small_write_is_synchronous(self, fs):
        """Selective offloading: <=4 KB stays on the CPU (§4.4)."""
        ino = do(fs, fs.create(fs.context(), "/a"))
        result = settle(fs, fs.write(fs.context(), ino, 0, 4096))
        assert result.pending is None
        assert result.sns == ()
        assert fs.memcpy_writes == 1
        assert fs.dma_writes == 0

    def test_syscall_returns_before_dma_completes(self, fs):
        """The early return that makes cycles harvestable."""
        ino = do(fs, fs.create(fs.context(), "/a"))
        timing = {}
        def body():
            ctx = fs.context()
            t0 = fs.engine.now
            result = yield from fs.write(ctx, ino, 0, 65536)
            timing["return"] = fs.engine.now - t0
            yield result.pending
            timing["complete"] = fs.engine.now - t0
        run_proc(fs.engine, body())
        assert timing["return"] < timing["complete"] * 0.6

    def test_metadata_committed_at_return_with_sns(self, fs):
        """Orderless operation: the log entry (with SNs) is committed
        before the data lands."""
        ino = do(fs, fs.create(fs.context(), "/a"))
        def body():
            ctx = fs.context()
            result = yield from fs.write(ctx, ino, 0, 65536)
            committed = fs.image.committed_log(ino)
            entry = committed[-1]
            state = {
                "entry_sns": entry.sns,
                "dma_done": all(fs.platform.dma.channel(c).is_complete(sn)
                                for c, sn in entry.sns),
            }
            yield result.pending
            return state
        state = run_proc(fs.engine, body())
        assert state["entry_sns"]
        assert not state["dma_done"], \
            "commit should precede DMA completion for a 64 KB write"

    def test_data_readable_after_completion(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        data = bytes(range(256)) * 256  # 64 KB
        settle(fs, fs.write(fs.context(), ino, 0, len(data), data))
        result = settle(fs, fs.read(fs.context(), ino, 0, len(data),
                                    want_data=True))
        assert result.value == data

    def test_write_cpu_time_is_small_fraction(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        def body():
            ctx = fs.context()
            t0 = fs.engine.now
            result = yield from fs.write(ctx, ino, 0, 65536)
            yield result.pending
            return ctx.cpu_ns, fs.engine.now - t0
        cpu, latency = run_proc(fs.engine, body())
        assert cpu / latency < 0.5, "most of the write should be offloaded"

    def test_completion_buffers_persisted(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        settle(fs, fs.write(fs.context(), ino, 0, 65536))
        assert fs.image.completion_buffers, \
            "EasyIO must persist completion-buffer updates"

    def test_old_pages_freed_only_after_dma(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        settle(fs, fs.write(fs.context(), ino, 0, 65536))
        def body():
            ctx = fs.context()
            result = yield from fs.write(ctx, ino, 0, 65536)
            freed_at_return = fs.allocator.free_pages
            yield result.pending
            return freed_at_return, fs.allocator.free_pages
        at_return, after = run_proc(fs.engine, body())
        assert at_return == 0, "CoW pages recycled before the DMA landed"
        assert after == 16


class TestTwoLevelLocking:
    def test_second_write_waits_for_first_dma(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        def body():
            ctx1 = fs.context()
            r1 = yield from fs.write(ctx1, ino, 0, 65536)
            # Immediately issue a second write: level-2 must block it
            # until the first write's DMA lands.
            ctx2 = fs.context()
            r2 = yield from fs.write(ctx2, ino, 65536, 65536)
            waited = ctx2.breakdown["wait"]
            first_done = all(fs.platform.dma.channel(c).is_complete(sn)
                             for c, sn in r1.sns)
            yield r2.pending
            return waited, first_done
        waited, first_done = run_proc(fs.engine, body())
        assert waited > 0, "level-2 lock should have blocked the writer"
        assert first_done

    def test_truncate_waits_for_previous_write_dma(self, fs):
        """The truncate path runs the same level-2 check as writes."""
        ino = do(fs, fs.create(fs.context(), "/a"))
        def body():
            r1 = yield from fs.write(fs.context(), ino, 0, 65536)
            assert r1.is_async
            ctx2 = fs.context()
            yield from fs.truncate(ctx2, ino, 4096)
            landed = all(fs.platform.dma.channel(c).is_complete(sn)
                         for c, sn in r1.sns)
            return ctx2.breakdown["wait"], landed
        waited, landed = run_proc(fs.engine, body())
        assert waited > 0, "level-2 lock should have blocked the truncate"
        assert landed
        assert fs._mem[ino].size == 4096

    def test_read_after_write_waits_for_dma(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        settle(fs, fs.write(fs.context(), ino, 0, 65536))
        def body():
            r1 = yield from fs.write(fs.context(), ino, 0, 65536)
            ctx2 = fs.context()
            r2 = yield from fs.read(ctx2, ino, 0, 65536)
            if r2.is_async:
                yield r2.pending
            return ctx2.breakdown["wait"]
        assert run_proc(fs.engine, body()) > 0

    def test_write_after_read_does_not_wait(self, fs):
        """Read-write conflicts proceed immediately (Figure 7a): CoW
        protects the in-flight reader."""
        ino = do(fs, fs.create(fs.context(), "/a"))
        settle(fs, fs.write(fs.context(), ino, 0, 131072))
        def body():
            r_read = yield from fs.read(fs.context(), ino, 0, 131072)
            assert r_read.is_async, "big read should be DMA-offloaded"
            ctx = fs.context()
            r_write = yield from fs.write(ctx, ino, 0, 65536)
            waited = ctx.breakdown["wait"]
            yield r_write.pending
            yield r_read.pending
            return waited
        assert run_proc(fs.engine, body()) == 0

    def test_in_flight_read_pins_cow_source_pages(self, fs):
        """A write that CoWs pages under an unfinished read must not
        recycle the read's source pages."""
        ino = do(fs, fs.create(fs.context(), "/a"))
        data = b"R" * 131072
        settle(fs, fs.write(fs.context(), ino, 0, len(data), data))
        def body():
            r_read = yield from fs.read(fs.context(), ino, 0, len(data),
                                        want_data=True)
            r_write = yield from fs.write(fs.context(), ino, 0, 65536,
                                          b"W" * 65536)
            yield r_write.pending
            yield r_read.pending
            return r_read.value
        assert run_proc(fs.engine, body()) == data

    def test_lock_never_held_across_return(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        def body():
            result = yield from fs.write(fs.context(), ino, 0, 65536)
            held = fs.minode(ino).lock.held_exclusive
            yield result.pending
            return held
        assert run_proc(fs.engine, body()) is False


class TestReadPath:
    def test_large_read_offloaded_when_channels_free(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        settle(fs, fs.write(fs.context(), ino, 0, 65536))
        result = settle(fs, fs.read(fs.context(), ino, 0, 65536))
        assert fs.dma_reads >= 1
        assert result.pending is not None

    def test_small_read_uses_memcpy(self, fs):
        ino = do(fs, fs.create(fs.context(), "/a"))
        settle(fs, fs.write(fs.context(), ino, 0, 4096))
        result = settle(fs, fs.read(fs.context(), ino, 0, 4096))
        assert result.pending is None
        assert fs.memcpy_reads >= 1

    def test_read_admission_control_shunts_under_load(self, fs):
        """Listing 2: with every L channel >= queue depth 2, reads fall
        back to memcpy."""
        ino = do(fs, fs.create(fs.context(), "/a"))
        settle(fs, fs.write(fs.context(), ino, 0, 1 << 20))
        def body():
            results = []
            for _ in range(24):
                r = yield from fs.read(fs.context(), ino, 0, 65536)
                results.append(r)
            for r in results:
                if r.pending is not None and not r.pending.processed:
                    yield r.pending
        run_proc(fs.engine, body())
        assert fs.memcpy_reads > 0, "saturated channels must shunt to memcpy"
        assert fs.dma_reads > 0


class TestNaiveAblation:
    @pytest.fixture
    def naive(self, node):
        return NaiveAsyncFS(node, PMImage()).mount()

    def test_commit_deferred_to_second_syscall(self, naive):
        ino = do(naive, naive.create(naive.context(), "/a"))
        def body():
            result = yield from naive.write(naive.context(), ino, 0, 65536)
            committed_at_return = len(naive.image.committed_log(ino))
            assert result.continuation is not None
            yield result.pending
            yield from result.continuation(naive.context())
            return committed_at_return, len(naive.image.committed_log(ino))
        before, after = run_proc(naive.engine, body())
        assert before == 0 and after == 1

    def test_lock_held_across_the_gap(self, naive):
        ino = do(naive, naive.create(naive.context(), "/a"))
        def body():
            result = yield from naive.write(naive.context(), ino, 0, 65536)
            held = naive.minode(ino).lock.held_exclusive
            yield result.pending
            yield from result.continuation(naive.context())
            return held, naive.minode(ino).lock.held_exclusive
        during, after = run_proc(naive.engine, body())
        assert during is True, "Naive must hold the lock across the DMA"
        assert after is False

    def test_naive_write_latency_higher_than_easyio(self, node):
        from repro.workloads import measure_single_op
        lat_easy, _c, _b = measure_single_op("easyio", "write", 65536)
        lat_naive, _c, _b = measure_single_op("naive", "write", 65536)
        assert lat_naive > lat_easy * 1.1


class TestRecoveryIntegration:
    def test_crash_between_commit_and_dma_discards_entry(self, node):
        fs = EasyIoFS(node, PMImage(record=True)).mount()
        data1 = b"1" * 65536
        ino_box = {}
        def body():
            ino = yield from fs.create(fs.context(), "/a")
            ino_box["ino"] = ino
            r = yield from fs.write(fs.context(), ino, 0, len(data1), data1)
            yield r.pending
            # Second write: crash right after its metadata commit.
            r2 = yield from fs.write(fs.context(), ino, 0, len(data1),
                                     b"2" * 65536)
            ino_box["crash_at"] = len(fs.image.mutations)
            yield r2.pending
        run_proc(node.engine, body())
        img = fs.image.replay(ino_box["crash_at"])
        inodes = recover(img, completion_buffer_validator(img)).inodes
        m = inodes[ino_box["ino"]]
        assert file_bytes(img, m, 0, m.size) == data1, \
            "recovery must fall back to the first write's data"
