"""Tests for the bandwidth-pool model and slow-memory device."""

import pytest

from repro.hw import memory as hw_memory
from repro.hw.memory import (
    CPU_GROUP,
    DELEGATION_GROUP,
    BandwidthPool,
    _waterfill,
)
from repro.sim import Engine
from tests.conftest import run_proc


class TestWaterfill:
    def test_equal_split_under_capacity(self):
        rates = _waterfill([1, 1], [10, 10], 4)
        assert rates == [2, 2]

    def test_caps_bind(self):
        rates = _waterfill([1, 1], [1, 10], 4)
        assert rates == [1, 3]

    def test_conservation(self):
        rates = _waterfill([1, 1, 1], [5, 5, 5], 9)
        assert sum(rates) == pytest.approx(9)

    def test_never_exceeds_caps(self):
        rates = _waterfill([1, 1, 1], [1, 2, 3], 100)
        assert rates == [1, 2, 3]

    def test_weighted_shares(self):
        rates = _waterfill([2, 1], [100, 100], 9)
        assert rates == [6, 3]

    def test_empty(self):
        assert _waterfill([], [], 5) == []

    def test_memo_cache_is_bounded_with_fifo_eviction(self, monkeypatch):
        cache = {}
        monkeypatch.setattr(hw_memory, "_WATERFILL_CACHE", cache)
        cap = hw_memory._WATERFILL_CACHE_MAX
        for i in range(cap + 50):
            _waterfill([1.0], [float(i + 1)], 1.0)
        assert len(cache) == cap
        # Oldest entries were evicted, newest are resident.
        assert ((1.0,), (float(cap + 50),), 1.0) in cache
        assert ((1.0,), (1.0,), 1.0) not in cache


class TestBandwidthPool:
    def test_single_flow_runs_at_cap(self, engine):
        pool = BandwidthPool(engine, "p", capacity=10.0)
        def body():
            yield pool.transfer(1000, cap=2.0)
        run_proc(engine, body())
        assert engine.now == 500  # 1000 B at 2 B/ns

    def test_two_flows_share_capacity(self, engine):
        pool = BandwidthPool(engine, "p", capacity=2.0)
        done = []
        def flow(i):
            yield pool.transfer(1000, cap=10.0, tag=i)
            done.append(engine.now)
        engine.process(flow(0))
        engine.process(flow(1))
        engine.run()
        # Both share 2 B/ns -> 1 B/ns each -> finish at 1000.
        assert done == [1000, 1000]

    def test_late_flow_slows_early_flow(self, engine):
        pool = BandwidthPool(engine, "p", capacity=2.0)
        done = {}
        def early():
            yield pool.transfer(1000, cap=2.0, tag="e")
            done["early"] = engine.now
        def late():
            yield engine.timeout(250)
            yield pool.transfer(500, cap=2.0, tag="l")
            done["late"] = engine.now
        engine.process(early())
        engine.process(late())
        engine.run()
        # early runs alone for 250ns (500B), then shares 1 B/ns for the
        # remaining 500B -> done at 750.
        assert done["early"] == 750
        # late: 500B at 1 B/ns alongside early -> done at 750 too.
        assert done["late"] == 750

    def test_zero_byte_transfer_completes_immediately(self, engine):
        pool = BandwidthPool(engine, "p", 1.0)
        ev = pool.transfer(0, cap=1.0)
        assert ev.triggered

    def test_negative_size_rejected(self, engine):
        pool = BandwidthPool(engine, "p", 1.0)
        with pytest.raises(ValueError):
            pool.transfer(-1, cap=1.0)

    def test_group_cap_enforced(self, engine):
        pool = BandwidthPool(engine, "p", capacity=10.0,
                             group_cap_fn=lambda counts: {"slow": 1.0})
        done = {}
        def flow(group, tag):
            yield pool.transfer(1000, cap=10.0, group=group, tag=tag)
            done[tag] = engine.now
        engine.process(flow("slow", "s"))
        engine.process(flow("fast", "f"))
        engine.run()
        assert done["s"] == 1000      # capped at 1 B/ns
        assert done["f"] == pytest.approx(112, abs=10)  # gets ~9 B/ns

    def test_statistics(self, engine):
        pool = BandwidthPool(engine, "p", 1.0)
        def body():
            yield pool.transfer(100, cap=1.0)
            yield pool.transfer(200, cap=1.0)
        run_proc(engine, body())
        assert pool.bytes_moved == 300
        assert pool.transfers_completed == 2
        assert pool.active_flows == 0

    def test_conservation_under_churn(self, engine):
        """Aggregate bytes moved never exceed capacity * time."""
        pool = BandwidthPool(engine, "p", capacity=3.0)
        def flow(delay, size):
            yield engine.timeout(delay)
            yield pool.transfer(size, cap=2.0)
        for i in range(10):
            engine.process(flow(i * 37, 500 + 77 * i))
        engine.run()
        total = sum(500 + 77 * i for i in range(10))
        assert pool.bytes_moved == total
        assert total <= 3.0 * engine.now + 1e-6


class TestRebalance:
    @staticmethod
    def _staggered(tags):
        """Two overlapping flows; returns (pool, [(tag index, done_at)])."""
        engine = Engine()
        pool = BandwidthPool(engine, "p", capacity=2.0)
        done = []

        def flow(i, delay, size):
            yield engine.timeout(delay)
            yield pool.transfer(size, cap=1.5, tag=tags[i])
            done.append((i, engine.now))
        engine.process(flow(0, 0, 1000))
        engine.process(flow(1, 250, 500))
        engine.run()
        return pool, done

    def test_unhashable_tag_takes_the_uncached_path(self):
        hashed_pool, hashed = self._staggered(("a", "b"))
        listed_pool, listed = self._staggered((["a"], ["b"]))
        assert listed == hashed
        assert hashed_pool._alloc_cache
        assert not listed_pool._alloc_cache

    @pytest.mark.parametrize("tag", ["t", ["t"]])
    def test_zero_rate_flow_set_raises_stall(self, engine, tag):
        pool = BandwidthPool(engine, "p", capacity=5.0,
                             group_cap_fn=lambda counts: {"dead": 0.0})
        with pytest.raises(RuntimeError, match="stalled"):
            pool.transfer(100, cap=1.0, group="dead", tag=tag)

    def test_superseded_timer_never_advances_pool(self, engine):
        pool = BandwidthPool(engine, "p", capacity=2.0)
        done = {}

        def flow(tag):
            yield pool.transfer(1000, cap=2.0, tag=tag)
            done[tag] = engine.now

        def body():
            engine.process(flow("a"))
            yield engine.timeout(1)
            stale = pool._wakeup
            yield engine.timeout(99)
            engine.process(flow("b"))
            yield engine.timeout(50)
            assert stale is not pool._wakeup and stale.cancelled
            current = pool._wakeup
            remaining = [f.remaining for f in pool._flows]
            pool._on_timer(stale)        # a late delivery of the old timer
            assert pool._last_update == 100
            assert pool._wakeup is current
            assert [f.remaining for f in pool._flows] == remaining
        run_proc(engine, body())
        # a: 200 B alone at 2 B/ns, then 800 B at 1 B/ns -> 900.
        # b: 800 B at 1 B/ns alongside a, then 200 B at 2 B/ns -> 1000.
        assert done == {"a": 900, "b": 1000}


class TestSlowMemory:
    def test_cpu_copy_write_duration(self, node):
        model = node.model
        t = run_copy(node, 65536, write=True)
        # A single writer is limited by both its core rate and the
        # single-writer device capacity (the ramp term).
        rate = min(model.cpu_copy_write_rate,
                   model.cpu_write_capacity(node.config.total_dimms, 1))
        expected = (model.cpu_copy_op_overhead + model.pm_write_latency
                    + 65536 / rate)
        assert t == pytest.approx(expected, rel=0.01)

    def test_cpu_copy_read_duration(self, node):
        model = node.model
        t = run_copy(node, 65536, write=False)
        expected = (model.cpu_copy_op_overhead + model.pm_read_latency
                    + 65536 / model.cpu_copy_read_rate)
        assert t == pytest.approx(expected, rel=0.01)

    def test_write_collapse_with_many_writers(self, node):
        """16 concurrent writers achieve less aggregate bandwidth than 6."""
        def agg_bw(writers):
            from repro.hw.platform import Platform, PlatformConfig
            plat = Platform(PlatformConfig.single_node())
            done = []
            def w(i):
                yield from plat.memory.cpu_copy(1 << 20, write=True, tag=i)
                done.append(plat.engine.now)
            for i in range(writers):
                plat.engine.process(w(i))
            plat.engine.run()
            return writers * (1 << 20) / max(done)
        assert agg_bw(16) < agg_bw(6)

    def test_dma_read_class_capped_below_device_peak(self, node):
        model = node.model
        ceiling = model.dma_read_ceiling(node.config.total_dimms)
        assert ceiling < model.pm_read_peak(node.config.total_dimms) * 0.5

    def test_delegation_group_avoids_collapse(self, node):
        """Delegated writes are not subject to the CPU-writer collapse."""
        caps = node.memory._write_group_caps(
            {CPU_GROUP: 16, DELEGATION_GROUP: 16})
        peak = node.model.pm_write_peak(node.config.total_dimms)
        assert caps[CPU_GROUP] < peak
        assert DELEGATION_GROUP not in caps  # uncapped = device limit

    def test_dma_write_ceiling_declines_with_channels(self, node):
        model = node.model
        dimms = node.config.total_dimms
        values = [model.dma_write_ceiling(dimms, ch) for ch in (1, 2, 4, 8)]
        assert values == sorted(values, reverse=True)

    def test_byte_counters(self, node):
        run_copy(node, 4096, write=True)
        assert node.memory.write_pool.bytes_moved == 4096
        assert node.memory.read_pool.bytes_moved == 0


def run_copy(platform, nbytes, write):
    t0 = platform.engine.now
    def body():
        yield from platform.memory.cpu_copy(nbytes, write=write)
    run_proc(platform.engine, body())
    return platform.engine.now - t0
