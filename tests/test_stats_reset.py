"""Stats must reset cleanly between runs (no cross-run leakage).

Long-lived engines and filesystems get reused across measurement runs
(the sweep harness, notebooks, REPL sessions); counters carried over
from a previous run silently inflate the next one's numbers.  Every
stats object therefore has a ``reset()``, and these tests pin both the
reset and the no-leak property for back-to-back runs.
"""

import pytest

from repro.analysis.metrics import FaultStats, OverloadStats
from repro.hw import memory as hw_memory
from repro.hw.params import CostModel
from repro.hw.platform import Platform, PlatformConfig
from repro.net import NetStats
from repro.sim import Engine
from repro.workloads.factory import FS_KINDS, make_fs
from tests.conftest import run_proc


class TestEngineStats:
    def _tick(self, engine, n=5):
        def body():
            for _ in range(n):
                yield engine.sleep(10)
        run_proc(engine, body())

    def test_reset_zeroes_every_counter(self):
        engine = Engine()
        self._tick(engine)
        ev = engine.sleep(1000)
        ev.cancel()
        assert engine.stats.events_fired > 0
        engine.reset_stats()
        assert all(v == 0 for v in engine.stats.as_dict().values())

    def test_engine_still_usable_after_reset(self):
        engine = Engine()
        self._tick(engine)
        engine.reset_stats()
        self._tick(engine)
        assert engine.stats.events_fired > 0

    def test_second_run_counts_only_its_own_events(self):
        """The leakage regression: two identical runs, counted apart,
        must report identical event counts."""
        engine = Engine()
        self._tick(engine, n=7)
        first = engine.stats.events_fired
        engine.reset_stats()
        self._tick(engine, n=7)
        assert engine.stats.events_fired == first


class TestSharedStatsReset:
    @pytest.mark.parametrize("cls", [FaultStats, OverloadStats, NetStats])
    def test_reset_zeroes_every_field(self, cls):
        stats = cls()
        for name in stats.as_dict():
            setattr(stats, name, 3)
        stats.reset()
        assert all(v == 0 for v in stats.as_dict().values())

    @pytest.mark.parametrize("cls,flag,field", [
        (FaultStats, "any_faults", "transfer_errors"),
        (OverloadStats, "any_overload", "rejected"),
    ])
    def test_reset_clears_the_summary_flag(self, cls, flag, field):
        stats = cls()
        setattr(stats, field, 1)
        assert getattr(stats, flag)
        stats.reset()
        assert not getattr(stats, flag)


class TestWaterfillCacheReset:
    def _exercise(self, mem):
        def body():
            yield from mem.cpu_copy(65536, write=True)
            yield mem.dma_transfer(65536, write=True, channel_rate=8.0,
                                   tag=0)
        run_proc(mem.engine, body())

    def test_reset_stats_clears_counters_and_caches(self):
        engine = Engine()
        mem = hw_memory.SlowMemory(engine, CostModel(), dimms=6)
        self._exercise(mem)
        assert mem.bytes_written() > 0
        assert hw_memory._WATERFILL_CACHE
        mem.reset_stats()
        assert mem.bytes_read() == 0 and mem.bytes_written() == 0
        assert mem.write_pool.transfers_completed == 0
        assert not hw_memory._WATERFILL_CACHE
        assert not mem.write_pool._alloc_cache
        # Still usable: a second run repopulates from scratch.
        self._exercise(mem)
        assert mem.bytes_written() > 0

    def test_memo_cache_is_bounded_with_fifo_eviction(self):
        hw_memory.clear_waterfill_cache()
        cap = hw_memory._WATERFILL_CACHE_MAX
        try:
            for i in range(cap + 50):
                hw_memory._waterfill([1.0], [float(i + 1)], 1.0)
            assert len(hw_memory._WATERFILL_CACHE) == cap
            # Oldest entries were evicted, newest are resident.
            assert ((1.0,), (float(cap + 50),), 1.0) \
                in hw_memory._WATERFILL_CACHE
            assert ((1.0,), (1.0,), 1.0) not in hw_memory._WATERFILL_CACHE
        finally:
            hw_memory.clear_waterfill_cache()


def _settle(fs, result):
    if result.is_async:
        yield result.pending
    continuation = getattr(result, "continuation", None)
    if continuation is not None:
        yield from continuation(fs.context())


def _one_write(fs, ino, offset=0):
    def body():
        result = yield from fs.write(fs.context(), ino, offset, 16384,
                                     bytes(16384))
        yield from _settle(fs, result)
    run_proc(fs.engine, body())


class TestOpCounterReset:
    @pytest.mark.parametrize("kind", FS_KINDS)
    def test_reset_op_counters_zeroes_variant_counters(self, kind):
        platform = Platform(PlatformConfig.single_node())
        fs = make_fs(kind, platform)
        # Every variant declares every counter, whether or not its
        # data path bumps it.
        assert {name: getattr(fs, name) for name in fs.OP_COUNTER_NAMES} \
            == dict.fromkeys(fs.OP_COUNTER_NAMES, 0)
        ino = run_proc(fs.engine, fs.create(fs.context(), "/r"))
        _one_write(fs, ino)
        assert fs.ops_completed > 0
        if kind in ("nova-dma", "easyio", "naive"):
            # These variants carry per-backend counters; the memcpy and
            # delegation paths (nova, odinfs) count only ops_completed.
            touched = [name for name in fs.OP_COUNTER_NAMES
                       if getattr(fs, name, 0)]
            assert touched, f"{kind}: the write bumped no op counter"
        fs.reset_op_counters()
        assert fs.ops_completed == 0
        for name in fs.OP_COUNTER_NAMES:
            assert getattr(fs, name) == 0

    def test_back_to_back_runs_count_identically(self):
        """An easyio filesystem reused for a second measurement run must
        report the same counters as the first (no carry-over)."""
        platform = Platform(PlatformConfig.single_node())
        fs = make_fs("easyio", platform)
        ino = run_proc(fs.engine, fs.create(fs.context(), "/rr"))
        fs.reset_op_counters()  # don't count the setup create

        def run_once():
            for i in range(3):
                _one_write(fs, ino, offset=i * 16384)
            return (fs.ops_completed,
                    tuple(getattr(fs, n, 0) for n in fs.OP_COUNTER_NAMES))

        first = run_once()
        fs.reset_op_counters()
        fs.engine.reset_stats()
        second = run_once()
        assert second == first


class TestCoverageMapReset:
    """The fuzzer's coverage collector is the one stateful object a
    campaign carries; a leaked map would let run A's coverage mask
    run B's novelty and silently starve its corpus scheduler."""

    def _observe_some(self, m):
        from repro.fuzz import run_scenario, seed_corpus
        m.observe(run_scenario(seed_corpus()[0]).coverage)

    def test_reset_restores_construction_state(self):
        from repro.fuzz import CoverageMap
        m = CoverageMap()
        self._observe_some(m)
        assert len(m) > 0 and m.observed_runs == 1
        m.reset()
        assert len(m) == 0
        assert m.observed_runs == 0
        assert m.as_dict() == {}
        assert m.signature() == CoverageMap().signature()

    def test_back_to_back_campaign_use_counts_identically(self):
        """The cross-contamination regression: after a reset, the same
        run must be fully novel again (not masked by the previous
        campaign's keys)."""
        from repro.fuzz import CoverageMap, run_scenario, seed_corpus
        keys = run_scenario(seed_corpus()[0]).coverage
        m = CoverageMap()
        first_novel = m.observe(keys)
        assert m.observe(keys) == 0  # fully masked within one campaign
        m.reset()
        assert m.observe(keys) == first_novel
