"""Property-based tests (hypothesis) for the core invariants DESIGN.md
calls out."""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import LatencySeries
from repro.core import EasyIoFS
from repro.crash.crashmonkey import snapshot_with_content
from repro.fs import NovaFS, PMImage
from repro.fs.recovery import completion_buffer_validator, recover
from repro.fs.structures import PAGE_SIZE
from repro.hw.dma import DmaDescriptor
from repro.hw.memory import BandwidthPool, _waterfill
from repro.hw.platform import Platform, PlatformConfig
from tests.conftest import run_proc

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestWaterfillProperties:
    @given(caps=st.lists(st.floats(0.1, 50), min_size=1, max_size=12),
           capacity=st.floats(0.1, 100))
    @settings(max_examples=200, deadline=None)
    def test_feasible_and_work_conserving(self, caps, capacity):
        rates = _waterfill([1.0] * len(caps), caps, capacity)
        # Feasibility: no flow exceeds its cap; total within capacity.
        for rate, cap in zip(rates, caps):
            assert rate <= cap + 1e-9
        assert sum(rates) <= capacity + 1e-9
        # Work conservation: either capacity or every cap is exhausted.
        assert (sum(rates) == pytest.approx(min(capacity, sum(caps)),
                                            rel=1e-6, abs=1e-6))

    @given(caps=st.lists(st.floats(0.5, 20), min_size=2, max_size=8),
           capacity=st.floats(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_max_min_fairness(self, caps, capacity):
        """No flow below the fair share unless capped below it."""
        rates = _waterfill([1.0] * len(caps), caps, capacity)
        floor = min(rates)
        for rate, cap in zip(rates, caps):
            if rate > floor + 1e-9:
                # A flow above the floor must be at its own cap... no:
                # in max-min, a flow above the minimum got spare
                # capacity others could not use; every flow below its
                # cap must share the same (maximal) rate.
                pass
        uncapped = [r for r, c in zip(rates, caps) if r < c - 1e-9]
        if uncapped:
            assert max(uncapped) - min(uncapped) < 1e-6


class TestPoolConservation:
    @given(sizes=st.lists(st.integers(100, 50_000), min_size=1, max_size=10),
           delays=st.lists(st.integers(0, 5_000), min_size=1, max_size=10))
    @SLOW
    def test_all_bytes_delivered_exactly_once(self, sizes, delays):
        from repro.sim import Engine
        engine = Engine()
        pool = BandwidthPool(engine, "p", capacity=3.0)
        delays = (delays * len(sizes))[:len(sizes)]
        def flow(delay, size):
            yield engine.timeout(delay)
            got = yield pool.transfer(size, cap=1.7)
            assert got == size
        for d, s in zip(delays, sizes):
            engine.process(flow(d, s))
        engine.run()
        assert pool.bytes_moved == sum(sizes)
        assert pool.active_flows == 0
        # Physical limit: bytes <= capacity * elapsed.
        assert sum(sizes) <= 3.0 * engine.now + 1e-6


class TestSnMonotonicity:
    @given(sizes=st.lists(st.integers(4096, 262144), min_size=1, max_size=20))
    @SLOW
    def test_completion_sn_strictly_increases(self, sizes):
        node = Platform(PlatformConfig.single_node())
        ch = node.dma.channel(0)
        observed = []
        ch.on_completion = lambda c: observed.append(c.completion_sn)
        def body():
            for size in sizes:
                d = DmaDescriptor(size, write=True)
                yield from ch.submit([d])
                yield d.done
        run_proc(node.engine, body())
        assert observed == sorted(set(observed))
        assert observed[-1] == len(sizes)


class TestFileIntegrity:
    @given(ops=st.lists(
        st.tuples(st.integers(0, 40),          # page offset
                  st.integers(1, 6),           # pages
                  st.integers(0, 255)),        # fill byte
        min_size=1, max_size=12))
    @SLOW
    def test_readback_matches_model_nova(self, ops):
        self._run_integrity(ops, easyio=False)

    @given(ops=st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 6),
                  st.integers(0, 255)),
        min_size=1, max_size=12))
    @SLOW
    def test_readback_matches_model_easyio(self, ops):
        self._run_integrity(ops, easyio=True)

    @staticmethod
    def _run_integrity(ops, easyio):
        node = Platform(PlatformConfig.single_node())
        fs = (EasyIoFS(node) if easyio else NovaFS(node)).mount()
        model = bytearray()
        def body():
            ino = yield from fs.create(fs.context(), "/f")
            for pgoff, pages, fill in ops:
                data = bytes([fill]) * (pages * PAGE_SIZE)
                offset = pgoff * PAGE_SIZE
                result = yield from fs.write(fs.context(), ino, offset,
                                             len(data), data)
                if result.is_async:
                    yield result.pending
                if offset + len(data) > len(model):
                    model.extend(bytes(offset + len(data) - len(model)))
                model[offset:offset + len(data)] = data
            result = yield from fs.read(fs.context(), ino, 0, len(model),
                                        want_data=True)
            if result.is_async:
                yield result.pending
            return result.value
        got = run_proc(node.engine, body())
        assert got == bytes(model)


class TestRecoveryPrefixLegality:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_crash_points_recover_to_legal_states(self, seed):
        import random
        rng = random.Random(seed)
        node = Platform(PlatformConfig.single_node())
        fs = EasyIoFS(node, PMImage(record=True)).mount()
        snapshots = [snapshot_with_content(fs._mem, fs.image)]
        bounds = [(0, 0)]
        def body():
            inos = []
            for i in range(6):
                start = len(fs.image.mutations)
                kind = rng.choice(["create", "write", "write"])
                if kind == "create" or not inos:
                    ino = yield from fs.create(fs.context(), f"/f{i}")
                    inos.append(ino)
                else:
                    ino = rng.choice(inos)
                    size = rng.choice([4096, 16384, 65536])
                    r = yield from fs.write(fs.context(), ino, 0, size,
                                            bytes([i]) * size)
                    if r.is_async:
                        yield r.pending
                bounds.append((start, len(fs.image.mutations)))
                snapshots.append(snapshot_with_content(fs._mem, fs.image))
        run_proc(node.engine, body())
        total = fs.image.crash_points()
        for _ in range(12):
            k = rng.randint(0, total)
            img = fs.image.replay(k)
            rec = recover(img, completion_buffer_validator(img))
            snap = snapshot_with_content(rec.inodes, img)
            durable = sum(1 for (s, e) in bounds[1:] if e <= k)
            started = sum(1 for (s, e) in bounds[1:] if s <= k)
            legal = [snapshots[i] for i in range(durable, started + 1)]
            assert any(snap == c for c in legal), \
                f"crash at {k}: state matches none of ops [{durable},{started}]"


class TestLatencySeriesProperties:
    @given(values=st.lists(st.integers(0, 10**9), min_size=1, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_percentiles_are_monotone_and_bounded(self, values):
        s = LatencySeries()
        for v in values:
            s.record(v)
        p50, p90, p99 = s.p50(), s.percentile(90), s.p99()
        assert min(values) <= p50 <= p90 <= p99 <= max(values)
        assert min(values) <= s.mean() <= max(values)


class TestDeterminismProperty:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_seed_same_trace(self, seed):
        from repro.workloads.apps import run_webserver_gc
        r1 = run_webserver_gc("none", duration_us=1500, seed=seed)
        r2 = run_webserver_gc("none", duration_us=1500, seed=seed)
        assert r1.timeline.points == r2.timeline.points
