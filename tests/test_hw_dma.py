"""Tests for the I/OAT-style DMA engine model."""

import pytest

from repro.hw.dma import DmaDescriptor
from tests.conftest import run_proc


class TestDescriptor:
    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            DmaDescriptor(0, write=True)

    def test_sn_assigned_at_submit(self, node):
        ch = node.dma.channel(0)
        def body():
            d1 = DmaDescriptor(4096, write=True)
            d2 = DmaDescriptor(4096, write=True)
            yield from ch.submit([d1, d2])
            return (d1.sn, d2.sn)
        assert run_proc(node.engine, body()) == (1, 2)

    def test_batch_size_limit(self, node):
        ch = node.dma.channel(0)
        too_many = [DmaDescriptor(4096, write=True)
                    for _ in range(node.model.dma_batch_max + 1)]
        def body():
            yield from ch.submit(too_many)
        with pytest.raises(ValueError):
            run_proc(node.engine, body())


class TestCompletion:
    def test_completion_buffer_advances(self, node):
        ch = node.dma.channel(0)
        def body():
            d = DmaDescriptor(16384, write=True)
            yield from ch.submit([d])
            yield d.done
        run_proc(node.engine, body())
        assert ch.completion_sn == 1
        assert ch.completion_addr == 1
        assert ch.completion_cnt == 0
        assert ch.queue_depth == 0

    def test_completion_addr_wraps_but_sn_is_monotonic(self, node):
        """The 64-bit completion value wraps around the ring; the
        CNT-extended SN never does (§4.2's core invariant)."""
        ch = node.dma.channel(0)
        ring = node.model.dma_ring_size
        count = ring + 5
        def body():
            sns = []
            for _ in range(count):
                d = DmaDescriptor(4096, write=True)
                yield from ch.submit([d])
                yield d.done
                sns.append(ch.completion_sn)
            return sns
        sns = run_proc(node.engine, body())
        assert sns == sorted(sns)
        assert sns[-1] == count
        assert ch.completion_addr == count % ring
        assert ch.completion_cnt == 1

    def test_completion_event_waits_for_sn(self, node):
        ch = node.dma.channel(0)
        def body():
            d1 = DmaDescriptor(65536, write=True)
            d2 = DmaDescriptor(65536, write=True)
            yield from ch.submit([d1, d2])
            yield ch.completion_event(2)
            return ch.completion_sn
        assert run_proc(node.engine, body()) == 2

    def test_completion_event_for_past_sn_fires_immediately(self, node):
        ch = node.dma.channel(0)
        ev = ch.completion_event(0)
        assert ev.triggered

    def test_is_complete_polling(self, node):
        ch = node.dma.channel(0)
        assert ch.is_complete(0)
        assert not ch.is_complete(1)

    def test_on_complete_runs_before_completion_buffer_update(self, node):
        """The DMA writes its payload, then claims completion -- the
        ordering EasyIO's recovery rule depends on."""
        ch = node.dma.channel(0)
        order = []
        def body():
            d = DmaDescriptor(4096, write=True)
            d.on_complete = lambda _d: order.append(("data", ch.completion_sn))
            ch.on_completion = lambda c: order.append(("buffer", c.completion_sn))
            yield from ch.submit([d])
            yield d.done
        run_proc(node.engine, body())
        assert order == [("data", 0), ("buffer", 1)]

    def test_fifo_service_order(self, node):
        ch = node.dma.channel(0)
        finished = []
        def body():
            descs = [DmaDescriptor(4096, write=True) for _ in range(4)]
            yield from ch.submit(descs)
            for i, d in enumerate(descs):
                d.done.add_callback(lambda _ev, i=i: finished.append(i))
            yield node.engine.all_of([d.done for d in descs])
        run_proc(node.engine, body())
        assert finished == [0, 1, 2, 3]


class TestSuspendResume:
    def test_suspended_channel_stops_fetching(self, node):
        ch = node.dma.channel(0)
        engine = node.engine
        def body():
            ch.suspend()
            d = DmaDescriptor(4096, write=True)
            yield from ch.submit([d])
            yield engine.timeout(100_000)
            assert not d.done.triggered, "suspended channel served a descriptor"
            ch.resume()
            yield d.done
        run_proc(engine, body())
        assert ch.completion_sn == 1

    def test_in_flight_descriptor_runs_to_completion(self, node):
        ch = node.dma.channel(0)
        engine = node.engine
        def body():
            d = DmaDescriptor(1 << 20, write=True)
            yield from ch.submit([d])
            yield engine.timeout(5000)   # descriptor is mid-transfer
            ch.suspend()
            yield d.done                 # still completes
            return ch.completion_sn
        assert run_proc(engine, body()) == 1

    def test_suspend_mid_transfer_holds_queued_descriptors(self, node):
        """The in-flight descriptor runs to completion; everything
        still in the ring waits for the resume."""
        ch = node.dma.channel(0)
        engine = node.engine
        def body():
            first = DmaDescriptor(1 << 20, write=True)
            rest = [DmaDescriptor(4096, write=True) for _ in range(3)]
            yield from ch.submit([first] + rest)
            yield engine.timeout(5000)     # first is mid-transfer
            ch.suspend()
            yield first.done
            assert ch.completion_sn == 1
            yield engine.timeout(200_000)
            assert not any(d.done.triggered for d in rest), \
                "suspended channel fetched new descriptors"
            ch.resume()
            for d in rest:
                yield d.done
        run_proc(engine, body())
        assert ch.completion_sn == 4

    def test_suspend_resume_across_ring_wraparound(self, node):
        """Suspending with descriptors spanning the ring wraparound
        must not lose or reorder them, and CNT must bump exactly once."""
        ch = node.dma.channel(0)
        ring = node.model.dma_ring_size
        engine = node.engine
        def body():
            for _ in range(ring - 2):
                d = DmaDescriptor(4096, write=True)
                yield from ch.submit([d])
                yield d.done
            ch.suspend()
            descs = [DmaDescriptor(4096, write=True) for _ in range(4)]
            yield from ch.submit(descs)
            yield engine.timeout(200_000)
            assert not any(d.done.triggered for d in descs)
            ch.resume()
            for d in descs:
                yield d.done
            return [d.sn for d in descs]
        sns = run_proc(engine, body())
        assert sns == [ring - 1, ring, ring + 1, ring + 2]
        assert ch.completion_cnt == 1
        assert ch.completion_addr == 2

    def test_completion_event_ordering_across_wraparound(self, node):
        """completion_event waiters fire in SN order even when their
        target SNs span a wraparound and were registered out of order
        (the CNT-extended SN is what orders them, not the raw ADDR)."""
        ch = node.dma.channel(0)
        ring = node.model.dma_ring_size
        fired = []
        def body():
            for sn in (ring - 1, ring + 3, ring + 1):
                ev = ch.completion_event(sn)
                ev.add_callback(lambda e, sn=sn: fired.append(sn))
            for _ in range(ring + 3):
                d = DmaDescriptor(4096, write=True)
                yield from ch.submit([d])
                yield d.done
        run_proc(node.engine, body())
        assert fired == [ring - 1, ring + 1, ring + 3]

    def test_suspended_property(self, node):
        ch = node.dma.channel(0)
        assert not ch.suspended
        ch.suspend()
        assert ch.suspended
        ch.resume()
        assert not ch.suspended


class TestBatching:
    def test_batched_descriptors_amortise_overhead(self, node):
        """A 4-descriptor batch finishes sooner than 4 isolated ones."""
        engine = node.engine

        def timed(batched):
            from repro.hw.platform import Platform, PlatformConfig
            plat = Platform(PlatformConfig.single_node())
            ch = plat.dma.channel(0)
            def body():
                if batched:
                    descs = [DmaDescriptor(4096, write=True) for _ in range(4)]
                    yield from ch.submit(descs)
                    for d in descs:
                        yield d.done
                else:
                    for _ in range(4):
                        d = DmaDescriptor(4096, write=True)
                        yield from ch.submit([d])
                        yield d.done
            t0 = plat.engine.now
            run_proc(plat.engine, body())
            return plat.engine.now - t0

        assert timed(batched=True) < timed(batched=False)


class TestEngineCapacity:
    def test_share_splits_across_serving_channels(self, node):
        eng = node.dma
        assert eng.serving_channels == 0
        s1 = eng.claim_share()
        s2 = eng.claim_share()
        assert s1 == pytest.approx(eng.capacity)
        assert s2 == pytest.approx(eng.capacity / 2)
        eng.release_share()
        eng.release_share()
        assert eng.serving_channels == 0

    def test_concurrent_channels_interfere(self, node):
        """Two channels moving bulk data slow each other down
        (the Fig 4 starvation mechanism)."""
        engine = node.engine
        done = {}
        def mover(chan_id):
            ch = node.dma.channel(chan_id)
            d = DmaDescriptor(1 << 20, write=False)
            yield from ch.submit([d])
            yield d.done
            done[chan_id] = engine.now
        engine.process(mover(0))
        engine.process(mover(1))
        engine.run()
        solo = (1 << 20) / min(node.model.dma_channel_read_rate,
                               node.dma.capacity)
        assert min(done.values()) > solo * 1.15

    def test_least_loaded_selection(self, node):
        def body():
            ch0 = node.dma.channel(0)
            descs = [DmaDescriptor(1 << 20, write=True) for _ in range(3)]
            yield from ch0.submit(descs)
            pick = node.dma.least_loaded()
            assert pick.channel_id != 0
            pick_restricted = node.dma.least_loaded(candidates=[0])
            assert pick_restricted.channel_id == 0
        run_proc(node.engine, body())
