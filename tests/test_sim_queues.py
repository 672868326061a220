"""Edge cases for the engine's bucketed timestamp schedule.

The engine's firing-order contract is ``(when, schedule-order)``.
These tests drive the corners of the schedule representation: same-
timestamp FIFO runs, cancel-heavy compaction and its dead-entry
accounting, timers many milliseconds out, and zero-delay
self-rescheduling.  A seeded random-schedule cross-check compares the
whole firing order against a small packed-key binary-heap reference.
"""

import heapq
import itertools
import random

import pytest

from repro.sim import Engine
from repro.sim.engine import COMPACT_MIN_DEAD

#: About 1 ms: the far-future cases below schedule timers several of
#: these out, far past the sub-microsecond delays of the hot paths.
HORIZON = 1 << 20


@pytest.fixture
def engine():
    return Engine()


def run_proc(engine, gen):
    proc = engine.process(gen)
    engine.run()
    return proc


class TestSameTimestampFifo:
    def test_same_when_fires_in_schedule_order(self, engine):
        fired = []
        def waiter(i, delay):
            yield engine.timeout(delay)
            fired.append(i)
        # Interleave two target timestamps; within each, schedule order
        # must be preserved exactly.
        for i in range(40):
            engine.process(waiter(i, 100 if i % 2 else 200))
        engine.run()
        odds = [i for i in fired[:20]]
        evens = [i for i in fired[20:]]
        assert odds == [i for i in range(40) if i % 2]
        assert evens == [i for i in range(40) if not i % 2]

    def test_events_scheduled_while_firing_join_same_instant(self, engine):
        order = []
        def first():
            yield engine.timeout(50)
            order.append("first")
            engine.process(second())
        def second():
            order.append("spawned")
            yield engine.timeout(0)
            order.append("second")
        engine.process(first())
        engine.run()
        assert order == ["first", "spawned", "second"]
        assert engine.now == 50


class TestCancelHeavyCompaction:
    def test_lazy_compaction_bounds_queue_size(self, engine):
        def body():
            for _ in range(2000):
                engine.timeout(10_000_000).cancel()
                yield engine.sleep(1)
        run_proc(engine, body())
        assert engine.stats.events_cancelled == 2000
        assert engine.stats.heap_compactions > 0
        assert engine.heap_size < 200

    def test_compaction_preserves_survivor_order(self, engine):
        fired = []
        def body():
            doomed = [engine.timeout(5_000 + i) for i in range(300)]
            survivors = [engine.timeout(1_000 + i) for i in range(5)]
            for t in doomed:
                t.cancel()
            for i, t in enumerate(survivors):
                t.add_callback(lambda _ev, i=i: fired.append(i))
            yield engine.timeout(2_000)
        run_proc(engine, body())
        assert fired == [0, 1, 2, 3, 4]

    def test_far_future_cancellations_compact_too(self, engine):
        def body():
            for i in range(2000):
                engine.timeout(10 * HORIZON + i).cancel()
                yield engine.sleep(1)
        run_proc(engine, body())
        assert engine.heap_size < 200

    def test_drained_cancel_heavy_run_leaves_no_dead_entries(self, engine):
        # 100 cancels compact once (at COMPACT_MIN_DEAD + 1) and leave
        # the rest for the run loop to drop; a contract-violating
        # cancel of a pooled sleep is dropped the same way.
        for t in [engine.timeout(10 + i) for i in range(100)]:
            t.cancel()
        engine.sleep(5).cancel()
        engine.run()
        assert engine.heap_size == 0
        assert engine._dead == 0

    def test_dropped_entries_do_not_trigger_later_compaction(self, engine):
        # Rounds below the compaction threshold, each drained by run():
        # the dropped entries must leave the dead count, or one later
        # cancel on a small live queue would compact it for nothing.
        rounds = COMPACT_MIN_DEAD // 10 + 1
        for _ in range(rounds):
            for t in [engine.timeout(10) for _ in range(10)]:
                t.cancel()
            engine.run()
        assert engine.stats.heap_compactions == 0
        live = [engine.timeout(100 + i) for i in range(10)]
        live[0].cancel()
        assert engine.stats.heap_compactions == 0
        engine.run()
        assert engine._dead == 0


class TestFarFutureTimers:
    """Timers many horizons out fire exactly and in order."""

    def test_far_future_timer_fires_exactly(self, engine):
        fired = []
        def body():
            yield engine.timeout(3 * HORIZON + 17)
            fired.append(engine.now)
        run_proc(engine, body())
        assert fired == [3 * HORIZON + 17]

    def test_far_timers_scheduled_out_of_order_fire_in_order(self, engine):
        fired = []
        whens = [5 * HORIZON + 1, HORIZON + 3,
                 9 * HORIZON, 2 * HORIZON - 1, 40]
        def waiter(when):
            yield engine.timeout(when)
            fired.append(when)
        for w in whens:
            engine.process(waiter(w))
        engine.run()
        assert fired == sorted(whens)

    def test_push_after_clock_passes_horizon(self, engine):
        # After the clock has advanced past the first horizon, newly
        # scheduled near events still fire at their exact instant.
        fired = []
        def body():
            yield engine.timeout(HORIZON + 10)
            yield engine.timeout(5)  # short timer past HORIZON
            fired.append(engine.now)
        run_proc(engine, body())
        assert fired == [HORIZON + 15]

    def test_same_when_fifo_far_out(self, engine):
        fired = []
        when = 2 * HORIZON + 500
        def waiter(i):
            yield engine.timeout(when)
            fired.append(i)
        for i in range(10):
            engine.process(waiter(i))
        engine.run()
        assert fired == list(range(10))


class TestZeroDelaySelfReschedule:
    def test_zero_delay_chain_stays_at_one_instant(self, engine):
        hops = []
        def body():
            yield engine.timeout(30)
            for i in range(50):
                hops.append(engine.now)
                yield engine.sleep(0)
        run_proc(engine, body())
        assert hops == [30] * 50
        assert engine.now == 30

    def test_zero_delay_interleaves_fairly(self, engine):
        order = []
        def looper(name):
            for _ in range(3):
                order.append(name)
                yield engine.sleep(0)
        engine.process(looper("a"))
        engine.process(looper("b"))
        engine.run()
        assert order == ["a", "b"] * 3


# ---------------------------------------------------------------------------
# Seeded random schedules against a packed-heap reference
# ---------------------------------------------------------------------------
class HeapReference:
    """Firing-order oracle: a binary heap of ``(when << 40) | seq`` keys.

    One int comparison orders two entries by ``(when, schedule-order)``,
    the engine's contract, with none of the engine's buckets.
    """

    SHIFT = 40

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = itertools.count(1)
        self._cancelled = set()

    def schedule(self, kind, delay, fn):
        seq = next(self._seq)
        key = ((self.now + delay) << self.SHIFT) | seq
        heapq.heappush(self._heap, (key, fn))
        return seq

    def cancel(self, handle):
        self._cancelled.add(handle)

    def run(self):
        mask = (1 << self.SHIFT) - 1
        while self._heap:
            key, fn = heapq.heappop(self._heap)
            if key & mask in self._cancelled:
                continue
            self.now = key >> self.SHIFT
            fn()


class EngineScheduler:
    """The same scheduling API on a real engine: cancellable timeouts,
    pooled sleeps, and events triggered at the current instant."""

    def __init__(self):
        self.engine = Engine()

    @property
    def now(self):
        return self.engine.now

    def schedule(self, kind, delay, fn):
        engine = self.engine
        if kind == "timeout":
            ev = engine.timeout(delay)
        elif kind == "sleep":
            ev = engine.sleep(delay)
        else:
            ev = engine.event().succeed()
        ev.add_callback(lambda _ev: fn())
        return ev

    def cancel(self, handle):
        handle.cancel()

    def run(self):
        self.engine.run()


DELAYS = (0, 1, 7, 100, 100, 2048, HORIZON - 1, HORIZON + 13,
          3 * HORIZON, 7 * HORIZON + 5)


def random_schedule(sched, seed):
    """Drive ``sched`` through a seeded schedule; returns the firing
    trace.  Firing callbacks arm more timers and cancel pending ones,
    so any divergence in firing order also diverges the RNG stream."""
    rng = random.Random(seed)
    fired = []
    pending = {}  # timer id -> handle, for armed cancellable timers
    ids = itertools.count()

    def cancel_one():
        victim = rng.choice(sorted(pending))
        sched.cancel(pending.pop(victim))

    def arm(depth):
        tid = next(ids)
        kind = rng.choice(("timeout", "timeout", "sleep", "now"))
        delay = 0 if kind == "now" else rng.choice(DELAYS)

        def fire():
            pending.pop(tid, None)
            fired.append((tid, sched.now))
            if depth < 3:
                for _ in range(rng.randrange(3)):
                    arm(depth + 1)
            if pending and rng.random() < 0.4:
                cancel_one()

        handle = sched.schedule(kind, delay, fire)
        if kind == "timeout":
            pending[tid] = handle

    for _ in range(300):
        arm(0)
        if pending and rng.random() < 0.3:
            cancel_one()
    sched.run()
    return fired


class TestHeapReferenceEquivalence:
    @pytest.mark.parametrize("seed", [1234, 7, 2024])
    def test_random_schedules_fire_identically(self, seed):
        sched = EngineScheduler()
        fired = random_schedule(sched, seed)
        assert fired == random_schedule(HeapReference(), seed)
        assert len(fired) > 300
        stats = sched.engine.stats
        assert stats.events_cancelled > 0 and stats.heap_compactions > 0
        assert sched.engine.heap_size == 0
