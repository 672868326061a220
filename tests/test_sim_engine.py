"""Unit tests for the discrete-event simulation kernel."""

import random
from dataclasses import asdict

import pytest

from repro.sim import Engine, Interrupt, SimulationError
from tests.conftest import run_proc


class TestEngineBasics:
    def test_clock_starts_at_zero(self, engine):
        assert engine.now == 0

    def test_timeout_advances_clock(self, engine):
        def body():
            yield engine.timeout(123)
        run_proc(engine, body())
        assert engine.now == 123

    def test_zero_timeout_fires_at_same_time(self, engine):
        def body():
            yield engine.timeout(0)
        run_proc(engine, body())
        assert engine.now == 0

    def test_negative_timeout_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.timeout(-1)

    def test_run_until_advances_clock_even_when_queue_drains(self, engine):
        engine.run(until=500)
        assert engine.now == 500

    def test_run_until_does_not_fire_later_events(self, engine):
        fired = []
        def body():
            yield engine.timeout(1000)
            fired.append(engine.now)
        engine.process(body())
        engine.run(until=400)
        assert fired == []
        engine.run()
        assert fired == [1000]

    def test_reentrant_run_rejected(self, engine):
        def body():
            engine.run()
            yield engine.timeout(1)
        with pytest.raises(SimulationError):
            run_proc(engine, body())


class TestEvents:
    def test_succeed_delivers_value(self, engine):
        ev = engine.event()
        got = []
        def body():
            got.append((yield ev))
        engine.process(body())
        ev.succeed(42)
        engine.run()
        assert got == [42]

    def test_double_succeed_rejected(self, engine):
        ev = engine.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, engine):
        ev = engine.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_fail_throws_into_waiter(self, engine):
        ev = engine.event()
        def body():
            with pytest.raises(ValueError):
                yield ev
            return "handled"
        proc = engine.process(body())
        ev.fail(ValueError("boom"))
        engine.run()
        assert proc.value == "handled"

    def test_callback_after_processed_runs_immediately(self, engine):
        ev = engine.event()
        ev.succeed(7)
        engine.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_event_states(self, engine):
        ev = engine.event()
        assert not ev.triggered and not ev.processed
        ev.succeed(1)
        assert ev.triggered and not ev.processed
        engine.run()
        assert ev.processed


class TestProcesses:
    def test_return_value_becomes_event_value(self, engine):
        def body():
            yield engine.timeout(5)
            return "done"
        assert run_proc(engine, body()) == "done"

    def test_non_generator_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.process(lambda: None)

    def test_yielding_non_event_fails_process(self, engine):
        def body():
            yield 42
        proc = engine.process(body())
        with pytest.raises(SimulationError):
            engine.run()
        assert not proc.ok

    def test_unhandled_process_exception_surfaces(self, engine):
        def body():
            yield engine.timeout(1)
            raise RuntimeError("kaput")
        engine.process(body())
        with pytest.raises(RuntimeError, match="kaput"):
            engine.run()

    def test_waiter_observes_process_failure(self, engine):
        def child():
            yield engine.timeout(1)
            raise RuntimeError("child died")
        def parent():
            with pytest.raises(RuntimeError):
                yield engine.process(child())
            return "survived"
        assert run_proc(engine, parent()) == "survived"

    def test_process_waits_on_subprocess_value(self, engine):
        def child():
            yield engine.timeout(10)
            return 99
        def parent():
            value = yield engine.process(child())
            return value + 1
        assert run_proc(engine, parent()) == 100

    def test_interrupt_delivers_cause(self, engine):
        def body():
            try:
                yield engine.timeout(1000)
            except Interrupt as exc:
                return ("interrupted", exc.cause, engine.now)
        proc = engine.process(body())
        def killer():
            yield engine.timeout(10)
            proc.interrupt("reason")
        engine.process(killer())
        engine.run()
        # The abandoned timeout still drains at t=1000 (no cancellation,
        # as in SimPy), but the interrupt arrived at t=10.
        assert proc.value == ("interrupted", "reason", 10)

    def test_interrupt_finished_process_rejected(self, engine):
        def body():
            yield engine.timeout(1)
        proc = engine.process(body())
        engine.run()
        with pytest.raises(SimulationError):
            proc.interrupt()


def _stale_wakeup(engine):
    """Interrupted while waiting on one timeout, the process waits on a
    second; the first one firing later must not resume it."""
    def body():
        try:
            yield engine.timeout(100)
        except Interrupt:
            pass
        yield engine.timeout(1000)
        return engine.now
    proc = engine.process(body())
    def killer():
        yield engine.timeout(10)
        proc.interrupt()
    engine.process(killer())
    engine.run()
    return proc.value


def _uncaught_interrupt(engine):
    """An interrupt the body does not catch fails the process, and its
    waiter sees the Interrupt with its cause."""
    def child():
        yield engine.timeout(100)
    proc = engine.process(child())
    def parent():
        try:
            yield proc
        except Interrupt as exc:
            return ("interrupted", exc.cause, engine.now)
    def killer():
        yield engine.timeout(10)
        proc.interrupt("stop")
    engine.process(killer())
    return run_proc(engine, parent())


def _foreign_event(engine):
    """Yielding another engine's event fails the process loudly instead
    of parking it forever."""
    def body():
        yield Engine().event()
    proc = engine.process(body())
    with pytest.raises(SimulationError):
        engine.run()
    return str(proc.value).split(" yielded ")[1]


@pytest.mark.parametrize("case, expected", [
    (_stale_wakeup, 1010),
    (_uncaught_interrupt, ("interrupted", "stop", 10)),
    (_foreign_event, "event from another engine"),
], ids=["stale-wakeup", "uncaught-interrupt", "foreign-event"])
def test_process_resume_edge_paths(engine, case, expected):
    assert case(engine) == expected


class TestCompositeEvents:
    def test_any_of_fires_on_first(self, engine):
        def body():
            result = yield engine.any_of([engine.timeout(50, "a"),
                                          engine.timeout(10, "b")])
            return (sorted(result.values()), engine.now)
        assert run_proc(engine, body()) == (["b"], 10)

    def test_all_of_waits_for_every_event(self, engine):
        def body():
            result = yield engine.all_of([engine.timeout(50, "a"),
                                          engine.timeout(10, "b")])
            return sorted(result.values())
        assert run_proc(engine, body()) == ["a", "b"]
        assert engine.now == 50

    def test_all_of_empty_fires_immediately(self, engine):
        def body():
            result = yield engine.all_of([])
            return result
        assert run_proc(engine, body()) == {}

    def test_any_of_same_instant_collects_all_fired(self, engine):
        def body():
            result = yield engine.any_of([engine.timeout(5, "x"),
                                          engine.timeout(5, "y")])
            return set(result.values())
        # Both fire at t=5; the first processed triggers AnyOf, which
        # reports at least that one.
        assert "x" in run_proc(engine, body())


class TestDeterminism:
    def test_same_time_events_fire_in_schedule_order(self, engine):
        order = []
        for tag in ("first", "second", "third"):
            ev = engine.timeout(10, tag)
            ev.add_callback(lambda e: order.append(e.value))
        engine.run()
        assert order == ["first", "second", "third"]

    def test_identical_runs_produce_identical_traces(self):
        def trace():
            eng = Engine()
            log = []
            def worker(name, period, count):
                for _ in range(count):
                    yield eng.timeout(period)
                    log.append((eng.now, name))
            for i in range(5):
                eng.process(worker(f"w{i}", 7 + i, 20))
            eng.run()
            return log
        assert trace() == trace()


class TestCancellation:
    def test_cancel_pending_event(self, engine):
        ev = engine.event()
        assert ev.cancel()
        assert ev.cancelled and not ev.triggered

    def test_cancel_is_idempotent(self, engine):
        ev = engine.event()
        assert ev.cancel()
        assert not ev.cancel()

    def test_cancel_processed_event_rejected(self, engine):
        ev = engine.event()
        ev.succeed()
        engine.run()
        with pytest.raises(SimulationError):
            ev.cancel()

    def test_cancelled_event_ignores_callbacks(self, engine):
        ev = engine.event()
        ev.cancel()
        fired = []
        ev.add_callback(lambda e: fired.append(e))  # silently dropped
        with pytest.raises(SimulationError):
            ev.succeed()  # a cancelled event is dead: late trigger rejected
        assert fired == []

    def test_cancelled_timer_does_not_advance_clock(self, engine):
        # The scheduled entry stays in the heap but must be skipped
        # without moving time forward -- otherwise a cancelled timeout
        # would still stretch the simulation.
        long_timer = engine.timeout(10_000)
        engine.timeout(5)
        long_timer.cancel()
        engine.run()
        assert engine.now == 5

    def test_any_of_detaches_from_losers(self, engine):
        fast = engine.timeout(10)
        slow = engine.event()
        def body():
            yield engine.any_of([fast, slow])
        run_proc(engine, body())
        # The race is decided: the loser must not retain the composite's
        # callback (that is the waiter leak this guards against).
        assert not slow.callbacks
        assert not slow.cancelled  # shared events are left alive

    def test_any_of_cancel_losers(self, engine):
        fast = engine.timeout(10)
        slow = engine.timeout(10_000)
        def body():
            yield engine.any_of([fast, slow], cancel_losers=True)
        run_proc(engine, body())
        assert slow.cancelled
        engine.run()
        assert engine.now == 10  # the losing timer never fires


class TestEngineStats:
    """The hot-path bookkeeping added for the performance work."""

    def test_stats_counts_fired_events(self, engine):
        def body():
            for _ in range(5):
                yield engine.sleep(10)
        run_proc(engine, body())
        stats = asdict(engine.stats)
        assert stats["events_fired"] >= 5
        assert set(stats) == {"events_fired", "events_cancelled",
                              "heap_compactions", "sleeps_reused"}

    def test_fresh_engines_count_identically(self):
        """Counters live on the engine, not the class: two fresh engines
        running the same body in one process report the same stats."""
        def run_once():
            engine = Engine()

            def body():
                for _ in range(7):
                    yield engine.sleep(10)
                engine.timeout(1000).cancel()
            run_proc(engine, body())
            return asdict(engine.stats)

        first = run_once()
        assert first["events_fired"] > 0 and first["events_cancelled"] == 1
        assert run_once() == first

    def test_pooled_sleeps_are_reused(self, engine):
        def body():
            for _ in range(100):
                yield engine.sleep(1)
        run_proc(engine, body())
        # After the first sleep retires into the pool, every subsequent
        # one recycles it instead of allocating.
        assert engine.stats.sleeps_reused >= 99

    def test_rejected_sleep_keeps_pool_and_reuse_count(self, engine):
        def body():
            yield engine.sleep(5)
        run_proc(engine, body())
        pool = len(engine._sleep_pool)
        reused = engine.stats.sleeps_reused
        with pytest.raises(SimulationError):
            engine.sleep(-1)
        # A rejected delay neither drops a pooled event nor counts a
        # reuse that never happened.
        assert len(engine._sleep_pool) == pool
        assert engine.stats.sleeps_reused == reused
        assert engine.heap_size == 0

    def test_done_event_resumes_without_scheduling(self, engine):
        log = []
        def body():
            yield engine.done
            log.append(engine.now)
            yield engine.sleep(7)
            yield engine.done
            log.append(engine.now)
        run_proc(engine, body())
        assert log == [0, 7]
        assert engine.done.processed and engine.done.value is None

    def test_cancel_heavy_run_does_not_grow_heap_unboundedly(self, engine):
        # The satellite regression test: schedule-and-cancel in a loop
        # used to leave every dead entry in the heap until drain time.
        def body():
            for _ in range(3000):
                t = engine.timeout(10_000_000)
                t.cancel()
                yield engine.sleep(1)
        run_proc(engine, body())
        assert engine.stats.events_cancelled == 3000
        assert engine.stats.heap_compactions > 0
        # Lazy compaction keeps the heap near the live-entry count, not
        # the cancellation count.
        assert engine.heap_size < 200

    def test_compaction_preserves_pending_order(self, engine):
        fired = []
        def body():
            dead = [engine.timeout(50_000 + i) for i in range(200)]
            keep = engine.timeout(500)
            for t in dead:
                t.cancel()
            yield keep
            fired.append(engine.now)
        run_proc(engine, body())
        assert fired == [500]

    def test_any_of_single_event_fast_path(self, engine):
        t = engine.timeout(5)
        got = []
        def body():
            fired = yield engine.any_of([t])
            got.append(dict(fired))
        run_proc(engine, body())
        assert got == [{t: None}]

    def test_all_of_single_event_fast_path(self, engine):
        ev = engine.event()
        got = []
        def body():
            values = yield engine.all_of([ev])
            got.append(values)
        def trigger():
            yield engine.sleep(3)
            ev.succeed("x")
        engine.process(trigger())
        run_proc(engine, body())
        assert got == [{ev: "x"}]


class _Mover:
    """A timer a random schedule keeps pushing back, as a bandwidth
    pool pushes its completion wake-up.  With ``rearm`` one object is
    withdrawn and re-armed; otherwise each push cancels the queued
    timer and schedules a fresh :class:`Timeout`."""

    def __init__(self, engine, log, name, rearm):
        self.engine, self.log, self.name, self.rearm = engine, log, name, rearm
        self.timer = None
        self.at = None
        self.fresh = self.fallbacks = 0

    def withdraw(self):
        if self.at is None:
            return
        if not self.rearm:
            self.timer.cancel()
            self.timer = None
        elif not self.engine.withdraw(self.timer, self.at):
            self.timer = None
            self.fallbacks += 1
        self.at = None

    def arm(self, delay):
        engine = self.engine
        if self.timer is None:
            self.timer = engine.timeout(delay)
            self.timer.add_callback(self.fire)
            self.fresh += 1
        else:
            engine.rearm(self.timer, delay, self.fire)
        self.at = engine.now + delay

    def fire(self, event):
        self.at = None
        self.log.append((self.engine.now, self.name))


def _random_schedule(seed, rearm):
    """Processes sleep, push movers (with other events triggered between
    the withdraw and the re-arm, as a pool retires flows there), and
    cancel plain timers.  Returns the firing log, the stats and the
    movers."""
    rng = random.Random(seed)
    engine = Engine()
    log = []
    movers = [_Mover(engine, log, f"m{i}", rearm) for i in range(2)]
    plain = []

    def actor(name):
        for step in range(rng.randint(20, 60)):
            yield engine.timeout(rng.choice((0, 1, 1, 2, 3, 5, 8)))
            # The schedule's size and counters as of this moment, so a
            # compaction at another moment shows.
            stats = engine.stats
            log.append((engine.now, name, step, engine.heap_size,
                        stats.events_cancelled, stats.heap_compactions))
            roll = rng.random()
            if roll < 0.6:
                mover = rng.choice(movers)
                mover.withdraw()
                for _ in range(rng.randint(0, 2)):
                    ev = engine.event()
                    ev.add_callback(lambda e, s=step: log.append(
                        (engine.now, name, s, "done")))
                    ev.succeed()
                if rng.random() < 0.9:
                    mover.arm(rng.choice((1, 2, 3, 5, 500, 5000)))
            elif roll < 0.8:
                t = engine.timeout(rng.randint(1, 20_000))
                t.add_callback(lambda e, s=step: log.append(
                    (engine.now, name, s, "plain")))
                plain.append(t)
            elif plain:
                t = plain.pop(rng.randrange(len(plain)))
                if not t.processed:
                    t.cancel()

    for i in range(rng.randint(2, 5)):
        engine.process(actor(f"p{i}"))
    engine.run()
    return log, asdict(engine.stats), movers


def test_rearmed_timer_fires_like_a_fresh_one():
    """Over random schedules, re-arming one object fires every event at
    the same (time, order), with equal EngineStats, as cancel plus a
    fresh Timeout -- in-batch fallbacks and compactions included."""
    fallbacks = compactions = 0
    for seed in range(60):
        log, stats, movers = _random_schedule(seed, rearm=False)
        log2, stats2, movers2 = _random_schedule(seed, rearm=True)
        assert log2 == log, seed
        assert stats2 == stats, seed
        fallbacks += sum(m.fallbacks for m in movers2)
        compactions += stats["heap_compactions"]
        # A fresh timer only for the first arm and after a fallback.
        assert sum(m.fresh for m in movers2) <= (
            len(movers2) + sum(m.fallbacks for m in movers2))
        assert sum(m.fresh for m in movers2) < sum(m.fresh for m in movers)
    assert fallbacks > 0 and compactions > 0


def test_rearm_rejects_a_queued_event(engine):
    t = engine.timeout(5)
    with pytest.raises(SimulationError):
        engine.rearm(t, 3, lambda e: None)
