"""Unit tests for simulated-time synchronisation primitives."""

import pytest

from repro.sim import (
    Channel,
    Gate,
    RWLock,
    SimulationError,
    Store,
    WaitTimeout,
)
from tests.conftest import run_proc


class TestRWLock:
    def test_readers_share(self, engine):
        rw = RWLock(engine)
        concurrent = []
        def reader(i):
            yield rw.acquire_read()
            concurrent.append(i)
            yield engine.timeout(10)
            rw.release_read()
        for i in range(3):
            engine.process(reader(i))
        engine.run(until=5)
        assert len(concurrent) == 3
        engine.run()

    def test_writer_excludes_readers(self, engine):
        rw = RWLock(engine)
        log = []
        def writer():
            yield rw.acquire_write()
            log.append(("w-in", engine.now))
            yield engine.timeout(10)
            log.append(("w-out", engine.now))
            rw.release_write()
        def reader():
            yield engine.timeout(1)
            yield rw.acquire_read()
            log.append(("r-in", engine.now))
            rw.release_read()
        engine.process(writer())
        engine.process(reader())
        engine.run()
        assert log == [("w-in", 0), ("w-out", 10), ("r-in", 10)]

    def test_waiting_writer_blocks_later_readers(self, engine):
        rw = RWLock(engine)
        log = []
        def first_reader():
            yield rw.acquire_read()
            yield engine.timeout(10)
            rw.release_read()
        def writer():
            yield engine.timeout(1)
            yield rw.acquire_write()
            log.append(("w", engine.now))
            rw.release_write()
        def late_reader():
            yield engine.timeout(2)
            yield rw.acquire_read()
            log.append(("r", engine.now))
            rw.release_read()
        engine.process(first_reader())
        engine.process(writer())
        engine.process(late_reader())
        engine.run()
        # FIFO fairness: the writer (arrived first) goes before the
        # late reader even though the lock was in read mode.
        assert log == [("w", 10), ("r", 10)]

    def test_unbalanced_release_rejected(self, engine):
        rw = RWLock(engine)
        with pytest.raises(SimulationError):
            rw.release_read()
        with pytest.raises(SimulationError):
            rw.release_write()


class TestStore:
    def test_put_then_get(self, engine):
        store = Store(engine)
        store.put("a")
        def body():
            item = yield store.get()
            return item
        assert run_proc(engine, body()) == "a"

    def test_get_blocks_until_put(self, engine):
        store = Store(engine)
        def getter():
            item = yield store.get()
            return (item, engine.now)
        def putter():
            yield engine.timeout(30)
            store.put("late")
        proc = engine.process(getter())
        engine.process(putter())
        engine.run()
        assert proc.value == ("late", 30)

    def test_fifo_order(self, engine):
        store = Store(engine)
        for i in range(5):
            store.put(i)
        got = []
        def body():
            for _ in range(5):
                got.append((yield store.get()))
        run_proc(engine, body())
        assert got == [0, 1, 2, 3, 4]

    def test_try_get(self, engine):
        store = Store(engine)
        assert store.try_get() is None
        store.put(1)
        assert store.try_get() == 1


class TestGate:
    def test_open_releases_all_waiters(self, engine):
        gate = Gate(engine)
        released = []
        def waiter(i):
            yield gate.wait()
            released.append(i)
        for i in range(3):
            engine.process(waiter(i))
        def opener():
            yield engine.timeout(10)
            gate.open()
        engine.process(opener())
        engine.run()
        assert sorted(released) == [0, 1, 2]

    def test_wait_on_open_gate_immediate(self, engine):
        gate = Gate(engine, opened=True)
        def body():
            yield gate.wait()
            return engine.now
        assert run_proc(engine, body()) == 0

    def test_pulse_does_not_leave_gate_open(self, engine):
        gate = Gate(engine)
        hits = []
        def w1():
            yield gate.wait()
            hits.append("w1")
        engine.process(w1())
        engine.run()
        gate.pulse()
        engine.run()
        assert hits == ["w1"]
        assert not gate.is_open


class TestChannel:
    def test_put_blocks_when_full(self, engine):
        chan = Channel(engine, capacity=1)
        times = []
        def producer():
            for i in range(3):
                yield chan.put(i)
                times.append(engine.now)
        def consumer():
            for _ in range(3):
                yield engine.timeout(10)
                yield chan.get()
        engine.process(producer())
        engine.process(consumer())
        engine.run()
        # First two puts immediate (one into queue, one handed over on
        # the first get); the third waits for ring space.
        assert times[0] == 0
        assert times[-1] >= 10

    def test_capacity_validation(self, engine):
        with pytest.raises(SimulationError):
            Channel(engine, 0)

    def test_full_property(self, engine):
        chan = Channel(engine, 2)
        def body():
            yield chan.put(1)
            yield chan.put(2)
        run_proc(engine, body())
        assert chan.full


class TestTimedWaits:
    """timeout= on every blocking primitive: WaitTimeout fires, and --
    the regression these tests exist for -- the expired waiter must not
    linger in the primitive's queue and absorb a later grant."""

    def test_rwlock_timeout_unneeded_when_granted_first(self, engine):
        rw = RWLock(engine)
        got = []
        def first():
            # Free lock: granted at once, so the bound is never armed.
            yield rw.acquire_write(timeout=50)
            yield engine.timeout(20)
            rw.release_write()
        def second():
            # Queued, then granted at t=20, well inside its bound: the
            # timer is cancelled and never fails the grant later.
            yield rw.acquire_write(timeout=50)
            got.append(engine.now)
            yield engine.timeout(200)  # well past the timeout
            rw.release_write()
        engine.process(first())
        engine.process(second())
        engine.run()
        assert got == [20]
        assert not rw.held_exclusive and rw.queued == 0

    def test_rwlock_write_timeout_does_not_block_readers(self, engine):
        rw = RWLock(engine)
        got = []
        def reader0():
            yield rw.acquire_read()
            yield engine.timeout(100)
            rw.release_read()
        def writer():
            with pytest.raises(WaitTimeout):
                yield rw.acquire_write(timeout=10)
            got.append(("wtimeout", engine.now))
        def reader1():
            # Arrives behind the queued writer; once the writer expires
            # it must share the read lock immediately (no phantom writer
            # parked at the queue head).
            yield engine.timeout(20)
            yield rw.acquire_read(timeout=5)
            got.append(("read", engine.now))
            rw.release_read()
        engine.process(reader0())
        engine.process(writer())
        engine.process(reader1())
        engine.run()
        assert got == [("wtimeout", 10), ("read", 20)]
        assert rw.reader_count == 0 and not rw.held_exclusive
        assert rw.queued == 0

    def test_rwlock_read_timeout_behind_writer(self, engine):
        rw = RWLock(engine)
        def writer():
            yield rw.acquire_write()
            yield engine.timeout(100)
            rw.release_write()
        def reader():
            with pytest.raises(WaitTimeout):
                yield rw.acquire_read(timeout=10)
        engine.process(writer())
        engine.process(reader())
        engine.run()
        assert rw.queued == 0 and not rw.held_exclusive

    def test_store_get_timeout_and_no_leak(self, engine):
        store = Store(engine)
        got = []
        def impatient():
            with pytest.raises(WaitTimeout):
                yield store.get(timeout=10)
        def patient():
            item = yield store.get()
            got.append(item)
        def producer():
            yield engine.timeout(50)
            store.put("x")
        engine.process(impatient())
        engine.process(patient())
        engine.process(producer())
        engine.run()
        # The item must reach the live getter, not the expired one.
        assert got == ["x"]
        assert store.waiting_getters == 0
        assert len(store) == 0

    def test_gate_wait_timeout_and_no_leak(self, engine):
        gate = Gate(engine)
        woke = []
        def impatient():
            with pytest.raises(WaitTimeout):
                yield gate.wait(timeout=10)
        def patient():
            yield gate.wait()
            woke.append(engine.now)
        def opener():
            yield engine.timeout(50)
            gate.pulse()
        engine.process(impatient())
        engine.process(patient())
        engine.process(opener())
        engine.run()
        assert woke == [50]
        assert gate.waiting == 0

    def test_channel_get_timeout_and_no_leak(self, engine):
        chan = Channel(engine, capacity=2)
        got = []
        def impatient():
            with pytest.raises(WaitTimeout):
                yield chan.get(timeout=10)
        def patient():
            item = yield chan.get()
            got.append(item)
        def producer():
            yield engine.timeout(50)
            yield chan.put("y")
        engine.process(impatient())
        engine.process(patient())
        engine.process(producer())
        engine.run()
        assert got == ["y"]
        assert len(chan) == 0

    def test_channel_put_timeout_item_never_accepted(self, engine):
        chan = Channel(engine, capacity=1)
        def filler():
            yield chan.put("keep")
        def impatient():
            with pytest.raises(WaitTimeout):
                yield chan.put("lost", timeout=10)
        def consumer():
            yield engine.timeout(50)
            first = yield chan.get()
            assert first == "keep"
            # The timed-out putter's item must never surface.
            with pytest.raises(WaitTimeout):
                yield chan.get(timeout=10)
        engine.process(filler())
        engine.process(impatient())
        engine.process(consumer())
        engine.run()
        assert len(chan) == 0 and chan.drain() == []
