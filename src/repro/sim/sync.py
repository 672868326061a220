"""Synchronisation primitives that operate in simulated time.

All primitives hand out :class:`~repro.sim.engine.Event` objects, so a
process waits by ``yield``-ing the returned event.  Wakeup order is
strictly FIFO, which keeps simulations deterministic.

Every blocking operation takes an optional ``timeout=`` (nanoseconds).
A bounded wait that expires fails its event with
:class:`~repro.sim.engine.WaitTimeout` and *cancels* the queued waiter,
so an expired waiter can never absorb a later grant: grant paths skip
cancelled waiters lazily.  On a grant/timeout tie at the same
simulated instant, the grant wins.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.sim.engine import Engine, Event, SimulationError, WaitTimeout


def _timed(engine: Engine, waiter: Event, timeout: Optional[int],
           what: str = "wait",
           on_timeout: Optional[Callable[[], None]] = None) -> Event:
    """Bound a queued ``waiter`` event by ``timeout`` nanoseconds.

    Returns ``waiter`` unchanged when no bound is needed (no timeout,
    or already granted).  Otherwise returns a fresh event that mirrors
    the grant -- or fails with :class:`WaitTimeout` once the timer
    expires, after cancelling ``waiter`` so the owning primitive can
    never grant it.  ``on_timeout`` lets the primitive fix up internal
    state (e.g. re-run an RWLock grant scan) after the cancellation.
    """
    if timeout is None or waiter.triggered:
        return waiter
    outer = engine.event()
    timer = engine.timeout(timeout)

    def granted(w: Event) -> None:
        if outer.triggered:  # pragma: no cover - timer cancels waiter first
            return
        if not timer.processed:
            timer.cancel()
        if w.ok:
            outer.succeed(w.value)
        else:
            outer.fail(w.value)

    def expired(_t: Event) -> None:
        if outer.triggered or waiter.triggered:
            return  # granted at the same instant: the grant wins
        waiter.cancel()
        outer.fail(WaitTimeout(f"{what} timed out after {timeout} ns"))
        if on_timeout is not None:
            on_timeout()

    waiter.add_callback(granted)
    timer.add_callback(expired)
    return outer


class Store:
    """Unbounded FIFO queue of items with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event that fires with the
    next item, in arrival order.
    """

    __slots__ = ("engine", "_items", "_getters")


    def __init__(self, engine: Engine):
        self.engine = engine
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting_getters(self) -> int:
        """Number of processes blocked in ``get`` (live waiters only)."""
        return sum(1 for g in self._getters if not g.cancelled)

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest live blocked getter."""
        while self._getters and self._getters[0].cancelled:
            self._getters.popleft()
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self, timeout: Optional[int] = None) -> Event:
        """Event that fires with the next item (or fails with
        :class:`WaitTimeout` after ``timeout`` ns)."""
        ev = self.engine.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return _timed(self.engine, ev, timeout, "Store.get")

    def try_get(self) -> Any:
        """Pop an item immediately, or return None when empty."""
        return self._items.popleft() if self._items else None


class Gate:
    """A broadcast condition: processes wait until the gate opens.

    Opening the gate releases every current waiter; the gate can be
    re-closed and reused.  Waiting on an already-open gate returns an
    immediately-fired event.
    """

    __slots__ = ("engine", "_open", "_waiters")


    def __init__(self, engine: Engine, opened: bool = False):
        self.engine = engine
        self._open = opened
        self._waiters: Deque[Event] = deque()

    @property
    def is_open(self) -> bool:
        return self._open

    @property
    def waiting(self) -> int:
        """Number of processes blocked in ``wait`` (live waiters only)."""
        return sum(1 for w in self._waiters if not w.cancelled)

    def wait(self, timeout: Optional[int] = None) -> Event:
        ev = self.engine.event()
        if self._open:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return _timed(self.engine, ev, timeout, "Gate.wait")

    def open(self) -> None:
        """Open the gate, releasing all waiters."""
        self._open = True
        self._release_all()

    def close(self) -> None:
        """Close the gate; later waiters block until the next open()."""
        self._open = False

    def pulse(self) -> None:
        """Release current waiters without leaving the gate open."""
        self._release_all()

    def _release_all(self) -> None:
        while self._waiters:
            w = self._waiters.popleft()
            if not w.cancelled:
                w.succeed()


class Channel:
    """A bounded hand-off queue between producer and consumer processes.

    Unlike :class:`Store`, ``put`` blocks when the channel holds
    ``capacity`` items.  Used to model hardware command queues where a
    full ring back-pressures the submitter.
    """

    __slots__ = ("engine", "capacity", "_items", "_getters", "_putters")


    def __init__(self, engine: Engine, capacity: int):
        if capacity < 1:
            raise SimulationError(f"channel capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def put(self, item: Any, timeout: Optional[int] = None) -> Event:
        """Event firing once the item has been accepted.

        A timed-out put cancels its queued slot: the item is *not*
        delivered later.
        """
        ev = self.engine.event()
        while self._getters and self._getters[0].cancelled:
            self._getters.popleft()
        if self._getters:
            self._getters.popleft().succeed(item)
            ev.succeed()
        elif len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return _timed(self.engine, ev, timeout, "Channel.put")

    def get(self, timeout: Optional[int] = None) -> Event:
        """Event firing with the next item."""
        ev = self.engine.event()
        if self._items:
            ev.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return _timed(self.engine, ev, timeout, "Channel.get")

    def _admit_putter(self) -> None:
        """Move the oldest live blocked putter's item into the queue."""
        while self._putters:
            put_ev, item = self._putters.popleft()
            if put_ev.cancelled:
                continue  # timed-out put: the item was never accepted
            self._items.append(item)
            put_ev.succeed()
            return

    def drain(self) -> list:
        """Remove and return every queued item, in queue order.

        Blocked putters are unblocked (their put events fire) and their
        items are included in the returned list -- from the producer's
        point of view the item *was* accepted, it just never reached a
        consumer.  Models a hardware ring being torn down by a channel
        reset: the stranded descriptors are handed back to software.
        Timed-out putters are skipped: their items were never accepted.
        """
        items = list(self._items)
        self._items.clear()
        while self._putters:
            put_ev, item = self._putters.popleft()
            if put_ev.cancelled:
                continue
            items.append(item)
            put_ev.succeed()
        return items


class RWLock:
    """Reader-writer lock with FIFO fairness.

    Multiple readers may hold the lock together; writers are exclusive.
    Waiters are granted strictly in arrival order (a waiting writer
    blocks later readers), which prevents writer starvation and keeps
    simulations deterministic.
    """

    __slots__ = ("engine", "name", "_readers", "_writer", "_waiters")


    def __init__(self, engine: Engine, name: str = "rwlock"):
        self.engine = engine
        self.name = name
        self._readers = 0
        self._writer = False
        self._waiters: Deque[tuple] = deque()  # (event, is_writer)

    @property
    def held_exclusive(self) -> bool:
        return self._writer

    @property
    def reader_count(self) -> int:
        return self._readers

    @property
    def queued(self) -> int:
        return sum(1 for ev, _w in self._waiters if not ev.cancelled)

    def _purge_cancelled_head(self) -> None:
        """Drop timed-out waiters from the head.  Afterwards the head is
        live or the deque is empty, so ``not self._waiters`` is
        ``not self.queued`` without scanning every waiter."""
        while self._waiters and self._waiters[0][0].cancelled:
            self._waiters.popleft()

    def acquire_read(self, timeout: Optional[int] = None) -> Event:
        """Event firing once shared access is granted."""
        self._purge_cancelled_head()
        ev = self.engine.event()
        if not self._writer and not self._waiters:
            self._readers += 1
            ev.succeed()
        else:
            self._waiters.append((ev, False))
        return _timed(self.engine, ev, timeout,
                      f"{self.name}.acquire_read", on_timeout=self._grant)

    def acquire_write(self, timeout: Optional[int] = None) -> Event:
        """Event firing once exclusive access is granted."""
        self._purge_cancelled_head()
        ev = self.engine.event()
        if not self._writer and self._readers == 0 and not self._waiters:
            self._writer = True
            ev.succeed()
        else:
            self._waiters.append((ev, True))
        return _timed(self.engine, ev, timeout,
                      f"{self.name}.acquire_write", on_timeout=self._grant)

    def release_read(self) -> None:
        if self._readers <= 0:
            raise SimulationError(f"{self.name}: release_read without readers")
        self._readers -= 1
        self._grant()

    def release_write(self) -> None:
        if not self._writer:
            raise SimulationError(f"{self.name}: release_write without writer")
        self._writer = False
        self._grant()

    def _grant(self) -> None:
        while self._waiters:
            ev, is_writer = self._waiters[0]
            if ev.cancelled:
                self._waiters.popleft()
                continue
            if is_writer:
                if self._readers == 0 and not self._writer:
                    self._waiters.popleft()
                    self._writer = True
                    ev.succeed()
                return
            if self._writer:
                return
            self._waiters.popleft()
            self._readers += 1
            ev.succeed()
