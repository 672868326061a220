"""Discrete-event simulation engine.

The engine owns one schedule of triggered events, fired in
``(time, schedule-order)`` order: of two events the earlier ``when``
fires first, and within one ``when`` the event scheduled first fires
first.  Processes are generator coroutines that yield :class:`Event`
objects; the engine resumes a process when the event it is waiting on
fires.  Time is an integer number of nanoseconds, which keeps
arithmetic exact and traces reproducible.

Hot-path design (the engine is the throughput ceiling for every
figure sweep, so the representation is tuned without changing the
firing order):

* The schedule is a bucketed timestamp heap: ``Engine._buckets`` maps
  each distinct timestamp to its FIFO list of events and
  ``Engine._whens`` is a min-heap of those timestamps.  Bucket order
  is schedule order, so no sequence numbers are needed, and a push to
  an existing instant is a dict hit plus a list append.  The hottest
  triggers (``succeed`` and ``sleep``) inline the push.
* The run loop *batch-fires*: it pops one timestamp and drains its
  whole bucket in a single dispatch, so the clock, the limit check,
  and the heap are touched once per distinct timestamp instead of
  once per event.
* :meth:`Engine.sleep` hands out pooled one-shot timer events for the
  fire-and-forget delays that dominate simulations (CPU cost charges,
  scheduler switch costs, device service delays).  See its docstring
  for the (strict) usage contract.
* Cancelled events already queued are counted and the schedule is
  lazily compacted once they dominate (see :data:`COMPACT_MIN_DEAD`),
  so cancel-heavy overload runs do not drag dead entries around
  forever.
* A timer that keeps being pushed back (a bandwidth pool's completion
  wake-up) is re-armed rather than replaced: :meth:`Engine.withdraw`
  swaps its queued slot for a cancelled tombstone, counted exactly as
  :meth:`Event.cancel` counts a cancellation, and :meth:`Engine.rearm`
  appends the same object at the tail of its new instant's bucket,
  where a fresh :class:`Timeout` would go.  The schedule, the
  cancellation count and the compactions are those of cancel plus a
  fresh timer; only the allocation is elided.
* :class:`AnyOf`/:class:`AllOf` fast-path the 1-event case.

Example
-------
>>> eng = Engine()
>>> log = []
>>> def worker(name, delay):
...     yield eng.timeout(delay)
...     log.append((eng.now, name))
>>> _ = eng.process(worker("a", 10))
>>> _ = eng.process(worker("b", 5))
>>> eng.run()
>>> log
[(5, 'b'), (10, 'a')]
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class WaitTimeout(Exception):
    """A timed wait expired before it was granted.

    Raised into processes waiting on a ``timeout=``-bounded primitive
    (:meth:`~repro.sim.sync.RWLock.acquire_write` and friends) and by any
    other deadline-bounded wait built on :meth:`Event.cancel`.
    """


# Event states.
_PENDING = 0
_TRIGGERED = 1  # scheduled to fire, callbacks not yet run
_PROCESSED = 2  # callbacks have run
_CANCELLED = 3  # withdrawn; callbacks will never run

#: When set, every new :class:`Engine` calls this with itself and
#: stores the result as its ``tracer`` (see :func:`set_tracer_factory`).
_TRACER_FACTORY: Optional[Callable[["Engine"], Any]] = None

#: run(until=None) limit: beyond any reachable simulated time.
_NO_LIMIT = 1 << 120

#: Compaction policy: rebuild the schedule when more than this many
#: cancelled entries are queued *and* they outnumber the live ones.
COMPACT_MIN_DEAD = 64


def set_tracer_factory(factory: Optional[Callable[["Engine"], Any]]) -> None:
    """Install (or, with None, remove) the module-level tracer factory.

    Figure sweeps construct their engines deep inside library code, so
    callers that want those engines traced cannot attach a tracer by
    hand; the factory hook closes that gap.  The engine module itself
    never imports the tracing package -- the factory is an opaque
    callable, keeping :mod:`repro.obs` strictly optional.  Prefer the
    :func:`repro.obs.default_tracing` context manager, which saves and
    restores the previous factory.
    """
    global _TRACER_FACTORY
    _TRACER_FACTORY = factory


def get_tracer_factory() -> Optional[Callable[["Engine"], Any]]:
    """The currently-installed tracer factory (None when tracing is off)."""
    return _TRACER_FACTORY


@dataclass(slots=True)
class EngineStats:
    """Counters the engine maintains about its own operation.

    ``events_fired`` counts processed events, ``events_cancelled``
    counts :meth:`Event.cancel` calls that performed a cancellation,
    and ``heap_compactions`` counts lazy rebuilds of the schedule
    (each one evicts the cancelled entries accumulated so far).
    ``sleeps_reused`` counts pooled :meth:`Engine.sleep` recycles.
    """

    events_fired: int = 0
    events_cancelled: int = 0
    heap_compactions: int = 0
    sleeps_reused: int = 0


class Event:
    """A happening in simulated time that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, which schedules its callbacks to run at the current
    simulation time.  Once the callbacks have run the event is
    *processed* and its value is frozen.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_state")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = _PENDING

    # -- inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire."""
        return self._state in (_TRIGGERED, _PROCESSED)

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._state == _PROCESSED

    @property
    def cancelled(self) -> bool:
        """Whether the event was withdrawn before its callbacks ran."""
        return self._state == _CANCELLED

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception if it failed)."""
        return self._value

    # -- triggering -------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._state = _TRIGGERED
        # succeed() is the hottest trigger: Engine._schedule inlined.
        engine = self.engine
        when = engine._now
        engine._queued += 1
        bucket = engine._buckets.get(when)
        if bucket is None:
            engine._buckets[when] = [self]
            heappush(engine._whens, when)
        else:
            bucket.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will have the exception thrown
        into it.
        """
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        self.engine._schedule(self)
        return self

    def cancel(self) -> bool:
        """Withdraw the event: its callbacks will never run.

        A *pending* event becomes inert -- triggering it later is an
        error, and any synchronisation primitive holding it in a waiter
        queue skips it when granting.  A *triggered* event (already in
        the schedule, e.g. a :class:`Timeout`) is skipped by the
        engine when its turn comes.  Cancelling an already-cancelled
        event is a no-op; cancelling a processed event is an error.

        Returns True if this call performed the cancellation.
        """
        state = self._state
        if state == _CANCELLED:
            return False
        if state == _PROCESSED:
            raise SimulationError(f"cannot cancel processed event {self!r}")
        self._state = _CANCELLED
        self.callbacks = None
        engine = self.engine
        if state == _TRIGGERED:
            # The entry stays in the schedule; the engine counts it and
            # compacts lazily once dead entries dominate.
            engine._count_dead_entry()
        else:
            engine._stats.events_cancelled += 1
        return True

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event fires.

        If the event has already been processed the callback runs
        immediately (still at the current simulation time).  Adding a
        callback to a cancelled event is a no-op.
        """
        state = self._state
        if state == _PROCESSED:
            fn(self)
        elif state == _CANCELLED:
            return
        else:
            assert self.callbacks is not None
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered",
                 _PROCESSED: "processed", _CANCELLED: "cancelled"}[self._state]
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self._value = value
        self._state = _TRIGGERED
        engine._schedule(self, delay)


class _PooledSleep(Event):
    """A recyclable one-shot timer (see :meth:`Engine.sleep`).

    Recognised by exact type in the run loop and returned to the
    engine's pool right after its callbacks run.
    """

    __slots__ = ()


class AnyOf(Event):
    """Fires when the first of ``events`` fires.

    The value is a dict mapping the already-fired events to their
    values (there may be more than one if several fire at the same
    instant before callbacks run).

    When the winner fires, the losing waiters are *detached*: this
    AnyOf's callback is removed from them, so an abandoned race leaves
    no dangling references on long-lived events.  With
    ``cancel_losers=True`` still-pending losers are additionally
    :meth:`~Event.cancel`-ed outright -- only safe when the losers are
    private to this race (e.g. a timeout guard), never for shared
    completion events that other waiters observe.
    """

    __slots__ = ("events", "cancel_losers")

    def __init__(self, engine: "Engine", events: Iterable[Event],
                 cancel_losers: bool = False):
        super().__init__(engine)
        self.events = list(events)
        self.cancel_losers = cancel_losers
        if not self.events:
            self.succeed({})
            return
        if len(self.events) == 1:
            # Fast path: a 1-event race has no losers to detach.
            self.events[0].add_callback(self._on_fire_single)
            return
        for ev in self.events:
            ev.add_callback(self._on_fire)

    def _on_fire_single(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self.succeed({event: event._value})

    def _on_fire(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        self._detach(winner=event)
        if not event._ok:
            self.fail(event._value)
            return
        fired = {ev: ev._value for ev in self.events if ev.processed or ev is event}
        self.succeed(fired)

    def _detach(self, winner: Event) -> None:
        """Unhook from the losing events (and optionally cancel them)."""
        for ev in self.events:
            if ev is winner:
                continue
            if ev.callbacks is not None:
                try:
                    ev.callbacks.remove(self._on_fire)
                except ValueError:
                    pass
            if self.cancel_losers and not ev.processed and not ev.cancelled:
                ev.cancel()


class AllOf(Event):
    """Fires when every one of ``events`` has fired."""

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self.events = list(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed({})
            return
        if self._remaining == 1:
            self.events[0].add_callback(self._on_fire_single)
            return
        for ev in self.events:
            ev.add_callback(self._on_fire)

    def _on_fire_single(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self.succeed({event: event._value})

    def _on_fire(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({ev: ev._value for ev in self.events})


class Process(Event):
    """A running generator coroutine; also an event that fires on exit.

    The generator may ``yield`` any :class:`Event`; the process resumes
    when that event fires, receiving the event's value (or having the
    event's exception thrown in).  The value a generator ``return``s
    becomes the process event's value.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_interrupts",
                 "_resume_cb")

    def __init__(self, engine: "Engine", generator: Generator,
                 name: Optional[str] = None):
        super().__init__(engine)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        self._interrupts: list = []
        # One bound method for the life of the process instead of a
        # fresh one per wait (the single hottest callback).
        self._resume_cb = self._resume
        # Bootstrap: resume once at the current time (a pooled zero
        # sleep schedules exactly like the old succeed()-ed event).
        engine.sleep(0).add_callback(self._resume_cb)

    @property
    def is_alive(self) -> bool:
        """Whether the process is still running."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        self._interrupts.append(Interrupt(cause))
        self.engine.sleep(0).add_callback(self._resume_cb)

    def _resume(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        # The branch order favours the hot case: resumed by the event
        # we are waiting on, successfully, with no interrupt queued.
        # _waiting_on is left stale through the generator step: the
        # consumed event can never fire again, every exit path below
        # either parks on a new target or finishes the process, and the
        # stale-wakeup test compares against the `waited` local.
        waited = self._waiting_on
        generator = self.generator
        try:
            if self._interrupts:
                target = generator.throw(self._interrupts.pop(0))
            elif event is waited:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    # Mark the failure as handled by this process.
                    target = generator.throw(event._value)
            elif waited is not None:
                # Stale wakeup: waiting on some other event and this
                # resume is not an interrupt delivery.
                return
            else:
                target = generator.send(None)
        except StopIteration as stop:
            self.succeed(stop.value)
            self._resume_cb = None  # break the self-reference cycle
            return
        except BaseException as exc:
            # An uncaught Interrupt lands here too.  Propagate to
            # waiters; if nobody is waiting, the run loop re-raises so
            # the failure is never silent.
            self.fail(exc)
            self._resume_cb = None
            return
        try:
            # Duck-typed hot path: every Event has `engine` and
            # `callbacks`; a non-event yield lands in the AttributeError
            # arm.  Inlines target.add_callback(self._resume_cb) -- the
            # hottest callback registration in the simulator.
            if target.engine is self.engine:
                self._waiting_on = target
                callbacks = target.callbacks
                if callbacks is not None:
                    callbacks.append(self._resume_cb)
                elif target._state == _PROCESSED:
                    self._resume(target)
                # A cancelled target keeps the process parked, exactly
                # as add_callback's no-op branch did.
                return
        except AttributeError:
            pass
        if not isinstance(target, Event):
            self.fail(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))
        else:
            self.fail(SimulationError(
                f"process {self.name!r} yielded event from another engine"))


class Engine:
    """The simulation event loop.

    Attributes
    ----------
    now:
        Current simulated time in nanoseconds.
    """

    __slots__ = ("_now", "_buckets", "_whens", "_queued", "_dead",
                 "_active", "_sleep_pool", "_sleeps_reused", "_stats",
                 "_done", "_tombstone", "_name_seqs", "tracer")

    def __init__(self):
        self._now: int = 0
        self._stats = EngineStats()
        #: Engine-scoped naming counters (see :meth:`name_seq`).
        self._name_seqs: dict = {}
        # Kept as a plain engine slot (cheaper to bump than a field of
        # _stats on the sleep() hot path) and synced into _stats by the
        # `stats` property.
        self._sleeps_reused = 0
        #: The schedule: each distinct timestamp's FIFO event list,
        #: keyed by the `_whens` min-heap of those timestamps.  Both
        #: are only ever mutated in place (the run loop binds them
        #: once per run).
        self._buckets: dict = {}
        self._whens: list = []
        #: Entries in the schedule, cancelled ones included.
        self._queued = 0
        #: Cancelled entries still queued: bumped by Event.cancel,
        #: decremented by the run loop as it drops them from a popped
        #: batch, and reset by each compaction.
        self._dead = 0
        self._active = False
        self._sleep_pool: list = []
        #: Structured tracer (see repro.obs), or None.  Every
        #: instrumentation site guards on ``engine.tracer is not None``,
        #: so the default costs one attribute load per site.
        self.tracer = _TRACER_FACTORY(self) if _TRACER_FACTORY is not None \
            else None
        # A permanently-processed no-op event (see the `done` property).
        done = Event(self)
        done._state = _PROCESSED
        done.callbacks = None
        self._done = done
        # The cancelled entry withdraw() leaves in a re-armed timer's
        # old slot; one shared object serves every slot.
        tombstone = Event(self)
        tombstone._state = _CANCELLED
        tombstone.callbacks = None
        self._tombstone = tombstone

    @property
    def now(self) -> int:
        """Current simulated time (ns)."""
        return self._now

    @property
    def stats(self) -> EngineStats:
        """Counters: events fired / cancelled, heap compactions, ..."""
        self._stats.sleeps_reused = self._sleeps_reused
        return self._stats

    def name_seq(self, kind: str) -> int:
        """Next value (1, 2, ...) of an engine-scoped naming counter.

        Object uids/names built from these are deterministic *per run*:
        two engines constructed in one process hand out identical
        sequences, where a class-level counter would leak monotonically
        across every engine in the process and make names depend on
        whatever ran before (tests/test_runtime.py pins this down).
        """
        n = self._name_seqs.get(kind, 0) + 1
        self._name_seqs[kind] = n
        return n

    @property
    def done(self) -> Event:
        """A shared, already-processed no-op event with value None.

        Yielding it resumes the process immediately (still at the
        current time, via the processed-event callback fast path)
        without scheduling anything -- the zero-cost result for APIs
        that sometimes have nothing to wait for, e.g. a zero-ns charge.
        """
        return self._done

    @property
    def heap_size(self) -> int:
        """Entries in the schedule (including cancelled ones)."""
        return self._queued

    # -- event factories --------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event firing ``delay`` ns from now."""
        return Timeout(self, int(delay), value)

    def sleep(self, delay: int) -> Event:
        """A pooled one-shot timer firing ``delay`` ns from now.

        Contract (what makes pooling safe): the returned event must be
        ``yield``-ed (or given at most short-lived callbacks) and then
        *forgotten*.  It is recycled the moment its callbacks have run,
        so callers must never retain it across that instant, never
        :meth:`~Event.cancel` it, and never hand it to code that might
        (``any_of`` guards, :func:`repro.sim.sync._timed`, ...).  Use
        :meth:`timeout` whenever the timer may be cancelled or kept.

        Scheduling order is identical to an equivalent :meth:`timeout`;
        only the allocation is elided.
        """
        # Validate before touching the pool, so a rejected delay
        # neither loses a pooled event nor counts a reuse.
        if delay.__class__ is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(f"negative sleep delay: {delay}")
        pool = self._sleep_pool
        if pool:
            # The run loop parked it TRIGGERED with an emptied callbacks
            # list, so reuse touches no event state at all.
            ev = pool.pop()
            self._sleeps_reused += 1
        else:
            ev = _PooledSleep(self)
            ev._state = _TRIGGERED
        # Engine._schedule inlined (the hottest schedule op).
        when = self._now + delay
        self._queued += 1
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [ev]
            heappush(self._whens, when)
        else:
            bucket.append(ev)
        return ev

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator coroutine."""
        return Process(self, generator, name)

    def any_of(self, events: Iterable[Event],
               cancel_losers: bool = False) -> AnyOf:
        """Event firing when the first of ``events`` fires.

        Losing waiters are detached; ``cancel_losers=True`` also
        cancels still-pending losers (safe only for private events).
        """
        return AnyOf(self, events, cancel_losers=cancel_losers)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------
    def _schedule(self, event: Event, delay: int = 0) -> None:
        when = self._now + delay
        self._queued += 1
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [event]
            heappush(self._whens, when)
        else:
            bucket.append(event)

    def withdraw(self, event: Event, when: int) -> bool:
        """Take the queued timer ``event``, due at ``when``, out of the
        schedule so :meth:`rearm` can queue the same object again.

        Its slot keeps a cancelled tombstone, counted at this moment
        exactly as :meth:`Event.cancel` counts a queued cancellation
        (``events_cancelled``, the dead-entry count and the compaction
        check), so the schedule and the stats read as if ``event`` had
        been cancelled.  ``event`` itself is left pending.

        Returns False when ``event`` sits in the batch being fired: the
        run loop has popped that bucket, so the slot cannot be
        replaced.  ``event`` is then cancelled for real, and the caller
        must schedule a fresh timer instead of re-arming it.
        """
        bucket = self._buckets.get(when, ())
        try:
            i = bucket.index(event)
        except ValueError:
            event.cancel()
            return False
        bucket[i] = self._tombstone
        event._state = _PENDING
        self._count_dead_entry()
        return True

    def rearm(self, event: Event, delay: int,
              fn: Callable[[Event], None]) -> None:
        """Queue ``event`` -- withdrawn by :meth:`withdraw`, or
        processed -- to fire ``delay`` ns from now with ``fn`` as its
        only callback.  It goes to the tail of that instant's bucket,
        exactly where a fresh :class:`Timeout` would."""
        if event._state not in (_PENDING, _PROCESSED):
            raise SimulationError(f"cannot re-arm queued event {event!r}")
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        event._state = _TRIGGERED
        event.callbacks = [fn]
        self._schedule(event, delay)

    def _count_dead_entry(self) -> None:
        """Count one cancelled entry left in the schedule, and compact
        once dead entries dominate."""
        self._stats.events_cancelled += 1
        dead = self._dead + 1
        self._dead = dead
        if dead > COMPACT_MIN_DEAD and dead * 2 > self._queued:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from every bucket, in place."""
        buckets = self._buckets
        live = 0
        for when in list(buckets):
            kept = [ev for ev in buckets[when] if ev._state != _CANCELLED]
            if kept:
                buckets[when] = kept
                live += len(kept)
            else:
                del buckets[when]
        whens = self._whens
        whens[:] = buckets
        heapify(whens)
        self._queued = live
        self._dead = 0
        self._stats.heap_compactions += 1

    # -- main loop ---------------------------------------------------
    def run(self, until: Optional[int] = None) -> None:
        """Run until the event queue drains or ``until`` ns is reached.

        When ``until`` is given the clock is advanced exactly to it even
        if the queue drains earlier, so back-to-back ``run`` calls see a
        consistent timeline.
        """
        if self._active:
            raise SimulationError("engine is already running (reentrant run())")
        self._active = True
        # Pause the cyclic garbage collector for the duration of the
        # run: simulation allocation is dominated by short-lived
        # acyclic objects reclaimed by refcounting, and generational
        # collections triggered mid-run cost ~15% of sweep wall time
        # while finding almost nothing.  Cyclic garbage (finished
        # process/generator webs) is simply deferred to the first
        # collection after the run.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        limit = until if until is not None else _NO_LIMIT
        fired = 0
        try:
            fired = self._fire_until(limit)
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._stats.events_fired += fired
            self._active = False
            if gc_was_enabled:
                gc.enable()

    def _fire_until(self, limit: int) -> int:
        """The run loop: fire every batch up to ``limit``, return the
        count of events fired."""
        buckets = self._buckets
        whens = self._whens
        pool = self._sleep_pool
        fired = 0
        while whens:
            when = whens[0]
            if when > limit:
                break
            if len(whens) == 1:
                del whens[0]
            else:
                heappop(whens)
            batch = buckets.pop(when)
            queued = len(batch)
            self._queued -= queued
            # Batch firing: every event scheduled for this instant, in
            # schedule order; this loop is the one callback dispatch.
            # The clock is set once up front and rolled back in the
            # (rare) case the whole batch turned out to be cancelled.
            prev_now = self._now
            self._now = when
            live = queued
            for event in batch:
                if event.__class__ is _PooledSleep:
                    # Pooled timers stay TRIGGERED for life and fire
                    # straight off their live callback list (appends
                    # during firing still run, matching the processed-
                    # event immediate-call path); the emptied list is
                    # parked with the event for the next sleep().
                    callbacks = event.callbacks
                    if callbacks is None:
                        # Contract-violating cancel: drop, don't recycle.
                        live -= 1
                        continue
                    for fn in callbacks:
                        fn(event)
                    callbacks.clear()
                    pool.append(event)
                    continue
                if event._state == _CANCELLED:
                    # Withdrawn after scheduling (e.g. a cancelled
                    # Timeout, possibly by an earlier event in this
                    # very batch): drop without firing.
                    live -= 1
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                event._state = _PROCESSED
                if callbacks:
                    for fn in callbacks:
                        fn(event)
                elif not event._ok and isinstance(event, Process):
                    # A process died with no one waiting on it:
                    # surface the error, never silently.
                    raise event._value
            if live == queued:
                fired += live
                continue
            # Dropped cancelled entries leave the dead count.  Clamped:
            # a compaction inside this batch already reset it.
            dead = self._dead - (queued - live)
            self._dead = dead if dead > 0 else 0
            if live:
                fired += live
            else:
                # Nothing fired: an all-cancelled batch must not
                # advance the clock.
                self._now = prev_now
        return fired

