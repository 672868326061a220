"""The simulation engine's schedule queue: a hierarchical timing wheel.

The engine's firing order contract is ``(when, schedule-order)``: of
two scheduled events the earlier ``when`` fires first, and within one
``when`` the event scheduled first fires first.

:class:`TimingWheelQueue` meets it with a hierarchical timing wheel /
calendar queue: events within a near *horizon* live in exact
per-timestamp FIFO buckets keyed by a min-heap of **distinct**
timestamps; events beyond the horizon overflow into per-epoch far
buckets that cascade into the near structure as the clock advances.
Same-``when`` events need no sequence numbers (bucket order is schedule
order), pushes to an existing timestamp are a plain ``list.append``,
and the whole bucket drains as one batch.  The engine's run loop walks
these buckets directly (see :meth:`repro.sim.engine.Engine.run`).

The queue counts cancelled entries it still holds and lazily compacts
once the dead dominate the live (see :data:`COMPACT_MIN_DEAD`), so
cancel-heavy overload runs do not drag dead entries around forever.

Determinism: ``tests/test_sim_queues.py`` cross-checks the firing order
against a packed-key binary-heap reference on seeded random schedules,
and the golden-equivalence suite pins it end-to-end.
"""

from __future__ import annotations

import heapq
from typing import List

_CANCELLED = 3  # mirrors repro.sim.engine's event-state constant

#: Compaction policy: rebuild the structure when more than this many
#: cancelled entries are queued *and* they outnumber the live ones.
COMPACT_MIN_DEAD = 64

#: Near-window width of the timing wheel, ns.  Events further out than
#: this from the window base overflow into far epochs.  1 ms covers the
#: sleeps/timeouts the hot paths issue; only long watchdogs and idle
#: timers overflow.
WHEEL_HORIZON = 1 << 20


class TimingWheelQueue:
    """Hierarchical timing wheel: exact near buckets, far-epoch overflow.

    *Near* events (``when < epoch_end``) live in ``_buckets``, a dict
    mapping each distinct timestamp to its FIFO event list, with the
    distinct timestamps ordered by the ``_whens`` min-heap -- so a
    timestamp pays one heap operation however many events share it, and
    the common "another event at an existing instant" push is a dict
    hit plus a list append.

    *Far* events overflow into ``_far``: per-epoch dicts of the same
    shape (epoch = ``when // WHEEL_HORIZON``).  When the near structure
    drains, the earliest far epoch cascades: its buckets become the
    near buckets and ``epoch_end`` advances to the epoch's end.  The
    cascade preserves FIFO order per timestamp (bucket lists move
    wholesale) and the near/far split preserves global order because
    every far timestamp is >= ``epoch_end`` > every near timestamp.
    """

    __slots__ = ("_buckets", "_whens", "_far", "_far_epochs", "_epoch_end",
                 "_len", "_dead", "_stats")

    def __init__(self, stats):
        self._buckets: dict = {}
        self._whens: List[int] = []
        self._far: dict = {}
        self._far_epochs: List[int] = []
        self._epoch_end = WHEEL_HORIZON
        self._len = 0
        #: Cancelled entries still queued: bumped by note_cancelled,
        #: decremented by the engine's run loop as it drops them from a
        #: popped batch, and reset by each compaction.
        self._dead = 0
        #: The owning engine's EngineStats (bumps heap_compactions).
        self._stats = stats

    def push(self, event, when: int) -> None:
        self._len += 1
        if when < self._epoch_end:
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [event]
                heapq.heappush(self._whens, when)
            else:
                bucket.append(event)
            return
        epoch = when // WHEEL_HORIZON
        sub = self._far.get(epoch)
        if sub is None:
            self._far[epoch] = {when: [event]}
            heapq.heappush(self._far_epochs, epoch)
        else:
            bucket = sub.get(when)
            if bucket is None:
                sub[when] = [event]
            else:
                bucket.append(event)

    def _cascade(self) -> bool:
        """Promote the earliest far epoch into the near window."""
        while self._far_epochs:
            epoch = heapq.heappop(self._far_epochs)
            sub = self._far.pop(epoch)
            self._epoch_end = (epoch + 1) * WHEEL_HORIZON
            if sub:
                # Near timestamps are all < the old epoch_end and far
                # ones all >= it, so the dicts are disjoint.
                self._buckets.update(sub)
                whens = list(self._buckets)
                heapq.heapify(whens)
                self._whens = whens
                return True
        return False

    def note_cancelled(self, event) -> None:
        dead = self._dead + 1
        self._dead = dead
        if dead > COMPACT_MIN_DEAD and dead * 2 > self._len:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from every bucket, near and far."""
        live = 0
        buckets = {}
        for when, bucket in self._buckets.items():
            kept = [ev for ev in bucket if ev._state != _CANCELLED]
            if kept:
                buckets[when] = kept
                live += len(kept)
        self._buckets = buckets
        whens = list(buckets)
        heapq.heapify(whens)
        self._whens = whens
        far = {}
        for epoch, sub in self._far.items():
            kept_sub = {}
            for when, bucket in sub.items():
                kept = [ev for ev in bucket if ev._state != _CANCELLED]
                if kept:
                    kept_sub[when] = kept
                    live += len(kept)
            if kept_sub:
                far[epoch] = kept_sub
        self._far = far
        far_epochs = list(far)
        heapq.heapify(far_epochs)
        self._far_epochs = far_epochs
        self._len = live
        self._dead = 0
        self._stats.heap_compactions += 1

    def __len__(self) -> int:
        return self._len
