"""Lightweight userspace threads.

A :class:`Uthread` owns the generator implementing the application
task plus the scheduling state the runtime needs: which scheduler it
belongs to, whether it is parked on an I/O completion, and lifetime
statistics.  It is also waitable -- ``uthread.done`` is a simulation
event firing when the body returns.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

from repro.sim import Engine, Event


class UthreadState(enum.Enum):
    RUNNABLE = "runnable"
    RUNNING = "running"
    PARKED = "parked"      # waiting on an I/O completion or timer
    FINISHED = "finished"


class Uthread:
    """One userspace thread."""

    __slots__ = ("uid", "body", "name", "state", "deadline",
                 "priority", "watchdog_flagged", "home", "resume_value",
                 "done", "io_parked", "pending_continuation", "spawned_at",
                 "parks", "last_op_id")

    def __init__(self, engine: Engine, body: Generator,
                 name: Optional[str] = None,
                 deadline: Optional[int] = None, priority: int = 0):
        if not hasattr(body, "send"):
            raise TypeError(
                f"uthread body must be a generator, got {type(body).__name__}")
        # Engine-scoped uid: deterministic per run, not per process
        # (a class-level counter would leak across engines and make
        # uthread names depend on everything run before).
        self.uid = engine.name_seq("uthread")
        self.body = body
        self.name = name or f"uthread-{self.uid}"
        self.state = UthreadState.RUNNABLE
        #: Absolute simulated-time deadline (ns) propagated into every
        #: syscall's OpContext; None = unbounded.
        self.deadline = deadline
        #: QoS class for admission control (higher = more important).
        self.priority = priority
        #: Set once the watchdog has reported this uthread as hung.
        self.watchdog_flagged = False
        #: The scheduler currently responsible for running this uthread.
        self.home = None
        #: Value to send into the body on next resume.
        self.resume_value: Any = None
        #: Fired with the body's return value when it finishes.
        self.done: Event = engine.event()
        #: True once parked because of async I/O (vs a timer sleep).
        self.io_parked = False
        #: Deferred second syscall ``(make, result)`` to run before the
        #: next resume (Naive-EasyIO metadata commit, see scheduler).
        self.pending_continuation: Optional[tuple] = None
        #: Trace op id of the most recent syscall (None with tracing
        #: off) -- lets the watchdog tie a hang to its trace span.
        self.last_op_id: Optional[int] = None
        # Statistics.
        self.spawned_at = engine.now
        self.parks = 0

    @property
    def finished(self) -> bool:
        return self.state is UthreadState.FINISHED

    def finish(self, value: Any) -> None:
        self.state = UthreadState.FINISHED
        self.done.succeed(value)

    def fail(self, exc: BaseException) -> None:
        self.state = UthreadState.FINISHED
        self.done.fail(exc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Uthread {self.name} {self.state.value}>"
