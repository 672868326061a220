"""Simulated-time hang watchdog for the runtime.

A lost wakeup (a uthread parked on a completion that never fires, e.g.
because a DMA channel halted and its supervisor wedged) would otherwise
surface as an *eternally pending* simulation: ``engine.run()`` never
drains and the test harness hits its wall-clock cap with zero
diagnostics.  The :class:`Watchdog` converts that failure mode into a
*drained* engine plus a :class:`HangReport`.

Mechanism (all in simulated time, fully deterministic):

* Every live uthread with a time budget -- an absolute ``deadline`` set
  at spawn, or the watchdog's ``default_budget_ns`` -- is watched.
* A uthread still unfinished ``grace_factor x`` its budget past spawn is
  **flagged**: ``ut.watchdog_flagged`` is set, ``watchdog_trips`` is
  counted, a :class:`HangReport` snapshot (scheduler queues, DMA channel
  state, uthread states) is recorded, and ``on_trip`` is invoked.
* A flagged uthread is never re-flagged, and the watchdog *parks* on a
  gate whenever nothing is watchable -- so a genuinely hung simulation
  still drains: every watched uthread either finishes or trips, after
  which the watchdog holds no pending timers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.analysis.metrics import OverloadStats
from repro.runtime.uthread import Uthread
from repro.sim import Gate


@dataclass
class HangReport:
    """Diagnostic snapshot taken when the watchdog flags a uthread."""

    time: int
    uthread: str
    uid: int
    state: str
    spawned_at: int
    deadline: Optional[int]
    budget_ns: int
    #: Per-core scheduler queue state at trip time.
    schedulers: List[dict] = field(default_factory=list)
    #: Per-DMA-channel state at trip time (the usual hang culprit).
    channels: List[dict] = field(default_factory=list)
    #: Every live uthread at trip time (name, state, parked-on-I/O).
    uthreads: List[dict] = field(default_factory=list)
    #: Trace op id of the hung uthread's current syscall (None with
    #: tracing off or before its first syscall).
    trace_op: Optional[int] = None
    #: ``str()`` of the hung op's most recent trace event -- the last
    #: thing it did before going quiet (None when untraceable).
    last_trace_event: Optional[str] = None

    def render(self) -> str:
        """Human-readable multi-line summary for logs / assertions."""
        lines = [
            f"WATCHDOG: {self.uthread} (uid {self.uid}, {self.state}) "
            f"hung at t={self.time} ns "
            f"(spawned {self.spawned_at}, budget {self.budget_ns} ns)",
        ]
        if self.trace_op is not None:
            lines.append(
                f"  trace: op {self.trace_op}, last event "
                f"{self.last_trace_event or '<none buffered>'}")
        for s in self.schedulers:
            lines.append(
                f"  core{s['core']}: queue={s['queue_len']} "
                f"(hw {s['queue_high_water']}) switches={s['switches']} "
                f"steals={s['steals']}")
        for ch in self.channels:
            if ch["queue_depth"] or ch["halted"] or ch["suspended"]:
                flags = "".join(
                    f" {k}" for k in ("halted", "suspended") if ch[k])
                lines.append(
                    f"  dma{ch['channel']}: depth={ch['queue_depth']} "
                    f"sn={ch['completion_sn']}{flags}")
        for ut in self.uthreads:
            lines.append(
                f"  {ut['name']}: {ut['state']}"
                f"{' io-parked' if ut['io_parked'] else ''}"
                f"{' FLAGGED' if ut['flagged'] else ''}")
        return "\n".join(lines)


class Watchdog:
    """Flags uthreads parked far past their deadline budget.

    Installing the watchdog sets ``runtime.watchdog`` so that
    :meth:`~repro.runtime.scheduler.Runtime.spawn` can wake it when new
    uthreads arrive while it is parked.  Counters go to the runtime's
    shared :class:`OverloadStats` unless ``stats`` overrides that.
    """

    def __init__(self, runtime, interval_ns: int = 100_000,
                 grace_factor: int = 3,
                 default_budget_ns: Optional[int] = None,
                 stats: Optional[OverloadStats] = None,
                 on_trip: Optional[Callable[[HangReport], None]] = None):
        if grace_factor < 1:
            raise ValueError(f"grace_factor must be >= 1, got {grace_factor}")
        if interval_ns < 1:
            raise ValueError(f"interval_ns must be >= 1, got {interval_ns}")
        self.runtime = runtime
        self.engine = runtime.engine
        self.interval_ns = interval_ns
        self.grace_factor = grace_factor
        self.default_budget_ns = default_budget_ns
        self.stats = stats if stats is not None else runtime.overload_stats
        self.on_trip = on_trip
        self.reports: List[HangReport] = []
        self._work = Gate(self.engine)
        runtime.watchdog = self
        self.engine.process(self._loop(), name="watchdog")

    def notify(self) -> None:
        """Wake the watchdog (a new uthread may need watching)."""
        self._work.pulse()

    # -- policy ---------------------------------------------------------
    def _budget(self, ut: Uthread) -> Optional[int]:
        if ut.deadline is not None:
            return max(0, ut.deadline - ut.spawned_at)
        return self.default_budget_ns

    def _watchable(self) -> List[tuple]:
        out = []
        for ut in self.runtime.live_uthreads:
            if ut.finished or ut.watchdog_flagged:
                continue
            budget = self._budget(ut)
            if budget is None:
                continue
            out.append((ut, budget))
        return out

    def _trip(self, ut: Uthread, budget: int) -> HangReport:
        ut.watchdog_flagged = True
        self.stats.watchdog_trips += 1
        report = self.snapshot(ut, budget)
        self.reports.append(report)
        if self.on_trip is not None:
            self.on_trip(report)
        return report

    def snapshot(self, ut: Uthread, budget: int) -> HangReport:
        """Capture the full runtime/DMA state around a hung uthread."""
        dma = self.runtime.platform.dma
        trace_op = getattr(ut, "last_op_id", None)
        last_ev = None
        tracer = self.engine.tracer
        if tracer is not None and trace_op is not None:
            ev = tracer.last_event(op=trace_op)
            if ev is not None:
                last_ev = str(ev)
        return HangReport(
            trace_op=trace_op,
            last_trace_event=last_ev,
            time=self.engine.now,
            uthread=ut.name,
            uid=ut.uid,
            state=ut.state.value,
            spawned_at=ut.spawned_at,
            deadline=ut.deadline,
            budget_ns=budget,
            schedulers=[{
                "core": s.core.core_id,
                "queue_len": s.queue_len,
                "queue_high_water": s.queue_high_water,
                "switches": s.switches,
                "steals": s.steals,
            } for s in self.runtime.schedulers],
            channels=[{
                "channel": ch.channel_id,
                "queue_depth": ch.queue_depth,
                "completion_sn": ch.completion_sn,
                "halted": ch.halted,
                "suspended": ch.suspended,
            } for ch in (dma.channel(i) for i in range(len(dma)))],
            uthreads=[{
                "name": u.name,
                "state": u.state.value,
                "io_parked": u.io_parked,
                "flagged": u.watchdog_flagged,
            } for u in self.runtime.live_uthreads],
        )

    # -- the scan loop --------------------------------------------------
    def _loop(self):
        while True:
            watchable = self._watchable()
            if not watchable:
                # Nothing to watch: hold no timers, so the engine can
                # drain.  spawn() pulses the gate to restart us.
                yield self._work.wait()
                continue
            now = self.engine.now
            next_due = None
            for ut, budget in watchable:
                trip_at = ut.spawned_at + self.grace_factor * budget
                if now >= trip_at:
                    self._trip(ut, budget)
                else:
                    next_due = (trip_at if next_due is None
                                else min(next_due, trip_at))
            if next_due is None:
                continue  # everything tripped this round; rescan
            # Sleep until the earliest possible trip (capped by the scan
            # interval), but wake early if new uthreads are spawned --
            # they may carry a shorter budget than anything watched now.
            delay = min(self.interval_ns, max(1, next_due - now))
            timer = self.engine.timeout(delay)
            yield self.engine.any_of([timer, self._work.wait()],
                                     cancel_losers=True)
