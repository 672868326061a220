"""Per-core schedulers and the runtime that owns them.

Scheduling policy (mirroring the paper's modified Caladan, §5):

* Each core runs one scheduler.  Runnable uthreads live in two FIFO
  queues: ``completed_q`` (parked uthreads whose asynchronous I/O has
  finished -- preferred, to preserve the low-latency advantage) and
  ``fresh_q`` (everything else).
* A syscall executes inline on the core.  When it returns with pending
  asynchronous I/O the runtime charges one completion poll, parks the
  uthread, and switches to the next runnable one (``thread_yield()`` on
  every return from the kernel).
* A synchronous syscall result resumes the *same* uthread immediately
  -- which is exactly why interleaved memcpy reads delay concurrent
  asynchronous reads in Figure 9 (the paper's higher-read-latency
  effect).
* Idle cores steal runnable uthreads from the longest queue
  (work stealing; can be disabled for the Figure 11 ablation).
* A uthread is never resumed while its own issued DMA is unfinished
  (correctness rule from §5) -- parking guarantees it structurally.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.analysis.metrics import OverloadStats
from repro.fs.nova import DeadlineExceeded, FsError, OpContext
from repro.hw.cpu import Core
from repro.hw.platform import Platform
from repro.runtime.admission import AdmissionController, OverloadRejected
from repro.runtime.effects import Compute, Sleep, Syscall, Yield
from repro.runtime.uthread import Uthread, UthreadState
from repro.sim import Event, Gate, WaitTimeout


class CoreScheduler:
    """The scheduler multiplexing uthreads on one physical core."""

    def __init__(self, runtime: "Runtime", core: Core):
        self.runtime = runtime
        self.core = core
        self.engine = runtime.engine
        self.completed_q: Deque[Uthread] = deque()
        self.fresh_q: Deque[Uthread] = deque()
        self._wake = Gate(self.engine)
        self.switches = 0
        self.steals = 0
        #: Deepest combined run queue ever seen (backpressure signal).
        self.queue_high_water = 0
        self.engine.process(self._loop(), name=f"sched-core{core.core_id}")

    # -- queue management ------------------------------------------------
    def enqueue(self, ut: Uthread, completed: bool = False) -> None:
        """Make a uthread runnable on this core and wake the scheduler."""
        ut.state = UthreadState.RUNNABLE
        ut.home = self
        (self.completed_q if completed else self.fresh_q).append(ut)
        self.queue_high_water = max(self.queue_high_water, self.queue_len)
        self._wake.pulse()

    @property
    def queue_len(self) -> int:
        return len(self.completed_q) + len(self.fresh_q)

    def _next_local(self) -> Optional[Uthread]:
        if self.completed_q:
            return self.completed_q.popleft()
        if self.fresh_q:
            return self.fresh_q.popleft()
        return None

    # -- main loop ----------------------------------------------------------
    def _loop(self):
        model = self.runtime.platform.model
        while True:
            ut = self._next_local()
            stolen = False
            if ut is None and self.runtime.steal:
                ut = self._try_steal()
                stolen = ut is not None
            if ut is None:
                yield self._wake.wait()
                continue
            self.core.mark_busy(ut.name)
            try:
                if stolen:
                    yield self.engine.sleep(model.work_steal_cost)
                yield from self._run(ut)
            finally:
                # A uthread blocked in-kernel (idle_wait) may have
                # already released the core; only close an open span.
                if self.core.busy:
                    self.core.mark_idle()

    def _try_steal(self) -> Optional[Uthread]:
        victims = [s for s in self.runtime.schedulers
                   if s is not self and s.queue_len > 0]
        if not victims:
            return None
        victim = max(victims, key=lambda s: (s.queue_len, -s.core.core_id))
        ut = victim._next_local()
        if ut is not None:
            ut.home = self
            self.steals += 1
        return ut

    # -- running one uthread until it leaves the core -------------------------
    def _run(self, ut: Uthread):
        model = self.runtime.platform.model
        self.switches += 1
        yield self.engine.sleep(model.uthread_switch_cost)
        ut.state = UthreadState.RUNNING
        # A Naive-EasyIO style deferred second syscall (metadata commit
        # after DMA completion) runs before the uthread resumes.
        if ut.pending_continuation is not None:
            make, result = ut.pending_continuation
            ut.pending_continuation = None
            ctx = OpContext(self.runtime.platform, core=self.core,
                            deadline=ut.deadline)
            ut.last_op_id = ctx.op_id
            yield from make(ctx)
            ut.resume_value = result
        value = ut.resume_value
        ut.resume_value = None
        #: Exception to deliver into the body instead of a value --
        #: how syscall-level failures (DeadlineExceeded, WaitTimeout,
        #: OverloadRejected) reach application code without killing
        #: the scheduler.
        throw: Optional[BaseException] = None
        while True:
            try:
                if throw is not None:
                    exc, throw = throw, None
                    effect = ut.body.throw(exc)
                else:
                    effect = ut.body.send(value)
            except StopIteration as stop:
                ut.finish(stop.value)
                self.runtime._uthread_finished(ut)
                return
            except BaseException as exc:
                ut.fail(exc)
                self.runtime._uthread_finished(ut)
                raise
            value = None
            if isinstance(effect, Compute):
                yield self.engine.sleep(effect.ns)
            elif isinstance(effect, Yield):
                ut.state = UthreadState.RUNNABLE
                self.fresh_q.append(ut)
                self.queue_high_water = max(self.queue_high_water,
                                            self.queue_len)
                return
            elif isinstance(effect, Sleep):
                ut.state = UthreadState.PARKED
                home = self
                wake = self.engine.sleep(effect.ns)
                wake.add_callback(lambda _e, u=ut: home.enqueue(u))
                return
            elif isinstance(effect, Syscall):
                admission = self.runtime.admission
                verdict = ("admit" if admission is None
                           else admission.admit(ut.priority))
                if admission is not None:
                    tr = self.engine.tracer
                    if tr is not None:
                        tr.point("admission",
                                 track=f"core{self.core.core_id}",
                                 verdict=verdict, ut=ut.name)
                if verdict == "reject":
                    # Turned away at the gate: the syscall entry was
                    # still paid, then the error surfaces in the app.
                    yield self.engine.sleep(model.syscall_cost)
                    throw = OverloadRejected(
                        f"syscall by {ut.name} rejected under overload")
                    continue
                ctx = OpContext(self.runtime.platform, core=self.core,
                                deadline=ut.deadline)
                ut.last_op_id = ctx.op_id
                if verdict == "degrade":
                    ctx.force_sync = True
                try:
                    result = yield from effect.op(ctx)
                except (FsError, WaitTimeout) as exc:
                    # Typed op failure: release the admission slot,
                    # count it, and deliver into the app -- the
                    # scheduler itself must survive.
                    if admission is not None:
                        admission.release()
                    stats = self.runtime.overload_stats
                    if isinstance(exc, DeadlineExceeded):
                        stats.deadline_misses += 1
                    elif isinstance(exc, WaitTimeout):
                        stats.timeouts += 1
                    yield self.engine.sleep(model.completion_poll_cost)
                    throw = exc
                    continue
                # Returning from the kernel: poll completion buffers.
                yield self.engine.sleep(model.completion_poll_cost)
                if result is not None and getattr(result, "is_async", False):
                    ut.state = UthreadState.PARKED
                    ut.io_parked = True
                    ut.parks += 1
                    tr = self.engine.tracer
                    if tr is not None:
                        op = result.ctx.op_id if result.ctx is not None \
                            else None
                        tr.point("park", track=f"core{self.core.core_id}",
                                 op=op, ut=ut.name)
                    self._park(ut, result, admission)
                    return
                if admission is not None:
                    admission.release()
                value = result
            else:
                raise TypeError(
                    f"uthread {ut.name} yielded unknown effect {effect!r}")

    def _park(self, ut: Uthread, result,
              admission: Optional[AdmissionController] = None) -> None:
        """Park until the op's pending I/O completes, then requeue."""
        def on_complete(_event):
            if admission is not None:
                admission.release()
            tr = self.engine.tracer
            if tr is not None:
                op = result.ctx.op_id if result.ctx is not None else None
                tr.point("wake", track="runtime", op=op, ut=ut.name)
            ut.io_parked = False
            continuation = getattr(result, "continuation", None)
            if continuation is not None:
                ut.pending_continuation = (continuation, result)
            else:
                ut.resume_value = result
            # Resume on the uthread's (possibly new) home core, with
            # completed-I/O priority.
            ut.home.enqueue(ut, completed=True)
        result.pending.add_callback(on_complete)


class Runtime:
    """The userspace runtime: one scheduler per dedicated core.

    ``admission`` installs an :class:`AdmissionController` in front of
    syscall submission; its ``depth_fn`` is wired to the longest
    per-core run queue unless already set.  ``overload_stats`` shares
    one counter set between the controller, the schedulers, the
    filesystem, and a watchdog.
    """

    def __init__(self, platform: Platform, cores: Optional[List[Core]] = None,
                 steal: bool = True,
                 admission: Optional[AdmissionController] = None,
                 overload_stats: Optional[OverloadStats] = None):
        self.platform = platform
        self.engine = platform.engine
        self.steal = steal
        self.cores = cores if cores is not None else platform.cores
        if not self.cores:
            raise ValueError("runtime needs at least one core")
        self.admission = admission
        if overload_stats is not None:
            self.overload_stats = overload_stats
        elif admission is not None:
            self.overload_stats = admission.stats
        else:
            self.overload_stats = OverloadStats()
        self.schedulers = [CoreScheduler(self, core) for core in self.cores]
        if admission is not None and admission.depth_fn is None:
            admission.depth_fn = self.max_queue_len
        #: Live (spawned, unfinished) uthreads, in spawn order -- the
        #: watchdog walks this to find parked-past-deadline uthreads.
        self.live_uthreads: dict = {}
        #: Hang watchdog, installed via Watchdog(...).attach(self).
        self.watchdog = None
        self._active = 0
        self._drain_waiters: List[Event] = []
        self._spawn_rr = 0

    def max_queue_len(self) -> int:
        """Longest per-core run queue right now (backpressure signal)."""
        return max(s.queue_len for s in self.schedulers)

    def spawn(self, body, core: Optional[int] = None,
              name: Optional[str] = None,
              deadline: Optional[int] = None, priority: int = 0) -> Uthread:
        """Create a uthread and enqueue it (round-robin without ``core``).

        ``deadline`` is an *absolute* simulated time (ns): it propagates
        into every syscall the uthread issues and is what the watchdog
        judges hangs against.  ``priority`` feeds admission control.
        """
        ut = Uthread(self.engine, body, name=name, deadline=deadline,
                     priority=priority)
        if core is None:
            idx = self._spawn_rr % len(self.schedulers)
            self._spawn_rr += 1
        else:
            idx = core
        self._active += 1
        self.live_uthreads[ut] = True
        self.schedulers[idx].enqueue(ut)
        if self.watchdog is not None:
            self.watchdog.notify()
        return ut

    @property
    def active_uthreads(self) -> int:
        return self._active

    def _uthread_finished(self, ut: Optional[Uthread] = None) -> None:
        self._active -= 1
        if ut is not None:
            self.live_uthreads.pop(ut, None)
        if self._active == 0:
            waiters, self._drain_waiters = self._drain_waiters, []
            for ev in waiters:
                ev.succeed()

    def drain(self) -> Event:
        """Event firing when no live uthreads remain."""
        ev = self.engine.event()
        if self._active == 0:
            ev.succeed()
        else:
            self._drain_waiters.append(ev)
        return ev

    def total_switches(self) -> int:
        return sum(s.switches for s in self.schedulers)
