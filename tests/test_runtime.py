"""Tests for the Caladan-like uthread runtime."""

import pytest

from repro.fs import NovaFS, PMImage
from repro.core import EasyIoFS
from repro.fs.structures import WriteEntry
from repro.runtime import Compute, Runtime, Sleep, Syscall, Yield
from repro.workloads import fxmark


class TestBasics:
    def test_uthread_runs_and_returns(self, node):
        rt = Runtime(node, cores=node.cores[:1])
        def body():
            yield Compute(100)
            return "ok"
        ut = rt.spawn(body())
        node.run()
        assert ut.done.value == "ok"
        assert ut.finished
        assert rt.active_uthreads == 0

    def test_compute_burns_core_time(self, node):
        rt = Runtime(node, cores=node.cores[:1])
        def body():
            yield Compute(10_000)
        rt.spawn(body())
        node.run()
        assert node.cores[0].busy_ns() >= 10_000

    def test_sleep_releases_core(self, node):
        rt = Runtime(node, cores=node.cores[:1])
        order = []
        def sleeper():
            yield Sleep(5_000)
            order.append(("sleeper", node.now))
        def worker():
            yield Compute(1_000)
            order.append(("worker", node.now))
        rt.spawn(sleeper())
        rt.spawn(worker())
        node.run()
        # The worker runs while the sleeper is parked.
        assert order[0][0] == "worker"

    def test_yield_round_robins(self, node):
        rt = Runtime(node, cores=node.cores[:1])
        order = []
        def worker(name):
            for _ in range(3):
                order.append(name)
                yield Yield()
        rt.spawn(worker("a"), core=0)
        rt.spawn(worker("b"), core=0)
        node.run()
        assert order[:4] == ["a", "b", "a", "b"]

    def test_uthread_exception_propagates(self, node):
        rt = Runtime(node, cores=node.cores[:1])
        def bad():
            yield Compute(10)
            raise ValueError("app bug")
        rt.spawn(bad())
        with pytest.raises(ValueError, match="app bug"):
            node.run()

    def test_unknown_effect_rejected(self, node):
        rt = Runtime(node, cores=node.cores[:1])
        def bad():
            yield "what"
        rt.spawn(bad())
        with pytest.raises(TypeError):
            node.run()

    def test_drain_event(self, node):
        rt = Runtime(node, cores=node.cores[:1])
        def body():
            yield Compute(500)
        rt.spawn(body())
        fired = []
        rt.drain().add_callback(lambda _e: fired.append(node.now))
        node.run()
        assert len(fired) == 1

    def test_runtime_requires_cores(self, node):
        with pytest.raises(ValueError):
            Runtime(node, cores=[])


class TestSyscalls:
    def test_sync_syscall_resumes_same_uthread(self, node):
        fs = NovaFS(node, PMImage()).mount()
        rt = Runtime(node, cores=node.cores[:1])
        steps = []
        def body():
            ino = yield Syscall(lambda ctx: fs.create(ctx, "/f"))
            steps.append("created")
            result = yield Syscall(lambda ctx: fs.write(ctx, ino, 0, 4096))
            steps.append(result.value)
        rt.spawn(body())
        node.run()
        assert steps == ["created", 4096]

    def test_async_syscall_parks_until_completion(self, node):
        fs = EasyIoFS(node).mount()
        rt = Runtime(node, cores=node.cores[:1])
        out = {}
        def body():
            ino = yield Syscall(lambda ctx: fs.create(ctx, "/f"))
            result = yield Syscall(lambda ctx: fs.write(ctx, ino, 0, 65536))
            # By the time the uthread resumes, the DMA has finished.
            out["pending_done"] = result.pending.processed
            out["value"] = result.value
        ut = rt.spawn(body())
        node.run()
        assert out == {"pending_done": True, "value": 65536}
        assert ut.parks >= 1

    def test_core_interleaves_compute_during_async_io(self, node):
        """The whole point of EasyIO: another uthread's compute fills
        the core while a write's DMA is in flight."""
        fs = EasyIoFS(node).mount()
        rt = Runtime(node, cores=node.cores[:1])
        trace = []
        def io_worker():
            ino = yield Syscall(lambda ctx: fs.create(ctx, "/f"))
            for _ in range(3):
                yield Syscall(lambda ctx: fs.write(ctx, ino, 0, 65536))
                trace.append(("io", node.now))
        def compute_worker():
            for _ in range(20):
                yield Compute(2_000)
                trace.append(("cpu", node.now))
                yield Yield()
        rt.spawn(io_worker(), core=0)
        rt.spawn(compute_worker(), core=0)
        node.run()
        kinds = [k for k, _t in trace]
        first_io_done = kinds.index("io")
        assert "cpu" in kinds[:first_io_done], \
            "compute should interleave with the in-flight write"

    def test_deferred_commit_runs_on_resume(self, monkeypatch):
        """The Naive ablation splits a write into a DMA syscall and a
        deferred metadata-commit syscall; the scheduler runs the commit
        when the parked uthread resumes.  A small Fig 11 run (shared
        file, one compute uthread per core): every write the
        filesystem took must reach the committed log."""
        made = []
        make_fs = fxmark.make_fs

        def capture(*args, **kwargs):
            made.append(make_fs(*args, **kwargs))
            return made[-1]
        monkeypatch.setattr(fxmark, "make_fs", capture)
        result = fxmark.run_fxmark(fxmark.FxmarkConfig(
            kind="naive", op="write", io_size=16384, workers=2,
            shared=True, duration_us=300, warmup_us=100,
            uthreads_per_core=1, compute_uthreads_per_core=1,
            steal=False))
        fs, = made
        committed = sum(isinstance(entry, WriteEntry)
                        for ino in fs.image.inodes
                        for entry in fs.image.committed_log(ino))
        assert result.total_ops > 0
        assert committed == fs.dma_writes + fs.memcpy_writes


class TestWorkStealing:
    def test_idle_core_steals_runnable_work(self, node):
        rt = Runtime(node, cores=node.cores[:2], steal=True)
        ran_on = []
        def worker(i):
            yield Compute(5_000)
            ran_on.append(i)
        # Pile every uthread onto core 0; core 1 must steal some.
        for i in range(6):
            rt.spawn(worker(i), core=0)
        node.run()
        assert len(ran_on) == 6
        assert rt.schedulers[1].steals > 0
        assert node.cores[1].busy_ns() > 0

    def test_stealing_disabled_keeps_work_local(self, node):
        rt = Runtime(node, cores=node.cores[:2], steal=False)
        def worker():
            yield Compute(5_000)
        for _ in range(6):
            rt.spawn(worker(), core=0)
        node.run()
        assert rt.schedulers[1].steals == 0
        assert node.cores[1].busy_ns() == 0

    def test_completed_io_preferred_over_fresh(self, node):
        fs = EasyIoFS(node).mount()
        rt = Runtime(node, cores=node.cores[:1], steal=False)
        order = []
        def io_worker():
            ino = yield Syscall(lambda ctx: fs.create(ctx, "/f"))
            yield Syscall(lambda ctx: fs.write(ctx, ino, 0, 65536))
            order.append("io-resumed")
        def fresh(i):
            for lap in range(3):
                yield Compute(3_000)
                order.append(f"fresh{i}.{lap}")
                yield Yield()
        rt.spawn(io_worker(), core=0)
        for i in range(4):
            rt.spawn(fresh(i), core=0)
        node.run()
        # The parked io uthread resumes before the fresh compute
        # uthreads have finished all their later slices.
        assert order.index("io-resumed") < len(order) - 1


class TestAccounting:
    def test_switch_counter(self, node):
        rt = Runtime(node, cores=node.cores[:1])
        def w():
            yield Yield()
            yield Yield()
        rt.spawn(w())
        rt.spawn(w())
        node.run()
        assert rt.total_switches() >= 4

    def test_core_idle_when_nothing_runnable(self, node):
        rt = Runtime(node, cores=node.cores[:1])
        def body():
            yield Sleep(50_000)   # long park; core should go idle
            yield Compute(100)
        rt.spawn(body())
        node.run()
        busy = node.cores[0].busy_ns()
        assert busy < 10_000, f"core busy {busy}ns during a pure sleep"


class TestIdleWakeup:
    def test_spawn_wakes_drained_scheduler(self, node):
        # Lost-wakeup regression for the scheduler's Gate.pulse() idle
        # loop: after the run queue drains and the scheduler parks on
        # its wake gate, a fresh spawn's pulse must still reach it.
        rt = Runtime(node, cores=node.cores[:1])
        def w(out):
            yield Compute(100)
            out.append(node.now)
        first, second = [], []
        rt.spawn(w(first))
        node.run()
        assert first, "first uthread never ran"
        rt.spawn(w(second))
        node.run()
        assert second, "lost wakeup: parked scheduler missed the pulse"

    def test_pulse_survives_many_drain_cycles(self, node):
        rt = Runtime(node, cores=node.cores[:2])
        done = []
        for cycle in range(5):
            def w(c=cycle):
                yield Compute(10)
                done.append(c)
            rt.spawn(w(), core=cycle % 2)
            node.run()
        assert done == [0, 1, 2, 3, 4]


class TestWatchdogRuntime:
    def test_work_stealing_with_watchdog_active(self, node):
        # The watchdog's scan timers must not perturb scheduling: an
        # idle core still steals, every uthread finishes, nothing trips.
        from repro.runtime import Watchdog
        rt = Runtime(node, cores=node.cores[:2], steal=True)
        wd = Watchdog(rt, default_budget_ns=50_000_000)
        ran_on = []
        def worker(i):
            yield Compute(5_000)
            ran_on.append(i)
        for i in range(6):
            rt.spawn(worker(i), core=0)
        node.run()
        assert len(ran_on) == 6
        assert rt.schedulers[1].steals > 0
        assert rt.overload_stats.watchdog_trips == 0
        assert not wd.reports

    class _Hang:
        """Syscall result whose completion never fires."""
        is_async = True
        continuation = None
        ctx = None

        def __init__(self, event):
            self.pending = event

    def test_hang_report_carries_trace_context(self, node):
        # With tracing on, the report names the hung syscall's trace op
        # and quotes the last thing it did before going quiet.
        from repro.obs import Tracer
        from repro.runtime import Watchdog
        node.engine.tracer = Tracer(node.engine)
        rt = Runtime(node, cores=node.cores[:1])
        wd = Watchdog(rt, grace_factor=2)
        hang = self._Hang

        def hang_op(ctx):
            ctx.trace_point("dma_submit", track="ch0", sn=1,
                            nbytes=4096, write=True)
            return hang(node.engine.event())
            yield  # pragma: no cover - makes ``hang_op`` a generator

        def body():
            yield Syscall(hang_op)
        ut = rt.spawn(body(), name="wedged", deadline=node.now + 5_000)
        node.run()
        report = wd.reports[0]
        assert report.trace_op is not None
        assert report.trace_op == ut.last_op_id
        assert "dma_submit" in report.last_trace_event
        rendered = report.render()
        assert f"trace: op {report.trace_op}" in rendered
        assert "dma_submit" in rendered

    def test_hang_report_without_tracer_omits_trace_line(self, node):
        from repro.runtime import Watchdog
        rt = Runtime(node, cores=node.cores[:1])
        wd = Watchdog(rt, grace_factor=2)
        hang = self._Hang

        def hang_op(ctx):
            return hang(node.engine.event())
            yield  # pragma: no cover

        def body():
            yield Syscall(hang_op)
        rt.spawn(body(), name="untraced", deadline=node.now + 5_000)
        node.run()
        report = wd.reports[0]
        assert report.trace_op is None
        assert report.last_trace_event is None
        assert "trace: op" not in report.render()


class TestEngineScopedNaming:
    """Uthread uids/names must be deterministic per run, not per process.

    The old class-level ``Uthread._seq`` leaked across engines: the
    second engine in a process handed out uids continuing wherever the
    first stopped, so names (and anything keyed on them -- watchdog
    reports, trace labels) depended on what happened to run before.
    """

    def _run_one(self):
        from repro.hw.platform import Platform, PlatformConfig
        node = Platform(PlatformConfig.single_node())
        rt = Runtime(node, cores=node.cores[:1])
        names = []

        def w(tag):
            yield Compute(10 * tag)

        uts = [rt.spawn(w(i)) for i in range(4)]
        node.run()
        names = [(ut.uid, ut.name) for ut in uts]
        return names

    def test_two_engines_same_run_are_identical(self):
        first = self._run_one()
        second = self._run_one()
        assert first == second
        assert first[0] == (1, "uthread-1")

    def test_name_seq_is_per_engine_and_per_kind(self):
        from repro.sim import Engine
        a, b = Engine(), Engine()
        assert [a.name_seq("uthread") for _ in range(3)] == [1, 2, 3]
        # A fresh engine starts over; a different kind has its own space.
        assert b.name_seq("uthread") == 1
        assert a.name_seq("other") == 1
