"""Overload robustness: admission control, deadlines, and the watchdog."""

import pytest

from repro.core import EasyIoFS
from repro.crash.crashmonkey import snapshot_with_content
from repro.faults import ChannelHaltFault, FaultPlan
from repro.fs import DeadlineExceeded, PMImage, file_bytes
from repro.fs.recovery import completion_buffer_validator, recover
from repro.hw.platform import Platform, PlatformConfig
from repro.runtime import (
    AdmissionController,
    OverloadRejected,
    Runtime,
    Syscall,
    Watchdog,
)
from repro.workloads.overload import OverloadConfig, run_overload
from tests.conftest import run_proc


class TestAdmissionController:
    def test_bad_policy_rejected(self, engine):
        with pytest.raises(ValueError):
            AdmissionController(engine, policy="panic")
        with pytest.raises(ValueError):
            AdmissionController(engine, rate_ops_per_sec=0)
        with pytest.raises(ValueError):
            AdmissionController(engine, burst=0)

    def test_token_bucket_refills_with_sim_time(self, engine):
        # 1 token per microsecond, burst of 2.
        ac = AdmissionController(engine, rate_ops_per_sec=1e6, burst=2)
        assert ac.admit() == "admit"
        assert ac.admit() == "admit"
        assert ac.admit() == "reject"
        engine.run(until=1000)  # one microsecond later: one token back
        assert ac.admit() == "admit"
        assert ac.admit() == "reject"
        assert ac.stats.admitted == 3 and ac.stats.rejected == 2

    def test_bucket_never_exceeds_burst(self, engine):
        ac = AdmissionController(engine, rate_ops_per_sec=1e9, burst=4)
        engine.run(until=1_000_000)
        assert ac.tokens == 4.0

    def test_inflight_cap_and_release(self, engine):
        ac = AdmissionController(engine, max_inflight=1)
        assert ac.admit() == "admit"
        assert ac.admit() == "reject"
        ac.release()
        assert ac.admit() == "admit"
        ac.release()
        with pytest.raises(RuntimeError):
            ac.release()

    def test_queue_depth_gate(self, engine):
        depth = [0]
        ac = AdmissionController(engine, max_queue_depth=4,
                                 depth_fn=lambda: depth[0])
        assert ac.admit() == "admit"
        depth[0] = 4
        assert ac.admit() == "reject"
        depth[0] = 3
        assert ac.admit() == "admit"

    def test_degrade_policy_admits_synchronously(self, engine):
        ac = AdmissionController(engine, max_inflight=0, policy="degrade")
        assert ac.admit() == "degrade"
        assert ac.stats.admitted == 1 and ac.stats.rejected == 0

    def test_shed_spares_high_priority(self, engine):
        ac = AdmissionController(engine, max_inflight=0, policy="shed",
                                 shed_priority=0)
        assert ac.admit(priority=0) == "reject"
        assert ac.admit(priority=1) == "admit"
        assert ac.stats.shed == 1 and ac.stats.admitted == 1

    def test_rejected_syscall_raises_in_uthread(self, node):
        fs = EasyIoFS(node).mount()
        ac = AdmissionController(node.engine, max_inflight=0)
        rt = Runtime(node, cores=node.cores[:1], admission=ac)
        outcome = []
        def body():
            try:
                yield Syscall(lambda ctx: fs.create(ctx, "/f"))
            except OverloadRejected:
                outcome.append("rejected")
                return
            outcome.append("ok")
        rt.spawn(body())
        node.run()
        assert outcome == ["rejected"]
        assert rt.overload_stats.rejected == 1
        assert rt.active_uthreads == 0  # the scheduler survived the throw


class TestDeadlines:
    def _fs_rt(self, node):
        fs = EasyIoFS(node).mount()
        rt = Runtime(node, cores=node.cores[:1])
        return fs, rt

    def test_generous_deadline_is_invisible(self, node):
        fs, rt = self._fs_rt(node)
        outcome = []
        def body():
            ino = yield Syscall(lambda ctx: fs.create(ctx, "/f"))
            yield Syscall(lambda ctx: fs.write(ctx, ino, 0, 65536))
            outcome.append("ok")
        rt.spawn(body(), deadline=node.now + 1_000_000_000)
        node.run()
        assert outcome == ["ok"]
        assert rt.overload_stats.deadline_misses == 0

    def test_expired_deadline_raises_cleanly(self, node):
        fs, rt = self._fs_rt(node)
        ino = run_proc(node.engine, fs.create(fs.context(), "/f"))
        outcome = []
        def body():
            try:
                yield Syscall(lambda ctx: fs.write(ctx, ino, 0, 65536))
            except DeadlineExceeded:
                outcome.append("miss")
                return
            outcome.append("ok")
        rt.spawn(body(), deadline=node.now)  # already expired
        node.run()
        assert outcome == ["miss"]
        assert rt.overload_stats.deadline_misses == 1
        # The file lock must not be leaked by the aborted op.
        m = fs._mem[ino]
        assert not m.lock.held_exclusive and m.lock.reader_count == 0

    def test_thin_budget_degrades_to_sync(self, node):
        fs, rt = self._fs_rt(node)
        ino = run_proc(node.engine, fs.create(fs.context(), "/f"))
        outcome = []
        def body():
            r = yield Syscall(lambda ctx: fs.write(ctx, ino, 0, 262144))
            outcome.append(r.value)
        # Enough budget to finish a memcpy write, too thin to make
        # offloading worthwhile (below DEADLINE_MIN_ASYNC_NS).
        rt.spawn(body(), deadline=node.now + fs.DEADLINE_MIN_ASYNC_NS - 1)
        node.run()
        assert outcome == [262144] or rt.overload_stats.deadline_misses
        assert fs.overload_stats.degraded_to_sync >= 1


class TestWatchdog:
    class _Hang:
        """Syscall result whose completion never fires."""
        is_async = True
        continuation = None
        def __init__(self, event):
            self.pending = event

    def _hang_op(self, event):
        def op(ctx):
            return TestWatchdog._Hang(event)
            yield  # pragma: no cover - makes ``op`` a generator
        return op

    def test_hung_uthread_trips_and_engine_drains(self, node):
        rt = Runtime(node, cores=node.cores[:1])
        wd = Watchdog(rt, grace_factor=3)
        def body():
            yield Syscall(self._hang_op(node.engine.event()))
        ut = rt.spawn(body(), name="stuck", deadline=node.now + 5_000)
        node.run()  # must return: a hang may not become an infinite loop
        assert rt.overload_stats.watchdog_trips == 1
        assert ut.watchdog_flagged
        report = wd.reports[0]
        assert report.uthread == "stuck"
        assert report.time >= 15_000  # grace_factor x the 5 us budget
        assert "stuck" in report.render()
        assert any(u["io_parked"] for u in report.uthreads)
        # After flagging, the watchdog holds no timers: time stops.
        assert node.now <= 200_000

    def test_default_budget_covers_deadline_less_uthreads(self, node):
        rt = Runtime(node, cores=node.cores[:1])
        wd = Watchdog(rt, default_budget_ns=2_000, grace_factor=2)
        def body():
            yield Syscall(self._hang_op(node.engine.event()))
        rt.spawn(body(), name="nodl")  # no deadline
        node.run()
        assert rt.overload_stats.watchdog_trips == 1
        assert wd.reports[0].budget_ns == 2_000

    def test_unbudgeted_uthreads_are_not_watched(self, node):
        rt = Runtime(node, cores=node.cores[:1])
        Watchdog(rt)  # no default budget
        def body():
            yield Syscall(self._hang_op(node.engine.event()))
        rt.spawn(body())  # no deadline either: nothing to judge against
        node.run()
        assert rt.overload_stats.watchdog_trips == 0

    def test_healthy_deadlined_uthreads_never_trip(self, node):
        fs = EasyIoFS(node).mount()
        rt = Runtime(node, cores=node.cores[:2])
        wd = Watchdog(rt)
        def body(i):
            ino = yield Syscall(lambda ctx, i=i: fs.create(ctx, f"/f{i}"))
            yield Syscall(lambda ctx, ino=ino: fs.write(ctx, ino, 0, 65536))
        for i in range(4):
            rt.spawn(body(i), deadline=node.now + 50_000_000)
        node.run()
        assert rt.active_uthreads == 0
        assert rt.overload_stats.watchdog_trips == 0
        assert not wd.reports


class TestDeadlineUnderFaults:
    """A channel halt inside a deadlined write must end exactly one way:
    the op completes (failover / degradation made it) or it raises a
    clean ``DeadlineExceeded`` -- it must never hang the runtime."""

    # 2 us expires pre-submit (clean miss); 30 us and 10 ms both ride
    # the halt out via SN-safe failover (success) -- the two legal ends.
    @pytest.mark.parametrize("deadline_us", [2, 30, 10_000])
    def test_halt_during_deadlined_write(self, deadline_us):
        platform = Platform(PlatformConfig.single_node())
        fs = EasyIoFS(platform, PMImage()).mount()
        FaultPlan(seed=3, schedule=(
            ChannelHaltFault(channel_id=0, at_sn=1),
            ChannelHaltFault(channel_id=1, at_sn=1),
        )).install(platform, image=fs.image)
        rt = Runtime(platform, cores=platform.cores[:1])
        Watchdog(rt, grace_factor=10)
        payload = b"\xab" * (256 * 1024)
        outcome = []
        created = []
        def body():
            ino = yield Syscall(lambda ctx: fs.create(ctx, "/f"))
            created.append(ino)
            try:
                yield Syscall(lambda ctx: fs.write(ctx, ino, 0,
                                                   len(payload), payload))
            except DeadlineExceeded:
                outcome.append("miss")
                return
            outcome.append("ok")
        rt.spawn(body(), deadline=platform.engine.now + deadline_us * 1000)
        platform.engine.run()
        assert rt.active_uthreads == 0, "deadlined write hung the runtime"
        assert outcome in (["ok"], ["miss"])
        if outcome == ["ok"]:
            # Success must mean the bytes really landed (degraded memcpy
            # or SN-safe failover -- either way, full payload).
            m = fs._mem[created[0]]
            assert file_bytes(fs.image, m, 0, m.size) == payload

    def test_crash_legality_of_deadline_aborted_write(self):
        """A write aborted by ``DeadlineExceeded`` publishes no partial
        mutations, so every crash point of the log recovers legally."""
        platform = Platform(PlatformConfig.single_node())
        fs = EasyIoFS(platform, PMImage(record=True)).mount()
        image = fs.image
        engine = platform.engine
        a = b"\x11" * (128 * 1024)
        state = {}

        def main():
            ino = yield from fs.create(fs.context(), "/f")
            state["ino"] = ino
            r = yield from fs.write(fs.context(), ino, 0, len(a), a)
            if r.is_async:
                yield r.pending
            state["committed_log"] = len(image.mutations)
            ctx = fs.context(deadline=engine.now)  # already expired
            with pytest.raises(DeadlineExceeded):
                yield from fs.write(ctx, ino, 0, len(a), b"\x22" * len(a))
        run_proc(engine, main())
        # The aborted op added nothing to the persist log.
        assert len(image.mutations) == state["committed_log"]

        # Every crash point (sampled) recovers to a legal state, and a
        # full replay recovers the committed content.
        total = image.crash_points()
        final = None
        for k in range(0, total + 1, max(1, total // 16)):
            img = image.replay(k)
            rec = recover(img, completion_buffer_validator(img))
            final = snapshot_with_content(rec.inodes, img) \
                if k == total else final
        img = image.replay(total)
        inodes = recover(img, completion_buffer_validator(img)).inodes
        snap = snapshot_with_content(inodes, img)
        assert snap.get("/f", (None, 0, None))[1] == len(a)
        m2 = inodes[state["ino"]]
        assert file_bytes(img, m2, 0, m2.size) == a


class TestOverloadWorkload:
    def test_small_run_is_deterministic(self):
        cfg = dict(arrival_rate_ops_per_sec=400_000, duration_us=400,
                   deadline_us=200, admission_policy="reject",
                   max_queue_depth=8, seed=7)
        r1 = run_overload(OverloadConfig(**cfg))
        r2 = run_overload(OverloadConfig(**cfg))
        assert r1.offered == r2.offered
        assert (r1.completed, r1.rejected, r1.deadline_missed) == \
               (r2.completed, r2.rejected, r2.deadline_missed)
        assert r1.p99_us == r2.p99_us

    def test_outcomes_account_for_every_arrival(self):
        r = run_overload(OverloadConfig(
            arrival_rate_ops_per_sec=500_000, duration_us=400,
            deadline_us=150, admission_policy="shed", max_queue_depth=8,
            priority_fraction=0.3, seed=11, watchdog=True))
        assert (r.completed + r.rejected + r.deadline_missed + r.failed
                == r.offered)
        assert r.stats.shed == r.rejected
        assert not r.hang_reports
