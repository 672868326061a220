"""Tests for the fault-injection layer (repro.faults) and EasyIO's
fault-tolerance paths: retry, channel failover, quarantine/readmit,
graceful degradation, media-fault detection, and crash consistency
under faults."""

from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.easyio import EasyIoFS
from repro.crash.crashmonkey import run_crash_test
from repro.faults import (BandwidthFault, ChannelHaltFault, FaultPlan,
                          MediaFault, TransferErrorFault)
from repro.fs.pmimage import PMImage, file_bytes
from repro.fs.recovery import completion_buffer_validator
from repro.fs.structures import WriteEntry
from repro.hw.dma import DmaDescriptor
from repro.hw.platform import Platform, PlatformConfig
from repro.obs.trace import Tracer
from tests.conftest import run_proc


def _payload(tag: int, nbytes: int) -> bytes:
    return (f"{tag:08x}".encode() * ((nbytes // 8) + 1))[:nbytes]


def _faulty_fs(plan_kwargs, **fs_kwargs):
    platform = Platform(PlatformConfig.single_node())
    image = PMImage(record=True)
    fs = EasyIoFS(platform, image, **fs_kwargs)
    fs.mount()
    plan = FaultPlan(**plan_kwargs)
    plan.install(platform, image=image)
    return platform, fs, plan


def _write_n(fs, nops=12, nbytes=256 * 1024):
    """Workload driver: create one file, write ``nops`` extents, wait
    each out, then read back and compare against what was written."""
    ino = yield from fs.create(fs.context(record=False), "/f")
    for i in range(nops):
        r = yield from fs.write(fs.context(record=False), ino,
                                i * nbytes, nbytes, _payload(i, nbytes))
        assert r.value == nbytes
        if r.is_async:
            yield r.pending
    m = fs._mem[ino]
    data = file_bytes(fs.image, m, 0, m.size)
    assert data == b"".join(_payload(i, nbytes) for i in range(nops)), \
        "read-back differs from written bytes"
    return ino


class TestFaultPlan:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(p_xfer_error=1.5)
        with pytest.raises(ValueError):
            FaultPlan(p_chan_halt=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(max_faults=-1)

    def test_unknown_schedule_entry_rejected(self):
        with pytest.raises(TypeError):
            FaultPlan(schedule=("boom",))

    def test_schedule_entry_validation(self):
        # The shared validators (also used by net.NetFaultPlan) reject
        # malformed windows and conflicting per-resource schedules.
        with pytest.raises(ValueError, match="channel_id"):
            FaultPlan(schedule=(TransferErrorFault(-1, 1),))
        with pytest.raises(ValueError, match="at_sn"):
            FaultPlan(schedule=(ChannelHaltFault(0, at_sn=0),))
        with pytest.raises(ValueError, match="conflicting scheduled"):
            FaultPlan(schedule=(TransferErrorFault(0, 3),
                                ChannelHaltFault(0, at_sn=3)))
        with pytest.raises(ValueError, match="at_write"):
            FaultPlan(schedule=(MediaFault(at_write=0),))
        with pytest.raises(ValueError, match="start_ns"):
            FaultPlan(schedule=(BandwidthFault(-5, 100, 0.5),))
        with pytest.raises(ValueError, match="factor"):
            FaultPlan(schedule=(BandwidthFault(0, 100, 1.5),))
        with pytest.raises(ValueError, match="overlapping bandwidth"):
            FaultPlan(schedule=(BandwidthFault(0, 200, 0.5),
                                BandwidthFault(100, 200, 0.25)))
        # Back-to-back windows and distinct channels are legal.
        FaultPlan(schedule=(BandwidthFault(0, 100, 0.5),
                            BandwidthFault(100, 100, 0.25),
                            TransferErrorFault(0, 3),
                            ChannelHaltFault(1, at_sn=3)))

    def test_scheduled_faults_ignore_budget(self, node):
        plan = FaultPlan(schedule=(TransferErrorFault(0, 1),), max_faults=0)
        plan.install(node)
        def body():
            d = DmaDescriptor(65536, write=True)
            yield from node.dma.channel(0).submit([d])
            yield d.done
            return d.status
        assert run_proc(node.engine, body()) == "error"
        assert plan.injected["xfer_error"] == 1

    def test_budget_caps_probabilistic_faults(self, node):
        plan = FaultPlan(seed=1, p_xfer_error=1.0, max_faults=2)
        plan.install(node)
        def body():
            ch = node.dma.channel(0)
            statuses = []
            for _ in range(6):
                d = DmaDescriptor(65536, write=True)
                yield from ch.submit([d])
                yield d.done
                statuses.append(d.status)
            return statuses
        statuses = run_proc(node.engine, body())
        assert statuses.count("error") == 2
        assert statuses[2:] == ["ok"] * 4, "budget exhausted => perfect hw"


class TestDmaFaultSemantics:
    def test_transfer_error_skips_completion(self, node):
        """A failed SN is never covered by its own service; a later
        success jumps the buffer past it, and the SN is poisoned."""
        plan = FaultPlan(schedule=(TransferErrorFault(0, 1),))
        plan.install(node)
        ch = node.dma.channel(0)
        def body():
            d1 = DmaDescriptor(65536, write=True)
            d2 = DmaDescriptor(65536, write=True)
            yield from ch.submit([d1, d2])
            yield d1.done
            assert d1.status == "error" and ch.completion_sn == 0
            yield d2.done
        run_proc(node.engine, body())
        assert ch.completion_sn == 2, "completion jumps past the failed SN"
        assert ch.error_sns == {1}
        assert not ch.halted

    def test_halt_strands_ring_until_reset(self, node):
        plan = FaultPlan(schedule=(ChannelHaltFault(0, 1),))
        plan.install(node)
        ch = node.dma.channel(0)
        ch.on_halt = None   # take over CHANERR handling in the test
        reported = []
        ch.on_error = ch.on_reset = lambda c, sns: reported.extend(sns)
        def body():
            descs = [DmaDescriptor(65536, write=True) for _ in range(3)]
            yield from ch.submit(descs)
            yield descs[0].done
            assert ch.halted and ch.error_sn == 1 and ch.chanerr == "chan_halt"
            yield node.engine.timeout(500_000)
            assert not descs[1].done.triggered, "halted channel kept serving"
            stranded = ch.reset()
            assert [d.sn for d in stranded] == [2, 3]
            assert all(d.status == "stranded" for d in stranded)
            return descs
        run_proc(node.engine, body())
        assert not ch.halted and ch.resets == 1
        assert sorted(reported) == [1, 2, 3], \
            "every failed/stranded SN must be reported for poisoning"
        assert ch.queue_depth == 0

    def test_fault_plan_installed_on_busy_channel(self, node):
        """A plan installed mid-flight applies to every descriptor not
        yet served, without disturbing FIFO completion or SN order."""
        ch = node.dma.channel(0)
        consulted = []

        class RecordingPlan(FaultPlan):
            def descriptor_fault(self, channel, desc):
                consulted.append(desc.sn)
                return super().descriptor_fault(channel, desc)

        log = []
        ch.on_error = lambda c, sns: log.append(("error", sns))
        ch.on_completion = lambda c: log.append(("complete",
                                                 c.completion_sn))
        def body():
            descs = [DmaDescriptor(65536, write=True) for _ in range(6)]
            done_order = []
            yield from ch.submit(descs)
            for d in descs:
                d.done.add_callback(lambda ev: done_order.append(ev.value.sn))
            yield descs[0].done
            ch.fault_plan = RecordingPlan(
                schedule=(TransferErrorFault(0, 5),))
            for d in descs[1:]:
                yield d.done
            return descs, done_order
        descs, done_order = run_proc(node.engine, body())
        assert done_order == [1, 2, 3, 4, 5, 6], "completions stay FIFO"
        assert consulted == [2, 3, 4, 5, 6], \
            "every descriptor fetched after the install is fault-checked"
        assert [d.status for d in descs] == ["ok"] * 4 + ["error", "ok"]
        completed = [sn for kind, sn in log if kind == "complete"]
        assert completed == [1, 2, 3, 4, 6], "completion SN is monotonic"
        assert log.index(("error", (5,))) < log.index(("complete", 6)), \
            "the failed SN is reported before a completion covers it"
        assert ch.error_sns == {5} and ch.queue_depth == 0

    def test_halted_channel_serves_again_after_reset(self, node):
        plan = FaultPlan(schedule=(ChannelHaltFault(0, 1),))
        plan.install(node)
        ch = node.dma.channel(0)
        ch.on_halt = None
        def body():
            d1 = DmaDescriptor(65536, write=True)
            yield from ch.submit([d1])
            yield d1.done
            ch.reset()
            d2 = DmaDescriptor(65536, write=True)
            yield from ch.submit([d2])
            yield d2.done
            return d2.status
        assert run_proc(node.engine, body()) == "ok"
        assert ch.completion_sn == 2

    def test_bandwidth_degradation_window(self, node):
        """Inside the window transfers run slower; afterwards the base
        capacities are restored."""
        def timed(plan):
            plat = Platform(PlatformConfig.single_node())
            if plan is not None:
                plan.install(plat)
            ch = plat.dma.channel(0)
            def body():
                d = DmaDescriptor(1 << 20, write=True)
                yield from ch.submit([d])
                yield d.done
            t0 = plat.engine.now
            run_proc(plat.engine, body())
            return plat.engine.now - t0, plat.memory
        base, _ = timed(None)
        slowed, memory = timed(FaultPlan(schedule=(
            BandwidthFault(start_ns=0, duration_ns=10**9, factor=0.25),)))
        assert slowed > base * 2
        assert memory.degradation == (1.0, 1.0), \
            "base capacities restored once the window closes"
        restored, memory = timed(FaultPlan(schedule=(
            BandwidthFault(start_ns=0, duration_ns=1, factor=0.25),)))
        assert restored == pytest.approx(base, rel=0.05), \
            "a transfer after the window runs at full speed"

    def test_set_degradation_validates_and_scales(self, node):
        node.memory.set_degradation(0.5, 0.25)
        assert node.memory.degradation == (0.5, 0.25)
        node.memory.set_degradation(1.0, 1.0)
        assert node.memory.degradation == (1.0, 1.0)
        with pytest.raises(ValueError):
            node.memory.set_degradation(0.0, 1.0)
        with pytest.raises(ValueError):
            node.memory.set_degradation(1.0, 1.5)


class TestEasyIoRetry:
    def test_soft_error_retried_on_same_channel(self):
        platform, fs, plan = _faulty_fs(
            dict(seed=7, schedule=(TransferErrorFault(0, 2),)))
        run_proc(platform.engine, _write_n(fs))
        stats = fs.fault_stats
        assert stats.transfer_errors == 1
        assert stats.retries == 1
        assert stats.failovers == 0, "a soft error retries in place"
        assert stats.degraded_writes == 0

    def test_halt_fails_over_and_amends_log(self):
        platform, fs, plan = _faulty_fs(
            dict(seed=7, schedule=(ChannelHaltFault(0, 2),)))
        ino = run_proc(platform.engine, _write_n(fs))
        stats = fs.fault_stats
        assert stats.channel_halts == 1
        assert stats.failovers >= 1
        assert stats.channel_resets == 1
        assert stats.quarantines == 1
        assert stats.readmissions == 1, "probe readmits the reset channel"
        # The failed SN is poisoned in the persistent image, and the
        # owning entry's SNs were amended to the failover target.
        assert 2 in fs.image.channel_error_sns[0]
        for entry in fs.image.logs[ino]:
            if isinstance(entry, WriteEntry):
                for chid, sn in entry.sns:
                    assert sn not in fs.image.channel_error_sns.get(chid, ())

    def test_repeated_errors_quarantine_channel(self):
        platform, fs, plan = _faulty_fs(
            dict(seed=7, schedule=tuple(TransferErrorFault(0, sn)
                                        for sn in range(1, 9))))
        run_proc(platform.engine, _write_n(fs))
        stats = fs.fault_stats
        assert stats.quarantines >= 1
        assert stats.readmissions >= 1
        assert not any(h.quarantined for h in fs.cm._health.values()), \
            "probes must readmit once faults stop"

    def test_all_channels_halted_degrades_to_memcpy(self):
        """Kill every channel's first descriptor forever: EasyIO must
        still complete all I/O with correct contents via memcpy."""
        platform, fs, plan = _faulty_fs(
            dict(seed=3, p_chan_halt=1.0, max_faults=10**9),
            fault_tolerant=True)
        nops, nbytes = 6, 256 * 1024
        def body():
            yield from _write_n(fs, nops=nops, nbytes=nbytes)
            fs.cm.stop()   # halted channels never readmit; let it drain
        run_proc(platform.engine, body())
        stats = fs.fault_stats
        assert stats.degraded_writes >= 1
        assert stats.degraded_bytes > 0

    def test_media_faults_detected_and_rewritten(self):
        platform, fs, plan = _faulty_fs(
            dict(seed=5, schedule=(MediaFault(at_write=3),
                                   MediaFault(at_write=7))))
        run_proc(platform.engine, _write_n(fs))
        assert fs.fault_stats.media_faults_detected == 2
        assert plan.injected["media"] == 2

    def test_fault_free_run_keeps_counters_zero(self):
        platform, fs, plan = _faulty_fs(dict(seed=9))
        run_proc(platform.engine, _write_n(fs))
        assert not any(asdict(fs.fault_stats).values())
        assert plan.trace == []


class TestLevel2UnderFaults:
    """Under a fault plan the level-2 check waits for the supervisor's
    all-data-landed event, which resolves through failover or
    degradation even when the original channel never completes."""

    @pytest.mark.parametrize("plan_kwargs,fs_kwargs,resolved_by", [
        (dict(seed=7, schedule=(ChannelHaltFault(0, 1),)), {},
         "failovers"),
        (dict(seed=3, p_chan_halt=1.0, max_faults=10**9),
         dict(fault_tolerant=True), "degraded_writes"),
    ], ids=["failover", "degradation"])
    def test_second_write_waits_for_supervisor(self, plan_kwargs,
                                               fs_kwargs, resolved_by):
        platform, fs, plan = _faulty_fs(plan_kwargs, **fs_kwargs)
        engine = platform.engine
        engine.tracer = Tracer(engine)
        nbytes = 256 * 1024
        resolved_at = []

        def body():
            ino = yield from fs.create(fs.context(record=False), "/f")
            r1 = yield from fs.write(fs.context(), ino, 0, nbytes,
                                     _payload(1, nbytes))
            supervised = fs._mem[ino].pending_done
            assert supervised is r1.pending and not supervised.triggered
            supervised.add_callback(lambda _e: resolved_at.append(engine.now))
            r2 = yield from fs.write(fs.context(), ino, nbytes, nbytes,
                                     _payload(2, nbytes))
            if r2.is_async:
                yield r2.pending
            fs.cm.stop()   # halted channels may never readmit
            return ino

        ino = run_proc(engine, body())
        assert getattr(fs.fault_stats, resolved_by) >= 1
        # The only level-2 wait (the second write's) ends at the instant
        # the supervisor resolves -- not when the original channel
        # eventually completes its stranded SN.
        assert [e.t for e in engine.tracer.events
                if e.name == "level2" and e.ph == "E"] == resolved_at
        m = fs._mem[ino]
        assert file_bytes(fs.image, m, 0, m.size) == \
            _payload(1, nbytes) + _payload(2, nbytes)


class TestRecoveryUnderFaults:
    def test_validator_rejects_poisoned_sn(self):
        """A poisoned SN is invalid even though the completion buffer
        jumped past it (the failover soundness rule)."""
        image = PMImage()
        image.update_completion_buffer(0, 10)
        image.record_channel_errors(0, (4,))
        validator = completion_buffer_validator(image)
        ok = WriteEntry(pgoff=0, page_ids=(1,), size_after=4096, mtime=0,
                        sns=((0, 5),))
        poisoned = WriteEntry(pgoff=0, page_ids=(2,), size_after=4096,
                              mtime=0, sns=((0, 4),))
        uncovered = WriteEntry(pgoff=0, page_ids=(3,), size_after=4096,
                               mtime=0, sns=((0, 11),))
        assert validator(ok.sns)
        assert not validator(poisoned.sns)
        assert not validator(uncovered.sns)

    def test_crash_points_in_retry_and_failover_windows(self):
        """CrashMonkey under injected faults: every crash point --
        including those inside retry/failover windows -- must recover
        to a legal state."""
        report = run_crash_test(
            "easyio", "create_delete", crash_points=120,
            fault_plan=lambda: FaultPlan(
                seed=42, p_xfer_error=0.02, p_media=0.02, max_faults=24,
                schedule=(ChannelHaltFault(0, 5), TransferErrorFault(1, 9))))
        assert report.all_passed, report.failures[:5]


class TestDeterminism:
    """Satellite: same seed => identical event trace and counters."""

    @staticmethod
    def _run(seed):
        platform, fs, plan = _faulty_fs(
            dict(seed=seed, p_xfer_error=0.05, p_chan_halt=0.01,
                 p_media=0.05, max_faults=16))
        run_proc(platform.engine, _write_n(fs))
        return plan.trace, asdict(fs.fault_stats), platform.engine.now

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_seed_same_trace_and_counters(self, seed):
        trace1, stats1, end1 = self._run(seed)
        trace2, stats2, end2 = self._run(seed)
        assert trace1 == trace2
        assert stats1 == stats2
        assert end1 == end2

    def test_different_seeds_diverge(self):
        """Not a hard guarantee for any pair, but these two must not
        collide (they differ in the very first descriptor draw)."""
        traces = {tuple(self._run(seed)[0]) for seed in range(6)}
        assert len(traces) > 1
