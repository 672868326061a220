"""Fault tolerance: EasyIO under injected DMA/PM faults.

Not a figure from the paper -- a robustness claim the artifact adds on
top of it: under transfer errors, CHANERR channel halts, media faults,
and transient bandwidth loss, EasyIO completes **every** I/O with zero
data loss (read-back equals written bytes) via bounded retry, SN-safe
channel failover, and graceful degradation to memcpy; and CrashMonkey
still passes 1000/1000 crash points when the crash points land inside
the retry/failover windows.
"""

from dataclasses import asdict

from benchmarks.conftest import run_once, show
from repro.analysis.report import banner, fmt_table
from repro.crash import CRASH_WORKLOADS, run_crash_test
from repro.faults import ChannelHaltFault, FaultPlan, TransferErrorFault
from repro.fs import file_bytes
from repro.hw.platform import Platform, PlatformConfig
from repro.workloads.factory import make_fs

CRASH_POINTS = 1000
FILES = 4
WRITES_PER_FILE = 12
NBYTES = 256 * 1024


def _payload(tag: int, nbytes: int) -> bytes:
    return (f"{tag:08x}".encode() * ((nbytes // 8) + 1))[:nbytes]


def _run_workload(plan_kwargs, fault_tolerant=None, stop_cm=False):
    """Concurrent multi-file write workload + full read-back check.

    Returns (fs, plan, makespan_ns, completed_ops).
    """
    platform = Platform(PlatformConfig.single_node())
    fs = make_fs("easyio", platform, fault_tolerant=fault_tolerant)
    plan = FaultPlan(**plan_kwargs)
    plan.install(platform, image=fs.image)
    completed = []

    def writer(fidx: int, ino: int):
        for i in range(WRITES_PER_FILE):
            tag = fidx * WRITES_PER_FILE + i
            r = yield from fs.write(fs.context(record=False), ino,
                                    i * NBYTES, NBYTES, _payload(tag, NBYTES))
            assert r.value == NBYTES
            if r.is_async:
                yield r.pending
            completed.append(tag)

    def main():
        inos = []
        for fidx in range(FILES):
            ino = yield from fs.create(fs.context(record=False), f"/f{fidx}")
            inos.append(ino)
        procs = [platform.engine.process(writer(fidx, ino))
                 for fidx, ino in enumerate(inos)]
        for p in procs:
            yield p
        # Zero data loss: every file reads back exactly what was written.
        for fidx, ino in enumerate(inos):
            m = fs._mem[ino]
            data = file_bytes(fs.image, m, 0, m.size)
            expected = b"".join(
                _payload(fidx * WRITES_PER_FILE + i, NBYTES)
                for i in range(WRITES_PER_FILE))
            assert data == expected, f"/f{fidx}: read-back mismatch"
        if stop_cm:
            fs.cm.stop()

    proc = platform.engine.process(main())
    platform.engine.run()
    assert not proc.is_alive, "workload stalled under faults"
    if not proc.ok:
        raise proc.value
    return fs, plan, platform.engine.now, len(completed)


def reproduce():
    out = {}
    # Baseline: perfect hardware (supervision forced on, so the
    # comparison isolates the cost of faults, not of supervision).
    _fs, _plan, t_clean, _n = _run_workload(dict(seed=0),
                                            fault_tolerant=True)
    out["clean_ns"] = t_clean

    # Headline: a channel halt mid-workload plus a sprinkle of soft
    # and media faults.  All I/O must complete with correct contents.
    fs, plan, t_faulty, n_ops = _run_workload(dict(
        seed=1, p_xfer_error=0.03, p_media=0.03, max_faults=24,
        schedule=(ChannelHaltFault(channel_id=0, at_sn=4),
                  TransferErrorFault(channel_id=1, at_sn=6))))
    out["halt"] = (fs.fault_stats, plan, t_faulty, n_ops)

    # Worst case: every channel halts on its first descriptor, forever.
    # The system must stay live by degrading to memcpy.
    fs2, plan2, t_dead, n2 = _run_workload(
        dict(seed=2, p_chan_halt=1.0, max_faults=10**9),
        fault_tolerant=True, stop_cm=True)
    out["dead"] = (fs2.fault_stats, plan2, t_dead, n2)

    # Crash consistency with crash points inside retry/failover windows.
    out["crash"] = {
        wl: run_crash_test(
            "easyio", wl, crash_points=CRASH_POINTS,
            fault_plan=lambda: FaultPlan(
                seed=42, p_xfer_error=0.02, p_media=0.02, max_faults=24,
                schedule=(ChannelHaltFault(0, 5), TransferErrorFault(1, 9))))
        for wl in sorted(CRASH_WORKLOADS)}
    return out


def test_fault_tolerance(benchmark):
    out = run_once(benchmark, reproduce)
    total_ops = FILES * WRITES_PER_FILE

    stats, plan, t_faulty, n_ops = out["halt"]
    show(banner("EasyIO under a mid-workload channel halt (+ soft/media "
                "faults)"))
    show(fmt_table(["counter", "value"],
                   sorted(asdict(stats).items())))
    slowdown = t_faulty / out["clean_ns"]
    show(f"completed ops: {n_ops}/{total_ops}   "
         f"makespan: {t_faulty} ns vs clean {out['clean_ns']} ns "
         f"({slowdown:.2f}x)")
    assert n_ops == total_ops, "I/O was lost under faults"
    assert stats.channel_halts >= 1 and stats.channel_resets >= 1
    assert stats.failovers >= 1, "the halt must trigger SN-safe failover"
    assert stats.retries >= 1
    assert stats.availability(n_ops) == 1.0

    dead_stats, _plan2, t_dead, n2 = out["dead"]
    show(banner("Graceful degradation: every channel dead"))
    show(fmt_table(["counter", "value"],
                   sorted(asdict(dead_stats).items())))
    assert n2 == total_ops, "I/O was lost with all channels dead"
    assert dead_stats.degraded_writes >= 1
    assert dead_stats.degraded_bytes > 0

    show(banner("CrashMonkey under faults (crash points inside "
                "retry/failover windows)"))
    rows = []
    for wl, report in out["crash"].items():
        rows.append([wl, report.total_crash_points, report.passed])
        assert report.all_passed, \
            f"{wl}: {len(report.failures)} failures, " \
            f"e.g. {report.failures[:3]}"
        assert report.total_crash_points >= 900
    show(fmt_table(["workload", "crash points", "passed"], rows))
