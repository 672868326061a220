"""Execute one scenario tuple with every bug detector armed.

One :func:`run_scenario` call is the fuzzer's fitness function.  It
runs the tuple's op schedule on a traced, line-recording platform with
the tuple's fault plan and admission/deadline config installed, then
turns four independent detectors loose on the execution:

1. **trace oracles** -- the full :class:`~repro.obs.TraceChecker` set
   over the recorded stream (ack-implies-durable, SN ordering,
   span causality, deadline finality, ...);
2. **crash plans** -- the :class:`~repro.crash.plans.CrashPlanner`'s
   mechanism-pruned crash states replayed through recovery, checked by
   the mechanism oracles *and* per-op state legality;
3. **differential vs NOVA** -- the schedule's *effective* ops (those
   that verifiably committed) replayed on a clean synchronous NOVA
   instance; final contents, sizes, and every successful read's bytes
   must match byte-for-byte;
4. **cluster oracles** -- when the net dimension is enabled, a bounded
   replication run under the tuple's :class:`NetFaultPlan`, checked by
   the three cluster invariants.

Plus two implicit detectors: a drained engine with a live workload
process is a **hang**, and any unexpected exception out of the
simulation is an **exception** finding.

Everything is deterministic: the engine is seeded and single-threaded,
payloads derive from per-op seeds, and the crash planner samples from
the tuple's crash seed -- ``run_scenario`` is a pure function of
``(tuple, mutant)``, which is what makes campaign results independent
of worker count.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

from repro.crash.crashmonkey import (SnapshotTree, check_plans,
                                     snapshot_with_content)
from repro.crash.plans import CrashPlanner
from repro.fs.nova import DeadlineExceeded, FsError
from repro.fs.pmimage import PMImage
from repro.hw.platform import Platform, PlatformConfig
from repro.obs import TraceChecker, Tracer, default_tracing
from repro.obs.coverage import (ack_gap_buckets, counter_buckets,
                                trace_vocabulary)
from repro.runtime.admission import OverloadStats
from repro.sim.engine import WaitTimeout
from repro.workloads.factory import make_fs
from repro.workloads.fxmark import settle

from repro.fuzz.tuples import FAULT_TOLERANT_KINDS, ScenarioTuple

#: Detector names as they appear in findings.
DETECTORS = ("trace", "crash", "differential", "cluster", "hang",
             "exception")


@dataclass(frozen=True)
class Finding:
    """One detected failure, replayable from the owning tuple."""

    detector: str
    check: str
    detail: str
    plan: Optional[str] = None

    def as_tuple(self) -> Tuple:
        return (self.detector, self.check, self.detail, self.plan)


@dataclass
class ScenarioResult:
    """The detectors' verdicts plus the coverage signature."""

    key: str
    findings: List[Finding] = field(default_factory=list)
    #: Sorted coverage keys (see repro.obs.coverage).
    coverage: Tuple[str, ...] = ()
    #: Per-schedule-op outcome strings, in schedule order.
    outcomes: Tuple[str, ...] = ()
    #: Crash-section accounting: plans replayed / raw states pruned.
    crash_plans: int = 0
    raw_states: int = 0

    @property
    def failing(self) -> bool:
        return bool(self.findings)

    def signature(self) -> str:
        """Stable hash of the coverage signature (campaign reports)."""
        h = hashlib.sha1()
        for key in self.coverage:
            h.update(key.encode())
            h.update(b"\0")
        return h.hexdigest()[:16]

    def as_dict(self) -> dict:
        return {"key": self.key,
                "findings": [f.as_tuple() for f in self.findings],
                "coverage": list(self.coverage),
                "outcomes": list(self.outcomes),
                "crash_plans": self.crash_plans,
                "raw_states": self.raw_states}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioResult":
        return cls(key=data["key"],
                   findings=[Finding(*f) for f in data["findings"]],
                   coverage=tuple(data["coverage"]),
                   outcomes=tuple(data["outcomes"]),
                   crash_plans=data["crash_plans"],
                   raw_states=data["raw_states"])


def _payload(pseed: int, nbytes: int) -> bytes:
    """Deterministic per-op file content."""
    return random.Random(pseed).randbytes(nbytes)


#: Simulated-time cap: no legal scenario comes near it, so hitting it
#: (engine still busy) reads as livelock rather than slow progress.
RUN_HORIZON_NS = 10_000_000_000


def run_scenario(t: ScenarioTuple,
                 mutant: Optional[str] = None) -> ScenarioResult:
    """Run one tuple through every detector (see module docstring).

    ``mutant`` plants a known persistence bug from
    :data:`repro.core.easyio.CRASH_MUTANTS` into the recording run --
    the fuzzer's ground truth for "can we still find real bugs".
    """
    t.validate()
    if mutant is not None and t.kind not in FAULT_TOLERANT_KINDS:
        raise ValueError(f"crash mutants need kind in "
                         f"{FAULT_TOLERANT_KINDS}, got {t.kind!r}")
    result = ScenarioResult(key=t.key())
    findings = result.findings

    platform = Platform(PlatformConfig.single_node())
    engine = platform.engine
    tracer = Tracer(engine)
    engine.tracer = tracer

    lines = t.crash.enabled or mutant is not None
    image = PMImage(record=True)
    stream = None
    if lines:
        stream = image.enable_line_recording()
        stream.tracer = tracer
    fs = make_fs(t.kind, platform, image=image)
    if mutant is not None:
        from repro.core.easyio import install_crash_mutant
        install_crash_mutant(fs, mutant)

    fault_plan = t.fault.build()
    if fault_plan is not None:
        fault_plan.install(platform, image=image)
    overload = OverloadStats()
    admission = t.runtime.build(engine, overload)

    wl = t.workload
    outcomes: List[str] = []
    op_ids: List[Optional[int]] = []
    reads: List[Tuple[int, bytes]] = []
    #: One digest memo for the recording and the crash checks.
    content_memo: dict = {}
    tree = SnapshotTree()
    #: (stream_start, stream_end, snapshot) per op (creates = op 0).
    oracle: List[Tuple[int, int, dict]] = []
    inos: List[int] = []

    def record_op(sstart: int) -> int:
        send = stream.position() if stream is not None else 0
        oracle.append((sstart, send,
                       snapshot_with_content(fs._mem, image, content_memo,
                                             tree)))
        if stream is not None:
            stream.op_bounds.append((sstart, send))
        return send

    def driver():
        # Each create is its own oracle op: creates are individually
        # atomic, so a crash mid-preamble may legally leave a prefix
        # of the files (lumping them into one window false-positives
        # the atomicity check -- an early fuzz triage pinned this).
        spos = 0
        for i in range(wl.nfiles):
            ino = yield from fs.create(fs.context(record=False), f"/f{i}")
            inos.append(ino)
            spos = record_op(spos)
        for op in wl.ops:
            kind, f, a, b, pseed, gap = op
            if gap:
                yield engine.timeout(gap)
            verdict = admission.admit() if admission is not None else "admit"
            if verdict == "reject":
                outcomes.append("rejected")
                op_ids.append(None)
                spos = record_op(spos)
                continue
            deadline = (engine.now + t.runtime.deadline_us * 1_000
                        if t.runtime.deadline_us is not None else None)
            ctx = fs.context(deadline=deadline)
            if verdict == "degrade":
                ctx.force_sync = True
            op_ids.append(ctx.op_id)
            try:
                if kind == "write":
                    res = yield from fs.write(ctx, inos[f], a, b,
                                              _payload(pseed, b))
                    yield from settle(fs, res)
                elif kind == "append":
                    res = yield from fs.append(ctx, inos[f], b,
                                               _payload(pseed, b))
                    yield from settle(fs, res)
                elif kind == "read":
                    res = yield from fs.read(ctx, inos[f], a, b,
                                             want_data=True)
                    yield from settle(fs, res)
                    reads.append((len(outcomes), bytes(res.value)))
                else:  # truncate
                    yield from fs.truncate(ctx, inos[f], a)
                outcomes.append("ok")
            except DeadlineExceeded:
                outcomes.append("deadline")
            except WaitTimeout:
                outcomes.append("timeout")
            except FsError as exc:
                outcomes.append(f"fserr:{type(exc).__name__}")
            finally:
                if admission is not None:
                    admission.release()
            spos = record_op(spos)

    proc = engine.process(driver())
    try:
        engine.run(until=RUN_HORIZON_NS)
    except Exception as exc:  # engine-level blow-up: always a finding
        findings.append(Finding("exception", type(exc).__name__,
                                f"engine raised during run: {exc!r}"))
        result.outcomes = tuple(outcomes)
        result.coverage = _assemble_coverage(
            tracer, (), engine, fs, overload, fault_plan, None, None,
            outcomes)
        return result
    hang = proc.is_alive
    if hang:
        last = tracer.events[-1].name if tracer.events else "<no events>"
        findings.append(Finding(
            "hang", "workload-stalled",
            f"engine drained (t={engine.now}) with the workload still "
            f"parked after op {len(outcomes)}; last trace event {last!r}"))
    elif not proc.ok:
        findings.append(Finding("exception", type(proc.value).__name__,
                                f"workload raised: {proc.value!r}"))

    # -- detector 1: trace-invariant oracles --------------------------
    for v in TraceChecker().check(tracer.events):
        findings.append(Finding("trace", v.oracle, str(v)))

    # -- detector 3: differential vs clean NOVA -----------------------
    clean_exit = not hang and proc.ok
    if clean_exit:
        findings.extend(_differential(t, tracer, outcomes, op_ids, reads,
                                      oracle[-1][2] if oracle else {}))

    # -- detector 2: crash plans through recovery ---------------------
    planner = None
    if t.crash.enabled and clean_exit and stream is not None:
        planner = CrashPlanner(stream, per_signature=t.crash.per_signature,
                               budget=t.crash.budget, seed=t.crash.seed)
        plans = planner.plans()
        for f in check_plans(stream, plans, oracle,
                             t.kind in ("easyio", "naive"), content_memo):
            findings.append(Finding("crash", f.check, f.detail, f.plan))
        result.crash_plans = len(plans)
        result.raw_states = planner.raw_states

    # -- detector 4: cluster oracles over the net dimension -----------
    net_tracers: list = []
    net_stats = None
    if t.net.enabled:
        net_stats, cluster_findings = _net_section(t, net_tracers)
        findings.extend(cluster_findings)

    result.outcomes = tuple(outcomes)
    result.coverage = _assemble_coverage(
        tracer, net_tracers, engine, fs, overload, fault_plan, planner,
        net_stats, outcomes)
    return result


def _differential(t, tracer, outcomes, op_ids, reads,
                  target_snap) -> List[Finding]:
    """Replay the verifiably-committed ops on clean NOVA and compare.

    The effective schedule is decided from *evidence*, not hope: a
    write/append counts exactly when its op id emitted ``write_commit``
    (so a deadline "clean miss" whose data still landed is included,
    and a cleanly-aborted one is excluded).  A deadline-aborted
    truncate has no such trace marker, making the final state
    ambiguous -- those runs skip the detector rather than guess.
    """
    from repro.obs.trace import POINT
    committed = {ev.op for ev in tracer.events
                 if ev.ph == POINT and ev.name == "write_commit"
                 and ev.op is not None}
    effective: List[Tuple] = []
    read_bytes = {i: b for i, b in reads}
    expected_reads: List[bytes] = []
    for i, (op, outcome) in enumerate(zip(t.workload.ops, outcomes)):
        kind = op[0]
        if kind in ("write", "append"):
            if outcome == "ok" or op_ids[i] in committed:
                effective.append(op)
        elif kind == "truncate":
            if outcome == "ok":
                effective.append(op)
            elif outcome in ("deadline", "timeout"):
                return []  # ambiguous final state: skip the detector
        elif kind == "read" and outcome == "ok":
            effective.append(op)
            expected_reads.append(read_bytes[i])

    ref_platform = Platform(PlatformConfig.single_node())
    ref = make_fs("nova", ref_platform)
    got_reads: List[bytes] = []

    def replay():
        ref_inos = []
        for i in range(t.workload.nfiles):
            ino = yield from ref.create(ref.context(record=False), f"/f{i}")
            ref_inos.append(ino)
        for op in effective:
            kind, f, a, b, pseed, _gap = op
            ctx = ref.context(record=False)
            if kind == "write":
                res = yield from ref.write(ctx, ref_inos[f], a, b,
                                           _payload(pseed, b))
                yield from settle(ref, res)
            elif kind == "append":
                res = yield from ref.append(ctx, ref_inos[f], b,
                                            _payload(pseed, b))
                yield from settle(ref, res)
            elif kind == "read":
                res = yield from ref.read(ctx, ref_inos[f], a, b,
                                          want_data=True)
                got_reads.append(bytes(res.value))
            else:
                yield from ref.truncate(ctx, ref_inos[f], a)

    proc = ref_platform.engine.process(replay())
    ref_platform.engine.run()
    if proc.is_alive or not proc.ok:
        why = "stalled" if proc.is_alive else repr(proc.value)
        return [Finding("differential", "replay-error",
                        f"the effective schedule failed on clean NOVA "
                        f"({why}) although every op succeeded under "
                        f"faults")]

    findings = []
    ref_snap = snapshot_with_content(ref._mem, ref.image)
    if target_snap != ref_snap:
        diff = sorted(set(target_snap.items())
                      ^ set(ref_snap.items()))[:4]
        findings.append(Finding(
            "differential", "content",
            f"final state diverged from the NOVA replay of the "
            f"effective schedule: {diff}"))
    for i, (got, want) in enumerate(zip(expected_reads, got_reads)):
        if got != want:
            findings.append(Finding(
                "differential", "read",
                f"effective read #{i} returned different bytes than "
                f"the NOVA replay ({len(got)} vs {len(want)} bytes)"))
            break
    return findings


def _net_section(t, net_tracers):
    """A bounded replication run under the tuple's NetFaultPlan."""
    from repro.workloads.replication import (ReplicationConfig,
                                             run_replication)
    spec = t.net
    cfg = ReplicationConfig(
        n_nodes=spec.n_nodes, n_clients=spec.n_clients,
        writes_per_client=spec.writes_per_client,
        deadline_us=spec.deadline_us, seed=spec.seed,
        p_drop=spec.p_drop, p_dup=spec.p_dup, p_delay=spec.p_delay,
        max_faults=spec.max_faults, schedule=spec.build_schedule(),
        check_oracles=True)
    with default_tracing(collect=net_tracers):
        res = run_replication(cfg)
    findings = [Finding("cluster", v.oracle, str(v))
                for v in res.violations]
    return res.stats, findings


def _assemble_coverage(tracer, net_tracers, engine, fs, overload,
                       fault_plan, planner, net_stats,
                       outcomes) -> Tuple[str, ...]:
    """Union every coverage extractor into one sorted signature."""
    from collections import Counter
    keys = set()
    keys |= trace_vocabulary(tracer.events)
    keys |= ack_gap_buckets(tracer.events)
    for tr in net_tracers:
        keys |= trace_vocabulary(tr.events)
    keys |= counter_buckets("engine", asdict(engine.stats))
    fault_stats = getattr(fs, "fault_stats", None)
    if fault_stats is not None:
        keys |= counter_buckets("fault", asdict(fault_stats))
    keys |= counter_buckets("overload", asdict(overload))
    if fault_plan is not None:
        keys |= counter_buckets("inject", fault_plan.injected)
    if planner is not None:
        keys |= counter_buckets("plan", planner.plan_classes)
    if net_stats is not None:
        keys |= counter_buckets("net", asdict(net_stats))
    keys |= counter_buckets("out", Counter(outcomes))
    return tuple(sorted(keys))
