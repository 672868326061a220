"""Scenario tuples: the fuzzer's genome.

A :class:`ScenarioTuple` is one point of the scenario space the
fuzzer searches::

    (workload schedule) x (FaultPlan) x (NetFaultPlan)
        x (admission/deadline config) x (crash-plan config)

Every dimension is a small frozen dataclass that (a) round-trips
through plain JSON (so reproducers can be committed under
``tests/corpus/`` and shipped over a multiprocessing pipe), and
(b) *builds* the real object it stands for -- ``FaultSpec.build()``
returns a live :class:`~repro.faults.FaultPlan`, which runs that
plan's own input validators.  :meth:`ScenarioTuple.validate` therefore
proves the plan-validity invariants (probability bounds, disjoint
windows, ``max_faults`` budget) by construction, and the mutator
property tests simply call it after every mutation.

The workload schedule is a flat tuple of uniform 6-tuples::

    (kind, file, a, b, payload_seed, gap_ns)

    write     a=offset   b=nbytes
    append    a unused   b=nbytes
    read      a=offset   b=nbytes
    truncate  a=size     b unused

so structured mutators can tweak fields without per-kind cases.
Payloads are derived from ``payload_seed`` at run time (tuples stay a
few hundred bytes however much data the run moves).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.crash.plans import check_sampler_bounds
from repro.faults.plan import (BandwidthFault, ChannelHaltFault, FaultPlan,
                               TransferErrorFault)
from repro.fs.structures import PAGE_SIZE
from repro.net.plan import NetFaultPlan, NodeCrashFault, PartitionFault
from repro.runtime.admission import POLICIES

#: Schedule op kinds (mutators pick from this).
OP_KINDS = ("write", "append", "read", "truncate")

#: Bounds keeping a single scenario cheap to execute.
MAX_OPS = 64
MAX_IO = 8 * PAGE_SIZE
MAX_OFFSET = 16 * PAGE_SIZE
MAX_FILES = 4
MAX_GAP_NS = 1_000_000

#: DMA channels on the single-node platform the runner uses.
N_CHANNELS = 8

#: Filesystems whose write path survives injected DMA descriptor
#: faults (supervised retry / failover / degrade).  Descriptor faults
#: on an unsupervised baseline strand the write forever (nova/odinfs)
#: or silently lose the halted channel's chunk (the Naive ablation
#: drops the FaultSupervisor entirely -- an early fuzz campaign found
#: the resulting differential divergence; triaged as a modeled
#: deficiency of the §6.4 baseline, not a bug, and encoded here as a
#: validity constraint).
FAULT_TOLERANT_KINDS = ("easyio",)


def _tuplify(value):
    """Recursively convert JSON lists back into tuples."""
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


@dataclass(frozen=True)
class WorkloadSpec:
    """The op schedule: ``nfiles`` pre-created files plus uniform
    6-tuple ops (see the module docstring for the field layout)."""

    nfiles: int = 1
    ops: Tuple[Tuple, ...] = ()

    def validate(self) -> None:
        if not 1 <= self.nfiles <= MAX_FILES:
            raise ValueError(f"nfiles must be in [1, {MAX_FILES}], "
                             f"got {self.nfiles}")
        if len(self.ops) > MAX_OPS:
            raise ValueError(f"schedule exceeds {MAX_OPS} ops")
        for op in self.ops:
            if len(op) != 6:
                raise ValueError(f"malformed op {op!r}")
            kind, f, a, b, pseed, gap = op
            if kind not in OP_KINDS:
                raise ValueError(f"unknown op kind {kind!r}")
            if not 0 <= f < self.nfiles:
                raise ValueError(f"op targets file {f} of {self.nfiles}")
            if a < 0 or b < 0 or gap < 0:
                raise ValueError(f"negative field in op {op!r}")
            if a > MAX_OFFSET or gap > MAX_GAP_NS:
                raise ValueError(f"op field out of range in {op!r}")
            if kind in ("write", "append", "read") \
                    and not 1 <= b <= MAX_IO:
                raise ValueError(f"{kind} nbytes must be in "
                                 f"[1, {MAX_IO}], got {b}")

    def size(self) -> int:
        """Shrinker metric: op count plus the pages of data moved."""
        total = len(self.ops) + self.nfiles - 1
        for op in self.ops:
            if op[0] in ("write", "append", "read"):
                total += (op[3] + PAGE_SIZE - 1) // PAGE_SIZE
        return total


@dataclass(frozen=True)
class FaultSpec:
    """The hardware-fault dimension (media faults are excluded: line
    recording refuses them, and a corrupted page legitimately diverges
    the differential check)."""

    seed: int = 0
    p_xfer_error: float = 0.0
    p_chan_halt: float = 0.0
    max_faults: int = 8
    halts: Tuple[Tuple[int, int], ...] = ()   # (channel, sn)
    xfers: Tuple[Tuple[int, int], ...] = ()   # (channel, sn)
    bw: Tuple[Tuple[int, int, float], ...] = ()  # (start, dur, factor)

    @property
    def active(self) -> bool:
        return bool(self.p_xfer_error or self.p_chan_halt or self.halts
                    or self.xfers or self.bw)

    @property
    def descriptor_faulty(self) -> bool:
        """Whether the plan can fail DMA descriptors (needs a
        fault-tolerant filesystem kind)."""
        return bool(self.p_xfer_error or self.p_chan_halt or self.halts
                    or self.xfers)

    def build(self) -> Optional[FaultPlan]:
        """A live plan (running FaultPlan's validators), or None."""
        if not self.active:
            return None
        schedule: List[Any] = \
            [ChannelHaltFault(ch, sn) for ch, sn in self.halts] + \
            [TransferErrorFault(ch, sn) for ch, sn in self.xfers] + \
            [BandwidthFault(s, d, f) for s, d, f in self.bw]
        return FaultPlan(seed=self.seed,
                         p_xfer_error=self.p_xfer_error,
                         p_chan_halt=self.p_chan_halt,
                         schedule=schedule, max_faults=self.max_faults)

    def validate(self) -> None:
        for ch, sn in self.halts + self.xfers:
            if not 0 <= ch < N_CHANNELS:
                raise ValueError(f"channel {ch} out of range")
        self.build()

    def size(self) -> int:
        return (len(self.halts) + len(self.xfers) + len(self.bw)
                + (1 if self.p_xfer_error else 0)
                + (1 if self.p_chan_halt else 0))


@dataclass(frozen=True)
class NetSpec:
    """The network dimension: a bounded replication run under a
    :class:`~repro.net.plan.NetFaultPlan` (cluster oracles are the
    detector)."""

    enabled: bool = False
    seed: int = 0
    n_nodes: int = 3
    n_clients: int = 2
    writes_per_client: int = 5
    deadline_us: int = 5_000
    p_drop: float = 0.0
    p_dup: float = 0.0
    p_delay: float = 0.0
    max_faults: int = 32
    partitions: Tuple[Tuple[int, int, Tuple[int, ...]], ...] = ()
    crashes: Tuple[Tuple[int, int, int], ...] = ()   # (node, at, down)

    def build_schedule(self) -> List[Any]:
        return ([PartitionFault(s, d, group)
                 for s, d, group in self.partitions]
                + [NodeCrashFault(node, at, down)
                   for node, at, down in self.crashes])

    def build(self) -> Optional[NetFaultPlan]:
        """A live plan (running NetFaultPlan's validators), or None."""
        if not self.enabled:
            return None
        return NetFaultPlan(seed=self.seed, p_drop=self.p_drop,
                            p_dup=self.p_dup, p_delay=self.p_delay,
                            max_faults=self.max_faults,
                            schedule=self.build_schedule())

    def validate(self) -> None:
        if not 2 <= self.n_nodes <= 5:
            raise ValueError(f"n_nodes must be in [2, 5], got {self.n_nodes}")
        if self.n_clients < 1 or self.writes_per_client < 1:
            raise ValueError("need at least one client and one write")
        if self.deadline_us < 1:
            raise ValueError("deadline_us must be >= 1")
        for _s, _d, group in self.partitions:
            if not group or any(not 0 <= n < self.n_nodes for n in group):
                raise ValueError(f"partition group {group} out of range")
            if len(set(group)) >= self.n_nodes:
                raise ValueError("partition group covers every node")
        for node, _at, down in self.crashes:
            if not 0 <= node < self.n_nodes:
                raise ValueError(f"crash node {node} out of range")
            if down < 1:
                raise ValueError("crash down_ns must be >= 1 (finite)")
        self.build()

    def size(self) -> int:
        if not self.enabled:
            return 0
        return (1 + len(self.partitions) + len(self.crashes)
                + (1 if self.p_drop else 0) + (1 if self.p_dup else 0)
                + (1 if self.p_delay else 0))


@dataclass(frozen=True)
class RuntimeSpec:
    """Admission-control and per-op deadline configuration."""

    rate_ops_per_sec: Optional[float] = None
    burst: int = 8
    max_inflight: Optional[int] = None
    policy: str = "reject"
    deadline_us: Optional[int] = None

    @property
    def admission_active(self) -> bool:
        return (self.rate_ops_per_sec is not None
                or self.max_inflight is not None)

    def build(self, engine, stats):
        """A live controller (or None when no limit is set)."""
        from repro.runtime.admission import AdmissionController
        if not self.admission_active:
            return None
        return AdmissionController(engine,
                                   rate_ops_per_sec=self.rate_ops_per_sec,
                                   burst=self.burst,
                                   max_inflight=self.max_inflight,
                                   policy=self.policy, stats=stats)

    def validate(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if self.rate_ops_per_sec is not None and self.rate_ops_per_sec <= 0:
            raise ValueError("rate_ops_per_sec must be > 0")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.deadline_us is not None and self.deadline_us < 1:
            raise ValueError("deadline_us must be >= 1")

    def size(self) -> int:
        return ((1 if self.admission_active else 0)
                + (1 if self.deadline_us is not None else 0))


@dataclass(frozen=True)
class CrashSpec:
    """The crash dimension: line-granularity crash plans over the
    recorded stream (:class:`~repro.crash.plans.CrashPlanner` knobs)."""

    enabled: bool = True
    seed: int = 0
    per_signature: Optional[int] = 2
    budget: Optional[int] = 48

    def validate(self) -> None:
        check_sampler_bounds(self.per_signature, self.budget)

    def size(self) -> int:
        return 1 if self.enabled else 0


@dataclass(frozen=True)
class ScenarioTuple:
    """One fuzzable scenario; see the module docstring."""

    kind: str = "easyio"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    fault: FaultSpec = field(default_factory=FaultSpec)
    net: NetSpec = field(default_factory=NetSpec)
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    crash: CrashSpec = field(default_factory=CrashSpec)

    def validate(self) -> "ScenarioTuple":
        from repro.workloads.factory import fs_class
        fs_class(self.kind)
        self.workload.validate()
        self.fault.validate()
        self.net.validate()
        self.runtime.validate()
        self.crash.validate()
        if self.fault.descriptor_faulty \
                and self.kind not in FAULT_TOLERANT_KINDS:
            raise ValueError(
                f"descriptor faults require a fault-tolerant kind "
                f"{FAULT_TOLERANT_KINDS}, got {self.kind!r}")
        return self

    def size(self) -> int:
        """The shrinker's metric; every accepted reduction must not
        increase it (tests pin monotonicity)."""
        return (self.workload.size() + self.fault.size() + self.net.size()
                + self.runtime.size() + self.crash.size())

    # -- serialization ------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioTuple":
        return cls(
            kind=data.get("kind", "easyio"),
            workload=WorkloadSpec(**{k: _tuplify(v) for k, v in
                                     data.get("workload", {}).items()}),
            fault=FaultSpec(**{k: _tuplify(v) for k, v in
                               data.get("fault", {}).items()}),
            net=NetSpec(**{k: _tuplify(v) for k, v in
                           data.get("net", {}).items()}),
            runtime=RuntimeSpec(**data.get("runtime", {})),
            crash=CrashSpec(**data.get("crash", {})),
        )

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def key(self) -> str:
        """Stable content hash (corpus dedup, reports, replay ids)."""
        return hashlib.sha1(self.canonical_json().encode()).hexdigest()[:16]

    def replaced(self, **kwargs) -> "ScenarioTuple":
        return replace(self, **kwargs)


def make_op(kind: str, file: int = 0, a: int = 0, b: int = 0,
            pseed: int = 0, gap_ns: int = 0) -> Tuple:
    """Build one schedule op tuple (keyword-friendly helper)."""
    return (kind, file, a, b, pseed, gap_ns)


def schedule_from_seed(seed: int, n_ops: int = 24,
                       nfiles: int = 1) -> WorkloadSpec:
    """A reproducible mixed op schedule (the differential test's
    generator, extended with appends, files, and inter-op gaps)."""
    import random
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        kind = rng.choices(OP_KINDS, weights=(5, 2, 2, 1))[0]
        f = rng.randrange(nfiles)
        gap = rng.choice((0, 0, 1_000, 20_000))
        if kind == "write":
            ops.append(make_op("write", f, rng.randrange(0, 6 * PAGE_SIZE),
                               rng.randrange(1, 4 * PAGE_SIZE),
                               rng.getrandbits(32), gap))
        elif kind == "append":
            ops.append(make_op("append", f, 0,
                               rng.randrange(1, 2 * PAGE_SIZE),
                               rng.getrandbits(32), gap))
        elif kind == "read":
            ops.append(make_op("read", f, rng.randrange(0, 8 * PAGE_SIZE),
                               rng.randrange(1, 4 * PAGE_SIZE), 0, gap))
        else:
            ops.append(make_op("truncate", f,
                               rng.randrange(0, 8 * PAGE_SIZE), 0, 0, gap))
    return WorkloadSpec(nfiles=nfiles, ops=tuple(ops))
