"""Replicated-cluster workload: clients writing through the runtime.

Drives a :class:`~repro.net.cluster.Cluster` with closed-loop clients
under a seeded :class:`~repro.net.plan.NetFaultPlan` and reports the
robustness headline numbers: goodput under faults, failover time, and
(optionally) a fully oracle-checked trace.

Each client owns one network endpoint and issues every write as a
fresh **uthread** through the existing runtime middleware: the write
is a :class:`~repro.runtime.Syscall` built by
:meth:`~repro.net.cluster.Cluster.write_op`, so per-op deadlines
propagate through ``OpContext`` exactly like single-node filesystem
ops, and a missed deadline surfaces as
:class:`~repro.fs.nova.DeadlineExceeded` in the client -- counted, not
hung.  One write is in flight per endpoint at a time (the client RPC
protocol matches responses by request id on a per-endpoint inbox).

Determinism: the run is a pure function of ``ReplicationConfig`` --
one seeded RNG paces client gaps, the fault plan injects from its own
seed, and all time is simulated.  Any failing configuration replays
exactly from its seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.analysis.metrics import LatencySeries
from repro.fs.nova import DeadlineExceeded, FsError
from repro.net import Cluster, ClusterConfig, NetFaultPlan, NetStats
from repro.net.plan import CRASH, PARTITION
from repro.obs import Tracer, TraceChecker, Violation
from repro.runtime import OverloadRejected, Runtime, Syscall
from repro.sim import Engine, WaitTimeout
from repro.workloads.fxmark import US

#: Oracles exercised by replication traces (subset keyed to repl events
#: plus the lease discipline); the full registry also passes, these
#: just name the cluster-specific contract.
CLUSTER_ORACLES = ("cluster-ack-durable", "replica-sn-monotonic",
                   "one-primary-per-lease-epoch")


@dataclass
class ReplicationConfig:
    """One replicated-cluster run."""

    n_nodes: int = 3
    quorum: Optional[int] = None      # None = majority
    n_clients: int = 2
    writes_per_client: int = 20
    io_size: int = 4096
    #: Closed-loop think time between a client's writes.
    gap_ns: int = 200_000
    #: Per-write budget past issue; ``None`` = unbounded writes.
    deadline_us: Optional[int] = None
    seed: int = 42
    # -- network fault plan -------------------------------------------
    p_drop: float = 0.0
    p_dup: float = 0.0
    p_delay: float = 0.0
    max_faults: int = 64
    #: Explicit PartitionFault / NodeCrashFault windows.
    schedule: Sequence[Any] = ()
    # -- observability ------------------------------------------------
    #: Trace the run and replay it through the oracle checker.
    check_oracles: bool = True
    #: Simulated-time cap; the run also stops once all clients finish.
    run_until_us: int = 200_000
    cluster_cfg: Optional[ClusterConfig] = None

    def __post_init__(self):
        if self.n_clients < 1 or self.writes_per_client < 1:
            raise ValueError("need at least one client and one write")


@dataclass
class ReplicationResult:
    """Observed outcome of one replicated run."""

    config: ReplicationConfig
    offered: int
    acked: int
    deadline_missed: int
    failed: int                      # other typed failures (should be 0)
    latency: LatencySeries           # acked writes only
    #: (t, epoch, node, expires) per lease grant to a new holder.
    lease_log: List[Tuple]
    #: Trigger-to-grant delay for each failover (epoch > 1 grant).
    failover_times_ns: List[int]
    #: Oracle verdict over the traced run ([] when clean or untraced).
    violations: List[Violation]
    stats: NetStats
    elapsed_ns: int
    #: True when every client finished inside the run cap.
    drained: bool

    @property
    def goodput(self) -> float:
        """Fraction of offered writes that were quorum-acked."""
        return self.acked / self.offered if self.offered else 0.0

    @property
    def goodput_ops_per_sec(self) -> float:
        if not self.elapsed_ns:
            return 0.0
        return self.acked / (self.elapsed_ns / 1e9)


def _failover_times(lease_log: List[Tuple],
                    fault_trace: List[Tuple]) -> List[int]:
    """Delay from each failover's trigger (the latest crash/partition
    before the grant, else the previous grant's lease start) to the
    new-holder grant."""
    out: List[int] = []
    triggers = sorted(t for t, kind, *_ in fault_trace
                      if kind in (CRASH, PARTITION))
    for i, (t, epoch, _node, _exp) in enumerate(lease_log):
        if epoch <= 1:
            continue
        before = [x for x in triggers if x <= t]
        base = before[-1] if before else lease_log[i - 1][0]
        out.append(t - base)
    return out


def run_replication(cfg: ReplicationConfig) -> ReplicationResult:
    """Execute one replicated-cluster configuration."""
    from repro.workloads.factory import make_platform

    platform = make_platform(single_node=True)
    engine: Engine = platform.engine
    if cfg.check_oracles and engine.tracer is None:
        # Respect a tracer already installed by default_tracing(); the
        # caller then owns the buffer (e.g. to dump it as Perfetto JSON).
        engine.tracer = Tracer(engine)
    cluster = Cluster(engine, n=cfg.n_nodes, quorum=cfg.quorum,
                      cfg=cfg.cluster_cfg)
    plan = NetFaultPlan(seed=cfg.seed, p_drop=cfg.p_drop, p_dup=cfg.p_dup,
                        p_delay=cfg.p_delay, max_faults=cfg.max_faults,
                        schedule=cfg.schedule)
    plan.install(cluster.network, cluster=cluster)
    runtime = Runtime(platform, cores=platform.cores[:1])

    rng = random.Random(cfg.seed)
    lat = LatencySeries()
    counts = {"offered": 0, "acked": 0, "deadline_missed": 0, "failed": 0}
    done = [0]

    def one_write(ep, t0: int):
        try:
            yield Syscall(cluster.write_op(ep, cfg.io_size))
        except DeadlineExceeded:
            counts["deadline_missed"] += 1
            return
        except (OverloadRejected, FsError, WaitTimeout):
            counts["failed"] += 1
            return
        lat.record(engine.now - t0)
        counts["acked"] += 1

    def client(name: str):
        ep = cluster.client(name)
        for i in range(cfg.writes_per_client):
            counts["offered"] += 1
            deadline = (engine.now + cfg.deadline_us * US
                        if cfg.deadline_us is not None else None)
            ut = runtime.spawn(one_write(ep, engine.now),
                               name=f"{name}.w{i}", deadline=deadline)
            yield ut.done
            yield engine.timeout(max(1, round(
                cfg.gap_ns * (0.5 + rng.random()))))
        done[0] += 1

    t0 = engine.now
    for c in range(cfg.n_clients):
        engine.process(client(f"c{c}"), name=f"client-c{c}")

    # The replica ticks keep timers pending forever, so drive the run
    # in slices until the clients drain (or the cap trips).
    cap = t0 + cfg.run_until_us * US
    while done[0] < cfg.n_clients and engine.now < cap:
        engine.run(until=min(cap, engine.now + 1_000 * US))
    elapsed = engine.now - t0

    violations: List[Violation] = []
    if cfg.check_oracles:
        violations = TraceChecker().check(engine.tracer.events)

    return ReplicationResult(
        config=cfg,
        offered=counts["offered"],
        acked=counts["acked"],
        deadline_missed=counts["deadline_missed"],
        failed=counts["failed"],
        latency=lat,
        lease_log=list(cluster.lease_log),
        failover_times_ns=_failover_times(cluster.lease_log, plan.trace),
        violations=violations,
        stats=cluster.stats,
        elapsed_ns=elapsed,
        drained=done[0] == cfg.n_clients,
    )
