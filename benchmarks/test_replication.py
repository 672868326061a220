"""Replication robustness: goodput and failover under seeded faults.

Not a figure from the paper -- a robustness claim the artifact adds on
top of it.  A replicated EasyIO-style log (primary/backup shipping in
SN order, ack after quorum, lease-based failover) is swept across
cluster shapes x network fault plans:

* **clean**: every write acks, one lease epoch, goodput 1.0;
* **primary crash**: the lease lapses, a caught-up backup takes over
  within the cluster's failover budget, and the rebooted old primary
  rejoins as a backup (its unreplicated suffix amended away);
* **partition + heal**: the majority side elects a new primary; the
  isolated old one degrades read-only and never acks un-replicated
  writes;
* **message loss**: drops/dups/delays cost retransmits, never acks.

Every run is traced and replayed through the cluster oracles
(ack-implies-quorum-durable, per-replica SN monotonicity, one primary
per lease epoch): **zero violations** across the whole sweep.  Each
cell is a pure function of its seed -- the identical re-run at the
bottom pins replayability.
"""

from dataclasses import asdict

from benchmarks.conftest import run_once, show
from repro.analysis.report import banner, fmt_table
from repro.net import NodeCrashFault, PartitionFault
from repro.workloads.replication import (
    CLUSTER_ORACLES,
    ReplicationConfig,
    run_replication,
)

SEED = 42
WRITES = 12
CLIENTS = 2

#: (label, extra ReplicationConfig fields) -- the fault-plan axis.
SCENARIOS = (
    ("clean", {}),
    ("crash", {"schedule": (NodeCrashFault(0, at_ns=2_000_000,
                                           down_ns=15_000_000),)}),
    ("partition", {"schedule": (PartitionFault(start_ns=2_000_000,
                                               duration_ns=12_000_000,
                                               group=(0,)),)}),
    ("loss", {"p_drop": 0.10, "p_dup": 0.05, "p_delay": 0.05,
              "max_faults": 300}),
)

#: (n_nodes, quorum) -- the cluster-shape axis (None = majority).
SHAPES = ((3, None), (3, 3), (5, None))


def _cfg(n, quorum, extra):
    return ReplicationConfig(n_nodes=n, quorum=quorum, n_clients=CLIENTS,
                             writes_per_client=WRITES, seed=SEED, **extra)


def reproduce():
    out = {}
    for n, quorum in SHAPES:
        for label, extra in SCENARIOS:
            out[(n, quorum, label)] = run_replication(_cfg(n, quorum, extra))
    # Replayability pin: the crash cell, re-run bit-for-bit.
    out["replay"] = run_replication(_cfg(3, None, dict(SCENARIOS[1][1])))
    return out


def test_replication(benchmark):
    out = run_once(benchmark, reproduce)

    show(banner(f"Replicated log shipping: {CLIENTS} clients x {WRITES} "
                f"writes, seed {SEED}"))
    rows = []
    for (n, quorum, label), r in ((k, v) for k, v in out.items()
                                  if isinstance(k, tuple)):
        fo = (max(r.failover_times_ns) // 1000
              if r.failover_times_ns else "-")
        rows.append([f"{n}/{quorum or (n // 2 + 1)}", label, r.offered,
                     r.acked, f"{r.goodput:.2f}",
                     f"{r.goodput_ops_per_sec / 1000:.1f}k",
                     len(r.lease_log), fo, r.stats.retransmits,
                     len(r.violations)])
    show(fmt_table(["nodes/q", "faults", "offered", "acked", "goodput",
                    "ops/s", "epochs", "failover us", "retx", "viol"],
                   rows))
    show(f"oracles checked per run: {', '.join(CLUSTER_ORACLES)}")

    for (n, quorum, label), r in ((k, v) for k, v in out.items()
                                  if isinstance(k, tuple)):
        cell = f"{n}/{quorum}/{label}"
        # The headline: every cell drains every write, and the traced
        # run replays clean through the oracle checker.
        assert r.drained, f"{cell}: clients never drained"
        assert r.goodput == 1.0, f"{cell}: lost writes"
        assert r.violations == [], f"{cell}: {r.violations}"
        if label == "clean":
            assert len(r.lease_log) == 1, f"{cell}: spurious failover"
        if label in ("crash", "partition"):
            assert r.failover_times_ns, f"{cell}: no failover recorded"
        if label == "loss":
            assert r.stats.dropped_fault > 0, f"{cell}: plan never bit"
            assert r.stats.retransmits > 0, f"{cell}: no retransmits"

    # Triggered failovers land within the lease-derived budget.  (Loss
    # cells may fail over too -- dropped renewals -- but there the
    # "trigger" is the previous grant, not a discrete fault, so the
    # trigger-to-grant delay is not a bounded recovery latency.)
    from repro.net import Cluster
    from repro.sim import Engine
    for (n, quorum, label), r in ((k, v) for k, v in out.items()
                                  if isinstance(k, tuple)):
        if label not in ("crash", "partition"):
            continue
        budget = Cluster(Engine(), n=n, quorum=quorum).failover_budget_ns
        if (quorum or n // 2 + 1) > n - 1:
            # Quorum = n: no election can form while one node is out,
            # so recovery necessarily waits out the outage first.
            budget += 15_000_000
        for t in r.failover_times_ns:
            assert t <= budget, \
                f"{n}/{quorum}/{label}: failover {t} > budget {budget}"

    # Replayable by seed: the crash cell reproduces exactly.
    a, b = out[(3, None, "crash")], out["replay"]

    def key(r):
        return (r.offered, r.acked, r.lease_log, r.failover_times_ns,
                r.elapsed_ns, asdict(r.stats))
    assert key(a) == key(b), "same seed must replay identically"
