"""End-to-end replicated-cluster scenarios via ``run_replication``.

Each test runs one seeded :class:`ReplicationConfig` and asserts the
robustness contract: acks only after quorum (the traced run replays
clean through the cluster oracles), failover completes inside the
cluster's lease budget, and the whole run is a deterministic function
of its config -- a failing seed replays exactly.
"""

from dataclasses import asdict

import pytest

from repro.net import (Cluster, NetFaultPlan, NodeCrashFault,
                       PartitionFault, ReplicaNode)
from repro.obs import Tracer
from repro.sim import Engine
from repro.workloads import ReplicationConfig, run_replication
from repro.workloads.replication import CLUSTER_ORACLES


def _budget_ns(cfg: ReplicationConfig) -> int:
    """The lease-based failover budget for this config's cluster."""
    return Cluster(Engine(), n=cfg.n_nodes, quorum=cfg.quorum,
                   cfg=cfg.cluster_cfg).failover_budget_ns


class TestHappyPath:
    def test_all_writes_ack_with_one_epoch_and_clean_trace(self):
        res = run_replication(ReplicationConfig(
            n_clients=2, writes_per_client=10, seed=7))
        assert res.drained
        assert res.goodput == 1.0
        assert res.acked == 20 and res.failed == 0
        assert [e for _, e, _, _ in res.lease_log] == [1]
        assert res.failover_times_ns == []
        assert res.violations == []
        assert res.latency.count == res.acked
        assert res.goodput_ops_per_sec > 0

    def test_quorum_all_still_drains_on_clean_network(self):
        res = run_replication(ReplicationConfig(
            n_nodes=3, quorum=3, n_clients=1, writes_per_client=8,
            seed=3))
        assert res.drained and res.goodput == 1.0
        assert res.violations == []


class TestPrimaryCrash:
    def test_failover_within_budget_and_no_violations(self):
        cfg = ReplicationConfig(
            n_clients=2, writes_per_client=15, seed=11,
            schedule=(NodeCrashFault(0, at_ns=2_000_000,
                                     down_ns=15_000_000),))
        res = run_replication(cfg)
        assert res.drained, "clients must finish despite the crash"
        assert res.goodput == 1.0
        epochs = [e for _, e, _, _ in res.lease_log]
        assert epochs == [1, 2], "exactly one failover"
        assert res.failover_times_ns, "epoch-2 grant must be timed"
        budget = _budget_ns(cfg)
        assert all(t <= budget for t in res.failover_times_ns), \
            f"failover {res.failover_times_ns} exceeded budget {budget}"
        assert res.violations == []
        assert res.stats.failovers == 1


class TestPartitionHeal:
    def test_partitioned_primary_is_deposed_cleanly(self):
        cfg = ReplicationConfig(
            n_clients=2, writes_per_client=15, seed=13,
            schedule=(PartitionFault(start_ns=2_000_000,
                                     duration_ns=12_000_000,
                                     group=(0,)),))
        res = run_replication(cfg)
        assert res.drained
        assert res.goodput == 1.0
        assert len(res.lease_log) >= 2, "the majority side must take over"
        budget = _budget_ns(cfg)
        assert all(t <= budget for t in res.failover_times_ns)
        assert res.violations == []


class TestMessageLoss:
    def test_lossy_network_retransmits_until_acked(self):
        res = run_replication(ReplicationConfig(
            n_clients=2, writes_per_client=10, seed=17,
            p_drop=0.1, p_dup=0.05, p_delay=0.05, max_faults=200))
        assert res.drained
        assert res.goodput == 1.0
        assert res.stats.dropped_fault > 0, "the plan must actually bite"
        assert res.violations == []


class TestDeterminism:
    @pytest.mark.parametrize("seed", [5, 23])
    def test_same_config_same_outcome(self, seed):
        cfg = dict(n_clients=2, writes_per_client=8, seed=seed,
                   p_drop=0.08, max_faults=100,
                   schedule=(NodeCrashFault(0, at_ns=1_500_000,
                                            down_ns=10_000_000),))
        a = run_replication(ReplicationConfig(**cfg))
        b = run_replication(ReplicationConfig(**cfg))

        def key(r):
            return (r.offered, r.acked, r.deadline_missed, r.failed,
                    r.lease_log, r.failover_times_ns, r.elapsed_ns,
                    asdict(r.stats))
        assert key(a) == key(b)

    def test_different_seed_diverges(self):
        def mk(s):
            return run_replication(ReplicationConfig(
                n_clients=1, writes_per_client=6, seed=s, p_drop=0.15,
                max_faults=100))
        assert (mk(1).stats != mk(2).stats
                or mk(1).elapsed_ns != mk(2).elapsed_ns)


class TestOracleWiring:
    def test_cluster_oracles_are_registered(self):
        from repro.obs import ORACLES
        for name in CLUSTER_ORACLES:
            assert name in ORACLES

    def test_check_oracles_off_skips_tracing(self):
        res = run_replication(ReplicationConfig(
            n_clients=1, writes_per_client=4, seed=9,
            check_oracles=False))
        assert res.drained and res.violations == []


def _bare_cluster(monkeypatch, schedule, until_ns):
    """Run a three-node cluster with no clients under ``schedule``.

    Returns the trace's ``(t, name)`` role points (read-only and
    step-down), each node's election actions as ``(t, node, what)``,
    and each node's wakeups as ``(t, node)`` ``_tick`` calls.
    """
    actions, ticks = [], []

    def record(name, log, entry):
        real = getattr(ReplicaNode, name)

        def wrapped(self):
            log.append(entry(self))
            return real(self)
        monkeypatch.setattr(ReplicaNode, name, wrapped)

    record("_start_election", actions,
           lambda node: (node.engine.now, node.node_id, "elect"))
    record("_abandon_round", actions,
           lambda node: (node.engine.now, node.node_id, "abandon"))
    record("_tick", ticks, lambda node: (node.engine.now, node.node_id))
    engine = Engine()
    engine.tracer = Tracer(engine)
    cluster = Cluster(engine, n=3)
    NetFaultPlan(schedule=schedule).install(cluster.network, cluster=cluster)
    engine.run(until=until_ns)
    points = [(e.t, e.name) for e in engine.tracer.events
              if e.name in ("repl_readonly", "repl_stepdown")]
    return points, actions, ticks


class TestSleepUntilActionable:
    """A replica sleeps until a message or the first instant of its
    ``tick_ns`` grid at which its timers can act.  Each pinned instant
    below is where a replica woken on every tick acts; sleeping must
    land on the same one."""

    def test_quorum_lapse_mid_sleep_turns_readonly_on_time(self,
                                                           monkeypatch):
        # Both backups drop out at 2 ms; the primary keeps shipping
        # heartbeats every three ticks and sleeps through the ticks in
        # between, whose fresh-quorum stamps the read-only clock runs
        # from.
        points, _, _ = _bare_cluster(
            monkeypatch, (PartitionFault(2_000_000, 3_000_000, (1, 2)),),
            5_000_000)
        assert points == [(3_171_504, "repl_readonly"),
                          (4_271_504, "repl_stepdown")]

    def test_lease_expiry_step_down_on_time(self, monkeypatch):
        # The isolated primary cannot renew; its lease lapses at an
        # instant none of its ship timers fall on (and it has gone
        # read-only first).
        points, _, _ = _bare_cluster(
            monkeypatch, (PartitionFault(2_156_000, 3_000_000, (0,)),),
            4_200_000)
        assert points == [(3_307_492, "repl_readonly"),
                          (3_347_492, "repl_stepdown")]

    @pytest.mark.parametrize("crash_at, first_election", [
        (1_503_000, 2_721_234),   # no grid instant in the window
        (1_510_000, 2_745_000),   # window holds 1_521_234: new grid
        (1_517_000, 2_752_000),   # window holds 1_521_234: new grid
        (1_523_000, 2_741_234),   # no grid instant in the window
    ])
    def test_sub_tick_crash_restarts_on_the_tick_grid(self, monkeypatch,
                                                      crash_at,
                                                      first_election):
        # Node 2 is partitioned from 1 ms, so nothing re-anchors its
        # grid (instants 1_234 mod 20_000).  A 15 us crash re-anchors
        # it at the restart only when a grid instant falls inside the
        # window: that is the instant the crash was noticed.
        _, actions, _ = _bare_cluster(
            monkeypatch,
            (PartitionFault(1_000_000, 6_000_000, (2,)),
             NodeCrashFault(2, at_ns=crash_at, down_ns=15_000)),
            3_500_000)
        t = first_election
        assert [a for a in actions if a[1] == 2] == [
            (t, 2, "elect"), (t + 300_000, 2, "abandon"),
            (t + 400_000, 2, "elect"), (t + 700_000, 2, "abandon")]

    def test_failover_strict_and_election_deadline_inclusive(self,
                                                             monkeypatch):
        # Node 2 restarts at 1.6 ms behind a partition, so its
        # failover window (900 + 2 * 150 us) and every election timer
        # after it end exactly on its grid.  The failover check is
        # strict (elect one tick after the window ends), the election
        # deadline and backoff are inclusive, and no wakeup is idle.
        _, actions, ticks = _bare_cluster(
            monkeypatch,
            (PartitionFault(1_000_000, 6_000_000, (2,)),
             NodeCrashFault(2, at_ns=1_500_000, down_ns=100_000)),
            4_000_000)
        assert [a for a in actions if a[1] == 2] == [
            (2_820_000, 2, "elect"), (3_120_000, 2, "abandon"),
            (3_220_000, 2, "elect"), (3_520_000, 2, "abandon"),
            (3_720_000, 2, "elect")]
        assert [t for t, node in ticks if node == 2 and t > 1_600_000] \
            == [2_820_000, 3_120_000, 3_220_000, 3_520_000, 3_720_000]
