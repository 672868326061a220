"""End-to-end replicated-cluster scenarios via ``run_replication``.

Each test runs one seeded :class:`ReplicationConfig` and asserts the
robustness contract: acks only after quorum (the traced run replays
clean through the cluster oracles), failover completes inside the
cluster's lease budget, and the whole run is a deterministic function
of its config -- a failing seed replays exactly.
"""

from dataclasses import asdict

import pytest

from repro.net import Cluster, NodeCrashFault, PartitionFault
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
