"""Unit tests for the simulated network and cluster replication."""

import pytest

from repro.fs.nova import DeadlineExceeded
from repro.net import (
    BACKUP,
    Cluster,
    ClusterConfig,
    HEADER_BYTES,
    NetFaultPlan,
    Network,
    NodeCrashFault,
    PRIMARY,
    PartitionFault,
)
from repro.sim import Engine, WaitTimeout


def _collect(engine, ep, until):
    got = []

    def rx():
        while True:
            try:
                item = yield ep.inbox.get(timeout=until)
            except WaitTimeout:
                return
            got.append((engine.now, item))
    engine.process(rx(), name="rx")
    return got


class TestNetwork:
    def test_latency_and_serialization(self):
        eng = Engine()
        net = Network(eng, latency_ns=1_000, bytes_per_ns=1.0)
        a, b = net.register("a"), net.register("b")
        got = _collect(eng, b, 100_000)
        a.send("b", "hello", nbytes=500)
        eng.run(until=200_000)
        assert len(got) == 1
        t, (src, msg) = got[0]
        assert (src, msg) == ("a", "hello")
        assert t == 1_000 + 500 + HEADER_BYTES

    def test_per_link_override(self):
        eng = Engine()
        net = Network(eng, latency_ns=1_000, bytes_per_ns=10.0)
        net.register("a"), net.register("b")
        net.set_link("a", "b", latency_ns=50_000)
        assert net.link_params("a", "b")[0] == 50_000
        assert net.link_params("b", "a")[0] == 50_000  # symmetric

    def test_partition_drops_both_at_send_and_in_flight(self):
        eng = Engine()
        net = Network(eng, latency_ns=10_000)
        a, b = net.register("a"), net.register("b")
        got = _collect(eng, b, 200_000)
        # In-flight at cut time: sent now, cut before delivery.
        a.send("b", "doomed")
        eng.run(until=5_000)
        net.cut("a", "b")
        a.send("b", "also-doomed")
        eng.run(until=50_000)
        net.heal("a", "b")
        a.send("b", "arrives")
        eng.run(until=400_000)
        assert [m for _, (_, m) in got] == ["arrives"]
        assert net.stats.dropped_partition == 2

    def test_down_endpoint_drops_silently(self):
        eng = Engine()
        net = Network(eng)
        a, b = net.register("a"), net.register("b")
        b.up = False
        a.send("b", "x")
        eng.run(until=100_000)
        assert net.stats.dropped_down == 1
        assert len(b.inbox) == 0

    def test_unknown_destination_raises(self):
        eng = Engine()
        net = Network(eng)
        a = net.register("a")
        with pytest.raises(ValueError, match="unknown destination"):
            a.send("ghost", "x")

    def test_duplicate_registration_rejected(self):
        eng = Engine()
        net = Network(eng)
        net.register("a")
        with pytest.raises(ValueError, match="already registered"):
            net.register("a")


class TestNetFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="p_drop"):
            NetFaultPlan(p_drop=1.5)
        with pytest.raises(ValueError, match="delay_ns"):
            NetFaultPlan(delay_ns=0)
        with pytest.raises(ValueError, match="start_ns"):
            PartitionFault(start_ns=-1, duration_ns=5, group=("a",))
        with pytest.raises(ValueError, match="at least one node"):
            PartitionFault(start_ns=0, duration_ns=5, group=())
        with pytest.raises(ValueError, match="down_ns"):
            NodeCrashFault("a", at_ns=0, down_ns=-3)
        with pytest.raises(ValueError, match="overlapping partition"):
            NetFaultPlan(schedule=(
                PartitionFault(0, 100, ("a",)),
                PartitionFault(50, 100, ("a",))))
        with pytest.raises(ValueError, match="overlapping crash"):
            NetFaultPlan(schedule=(
                NodeCrashFault("a", at_ns=0, down_ns=100),
                NodeCrashFault("a", at_ns=50, down_ns=10)))
        # Disjoint windows and different resources are fine.
        NetFaultPlan(schedule=(
            PartitionFault(0, 100, ("a",)),
            PartitionFault(100, 100, ("a",)),
            PartitionFault(50, 10, ("b",)),
            NodeCrashFault("a", at_ns=0, down_ns=100),
            NodeCrashFault("b", at_ns=50, down_ns=10)))

    def test_message_fates_deterministic_and_budgeted(self):
        def fates(seed, n, budget=1000):
            plan = NetFaultPlan(seed=seed, p_drop=0.2, p_dup=0.1,
                                p_delay=0.1, max_faults=budget)
            return [plan.message_fate("a", "b") for _ in range(n)]
        assert fates(5, 200) == fates(5, 200)
        assert fates(5, 200) != fates(6, 200)
        # Budget spent -> perfect network from then on.
        exhausted = fates(5, 200, budget=3)
        assert all(f == (0,) for f in exhausted[-100:])

    def test_crash_schedule_requires_cluster(self):
        eng = Engine()
        net = Network(eng)
        plan = NetFaultPlan(schedule=(NodeCrashFault("a", at_ns=10),))
        with pytest.raises(ValueError, match="no cluster"):
            plan.install(net)

    def test_partition_window_cuts_and_heals(self):
        eng = Engine()
        net = Network(eng)
        net.register("a"), net.register("b"), net.register("c")
        plan = NetFaultPlan(schedule=(
            PartitionFault(start_ns=1_000, duration_ns=2_000, group=("a",)),))
        plan.install(net)
        eng.run(until=1_500)
        assert net.is_cut("a", "b") and net.is_cut("a", "c")
        assert not net.is_cut("b", "c")
        eng.run(until=5_000)
        assert not net.is_cut("a", "b")
        kinds = [k for _, k, *_ in plan.trace]
        assert kinds == ["partition", "heal"]


class TestCluster:
    def test_quorum_defaults_to_majority(self):
        eng = Engine()
        assert Cluster(eng, n=3).quorum == 2
        assert Cluster(Engine(), n=5).quorum == 3
        with pytest.raises(ValueError, match="quorum"):
            Cluster(Engine(), n=3, quorum=4)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="renew_every_ns"):
            ClusterConfig(lease_ns=100, renew_every_ns=100)
        with pytest.raises(ValueError, match="tick_ns"):
            ClusterConfig(tick_ns=-1)
        # The replica timer grid needs a positive period.
        with pytest.raises(ValueError, match="tick_ns must be >= 1"):
            ClusterConfig(tick_ns=0)

    def test_elects_one_primary_and_commits_writes(self):
        eng = Engine()
        c = Cluster(eng, n=3)
        ep = c.client("w")
        sns = []

        def client():
            for _ in range(5):
                sn = yield from c.client_write(ep, 1024)
                sns.append(sn)
        eng.process(client(), name="client")
        eng.run(until=20_000_000)
        assert len(sns) == 5
        assert sns == sorted(sns)
        assert len(c.lease_log) == 1          # no spurious failovers
        roles = [n.role for n in c.nodes.values()]
        assert roles.count(PRIMARY) == 1
        # All replicas converge to identical logs.
        logs = [[(r.sn, r.epoch) for r in n.log] for n in c.nodes.values()]
        assert logs[0] == logs[1] == logs[2]

    def test_ack_only_after_quorum(self):
        # Quorum = 3 of 3: partition one backup away and the primary
        # must stop acking entirely.
        eng = Engine()
        c = Cluster(eng, n=3, quorum=3)
        plan = NetFaultPlan(schedule=(
            PartitionFault(start_ns=3_000_000, duration_ns=30_000_000,
                           group=(2,)),))
        plan.install(c.network, cluster=c)
        ep = c.client("w")
        acked = []

        def client():
            while True:
                sn = yield from c.client_write(ep, 512)
                acked.append((eng.now, sn))
                yield eng.timeout(200_000)
        eng.process(client(), name="client")
        eng.run(until=20_000_000)
        assert acked, "writes before the partition must be acked"
        assert all(t < 3_000_000 + 1_000_000 for t, _ in acked), \
            "no write may be acked while a quorum-3 member is cut off"

    def test_primary_crash_fails_over_and_old_primary_rejoins(self):
        eng = Engine()
        c = Cluster(eng, n=3)
        plan = NetFaultPlan(schedule=(
            NodeCrashFault(0, at_ns=2_000_000, down_ns=10_000_000),))
        plan.install(c.network, cluster=c)
        ep = c.client("w")
        acked = []

        def client():
            for _ in range(20):
                sn = yield from c.client_write(ep, 512)
                acked.append(sn)
                yield eng.timeout(400_000)
        eng.process(client(), name="client")
        eng.run(until=60_000_000)
        assert len(acked) == 20
        epochs = [e for _, e, _, _ in c.lease_log]
        assert epochs == [1, 2]
        assert c.lease_log[0][2] == 0         # node 0 bootstraps
        assert c.lease_log[1][2] != 0         # someone else takes over
        assert c.nodes[0].role == BACKUP      # rejoined as backup
        logs = [[(r.sn, r.epoch) for r in n.log] for n in c.nodes.values()]
        assert logs[0] == logs[1] == logs[2]

    def test_deadline_during_partition_fails_clean_never_acks(self):
        # The deadline x partition satellite: a deadlined write issued
        # while the primary is unreachable must raise DeadlineExceeded
        # (not hang), and must never be acked later as a ghost.
        eng = Engine()
        c = Cluster(eng, n=3)
        plan = NetFaultPlan(schedule=(
            PartitionFault(start_ns=1_000_000, duration_ns=8_000_000,
                           group=(0, "client:w")),))
        plan.install(c.network, cluster=c)
        ep = c.client("w")
        outcome = {}

        def client():
            sn = yield from c.client_write(ep, 512)       # pre-partition
            outcome["pre"] = sn
            yield eng.timeout(1_500_000)                  # inside window
            try:
                yield from c.client_write(
                    ep, 512, deadline_ns=eng.now + 2_000_000)
                outcome["during"] = "acked"
            except DeadlineExceeded:
                outcome["during"] = "deadline"
            outcome["t_fail"] = eng.now
        eng.process(client(), name="client")
        eng.run(until=40_000_000)
        assert outcome["pre"] >= 1
        assert outcome["during"] == "deadline"
        # Failed at (not after) the deadline: bounded, no hang.
        assert outcome["t_fail"] <= 2_500_000 + 2_000_000 + 1
        # The co-partitioned primary never acked the doomed write and
        # its unreplicated suffix was amended away on rejoin.
        logs = [[(r.sn, r.epoch) for r in n.log] for n in c.nodes.values()]
        assert logs[0] == logs[1] == logs[2]

    def test_write_op_adapter_runs_under_runtime(self):
        from repro.runtime import Runtime, Syscall
        from repro.workloads.factory import make_platform
        platform = make_platform(single_node=True)
        eng = platform.engine
        c = Cluster(eng, n=3)
        runtime = Runtime(platform, cores=platform.cores[:1])
        ep = c.client("w")
        got = {}

        def body():
            got["sn"] = yield Syscall(c.write_op(ep, 4096))
        runtime.spawn(body(), name="writer")
        eng.run(until=20_000_000)
        assert got["sn"] >= 1
