"""Cluster assembly: replicas, lease service, and the client protocol.

A :class:`Cluster` wires ``n`` :class:`~repro.net.replica.ReplicaNode`
processes, one :class:`LeaseService`, and any number of clients onto a
shared :class:`~repro.net.network.Network` -- all driven by one
simulation :class:`~repro.sim.engine.Engine`, so a full multi-node run
(workload, topology, fault plan) replays bit-for-bit from its seeds.

The lease service is the failover arbiter: it grants the cluster lease
to at most one holder at a time and mints a fresh **epoch** per new
holder, so "at most one primary per lease epoch" holds by construction
at the service -- the :mod:`repro.obs.oracles` check then verifies the
*replicas* respected it (no ships or acks from a non-holder).  The
service is just another network endpoint: a partitioned primary cannot
renew, its lease lapses, and the majority side elects.

Clients speak an RPC-over-UDP protocol: send ``ClientWrite``, wait for
``ClientResp`` with exponential-backoff retries (clamped to the
operation deadline), and follow ``not_primary`` redirect hints.
Retries give at-least-once semantics -- a retried write may occupy two
SNs; the record token carries the request id so duplicates are
attributable.  :meth:`Cluster.write_op` adapts a replicated write to
the runtime's ``Syscall`` interface so cluster clients run as ordinary
uthreads under the existing admission/deadline middleware.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import check_non_negative
from repro.net.network import Endpoint, Network, NetStats
from repro.net.replica import (
    NOT_PRIMARY,
    ClientResp,
    ClientWrite,
    LeaseReply,
    LeaseRequest,
    ReplicaNode,
)
from repro.sim import Engine, WaitTimeout

#: The lease service's well-known endpoint id.
LEASE_NODE = "lease"


@dataclass(frozen=True)
class ClusterConfig:
    """Timing/shape knobs for a replicated cluster (all times in ns).

    The defaults are sized so that, over the default 2 us links, a
    write quorum-commits in tens of microseconds and a failover
    completes within a few milliseconds -- comfortably inside
    :attr:`failover_budget_ns`.
    """

    #: The grid replica timer work lands on: a replica sleeps until a
    #: message arrives or until the first ``tick_ns`` multiple past the
    #: start of its wait at which a timer can act.
    tick_ns: int = 20_000
    #: Durable-append latency model: base + nbytes / bytes_per_ns.
    persist_base_ns: int = 1_500
    persist_bytes_per_ns: int = 16
    #: Ship cadence and go-back-N retransmission bounds.
    ship_interval_ns: int = 60_000
    ship_batch: int = 64
    retransmit_cap_ns: int = 1_000_000
    #: Lease term and the holder's renewal period.
    lease_ns: int = 1_200_000
    renew_every_ns: int = 300_000
    #: Silence window before a backup suspects the primary; node i
    #: waits i extra stagger periods so elections do not collide.
    failover_timeout_ns: int = 900_000
    failover_stagger_ns: int = 150_000
    #: Quorum lost for this long -> primary degrades to read-only.
    readonly_after_ns: int = 600_000
    #: Per-election-round deadline and retry backoff bounds.
    election_timeout_ns: int = 300_000
    election_backoff_base_ns: int = 100_000
    election_backoff_cap_ns: int = 800_000
    #: Client RPC retransmission bounds.
    client_rto_base_ns: int = 250_000
    client_rto_cap_ns: int = 2_000_000

    def __post_init__(self):
        for name in ("tick_ns", "persist_base_ns", "persist_bytes_per_ns",
                     "ship_interval_ns", "ship_batch", "retransmit_cap_ns",
                     "lease_ns", "renew_every_ns", "failover_timeout_ns",
                     "failover_stagger_ns", "readonly_after_ns",
                     "election_timeout_ns", "election_backoff_base_ns",
                     "election_backoff_cap_ns", "client_rto_base_ns",
                     "client_rto_cap_ns"):
            check_non_negative(name, getattr(self, name))
        if self.tick_ns < 1:
            raise ValueError(f"tick_ns must be >= 1, got {self.tick_ns}")
        if self.renew_every_ns >= self.lease_ns:
            raise ValueError("renew_every_ns must be < lease_ns or the "
                             "lease lapses between renewals")


class LeaseService:
    """Single arbiter granting the cluster lease, one epoch per holder.

    Grant rules: the current holder may renew (same epoch, extended
    expiry) while its lease is live; anyone may take a *lapsed* lease,
    which mints ``epoch + 1``.  A live lease held by someone else is
    refused with the holder's identity.  Every grant to a *new* holder
    appends to :attr:`Cluster.lease_log` and emits a ``lease_grant``
    trace point -- the at-most-one-primary oracle's ground truth.
    """

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.engine = cluster.engine
        self.cfg = cluster.cfg
        self.endpoint = cluster.network.register(LEASE_NODE)
        self.holder: Optional[Any] = None
        self.epoch = 0
        self.expires = 0
        self.engine.process(self._main(), name="lease-service")

    def _main(self):
        cfg = self.cfg
        while True:
            src, msg = yield self.endpoint.inbox.get()
            if not isinstance(msg, LeaseRequest):
                continue
            now = self.engine.now
            if self.holder == msg.node and now < self.expires:
                self.expires = now + cfg.lease_ns           # renewal
                granted = True
            elif now >= self.expires:
                self.epoch += 1                             # new holder
                self.holder = msg.node
                self.expires = now + cfg.lease_ns
                granted = True
                if self.epoch > 1:
                    self.cluster.stats.failovers += 1
                self.cluster.lease_log.append(
                    (now, self.epoch, msg.node, self.expires))
                tr = self.engine.tracer
                if tr is not None:
                    tr.point("lease_grant", track="lease", epoch=self.epoch,
                             node=str(msg.node), expires=self.expires)
            else:
                granted = False
            self.endpoint.send(src, LeaseReply(
                granted and self.holder == msg.node,
                self.epoch, self.expires, self.holder))


class Cluster:
    """``n`` replicas + lease service + clients on one faulty network."""

    def __init__(self, engine: Engine, n: int = 3,
                 quorum: Optional[int] = None,
                 cfg: Optional[ClusterConfig] = None,
                 stats: Optional[NetStats] = None):
        if n < 1:
            raise ValueError(f"cluster size must be >= 1, got {n}")
        self.engine = engine
        self.cfg = cfg if cfg is not None else ClusterConfig()
        self.stats = stats if stats is not None else NetStats()
        self.quorum = (n // 2 + 1) if quorum is None else quorum
        if not 1 <= self.quorum <= n:
            raise ValueError(
                f"quorum must be in [1, {n}], got {self.quorum}")
        self.network = Network(engine, stats=self.stats)
        self.node_ids: Tuple[int, ...] = tuple(range(n))
        self.nodes: Dict[int, ReplicaNode] = {}
        for nid in self.node_ids:
            self.nodes[nid] = ReplicaNode(self, nid)
        LeaseService(self)
        #: (t, epoch, node, expires) per new-holder grant.
        self.lease_log: List[Tuple] = []
        #: (t, node, epoch) per completed failover (primary took over).
        self.primary_log: List[Tuple] = []
        self._req_seq = itertools.count(1)

    # -- fault-plan hooks --------------------------------------------
    def crash(self, node_id) -> None:
        self.nodes[node_id].crash()

    def restart(self, node_id) -> None:
        self.nodes[node_id].restart()

    # -- replica-side helpers ----------------------------------------
    def send_lease_request(self, node: ReplicaNode) -> None:
        node.endpoint.send(LEASE_NODE, LeaseRequest(node.node_id))

    def note_primary(self, node_id, epoch: int) -> None:
        self.primary_log.append((self.engine.now, node_id, epoch))

    @property
    def failover_budget_ns(self) -> int:
        """Worst-case primary-loss to new-primary-elected window:
        lease lapse + slowest stagger + a few election rounds."""
        cfg = self.cfg
        return (cfg.lease_ns + cfg.failover_timeout_ns
                + len(self.node_ids) * cfg.failover_stagger_ns
                + 4 * cfg.election_timeout_ns)

    # -- client protocol ---------------------------------------------
    def client(self, name: str) -> Endpoint:
        """Register a client endpoint (id ``client:<name>``)."""
        return self.network.register(f"client:{name}")

    def client_write(self, ep: Endpoint, nbytes: int,
                     deadline_ns: Optional[int] = None):
        """Generator: one replicated write; returns the committed SN.

        Retries with exponential backoff across targets until acked or
        the absolute ``deadline_ns`` passes, then raises
        :class:`~repro.fs.nova.DeadlineExceeded`.  Never hangs: every
        wait is bounded by the RTO or the remaining deadline.
        """
        from repro.fs.nova import DeadlineExceeded
        cfg = self.cfg
        req_id = (ep.node_id, next(self._req_seq))
        target = self._guess_primary()
        rto = cfg.client_rto_base_ns
        while True:
            now = self.engine.now
            if deadline_ns is not None and now >= deadline_ns:
                raise DeadlineExceeded(
                    f"replicated write {req_id} missed its deadline "
                    f"({deadline_ns} ns)")
            ep.send(target, ClientWrite(req_id, nbytes,
                                        deadline=deadline_ns),
                    nbytes=nbytes)
            resp = yield from self._await_resp(ep, req_id, rto, deadline_ns)
            if resp is not None and resp.ok:
                return resp.sn
            self.stats.client_retries += 1
            if resp is not None and resp.reason == NOT_PRIMARY \
                    and resp.hint is not None and resp.hint != target:
                target = resp.hint       # redirect: retry immediately
                continue
            # Timeout, readonly, or a hintless refusal: back off, then
            # try the next replica in rotation.
            pause = rto if deadline_ns is None \
                else min(rto, max(1, deadline_ns - self.engine.now))
            yield self.engine.timeout(pause)
            rto = min(rto * 2, cfg.client_rto_cap_ns)
            target = (target + 1) % len(self.node_ids) \
                if isinstance(target, int) else 0

    def _guess_primary(self):
        if self.primary_log:
            return self.primary_log[-1][1]
        return self.node_ids[0]

    def _await_resp(self, ep: Endpoint, req_id,
                    rto: int, deadline_ns: Optional[int]):
        """Wait up to ``rto`` (clamped by the deadline) for *this*
        request's response, draining stale ones; None on timeout."""
        wait_until = self.engine.now + rto
        if deadline_ns is not None:
            wait_until = min(wait_until, deadline_ns)
        while True:
            remaining = wait_until - self.engine.now
            if remaining <= 0:
                return None
            try:
                _src, resp = yield ep.inbox.get(timeout=remaining)
            except WaitTimeout:
                return None
            if isinstance(resp, ClientResp) and resp.req_id == req_id:
                return resp
            # Stale response from an earlier attempt: keep draining.

    # -- runtime integration -----------------------------------------
    def write_op(self, ep: Endpoint, nbytes: int):
        """Adapt a replicated write to the ``Syscall`` op interface, so
        cluster clients run as uthreads under the existing runtime
        middleware (admission control, per-op deadlines)."""
        def op(ctx):
            return self.client_write(ep, nbytes, deadline_ns=ctx.deadline)
        return op
