"""A deterministic message-passing network over the simulation engine.

The :class:`Network` connects named endpoints in a full mesh.  Each
directed link has a propagation latency and a serialization bandwidth;
a message sent at ``t`` is delivered at ``t + latency + nbytes /
bytes_per_ns`` (plus any fault-injected extra delay).  Delivery runs
entirely on the shared :class:`~repro.sim.engine.Engine`, so a cluster
simulation is a pure function of (workload, topology, fault-plan seed)
-- every partition scenario replays exactly.

Unreliability is injected, never emergent: an attached
:class:`~repro.net.plan.NetFaultPlan` decides, per message, whether it
is dropped, duplicated, or delayed (seeded per-link RNG streams), and
drives partition/heal and node crash/restart schedules.  Without a
plan the network is perfectly reliable, FIFO per link.

Partitions are modelled as a set of *cut* unordered node pairs: a
message is dropped if its link is cut at send time or at delivery time
(a partition that starts mid-flight kills in-flight traffic, like a
yanked cable).  A message to or from a *down* endpoint is likewise
dropped -- the sender gets no error either way, exactly like UDP; all
reliability lives in the protocols above (:mod:`repro.net.replica`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.sim import Engine, Store

#: Fixed per-message overhead (headers) charged to serialization.
HEADER_BYTES = 64


@dataclass(slots=True)
class NetStats:
    """Counters for the network and the replication layer above it.

    Network-level: ``sent``/``delivered``/``duplicated``/``delayed``
    and the drop taxonomy (``dropped_fault`` by the fault plan,
    ``dropped_partition`` by a cut link, ``dropped_down`` at a down
    endpoint).  Replication-level: ``retransmits``, ``truncations``,
    ``failovers`` (lease epochs granted beyond the first),
    ``readonly_rejects`` and ``client_retries``.
    """

    sent: int = 0
    delivered: int = 0
    dropped_fault: int = 0
    dropped_partition: int = 0
    dropped_down: int = 0
    duplicated: int = 0
    delayed: int = 0
    bytes_sent: int = 0
    retransmits: int = 0
    truncations: int = 0
    failovers: int = 0
    readonly_rejects: int = 0
    client_retries: int = 0


class Endpoint:
    """One node's attachment point: an inbox plus an up/down flag.

    Messages land in ``inbox`` (a FIFO :class:`~repro.sim.sync.Store`);
    the owner consumes them with ``inbox.get(timeout=...)``.  While
    ``up`` is False the network drops inbound traffic and refuses
    outbound sends, and :meth:`clear` empties the inbox -- volatile
    state does not survive a crash.
    """

    __slots__ = ("network", "node_id", "inbox", "up")

    def __init__(self, network: "Network", node_id):
        self.network = network
        self.node_id = node_id
        self.inbox: Store = Store(network.engine)
        self.up = True

    def send(self, dst, msg, nbytes: int = 0) -> None:
        """Fire-and-forget send; ``nbytes`` is the payload size used
        for serialization delay (headers are charged on top)."""
        self.network.send(self.node_id, dst, msg, nbytes)

    def clear(self) -> None:
        """Discard everything queued in the inbox."""
        while self.inbox.try_get() is not None:
            pass


class Network:
    """Full-mesh simulated network with per-link latency/bandwidth.

    ``latency_ns`` and ``bytes_per_ns`` are the defaults for every
    directed link; :meth:`set_link` overrides a single pair (both
    directions).  ``fault_plan`` may be attached at construction or
    later via :meth:`~repro.net.plan.NetFaultPlan.install`.
    """

    def __init__(self, engine: Engine, latency_ns: int = 2_000,
                 bytes_per_ns: float = 10.0,
                 stats: Optional[NetStats] = None):
        if latency_ns < 0:
            raise ValueError(f"latency_ns must be >= 0, got {latency_ns}")
        if bytes_per_ns <= 0:
            raise ValueError(f"bytes_per_ns must be > 0, got {bytes_per_ns}")
        self.engine = engine
        self.latency_ns = latency_ns
        self.bytes_per_ns = bytes_per_ns
        self.stats = stats if stats is not None else NetStats()
        self.fault_plan = None
        self.endpoints: Dict[Any, Endpoint] = {}
        self._links: Dict[frozenset, Tuple[int, float]] = {}
        #: Unordered node pairs currently cut by a partition.
        self._cut: set = set()

    # -- topology ----------------------------------------------------
    def register(self, node_id) -> Endpoint:
        """Attach a node; returns its endpoint."""
        if node_id in self.endpoints:
            raise ValueError(f"node {node_id!r} already registered")
        ep = Endpoint(self, node_id)
        self.endpoints[node_id] = ep
        return ep

    def set_link(self, a, b, latency_ns: Optional[int] = None,
                 bytes_per_ns: Optional[float] = None) -> None:
        """Override latency/bandwidth for the (a, b) pair, both ways."""
        key = frozenset((a, b))
        cur = self._links.get(key, (self.latency_ns, self.bytes_per_ns))
        self._links[key] = (
            cur[0] if latency_ns is None else latency_ns,
            cur[1] if bytes_per_ns is None else bytes_per_ns)

    def link_params(self, a, b) -> Tuple[int, float]:
        return self._links.get(frozenset((a, b)),
                               (self.latency_ns, self.bytes_per_ns))

    # -- partitions (driven by NetFaultPlan) -------------------------
    def cut(self, a, b) -> None:
        """Sever the (a, b) link until :meth:`heal`."""
        self._cut.add(frozenset((a, b)))

    def heal(self, a, b) -> None:
        self._cut.discard(frozenset((a, b)))

    def is_cut(self, a, b) -> bool:
        return frozenset((a, b)) in self._cut

    # -- data plane --------------------------------------------------
    def send(self, src, dst, msg, nbytes: int = 0) -> None:
        """Deliver ``msg`` to ``dst`` after link latency + serialization.

        Consults the fault plan for the message's fate: a list of extra
        delays, one delivery per entry (empty = dropped, two = the
        message and a duplicate).  Silent on every drop -- senders see
        UDP semantics.
        """
        stats = self.stats
        stats.sent += 1
        stats.bytes_sent += nbytes + HEADER_BYTES
        ep = self.endpoints.get(src)
        if ep is None or not ep.up:
            stats.dropped_down += 1
            return
        if dst not in self.endpoints:
            raise ValueError(f"unknown destination {dst!r}")
        if self.is_cut(src, dst):
            stats.dropped_partition += 1
            return
        plan = self.fault_plan
        if plan is not None:
            fates = plan.message_fate(src, dst)
            if not fates:
                stats.dropped_fault += 1
                return
            if len(fates) > 1:
                stats.duplicated += len(fates) - 1
            if any(fates):
                stats.delayed += 1
        else:
            fates = (0,)
        latency, bw = self.link_params(src, dst)
        base = latency + round((nbytes + HEADER_BYTES) / bw)
        for extra in fates:
            # Never cancelled or kept: a pooled timer (Engine.sleep).
            ev = self.engine.sleep(base + extra)
            ev.add_callback(
                lambda _e, s=src, d=dst, m=msg: self._deliver(s, d, m))

    def _deliver(self, src, dst, msg) -> None:
        if self.is_cut(src, dst):
            self.stats.dropped_partition += 1
            return
        ep = self.endpoints[dst]
        if not ep.up:
            self.stats.dropped_down += 1
            return
        self.stats.delivered += 1
        ep.inbox.put((src, msg))
