"""Replicated log shipping: one node of the EasyIO cluster service.

The replication discipline transplants EasyIO's SN/commit machinery
across the network (DESIGN.md §12):

* the **primary** assigns each client write a strictly-increasing SN
  (the cluster-wide analogue of a DMA descriptor SN), persists the
  record locally (a slow-memory append with a simulated persist
  latency), and **ships committed SN ranges** to every backup;
* a **backup applies strictly in SN order**: each ``Ship`` carries the
  ``(prev_sn, prev_epoch)`` of the record preceding the shipped range,
  and the backup accepts only when its own log matches -- otherwise it
  nacks with its durable high-water and the primary walks back
  (cumulative-ack go-back-N, the network analogue of the completion
  buffer's "SNs below N all landed");
* the client is **acked only after a quorum** of replicas (primary
  included) has durably applied the record's SN;
* records are tagged with the **lease epoch** that created them.  After
  a failover the new primary's ships expose epoch mismatches in a
  divergent suffix (records a dead primary appended but never got
  quorum-acked); the backup *truncates* back to the match point --
  the cluster-level analogue of single-node SN amendment -- and
  re-applies the new primary's records.

Retransmission uses bounded exponential backoff per peer, clamped by
the earliest outstanding client deadline (the same budget discipline
as :class:`~repro.io.supervision.FaultSupervisor` retries).

Everything a node considers *durable* -- the record log and the
highest lease epoch seen -- survives a crash; match vectors, pending
client acks, and queued messages do not (see
:meth:`ReplicaNode.crash`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.sim import Gate

#: Node roles.
BACKUP = "backup"
CANDIDATE = "candidate"
PRIMARY = "primary"

#: Beyond any simulated instant: the quorum of a one-vote cluster
#: never goes stale.
_FOREVER = 1 << 120

#: ClientResp reasons.
OK = "ok"
NOT_PRIMARY = "not_primary"
READONLY = "readonly"


@dataclass(frozen=True)
class LogRecord:
    """One replicated write: SN + the lease epoch that minted it."""

    sn: int
    epoch: int
    nbytes: int
    #: Opaque client token (client id, request id) -- makes divergent
    #: records distinguishable in dumps and tests.
    token: Tuple = ()


# ----------------------------------------------------------------------
# Typed messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClientWrite:
    req_id: Tuple
    nbytes: int
    deadline: Optional[int] = None


@dataclass(frozen=True)
class ClientResp:
    req_id: Tuple
    ok: bool
    sn: Optional[int] = None
    reason: str = OK
    #: Best-known primary, for NOT_PRIMARY redirects.
    hint: Optional[Any] = None


@dataclass(frozen=True)
class Ship:
    """A committed-SN-range shipment (empty = heartbeat)."""

    epoch: int
    prev_sn: int
    prev_epoch: int
    records: Tuple[LogRecord, ...]
    commit_sn: int

    @property
    def nbytes(self) -> int:
        return sum(r.nbytes for r in self.records)


@dataclass(frozen=True)
class ShipAck:
    """Cumulative ack: every SN <= ``applied_sn`` is durable here."""

    epoch: int
    node: Any
    applied_sn: int
    ok: bool = True


@dataclass(frozen=True)
class Probe:
    """Election: how up-to-date is your durable log?"""


@dataclass(frozen=True)
class ProbeReply:
    node: Any
    applied_sn: int
    #: Epoch of the last log record (0 for an empty log) -- elections
    #: compare ``(tail_epoch, applied_sn)`` lexicographically, exactly
    #: Raft's up-to-date check, so a divergent never-acked suffix can
    #: never outrank a quorum-acked one of a newer epoch.
    tail_epoch: int
    epoch_seen: int


@dataclass(frozen=True)
class LeaseRequest:
    node: Any


@dataclass(frozen=True)
class LeaseReply:
    granted: bool
    epoch: int
    expires_at: int
    holder: Any


@dataclass
class PendingWrite:
    """A client write the primary has persisted but not yet quorum-acked."""

    src: Any
    req_id: Tuple
    deadline: Optional[int] = None


class ReplicaNode:
    """One replica: a single main process handling messages + timers.

    The node runs exactly one engine process (:meth:`_main`).  It
    sleeps on its inbox until a message arrives or until the first
    instant on its ``tick_ns`` grid at which its role's timer work can
    act (:meth:`_next_action`), handles one message at a time (persist
    delays serialise applies, like a real device queue), and runs the
    timer work (:meth:`_tick`) after every wakeup.  The grid is
    anchored where each wait began, so a wakeup lands on the same
    instant a wakeup every ``tick_ns`` would have reached; the grid
    instants slept through would have changed nothing but
    ``_last_quorum_t``, which :meth:`_catch_up` replays.  All role
    changes happen inside this one process, so there are no intra-node
    races.
    """

    def __init__(self, cluster, node_id: int):
        self.cluster = cluster
        self.cfg = cluster.cfg
        self.engine = cluster.engine
        self.node_id = node_id
        #: The other members; cluster membership is fixed.
        self.peers: Tuple[int, ...] = tuple(n for n in cluster.node_ids
                                            if n != node_id)
        self.stats = cluster.stats
        self.endpoint = cluster.network.register(node_id)
        # -- durable state (survives crash) --
        self.log: List[LogRecord] = []
        self.epoch_seen = 0
        # -- volatile state --
        self.role = BACKUP
        self.down = False
        self._boot_id = 0
        self.commit_sn = 0
        self.known_primary: Optional[Any] = None
        # Stagger: node i considers failover i windows later, so
        # elections do not collide; node 0 bootstraps immediately.
        self.last_primary_contact = -self.cfg.failover_timeout_ns
        # Primary-term state.
        self.my_epoch = 0
        self.lease_expires = 0
        self.readonly = False
        self.pending: Dict[int, PendingWrite] = {}
        self._acked: Dict[int, int] = {}
        self._last_ack_t: Dict[int, int] = {}
        self._sent_hi: Dict[int, int] = {}
        self._backoff: Dict[int, int] = {}
        self._next_ship: Dict[int, int] = {}
        self._next_renew = 0
        self._last_quorum_t = 0
        # Election state.
        self._el_phase: Optional[str] = None
        self._el_deadline = 0
        self._el_replies: Dict[int, ProbeReply] = {}
        self._el_backoff = self.cfg.election_backoff_base_ns
        self._el_next = 0
        self._restart_gate = Gate(self.engine)
        # The current wait (see _wait): where it began, its inbox
        # getter, its grid timer, and the event the process sleeps on.
        self._wait_start = 0
        self._getter = None
        self._timer = None
        self._wake = None
        self.engine.process(self._main(), name=f"replica-{node_id}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def applied_sn(self) -> int:
        """Durable high-water: every SN <= this is applied here."""
        return len(self.log)

    def _epoch_at(self, sn: int) -> int:
        return self.log[sn - 1].epoch if sn >= 1 else 0

    def _trace_point(self, name: str, **args) -> None:
        tr = self.engine.tracer
        if tr is not None:
            tr.point(name, track=f"node{self.node_id}", **args)

    # ------------------------------------------------------------------
    # Crash / restart (called by the cluster, synchronously)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose volatile state; the log and epoch_seen survive."""
        self.down = True
        self._boot_id += 1
        self.endpoint.up = False
        self.endpoint.clear()
        self.pending.clear()
        self.role = BACKUP
        self.readonly = False
        self._el_phase = None
        self.known_primary = None
        wake = self._wake
        if wake is not None and not wake.triggered \
                and not self._getter.triggered:
            # Sleeping: notice the crash at the first grid instant at
            # or after it, as a wakeup every tick would have.
            self._timer.cancel()
            self._arm(self.engine.now)

    def restart(self) -> None:
        self.down = False
        self.endpoint.up = True
        # Fresh failover clock: give any live primary a full window to
        # make contact before this node tries to elect itself.
        self.last_primary_contact = self.engine.now
        self._el_backoff = self.cfg.election_backoff_base_ns
        self._restart_gate.pulse()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _main(self):
        while True:
            if self.down:
                yield self._restart_gate.wait()
                continue
            msg = yield self._wait()
            if self.down:
                continue
            self._catch_up()
            if msg is not None:
                src, payload = msg
                yield from self._handle(src, payload)
            if not self.down:
                self._tick()

    def _wait(self):
        """Event firing with the next inbox message, or with None at
        the first grid instant ``start + k * tick_ns`` (k >= 1, start =
        now) at which :meth:`_tick` can act.

        The hops match :func:`repro.sim.sync._timed`: a delivery wakes
        the process two hops later in its instant, a queued message one
        hop later, and a message granted in the timer's instant wins.
        """
        self._wait_start = self.engine.now
        getter = self.endpoint.inbox.get()
        if getter.triggered:
            return getter
        self._getter = getter
        self._wake = self.engine.event()
        self._arm(self._next_action())
        getter.add_callback(self._on_message)
        return self._wake

    def _arm(self, due: int) -> None:
        """Time the current wait out at the first instant of its grid
        that is at or after ``due``."""
        tick = self.cfg.tick_ns
        start = self._wait_start
        k = max(1, -((start - due) // tick))
        self._timer = self.engine.timeout(start + k * tick - self.engine.now)
        self._timer.add_callback(self._on_timer)

    def _on_message(self, getter) -> None:
        timer = self._timer
        if not timer.processed:
            timer.cancel()
        self._wake.succeed(getter.value)

    def _on_timer(self, _timer) -> None:
        getter = self._getter
        if getter.triggered:
            return                       # a message won this instant
        getter.cancel()
        self._wake.succeed(None)

    def _next_action(self) -> int:
        """Earliest instant at which :meth:`_tick` can act, given the
        state the last tick left.  A strict ``now > d`` check in the
        tick is due at ``d + 1``."""
        cfg = self.cfg
        if self.role == BACKUP:
            return (self.last_primary_contact + cfg.failover_timeout_ns
                    + self.node_id * cfg.failover_stagger_ns + 1)
        if self.role == CANDIDATE:
            return self._el_deadline if self._el_phase is not None \
                else self._el_next
        due = min(self.lease_expires, *self._next_ship.values())
        if not self.readonly:
            due = min(due, self._next_renew)
        fresh_until = self._fresh_until()
        if fresh_until >= self.engine.now:
            due = min(due, fresh_until + 1)
        elif not self.readonly:
            due = min(due, self._last_quorum_t + cfg.readonly_after_ns + 1)
        return due

    def _fresh_until(self) -> int:
        """Last instant at which the quorum counts as fresh on the acks
        heard so far: the primary itself plus every peer heard from
        within the read-only window."""
        need = self.cluster.quorum - 1
        if need == 0:
            return _FOREVER
        heard = sorted((self._last_ack_t.get(p, -10**15) for p in self.peers),
                       reverse=True)
        return heard[need - 1] + self.cfg.readonly_after_ns

    def _catch_up(self) -> None:
        """Replay the grid instants this wait slept through.  Each was
        a no-op tick except that a primary whose quorum was fresh
        stamped ``_last_quorum_t``; acks arrive only as messages, so
        the last such instant is the last one at or before both now
        and the end of freshness."""
        if self.role != PRIMARY:
            return
        tick = self.cfg.tick_ns
        start = self._wait_start
        k = (min(self.engine.now, self._fresh_until()) - start) // tick
        if k >= 1:
            self._last_quorum_t = start + k * tick

    def _persist(self, nbytes: int):
        """Simulated durable append latency; returns False if a crash
        interrupted the persist (the append must be discarded)."""
        boot = self._boot_id
        delay = self.cfg.persist_base_ns + round(
            nbytes / self.cfg.persist_bytes_per_ns)
        yield self.engine.timeout(delay)
        return boot == self._boot_id and not self.down

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def _handle(self, src, msg):
        if isinstance(msg, Ship):
            yield from self._on_ship(src, msg)
        elif isinstance(msg, ShipAck):
            self._on_ship_ack(src, msg)
        elif isinstance(msg, ClientWrite):
            yield from self._on_client_write(src, msg)
        elif isinstance(msg, Probe):
            self.endpoint.send(src, ProbeReply(
                self.node_id, self.applied_sn,
                self._epoch_at(self.applied_sn), self.epoch_seen))
        elif isinstance(msg, ProbeReply):
            self._on_probe_reply(msg)
        elif isinstance(msg, LeaseReply):
            yield from self._on_lease_reply(msg)
        # Unknown messages are dropped silently (future-proofing).

    # ------------------------------------------------------------------
    # Backup: SN-ordered apply with divergence truncation
    # ------------------------------------------------------------------
    def _truncate(self, to_sn: int) -> None:
        del self.log[to_sn:]
        self.stats.truncations += 1
        self._trace_point("repl_truncate", at=self.applied_sn,
                          epoch=self.epoch_seen)

    def _ack_ship(self, src, ok: bool = True) -> None:
        self.endpoint.send(src, ShipAck(self.epoch_seen, self.node_id,
                                        self.applied_sn, ok=ok))

    def _on_ship(self, src, ship: Ship):
        if ship.epoch < self.epoch_seen:
            # Stale primary: tell it about the newer epoch so it steps
            # down instead of shipping forever.
            self._ack_ship(src, ok=False)
            return
        if ship.epoch > self.epoch_seen:
            self.epoch_seen = ship.epoch
        if self.role != BACKUP:
            # A primary with a valid (>=) epoch exists: fall in line.
            self._step_down("saw ship from a newer primary")
        self.known_primary = src
        self.last_primary_contact = self.engine.now
        # Consistency check on the record preceding the shipped range.
        if ship.prev_sn > self.applied_sn:
            self._ack_ship(src)          # gap: nack with our high-water
            return
        if ship.prev_sn >= 1 \
                and self._epoch_at(ship.prev_sn) != ship.prev_epoch:
            self._truncate(ship.prev_sn - 1)
            self._ack_ship(src)
            return
        ok = yield from self._integrate(ship.records)
        if ok:
            self.commit_sn = max(self.commit_sn,
                                 min(ship.commit_sn, self.applied_sn))
            self._ack_ship(src)

    def _integrate(self, records: Tuple[LogRecord, ...]):
        """Truncate any divergent overlap, persist, append in SN order.

        Returns False when a crash interrupted the persist.
        """
        fresh: List[LogRecord] = []
        for r in records:
            if r.sn <= self.applied_sn:
                if self._epoch_at(r.sn) != r.epoch:
                    # Divergent suffix from a dead primary's epoch:
                    # truncate, then take the new primary's records.
                    self._truncate(r.sn - 1)
                    fresh.append(r)
            elif r.sn == self.applied_sn + len(fresh) + 1:
                fresh.append(r)
            else:
                break                    # out-of-order tail: drop it
        if not fresh:
            return True
        ok = yield from self._persist(sum(r.nbytes for r in fresh))
        if not ok:
            return False
        self.log.extend(fresh)
        self._trace_point("repl_apply", sn=self.applied_sn,
                          epoch=self.epoch_seen, n=len(fresh))
        return True

    # ------------------------------------------------------------------
    # Primary: append, ship, commit, ack
    # ------------------------------------------------------------------
    def _is_primary_now(self) -> bool:
        if self.role != PRIMARY:
            return False
        if self.engine.now >= self.lease_expires:
            self._step_down("lease expired")
            return False
        return True

    def _on_client_write(self, src, msg: ClientWrite):
        if not self._is_primary_now():
            self.endpoint.send(src, ClientResp(
                msg.req_id, False, reason=NOT_PRIMARY,
                hint=self.known_primary))
            return
        if self.readonly:
            self.stats.readonly_rejects += 1
            self.endpoint.send(src, ClientResp(
                msg.req_id, False, reason=READONLY))
            return
        epoch = self.my_epoch
        record = LogRecord(self.applied_sn + 1, epoch, msg.nbytes,
                           token=(str(src), msg.req_id))
        ok = yield from self._persist(record.nbytes)
        if not ok or self.role != PRIMARY or self.my_epoch != epoch:
            return                       # crashed or deposed mid-persist
        self.log.append(record)
        self._trace_point("repl_apply", sn=self.applied_sn,
                          epoch=self.epoch_seen, n=1)
        self.pending[record.sn] = PendingWrite(src, msg.req_id,
                                               msg.deadline)
        # Ship eagerly: every peer is due now.
        now = self.engine.now
        for p in self.peers:
            self._next_ship[p] = min(self._next_ship.get(p, now), now)
        self._recompute_commit()

    def _on_ship_ack(self, src, ack: ShipAck) -> None:
        if self.role != PRIMARY:
            return
        if not ack.ok and ack.epoch > self.my_epoch:
            self.epoch_seen = max(self.epoch_seen, ack.epoch)
            self._step_down("deposed by newer epoch")
            return
        if ack.epoch != self.my_epoch:
            return                       # stale ack from an old term
        prev = self._acked.get(src, 0)
        self._acked[src] = ack.applied_sn
        self._last_ack_t[src] = self.engine.now
        if ack.applied_sn != prev:
            # Progress (or a truncation walk-back): keep the pipeline
            # hot instead of waiting out the backoff.
            self._backoff[src] = self.cfg.ship_interval_ns
            self._next_ship[src] = self.engine.now
        self._recompute_commit()

    def _recompute_commit(self) -> None:
        votes = sorted([self.applied_sn]
                       + [self._acked.get(p, 0) for p in self.peers],
                       reverse=True)
        candidate = votes[self.cluster.quorum - 1]
        if candidate <= self.commit_sn:
            return
        if self._epoch_at(candidate) != self.my_epoch:
            # Raft's commit rule: only entries of the *current* epoch
            # commit by counting replicas; older entries commit
            # implicitly once a current-epoch entry (the election
            # no-op at the latest) covers them.  Without this, a
            # quorum-applied old-epoch entry could be acked and then
            # truncated by a later, more up-to-date primary.
            return
        self.commit_sn = candidate
        for sn in sorted(self.pending):
            if sn > self.commit_sn:
                break
            w = self.pending.pop(sn)
            self._trace_point("repl_ack", sn=sn, epoch=self.my_epoch,
                              quorum=self.cluster.quorum)
            self.endpoint.send(w.src, ClientResp(w.req_id, True, sn=sn))

    def _ship_to(self, peer: int) -> bool:
        """Ship the peer's next unacked range (empty = heartbeat);
        returns whether records were sent."""
        lo = self._acked.get(peer, 0) + 1
        if lo > self.applied_sn:
            records: Tuple[LogRecord, ...] = ()
            prev_sn = self.applied_sn
        else:
            records = tuple(self.log[lo - 1: lo - 1 + self.cfg.ship_batch])
            prev_sn = lo - 1
        ship = Ship(self.my_epoch, prev_sn, self._epoch_at(prev_sn),
                    records, self.commit_sn)
        if records:
            hi = records[-1].sn
            if hi <= self._sent_hi.get(peer, 0):
                self.stats.retransmits += 1
            self._sent_hi[peer] = max(self._sent_hi.get(peer, 0), hi)
            tr = self.engine.tracer
            if tr is not None:
                tr.point("repl_ship", track="net", frm=self.node_id,
                         to=peer, epoch=self.my_epoch,
                         lo=records[0].sn, hi=hi)
        self.endpoint.send(peer, ship, nbytes=ship.nbytes)
        return bool(records)

    def _primary_tick(self) -> None:
        cfg = self.cfg
        now = self.engine.now
        if now <= self._fresh_until():
            self._last_quorum_t = now
            self.readonly = False
        elif now - self._last_quorum_t > cfg.readonly_after_ns:
            if not self.readonly:
                self.readonly = True
                self._trace_point("repl_readonly", epoch=self.my_epoch)
        # Lease renewal -- suppressed while read-only, so a partitioned
        # primary lets its lease lapse and the majority side can elect.
        if not self.readonly and now >= self._next_renew:
            self.cluster.send_lease_request(self)
            self._next_renew = now + cfg.renew_every_ns
        # Ship / retransmit with bounded, deadline-clamped backoff.
        clamp = None
        deadlines = [w.deadline for w in self.pending.values()
                     if w.deadline is not None]
        if deadlines:
            clamp = max(cfg.tick_ns, min(deadlines) - now)
        for p in self.peers:
            if now >= self._next_ship.get(p, 0):
                if self._ship_to(p):
                    # Unacked records outstanding: exponential backoff,
                    # clamped so a deadlined write still gets retries.
                    backoff = min(
                        self._backoff.get(p, cfg.ship_interval_ns) * 2,
                        cfg.retransmit_cap_ns)
                    self._backoff[p] = backoff
                    delay = backoff if clamp is None else min(backoff, clamp)
                else:
                    # Idle heartbeat: steady cadence, never backed off,
                    # so quorum-health freshness stays well inside the
                    # read-only window.
                    self._backoff[p] = cfg.ship_interval_ns
                    delay = cfg.ship_interval_ns
                self._next_ship[p] = now + delay

    # ------------------------------------------------------------------
    # Role transitions
    # ------------------------------------------------------------------
    def _step_down(self, why: str) -> None:
        if self.role == PRIMARY:
            self._trace_point("repl_stepdown", epoch=self.my_epoch, why=why)
        self.role = BACKUP
        self.readonly = False
        self.pending.clear()
        self._el_phase = None
        self.last_primary_contact = self.engine.now

    def _become_primary(self, epoch: int, expires_at: int) -> None:
        now = self.engine.now
        self.role = PRIMARY
        self.my_epoch = epoch
        self.epoch_seen = max(self.epoch_seen, epoch)
        self.lease_expires = expires_at
        self.known_primary = self.node_id
        self.readonly = False
        self.pending.clear()
        self._el_phase = None
        self._el_backoff = self.cfg.election_backoff_base_ns
        self._last_quorum_t = now
        self._next_renew = now + self.cfg.renew_every_ns
        self._acked = {}
        self._last_ack_t = {}
        self._sent_hi = {}
        self._backoff = {p: self.cfg.ship_interval_ns for p in self.peers}
        self._next_ship = {p: now for p in self.peers}
        self.cluster.note_primary(self.node_id, epoch)

    # ------------------------------------------------------------------
    # Elections (probe quorum -> best log wins the lease)
    # ------------------------------------------------------------------
    def _log_rank(self) -> Tuple[int, int]:
        return (self._epoch_at(self.applied_sn), self.applied_sn)

    def _start_election(self) -> None:
        cfg = self.cfg
        self.role = CANDIDATE
        self._el_phase = "probe"
        self._el_deadline = self.engine.now + cfg.election_timeout_ns
        self._el_replies = {self.node_id: ProbeReply(
            self.node_id, self.applied_sn,
            self._epoch_at(self.applied_sn), self.epoch_seen)}
        for p in self.peers:
            self.endpoint.send(p, Probe())

    def _on_probe_reply(self, reply: ProbeReply) -> None:
        if self.role != CANDIDATE or self._el_phase != "probe":
            return
        self.epoch_seen = max(self.epoch_seen, reply.epoch_seen)
        self._el_replies[reply.node] = reply
        if len(self._el_replies) < self.cluster.quorum:
            return
        # A quorum answered.  Every probe quorum intersects every ack
        # quorum, so the best (tail_epoch, applied_sn) among the
        # responders covers every quorum-acked record; only a candidate
        # whose own log matches that rank may take the lease (Raft's
        # election restriction).  A behind candidate abandons the round
        # -- the best-logged node's own failover timer will elect it.
        best = max((r.tail_epoch, r.applied_sn)
                   for r in self._el_replies.values())
        if self._log_rank() >= best:
            self._request_lease()
        else:
            self._abandon_round()

    def _abandon_round(self) -> None:
        self._el_phase = None
        self._el_next = self.engine.now + self._el_backoff
        self._el_backoff = min(self._el_backoff * 2,
                               self.cfg.election_backoff_cap_ns)

    def _request_lease(self) -> None:
        self._el_phase = "lease"
        self._el_deadline = self.engine.now + self.cfg.election_timeout_ns
        self.cluster.send_lease_request(self)

    def _on_lease_reply(self, reply: LeaseReply):
        if self.role == PRIMARY:
            if reply.granted and reply.holder == self.node_id \
                    and reply.epoch == self.my_epoch:
                self.lease_expires = reply.expires_at   # renewed
            elif not reply.granted or reply.holder != self.node_id:
                self._step_down("lease lost")
            return
        if self.role != CANDIDATE or self._el_phase != "lease":
            return
        if reply.granted and reply.holder == self.node_id:
            self._become_primary(reply.epoch, reply.expires_at)
            # Commit-point no-op: the new primary cannot count-commit
            # inherited old-epoch records (see _recompute_commit), so
            # it seals them under its own epoch immediately.
            epoch = self.my_epoch
            noop = LogRecord(self.applied_sn + 1, epoch, 0,
                             token=("noop", epoch))
            ok = yield from self._persist(0)
            if not ok or self.role != PRIMARY or self.my_epoch != epoch:
                return
            self.log.append(noop)
            self._trace_point("repl_apply", sn=self.applied_sn,
                              epoch=self.epoch_seen, n=1)
        else:
            # Someone else holds the lease: fall back and give them a
            # full contact window before trying again.
            self._step_down("lease held elsewhere")

    def _candidate_tick(self) -> None:
        now = self.engine.now
        if self._el_phase is not None and now >= self._el_deadline:
            # This round stalled (probe/lease replies lost): back off
            # and retry a full round later.
            self._abandon_round()
        if self._el_phase is None and now >= self._el_next:
            self._start_election()

    # ------------------------------------------------------------------
    # Timer work, run after every wakeup
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        role = self.role
        if role == PRIMARY:
            if self._is_primary_now():
                self._primary_tick()
        elif role == CANDIDATE:
            self._candidate_tick()
        else:
            timeout = (self.cfg.failover_timeout_ns
                       + self.node_id * self.cfg.failover_stagger_ns)
            if self.engine.now - self.last_primary_contact > timeout:
                self._start_election()
