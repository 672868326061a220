"""Trace-invariant oracles: turn a trace into a checked execution.

A :class:`TraceChecker` replays a tracer's event stream through a set
of *oracles*, each encoding one ordering/persistence invariant the
simulator must uphold.  Aggregate counters and fixed-seed goldens can
only say "the totals look right"; these oracles say "nothing illegal
happened in between", in the spirit of trace-based PM-filesystem
checkers (Silhouette, Chipmunk).

Event vocabulary the instrumentation emits (see the site modules):

========================  =======================================================
event (track)             args
========================  =======================================================
``dma_submit``  (chN)     ``sn``, ``nbytes``, ``write``
``dma_complete`` (chN)    ``sn``
``dma_fault``  (chN)      ``sn``, ``fault``, ``halted``
``dma_reset``  (chN)      ``sns`` (stranded)
``chancmd_suspend/_resume`` (chN)
``write_commit`` (fs)     ``ino``, ``pids``, ``sns`` [op]
``sn_amend``   (fs)       ``ino``, ``old``, ``new``
``write_ack``  (fs)       ``ino`` [op]
``pages_persist`` (persist)  ``pids``
``deadline_abort`` (fs)   ``what`` [op]
``park`` / ``wake``       ``ut`` [op]
``admission``  (coreN)    ``verdict``, ``ut``
spans ``write``/``read``/``plan``/``submit``/``level2``/``copy`` [op]
``repl_ship``  (net)      ``frm``, ``to``, ``epoch``, ``lo``, ``hi``
``repl_apply`` (nodeN)    ``sn`` (durable high-water), ``epoch``, ``n``
``repl_truncate`` (nodeN) ``at`` (new high-water), ``epoch``
``repl_ack``   (nodeN)    ``sn``, ``epoch``, ``quorum``
``lease_grant`` (lease)   ``epoch``, ``node``, ``expires``
``partition`` / ``heal`` (net)  ``group``
``node_crash`` / ``node_restart`` (net)  ``node``
========================  =======================================================

Adding an oracle: subclass :class:`Oracle`, implement ``feed`` (called
once per event, in stream order) and optionally ``finish``, then
register it in :data:`ORACLES` (or pass the instance's class straight
to :class:`TraceChecker`).  Oracles are stateful and single-use; the
checker constructs a fresh set per ``check`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from repro.obs.trace import BEGIN, END, POINT, TraceEvent


@dataclass
class Violation:
    """One invariant breach, anchored to the offending event."""

    oracle: str
    message: str
    t: int
    index: int

    def __str__(self) -> str:
        return f"[{self.oracle}] t={self.t} #{self.index}: {self.message}"


class Oracle:
    """Base class: feed events in order, collect violations."""

    name = "oracle"

    def __init__(self):
        self.violations: List[Violation] = []
        self._index = 0

    def flag(self, ev: TraceEvent, message: str) -> None:
        self.violations.append(
            Violation(self.name, message, ev.t, self._index))

    def observe(self, index: int, ev: TraceEvent) -> None:
        self._index = index
        self.feed(ev)

    def feed(self, ev: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def finish(self) -> None:
        """Hook for end-of-stream checks (default: nothing)."""


class AckImpliesDurable(Oracle):
    """No write is acknowledged before every page it wrote persisted.

    ``write_commit`` declares the op's page set, ``pages_persist``
    events grow the durable set, and at ``write_ack`` the op's pages
    must all be durable.  This is exactly EasyIO's contract: the
    pending event fires only after the DMA's ``on_complete`` persisted
    the data (or the degradation path did).
    """

    name = "ack-implies-durable"

    def __init__(self):
        super().__init__()
        self._durable: Set[int] = set()
        self._op_pages: Dict[int, Set[int]] = {}

    def feed(self, ev: TraceEvent) -> None:
        if ev.ph != POINT:
            return
        if ev.name == "pages_persist":
            self._durable.update(ev.args["pids"])
        elif ev.name == "write_commit" and ev.op is not None:
            self._op_pages.setdefault(ev.op, set()).update(ev.args["pids"])
        elif ev.name == "write_ack" and ev.op is not None:
            pages = self._op_pages.get(ev.op)
            if pages is None:
                return  # zero-byte or metadata-only op
            missing = pages - self._durable
            if missing:
                self.flag(ev, f"op {ev.op} acked with non-durable pages "
                              f"{sorted(missing)}")


class ChannelSnOrder(Oracle):
    """Per-channel submit/complete sequencing.

    * submit SNs are strictly increasing (the channel allocates them
      from a counter);
    * a completion's SN must have been submitted, never completed
      twice, and completion SNs are strictly increasing (FIFO ring);
    * a completion that *jumps past* SNs is legal only when every
      skipped SN already failed or was stranded (poisoned-SN rule).
    """

    name = "channel-sn-order"

    def __init__(self):
        super().__init__()
        self._submitted: Dict[str, int] = {}          # track -> max sn
        self._completed: Dict[str, int] = {}          # track -> max sn
        self._failed: Dict[str, Set[int]] = {}        # track -> poisoned

    def feed(self, ev: TraceEvent) -> None:
        if ev.ph != POINT:
            return
        track = ev.track
        if ev.name == "dma_submit":
            sn = ev.args["sn"]
            last = self._submitted.get(track, 0)
            if sn <= last:
                self.flag(ev, f"{track}: submit sn {sn} not above "
                              f"previous {last}")
            self._submitted[track] = max(last, sn)
        elif ev.name == "dma_fault":
            self._failed.setdefault(track, set()).add(ev.args["sn"])
        elif ev.name == "dma_reset":
            self._failed.setdefault(track, set()).update(ev.args["sns"])
        elif ev.name == "dma_complete":
            sn = ev.args["sn"]
            if sn > self._submitted.get(track, 0):
                self.flag(ev, f"{track}: sn {sn} completed before submit")
            prev = self._completed.get(track, 0)
            if sn <= prev:
                self.flag(ev, f"{track}: completion sn {sn} not above "
                              f"previous completion {prev}")
            failed = self._failed.get(track, ())
            skipped = [s for s in range(prev + 1, sn) if s not in failed]
            if skipped:
                self.flag(ev, f"{track}: completion jumped past live SNs "
                              f"{skipped}")
            self._completed[track] = max(prev, sn)


class SnCommitConsistency(Oracle):
    """Committed/amended SNs are real, monotonic per inode, not poisoned.

    * every ``(channel, sn)`` a ``write_commit`` embeds must already be
      submitted on that channel;
    * per (inode, channel) the committed SN strictly increases across
      commits/amendments (level-2 serialises writes per inode);
    * an amendment's ``old`` matches the inode's latest SN tuple, and
      its ``new`` SNs are submitted and not poisoned at amend time --
      the SN-safety rule that keeps recovery sound across failover.
    """

    name = "sn-commit-consistency"

    def __init__(self):
        super().__init__()
        self._submitted: Dict[int, int] = {}               # chid -> max sn
        self._failed: Dict[int, Set[int]] = {}             # chid -> poisoned
        self._last: Dict[Tuple[int, int], int] = {}        # (ino, chid) -> sn
        self._last_tuple: Dict[int, tuple] = {}            # ino -> sns

    @staticmethod
    def _chid(track: str) -> Optional[int]:
        if track.startswith("ch"):
            try:
                return int(track[2:])
            except ValueError:
                return None
        return None

    def _apply(self, ev: TraceEvent, ino: int, sns: Sequence, what: str):
        for chid, sn in sns:
            if sn > self._submitted.get(chid, 0):
                self.flag(ev, f"ino {ino}: {what} embeds unsubmitted "
                              f"ch{chid}/sn{sn}")
            last = self._last.get((ino, chid), 0)
            if sn <= last:
                self.flag(ev, f"ino {ino}: {what} sn {sn} on ch{chid} "
                              f"not above previous {last}")
            self._last[(ino, chid)] = max(last, sn)
        self._last_tuple[ino] = tuple(tuple(p) for p in sns)

    def feed(self, ev: TraceEvent) -> None:
        if ev.ph != POINT:
            return
        if ev.name == "dma_submit":
            chid = self._chid(ev.track)
            if chid is not None:
                self._submitted[chid] = max(self._submitted.get(chid, 0),
                                            ev.args["sn"])
        elif ev.name == "dma_fault":
            chid = self._chid(ev.track)
            if chid is not None:
                self._failed.setdefault(chid, set()).add(ev.args["sn"])
        elif ev.name == "dma_reset":
            chid = self._chid(ev.track)
            if chid is not None:
                self._failed.setdefault(chid, set()).update(ev.args["sns"])
        elif ev.name == "write_commit":
            self._apply(ev, ev.args["ino"], ev.args["sns"], "commit")
        elif ev.name == "sn_amend":
            ino = ev.args["ino"]
            old = tuple(tuple(p) for p in ev.args["old"])
            seen = self._last_tuple.get(ino)
            if seen is not None and seen != old:
                self.flag(ev, f"ino {ino}: amend replaces {old} but last "
                              f"committed tuple was {seen}")
            new = ev.args["new"]
            for chid, sn in new:
                if sn > self._submitted.get(chid, 0):
                    self.flag(ev, f"ino {ino}: amend embeds unsubmitted "
                                  f"ch{chid}/sn{sn}")
                if sn in self._failed.get(chid, ()):
                    self.flag(ev, f"ino {ino}: amend embeds poisoned "
                                  f"ch{chid}/sn{sn}")
            self._last_tuple[ino] = tuple(tuple(p) for p in new)


class SpanCausality(Oracle):
    """Span nesting and park/wake causality.

    * per operation, ``end`` events close the innermost open span of
      the same name (stack discipline) -- an ``end`` with no matching
      ``begin`` is a violation (a *still-open* span at end of stream
      is not: truncated ``run(until=...)`` sweeps abandon ops legally);
    * a ``wake`` for a uthread requires an earlier unconsumed ``park``
      for the same uthread, and a parked uthread cannot park again
      before waking.
    """

    name = "span-causality"

    def __init__(self):
        super().__init__()
        self._stacks: Dict[object, List[str]] = {}
        self._parked: Dict[str, int] = {}

    def feed(self, ev: TraceEvent) -> None:
        if ev.ph == BEGIN:
            self._stacks.setdefault((ev.op, ev.track), []).append(ev.name)
        elif ev.ph == END:
            stack = self._stacks.get((ev.op, ev.track))
            if not stack:
                self.flag(ev, f"end of {ev.name!r} with no open span")
            elif stack[-1] != ev.name:
                self.flag(ev, f"end of {ev.name!r} but innermost open "
                              f"span is {stack[-1]!r}")
            else:
                stack.pop()
        elif ev.ph == POINT:
            if ev.name == "park":
                ut = ev.args["ut"]
                if self._parked.get(ut, 0):
                    self.flag(ev, f"uthread {ut} parked while parked")
                self._parked[ut] = self._parked.get(ut, 0) + 1
            elif ev.name == "wake":
                ut = ev.args["ut"]
                if not self._parked.get(ut, 0):
                    self.flag(ev, f"uthread {ut} woken without a park")
                else:
                    self._parked[ut] -= 1


class DeadlineAbortFinality(Oracle):
    """A deadline-aborted operation has no later effects.

    Deadlines abort only at clean points (pre-submit, or while
    waiting), so an op that emitted ``deadline_abort`` must never
    commit or ack afterwards.
    """

    name = "deadline-abort-finality"

    def __init__(self):
        super().__init__()
        self._aborted: Set[int] = set()

    def feed(self, ev: TraceEvent) -> None:
        if ev.ph != POINT or ev.op is None:
            return
        if ev.name == "deadline_abort":
            self._aborted.add(ev.op)
        elif ev.name in ("write_commit", "write_ack") \
                and ev.op in self._aborted:
            self.flag(ev, f"op {ev.op} emitted {ev.name} after its "
                          f"deadline abort")


def _node_track(track: str) -> Optional[str]:
    """``node<id>`` tracks carry per-replica replication events."""
    return track[4:] if track.startswith("node") else None


class ClusterAckDurable(Oracle):
    """A replicated ack implies quorum durability -- and stays durable.

    ``repl_apply``/``repl_truncate`` maintain each replica's durable
    SN high-water.  At every ``repl_ack`` (the primary acking a client
    write), at least ``quorum`` replicas must already hold the acked
    SN.  Afterwards, a truncation is only legal over *unacked* suffix:
    if a truncate drops a replica below an acked SN, the survivors
    holding that SN must still form a quorum, else committed data was
    lost (the cluster analogue of :class:`AckImpliesDurable`).

    No-op on traces without replication events.
    """

    name = "cluster-ack-durable"

    def __init__(self):
        super().__init__()
        self._applied: Dict[str, int] = {}       # node -> high-water
        self._acked: Dict[int, int] = {}         # acked sn -> quorum
        self._max_acked = 0

    def feed(self, ev: TraceEvent) -> None:
        if ev.ph != POINT:
            return
        node = _node_track(ev.track)
        if node is None:
            return
        if ev.name == "repl_apply":
            self._applied[node] = max(self._applied.get(node, 0),
                                      ev.args["sn"])
        elif ev.name == "repl_ack":
            sn, quorum = ev.args["sn"], ev.args["quorum"]
            holders = sum(1 for hw in self._applied.values() if hw >= sn)
            if holders < quorum:
                self.flag(ev, f"sn {sn} acked with only {holders} durable "
                              f"replica(s), quorum is {quorum}")
            self._acked[sn] = quorum
            self._max_acked = max(self._max_acked, sn)
        elif ev.name == "repl_truncate":
            at = ev.args["at"]
            before = self._applied.get(node, 0)
            self._applied[node] = at
            for sn in range(at + 1, min(before, self._max_acked) + 1):
                quorum = self._acked.get(sn)
                if quorum is None:
                    continue
                holders = sum(1 for hw in self._applied.values()
                              if hw >= sn)
                if holders < quorum:
                    self.flag(ev, f"node {node} truncated to {at}, "
                                  f"leaving acked sn {sn} on only "
                                  f"{holders} replica(s) (quorum {quorum})")


class ReplicaSnMonotonic(Oracle):
    """Per-replica SN/epoch discipline.

    * ``repl_apply`` raises the node's durable high-water strictly
      (appends are in SN order, no re-apply);
    * ``repl_truncate`` strictly lowers it (an empty truncate would be
      instrumentation noise);
    * the ``epoch`` stamped on apply/truncate events never decreases
      per node -- a replica's durable epoch is a high-water mark.

    No-op on traces without replication events.
    """

    name = "replica-sn-monotonic"

    def __init__(self):
        super().__init__()
        self._applied: Dict[str, int] = {}
        self._epoch: Dict[str, int] = {}

    def feed(self, ev: TraceEvent) -> None:
        if ev.ph != POINT or ev.name not in ("repl_apply", "repl_truncate"):
            return
        node = _node_track(ev.track)
        if node is None:
            return
        epoch = ev.args["epoch"]
        last_epoch = self._epoch.get(node, 0)
        if epoch < last_epoch:
            self.flag(ev, f"node {node}: epoch regressed "
                          f"{last_epoch} -> {epoch}")
        self._epoch[node] = max(last_epoch, epoch)
        hw = self._applied.get(node, 0)
        if ev.name == "repl_apply":
            sn = ev.args["sn"]
            if sn <= hw:
                self.flag(ev, f"node {node}: applied sn {sn} not above "
                              f"high-water {hw}")
            self._applied[node] = max(hw, sn)
        else:
            at = ev.args["at"]
            if at >= hw:
                self.flag(ev, f"node {node}: truncate to {at} does not "
                              f"lower high-water {hw}")
            self._applied[node] = at


class OnePrimaryPerEpoch(Oracle):
    """Lease epochs are exclusive: one grant, one acting primary.

    * ``lease_grant`` epochs are strictly increasing (each new holder
      mints a fresh epoch), so an epoch is granted at most once;
    * every ``repl_ship`` and ``repl_ack`` stamped with epoch ``e``
      must be emitted by the node ``e`` was granted to -- two nodes
      acting as primary in one epoch is the split-brain this oracle
      exists to catch.

    No-op on traces without replication events.
    """

    name = "one-primary-per-lease-epoch"

    def __init__(self):
        super().__init__()
        self._grantee: Dict[int, str] = {}
        self._last_epoch = 0

    def feed(self, ev: TraceEvent) -> None:
        if ev.ph != POINT:
            return
        if ev.name == "lease_grant":
            epoch, node = ev.args["epoch"], str(ev.args["node"])
            if epoch <= self._last_epoch:
                self.flag(ev, f"lease epoch {epoch} granted after epoch "
                              f"{self._last_epoch}")
            if epoch in self._grantee:
                self.flag(ev, f"lease epoch {epoch} granted twice")
            self._grantee[epoch] = node
            self._last_epoch = max(self._last_epoch, epoch)
            return
        if ev.name == "repl_ship":
            actor = str(ev.args["frm"])
        elif ev.name == "repl_ack":
            actor = _node_track(ev.track)
            if actor is None:
                return
        else:
            return
        epoch = ev.args["epoch"]
        grantee = self._grantee.get(epoch)
        if grantee is None:
            self.flag(ev, f"{ev.name} in epoch {epoch} which was never "
                          f"granted")
        elif grantee != actor:
            self.flag(ev, f"{ev.name} by node {actor} in epoch {epoch} "
                          f"granted to node {grantee}")


#: The oracle registry: name -> class.  ``register_oracle`` (or a
#: direct assignment) adds project-specific invariants.
ORACLES: Dict[str, Type[Oracle]] = {
    cls.name: cls for cls in (
        AckImpliesDurable, ChannelSnOrder, SnCommitConsistency,
        SpanCausality, DeadlineAbortFinality,
        ClusterAckDurable, ReplicaSnMonotonic, OnePrimaryPerEpoch,
    )
}


def register_oracle(cls: Type[Oracle]) -> Type[Oracle]:
    """Register an oracle class under its ``name`` (usable as a
    decorator)."""
    ORACLES[cls.name] = cls
    return cls


class TraceChecker:
    """Replays an event stream through a set of oracles.

    ``oracles`` may mix registry names and :class:`Oracle` subclasses;
    the default is every registered oracle.  Each ``check`` call
    constructs fresh oracle instances, so a checker is reusable.
    """

    def __init__(self, oracles: Optional[Iterable] = None):
        if oracles is None:
            self._classes = list(ORACLES.values())
        else:
            self._classes = [ORACLES[o] if isinstance(o, str) else o
                             for o in oracles]

    def check(self, events: Iterable[TraceEvent]) -> List[Violation]:
        """All violations across the stream, in stream order."""
        instances = [cls() for cls in self._classes]
        for i, ev in enumerate(events):
            for oracle in instances:
                oracle.observe(i, ev)
        out: List[Violation] = []
        for oracle in instances:
            oracle.finish()
            out.extend(oracle.violations)
        out.sort(key=lambda v: v.index)
        return out


def assert_trace_ok(events: Iterable[TraceEvent],
                    oracles: Optional[Iterable] = None) -> None:
    """Raise ``AssertionError`` listing every violation, if any."""
    violations = TraceChecker(oracles).check(events)
    if violations:
        lines = "\n".join(f"  {v}" for v in violations)
        raise AssertionError(
            f"{len(violations)} trace-invariant violation(s):\n{lines}")
