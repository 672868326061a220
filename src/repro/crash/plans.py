"""Mechanism-aware crash-plan generation over a line stream.

Brute-force line-granularity crash testing is hopeless: every
in-flight store contributes ``2^lines`` subsets per crash position.
But almost all of those states are equivalent *to recovery*: an
8-byte-atomic tail commit either landed or it didn't; a torn log entry
is torn however many of its middle lines are missing; page data only
matters as "complete", "absent", or "representative partial shapes"
(prefix / suffix / hole).  This is Silhouette's mechanism reasoning:
enumerate one representative per equivalence class instead of every
raw subset.

:class:`CrashPlanner` walks the stream once, and at every *interesting*
position (just before each fence, just before each immediate store,
and end-of-stream) emits :class:`CrashPlan` candidates from the
in-flight set:

* ``intact`` / ``flushed`` -- none / all of the in-flight stores land;
* ``solo:<mech>`` / ``drop:<mech>`` -- exactly one lands / exactly one
  is dropped (the single-store reordering cases);
* ``torn[-solo]:<mech>`` -- a multi-line ``record`` store lands a line
  prefix (with the rest of the in-flight set landed / dropped);
* ``head/prefix/suffix/hole:<mech>`` -- representative partial shapes
  of a multi-line ``data`` store, rest of the in-flight set landed.

Plans are deduplicated by resulting applied-state (two positions whose
durable+chosen sets produce the same image and the same legality range
are one plan), then sampled per *signature* -- the epoch's mechanism
context -- so a long workload's thousands of identical-looking epochs
collapse to a few representatives each.  ``raw_states`` counts the
2^lines subsets the emitted plans stand in for.

Only a few percent of the candidates survive dedup and sampling, so
a candidate costs integer arithmetic and one set lookup: each store
carries its mix, raw-state bits and class templates from the moment it
is issued, and the dedup key is built from running in-flight totals.
Only a new key pays for a signature, and only a sampled one for its
``applied`` set and its :class:`CrashPlan`.

All sampling is driven by a seeded ``random.Random``: the same stream
and seed produce the identical plan list (tests pin this).
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.crash.linestream import (FenceRec, LineStore, LineStream,
                                    _covered_at)

_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
#: A plan's sampling order: position, then class.
_ORDER = attrgetter("point", "cls")


def _mix(seq: int) -> int:
    """splitmix64 of ``seq + 1``: the per-store addend of the planner's
    order-free set hash.  The finalizer matters: without it the mix is
    linear in ``seq``, so a sum over a set reduces to (count, sum of
    seqs) and distinct states such as {68, 71} and {69, 70} collide."""
    z = ((seq + 1) * _MIX) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@dataclass(frozen=True)
class CrashPlan:
    """One representative crash state: a stream position plus the
    chosen subset of in-flight stores.

    ``applied`` are fully landed in-flight seqs; ``partials`` maps a
    seq to the line indices that landed.  ``lo``/``hi`` bound the legal
    oracle states at this point (ops acked / ops started).
    """

    point: int
    cls: str
    applied: frozenset
    partials: Tuple[Tuple[int, Tuple[int, ...]], ...]
    lo: int
    hi: int
    signature: str = field(compare=False, default="")


class CrashPlanner:
    """Enumerate representative crash plans for one recorded stream.

    Parameters
    ----------
    stream:
        The recording image's :class:`LineStream`.
    op_bounds:
        Per-op ``[start, end)`` stream positions (defaults to
        ``stream.op_bounds``); ``lo`` at a point counts ops whose end
        (the ack boundary) lies at or before it, ``hi`` ops that
        started.  An op acked by the crash point must survive recovery
        under *every* plan -- that is the paper's ack-implies-durable
        contract, and it is strictly stronger than the page model's
        "all mutations present" notion of durable.
    per_signature:
        Plans kept per (epoch-context, in-flight-shape, class)
        signature; ``None`` keeps every deduplicated plan (exhaustive
        mode, for the mutant-detection tests).
    budget:
        Hard cap on emitted plans (at least one per signature is
        retained); ``None`` = no cap.  Either bound below one raises
        ``ValueError``.
    seed:
        Drives every sampling decision.
    """

    def __init__(self, stream: LineStream,
                 op_bounds: Optional[Sequence[Tuple[int, int]]] = None,
                 per_signature: Optional[int] = 3,
                 budget: Optional[int] = None,
                 seed: int = 0):
        check_sampler_bounds(per_signature, budget)
        self.stream = stream
        bounds = list(op_bounds if op_bounds is not None
                      else stream.op_bounds)
        self._ends = [e for (_s, e) in bounds]
        self._starts = [s for (s, _e) in bounds]
        self.per_signature = per_signature
        self.budget = budget
        self.seed = seed
        #: Raw 2^lines crash states the interesting positions span
        #: (what brute-force line enumeration would have to replay).
        self.raw_states = 0
        #: Interesting positions examined.
        self.positions = 0
        #: Final plan count per class (filled by :meth:`plans`).
        self.plan_classes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def plans(self) -> List[CrashPlan]:
        """Generate, deduplicate, and sample the plan set."""
        drafts: List[_Draft] = []
        self.raw_states = 0
        self.positions = 0

        durable_hash = 0      # order-free content hash of the durable set
        n_durable = 0
        stream = self.stream
        cov = _covered_at(stream)
        cancelled = stream.cancelled
        records = stream.records
        ends, starts = self._ends, self._starts
        # In-flight stores by seq, in issue order: each joins when it
        # is issued and leaves at the fence ``cov[seq]`` names.  The
        # running totals are over the in-flight set.
        inflight: Dict[int, _Issued] = {}
        leaves_at: Dict[int, List[int]] = {}
        mix_total = 0         # sum of the in-flight mixes (unreduced)
        raw_bits = 0          # log2 of the in-flight raw-state product
        partial_ids: Dict[Tuple, int] = {}
        # Dedup keys ``((set hash, applied count), partial id)`` seen
        # at the current legality range.  Points are visited in order
        # and ``bisect_right`` never decreases as its probe grows, so a
        # range left behind never returns and neither do its keys.
        seen: set = set()
        bounds = (0, 0)

        def visit(point: int, context: str) -> None:
            nonlocal bounds
            self.positions += 1
            lo = bisect_right(ends, point)
            hi = bisect_right(starts, point)
            if (lo, hi) != bounds:
                bounds = (lo, hi)
                seen.clear()
            seqs = flight_sig = None    # built for the first new key

            def add(key, cls, applies, seq, partials) -> None:
                nonlocal seqs, flight_sig
                if seqs is None:
                    seqs = tuple(inflight)
                    flight_sig = ",".join(sorted(st.tag for st in
                                                 inflight.values()))
                seen.add(key)
                drafts.append(_Draft(point, cls,
                                     f"{context}|{cls}|{flight_sig}", lo, hi,
                                     partials, seqs, applies, seq))

            durable = (durable_hash, n_durable)
            key = (durable, 0)
            if key not in seen:
                add(key, "intact", _NONE, -1, ())
            if not inflight:
                return
            self.raw_states += 1 << raw_bits
            count = len(inflight)
            all_hash = durable_hash + mix_total
            key = ((all_hash & _MASK, n_durable + count), 0)
            if key not in seen:
                add(key, "flushed", _ALL, -1, ())
            for st in inflight.values():
                # The (set hash, applied count) per ``applies``: a solo
                # candidate adds the store's own mix to the durable
                # hash, a rest candidate subtracts it from the total.
                applied = (durable, None,
                           ((durable_hash + st.mix) & _MASK, n_durable + 1),
                           ((all_hash - st.mix) & _MASK,
                            n_durable + count - 1))
                for cls, applies, pid, partials in \
                        (st.shared if count > 1 else st.alone):
                    key = (applied[applies], pid)
                    if key not in seen:
                        add(key, cls, applies, st.seq, partials)

        for idx, rec in enumerate(records):
            if isinstance(rec, FenceRec):
                visit(idx, rec.label)
                for seq in leaves_at.pop(idx, ()):
                    st = inflight.pop(seq)
                    mix_total -= st.mix
                    raw_bits -= st.bits
                    durable_hash = (durable_hash + st.mix) & _MASK
                    n_durable += 1
            elif idx not in cancelled:
                if rec.immediate:
                    visit(idx, f"pre:{rec.mech}")
                    durable_hash = (durable_hash + _mix(idx)) & _MASK
                    n_durable += 1
                else:
                    st = inflight[idx] = _Issued(rec, partial_ids)
                    mix_total += st.mix
                    raw_bits += st.bits
                    leaves_at.setdefault(cov[idx], []).append(idx)
        visit(len(records), "end")

        chosen = [d.build() for d in self._sample(drafts)]
        self.plan_classes = {}
        for p in chosen:
            self.plan_classes[p.cls] = self.plan_classes.get(p.cls, 0) + 1
        return chosen

    # ------------------------------------------------------------------
    def _sample(self, plans: List) -> List:
        """Per-signature sampling + the global budget, seeded.  Reads
        only ``point``, ``cls`` and ``signature`` of each plan."""
        if self.per_signature is None and self.budget is None:
            return plans
        rng = random.Random(self.seed)
        groups: Dict[str, List] = {}
        for p in plans:
            groups.setdefault(p.signature, []).append(p)
        kept: List = []
        k = self.per_signature
        for sig in sorted(groups):
            grp = sorted(groups[sig], key=_ORDER)
            if k is not None and len(grp) > k:
                # Always keep the first and last occurrence (epoch
                # boundaries see the extreme op-progress ranges),
                # sample the middle.
                middle = grp[1:-1]
                grp = sorted(
                    [grp[0], grp[-1]] + rng.sample(middle,
                                                   min(k - 2, len(middle))),
                    key=_ORDER) if k >= 2 \
                    else [grp[0]]
            kept.extend(grp)
        if self.budget is not None and len(kept) > self.budget:
            by_sig: Dict[str, List] = {}
            for p in kept:
                by_sig.setdefault(p.signature, []).append(p)
            # Trim the largest group (smallest signature on ties) one
            # plan at a time, never below its first plan.
            heap = [(-len(grp), sig) for sig, grp in by_sig.items()]
            heapq.heapify(heap)
            total = len(kept)
            while total > self.budget and heap[0][0] < -1:
                neg, sig = heap[0]
                grp = by_sig[sig]
                grp.pop(rng.randrange(1, len(grp)))
                total -= 1
                heapq.heapreplace(heap, (neg + 1, sig))
            kept = [p for sig in sorted(by_sig) for p in by_sig[sig]]
        kept.sort(key=_ORDER)
        return kept


def check_sampler_bounds(per_signature: Optional[int],
                         budget: Optional[int]) -> None:
    """Reject a sampler bound below one (``None`` means unbounded)."""
    if per_signature is not None and per_signature < 1:
        raise ValueError("per_signature must be >= 1 or None")
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1 or None")


# Which in-flight stores a candidate leaves applied: none, all, only
# its own store, or all but its own store.
_NONE, _ALL, _SOLO, _REST = range(4)


@lru_cache(maxsize=None)
def _partial_shapes(klass: str, n: int) -> Tuple:
    """``(shape, applies, lines)`` per partial candidate of an
    ``n``-line store: a torn record keeps a line prefix, page data has
    four representative shapes."""
    if n < 2:
        return ()
    if klass == "record":
        head = tuple(range(n // 2))
        return (("torn", _REST, head), ("torn-solo", _NONE, head))
    if klass == "data":
        return (("head", _REST, (0,)),
                ("prefix", _REST, tuple(range(n // 2))),
                ("suffix", _REST, tuple(range(n // 2, n))),
                ("hole", _REST, tuple(i for i in range(n) if i != n // 2)))
    return ()


class _Issued:
    """An in-flight store's planning work, done once when it is issued:
    its set-hash mix, its raw-state bits (``2^bits`` subsets), its
    signature tag, and its candidate templates ``(cls, applies,
    partial id, partials)`` in catalog order -- ``alone`` for a
    position where it is the only store in flight, ``shared`` (which
    adds ``drop``) otherwise.  ``partial_ids`` interns each partials
    tuple as a small int, so dedup keys hash integers only."""

    __slots__ = ("seq", "mix", "bits", "tag", "alone", "shared")

    def __init__(self, rec: LineStore, partial_ids: Dict[Tuple, int]):
        seq, mech = rec.seq, rec.mech
        self.seq = seq
        self.mix = _mix(seq)
        self.bits = 1 if rec.klass == "atomic" else rec.nlines
        self.tag = f"{mech}+" if rec.dep else mech
        shapes = []
        for shape, applies, lines in _partial_shapes(rec.klass,
                                                     rec.nlines):
            partials = ((seq, lines),)
            pid = partial_ids.setdefault(partials, len(partial_ids) + 1)
            shapes.append((f"{shape}:{mech}", applies, pid, partials))
        solo = (f"solo:{mech}", _SOLO, 0, ())
        self.alone = (solo, *shapes)
        self.shared = (solo, (f"drop:{mech}", _REST, 0, ()), *shapes)


class _Draft(NamedTuple):
    """A deduplicated candidate: everything :meth:`CrashPlanner._sample`
    reads, plus what :meth:`build` needs to make its :class:`CrashPlan`
    (the position's in-flight seqs and the candidate's own store)."""

    point: int
    cls: str
    signature: str
    lo: int
    hi: int
    partials: Tuple
    flight: Tuple[int, ...]
    applies: int
    seq: int

    def build(self) -> CrashPlan:
        """The :class:`CrashPlan` this candidate stands for."""
        if self.applies == _NONE:
            applied = frozenset()
        elif self.applies == _SOLO:
            applied = frozenset((self.seq,))
        elif self.applies == _ALL:
            applied = frozenset(self.flight)
        else:
            applied = frozenset(self.flight) - {self.seq}
        return CrashPlan(point=self.point, cls=self.cls, applied=applied,
                         partials=self.partials, lo=self.lo, hi=self.hi,
                         signature=self.signature)
