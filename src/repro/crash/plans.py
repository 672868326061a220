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

All sampling is driven by a seeded ``random.Random``: the same stream
and seed produce the identical plan list (tests pin this).
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crash.linestream import (FenceRec, LineStore, LineStream,
                                    _covered_at)

_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


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
        retained); ``None`` = no cap.
    seed:
        Drives every sampling decision.
    """

    def __init__(self, stream: LineStream,
                 op_bounds: Optional[Sequence[Tuple[int, int]]] = None,
                 per_signature: Optional[int] = 3,
                 budget: Optional[int] = None,
                 seed: int = 0):
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
        deduped: Dict[Tuple, CrashPlan] = {}
        self.raw_states = 0
        self.positions = 0

        durable_hash = 0      # order-free content hash of the durable set
        n_durable = 0
        stream = self.stream
        cov = _covered_at(stream)
        cancelled = stream.cancelled
        records = stream.records
        # In-flight stores by seq, in issue order: each joins when it
        # is issued and leaves at the fence ``cov[seq]`` names.
        inflight: Dict[int, LineStore] = {}
        leaves_at: Dict[int, List[int]] = {}

        def visit(point: int, context: str) -> None:
            flight = list(inflight.values())
            self.positions += 1
            self.raw_states += _raw_states(flight)
            lo = bisect_right(self._ends, point)
            hi = bisect_right(self._starts, point)
            mix_of = {r.seq: _mix(r.seq) for r in flight}
            total = sum(mix_of.values())
            flight_sig = ",".join(sorted(f"{r.mech}{'+' if r.dep else ''}"
                                         for r in flight))
            for cls, applied, partials, mixsum in \
                    _candidates(flight, mix_of, total):
                key = ((durable_hash + mixsum) & _MASK,
                       n_durable + len(applied), partials, lo, hi)
                if key in deduped:
                    continue
                deduped[key] = CrashPlan(point=point, cls=cls,
                                         applied=applied,
                                         partials=partials, lo=lo, hi=hi,
                                         signature=f"{context}|{cls}|"
                                                   f"{flight_sig}")

        for idx, rec in enumerate(records):
            if isinstance(rec, FenceRec):
                visit(idx, rec.label)
                for seq in leaves_at.pop(idx, ()):
                    del inflight[seq]
                    durable_hash = (durable_hash + _mix(seq)) & _MASK
                    n_durable += 1
            elif idx not in cancelled:
                if rec.immediate:
                    visit(idx, f"pre:{rec.mech}")
                    durable_hash = (durable_hash + _mix(idx)) & _MASK
                    n_durable += 1
                else:
                    inflight[idx] = rec
                    leaves_at.setdefault(cov[idx], []).append(idx)
        visit(len(records), "end")

        chosen = self._sample(list(deduped.values()))
        self.plan_classes = {}
        for p in chosen:
            self.plan_classes[p.cls] = self.plan_classes.get(p.cls, 0) + 1
        return chosen

    # ------------------------------------------------------------------
    def _sample(self, plans: List[CrashPlan]) -> List[CrashPlan]:
        """Per-signature sampling + the global budget, seeded."""
        if self.per_signature is None and self.budget is None:
            return plans
        rng = random.Random(self.seed)
        groups: Dict[str, List[CrashPlan]] = {}
        for p in plans:
            groups.setdefault(p.signature, []).append(p)
        kept: List[CrashPlan] = []
        k = self.per_signature
        for sig in sorted(groups):
            grp = sorted(groups[sig], key=lambda p: (p.point, p.cls))
            if k is not None and len(grp) > k:
                # Always keep the first and last occurrence (epoch
                # boundaries see the extreme op-progress ranges),
                # sample the middle.
                middle = grp[1:-1]
                grp = sorted(
                    [grp[0], grp[-1]] + rng.sample(middle,
                                                   min(k - 2, len(middle))),
                    key=lambda p: (p.point, p.cls)) if k >= 2 \
                    else [grp[0]]
            kept.extend(grp)
        if self.budget is not None and len(kept) > self.budget:
            by_sig: Dict[str, List[CrashPlan]] = {}
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
        kept.sort(key=lambda p: (p.point, p.cls))
        return kept


def _raw_states(flight: List[LineStore]) -> int:
    """The 2^lines subset count this position's plans collapse."""
    raw = 1
    for r in flight:
        raw *= 2 if r.klass == "atomic" else (1 << r.nlines)
    return raw if flight else 0


def _candidates(flight: List[LineStore], mix_of: Dict[int, int],
                total: int):
    """Yield ``(cls, applied, partials, mixsum)`` representatives for
    one in-flight set (see the module docstring for the class catalog).

    ``mixsum`` is ``sum(_mix(s) for s in applied)`` computed
    algebraically from the flight total -- a drop/torn candidate's sum
    is the total minus the dropped store's own mix, an exact integer
    identity (subtracting an addend, no modular reduction involved).
    """
    iset = frozenset(r.seq for r in flight)
    none: Tuple = ()
    yield "intact", frozenset(), none, 0
    if not flight:
        return
    yield "flushed", iset, none, total
    for r in flight:
        m = mix_of[r.seq]
        rest_sum = total - m
        yield f"solo:{r.mech}", frozenset({r.seq}), none, m
        if len(flight) > 1:
            yield f"drop:{r.mech}", iset - {r.seq}, none, rest_sum
        if r.klass == "record" and r.nlines > 1:
            head = tuple(range(max(1, r.nlines // 2)))
            torn = ((r.seq, head),)
            yield f"torn:{r.mech}", iset - {r.seq}, torn, rest_sum
            yield f"torn-solo:{r.mech}", frozenset(), torn, 0
        elif r.klass == "data" and r.nlines > 1:
            n = r.nlines
            rest = iset - {r.seq}
            for shape, lines in (
                    ("head", (0,)),
                    ("prefix", tuple(range(n // 2))),
                    ("suffix", tuple(range(n // 2, n))),
                    ("hole", tuple(i for i in range(n) if i != n // 2))):
                yield f"{shape}:{r.mech}", rest, ((r.seq, lines),), rest_sum

