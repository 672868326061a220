"""Coverage-signal extraction from traces and counters (fuzzer hooks).

The scenario fuzzer (:mod:`repro.fuzz`) guides mutation by *coverage*:
cheap, deterministic summaries of what a run exercised.  This module
turns the observability artefacts the codebase already emits -- the
structured trace stream (:mod:`repro.obs.trace`) and the dataclass
counter families (``EngineStats``/``FaultStats``/``OverloadStats``/
``NetStats``, read with ``dataclasses.asdict``) -- into sets of string *coverage keys*.  A key is an
opaque token; two runs with the same key set exercised the same
behaviours at this granularity.

Three extractors:

* :func:`trace_vocabulary` -- which event names appeared, per phase and
  normalised track class (``ch3`` and ``ch5`` are the same class
  ``ch``: the fuzzer cares that *a* channel faulted, not which one);
* :func:`counter_buckets` -- log2-bucketed counter values, so a run
  with 60 retries and one with 70 are the same key but one with 2 is
  not (AFL-style hit-count buckets);
* :func:`ack_gap_buckets` -- oracle *near-misses*: the ack-to-durable
  slack of every acknowledged write, log2-bucketed.  A shrinking gap
  means mutation is closing in on an ack-before-durable violation even
  while every run still passes, which is exactly the gradient a
  coverage-guided search needs.

Determinism: every extractor is a pure function of its input, and all
inputs are themselves pure functions of the scenario tuple (the engine
is deterministic), so identical seeded runs produce identical keys
(tests/test_fuzz_coverage.py pins this).
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from repro.obs.trace import POINT, TraceEvent


def track_class(track: str) -> str:
    """Normalise a track name to its class (``ch3`` -> ``ch``,
    ``node12`` -> ``node``, ``fs`` -> ``fs``)."""
    return track.rstrip("0123456789") or track


def bucket(value) -> int:
    """Log2 hit-count bucket of a non-negative number (0 -> 0,
    1 -> 1, 2-3 -> 2, 4-7 -> 3, ...)."""
    n = int(value)
    return n.bit_length() if n > 0 else 0


def trace_vocabulary(events: Iterable[TraceEvent]) -> Set[str]:
    """``ev:<track-class>:<phase>:<name>`` for every event in the
    stream.

    Strictly monotone in behaviour: a run that additionally faults a
    channel (``dma_fault``/``dma_reset``), amends an SN, aborts on a
    deadline, or partitions the network grows this set -- the silent-
    breakage test relies on that.
    """
    return {f"ev:{track_class(ev.track)}:{ev.ph}:{ev.name}"
            for ev in events}


def counter_buckets(prefix: str, counters: Dict[str, object]) -> Set[str]:
    """``ctr:<prefix>:<name>:<bucket>`` for every non-zero counter.

    Zero counters are omitted on purpose: "nothing happened" carries no
    signal, and omitting it keeps a clean run's signature small.
    """
    out = set()
    for name, value in counters.items():
        try:
            b = bucket(value)
        except (TypeError, ValueError):
            continue
        if b:
            out.add(f"ctr:{prefix}:{name}:{b}")
    return out


def ack_gap_buckets(events: Iterable[TraceEvent]) -> Set[str]:
    """Near-miss signal: log2 buckets of every acked write's
    ack-to-durable slack.

    For each op, ``write_commit`` declares its page set and
    ``pages_persist`` stamps each page's persist time; at ``write_ack``
    the slack is ``ack_t - max(persist_t of the op's pages)``.  A slack
    of 0 (ack at the same instant the last page landed) is the tightest
    legal execution -- one reordering away from the ack-implies-durable
    violation the oracle would flag.
    """
    persisted_at: Dict[int, int] = {}
    op_pages: Dict[int, set] = {}
    out: Set[str] = set()
    for ev in events:
        if ev.ph != POINT:
            continue
        if ev.name == "pages_persist":
            for pid in ev.args["pids"]:
                persisted_at[pid] = ev.t
        elif ev.name == "write_commit" and ev.op is not None:
            op_pages.setdefault(ev.op, set()).update(ev.args["pids"])
        elif ev.name == "write_ack" and ev.op is not None:
            pages = op_pages.get(ev.op)
            if not pages:
                continue
            landed = [persisted_at[p] for p in pages if p in persisted_at]
            if len(landed) != len(pages):
                continue  # non-durable ack: the oracle's business
            out.add(f"near:ackgap:{bucket(ev.t - max(landed))}")
    return out
