"""Seed corpus, energy scheduling, and reproducer files.

Seeds
    :func:`seed_corpus` hand-places starting tuples in the interesting
    corners of the scenario space (clean schedules, probabilistic fault
    storms, the all-channels halt that exhausts failover, admission
    pressure, tight deadlines, a partitioned cluster).  Everything else
    the fuzzer must discover by mutation.

Energy
    :class:`CorpusEntry` carries the AFL-style scheduling state: a
    parent's weight is its *novel-coverage rate* ``(1 + novel) /
    (1 + chosen)``, so tuples whose children keep reaching new
    coverage are mutated more, and stale ones decay.

Reproducers
    A reproducer file under ``tests/corpus/`` is one JSON object --
    the minimal tuple, the mutant it catches (if planted), the
    expected detector set, and provenance -- self-contained enough
    for ``tests/test_corpus.py`` to replay in tier-1 with no fuzzing
    machinery involved.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Tuple

from repro.fuzz.tuples import (FaultSpec, N_CHANNELS, NetSpec, RuntimeSpec,
                               ScenarioTuple, WorkloadSpec, make_op,
                               schedule_from_seed)

#: Schema tag written into every reproducer file.
REPRO_FORMAT = 1


def seed_corpus() -> List[ScenarioTuple]:
    """The hand-placed starting population (all validated)."""
    halt_storm = tuple((ch, 1) for ch in range(N_CHANNELS))
    seeds = [
        # Clean mixed schedule: the differential/crash baseline.
        ScenarioTuple(workload=schedule_from_seed(101, n_ops=12)),
        # Append-heavy: log-append fences (skip_append_fence country).
        ScenarioTuple(workload=WorkloadSpec(ops=(
            make_op("append", 0, 0, 300, 1),
            make_op("append", 0, 0, 5000, 2),
            make_op("append", 0, 0, 700, 3)))),
        # Failover exhausted: every channel halted, degraded persists
        # (reorder_amend_persist country).
        ScenarioTuple(
            workload=WorkloadSpec(ops=(
                make_op("write", 0, 0, 8192, 11),
                make_op("write", 0, 4096, 8192, 12))),
            fault=FaultSpec(halts=halt_storm)),
        # Probabilistic fault storm on the supervised path.
        ScenarioTuple(
            workload=schedule_from_seed(202, n_ops=10),
            fault=FaultSpec(seed=7, p_xfer_error=0.3, p_chan_halt=0.1)),
        # Admission pressure + tight deadlines.
        ScenarioTuple(
            workload=schedule_from_seed(303, n_ops=10),
            runtime=RuntimeSpec(rate_ops_per_sec=100_000.0, burst=1,
                                policy="degrade", deadline_us=100)),
        # Replication under partition + message loss.
        ScenarioTuple(
            workload=WorkloadSpec(ops=(make_op("write", 0, 0, 4096, 21),)),
            net=NetSpec(enabled=True, seed=5, p_drop=0.1,
                        partitions=((30_000, 40_000, (0,)),))),
    ]
    for s in seeds:
        s.validate()
    return seeds


@dataclass
class CorpusEntry:
    """One scheduled tuple plus its energy accounting."""

    tuple: ScenarioTuple
    signature: str = ""
    #: Times picked as a mutation parent.
    chosen: int = 0
    #: Novel coverage keys reached by this tuple's own run plus
    #: children credited back to it.
    novel: int = 0

    @property
    def energy(self) -> float:
        return (1.0 + self.novel) / (1.0 + self.chosen)


def pick_parents(rng, corpus: List[CorpusEntry],
                 n: int) -> List[CorpusEntry]:
    """Energy-weighted sample (with replacement) of mutation parents."""
    weights = [e.energy for e in corpus]
    return rng.choices(corpus, weights=weights, k=n)


# -- reproducer files --------------------------------------------------

def load_reproducers(directory: str) -> List[Tuple[str, dict]]:
    """``(filename, payload)`` for every committed reproducer, sorted
    for deterministic replay order."""
    if not os.path.isdir(directory):
        return []
    out = []
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".json"):
            continue
        with open(os.path.join(directory, fname)) as f:
            payload = json.load(f)
        if payload.get("format") != REPRO_FORMAT:
            raise ValueError(f"{fname}: unknown reproducer format "
                             f"{payload.get('format')!r}")
        out.append((fname, payload))
    return out
