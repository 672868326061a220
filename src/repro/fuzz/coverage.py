"""The campaign's global coverage map (novelty detector + energy
signal).

:class:`CoverageMap` accumulates the coverage keys of every executed
scenario (:func:`repro.fuzz.scenario.run_scenario` assembles them from
the :mod:`repro.obs.coverage` extractors).  The corpus scheduler asks
one question -- "did this run reach anything new?" -- and rewards the
parent tuple whose mutation did.

The map is the one *stateful* object in the fuzzer.  Each campaign
builds a fresh one (``CampaignReport.coverage``), so back-to-back
campaigns in one process cannot cross-contaminate through it.
"""

from __future__ import annotations

from typing import Dict, Iterable


class CoverageMap:
    """Union of coverage keys across runs, with per-key hit counts."""

    def __init__(self):
        self.hits: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.hits)

    def novelty(self, keys: Iterable[str]) -> int:
        """How many of ``keys`` the map has never seen (read-only)."""
        return sum(1 for k in keys if k not in self.hits)

    def observe(self, keys: Iterable[str]) -> int:
        """Record one run's coverage; return the novel-key count."""
        novel = 0
        for k in keys:
            if k not in self.hits:
                novel += 1
                self.hits[k] = 1
            else:
                self.hits[k] += 1
        return novel
