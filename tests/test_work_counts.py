"""Exact work counts: how much the fixed-seed golden runs cost.

``tests/data/work_counts.json`` pins, per fig08/fig09 golden point, the
counters the simulator already keeps -- engine events, cancellations,
compactions and pooled-sleep reuses; each bandwidth pool's transfers
and bytes, its fresh rate solves and its allocated (not re-armed)
wake-up timers; completed DMA descriptors; filesystem ops -- and, for
one line crash sweep, its plans (all of which must pass), line records and
raw states.  For each of the eight Table 2 line sweeps it also pins
what the crash planner chose: the plan count and a digest of the
ordered plan list, the positions visited, the raw states and the
per-class counts.  For the replicated-log layer it pins the trace,
``NetStats``, lease log and latency digests of every config of a
seeded ``run_replication`` grid, and the engine events and
cancellations of the replication runs in the benchmark's seed-0
fuzz_scenarios pass.

The goldens pin *what* a run computes; these pin *how much work* it
does to get there.  Both are host-independent, so the gate is exact: a
change that adds work per op fails here on any machine, even when
every golden number stays put.  Recapture (after an intentional change
in work) with::

    PYTHONPATH=src python tests/data/capture_golden.py
"""

import json
import os

import pytest

from tests.conftest import assert_exact
from tests.data.capture_golden import (CRASH_LINE_SWEEPS,
                                      crash_line_counts,
                                      crash_line_plan_list,
                                      fuzz_replication_events,
                                      replication_digests,
                                      replication_grid)

COUNTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "data", "work_counts.json")


@pytest.fixture(scope="module")
def pinned():
    with open(COUNTS) as f:
        return json.load(f)


@pytest.mark.slow
def test_fig08_work_counts_exact(pinned, fig08_counted):
    assert_exact(fig08_counted[1], pinned["fig08"], "fig08")


@pytest.mark.slow
def test_fig09_work_counts_exact(pinned, fig09_counted):
    assert_exact(fig09_counted[1], pinned["fig09"], "fig09")


def test_crash_line_work_counts_exact(pinned):
    assert_exact(crash_line_counts(), pinned["crash_line"], "crash_line")


@pytest.mark.parametrize("sweep", CRASH_LINE_SWEEPS)
def test_crash_line_plan_list_exact(pinned, sweep):
    assert_exact(crash_line_plan_list(sweep),
                 pinned["crash_line_plans"][sweep], sweep)


def test_replication_grid_exact(pinned):
    grid = replication_grid()
    pins = pinned["replication"]["grid"]
    assert len(grid) == len(pins), "grid size changed"
    parts = ("trace", "NetStats", "lease log", "latencies")
    moved = []
    for i, (cfg, pin) in enumerate(zip(grid, pins)):
        got = replication_digests(cfg)
        if got != pin:
            moved.append((i, [p for p, a, b in zip(parts, got, pin)
                              if a != b]))
    assert not moved, f"replication grid configs moved: {moved}"


def test_fuzz_replication_events_exact(pinned):
    assert_exact(fuzz_replication_events(),
                 pinned["replication"]["fuzz_events"], "fuzz replication")
