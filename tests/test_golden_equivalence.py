"""Golden equivalence: the refactored I/O pipeline is behaviour-preserving.

``tests/data/golden_pre_refactor.json`` holds fixed-seed summary
metrics (Figure 2 copy bandwidth, Figure 8 single-op latency and
breakdowns, Figure 9 throughput/latency) captured at the last commit
before the unified pipeline refactor.  The simulator is deterministic,
so the refactored code must reproduce every number **exactly** -- any
drift means the refactor changed the simulated event order, not just
the code structure.

Regenerate the golden file (only after an *intentional* behaviour
change) with::

    PYTHONPATH=src python tests/data/capture_golden.py
"""

import json
import os

import pytest

from repro.obs import default_tracing
from tests.conftest import assert_exact
from tests.data.capture_golden import fig02, fig08, fig09

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "data", "golden_pre_refactor.json")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.slow
def test_fig02_copy_bandwidth_exact(golden):
    assert_exact(fig02(), golden["fig02"], "fig02")


@pytest.mark.slow
def test_fig08_single_op_latency_exact(golden, fig08_counted):
    actual = fig08_counted[0]
    assert_exact(actual, golden["fig08"], "fig08")
    # The breakdown dicts nest one level deeper; spot-check shape.
    sample = next(iter(actual.values()))
    assert set(sample) == {"lat", "cpu", "breakdown"}


@pytest.mark.slow
def test_fig09_throughput_latency_exact(golden, fig09_counted):
    assert_exact(fig09_counted[0], golden["fig09"], "fig09")


# ---------------------------------------------------------------------------
# Parallel-runner equivalence: the multiprocessing sweep runner must
# reproduce the serial golden numbers bit for bit.
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_fig09_parallel_runner_exact(golden):
    assert_exact(fig09(processes=2), golden["fig09"], "fig09[parallel]")


# ---------------------------------------------------------------------------
# Tracing is sim-time neutral: with a tracer attached to every engine
# the fixed-seed summaries still match the goldens *exactly* -- the
# tracer only appends to a buffer, it never perturbs the simulation.
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_fig08_traced_exact(golden):
    tracers = []
    with default_tracing(collect=tracers):
        actual = fig08()
    assert_exact(actual, golden["fig08"], "fig08[traced]")
    assert sum(tr.emitted for tr in tracers) > 0, "nothing was traced"


@pytest.mark.slow
def test_fig09_traced_ring_buffer_exact(golden):
    # Ring-buffer mode on a long sweep: bounded memory, same numbers.
    capacity = 4096
    tracers = []
    with default_tracing(capacity=capacity, collect=tracers):
        actual = fig09()
    assert_exact(actual, golden["fig09"], "fig09[traced+ring]")
    assert tracers, "nothing was traced"
    assert all(len(tr) <= capacity for tr in tracers)
