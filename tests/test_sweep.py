"""The parallel sweep runner is deterministic and order-preserving.

Every sweep point runs in a fresh engine with a fixed seed, so the
multiprocessing fan-out must return byte-identical summaries for any
worker count -- including the serial in-process fallback.  These tests
use short runs (hundreds of microseconds of simulated time) to keep
the fork cost the dominant term.
"""

import pytest

from repro.analysis.sweep import fxmark_point, fxmark_sweep, run_sweep
from repro.workloads.fxmark import FxmarkConfig


def _grid():
    return [FxmarkConfig(kind=kind, op=op, io_size=16384, workers=workers,
                         duration_us=400, warmup_us=100, single_node=True)
            for op in ("write", "read")
            for kind in ("nova", "easyio")
            for workers in (1, 2)]


class TestSweepDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_sweep(_grid(), processes=1)

    def test_serial_matches_two_workers(self, serial):
        assert run_sweep(_grid(), processes=2) == serial

    def test_serial_matches_four_workers(self, serial):
        assert run_sweep(_grid(), processes=4) == serial

    def test_order_is_preserved(self, serial):
        # The summaries come back in config order, not completion order:
        # identify points by their distinct op counts.
        direct = [fxmark_point(cfg) for cfg in _grid()]
        assert direct == serial

    def test_repeat_runs_are_identical(self, serial):
        assert run_sweep(_grid(), processes=1) == serial


class TestSweepApi:
    def test_summary_schema(self):
        point = fxmark_point(FxmarkConfig(
            kind="nova", duration_us=300, warmup_us=100, single_node=True))
        assert set(point) == {"throughput_ops", "bandwidth_gbps",
                              "total_ops", "mean_us", "p99_us",
                              "cpu_busy_fraction"}

    def test_fxmark_sweep_keys_and_elision(self):
        kw = dict(op="write", io_size=16384, duration_us=300,
                  warmup_us=100)
        plain = fxmark_sweep(("nova",), (1,), **kw)
        assert list(plain) == ["write/nova/1"]

    def test_single_point_runs_serially(self):
        # processes=8 with one config must not spin up a pool.
        out = run_sweep([FxmarkConfig(kind="nova", duration_us=300,
                                      warmup_us=100, single_node=True)],
                        processes=8)
        assert len(out) == 1 and out[0]["total_ops"] > 0
