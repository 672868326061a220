"""Capture the golden pre-refactor summary metrics for the pipeline
equivalence tests (tests/test_golden_equivalence.py).

Run from the repo root::

    PYTHONPATH=src python tests/data/capture_golden.py

The output file ``tests/data/golden_pre_refactor.json`` was produced at
the last pre-refactor commit; the refactored I/O pipeline must
reproduce every number *exactly* (the simulator is deterministic under
fixed seeds, so any drift means the refactor changed behaviour).
"""

import json
import os

from repro.analysis.sweep import run_sweep
from repro.workloads import FxmarkConfig
from repro.workloads.fxmark import measure_single_op
from repro.workloads.hwbench import measure_copy_bandwidth

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "golden_pre_refactor.json")

FIG02_CORES = (1, 4, 16)
FIG08_KINDS = ("nova", "nova-dma", "odinfs", "easyio", "naive")
FIG08_SIZES = (4096, 65536)
FIG09_KINDS = ("nova", "nova-dma", "odinfs", "easyio")
FIG09_WORKERS = (1, 4)


def fig02():
    out = {}
    for write in (True, False):
        d = "write" if write else "read"
        for cores in FIG02_CORES:
            key = f"{d}/memcpy-4K/{cores}"
            out[key] = measure_copy_bandwidth(
                "memcpy", write, cores, 4096).bandwidth_gbps
            key = f"{d}/DMA-64K-B/{cores}"
            out[key] = measure_copy_bandwidth(
                "dma", write, cores, 65536, batch=4).bandwidth_gbps
    return out


def fig08():
    out = {}
    for op in ("write", "read"):
        for kind in FIG08_KINDS:
            for size in FIG08_SIZES:
                lat, cpu, bd = measure_single_op(kind, op, size)
                out[f"{op}/{kind}/{size}"] = {
                    "lat": lat, "cpu": cpu,
                    "breakdown": {k: bd[k] for k in sorted(bd)},
                }
    return out


def fig09(processes=1):
    """The 16-point sweep.  ``processes`` must not change a single
    number (the equivalence tests run it serial and parallel)."""
    keys, configs = [], []
    for op in ("write", "read"):
        for kind in FIG09_KINDS:
            for workers in FIG09_WORKERS:
                keys.append(f"{op}/{kind}/{workers}")
                configs.append(FxmarkConfig(
                    kind=kind, op=op, io_size=16384, workers=workers,
                    duration_us=1200, warmup_us=300))
    return dict(zip(keys, run_sweep(configs, processes=processes)))


def capture():
    return {"fig02": fig02(), "fig08": fig08(), "fig09": fig09()}


if __name__ == "__main__":
    golden = capture()
    with open(OUT, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {OUT}")
