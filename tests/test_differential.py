"""Differential testing across the five filesystem variants.

A seeded random op schedule (writes, reads, truncates at mixed offsets
and sizes) runs on every variant in :data:`FS_REGISTRY`; NOVA is the
reference oracle.  Whatever the data path -- synchronous memcpy,
delegation threads, orderless DMA offload, or the Naive ablation's
deferred commit -- the *logical* filesystem state must be identical:
byte-identical final contents, the same file size, the same number of
durable pages, and the same bytes returned by every interleaved read.
"""

import random

import pytest

from repro.fs.pmimage import file_bytes
from repro.fs.structures import PAGE_SIZE
from repro.hw.platform import Platform, PlatformConfig
from repro.workloads.factory import FS_KINDS, make_fs
from tests.conftest import run_proc

SEEDS = (0xEA5710, 20260806)
N_OPS = 40


def _schedule(seed, n_ops=N_OPS):
    """A reproducible mixed op schedule (same seed -> same ops)."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        kind = rng.choices(("write", "read", "truncate"),
                           weights=(6, 3, 1))[0]
        if kind == "write":
            offset = rng.randrange(0, 6 * PAGE_SIZE)
            nbytes = rng.randrange(1, 5 * PAGE_SIZE)
            ops.append(("write", offset, nbytes, rng.randbytes(nbytes)))
        elif kind == "read":
            offset = rng.randrange(0, 8 * PAGE_SIZE)
            nbytes = rng.randrange(1, 5 * PAGE_SIZE)
            ops.append(("read", offset, nbytes))
        else:
            ops.append(("truncate", rng.randrange(0, 8 * PAGE_SIZE)))
    return ops


def _settle(fs, result):
    """Wait out async I/O and the Naive ablation's deferred commit."""
    if result.is_async:
        yield result.pending
    continuation = getattr(result, "continuation", None)
    if continuation is not None:
        yield from continuation(fs.context())


def _run_variant(kind, schedule):
    """Run the schedule on a fresh single-node platform; return the
    observable state: final contents, size, durable-page count, and
    every read's bytes in schedule order."""
    platform = Platform(PlatformConfig.single_node())
    fs = make_fs(kind, platform)
    reads = []

    def body():
        ino = yield from fs.create(fs.context(), "/diff")
        for op in schedule:
            if op[0] == "write":
                _, offset, nbytes, payload = op
                result = yield from fs.write(fs.context(), ino, offset,
                                             nbytes, payload)
                yield from _settle(fs, result)
            elif op[0] == "read":
                _, offset, nbytes = op
                result = yield from fs.read(fs.context(), ino, offset,
                                            nbytes, want_data=True)
                yield from _settle(fs, result)
                reads.append(result.value)
            else:
                yield from fs.truncate(fs.context(), ino, op[1])
        m = fs._mem[ino]
        return file_bytes(fs.image, m, 0, m.size), m.size, len(m.index)

    content, size, pages = run_proc(fs.engine, body())
    return {"content": content, "size": size, "pages": pages,
            "reads": reads}


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s:#x}")
def reference(request):
    """The NOVA run for one seed (computed once per module)."""
    return request.param, _run_variant("nova", _schedule(request.param))


@pytest.mark.parametrize("kind", [k for k in FS_KINDS if k != "nova"])
def test_variant_matches_nova_reference(kind, reference):
    seed, expected = reference
    got = _run_variant(kind, _schedule(seed))
    assert got["size"] == expected["size"]
    assert got["pages"] == expected["pages"], \
        "durable-page count diverged from the NOVA reference"
    assert got["content"] == expected["content"], \
        "final file contents diverged from the NOVA reference"
    assert got["reads"] == expected["reads"], \
        "an interleaved read returned different bytes than NOVA"


def test_schedule_is_reproducible():
    assert _schedule(SEEDS[0]) == _schedule(SEEDS[0])
    assert _schedule(SEEDS[0]) != _schedule(SEEDS[1])


def test_schedule_covers_all_op_kinds():
    for seed in SEEDS:
        kinds = {op[0] for op in _schedule(seed)}
        assert kinds == {"write", "read", "truncate"}


def test_easyio_differential_run_is_trace_clean(trace_oracles):
    """The differential workload doubles as an oracle stress: EasyIO's
    stream over the whole schedule must satisfy every invariant."""
    _run_variant("easyio", _schedule(SEEDS[0]))
    assert trace_oracles and trace_oracles[0].emitted > 0
