"""Cross-cutting integration tests.

Every filesystem variant must expose identical *semantics* (same
logical state for the same operation sequence); they differ only in
timing and CPU consumption.  Recovery must round-trip for all of them.
The simulator is pure standard-library Python end to end.
"""

import os
import subprocess
import sys

import pytest

from repro.crash.crashmonkey import snapshot_with_content
from repro.fs.recovery import completion_buffer_validator, recover
from repro.hw.platform import Platform, PlatformConfig
from repro.workloads.factory import FS_KINDS, make_fs
from tests.conftest import run_proc

SEQUENCE_KINDS = [k for k in FS_KINDS if k != "naive"] + ["naive"]


def run_sequence(kind, record=False):
    """A fixed operation mix on one filesystem; returns (fs, snapshot)."""
    plat = Platform(PlatformConfig.single_node())
    fs = make_fs(kind, plat, record=record)

    def settle(result):
        if getattr(result, "is_async", False):
            yield result.pending
        cont = getattr(result, "continuation", None)
        if cont is not None:
            yield from cont(fs.context())

    def body():
        yield from fs.mkdir(fs.context(), "/dir")
        a = yield from fs.create(fs.context(), "/dir/a")
        r = yield from fs.write(fs.context(), a, 0, 65536, b"A" * 65536)
        yield from settle(r)
        r = yield from fs.write(fs.context(), a, 4096, 8192, b"B" * 8192)
        yield from settle(r)
        b = yield from fs.create(fs.context(), "/b")
        r = yield from fs.write(fs.context(), b, 0, 4096, b"C" * 4096)
        yield from settle(r)
        yield from fs.link(fs.context(), "/b", "/dir/b2")
        yield from fs.rename(fs.context(), "/dir/a", "/renamed")
        yield from fs.truncate(fs.context(), a, 16384)
        c = yield from fs.create(fs.context(), "/victim")
        yield from fs.unlink(fs.context(), "/victim")
        rd = yield from fs.read(fs.context(), a, 0, 16384, want_data=True)
        yield from settle(rd)
        return rd.value

    data = run_proc(plat.engine, body())
    return fs, snapshot_with_content(fs._mem, fs.image), data


class TestSemanticsEquivalence:
    def test_all_filesystems_reach_the_same_state(self):
        reference = None
        ref_data = None
        for kind in SEQUENCE_KINDS:
            _fs, snap, data = run_sequence(kind)
            if reference is None:
                reference, ref_data = snap, data
            else:
                assert snap == reference, f"{kind} diverged"
                assert data == ref_data, f"{kind} read back different bytes"

    def test_expected_final_content(self):
        _fs, snap, data = run_sequence("easyio")
        expected = bytearray(b"A" * 65536)
        expected[4096:12288] = b"B" * 8192
        assert data == bytes(expected[:16384])
        assert set(snap) == {"/dir", "/renamed", "/b", "/dir/b2"}


class TestRecoveryRoundTrip:
    @pytest.mark.parametrize("kind", SEQUENCE_KINDS)
    def test_full_replay_recovers_identical_state(self, kind):
        fs, live_snap, _data = run_sequence(kind, record=True)
        img = fs.image.replay(fs.image.crash_points())
        validator = (completion_buffer_validator(img)
                     if kind in ("easyio", "naive") else None)
        inodes = recover(img, validator).inodes
        assert snapshot_with_content(inodes, img) == live_snap


class TestDeterminism:
    def test_identical_runs_identical_images(self):
        fs1, snap1, _ = run_sequence("easyio", record=True)
        fs2, snap2, _ = run_sequence("easyio", record=True)
        assert snap1 == snap2
        assert [(m.op,) for m in fs1.image.mutations] == \
               [(m.op,) for m in fs2.image.mutations]
        assert fs1.engine.now == fs2.engine.now


class TestPureStdlib:
    def test_crash_sweep_and_latency_probe_never_import_numpy(self):
        # A fresh interpreter: anything else in the test session may
        # have imported numpy already.
        script = (
            "import sys\n"
            "from repro.crash import run_crash_test\n"
            "from repro.workloads.fxmark import measure_single_op\n"
            "report = run_crash_test('easyio', 'generic_056',"
            " granularity='line')\n"
            "assert report.all_passed, report.failures[:3]\n"
            "measure_single_op('easyio', 'write', 16384)\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'numpy'))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestExamples:
    def test_crash_recovery_example_falls_back_to_generation_one(self):
        script = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "examples", "crash_recovery.py")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, script], env=env,
                             capture_output=True, text=True, check=True)
        assert "discarded 1" in out.stdout
        assert "consistent!" in out.stdout
