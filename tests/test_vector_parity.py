"""Vectorised-vs-reference kernel parity (DESIGN.md §15).

Every numpy-backed kernel must produce *identical* outputs to its
pure-Python reference -- not approximately equal: the golden suites
compare byte-exact artifacts, so a single ULP of drift anywhere in the
data plane would show up as a golden mismatch.  These tests fuzz each
kernel pair directly over seeded randomized inputs, including the
empty/single-element/degenerate shapes, and pin the mode-selection
switchboard itself.
"""

import random

import pytest

from repro import vector
from repro.analysis.metrics import LatencySeries
from repro.crash import linestream as ls
from repro.crash.plans import CrashPlanner

needs_numpy = pytest.mark.skipif(not vector.HAVE_NUMPY,
                                 reason="numpy not installed")


class TestSwitchboard:
    def test_kill_switch_disables_at_import(self):
        # REPRO_VECTOR is read at import time: a fresh interpreter with
        # the kill switch set must come up in reference mode even with
        # numpy installed.
        import os
        import subprocess
        import sys
        env = dict(os.environ, REPRO_VECTOR="0",
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro import vector; "
             "print(vector.ENABLED, vector._KILLED)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "True"]

    def test_set_enabled_without_numpy_stays_reference(self):
        if vector.HAVE_NUMPY:
            pytest.skip("numpy installed: cannot exercise the fallback")
        assert not vector.ENABLED
        assert vector.set_enabled(True) is False
        assert not vector.ENABLED

    @needs_numpy
    def test_forced_restores_previous_mode(self):
        before = vector.ENABLED
        with vector.forced(not before):
            assert vector.ENABLED == (not before)
            with vector.forced(before):
                assert vector.ENABLED == before
            assert vector.ENABLED == (not before)
        assert vector.ENABLED == before

    def test_reference_kernels_run_without_vector_mode(self):
        # The fallback is first-class: everything must work in
        # reference mode whether or not numpy exists.
        with vector.forced(False):
            s = LatencySeries()
            for v in (5, 1, 9):
                s.record(v)
            assert s.p50() == 5.0


def _synth_stream(rng: random.Random) -> ls.LineStream:
    """A randomized but well-formed line stream: CPU trains, DMA
    announcements with completions/cancellations, records, atomics,
    bookkeeping -- the shapes the real emitters produce."""
    stream = ls.LineStream()
    sn = {0: 0, 1: 0}
    outstanding = []            # (ch, sn) announced, not yet resolved
    pid = 0
    n_ops = rng.randint(0, 40)
    start = 0
    for op in range(n_ops):
        for _ in range(rng.randint(1, 5)):
            kind = rng.randrange(8)
            if kind == 0:                      # CPU page train + fence
                for _ in range(rng.randint(1, 3)):
                    pid += 1
                    stream.page_write(
                        pid, bytes([rng.randrange(256)]) * rng.choice(
                            [1, 64, 200, 4096]))
                stream.pages_fence()
            elif kind == 1:                    # log append (record)
                stream.store("log-append", ("log", op),
                             (op, f"entry-{op}-{pid}"),
                             nlines=rng.randint(1, 4))
                if rng.random() < 0.8:
                    stream.fence("append:str")
            elif kind == 2:                    # atomic tail commit
                stream.log_commit(op, rng.randrange(1000))
            elif kind == 3:                    # DMA announcement
                ch = rng.randrange(2)
                sn[ch] += 1
                pids = [pid + 1 + i for i in range(rng.randint(1, 3))]
                pid = pids[-1]
                stream.announce_dma_pages(
                    ch, sn[ch], pids,
                    [bytes([p & 0xFF]) * 4096 for p in pids])
                outstanding.append((ch, sn[ch]))
            elif kind == 4 and outstanding:    # completion fence
                ch, s = outstanding.pop(rng.randrange(len(outstanding)))
                stream.completion_update(ch, s)
            elif kind == 5 and outstanding:    # failed descriptor
                ch, s = outstanding.pop(rng.randrange(len(outstanding)))
                stream.error_log(ch, (s,))
            elif kind == 6:                    # journal txn
                stream.journal_begin(("txn", op))
                if rng.random() < 0.5:
                    stream.journal_retire()
            else:                              # bookkeeping
                stream.alloc_ino(op + 1)
                stream.alloc_pages(pid + 1)
        end = stream.position()
        stream.op_bounds.append((start, end))
        start = end
    return stream


def _img_state(img):
    return (dict(img.pages), {k: list(v) for k, v in img.logs.items()},
            dict(img.log_tails), dict(img.inodes), list(img.journal),
            dict(img.completion_buffers),
            {k: set(v) for k, v in img.channel_error_sns.items()},
            img.next_ino, img.next_page)


@needs_numpy
class TestLineStreamParity:
    def test_durability_and_replay_on_seeded_streams(self):
        rng = random.Random(0xBEEF)
        for trial in range(25):
            stream = _synth_stream(rng)
            n = len(stream.records)
            points = sorted({0, 1 if n else 0, n}
                            | {rng.randrange(n + 1) for _ in range(10)})
            for pt in points:
                assert ls._base_durable_ref(stream, pt) \
                    == ls._base_durable_np(stream, pt), (trial, pt)
                assert [r.seq for r in ls._in_flight_ref(stream, pt)] \
                    == [r.seq for r in ls._in_flight_np(stream, pt)]
            # Random plans: arbitrary applied subsets + partials.
            for pt in points:
                flight = ls._in_flight_ref(stream, pt)
                applied = frozenset(r.seq for r in flight
                                    if rng.random() < 0.5)
                partials = tuple(
                    (r.seq, tuple(sorted(rng.sample(
                        range(r.nlines), rng.randint(1, r.nlines)))))
                    for r in flight
                    if r.nlines > 1 and r.klass in ("data", "record")
                    and rng.random() < 0.3)
                from types import SimpleNamespace
                plan = SimpleNamespace(point=pt, applied=applied,
                                       partials=partials)
                a = _img_state(ls._replay_plan_ref(stream, plan))
                b = _img_state(ls._replay_plan_np(stream, plan))
                assert a == b, (trial, pt)

    def test_replay_full_identical_both_modes(self):
        rng = random.Random(7)
        for _ in range(5):
            stream = _synth_stream(rng)
            with vector.forced(True):
                a = _img_state(ls.replay_full(stream))
            with vector.forced(False):
                b = _img_state(ls.replay_full(stream))
            assert a == b

    def test_empty_stream(self):
        stream = ls.LineStream()
        assert ls._base_durable_ref(stream, 0) \
            == ls._base_durable_np(stream, 0) == set()
        assert ls._in_flight_np(stream, 0) == []
        with vector.forced(True):
            img = ls.replay_full(stream)
        assert not img.pages and not img.logs

    def test_index_invalidated_by_stream_growth(self):
        stream = ls.LineStream()
        stream.page_write(1, b"x" * 64)
        stream.pages_fence()
        first = ls._base_durable_np(stream, stream.position())
        assert first == {0}
        stream.page_write(2, b"y" * 64)
        stream.pages_fence()
        assert ls._base_durable_np(stream, stream.position()) == {0, 2}
        assert ls._base_durable_ref(stream, stream.position()) == {0, 2}

    def test_cancellation_after_index_build(self):
        # cancel_sns arrives without appending records; the cached
        # index must not bake the cancelled set in.
        stream = ls.LineStream()
        stream.announce_dma_pages(0, 1, [1], [b"a" * 4096])
        stream.completion_update(0, 1)
        pt = stream.position()
        assert ls._base_durable_np(stream, pt) \
            == ls._base_durable_ref(stream, pt)
        stream.cancel_sns(0, [1])
        assert ls._base_durable_np(stream, pt) \
            == ls._base_durable_ref(stream, pt)


@needs_numpy
class TestPlannerParity:
    def test_identical_plan_lists_on_seeded_streams(self):
        rng = random.Random(0xCAFE)
        for trial in range(10):
            stream = _synth_stream(rng)
            for per_sig, budget in ((3, None), (None, None), (2, 20)):
                with vector.forced(True):
                    pa = CrashPlanner(stream, per_signature=per_sig,
                                      budget=budget, seed=trial)
                    a = pa.plans()
                with vector.forced(False):
                    pb = CrashPlanner(stream, per_signature=per_sig,
                                      budget=budget, seed=trial)
                    b = pb.plans()
                assert (pa.raw_states, pa.positions) \
                    == (pb.raw_states, pb.positions)
                assert [(p.point, p.cls, p.applied, p.partials, p.lo,
                         p.hi, p.signature) for p in a] \
                    == [(p.point, p.cls, p.applied, p.partials, p.lo,
                         p.hi, p.signature) for p in b], trial


class TestPercentileParity:
    @needs_numpy
    def test_seeded_random_series(self):
        rng = random.Random(0xFEED)
        for trial in range(150):
            n = rng.choice([0, 1, 2, 3, 64, 65, 100, 1000])
            samples = [rng.randint(0, 10 ** rng.choice([3, 9, 12]))
                       for _ in range(n)]
            ps = ([rng.uniform(1e-6, 100.0) for _ in range(6)]
                  + [50.0, 99.0, 100.0])
            with vector.forced(False):
                r = LatencySeries()
                r.samples.extend(samples)
                ref = [r.percentile(p) for p in ps] + [r.mean(),
                                                       r.maximum()]
            with vector.forced(True):
                v = LatencySeries()
                v.samples.extend(samples)
                vec = [v.percentile(p) for p in ps] + [v.mean(),
                                                       v.maximum()]
            assert ref == vec, trial

    @needs_numpy
    def test_interleaved_tail_merge_path(self):
        rng = random.Random(5)
        with vector.forced(True):
            s = LatencySeries()
            mirror = []
            for step in range(200):
                val = rng.randrange(10 ** 9)
                s.record(val)
                mirror.append(val)
                if step % 3 == 0:
                    # Queries between appends: exercises the
                    # searchsorted tail merge on the ndarray view.
                    assert s.percentile(100) == float(max(mirror))
                    with vector.forced(False):
                        r = LatencySeries()
                        r.samples.extend(mirror)
                        assert s.p50() == r.p50()
                        assert s.p99() == r.p99()

    @needs_numpy
    def test_oversized_samples_fall_back_to_reference(self):
        # Samples beyond int64 force the object-dtype fallback; results
        # must still match the reference exactly.
        huge = [2 ** 70, 1, 2 ** 80, 7]
        with vector.forced(True):
            v = LatencySeries()
            v.samples.extend(huge)
            a = (v.p50(), v.percentile(100))
        with vector.forced(False):
            r = LatencySeries()
            r.samples.extend(huge)
            b = (r.p50(), r.percentile(100))
        assert a == b
