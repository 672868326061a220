"""The mechanism-aware crash planner (repro.crash.plans).

Unit tests on hand-built line streams: candidate classes per
mechanism, deduplication across positions, legality bounds from op
acks, the raw-state accounting, seeded determinism of sampling, the
sampler's bounds, and that only the sampled plans are ever built.
"""

import random
from bisect import bisect_right

import pytest

from repro.crash import run_crash_test
from repro.crash.linestream import (FenceRec, LineStream, base_durable,
                                    in_flight, replay_plan)
from repro.crash.plans import CrashPlan, CrashPlanner
from repro.fs.structures import (FileKind, RenameTxn, TornEntry,
                                 TornRecord, WriteEntry)
from repro.fuzz.tuples import CrashSpec
from tests.test_linestream import _emit, _synth_stream


def _write_entry(pgoff=0, pages=(0, 1), sns=()):
    return WriteEntry(pgoff=pgoff, page_ids=tuple(pages),
                      size_after=4096 * len(pages), mtime=1,
                      sns=tuple(sns))


def _candidate_states(flight):
    """Every ``(applied, partials)`` pair the planner's class catalog
    yields for one in-flight set, enumerated independently."""
    iset = frozenset(r.seq for r in flight)
    states = {(frozenset(), ())}
    if flight:
        states.add((iset, ()))
    for r in flight:
        rest = iset - {r.seq}
        states.add((frozenset({r.seq}), ()))
        states.add((rest, ()))
        if r.nlines < 2:
            continue
        n = r.nlines
        if r.klass == "record":
            torn = ((r.seq, tuple(range(max(1, n // 2)))),)
            states.update({(rest, torn), (frozenset(), torn)})
        elif r.klass == "data":
            for lines in ((0,), tuple(range(n // 2)),
                          tuple(range(n // 2, n)),
                          tuple(i for i in range(n) if i != n // 2)):
                states.add((rest, ((r.seq, lines),)))
    return states


def _distinct_states(stream):
    """Every distinct ``(durable+applied, partials, lo, hi)`` crash
    state the class catalog reaches on ``stream``, enumerated
    independently of the planner."""
    records = stream.records
    ends = [e for _s, e in stream.op_bounds]
    starts = [s for s, _e in stream.op_bounds]
    points = [i for i, r in enumerate(records)
              if isinstance(r, FenceRec)
              or (r.immediate and i not in stream.cancelled)]
    states = set()
    for pt in points + [len(records)]:
        durable = base_durable(stream, pt)
        for applied, partials in _candidate_states(in_flight(stream, pt)):
            states.add((frozenset(durable | applied), partials,
                        bisect_right(ends, pt), bisect_right(starts, pt)))
    return states


def _count_builds(monkeypatch):
    """Swap the planner's :class:`CrashPlan` for a subclass that logs
    each construction's class; return the log."""
    from repro.crash import plans as plans_mod
    built = []

    class Counted(CrashPlan):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.cls)

    monkeypatch.setattr(plans_mod, "CrashPlan", Counted)
    return built


def _plans(stream, op_bounds=(), **kw):
    planner = CrashPlanner(stream, op_bounds=list(op_bounds), **kw)
    return planner, planner.plans()


class TestCandidates:
    def test_atomic_slot_all_or_nothing(self):
        """An in-flight tail commit yields intact/flushed/solo, never a
        partial."""
        stream = LineStream()
        stream.skipped_fences.add("commit")   # keep the commit in flight
        _emit(stream, "commit_log_tail", 1, 1)
        planner, plans = _plans(stream, per_signature=None)
        classes = {p.cls for p in plans}
        # "solo" and "flushed" coincide for a single store, so dedup
        # keeps the first: exactly two states, neither partial.
        assert classes == {"intact", "flushed"}
        assert all(not p.partials for p in plans)

    def test_record_store_tears_to_prefix(self):
        stream = LineStream()
        stream.skipped_fences.add("append:WriteEntry")
        _emit(stream, "append_log", 1, _write_entry())
        planner, plans = _plans(stream, per_signature=None)
        classes = {p.cls for p in plans}
        assert "torn:log-append" in classes
        torn = next(p for p in plans if p.cls == "torn:log-append")
        (seq, lines), = torn.partials
        rec = stream.records[seq]
        assert rec.mech == "log-append"
        assert 0 < len(lines) < rec.nlines
        img = replay_plan(stream, torn)
        entry = img.logs[1][0]
        assert isinstance(entry, TornEntry)
        assert entry.of == "WriteEntry"

    def test_journal_record_tears_to_torn_record(self):
        stream = LineStream()
        stream.skipped_fences.add("journal")
        _emit(stream, "journal_begin",
              RenameTxn(src_dir=0, src_name="a", dst_dir=0, dst_name="b",
                        ino=1, kind=FileKind.FILE))
        planner, plans = _plans(stream, per_signature=None)
        torn = next(p for p in plans if p.cls == "torn:journal-entry")
        img = replay_plan(stream, torn)
        assert isinstance(img.journal[0], TornRecord)

    def test_data_store_partial_shapes(self):
        stream = LineStream()
        # 4096B: 64 lines.
        _emit(stream, "write_page", 0, bytes(range(256)) * 16)
        planner, plans = _plans(stream, per_signature=None)
        classes = {p.cls for p in plans}
        assert {"head:page-data", "prefix:page-data",
                "suffix:page-data", "hole:page-data"} <= classes
        prefix = next(p for p in plans if p.cls == "prefix:page-data")
        img = replay_plan(stream, prefix)
        page = img.pages[0]
        assert page[:2048] == (bytes(range(256)) * 16)[:2048]
        assert page[2048:] == b"\x00" * 2048

    def test_dma_store_durable_only_after_completion_fence(self):
        stream = LineStream()
        stream.announce_dma_pages(0, 1, [0], [b"x" * 4096])
        assert len(in_flight(stream, stream.position())) == 1
        stream.fence("pages")  # global sfence does NOT cover DMA
        assert len(in_flight(stream, stream.position())) == 1
        _emit(stream, "update_completion_buffer", 0, 1)
        assert in_flight(stream, stream.position()) == []

    def test_cancelled_dma_store_never_applies(self):
        stream = LineStream()
        stream.announce_dma_pages(0, 1, [0], [b"x" * 4096])
        _emit(stream, "record_channel_errors", 0, (1,))
        planner, plans = _plans(stream, per_signature=None)
        for p in plans:
            img = replay_plan(stream, p)
            assert 0 not in img.pages


class TestDedupAndBounds:
    def test_identical_epochs_dedup(self):
        """Two identical fence epochs with identical op progress
        produce one plan set, not two."""
        stream = LineStream()
        _emit(stream, "commit_log_tail", 1, 1)
        single = CrashPlanner(stream, op_bounds=[], per_signature=None)
        n_single = len(single.plans())
        # A byte-identical second epoch...
        _emit(stream, "commit_log_tail", 1, 1)
        planner, plans = _plans(stream, per_signature=None)
        # ...but a different durable prefix, so states differ; dedup
        # only collapses *equal* durable+applied states:
        assert len(plans) > n_single
        keys = {(p.point, p.cls, p.applied, p.partials) for p in plans}
        assert len(keys) == len(plans)

    def test_lo_hi_from_ack_bounds(self):
        stream = LineStream()
        _emit(stream, "commit_log_tail", 1, 1)
        mid = stream.position()
        _emit(stream, "commit_log_tail", 1, 2)
        end = stream.position()
        planner, plans = _plans(stream, op_bounds=[(0, mid), (mid, end)],
                                per_signature=None)
        final = [p for p in plans if p.point == end]
        assert final
        assert all(p.lo == 2 and p.hi == 2 for p in final)
        first = [p for p in plans if p.point < mid]
        assert all(p.lo == 0 and p.hi == 1 for p in first)

    def test_exhaustive_mode_keeps_every_distinct_state(self, monkeypatch):
        """One plan per distinct (durable+applied, partials, lo, hi)
        state, each built once: no duplicates, and no real state merged
        into another by a dedup-hash collision (a linear per-seq mix
        made sets with equal size and equal seq sum, e.g. {68, 71} and
        {69, 70}, collide)."""
        built = _count_builds(monkeypatch)
        rng = random.Random(1)
        for trial in range(80):
            stream = _synth_stream(rng)
            built.clear()
            plans = CrashPlanner(stream, per_signature=None).plans()
            assert len(built) == len(plans), trial
            got = [(frozenset(base_durable(stream, p.point) | p.applied),
                    p.partials, p.lo, p.hi) for p in plans]
            assert len(got) == len(set(got)), trial
            assert set(got) == _distinct_states(stream), trial

    def test_raw_states_count(self):
        stream = LineStream()
        stream.skipped_fences.add("pages")
        _emit(stream, "write_page", 0, b"x" * 4096)  # 64 lines -> 2^64
        _emit(stream, "write_page", 1, b"y" * 128)   # 2 lines  -> 2^2
        stream.fence("end")                    # one interesting position
        planner, plans = _plans(stream, per_signature=None)
        # end-of-stream visit sees the same in-flight set again (the
        # "end" fence made nothing durable: it was emitted, so stores
        # BEFORE it became durable -- hence only the fence position
        # counts both stores).
        assert planner.raw_states >= (1 << 64) * 4


class TestSampling:
    def _busy_stream(self, n=12):
        stream = LineStream()
        bounds = []
        for i in range(n):
            start = stream.position()
            _emit(stream, "write_page", i, bytes([i]) * 4096)
            stream.pages_fence()
            _emit(stream, "append_log", 1, _write_entry(pages=(i,)))
            _emit(stream, "commit_log_tail", 1, i + 1)
            bounds.append((start, stream.position()))
        return stream, bounds

    def test_per_signature_caps_groups(self):
        stream, bounds = self._busy_stream()
        exhaustive = CrashPlanner(stream, op_bounds=bounds,
                                  per_signature=None).plans()
        sampled = CrashPlanner(stream, op_bounds=bounds,
                               per_signature=2).plans()
        assert len(sampled) < len(exhaustive)
        # At least one representative per signature survives.
        assert ({p.signature for p in sampled}
                == {p.signature for p in exhaustive})

    def test_seeded_determinism(self):
        stream, bounds = self._busy_stream()
        a = CrashPlanner(stream, op_bounds=bounds, per_signature=2,
                         seed=7).plans()
        b = CrashPlanner(stream, op_bounds=bounds, per_signature=2,
                         seed=7).plans()
        assert a == b
        c = CrashPlanner(stream, op_bounds=bounds, per_signature=2,
                         seed=8).plans()
        assert {p.signature for p in c} == {p.signature for p in a}

    def test_budget_floor_one_per_signature(self):
        stream, bounds = self._busy_stream()
        planner = CrashPlanner(stream, op_bounds=bounds,
                               per_signature=None, budget=5)
        plans = planner.plans()
        sigs = {p.signature for p in plans}
        full_sigs = {p.signature
                     for p in CrashPlanner(stream, op_bounds=bounds,
                                           per_signature=None).plans()}
        assert sigs == full_sigs
        assert len(plans) >= len(sigs)

    def test_plan_classes_filled(self):
        stream, bounds = self._busy_stream()
        planner = CrashPlanner(stream, op_bounds=bounds, per_signature=2)
        plans = planner.plans()
        assert sum(planner.plan_classes.values()) == len(plans)


def _sample_ref(planner, plans, rng_cls=random.Random):
    """``CrashPlanner._sample`` with its original quadratic budget
    loop: re-sum every group and re-scan the sorted signatures for the
    largest group after every dropped plan."""
    if planner.per_signature is None and planner.budget is None:
        return plans
    rng = rng_cls(planner.seed)
    groups = {}
    for p in plans:
        groups.setdefault(p.signature, []).append(p)
    kept = []
    k = planner.per_signature
    for sig in sorted(groups):
        grp = sorted(groups[sig], key=lambda p: (p.point, p.cls))
        if k is not None and len(grp) > k:
            middle = grp[1:-1]
            grp = sorted(
                [grp[0], grp[-1]] + rng.sample(middle,
                                               min(k - 2, len(middle))),
                key=lambda p: (p.point, p.cls)) if k >= 2 \
                else [grp[0]]
        kept.extend(grp)
    if planner.budget is not None and len(kept) > planner.budget:
        by_sig = {}
        for p in kept:
            by_sig.setdefault(p.signature, []).append(p)
        while sum(len(v) for v in by_sig.values()) > planner.budget:
            sig = max(sorted(by_sig), key=lambda s: len(by_sig[s]))
            if len(by_sig[sig]) <= 1:
                break
            by_sig[sig].pop(rng.randrange(1, len(by_sig[sig])))
        kept = [p for sig in sorted(by_sig) for p in by_sig[sig]]
    kept.sort(key=lambda p: (p.point, p.cls))
    return kept


class _DrawLog(random.Random):
    """A ``random.Random`` that logs every draw the sampler makes."""

    def __init__(self, seed):
        self.draws = []
        super().__init__(seed)

    def randrange(self, *args):
        value = super().randrange(*args)
        self.draws.append(("randrange", args, value))
        return value

    def sample(self, population, k):
        value = super().sample(population, k)
        self.draws.append(("sample", len(population), k,
                           [(p.point, p.cls) for p in value]))
        return value


class TestBudgetTrim:
    def test_heap_trim_matches_quadratic_loop(self, monkeypatch):
        from types import SimpleNamespace

        from repro.crash import plans as plans_mod
        made = []

        def logged(seed):
            made.append(_DrawLog(seed))
            return made[-1]

        monkeypatch.setattr(plans_mod, "random",
                            SimpleNamespace(Random=logged))
        rng = random.Random(0x5A5)
        budgets_hit = 0
        for trial in range(200):
            sizes = [rng.choice([1, 1, 2, 3, 5, 8, 13])
                     for _ in range(rng.randint(1, 12))]
            plans = [CrashPlan(point=rng.randrange(500), cls=f"c{j}",
                               applied=frozenset(), partials=(), lo=0,
                               hi=0, signature=f"s{g:02d}")
                     for g, size in enumerate(sizes) for j in range(size)]
            rng.shuffle(plans)
            planner = CrashPlanner(LineStream(),
                                   per_signature=rng.choice([None, 1, 2,
                                                             3, 4]),
                                   budget=rng.choice(
                                       [None, 1, 2, len(sizes),
                                        rng.randint(1, len(plans))]),
                                   seed=rng.randrange(1 << 30))
            made.clear()
            got = planner._sample(list(plans))
            want = _sample_ref(planner, list(plans), logged)
            assert got == want, trial
            assert [p.signature for p in got] \
                == [p.signature for p in want]
            if made:
                got_rng, want_rng = made
                assert got_rng.draws == want_rng.draws, trial
                budgets_hit += any(d[0] == "randrange"
                                   for d in got_rng.draws)
        assert budgets_hit > 20


class TestOnlyKeptPlansAreBuilt:
    """Dedup and sampling run before any :class:`CrashPlan` exists:
    the planner builds exactly the plans it returns (exhaustive mode:
    ``TestDedupAndBounds``)."""

    def test_sampled_mode_builds_only_kept_plans(self, monkeypatch):
        built = _count_builds(monkeypatch)
        rng = random.Random(3)
        sampled_away = 0
        for trial in range(40):
            stream = _synth_stream(rng)
            n_distinct = len(_distinct_states(stream))
            built.clear()
            plans = CrashPlanner(stream, per_signature=1, budget=8,
                                 seed=trial).plans()
            assert len(built) == len(plans), trial
            assert built == [p.cls for p in plans], trial
            sampled_away += n_distinct - len(plans)
        assert sampled_away > 0


class TestSamplerBounds:
    @pytest.mark.parametrize("bounds", [{"per_signature": 0},
                                        {"per_signature": -1},
                                        {"budget": 0}, {"budget": -2}])
    def test_bound_below_one_rejected(self, bounds):
        name = next(iter(bounds))
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            CrashPlanner(LineStream(), **bounds)
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            CrashSpec(**bounds).validate()

    def test_unbounded_and_one_accepted(self):
        for per_signature, budget in ((None, None), (1, 1), (3, None)):
            CrashPlanner(LineStream(), per_signature=per_signature,
                         budget=budget).plans()
            CrashSpec(per_signature=per_signature, budget=budget).validate()

    def test_line_sweep_rejects_zero_per_signature(self):
        with pytest.raises(ValueError, match="per_signature must be >= 1"):
            run_crash_test("easyio", "create_delete", granularity="line",
                           per_signature=0)


class TestPlanValue:
    def test_plan_is_hashable_and_ordered(self):
        p = CrashPlan(point=3, cls="intact", applied=frozenset(),
                      partials=(), lo=0, hi=1)
        q = CrashPlan(point=3, cls="intact", applied=frozenset(),
                      partials=(), lo=0, hi=1, signature="different")
        assert p == q  # signature excluded from equality
        assert len({p, q}) == 1
