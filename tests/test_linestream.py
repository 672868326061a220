"""The cache-line persistence journal (repro.crash.linestream).

Pins the model-level invariants of the line stream:

* exact 64B tiling of data stores (a multi-page orderless write
  decomposes into per-page line stores whose lines, replayed one at a
  time, rebuild the page);
* fence epochs correspond to the trace events of the same run (every
  commit fence has its ``write_commit``, every pages fence its
  ``pages_persist``);
* the everything-landed replay equals the mutation-journal replay
  (the equivalence tying the line model to the page model);
* the recording guards (record=True, before-first-mutation);
* the mechanism catalog: every op a recorded Table 2 workload journals
  has a ``MECHANISMS`` row, and every row replays through
  ``PMImage.apply``;
* ``base_durable``/``in_flight``/``replay_plan`` agree with a
  record-by-record fence walk (the oracle below) on seeded synthetic
  streams that emit every mechanism, including a stream that grows,
  cancellations that arrive after the durability view was built, and
  SN amends whose entry the plan dropped;
* checkpointed replay stays exact when plans arrive out of order, when
  a cancellation lands behind the checkpoint, and when the stream
  grows past it; the page sweep's forward cursor equals the prefix
  replay at every crash point.
"""

import random
from types import SimpleNamespace
from typing import Dict, List, Set, Tuple

import pytest

from repro.crash import linestream as ls
from repro.crash.crashmonkey import CRASH_WORKLOADS, _record_workload
from repro.crash.linestream import (
    CACHE_LINE,
    MECHANISMS,
    FenceRec,
    LineStream,
    LineStore,
    base_durable,
    in_flight,
    replay_full,
    replay_plan,
)
from repro.faults import ChannelHaltFault, FaultPlan
from repro.fs.pmimage import MutationRecord, PMImage
from repro.fs.structures import WriteEntry


def _emit(stream, op, *args):
    stream.emit(MutationRecord(op, args))


def _line_stores(stream, mech):
    return [r for r in stream.records
            if isinstance(r, LineStore) and r.mech == mech]


def _fences(stream, label):
    return [r for r in stream.records
            if isinstance(r, FenceRec) and r.label == label]


def _record(kind, workload="generic_056", iterations=4, **kw):
    desc, driver, _ = CRASH_WORKLOADS[workload]
    return _record_workload(kind, driver, iterations, lines=True, **kw)


class TestTiling:
    def test_multi_page_write_tiles_exactly(self):
        """A 12288B (3-page) write decomposes into three page-data
        stores of exactly 64 cache lines each, and replaying every
        line, one at a time, rebuilds each page's bytes."""
        image, _ = _record("easyio", "create_delete", iterations=2)
        stream = image.linestream
        stores = _line_stores(stream, "page-data")
        assert stores, "workload wrote no page data"
        # Page stores are per 4096B page: some op window (a 12288B
        # write) must contain at least three of them, 64 lines each.
        counts = [sum(1 for r in stream.records[s:e]
                      if isinstance(r, LineStore) and r.mech == "page-data")
                  for s, e in stream.op_bounds]
        assert max(counts) >= 3
        for s in stores:
            pid, payload = s.rec.args
            assert s.nlines == (len(payload) + CACHE_LINE - 1) // CACHE_LINE
            img = PMImage()
            for i in range(s.nlines):
                ls._apply_partial(img, s, (i,))
            assert img.pages[pid] == payload

    def test_page_stores_are_64_lines_per_4k_page(self):
        image, _ = _record("nova", "generic_056", iterations=3)
        per_page = [s for s in _line_stores(image.linestream, "page-data")
                    if len(s.rec.args[1]) == 4096]
        assert per_page
        assert all(s.nlines == 64 for s in per_page)

    def test_op_bounds_cover_stream(self):
        image, oracle = _record("easyio", "generic_056", iterations=4)
        stream = image.linestream
        bounds = stream.op_bounds
        assert len(bounds) == len(oracle)
        assert all(s <= e for s, e in bounds)
        # Ends are non-decreasing and within the stream.
        ends = [e for _s, e in bounds]
        assert ends == sorted(ends)
        assert ends[-1] <= stream.position()


class TestFenceTraceCorrespondence:
    def test_easyio_commit_fences_match_write_commit_events(self):
        image, _ = _record("easyio", "generic_056", iterations=4,
                           trace_oracles=True)
        events = image.linestream.tracer.events
        commits = [ev for ev in events if ev.name == "write_commit"]
        commit_fences = _fences(image.linestream, "commit")
        # Every committed write flushed its tail with a commit fence
        # (creates/links commit too, so fences >= write commits).
        assert commits
        assert len(commit_fences) >= len(commits)
        line_fences = [ev for ev in events if ev.name == "line_fence"]
        assert len(line_fences) == sum(
            1 for r in image.linestream.records if isinstance(r, FenceRec))

    def test_nova_pages_fences_match_pages_persist_events(self):
        image, _ = _record("nova", "generic_056", iterations=4,
                           trace_oracles=True)
        events = image.linestream.tracer.events
        persists = [ev for ev in events if ev.name == "pages_persist"
                    and ev.args.get("pids")]
        pages_fences = _fences(image.linestream, "pages")
        # NOVA persists every write synchronously over CPU stores: one
        # pages fence per content-carrying persist batch.
        assert persists
        assert len(pages_fences) == len(persists)


class TestReplayEquivalence:
    @pytest.mark.parametrize("kind", ["nova", "easyio", "naive"])
    def test_replay_full_equals_mutation_replay(self, kind):
        image, _ = _record(kind, "generic_056", iterations=5)
        full = replay_full(image.linestream)
        ref = image.replay(len(image.mutations))
        assert full.pages == ref.pages
        assert full.inodes == ref.inodes
        assert full.logs == ref.logs
        assert full.log_tails == ref.log_tails
        assert full.journal == ref.journal
        assert full.completion_buffers == ref.completion_buffers
        assert full.channel_error_sns == ref.channel_error_sns
        assert (full.next_ino, full.next_page) == (ref.next_ino,
                                                   ref.next_page)

    def test_replay_full_equals_mutation_replay_under_halts(self):
        """Failover (cancelled announcements, re-announced redos,
        degraded CPU trains, SN amends) keeps the two models equal."""
        plan = lambda: FaultPlan(schedule=[ChannelHaltFault(0, 2)])
        image, _ = _record("easyio", "generic_056", iterations=5,
                           fault_plan=plan)
        full = replay_full(image.linestream)
        ref = image.replay(len(image.mutations))
        assert full.pages == ref.pages
        assert full.logs == ref.logs
        assert full.log_tails == ref.log_tails
        assert full.completion_buffers == ref.completion_buffers
        assert full.channel_error_sns == ref.channel_error_sns


class TestGuards:
    def test_line_recording_requires_recording_image(self):
        img = PMImage(record=False)
        with pytest.raises(RuntimeError, match="record=True"):
            img.enable_line_recording()

    def test_line_recording_must_precede_mutations(self):
        img = PMImage(record=True)
        img.put_inode(1, object())
        with pytest.raises(RuntimeError, match="precede"):
            img.enable_line_recording()

    def test_media_fault_plans_refused(self):
        from repro.crash.crashmonkey import run_crash_test
        from repro.faults import MediaFault
        plan = lambda: FaultPlan(schedule=[MediaFault(1)])
        with pytest.raises(ValueError, match="media"):
            run_crash_test("easyio", "generic_056", granularity="line",
                           fault_plan=plan)

    def test_skipped_fence_knob_counts(self):
        stream = LineStream()
        stream.skipped_fences.add("commit")
        _emit(stream, "commit_log_tail", 1, 1)
        assert stream.fences_skipped == 1
        assert not _fences(stream, "commit")


class TestCatalog:
    @staticmethod
    def _halt_all_channels():
        return FaultPlan(schedule=[ChannelHaltFault(ch, 1)
                                   for ch in range(8)])

    def test_table2_workloads_record_only_cataloged_ops(self):
        seen = set()
        for workload in CRASH_WORKLOADS:
            for kind, plan in (("easyio", self._halt_all_channels),
                               ("nova", None)):
                image, _ = _record(kind, workload, iterations=3,
                                   fault_plan=plan)
                ops = {m.op for m in image.mutations}
                assert ops <= set(MECHANISMS), (kind, workload)
                assert {r.rec.op for r in image.linestream.records
                        if isinstance(r, LineStore)} <= ops
                seen |= ops
        # The halts drive failover: error logs and SN amends appear.
        assert {"record_channel_errors", "amend_log_sns"} <= seen

    def test_apply_accepts_every_cataloged_op(self):
        """Each PMImage mutation method journals its cataloged op once,
        into the mutation journal and the line stream alike, and the
        line replay (``PMImage.apply`` per store) rebuilds the image."""
        img = PMImage(record=True)
        stream = img.enable_line_recording()
        ino, gone = img.alloc_ino(), img.alloc_ino()
        img.put_inode(ino, ("inode", ino))
        img.put_inode(gone, ("inode", gone))
        pid, = img.alloc_page_ids(1)
        img.write_page(pid, b"p" * 100)
        img.pages_fence()
        img.append_log(ino, _sn_entry(pid))
        img.commit_log_tail(ino, 1)
        img.amend_log_sns(ino, 0, ((1, 2),))
        img.journal_begin(("txn", ino))
        img.journal_end()
        img.journal_begin(("txn", gone))
        img.update_completion_buffer(0, 5)
        img.record_channel_errors(0, {3})
        img.drop_inode(gone)
        assert {m.op for m in img.mutations} == set(MECHANISMS)
        assert [r.rec for r in stream.records
                if isinstance(r, LineStore)] == img.mutations
        assert _img_state(replay_full(stream)) == _img_state(img) \
            == _img_state(img.replay(len(img.mutations)))
        assert img.logs[ino][0].sns == ((1, 2),)


# ----------------------------------------------------------------------
# Oracle: the durability rules walked record by record, fence by fence
# ----------------------------------------------------------------------
def _base_durable_ref(stream: LineStream, point: int) -> Set[int]:
    durable: Set[int] = set()
    pending_cpu: List[int] = []
    pending_dma: Dict[int, List[Tuple[int, int]]] = {}
    cancelled = stream.cancelled
    for rec in stream.records[:point]:
        if isinstance(rec, LineStore):
            if rec.seq in cancelled:
                continue
            if rec.immediate:
                durable.add(rec.seq)
            elif rec.dep is None:
                pending_cpu.append(rec.seq)
            else:
                ch, sn = rec.dep
                pending_dma.setdefault(ch, []).append((sn, rec.seq))
        elif rec.scope is None:
            durable.update(pending_cpu)
            pending_cpu.clear()
        else:
            ch, covered = rec.scope
            keep = []
            for sn, seq in pending_dma.get(ch, ()):
                if sn <= covered:
                    durable.add(seq)
                else:
                    keep.append((sn, seq))
            pending_dma[ch] = keep
    return durable


def _in_flight_ref(stream: LineStream, point: int) -> List[LineStore]:
    durable = _base_durable_ref(stream, point)
    return [rec for rec in stream.records[:point]
            if isinstance(rec, LineStore)
            and rec.seq not in durable and rec.seq not in stream.cancelled
            and not rec.immediate]


def _replay_plan_ref(stream: LineStream, plan) -> PMImage:
    img = PMImage(record=False)
    apply_full = _base_durable_ref(stream, plan.point) | set(plan.applied)
    partials = dict(plan.partials)
    for rec in stream.records[:plan.point]:
        if not isinstance(rec, LineStore):
            continue
        lines = partials.get(rec.seq)
        if lines is not None:
            ls._apply_partial(img, rec, lines)
        elif rec.seq in apply_full:
            img.apply(rec.rec)
    return img


#: Inode numbers of the synthetic streams' amendable logs (above every
#: ``op`` inode, so ``drop_inode`` never removes them).
AMEND_INO = 1000


def _sn_entry(pid: int) -> WriteEntry:
    return WriteEntry(pgoff=0, page_ids=(pid,), size_after=4096, mtime=1,
                      sns=((0, 0),))


def _synth_stream(rng: random.Random) -> LineStream:
    """A randomized but well-formed line stream: CPU trains, DMA
    announcements with completions/cancellations, records, atomics,
    inode puts/drops, SN amends, bookkeeping -- the shapes the real
    emitters produce."""
    stream = LineStream()
    sn = {0: 0, 1: 0}
    outstanding = []            # (ch, sn) announced, not yet resolved
    amendable: Dict[int, int] = {}     # ino -> one-line entries appended
    pid = 0
    n_ops = rng.randint(0, 40)
    start = 0
    for op in range(n_ops):
        for _ in range(rng.randint(1, 5)):
            kind = rng.randrange(11)
            if kind == 0:                      # CPU page train + fence
                for _ in range(rng.randint(1, 3)):
                    pid += 1
                    _emit(stream, "write_page", pid,
                          bytes([rng.randrange(256)]) * rng.choice(
                              [1, 64, 200, 4096]))
                stream.pages_fence()
            elif kind == 1:                    # log append (record)
                stream.store(MutationRecord(
                    "append_log", (op, f"entry-{op}-{pid}")),
                    nlines=rng.randint(1, 4))
                if rng.random() < 0.8:
                    stream.fence("append:str")
            elif kind == 2:                    # atomic tail commit
                _emit(stream, "commit_log_tail", op, rng.randrange(1000))
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
                _emit(stream, "update_completion_buffer", ch, s)
            elif kind == 5 and outstanding:    # failed descriptor
                ch, s = outstanding.pop(rng.randrange(len(outstanding)))
                _emit(stream, "record_channel_errors", ch, (s,))
            elif kind == 6:                    # journal txn
                _emit(stream, "journal_begin", ("txn", op))
                if rng.random() < 0.5:
                    _emit(stream, "journal_end")
            elif kind == 8:                    # inode record put
                _emit(stream, "put_inode", op, ("inode", op, pid))
            elif kind == 9:                    # inode drop
                _emit(stream, "drop_inode", rng.randrange(op + 1))
            elif kind == 10:                   # SN amend (failover)
                # One-line entries on their own inodes, never dropped:
                # an amend rewrites a real entry or, when the plan
                # dropped that entry's still-unfenced append, nothing.
                ino = AMEND_INO + op
                if not amendable.get(ino) or rng.random() < 0.7:
                    stream.store(MutationRecord(
                        "append_log", (ino, _sn_entry(pid))))
                    amendable[ino] = amendable.get(ino, 0) + 1
                    if rng.random() < 0.5:
                        stream.fence("append:WriteEntry")
                _emit(stream, "amend_log_sns", ino,
                      rng.randrange(amendable[ino]),
                      ((rng.randrange(2), rng.randrange(1, 9)),))
            else:                              # bookkeeping
                _emit(stream, "alloc_ino", op + 1)
                _emit(stream, "alloc_page_ids", pid + 1)
        end = stream.position()
        stream.op_bounds.append((start, end))
        start = end
    return stream


def _lands_amend_without_entry(stream: LineStream, plan) -> bool:
    """Whether ``plan`` lands an in-flight SN amend but drops the
    append of the entry it rewrites (the amend then rewrites nothing)."""
    records = stream.records
    durable = _base_durable_ref(stream, plan.point)
    for seq in plan.applied:
        rec = records[seq].rec
        if rec.op != "amend_log_sns":
            continue
        ino, index, _sns = rec.args
        appends = [r.seq for r in records[:seq]
                   if isinstance(r, LineStore) and r.rec.op == "append_log"
                   and r.rec.args[0] == ino]
        if appends[index] not in durable | plan.applied:
            return True
    return False


def _img_state(img):
    return (dict(img.pages), {k: list(v) for k, v in img.logs.items()},
            dict(img.log_tails), dict(img.inodes), list(img.journal),
            dict(img.completion_buffers),
            {k: set(v) for k, v in img.channel_error_sns.items()},
            img.next_ino, img.next_page)


def _random_plan(rng: random.Random, stream: LineStream, pt: int):
    """A plan at ``pt``: an arbitrary subset of the in-flight stores
    lands, some multi-line ones as a random line set."""
    flight = _in_flight_ref(stream, pt)
    applied = frozenset(r.seq for r in flight if rng.random() < 0.5)
    partials = tuple(
        (r.seq, tuple(sorted(rng.sample(
            range(r.nlines), rng.randint(1, r.nlines)))))
        for r in flight
        if r.nlines > 1 and r.klass in ("data", "record")
        and rng.random() < 0.3)
    return SimpleNamespace(point=pt, applied=applied, partials=partials)


class TestDurabilityAgainstOracle:
    def test_durability_and_replay_on_seeded_streams(self):
        rng = random.Random(0xBEEF)
        mechs = set()
        lost_amends = 0
        for trial in range(25):
            stream = _synth_stream(rng)
            mechs.update(r.mech for r in stream.records
                         if isinstance(r, LineStore))
            n = len(stream.records)
            # Every amend fence too: the one position at which an SN
            # amend and the append it rewrites can both be in flight.
            points = sorted({0, 1 if n else 0, n}
                            | {rng.randrange(n + 1) for _ in range(10)}
                            | {f.seq for f in _fences(stream, "amend")})
            for pt in points:
                assert base_durable(stream, pt) \
                    == _base_durable_ref(stream, pt), (trial, pt)
                assert [r.seq for r in in_flight(stream, pt)] \
                    == [r.seq for r in _in_flight_ref(stream, pt)]
            # Random plans: arbitrary applied subsets + partials.
            for pt in points:
                plan = _random_plan(rng, stream, pt)
                assert _img_state(replay_plan(stream, plan)) \
                    == _img_state(_replay_plan_ref(stream, plan)), \
                    (trial, pt)
                lost_amends += _lands_amend_without_entry(stream, plan)
        assert mechs == {mech for mech, _k, _l in MECHANISMS.values()}
        assert lost_amends > 0

    def test_replay_full_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(5):
            stream = _synth_stream(rng)
            end = stream.position()
            plan = SimpleNamespace(
                point=end, partials=(),
                applied=frozenset(r.seq for r in
                                  _in_flight_ref(stream, end)))
            assert _img_state(replay_full(stream)) \
                == _img_state(_replay_plan_ref(stream, plan))

    def test_empty_stream(self):
        stream = LineStream()
        assert base_durable(stream, 0) == set()
        assert in_flight(stream, 0) == []
        img = replay_full(stream)
        assert not img.pages and not img.logs

    def test_durability_view_follows_stream_growth(self):
        stream = LineStream()
        _emit(stream, "write_page", 1, b"x" * 64)
        stream.pages_fence()
        assert base_durable(stream, stream.position()) == {0}
        _emit(stream, "write_page", 2, b"y" * 64)
        assert in_flight(stream, stream.position())[0].seq == 2
        stream.pages_fence()
        assert base_durable(stream, stream.position()) == {0, 2}
        assert _base_durable_ref(stream, stream.position()) == {0, 2}

    def test_cancellation_after_durability_view_built(self):
        # cancel_sns arrives without appending records; the cached
        # view must not bake the cancelled set in.
        stream = LineStream()
        stream.announce_dma_pages(0, 1, [1], [b"a" * 4096])
        stream.announce_dma_pages(0, 2, [2], [b"b" * 4096])
        _emit(stream, "update_completion_buffer", 0, 1)
        pt = stream.position()
        assert base_durable(stream, pt) == _base_durable_ref(stream, pt)
        assert [r.seq for r in in_flight(stream, pt)] == [1]
        stream.cancel_sns(0, [1, 2])
        assert base_durable(stream, pt) == _base_durable_ref(stream, pt)
        assert in_flight(stream, pt) == []
        assert 1 not in replay_full(stream).pages


# ----------------------------------------------------------------------
# Checkpointed replay: every plan starts from the quiescent checkpoint
# ----------------------------------------------------------------------
def _assert_replays_match(stream, plans, tag):
    for plan in plans:
        assert _img_state(replay_plan(stream, plan)) \
            == _img_state(_replay_plan_ref(stream, plan)), (tag, plan.point)


class TestCheckpointedReplay:
    def test_shuffled_plan_order_rewinds_checkpoint(self):
        rng = random.Random(0xC0FFEE)
        rewound = 0
        for trial in range(20):
            stream = _synth_stream(rng)
            n = stream.position()
            plans = [_random_plan(rng, stream, rng.randrange(n + 1))
                     for _ in range(30)]
            rng.shuffle(plans)
            last = 0
            for plan in plans:
                _assert_replays_match(stream, [plan], trial)
                at = stream._checkpoint.at
                rewound += at < last
                last = at
        assert rewound > 0          # the rebuild-from-0 path ran

    def test_cancel_hits_checkpointed_prefix(self):
        rng = random.Random(0xCA7)
        changed = 0
        for trial in range(30):
            stream = _synth_stream(rng)
            n = stream.position()
            end = SimpleNamespace(point=n, applied=frozenset(), partials=())
            _assert_replays_match(stream, [end], trial)
            at = stream._checkpoint.at
            early = [dep for dep, seqs in stream._by_dep.items()
                     if seqs and seqs[0] < at]
            if not early:
                continue
            before = _img_state(_replay_plan_ref(stream, end))
            ch, sn = rng.choice(early)
            stream.cancel_sns(ch, [sn])
            # ``end`` lands on the same checkpoint position as before
            # the cancel, so only a rebuilt checkpoint drops the store.
            _assert_replays_match(
                stream, [end] + [_random_plan(rng, stream,
                                              rng.randrange(n + 1))
                                 for _ in range(10)], trial)
            changed += _img_state(_replay_plan_ref(stream, end)) != before
        assert changed > 0          # a cancellation changed a replayed image

    def test_stream_growth_after_checkpoint(self):
        rng = random.Random(0x6A0)
        for trial in range(20):
            stream = _synth_stream(rng)
            n = stream.position()
            _assert_replays_match(
                stream, [_random_plan(rng, stream, p)
                         for p in sorted(rng.randrange(n + 1)
                                         for _ in range(5))] +
                [_random_plan(rng, stream, n)], trial)
            # Grow: fence the pending CPU stores and complete every
            # announced SN, so stores in flight at the old end (and
            # behind the old checkpoint's reach) become durable.
            _emit(stream, "write_page", 10_000 + trial, b"g" * 128)
            stream.pages_fence()
            for ch, sn in sorted(stream._by_dep):
                _emit(stream, "update_completion_buffer", ch, sn)
            _emit(stream, "commit_log_tail", 99, trial)
            m = stream.position()
            _assert_replays_match(
                stream, [_random_plan(rng, stream, p)
                         for p in sorted(rng.randrange(m + 1)
                                         for _ in range(10))] +
                [_random_plan(rng, stream, m)], trial)

    def test_plans_behind_their_own_stores_stay_exact(self):
        # An applied/partial seq bounds the checkpoint too: a cancelled
        # store listed in ``applied`` must still land.
        stream = LineStream()
        stream.announce_dma_pages(0, 1, [1], [b"a" * 4096])
        _emit(stream, "update_completion_buffer", 0, 1)
        _emit(stream, "write_page", 2, b"b" * 64)
        stream.pages_fence()
        stream.cancel_sns(0, [1])
        end = stream.position()
        for applied in (frozenset(), frozenset({0})):
            plan = SimpleNamespace(point=end, applied=applied, partials=())
            _assert_replays_match(stream, [plan], sorted(applied))


class TestPageSweepCursor:
    def test_cursor_equals_prefix_replay_at_every_point(self):
        from repro.crash.crashmonkey import _page_states
        from repro.fs.recovery import completion_buffer_validator, recover
        image, _oracle = _record("easyio", "generic_322", iterations=4)
        total = image.crash_points()
        seen = 0
        for k, img in _page_states(image, range(total + 1)):
            assert _img_state(img) == _img_state(image.replay(k)), k
            # Recovery mutates its image; the cursor must not see it.
            recover(img, completion_buffer_validator(img))
            seen += 1
        assert seen == total + 1
