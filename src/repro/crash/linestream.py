"""Cache-line-granularity persistence model (Silhouette-style).

The mutation journal in :class:`~repro.fs.pmimage.PMImage` records
*what* became durable, in program order -- that is CrashMonkey's model,
and it cannot represent the states a real power failure can produce:
stores sitting in CPU caches (or DMA transfers still in flight) may
land in *any subset*, constrained only by the flush/fence points the
code actually executed.  This module records exactly that missing
information.

A line-recording image hands every mutation record it journals to
:meth:`LineStream.emit`, which turns it into a stream of

* :class:`LineStore` records -- the mutation record itself, decomposed
  into 64-byte cache lines (``nlines``) and tagged, by its
  :data:`MECHANISMS` row, with the *mechanism* that issued it (log
  append, tail commit, journal record, SN slot, page data, ...), and
* :class:`FenceRec` records -- the explicit ordering points: a global
  ``sfence`` after a ``clwb`` train (scope ``None``), or a DMA
  completion fence that covers one channel's descriptors up to an SN
  (scope ``(channel_id, sn)``).

Durability semantics (the in-flight-store analysis consumed by
:class:`~repro.crash.plans.CrashPlanner`):

* a CPU store (``dep is None``) is guaranteed durable once a later
  *global* fence was issued; until then it is **in flight** and a crash
  may drop any subset of its cache lines;
* a DMA page store (``dep = (channel, sn)``) is announced when the
  descriptor is submitted and is guaranteed durable only once a
  completion fence for that channel covers its SN -- a global sfence
  does *not* flush a DMA engine's in-flight data.  Announced stores of
  descriptors that failed or were stranded are *cancelled*: their data
  never moved, at any crash point;
* completion-buffer stores are issued by the DMA engine inside the
  ADR/eADR power-fail domain: durable the instant they are issued
  (``immediate``), never part of a crash plan -- this is the hardware
  property EasyIO's recovery rule (§4.2) relies on;
* allocation counters are volatile-in-NOVA bookkeeping journalled only
  so replayed images can keep allocating; they are applied at every
  crash point (``bookkeeping``).

Replaying a :class:`~repro.crash.plans.CrashPlan` (a point in the
stream plus a chosen subset of the in-flight stores, some of them
partially applied) produces a fresh :class:`PMImage` -- the post-crash
state handed to recovery.  A whole store replays through
:meth:`PMImage.apply`, the rule the mutation journal's replay uses;
partially applied multi-line log/journal records become
:class:`~repro.fs.structures.TornEntry` /
:class:`~repro.fs.structures.TornRecord` sentinels.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.fs.pmimage import MutationRecord, PMImage
from repro.fs.structures import TornEntry, TornRecord

#: Persist granularity: one CPU cache line.
CACHE_LINE = 64

# -- the mechanism catalog ---------------------------------------------
#: PMImage mutation op -> (mechanism, behaviour class, fence label).
#:
#: Behaviour classes:
#:
#: * ``atomic``      -- an 8-byte-atomic slot: all-or-nothing;
#: * ``record``      -- a multi-line metadata record (log/journal
#:                      entry): droppable or *torn* (a line prefix);
#: * ``data``        -- bulk page data: any subset of lines may land;
#: * ``immediate``   -- durable at issue (ADR domain): never in flight;
#: * ``bookkeeping`` -- modeling-only counters: applied at every point.
#:
#: The label names the global sfence that follows the store (a log
#: append's also carries the entry type, e.g. ``append:WriteEntry``).
#: ``None`` means no fence of its own: page trains are fenced by
#: :meth:`LineStream.pages_fence`, a completion-buffer store is
#: *preceded* by its channel's completion fence, bookkeeping needs none.
#: Mechanism names appear in plan classes and fuzz coverage keys.
#:
#: To add a mechanism: a PMImage mutation method, its ``PMImage.apply``
#: branch, one row here, and a tear rule in ``_apply_partial`` if it
#: can tear (DESIGN.md §13).
MECHANISMS: Dict[str, Tuple[str, str, Optional[str]]] = {
    "write_page": ("page-data", "data", None),
    "append_log": ("log-append", "record", "append:"),
    "commit_log_tail": ("log-commit", "atomic", "commit"),
    "put_inode": ("inode", "atomic", "inode"),
    "drop_inode": ("inode-drop", "atomic", "inode"),
    "journal_begin": ("journal-entry", "record", "journal"),
    "journal_end": ("journal-retire", "atomic", "journal-retire"),
    "update_completion_buffer": ("completion-buffer", "immediate", None),
    "record_channel_errors": ("error-log", "atomic", "error"),
    "amend_log_sns": ("SN-slot", "atomic", "amend"),
    "alloc_ino": ("alloc-ino", "bookkeeping", None),
    "alloc_page_ids": ("alloc-page", "bookkeeping", None),
}


class LineStore:
    """One logical durable store, decomposed into 64B cache lines.

    ``seq`` is the record's index in the stream; ``rec`` the
    :class:`~repro.fs.pmimage.MutationRecord` it persists (replay
    applies it with :meth:`PMImage.apply`); ``dep`` the ``(channel,
    sn)`` a DMA-written store waits on (None for CPU stores).
    """

    __slots__ = ("seq", "mech", "klass", "rec", "nlines", "dep")

    def __init__(self, seq: int, rec: MutationRecord, nlines: int = 1,
                 dep: Optional[Tuple[int, int]] = None):
        self.seq = seq
        self.mech, self.klass, _label = MECHANISMS[rec.op]
        self.rec = rec
        self.nlines = nlines
        self.dep = dep

    @property
    def immediate(self) -> bool:
        """Durable the instant it is issued (never part of a plan)."""
        return self.klass in ("immediate", "bookkeeping")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dep = f" dep={self.dep}" if self.dep else ""
        return f"<store#{self.seq} {self.mech} x{self.nlines}{dep}>"


class FenceRec:
    """An ordering point: global sfence, or a DMA completion fence.

    ``scope=None`` orders every CPU store issued so far (clwb+sfence);
    ``scope=(channel, sn)`` marks that the channel's descriptors up to
    ``sn`` have fully landed (the hardware's completion ordering: data
    is in the PM power-fail domain before the completion is raised).
    """

    __slots__ = ("seq", "label", "scope")

    def __init__(self, seq: int, label: str,
                 scope: Optional[Tuple[int, int]] = None):
        self.seq = seq
        self.label = label
        self.scope = scope

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        scope = f" {self.scope}" if self.scope else ""
        return f"<fence#{self.seq} {self.label}{scope}>"


def _entry_lines(entry: Any) -> int:
    """Cache lines a log/journal record spans.

    NOVA entries are one or two cache lines: the fixed fields fit in
    one, variable parts (a dentry's name bytes, a write entry's page-id
    array) spill into a second.  What matters for the crash model is
    only whether the record *can* tear (nlines > 1).
    """
    page_ids = getattr(entry, "page_ids", None)
    if page_ids is not None:
        return 1 + max(1, (len(page_ids) * 8 + CACHE_LINE - 1) // CACHE_LINE)
    name = getattr(entry, "name", None)
    if name is not None:
        return 1 + max(1, (len(name) + CACHE_LINE - 1) // CACHE_LINE)
    return 1


class LineStream:
    """The cache-line persistence journal of one recording image.

    The image passes every :class:`~repro.fs.pmimage.MutationRecord`
    to :meth:`emit`, which issues its line store and fence by the
    :data:`MECHANISMS` row; the DMA backend announces submitted pages
    and the supervisor cancels failed descriptors.  The stream is thus
    a faithful flush/fence trace of the protocol the filesystem ran.
    """

    def __init__(self):
        self.records: List[Any] = []              # LineStore | FenceRec
        #: First-covering-fence list (see ``_covered_at``), rebuilt
        #: lazily when the stream has grown since it was last derived.
        self._covered_at: Optional[List[int]] = None
        #: Replay checkpoint (see ``_checkpoint``).
        self._checkpoint: Optional[_Checkpoint] = None
        #: Per-op [start, end) stream positions, appended by the crash
        #: harness runner (ack boundaries for the legality range).
        self.op_bounds: List[Tuple[int, int]] = []
        #: Seqs of announced DMA stores whose descriptor failed or was
        #: stranded: their data never moved, at any crash point.
        self.cancelled: Set[int] = set()
        #: Test-only mutant knob: fence labels to silently drop (see
        #: repro.core.easyio.install_crash_mutant).
        self.skipped_fences: Set[str] = set()
        self.fences_skipped = 0
        #: Optional tracer: every fence also emits a ``line_fence``
        #: trace point, so the stream can be cross-checked against the
        #: write_commit/pages_persist events of the same run.
        self.tracer = None
        self._announced: Dict[int, int] = {}      # pid -> announced seq
        self._by_dep: Dict[Tuple[int, int], List[int]] = {}
        self._cpu_pages_dirty = False

    def position(self) -> int:
        """Current stream position (= seq of the next record)."""
        return len(self.records)

    # -- raw emission --------------------------------------------------
    def store(self, rec: MutationRecord, nlines: int = 1,
              dep: Optional[Tuple[int, int]] = None) -> LineStore:
        store = LineStore(len(self.records), rec, nlines=nlines, dep=dep)
        self.records.append(store)
        return store

    def fence(self, label: str,
              scope: Optional[Tuple[int, int]] = None) -> Optional[FenceRec]:
        if label in self.skipped_fences:
            self.fences_skipped += 1
            return None
        rec = FenceRec(len(self.records), label, scope)
        self.records.append(rec)
        if self.tracer is not None:
            self.tracer.point("line_fence", track="pm", label=label)
        return rec

    def emit(self, rec: MutationRecord) -> None:
        """Journal one image mutation as its line store and fence."""
        op, args = rec.op, rec.args
        if op == "write_page":
            self._page_write(rec)
            return
        if op == "update_completion_buffer":
            # The completion fence *precedes* the buffer store: by the
            # time the completion value is observable, the covered data
            # is in the power-fail domain.  The store itself is in the
            # ADR domain (immediate): EasyIO's recovery rule is sound
            # only because a persisted completion value can never run
            # ahead of its data.
            self.fence(f"dma-ch{args[0]}", scope=args)
        elif op == "record_channel_errors":
            self.cancel_sns(*args)
        nlines = 1
        label = MECHANISMS[op][2]
        if op == "append_log":
            nlines = _entry_lines(args[1])
            label += type(args[1]).__name__
        elif op == "journal_begin":
            nlines = 2
        self.store(rec, nlines=nlines)
        if label is not None:
            self.fence(label)

    # -- DMA and page trains (the DMA backend, supervisor, persister) --
    def announce_dma_pages(self, channel_id: int, sn: int,
                           pids: Iterable[int],
                           contents: Iterable[bytes]) -> None:
        """A submitted write descriptor's pages: in flight from now,
        durable only once a completion fence covers ``sn``."""
        for pid, content in zip(pids, contents):
            store = self.store(MutationRecord("write_page", (pid, content)),
                               nlines=_page_lines(content),
                               dep=(channel_id, sn))
            self._announced[pid] = store.seq
            self._by_dep.setdefault((channel_id, sn), []).append(store.seq)

    def cancel_sns(self, channel_id: int, sns: Iterable[int]) -> None:
        """Failed/stranded descriptors: their announced data never
        moved -- at any crash point, not just from the failure on
        (a failed transfer lands nothing)."""
        for sn in sns:
            for seq in self._by_dep.pop((channel_id, sn), ()):
                self.cancelled.add(seq)

    def _page_write(self, rec: MutationRecord) -> None:
        """A page landed via :meth:`PMImage.write_page`.

        DMA completions re-land pages that were already announced at
        submission: those are deduplicated against the announced store
        (same pid, same content, not cancelled).  Everything else is a
        CPU store train (memcpy path, degradation, media rewrite),
        fenced by the persister's :meth:`pages_fence`.
        """
        pid, data = rec.args
        seq = self._announced.pop(pid, None)
        if seq is not None and seq not in self.cancelled \
                and self.records[seq].rec.args[1] == data:
            return
        self.store(rec, nlines=_page_lines(data))
        self._cpu_pages_dirty = True

    def pages_fence(self) -> None:
        """clwb+sfence after a CPU page-store train (no-op if the
        persist batch landed purely via deduplicated DMA stores)."""
        if self._cpu_pages_dirty:
            self._cpu_pages_dirty = False
            self.fence("pages")


def _page_lines(data: Any) -> int:
    return max(1, (len(data) + CACHE_LINE - 1) // CACHE_LINE)


# ----------------------------------------------------------------------
# Durability analysis
# ----------------------------------------------------------------------
def _covered_at(stream: LineStream) -> List[int]:
    """Per stream position, the seq of the *first* fence that
    guarantees the store there durable.

    Immediate/bookkeeping stores carry their own seq, stores no fence
    ever covers carry ``n`` (the stream length), fences carry -1.  So a
    store at ``i < point`` is durable at ``point`` iff
    ``0 <= covered_at[i] < point`` and in flight iff
    ``covered_at[i] >= point`` (minus the cancelled seqs either way).
    Cancellation is applied at query time, not baked in: whether a
    fence covers a store does not depend on which other stores were
    cancelled, so the cached list stays valid as ``cancel_sns``
    arrives.  Built in one pass and cached until the stream grows.
    Replay and the crash planner both read coverage from here.
    """
    records = stream.records
    n = len(records)
    cov = stream._covered_at
    if cov is not None and len(cov) == n:
        return cov
    cov = [n] * n
    pending_cpu: List[int] = []
    pending_dma: Dict[int, List[Tuple[int, int]]] = {}
    for i, rec in enumerate(records):
        if isinstance(rec, LineStore):
            if rec.immediate:
                cov[i] = i
            elif rec.dep is None:
                pending_cpu.append(i)
            else:
                ch, sn = rec.dep
                pending_dma.setdefault(ch, []).append((sn, i))
            continue
        cov[i] = -1
        if rec.scope is None:
            for seq in pending_cpu:
                cov[seq] = i
            pending_cpu.clear()
        else:
            ch, covered = rec.scope
            if ch in pending_dma:
                keep = []
                for sn, seq in pending_dma[ch]:
                    if sn <= covered:
                        cov[seq] = i
                    else:
                        keep.append((sn, seq))
                pending_dma[ch] = keep
    stream._covered_at = cov
    return cov


def base_durable(stream: LineStream, point: int) -> Set[int]:
    """Seqs of stores *guaranteed* durable at stream position ``point``.

    CPU stores need a later global fence; DMA stores need a completion
    fence covering their SN; immediate/bookkeeping stores are durable
    at issue; cancelled stores are never durable.
    """
    cancelled = stream.cancelled
    return {i for i, c in enumerate(_covered_at(stream)[:point])
            if 0 <= c < point and i not in cancelled}


def in_flight(stream: LineStream, point: int) -> List[LineStore]:
    """The stores a crash at ``point`` may drop (or partially apply),
    in issue order."""
    cancelled = stream.cancelled
    records = stream.records
    return [records[i] for i, c in enumerate(_covered_at(stream)[:point])
            if c >= point and i not in cancelled]


# ----------------------------------------------------------------------
# Plan replay: stream -> post-crash PMImage
# ----------------------------------------------------------------------
def _quiescent_points(cov: List[int], cancelled: Set[int]) -> List[int]:
    """Positions ``q`` at which every store before ``q`` is settled:
    a fence, cancelled, or durable at ``q`` (``0 <= cov[i] < q``).

    No plan at or after ``q`` can drop or tear a store before it, so
    stores ``[0, q)`` replay to the same image for all of them.
    """
    out = [0]
    reach = -1                  # max cover of the live stores so far
    for i, c in enumerate(cov):
        if c > reach and i not in cancelled:
            reach = c
        if reach <= i:
            out.append(i + 1)
    return out


class _Checkpoint(NamedTuple):
    #: ``(len(records), len(cancelled))`` the checkpoint was built for;
    #: both only grow, so a change in either means a new stream view.
    view: Tuple[int, int]
    quiescent: List[int]
    at: int
    img: PMImage


def _checkpoint(stream: LineStream, cov: List[int],
                bound: int) -> Tuple[int, PMImage]:
    """The image of stores ``[0, q)`` at the latest quiescent ``q <=
    bound``, kept on the stream and advanced in place as plans move
    forward.  Rebuilt from 0 when a plan lies behind it or the stream
    has grown or had stores cancelled since it was built."""
    cancelled = stream.cancelled
    records = stream.records
    view = (len(records), len(cancelled))
    ck = stream._checkpoint
    if ck is None or ck.view != view:
        ck = _Checkpoint(view, _quiescent_points(cov, cancelled), 0,
                         PMImage(record=False))
    quiescent = ck.quiescent
    q = quiescent[bisect_right(quiescent, bound) - 1]
    at, img = ck.at, ck.img
    if q < at:
        at, img = 0, PMImage(record=False)
    for i in range(at, q):
        if cov[i] >= 0 and i not in cancelled:
            img.apply(records[i].rec)
    stream._checkpoint = ck._replace(at=q, img=img)
    return q, img


def replay_plan(stream: LineStream, plan) -> PMImage:
    """Materialise one crash plan into a fresh (non-recording) image.

    Applies, in stream order: every store guaranteed durable at the
    plan's point, plus the plan's chosen in-flight subset (fully or as
    a partial line set).  Stores before the plan's quiescent checkpoint
    come from a copy of the checkpoint image; only the rest replay.
    """
    point = plan.point
    applied = plan.applied
    partials = dict(plan.partials)
    cov = _covered_at(stream)
    q, base = _checkpoint(stream, cov, min((point, *applied, *partials)))
    img = base.copy()
    cancelled = stream.cancelled
    records = stream.records
    for i in range(q, point):
        c = cov[i]
        if c < 0:
            continue
        lines = partials.get(i)
        if lines is not None:
            _apply_partial(img, records[i], lines)
        elif (c < point and i not in cancelled) or i in applied:
            img.apply(records[i].rec)
    return img


def replay_full(stream: LineStream) -> PMImage:
    """End-of-stream, everything-landed replay (the no-crash image).

    Must equal ``image.replay(len(image.mutations))`` -- the
    equivalence invariant tying the line model to the mutation journal
    (tests/test_linestream.py pins it).
    """
    from types import SimpleNamespace
    end = stream.position()
    return replay_plan(stream, SimpleNamespace(
        point=end,
        applied=frozenset(s.seq for s in in_flight(stream, end)),
        partials={}))


def _apply_partial(img: PMImage, store: LineStore,
                   lines: Tuple[int, ...]) -> None:
    """Apply only ``lines`` of a multi-line store.

    ``data`` stores merge the chosen 64B slices over whatever the page
    currently holds (zeros if nothing); ``record`` stores become torn
    sentinels in place of the real entry.
    """
    op, args = store.rec.op, store.rec.args
    if op == "write_page":
        pid, payload = args
        base = img.pages.get(pid)
        if not isinstance(base, (bytes, bytearray)) \
                or len(base) != len(payload):
            base = b"\x00" * len(payload)
        out = bytearray(base)
        for i in lines:
            out[i * CACHE_LINE:(i + 1) * CACHE_LINE] = \
                payload[i * CACHE_LINE:(i + 1) * CACHE_LINE]
        img.pages[pid] = bytes(out)
    elif op == "append_log":
        ino, entry = args
        img.logs.setdefault(ino, []).append(
            TornEntry(of=type(entry).__name__, lines=len(lines),
                      total=store.nlines))
    elif op == "journal_begin":
        img.journal.append(
            TornRecord(of=type(args[0]).__name__, lines=len(lines),
                       total=store.nlines))
    else:  # pragma: no cover - planner only tears data/record stores
        raise ValueError(f"mechanism {store.mech!r} cannot tear")
