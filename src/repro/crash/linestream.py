"""Cache-line-granularity persistence model (Silhouette-style).

The mutation journal in :class:`~repro.fs.pmimage.PMImage` records
*what* became durable, in program order -- that is CrashMonkey's model,
and it cannot represent the states a real power failure can produce:
stores sitting in CPU caches (or DMA transfers still in flight) may
land in *any subset*, constrained only by the flush/fence points the
code actually executed.  This module records exactly that missing
information.

A line-recording image journals, alongside every mutation, a stream of

* :class:`LineStore` records -- one logical durable store, decomposed
  into 64-byte cache lines (``nlines``), tagged with the *mechanism*
  that issued it (log append, tail commit, journal record, SN slot,
  page data, ...), and
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
state handed to recovery.  Partially applied multi-line log/journal
records become :class:`~repro.fs.structures.TornEntry` /
:class:`~repro.fs.structures.TornRecord` sentinels.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.fs.pmimage import PMImage
from repro.fs.structures import TornEntry, TornRecord

#: Persist granularity: one CPU cache line.
CACHE_LINE = 64

# -- the mechanism catalog ---------------------------------------------
#: mechanism -> behaviour class.
#:
#: * ``atomic``      -- an 8-byte-atomic slot: all-or-nothing;
#: * ``record``      -- a multi-line metadata record (log/journal
#:                      entry): droppable or *torn* (a line prefix);
#: * ``data``        -- bulk page data: any subset of lines may land;
#: * ``immediate``   -- durable at issue (ADR domain): never in flight;
#: * ``bookkeeping`` -- modeling-only counters: applied at every point.
#:
#: To add a mechanism: emit its stores through a LineStream helper with
#: a new name, register the class here, give it an apply rule in
#: ``_apply_store``/``_apply_partial``, and (if recovery must react to
#: its torn/dropped shapes) extend the mechanism checks in
#: ``crashmonkey._mechanism_checks``.  DESIGN.md §13 walks through it.
MECHANISMS: Dict[str, str] = {
    "page-data": "data",
    "log-append": "record",
    "log-commit": "atomic",
    "inode": "atomic",
    "inode-drop": "atomic",
    "journal-entry": "record",
    "journal-retire": "atomic",
    "completion-buffer": "immediate",
    "error-log": "atomic",
    "SN-slot": "atomic",
    "alloc-ino": "bookkeeping",
    "alloc-page": "bookkeeping",
}


class LineStore:
    """One logical durable store, decomposed into 64B cache lines.

    ``seq`` is the record's index in the stream; ``obj`` the applied
    object's key (e.g. ``("page", pid)``); ``payload`` whatever the
    apply rule needs; ``dep`` the ``(channel, sn)`` a DMA-written store
    waits on (None for CPU stores).
    """

    __slots__ = ("seq", "mech", "klass", "obj", "nlines", "payload", "dep")

    def __init__(self, seq: int, mech: str, obj: Tuple, payload: Any,
                 nlines: int = 1, dep: Optional[Tuple[int, int]] = None):
        self.seq = seq
        self.mech = mech
        self.klass = MECHANISMS[mech]
        self.obj = obj
        self.nlines = nlines
        self.payload = payload
        self.dep = dep

    @property
    def immediate(self) -> bool:
        """Durable the instant it is issued (never part of a plan)."""
        return self.klass in ("immediate", "bookkeeping")

    def line_slices(self) -> List[Tuple[int, bytes]]:
        """The store's exact 64B tiling: ``[(line_idx, bytes), ...]``.

        Only meaningful for ``data`` stores (their payload is the raw
        byte content); the slices partition the payload, every slice
        except possibly the last is exactly :data:`CACHE_LINE` bytes.
        """
        data = self.payload
        return [(i, data[i * CACHE_LINE:(i + 1) * CACHE_LINE])
                for i in range(self.nlines)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dep = f" dep={self.dep}" if self.dep else ""
        return (f"<store#{self.seq} {self.mech} {self.obj} "
                f"x{self.nlines}{dep}>")


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

    Emission helpers are called from the image's mutation methods (and
    from the DMA backend at descriptor submission); each encodes the
    store+fence policy of its mechanism, so the stream is a faithful
    flush/fence trace of the protocol the filesystem actually ran.
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
    def store(self, mech: str, obj: Tuple, payload: Any, nlines: int = 1,
              dep: Optional[Tuple[int, int]] = None) -> LineStore:
        rec = LineStore(len(self.records), mech, obj, payload,
                        nlines=nlines, dep=dep)
        self.records.append(rec)
        return rec

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

    # -- mechanism helpers (called by PMImage / the DMA backend) -------
    def announce_dma_pages(self, channel_id: int, sn: int,
                           pids: Iterable[int],
                           contents: Iterable[bytes]) -> None:
        """A submitted write descriptor's pages: in flight from now,
        durable only once a completion fence covers ``sn``."""
        for pid, content in zip(pids, contents):
            rec = self.store("page-data", ("page", pid), content,
                             nlines=_page_lines(content),
                             dep=(channel_id, sn))
            self._announced[pid] = rec.seq
            self._by_dep.setdefault((channel_id, sn), []).append(rec.seq)

    def cancel_sns(self, channel_id: int, sns: Iterable[int]) -> None:
        """Failed/stranded descriptors: their announced data never
        moved -- at any crash point, not just from the failure on
        (a failed transfer lands nothing)."""
        for sn in sns:
            for seq in self._by_dep.pop((channel_id, sn), ()):
                self.cancelled.add(seq)

    def page_write(self, pid: int, data: Any) -> None:
        """A page landed via :meth:`PMImage.write_page`.

        DMA completions re-land pages that were already announced at
        submission: those are deduplicated against the announced store
        (same pid, same content, not cancelled).  Everything else is a
        CPU store train (memcpy path, degradation, media rewrite),
        fenced by the persister's :meth:`pages_fence`.
        """
        seq = self._announced.get(pid)
        if seq is not None:
            rec = self.records[seq]
            if rec.payload == data and seq not in self.cancelled:
                del self._announced[pid]
                return
            del self._announced[pid]
        self.store("page-data", ("page", pid), data,
                   nlines=_page_lines(data))
        self._cpu_pages_dirty = True

    def pages_fence(self) -> None:
        """clwb+sfence after a CPU page-store train (no-op if the
        persist batch landed purely via deduplicated DMA stores)."""
        if self._cpu_pages_dirty:
            self._cpu_pages_dirty = False
            self.fence("pages")

    def log_append(self, ino: int, entry: Any) -> None:
        self.store("log-append", ("log", ino), (ino, entry),
                   nlines=_entry_lines(entry))
        self.fence(f"append:{type(entry).__name__}")

    def log_commit(self, ino: int, tail: int) -> None:
        self.store("log-commit", ("tail", ino), (ino, tail))
        self.fence("commit")

    def inode_put(self, ino: int, inode: Any) -> None:
        self.store("inode", ("inode", ino), (ino, inode))
        self.fence("inode")

    def inode_drop(self, ino: int) -> None:
        self.store("inode-drop", ("inode", ino), ino)
        self.fence("inode")

    def journal_begin(self, txn: Any) -> None:
        self.store("journal-entry", ("journal",), txn, nlines=2)
        self.fence("journal")

    def journal_retire(self) -> None:
        self.store("journal-retire", ("journal",), None)
        self.fence("journal-retire")

    def completion_update(self, channel_id: int, sn: int) -> None:
        # The completion fence *precedes* the buffer store: by the time
        # the completion value is observable, the covered data is in
        # the power-fail domain.  The store itself is in the ADR domain
        # (immediate): EasyIO's recovery rule is sound only because a
        # persisted completion value can never run ahead of its data.
        self.fence(f"dma-ch{channel_id}", scope=(channel_id, sn))
        self.store("completion-buffer", ("cbuf", channel_id),
                   (channel_id, sn))

    def error_log(self, channel_id: int, sns: Tuple[int, ...]) -> None:
        self.cancel_sns(channel_id, sns)
        self.store("error-log", ("errlog", channel_id), (channel_id, sns))
        self.fence("error")

    def sn_amend(self, ino: int, index: int,
                 sns: Tuple[Tuple[int, int], ...]) -> None:
        self.store("SN-slot", ("amend", ino, index), (ino, index, sns))
        self.fence("amend")

    def alloc_ino(self, ino: int) -> None:
        self.store("alloc-ino", ("alloc-ino",), ino)

    def alloc_pages(self, next_page: int) -> None:
        self.store("alloc-page", ("alloc-page",), next_page)


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
            _apply_store(img, records[i])
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
            _apply_store(img, records[i])
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


def _apply_store(img: PMImage, rec: LineStore) -> None:
    mech, payload = rec.mech, rec.payload
    if mech == "page-data":
        img.pages[rec.obj[1]] = payload
    elif mech == "log-append":
        ino, entry = payload
        img.logs.setdefault(ino, []).append(entry)
    elif mech == "log-commit":
        ino, tail = payload
        img.log_tails[ino] = tail
    elif mech == "inode":
        ino, inode = payload
        img.inodes[ino] = inode
    elif mech == "inode-drop":
        img.inodes.pop(payload, None)
        img.logs.pop(payload, None)
        img.log_tails.pop(payload, None)
    elif mech == "journal-entry":
        img.journal.append(payload)
    elif mech == "journal-retire":
        if img.journal:
            img.journal.pop()
    elif mech == "completion-buffer":
        ch, sn = payload
        img.completion_buffers[ch] = sn
    elif mech == "error-log":
        ch, sns = payload
        img.channel_error_sns.setdefault(ch, set()).update(sns)
    elif mech == "SN-slot":
        ino, index, sns = payload
        log = img.logs.get(ino, ())
        if index < len(log):
            from dataclasses import replace
            log[index] = replace(log[index], sns=tuple(sns))
    elif mech == "alloc-ino":
        img.next_ino = max(img.next_ino, payload + 1)
    elif mech == "alloc-page":
        img.next_page = max(img.next_page, payload)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown mechanism {rec.mech!r}")


def _apply_partial(img: PMImage, rec: LineStore,
                   lines: Tuple[int, ...]) -> None:
    """Apply only ``lines`` of a multi-line store.

    ``data`` stores merge the chosen 64B slices over whatever the page
    currently holds (zeros if nothing); ``record`` stores become torn
    sentinels in place of the real entry.
    """
    if rec.klass == "data":
        pid = rec.obj[1]
        payload = rec.payload
        base = img.pages.get(pid)
        if not isinstance(base, (bytes, bytearray)) \
                or len(base) != len(payload):
            base = b"\x00" * len(payload)
        out = bytearray(base)
        for i in lines:
            out[i * CACHE_LINE:(i + 1) * CACHE_LINE] = \
                payload[i * CACHE_LINE:(i + 1) * CACHE_LINE]
        img.pages[pid] = bytes(out)
    elif rec.mech == "log-append":
        ino, entry = rec.payload
        img.logs.setdefault(ino, []).append(
            TornEntry(of=type(entry).__name__, lines=len(lines),
                      total=rec.nlines))
    elif rec.mech == "journal-entry":
        img.journal.append(
            TornRecord(of=type(rec.payload).__name__, lines=len(lines),
                       total=rec.nlines))
    else:  # pragma: no cover - planner only tears data/record stores
        raise ValueError(f"mechanism {rec.mech!r} cannot tear")
