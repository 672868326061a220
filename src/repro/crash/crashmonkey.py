"""Black-box crash-consistency testing in the style of CrashMonkey [59].

The paper's Table 2 runs four workloads covering the error-prone
syscalls (create, write, link, rename, delete) and injects 1000 crash
points into each, then checks that recovery lands in a legal state.

Methodology here (equivalent to CrashMonkey's record/replay model):

1. Run the workload on a *recording* PM image; every durable store is
   journalled in persist order.  Ops are serialized, and the oracle
   snapshots the expected logical state after each op, together with
   the op's [first, last] mutation indices.
2. A crash at point *k* is "replay the first *k* mutations into a
   fresh image" -- exactly a power failure between two 8-byte-atomic
   persists.  Recover the inode table from that image alone (EasyIO
   recovery validates write SNs against the persistent completion
   buffers); only the recording run builds a platform.
3. The recovered state (names, sizes, *and file contents*) must equal
   the oracle state after op *i* for some i between "ops fully durable
   by k" and "ops started by k" -- i.e. each op must be atomic and
   ops must become durable in order.

This directly exercises EasyIO's dangerous window: metadata committed
before the DMA'd data landed.  Recovery must discard such entries (the
SN rule), or the content check fails.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from repro.crash.linestream import replay_plan
from repro.crash.plans import CrashPlanner
from repro.fs.pmimage import ELIDED, PMImage
from repro.fs.recovery import (TornLogEntryError,
                               completion_buffer_validator, recover)
from repro.fs.structures import (PAGE_SIZE, ROOT_INO, DentryEntry,
                                  FileKind, MemInode, RenameTxn, TornRecord,
                                  WriteEntry)
from repro.hw.platform import Platform, PlatformConfig
from repro.obs import TraceChecker, default_tracing
from repro.workloads.factory import make_fs
from repro.workloads.fxmark import settle

Snapshot = Dict[str, Tuple]

#: A directory's snapshot entry.
_DIR = ("dir", 0, None)

#: The journal ops whose first argument names the inode they change.
_INODE_OPS = frozenset(("put_inode", "drop_inode", "append_log",
                        "commit_log_tail", "amend_log_sns"))


def _page_digest(data, cut: int, memo: dict) -> bytes:
    """SHA-1 of the first ``cut`` bytes a mapped page reads, or ``b""``
    when they are all zeros (holes and ``ELIDED`` pages included).
    Memoised on the page bytes themselves: ``data``, or ``(data, cut)``
    for a tail page that EOF cuts."""
    if data is None or data is ELIDED:
        return b""
    key = data if cut == PAGE_SIZE else (data, cut)
    digest = memo.get(key)
    if digest is None:
        part = data[:cut]
        digest = memo[key] = (b"" if part.count(0) == len(part)
                              else hashlib.sha1(part).digest())
    return digest


def _file_digest(m: MemInode, pages: dict, memo: dict) -> str:
    """Digest of ``file_bytes(image, m, 0, m.size)`` for the image whose
    page table is ``pages``: the SHA-1 of the size, then the offsets
    and :func:`_page_digest` of every page below EOF that does not read
    as zeros.  A hole, an ``ELIDED`` page and an all-zero page digest
    alike, and so do tail pages that differ only past EOF.

    ``memo`` is content-keyed.  Besides the page digests it maps a
    file's ``(size, pgoffs, page bytes)`` -- its size, its index's page
    offsets and what each one maps to, never the page id, which CoW
    recycles for new bytes -- to the file's digest.  A file-key miss
    costs one memo lookup per mapped page, not a copy and hash of the
    whole file.
    """
    index = m.index
    key = (m.size, tuple(index),
           tuple([pages.get(pm.page_id) for pm in index.values()]))
    value = memo.get(key)
    if value is not None:
        return value
    size, offs, datas = key
    full, cut = divmod(size, PAGE_SIZE)
    if list(offs) != sorted(offs):
        offs, datas = zip(*sorted(zip(offs, datas)))
    n = bisect_left(offs, full)
    get = memo.get
    digests = [get(data) or _page_digest(data, PAGE_SIZE, memo)
               for data in datas[:n]]
    if cut and n < len(offs) and offs[n] == full:
        digests.append(_page_digest(datas[n], cut, memo))
    offs = offs[:len(digests)]
    if b"" in digests:
        offs = [off for off, d in zip(offs, digests) if d]
        digests = [d for d in digests if d]
    value = memo[key] = hashlib.sha1(
        struct.pack(f"<{len(offs) + 1}Q", size, *offs)
        + b"".join(digests)).hexdigest()
    return value


def _dirty_inodes(records) -> Optional[Dict[int, Set[str]]]:
    """The inodes whose snapshot entries the journal ``records`` (one
    op's window) may have changed, each with the dentry names its log
    entries touched; None when the window cannot say.

    An inode's entry reads its size, index and dentries, which change
    only with a record naming it, and the bytes of its mapped pages.
    A ``write_page`` names a page, not an inode: it is accounted for
    when a ``WriteEntry`` in the same window maps that page (CoW never
    maps one page into two files).  Any other page store -- a DMA
    landing after its op's window closed -- returns None, and the
    caller re-walks the tree.
    """
    dirty: Dict[int, Set[str]] = {}
    written: Set[int] = set()
    mapped: Set[int] = set()
    for rec in records:
        op, args = rec.op, rec.args
        if op in _INODE_OPS:
            names = dirty.setdefault(args[0], set())
            if op == "append_log":
                entry = args[1]
                if isinstance(entry, DentryEntry):
                    names.add(entry.name)
                elif isinstance(entry, WriteEntry):
                    mapped.update(entry.page_ids)
        elif op == "write_page":
            written.add(args[0])
        elif op == "journal_begin" and isinstance(args[0], RenameTxn):
            txn = args[0]
            for ino in (txn.src_dir, txn.dst_dir, txn.ino):
                dirty.setdefault(ino, set())
    return dirty if written <= mapped else None


class SnapshotTree:
    """What :func:`snapshot_with_content` keeps between the per-op
    snapshots of one recording, so that each is advanced from the
    previous one.  Pass one per recording, always with the same live
    inode table and recording image."""

    __slots__ = ("snap", "at", "paths", "seen")

    def __init__(self):
        #: The last snapshot returned (never mutated afterwards).
        self.snap: Optional[Snapshot] = None
        #: ``len(image.mutations)`` when ``snap`` was taken.
        self.at = 0
        #: ino -> every path whose dentry names it.
        self.paths: Dict[int, Set[str]] = {}
        #: visible directory ino -> its dentries as ``snap`` holds them.
        self.seen: Dict[int, Dict[str, int]] = {}

    def advance(self, inodes: Dict[int, MemInode], pages: dict, memo: dict,
                dirty: Optional[Dict[int, Set[str]]]) -> Snapshot:
        """The snapshot after the changes ``dirty`` (see
        :func:`_dirty_inodes`) names; ``None``, or a tree never walked,
        walks the whole tree."""
        paths, seen = self.paths, self.seen
        snap: Snapshot = {}

        def add(path: str, ino: int) -> None:
            paths.setdefault(ino, set()).add(path)
            m = inodes.get(ino)
            if m is None:
                return
            if m.kind is FileKind.DIR:
                snap[path] = _DIR
                fill(path, ino, m)
            else:
                snap[path] = ("file", m.size, _file_digest(m, pages, memo))

        def fill(path: str, ino: int, m: MemInode) -> None:
            seen[ino] = dict(m.dentries)
            for name, child in m.dentries.items():
                add(f"{path}/{name}", child)

        def drop(path: str, ino: int) -> None:
            named = paths[ino]
            named.discard(path)
            if not named:
                del paths[ino]
            snap.pop(path, None)
            below = seen.pop(ino, None)
            if below:
                for name, child in below.items():
                    drop(f"{path}/{name}", child)

        if dirty is None or self.snap is None:
            paths.clear()
            seen.clear()
            root = inodes.get(ROOT_INO)
            if root is not None:
                paths[ROOT_INO] = {""}
                fill("", ROOT_INO, root)
            return snap
        if not dirty:
            return self.snap
        snap.update(self.snap)
        # Update each changed directory's copy name by name, dropping
        # every removed name's subtree before walking any added one: a
        # renamed directory leaves its old path before it appears at
        # its new one.
        diffs = []
        for d, names in dirty.items():
            old = seen.get(d)
            if old is not None:
                m = inodes.get(d)
                new = m.dentries if m is not None else {}
                if new != old:
                    diffs.append((d, old, new, names))
        for d, old, new, names in diffs:
            if seen.get(d) is old:
                (path,) = paths[d]
                for name in names:
                    child = old.get(name)
                    if child is not None and new.get(name) != child:
                        del old[name]
                        drop(f"{path}/{name}", child)
        for d, old, new, names in diffs:
            # Skipped when an ancestor's change dropped or re-walked d.
            if seen.get(d) is old:
                (path,) = paths[d]
                for name in names:
                    child = new.get(name)
                    if child is not None and old.get(name) != child:
                        old[name] = child
                        add(f"{path}/{name}", child)
                if old != new:  # a dentry changed without a log entry
                    return self.advance(inodes, pages, memo, None)
        for ino in dirty:
            named = paths.get(ino)
            m = inodes.get(ino)
            if named and m is not None and m.kind is FileKind.FILE:
                entry = ("file", m.size, _file_digest(m, pages, memo))
                for path in named:
                    snap[path] = entry
        return snap


def snapshot_with_content(inodes: Dict[int, MemInode], image: PMImage,
                          content_memo: Optional[dict] = None,
                          tree: Optional[SnapshotTree] = None) -> Snapshot:
    """{path: ("dir"|"file", size, content-digest)} for the tree that
    the inode table ``inodes`` (a live filesystem's, or
    :func:`~repro.fs.recovery.recover`'s) spans over ``image``.

    A file's digest is a function of exactly the bytes
    ``file_bytes(image, m, 0, m.size)`` returns, built from per-page
    digests (see :func:`_file_digest`); snapshots only ever compare
    digests for equality.  ``content_memo`` is the content-keyed digest
    memo: one dict serves a whole sweep -- its recording and its crash
    states alike -- because its keys hold the bytes a digest is a
    function of, whatever image they came from.  Without one, a fresh
    dict serves the call (hard links then hash once).

    ``tree`` advances a recording's previous snapshot instead of
    walking the whole tree: only the inodes that the image's journal
    names since the previous call are revisited (see
    :func:`_dirty_inodes`).  It needs a recording image; a snapshot
    returned with a tree is shared with the tree, and must not be
    mutated.
    """
    memo = {} if content_memo is None else content_memo
    pages = image.pages
    if tree is not None:
        if not image.recording:
            raise ValueError("an incremental snapshot needs a recording "
                             "image")
        end = len(image.mutations)
        dirty = (None if tree.snap is None
                 else _dirty_inodes(image.mutations[tree.at:end]))
        tree.snap = tree.advance(inodes, pages, memo, dirty)
        tree.at = end
        return tree.snap
    out: Snapshot = {}

    def walk(m: MemInode, prefix: str) -> None:
        for name, child_ino in m.dentries.items():
            child = inodes.get(child_ino)
            if child is None:
                continue
            path = f"{prefix}/{name}"
            if child.kind is FileKind.DIR:
                out[path] = _DIR
                walk(child, path)
            else:
                out[path] = ("file", child.size,
                             _file_digest(child, pages, memo))

    root = inodes.get(ROOT_INO)
    if root is not None:
        walk(root, "")
    return out


def _payload(tag: int, nbytes: int) -> bytes:
    """Deterministic, tag-distinguishable file content."""
    unit = (f"{tag:08x}".encode() * ((nbytes // 8) + 1))[:nbytes]
    return unit


# ----------------------------------------------------------------------
# The four Table-2 workloads
# ----------------------------------------------------------------------
def _wl_create_delete(fs, iterations: int):
    """create, write, remove on regular files."""
    for i in range(iterations):
        ctx = fs.context(record=False)
        ino = yield from fs.create(ctx, f"/cd{i}")
        yield ("op",)
        result = yield from fs.write(fs.context(record=False), ino, 0,
                                     12288, _payload(i, 12288))
        yield from settle(fs, result)
        yield ("op",)
        if i >= 2:
            yield from fs.unlink(fs.context(record=False), f"/cd{i - 2}")
            yield ("op",)


def _wl_generic_056(fs, iterations: int):
    """create, write, link on regular files."""
    for i in range(iterations):
        ino = yield from fs.create(fs.context(record=False), f"/a{i}")
        yield ("op",)
        result = yield from fs.write(fs.context(record=False), ino, 0,
                                     8192, _payload(i, 8192))
        yield from settle(fs, result)
        yield ("op",)
        yield from fs.link(fs.context(record=False), f"/a{i}", f"/b{i}")
        yield ("op",)


def _wl_generic_090(fs, iterations: int):
    """write, append, link on regular files."""
    ino = yield from fs.create(fs.context(record=False), "/g090")
    yield ("op",)
    for i in range(iterations):
        result = yield from fs.write(fs.context(record=False), ino,
                                     0, 8192, _payload(i, 8192))
        yield from settle(fs, result)
        yield ("op",)
        result = yield from fs.append(fs.context(record=False), ino,
                                      4096, _payload(i ^ 0xFF, 4096))
        yield from settle(fs, result)
        yield ("op",)
        if i % 4 == 0:
            yield from fs.link(fs.context(record=False), "/g090", f"/l{i}")
            yield ("op",)


def _wl_generic_322(fs, iterations: int):
    """create, write, rename on regular files."""
    for i in range(iterations):
        ino = yield from fs.create(fs.context(record=False), f"/t{i}")
        yield ("op",)
        result = yield from fs.write(fs.context(record=False), ino, 0,
                                     16384, _payload(i, 16384))
        yield from settle(fs, result)
        yield ("op",)
        yield from fs.rename(fs.context(record=False), f"/t{i}", f"/r{i}")
        yield ("op",)


#: Table 2's workloads: name -> (description, driver, iterations).
CRASH_WORKLOADS: Dict[str, Tuple[str, Callable, int]] = {
    "create_delete": ("create, write, remove on regular files",
                      _wl_create_delete, 90),
    "generic_056": ("create, write, link on regular files",
                    _wl_generic_056, 90),
    "generic_090": ("write, append, link on regular files",
                    _wl_generic_090, 100),
    "generic_322": ("create, write, rename on regular files",
                    _wl_generic_322, 80),
}


class CrashFailure(NamedTuple):
    """One failed crash point: which check tripped, and where.

    Tuple-compatible with the old ``(point, message)`` failures;
    ``check`` names the violated oracle (``ordering`` / ``content`` /
    ``atomicity`` for state legality, ``torn-entry`` / ``torn-journal``
    / ``sn-pages`` / ``no-resurrect`` for the mechanism oracles) and
    ``plan`` the crash-plan class in line-granularity mode, so a
    failure can be replayed from the report alone.
    """

    point: int
    check: str
    detail: str
    plan: Optional[str] = None


@dataclass
class CrashReport:
    """Outcome of one workload's crash sweep."""

    workload: str
    kind: str
    total_crash_points: int
    passed: int
    failures: List[CrashFailure] = field(default_factory=list)
    #: ``"page"`` (mutation-prefix sweep) or ``"line"`` (crash plans).
    granularity: str = "page"
    #: Line mode: the raw 2^lines crash states the plan set stands in
    #: for (how much the mechanism pruning collapsed).
    raw_states: int = 0
    #: Line mode: replayed plans per plan class.
    plan_classes: Dict[str, int] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total_crash_points


def _classify_state_failure(snap: Snapshot,
                            oracle: Sequence[Tuple[int, int, Snapshot]],
                            lo: int, hi: int):
    """Name the way a recovered state is illegal.

    * ``ordering``  -- it *is* a post-op state, just not one in the
      legal [lo, hi] window (an acked op vanished, or a later op became
      durable before an earlier one);
    * ``content``   -- names and sizes match a legal state but file
      contents differ (the dangerous window: metadata without data);
    * ``atomicity`` -- it matches no post-op state at all (a partially
      applied operation leaked through recovery).
    """
    for j in range(len(oracle) + 1):
        cand = {} if j == 0 else oracle[j - 1][2]
        if snap == cand:
            return ("ordering",
                    f"recovered state equals the post-op-{j} state, "
                    f"outside the legal window [{lo}, {hi}]")
    for i in range(lo, hi + 1):
        cand = {} if i == 0 else oracle[i - 1][2]
        if set(cand) == set(snap) \
                and all(cand[p][:2] == snap[p][:2] for p in cand):
            return ("content",
                    f"names/sizes match the post-op-{i} state but file "
                    f"contents differ")
    return ("atomicity",
            f"recovered state matches no oracle state in [{lo}, {hi}] "
            f"(partially applied operation)")


def _check_state(snap: Snapshot,
                 oracle: Sequence[Tuple[int, int, Snapshot]],
                 lo: int, hi: int):
    """None if ``snap`` is a legal post-crash state, else a classified
    ``(check, detail)`` pair."""
    for i in range(lo, hi + 1):
        cand = {} if i == 0 else oracle[i - 1][2]
        if snap == cand:
            return None
    return _classify_state_failure(snap, oracle, lo, hi)


def _mechanism_checks(inodes: Dict[int, MemInode], img: PMImage,
                      validator):
    """The mechanism oracles: recovery must have *reacted* to each
    mechanism's torn/reordered shapes, not merely produced some legal
    namespace.  Returns None, or a ``(check, detail)`` failure.

    * ``torn-journal``  -- a torn (checksum-invalid) journal record
      must be retired during recovery, never left in place;
    * ``sn-pages``      -- a surviving page mapping must point at a
      page the image actually holds (an SN slot persisting before its
      pages landed must have invalidated the entry);
    * ``no-resurrect``  -- a surviving mapping's SNs must satisfy the
      completion-buffer rule: an amended SN set can never make data
      valid that the buffers do not cover.
    """
    for txn in img.journal:
        if isinstance(txn, TornRecord):
            return ("torn-journal",
                    f"recovery left a torn {txn.of} journal record "
                    f"({txn.lines}/{txn.total} lines) unretired")
    for ino, m in inodes.items():
        for off, pm in m.index.items():
            if pm.page_id not in img.pages:
                return ("sn-pages",
                        f"inode {ino} pgoff {off}: surviving mapping "
                        f"references page {pm.page_id} absent from the "
                        f"image (metadata persisted before data)")
            if pm.sns and validator is not None and not validator(pm.sns):
                return ("no-resurrect",
                        f"inode {ino} pgoff {off}: surviving mapping's "
                        f"SNs {pm.sns} fail the completion-buffer rule")
    return None


def _record_workload(kind: str, driver: Callable, iterations: int,
                     fault_plan: Optional[Callable] = None,
                     trace_oracles: bool = False, *,
                     lines: bool = False, mutant: Optional[str] = None,
                     content_memo: Optional[dict] = None):
    """Run the workload once, recording mutations and the op oracle.

    ``fault_plan`` is a zero-argument factory returning a fresh
    :class:`~repro.faults.FaultPlan`; when given, the plan is installed
    on the recording platform so crash points land inside the
    retry/failover/degradation windows too.

    With ``trace_oracles`` the recording run is traced (repro.obs) and
    the stream is replayed through the full invariant-oracle set; any
    violation raises before a single crash point is examined -- so
    crash legality is checked against the *execution*, not only the
    recovered image.

    ``lines`` additionally records the cache-line persistence journal
    (``image.linestream``), with per-op stream bounds on
    ``stream.op_bounds``.  ``mutant`` plants a known persistence bug
    (see :data:`repro.core.easyio.CRASH_MUTANTS`) -- mutants require
    line recording, so callers enable it for page sweeps on mutants
    too (the sweep itself still only reads the mutation journal).

    Each op's snapshot is advanced from the previous one (a
    :class:`SnapshotTree`); ``content_memo`` is the sweep's digest memo
    (a fresh one when omitted).
    """
    tracers: list = []
    scope = default_tracing(collect=tracers) if trace_oracles \
        else nullcontext()
    stream = None
    with scope:
        platform = Platform(PlatformConfig.single_node())
        if lines:
            image = PMImage(record=True)
            stream = image.enable_line_recording()
            stream.tracer = platform.engine.tracer
            fs = make_fs(kind, platform, image=image)
        else:
            fs = make_fs(kind, platform, record=True)
    image = fs.image
    if fault_plan is not None:
        plan = fault_plan()
        if lines and plan.has_media_faults:
            raise ValueError(
                "line-granularity recording cannot model media faults "
                "(DMA payloads are journalled at submission); use the "
                "page-granularity sweep for media-fault plans")
        plan.install(platform, image=image)
    if mutant is not None:
        from repro.core.easyio import install_crash_mutant
        install_crash_mutant(fs, mutant)
    tree = SnapshotTree()
    if content_memo is None:
        content_memo = {}
    # oracle[i] = (start_idx, end_idx, snapshot after op i)
    oracle: List[Tuple[int, int, Snapshot]] = []

    def runner():
        start = len(image.mutations)
        sstart = stream.position() if stream is not None else 0
        gen = driver(fs, iterations)
        while True:
            try:
                marker = yield from _drive_until_marker(gen)
            except StopIteration:
                break
            if marker is None:
                break
            end = len(image.mutations)
            oracle.append((start, end,
                           snapshot_with_content(fs._mem, image,
                                                 content_memo, tree)))
            start = end
            if stream is not None:
                send = stream.position()
                stream.op_bounds.append((sstart, send))
                sstart = send

    def _drive_until_marker(gen):
        """Advance the workload generator to its next ("op",) marker."""
        while True:
            try:
                item = next(gen)
            except StopIteration:
                return None
            if isinstance(item, tuple) and item and item[0] == "op":
                return item
            # Any other yield is a simulation event: wait for it.
            yield item

    proc = platform.engine.process(runner())
    platform.engine.run()
    if proc.is_alive:
        raise RuntimeError(f"crash workload stalled (deadlock?) on {kind}")
    if not proc.ok:
        raise proc.value
    if trace_oracles:
        checker = TraceChecker()
        problems = [v for tr in tracers for v in checker.check(tr.events)]
        if problems:
            raise AssertionError(
                f"{kind}/{len(problems)} trace-invariant violation(s) "
                "during crash-test recording:\n"
                + "\n".join(f"  {v}" for v in problems))
    return image, oracle


def run_crash_test(kind: str, workload: str, crash_points: int = 1000,
                   fault_plan: Optional[Callable] = None,
                   trace_oracles: bool = False,
                   granularity: str = "page",
                   per_signature: Optional[int] = 3,
                   plan_budget: Optional[int] = None,
                   plan_seed: int = 0,
                   mutant: Optional[str] = None) -> CrashReport:
    """Inject crashes into one workload and check every recovery
    (the Table 2 experiment).

    ``granularity="page"`` is the classic CrashMonkey sweep: ``crash_
    points`` positions spread over the mutation journal, each replayed
    as a whole-mutation prefix.  ``granularity="line"`` replays the
    :class:`~repro.crash.plans.CrashPlanner`'s mechanism-pruned crash
    plans instead -- cache-line subsets of the in-flight stores at
    every fence epoch -- and additionally runs the mechanism oracles
    (torn journal records retired, no metadata-before-data mappings,
    no SN-amend resurrection) on every recovered state.

    With a ``fault_plan`` factory the recording run also suffers DMA
    faults, so the sweep covers crash points inside EasyIO's retry and
    failover windows (half-retried writes, amended-but-unlanded SNs);
    recovery must still land in a legal state at every point.
    ``trace_oracles`` additionally replays the recording run's trace
    through the invariant oracles (see :func:`_record_workload`).

    ``mutant`` plants a known persistence bug in the recording run
    (validation that the line sweep catches what the page sweep
    cannot); mutants need line recording even for page-granularity
    sweeps.  ``per_signature``/``plan_budget``/``plan_seed`` tune the
    line planner (see :class:`~repro.crash.plans.CrashPlanner`).
    """
    if granularity not in ("page", "line"):
        raise ValueError(f"unknown granularity {granularity!r}")
    desc, driver, iterations = CRASH_WORKLOADS[workload]
    lines = granularity == "line" or mutant is not None
    content_memo: dict = {}
    image, oracle = _record_workload(kind, driver, iterations, fault_plan,
                                     trace_oracles=trace_oracles,
                                     lines=lines, mutant=mutant,
                                     content_memo=content_memo)
    validator_needed = kind in ("easyio", "naive")
    if granularity == "line":
        return _line_sweep(kind, workload, image, oracle, validator_needed,
                           per_signature=per_signature, budget=plan_budget,
                           seed=plan_seed, content_memo=content_memo)
    total = image.crash_points()
    if total < 2:
        raise RuntimeError(f"workload {workload} produced no mutations")
    # Spread the requested crash points evenly over the mutation log.
    n = min(crash_points, total + 1)
    points = sorted({round(j * total / (n - 1)) for j in range(n)}) \
        if n > 1 else [total]

    report = CrashReport(workload=workload, kind=kind,
                         total_crash_points=len(points), passed=0)
    for k, img in _page_states(image, points):
        validator = (completion_buffer_validator(img)
                     if validator_needed else None)
        snap = snapshot_with_content(recover(img, validator).inodes, img,
                                     content_memo=content_memo)
        durable = sum(1 for (_s, e, _sn) in oracle if e <= k)
        started = sum(1 for (s, _e, _sn) in oracle if s <= k)
        fail = _check_state(snap, oracle, durable, started)
        if fail is None:
            report.passed += 1
        else:
            report.failures.append(CrashFailure(k, fail[0], fail[1]))
    return report


def _page_states(image: PMImage, points: Sequence[int]):
    """Yield ``(k, image.replay(k))`` for the sorted ``points``, moving
    one cursor image forward through the mutation journal instead of
    replaying each prefix from record 0.  Each state is a copy of the
    cursor: recovery mutates the image it is handed."""
    cursor = PMImage(record=False)
    at = 0
    for k in points:
        for rec in image.mutations[at:k]:
            cursor.apply(rec)
        at = k
        yield k, cursor.copy()


def _line_sweep(kind: str, workload: str, image, oracle, validator_needed,
                per_signature, budget, seed,
                content_memo: Optional[dict] = None) -> CrashReport:
    """Replay every pruned crash plan through :func:`check_plans`."""
    planner = CrashPlanner(image.linestream, per_signature=per_signature,
                           budget=budget, seed=seed)
    plans = planner.plans()
    failures = check_plans(image.linestream, plans, oracle, validator_needed,
                           content_memo)
    return CrashReport(workload=workload, kind=kind,
                       total_crash_points=len(plans),
                       passed=len(plans) - len(failures), failures=failures,
                       granularity="line", raw_states=planner.raw_states,
                       plan_classes=dict(planner.plan_classes))


def check_plans(stream, plans, oracle: Sequence[Tuple[int, int, Snapshot]],
                validator_needed: bool,
                content_memo: Optional[dict] = None) -> List[CrashFailure]:
    """Check every crash plan's recovered state; one failure per
    failing plan.

    Each plan is replayed from the line ``stream`` into an image and
    recovered from that image alone.  Then come the mechanism oracles
    and state legality against ``oracle`` over the plan's [lo, hi]
    op window.  ``validator_needed`` applies the completion-buffer SN
    rule (EasyIO-format images).  ``content_memo`` is the sweep's
    digest memo (see :func:`snapshot_with_content`).
    """
    failures: List[CrashFailure] = []
    if content_memo is None:
        content_memo = {}
    for plan in plans:
        img = replay_plan(stream, plan)
        validator = (completion_buffer_validator(img)
                     if validator_needed else None)
        try:
            inodes = recover(img, validator).inodes
        except TornLogEntryError as exc:
            failures.append(
                CrashFailure(plan.point, "torn-entry", str(exc), plan.cls))
            continue
        fail = _mechanism_checks(inodes, img, validator)
        if fail is None:
            snap = snapshot_with_content(inodes, img,
                                         content_memo=content_memo)
            fail = _check_state(snap, oracle, plan.lo, plan.hi)
        if fail is not None:
            failures.append(
                CrashFailure(plan.point, fail[0], fail[1], plan.cls))
    return failures
