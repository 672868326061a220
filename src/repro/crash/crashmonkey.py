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
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.crash.linestream import replay_plan
from repro.crash.plans import CrashPlanner
from repro.fs.pmimage import PMImage, file_bytes
from repro.fs.recovery import (TornLogEntryError,
                               completion_buffer_validator, recover)
from repro.fs.structures import ROOT_INO, FileKind, MemInode, TornRecord
from repro.hw.platform import Platform, PlatformConfig
from repro.obs import TraceChecker, default_tracing
from repro.workloads.factory import make_fs
from repro.workloads.fxmark import settle

Snapshot = Dict[str, Tuple]


def _content_hash(image: PMImage, m) -> str:
    """Digest of a file's logical content (from its page index)."""
    hasher = hashlib.sha1()
    hasher.update(str(m.size).encode())
    hasher.update(file_bytes(image, m, 0, m.size))
    return hasher.hexdigest()


def snapshot_with_content(inodes: Dict[int, MemInode], image: PMImage,
                          digest_cache: Optional[dict] = None,
                          content_memo: Optional[dict] = None) -> Snapshot:
    """{path: ("dir"|"file", size, content-digest)} for the tree that
    the inode table ``inodes`` (a live filesystem's, or
    :func:`~repro.fs.recovery.recover`'s) spans over ``image``.

    Two optional memos save re-hashing unchanged files:

    * ``digest_cache`` is ``{ino: ((size, layout_epoch), digest)}``.
      Within one call a fresh cache always applies (hard links resolve
      to one inode, whose content cannot change mid-walk).  Passing a
      persistent dict across snapshots of the *same live fs* is sound
      when (a) inode numbers are never reused (``PMImage.next_ino`` is
      monotonic), and (b) every content change bumps the inode's
      ``layout_epoch`` (write commit, truncate, recovery rebuild) --
      the recording runner relies on this, but must not pass one when
      media faults are in play (they corrupt page bytes without
      touching the mapping).  Recovered inodes restart their epoch, so
      this memo cannot serve across crash states.  It stays for the
      recording runs' per-op snapshots, which revisit every file of a
      live tree: its check is O(1) per file, where a ``content_memo``
      key walks every mapped page (with that key alone, the recording
      snapshots take ~1.5x as long).
    * ``content_memo`` is ``{(size, pgoffs, page bytes): digest}``,
      shared across the crash states of one sweep (``pgoffs`` are the
      index's offsets, ``page bytes`` what each one maps to, in the
      same order).  A file's digest is a function of its size and of
      what each mapped offset reads, and the key holds exactly that:
      the page *bytes* (or ``None``/``ELIDED``), not the page id.
      Equal keys therefore hash equal content whatever image they came
      from -- sound by construction when CoW recycles a page id for
      new bytes and under media faults.  The bytes are the ones the
      stream or journal already holds, and a ``bytes`` object caches
      its hash, so a lookup costs one tuple hash over the file's
      mapped pages.  The per-call ``digest_cache`` still runs first,
      so hard links cost no key.
    """
    out: Snapshot = {}
    cache = {} if digest_cache is None else digest_cache
    pages = image.pages

    def digest(ino: int, m) -> str:
        key = (m.size, m.layout_epoch)
        hit = cache.get(ino)
        if hit is not None and hit[0] == key:
            return hit[1]
        if content_memo is None:
            value = _content_hash(image, m)
        else:
            index = m.index
            ckey = (m.size, tuple(index),
                    tuple([pages.get(pm.page_id) for pm in index.values()]))
            value = content_memo.get(ckey)
            if value is None:
                value = content_memo[ckey] = _content_hash(image, m)
        cache[ino] = (key, value)
        return value

    def walk(ino: int, prefix: str):
        m = inodes.get(ino)
        if m is None:
            return
        for name, child_ino in sorted(m.dentries.items()):
            child = inodes.get(child_ino)
            if child is None:
                continue
            path = f"{prefix}/{name}"
            if child.kind is FileKind.DIR:
                out[path] = ("dir", 0, None)
                walk(child_ino, path)
            else:
                out[path] = ("file", child.size, digest(child_ino, child))

    walk(ROOT_INO, "")
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
                     lines: bool = False, mutant: Optional[str] = None):
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
    media_faulty = False
    if fault_plan is not None:
        plan = fault_plan()
        if lines and plan.has_media_faults:
            raise ValueError(
                "line-granularity recording cannot model media faults "
                "(DMA payloads are journalled at submission); use the "
                "page-granularity sweep for media-fault plans")
        media_faulty = plan.has_media_faults
        plan.install(platform, image=image)
    if mutant is not None:
        from repro.core.easyio import install_crash_mutant
        install_crash_mutant(fs, mutant)
    # Per-op snapshots of a live, growing tree re-hash mostly unchanged
    # files; the epoch-keyed digest cache collapses those re-hashes.
    # Media faults rewrite page bytes behind the mapping's back, so
    # such plans fall back to per-snapshot caching (see
    # snapshot_with_content's soundness contract).
    digest_cache: Optional[dict] = None if media_faulty else {}
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
                                                 digest_cache)))
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
    image, oracle = _record_workload(kind, driver, iterations, fault_plan,
                                     trace_oracles=trace_oracles,
                                     lines=lines, mutant=mutant)
    validator_needed = kind in ("easyio", "naive")
    if granularity == "line":
        return _line_sweep(kind, workload, image, oracle, validator_needed,
                           per_signature=per_signature, budget=plan_budget,
                           seed=plan_seed)
    total = image.crash_points()
    if total < 2:
        raise RuntimeError(f"workload {workload} produced no mutations")
    # Spread the requested crash points evenly over the mutation log.
    n = min(crash_points, total + 1)
    points = sorted({round(j * total / (n - 1)) for j in range(n)}) \
        if n > 1 else [total]

    report = CrashReport(workload=workload, kind=kind,
                         total_crash_points=len(points), passed=0)
    content_memo: dict = {}
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
                per_signature, budget, seed) -> CrashReport:
    """Replay every pruned crash plan through :func:`check_plans`."""
    planner = CrashPlanner(image.linestream, per_signature=per_signature,
                           budget=budget, seed=seed)
    plans = planner.plans()
    failures = check_plans(image.linestream, plans, oracle, validator_needed)
    return CrashReport(workload=workload, kind=kind,
                       total_crash_points=len(plans),
                       passed=len(plans) - len(failures), failures=failures,
                       granularity="line", raw_states=planner.raw_states,
                       plan_classes=dict(planner.plan_classes))


def check_plans(stream, plans, oracle: Sequence[Tuple[int, int, Snapshot]],
                validator_needed: bool) -> List[CrashFailure]:
    """Check every crash plan's recovered state; one failure per
    failing plan.

    Each plan is replayed from the line ``stream`` into an image and
    recovered from that image alone.  Then come the mechanism oracles
    and state legality against ``oracle`` over the plan's [lo, hi]
    op window.  ``validator_needed`` applies the completion-buffer SN
    rule (EasyIO-format images).
    """
    failures: List[CrashFailure] = []
    content_memo: dict = {}
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
