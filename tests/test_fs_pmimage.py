"""Tests for the persistent-memory image and its mutation journal."""

import pytest

from repro.faults.plan import MEDIA, FaultPlan
from repro.fs.pmimage import ELIDED, MutationRecord, PMImage
from repro.fs.structures import FileKind, Inode, WriteEntry


class TestMutations:
    def test_recording_off_by_default(self):
        img = PMImage()
        img.write_page(1, b"x")
        assert img.mutations == []

    def test_recording_captures_persist_order(self):
        img = PMImage(record=True)
        img.write_page(1, b"x")
        img.append_log(5, "entry")
        img.commit_log_tail(5, 1)
        assert [m.op for m in img.mutations] == [
            "write_page", "append_log", "commit_log_tail"]

    def test_page_free_does_not_erase_content(self):
        """PM does not zero freed pages; recovery may fall back to them."""
        img = PMImage(record=True)
        img.write_page(3, b"old")
        img.drop_page(3)
        assert img.pages[3] == b"old"

    def test_committed_log_respects_tail(self):
        img = PMImage()
        img.append_log(1, "a")
        img.append_log(1, "b")
        img.commit_log_tail(1, 1)
        assert img.committed_log(1) == ["a"]

    def test_alloc_counters_monotonic(self):
        img = PMImage(record=True)
        assert img.alloc_ino() == 1
        assert img.alloc_ino() == 2
        ids = img.alloc_page_ids(3)
        assert ids == [0, 1, 2]
        assert img.alloc_page_ids(1) == [3]


class TestWritePages:
    """``write_pages`` must be indistinguishable from a ``write_page``
    loop, whatever is attached to the image."""

    PIDS = [7, 3, 9, 3, 12, 0, 5]

    def _contents(self, elide):
        out = [bytes([i + 1]) * (64 * (i + 1)) for i in range(len(self.PIDS))]
        if elide:
            out[5] = ELIDED
        return out

    def _both(self, make, before=None, elide=True):
        """(looped image, bulk image), built by ``make`` and given the
        same ``before(img)`` preparation."""
        looped, bulk = make(), make()
        for img in (looped, bulk):
            if before is not None:
                before(img)
        for pid, data in zip(self.PIDS, self._contents(elide)):
            looped.write_page(pid, data)
        bulk.write_pages(self.PIDS, self._contents(elide))
        return looped, bulk

    def test_pages_on_a_plain_image(self):
        looped, bulk = self._both(PMImage)
        assert list(bulk.pages.items()) == list(looped.pages.items())

    def test_mutation_journal(self):
        looped, bulk = self._both(lambda: PMImage(record=True))
        assert bulk.mutations == looped.mutations
        assert len(bulk.mutations) == len(self.PIDS)

    def test_line_stream_records(self):
        def announce(img):
            # One page already in flight via DMA: its landing must be
            # deduplicated against the announcement in both images.
            img.enable_line_recording().announce_dma_pages(
                0, 1, [9], [self._contents(elide=False)[2]])
        # Crash workloads write real payloads, so the line stream is
        # exercised without the ELIDED marker.
        looped, bulk = self._both(lambda: PMImage(record=True), announce,
                                  elide=False)
        for img in (looped, bulk):
            img.pages_fence()

        def records(img):
            return [(type(r).__name__, r.seq, getattr(r, "mech", None),
                     getattr(r, "rec", None), getattr(r, "nlines", None),
                     getattr(r, "dep", None), getattr(r, "label", None))
                    for r in img.linestream.records]
        assert records(bulk) == records(looped)
        assert bulk.mutations == looped.mutations

    @pytest.mark.parametrize("record", [False, True])
    def test_media_fault_corruption_order(self, record):
        def arm(img):
            img.fault_plan = FaultPlan(seed=11, p_media=0.5)
        looped, bulk = self._both(lambda: PMImage(record=record), arm)
        assert bulk.fault_plan.injected[MEDIA] > 0
        assert bulk.fault_plan.trace == looped.fault_plan.trace
        assert list(bulk.pages.items()) == list(looped.pages.items())
        assert bulk.mutations == looped.mutations


class TestReplay:
    def test_replay_requires_recording(self):
        with pytest.raises(RuntimeError):
            PMImage().replay(0)

    def test_full_replay_reproduces_state(self):
        img = PMImage(record=True)
        img.put_inode(1, Inode(1, FileKind.FILE, 1, 0))
        img.write_page(0, b"data")
        entry = WriteEntry(0, (0,), 4096, 10)
        img.append_log(1, entry)
        img.commit_log_tail(1, 1)
        img.update_completion_buffer(2, 7)
        replayed = img.replay(img.crash_points())
        assert replayed.pages == img.pages
        assert replayed.inodes == img.inodes
        assert replayed.logs == img.logs
        assert replayed.log_tails == img.log_tails
        assert replayed.completion_buffers == img.completion_buffers

    def test_prefix_replay_stops_at_crash_point(self):
        img = PMImage(record=True)
        img.write_page(0, b"a")
        img.write_page(1, b"b")
        half = img.replay(1)
        assert 0 in half.pages and 1 not in half.pages

    def test_replay_preserves_alloc_high_water_marks(self):
        img = PMImage(record=True)
        img.alloc_ino()
        img.alloc_page_ids(5)
        replayed = img.replay(img.crash_points())
        assert replayed.alloc_ino() == 2
        assert replayed.alloc_page_ids(1) == [5]

    def test_journal_begin_end_replay(self):
        img = PMImage(record=True)
        img.journal_begin("txn")
        mid = img.replay(img.crash_points())
        assert mid.journal == ["txn"]
        img.journal_end()
        done = img.replay(img.crash_points())
        assert done.journal == []

    def test_unknown_mutation_rejected(self):
        img = PMImage()
        with pytest.raises(ValueError):
            img.apply(MutationRecord("nonsense", ()))

    def test_amend_without_its_entry_is_skipped(self):
        """A line-model crash plan can land an SN amend but drop the
        append of the entry it rewrites: the amend rewrites nothing."""
        amend = MutationRecord("amend_log_sns", (1, 1, ((0, 7),)))
        img = PMImage()
        img.apply(amend)
        assert img.logs == {}
        img.apply(MutationRecord("append_log", (1, WriteEntry(
            pgoff=0, page_ids=(3,), size_after=4096, mtime=1, sns=()))))
        img.apply(amend)
        assert [e.sns for e in img.logs[1]] == [()]
        img.apply(MutationRecord("amend_log_sns", (1, 0, ((0, 7),))))
        assert [e.sns for e in img.logs[1]] == [((0, 7),)]

    def test_append_log_not_valid_until_tail_commit(self):
        """NOVA's two-step append+commit: the appended entry is not part
        of the committed log until the tail moves."""
        img = PMImage(record=True)
        img.append_log(1, "e")
        crashed = img.replay(img.crash_points())
        assert crashed.committed_log(1) == []
        img.commit_log_tail(1, 1)
        crashed = img.replay(img.crash_points())
        assert crashed.committed_log(1) == ["e"]
