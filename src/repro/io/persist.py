"""Page persistence: recording copied data as durable.

The persister is the pipeline stage between "bytes moved" and
"metadata may reference them".  The base :class:`PagePersister` simply
lands page contents in the PM image; :class:`VerifyingPagePersister`
adds EasyIO's media-fault detection (checksum read-back + bounded
rewrite), used on both the DMA completion path and the memcpy
degradation path.
"""

from __future__ import annotations

from repro.fs.pmimage import ELIDED


class PagePersister:
    """Record new page contents as durable (data landed).

    ``engine`` is only for tracing: the persister never schedules
    anything.
    """

    def __init__(self, image, engine):
        self.image = image
        self.engine = engine

    def _trace_persist(self, pids) -> None:
        tr = self.engine.tracer
        if tr is not None:
            tr.point("pages_persist", track="persist", pids=list(pids))

    def persist(self, pids, contents) -> None:
        image = self.image
        image.write_pages(pids, contents)
        # clwb+sfence over the store train (line-granularity crash
        # model; a no-op when the batch landed via DMA or the image is
        # not line-recording).
        image.pages_fence()
        self._trace_persist(pids)

    def on_complete(self, pids, contents):
        """A DMA ``on_complete`` callback persisting these pages."""
        def _persist(_desc):
            self.persist(pids, contents)
        return _persist


class VerifyingPagePersister(PagePersister):
    """Persist pages, detecting media faults via the checksum hook.

    A mismatching read-back is rewritten immediately; crash-sound
    because the completion buffer (or log amendment) that validates
    the data is only persisted after this returns -- a crash between
    garbage and rewrite leaves the entry invalid.
    """

    #: Give up on a page after this many checksum-verify rewrites.
    MEDIA_REWRITE_MAX = 8

    def __init__(self, image, engine, fault_stats, rewrite_max: int = None):
        super().__init__(image, engine)
        self.fault_stats = fault_stats
        self.rewrite_max = (rewrite_max if rewrite_max is not None
                            else self.MEDIA_REWRITE_MAX)

    def persist(self, pids, contents) -> None:
        image = self.image
        if image.fault_plan is None:
            # No media faults, so nothing to read back.
            super().persist(pids, contents)
            return
        for pid, content in zip(pids, contents):
            image.write_page(pid, content)
            if content is ELIDED:
                continue
            expected = image.checksum(content)
            rewrites = 0
            while not image.verify_page(pid, expected):
                self.fault_stats.media_faults_detected += 1
                rewrites += 1
                if rewrites > self.rewrite_max:
                    raise RuntimeError(
                        f"page {pid}: media faults persist after "
                        f"{rewrites - 1} rewrites")
                image.write_page(pid, content)
        image.pages_fence()
        self._trace_persist(pids)
