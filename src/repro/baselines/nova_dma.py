"""NOVA-DMA: synchronous DMA offload (the Fastmove [69] stand-in).

The paper could not run Fastmove directly, so it evaluates NOVA-DMA:
NOVA with the memcpys in the read/write paths replaced by DMA-offloaded
copies.  Crucially the interface stays *synchronous* -- the CPU core
busy-polls the completion buffer until the copy lands, so no cycles are
harvested; the only benefits are the engine's copy throughput and the
write-efficiency of a single channel.

NOVA-DMA spreads requests across **all** channels (the paper calls
this out as the reason its write throughput collapses under high
concurrency -- the §2.2 multi-channel penalty bites).

Its data path is the same strictly ordered Sync{Write,Read}Pipeline
as NOVA, with the copy backend swapped for
:class:`~repro.io.backends.DmaPollBackend` (busy-poll completion).
"""

from __future__ import annotations

from repro.fs.nova import NovaFS


class NovaDmaFS(NovaFS):
    """NOVA with synchronous DMA-offloaded data movement."""

    name = "NOVA-DMA"

    #: Below this size the DMA engine loses to memcpy, so like Fastmove
    #: we keep small copies on the CPU.
    OFFLOAD_THRESHOLD = 4096

    def _build_pipelines(self):
        from repro.io import (
            DmaPollBackend,
            PagePersister,
            SyncReadPipeline,
            SyncWritePipeline,
        )
        backend = DmaPollBackend(self, PagePersister(self.image, self.engine))
        self.write_pipeline = SyncWritePipeline(self, backend)
        self.read_pipeline = SyncReadPipeline(self, backend)
