"""The I/O data paths: planning, copy backends, page persistence,
the per-variant pipelines, and fault supervision.

Each filesystem variant holds one planner and one write and one read
pipeline, built in its ``_build_pipelines``:

==========  =========================  ==================  ==================
variant     write pipeline             read pipeline       copy backend
==========  =========================  ==================  ==================
NOVA        SyncWritePipeline          SyncReadPipeline    MemcpyBackend
NOVA-DMA    SyncWritePipeline          SyncReadPipeline    DmaPollBackend
Odinfs      SyncWritePipeline          SyncReadPipeline    DelegationBackend
EasyIO      OrderlessWritePipeline     AsyncReadPipeline   DmaAsyncBackend
Naive       OrderedAsyncWritePipeline  AsyncReadPipeline   DmaAsyncBackend
==========  =========================  ==================  ==================

How the caller waits follows from the pair: NOVA-DMA's backend
busy-polls, Odinfs's parks and pays a kernel wakeup, and the EasyIO
and Naive pipelines return one pending event per descriptor batch
(:func:`~repro.io.pipeline.batched_pending`).  EasyIO and Naive fall
back to a :class:`MemcpyBackend` for small or degraded writes.
"""

from repro.io.backends import (
    DelegationBackend,
    DelegationRequest,
    DelegationThread,
    DmaAsyncBackend,
    DmaPollBackend,
    MemcpyBackend,
)
from repro.io.persist import PagePersister, VerifyingPagePersister
from repro.io.pipeline import (
    AsyncReadPipeline,
    OrderedAsyncWritePipeline,
    OrderlessWritePipeline,
    SyncReadPipeline,
    SyncWritePipeline,
    batched_pending,
)
from repro.io.plan import (
    CowPrep,
    Extent,
    IoPlan,
    IoPlanner,
    contiguous_runs,
    extent_runs,
    run_sizes,
)
from repro.io.supervision import DmaJob, FaultSupervisor

__all__ = [
    "AsyncReadPipeline",
    "CowPrep",
    "DelegationBackend",
    "DelegationRequest",
    "DelegationThread",
    "DmaAsyncBackend",
    "DmaJob",
    "DmaPollBackend",
    "Extent",
    "FaultSupervisor",
    "IoPlan",
    "IoPlanner",
    "MemcpyBackend",
    "OrderedAsyncWritePipeline",
    "OrderlessWritePipeline",
    "PagePersister",
    "SyncReadPipeline",
    "SyncWritePipeline",
    "VerifyingPagePersister",
    "batched_pending",
    "contiguous_runs",
    "extent_runs",
    "run_sizes",
]
