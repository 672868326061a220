"""NOVA-like persistent-memory filesystem substrate.

The filesystem family reproduced here follows NOVA [74]: per-inode
metadata logs, copy-on-write data pages, an atomic log-tail commit as
the durability point, and a lightweight journal for multi-inode
operations.  All persistent state lives in a :class:`~repro.fs.pmimage.PMImage`,
whose mutation journal gives the CrashMonkey harness exact
persist-order crash points.

Concrete filesystems:

* :class:`repro.fs.nova.NovaFS` -- the synchronous baseline (CPU memcpy).
* :class:`repro.baselines.nova_dma.NovaDmaFS` -- synchronous DMA offload.
* :class:`repro.baselines.odinfs.OdinfsFS` -- delegation-based data movement.
* :class:`repro.core.easyio.EasyIoFS` -- the paper's contribution.
"""

from repro.fs.pmimage import PMImage, MutationRecord, file_bytes
from repro.fs.structures import (
    DentryEntry,
    Inode,
    SetAttrEntry,
    WriteEntry,
    FileKind,
)
from repro.fs.alloc import PageAllocator
from repro.fs.nova import DeadlineExceeded, FsError, NovaFS, OpResult
from repro.fs.recovery import recover

__all__ = [
    "DeadlineExceeded",
    "DentryEntry",
    "FileKind",
    "FsError",
    "Inode",
    "MutationRecord",
    "NovaFS",
    "OpResult",
    "PMImage",
    "PageAllocator",
    "SetAttrEntry",
    "WriteEntry",
    "file_bytes",
    "recover",
]
