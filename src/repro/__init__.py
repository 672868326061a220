"""EasyIO reproduction: asynchronous I/O for slow-memory filesystems.

A faithful, simulation-based reproduction of *"Exploring the Asynchrony
of Slow Memory Filesystem with EasyIO"* (EuroSys 2024): the EasyIO
filesystem (orderless file operation, two-level locking, traffic-aware
channel manager) together with every substrate it needs -- a
deterministic discrete-event simulator, an Optane-like slow-memory
model, an I/OAT-style on-chip DMA engine, a NOVA-like persistent-memory
filesystem, a Caladan-like uthread runtime -- plus the paper's baselines
(NOVA, NOVA-DMA, Odinfs), workloads (FxMark, eight applications,
CrashMonkey) and a benchmark per evaluation figure/table.

Quick start::

    from repro import EasyIoFS, Platform
    from repro.runtime import Runtime, Syscall

    platform = Platform()
    fs = EasyIoFS(platform).mount()
    runtime = Runtime(platform, cores=platform.cores[:2])

    def task():
        ino = yield Syscall(lambda ctx: fs.create(ctx, "/hello"))
        yield Syscall(lambda ctx: fs.write(ctx, ino, 0, 65536))

    runtime.spawn(task())
    platform.run()

See README.md for the architecture tour and DESIGN.md / EXPERIMENTS.md
for the reproduction methodology and results.
"""

from repro.baselines import NovaDmaFS, OdinfsFS
from repro.core import AppProfile, ChannelManager, EasyIoFS, NaiveAsyncFS
from repro.fs import (DeadlineExceeded, FsError, NovaFS, OpResult, PMImage,
                      recover)
from repro.hw import CostModel, Platform, PlatformConfig
from repro.obs import TraceChecker, Tracer, default_tracing
from repro.runtime import Compute, Runtime, Sleep, Syscall, Yield
from repro.workloads.factory import (FS_KINDS, FS_LABELS, fs_class, make_fs,
                                     make_platform)

__version__ = "1.0.0"

__all__ = [
    "AppProfile",
    "ChannelManager",
    "Compute",
    "CostModel",
    "DeadlineExceeded",
    "EasyIoFS",
    "FS_KINDS",
    "FS_LABELS",
    "FsError",
    "NaiveAsyncFS",
    "NovaDmaFS",
    "NovaFS",
    "OdinfsFS",
    "OpResult",
    "PMImage",
    "Platform",
    "PlatformConfig",
    "Runtime",
    "Sleep",
    "Syscall",
    "TraceChecker",
    "Tracer",
    "Yield",
    "default_tracing",
    "fs_class",
    "make_fs",
    "make_platform",
    "recover",
]
