"""Build platforms and filesystems by name (the §6.1 configurations).

One name -> class table (:data:`FS_REGISTRY`) serves every caller:
benchmarks, examples, and the crash harness resolve filesystems
through :func:`fs_class` / :func:`make_fs` instead of importing the
variant classes directly.
"""

from __future__ import annotations

import inspect
from typing import Dict, Optional, Type

from repro.baselines.nova_dma import NovaDmaFS
from repro.baselines.odinfs import OdinfsFS
from repro.core.easyio import EasyIoFS, NaiveAsyncFS
from repro.fs.nova import NovaFS
from repro.fs.pmimage import PMImage
from repro.hw.params import CostModel
from repro.hw.platform import Platform, PlatformConfig

#: Evaluation name -> class (Figure 8-10 series).
FS_REGISTRY: Dict[str, Type[NovaFS]] = {
    "nova": NovaFS,
    "nova-dma": NovaDmaFS,
    "odinfs": OdinfsFS,
    "easyio": EasyIoFS,
    "naive": NaiveAsyncFS,
}

#: The filesystems of the evaluation, in presentation order.
FS_KINDS = tuple(FS_REGISTRY)

#: Display names matching the paper's legends.
FS_LABELS = {
    "nova": "NOVA",
    "nova-dma": "NOVA-DMA",
    "odinfs": "ODINFS",
    "easyio": "EasyIO",
    "naive": "Naive",
}


def fs_class(kind: str) -> Type[NovaFS]:
    """Resolve an evaluation name to its filesystem class."""
    try:
        return FS_REGISTRY[kind]
    except KeyError:
        raise ValueError(f"unknown filesystem kind {kind!r}; "
                         f"choose from {tuple(FS_REGISTRY)}") from None


def make_platform(single_node: bool = False,
                  model: Optional[CostModel] = None) -> Platform:
    """The paper testbed, or the single-NUMA-node §2.2 variant."""
    config = (PlatformConfig.single_node() if single_node
              else PlatformConfig.paper_testbed())
    return Platform(config, model=model)


def make_fs(kind: str, platform: Platform, record: bool = False,
            image: Optional[PMImage] = None, **kwargs):
    """Construct and mount the named filesystem on ``platform``.

    ``kwargs`` are forwarded to the class's constructor when its
    signature accepts them (e.g. ``delegation_cores`` for Odinfs,
    ``channel_manager``/``fault_tolerant`` for EasyIO); anything the
    constructor does not take raises TypeError.
    """
    cls = fs_class(kind)
    if image is None:
        image = PMImage(record=record)
    params = inspect.signature(cls.__init__).parameters
    ctor_kwargs = {name: kwargs.pop(name) for name in list(kwargs)
                   if name in params}
    if kwargs:
        raise TypeError(f"unused arguments for {kind}: {sorted(kwargs)}")
    return cls(platform, image, **ctor_kwargs).mount()


def max_workers(kind: str, platform: Platform) -> int:
    """How many worker cores the filesystem leaves available.

    Odinfs reserves 12 cores per NUMA node for delegation threads
    (§6.1), so only the remainder can run application workers.
    """
    total = platform.config.total_cores
    if kind == "odinfs":
        return max(1, total - 12 * platform.config.sockets)
    return total


def uses_uthread_runtime(kind: str) -> bool:
    """Whether the filesystem's clients run inside the Caladan runtime."""
    return kind in ("easyio", "naive")
