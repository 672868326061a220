"""Testbed assembly: cores + slow memory + DMA engine.

:class:`Platform` is the simulated stand-in for the paper's server
(2x Xeon Gold 6240M, 36 physical cores, 6 Optane DCPMMs, 8 I/OAT
channels per CPU).  The default configuration matches the paper's §6.1
testbed; Figures 2-4 use :meth:`PlatformConfig.single_node`, matching
their one-NUMA-node / 3-DIMM setup.

The slow-memory space is modelled as one unified device (the paper's
main evaluation also spans both NUMA sides as a single PM space).
NUMA placement effects enter the model through the calibrated
bandwidth curves rather than through explicit topology, which is
sufficient for every reproduced figure -- none of them isolates
cross-socket placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.hw.cpu import Core
from repro.hw.dma import DmaEngine
from repro.hw.memory import SlowMemory
from repro.hw.params import DEFAULT_COST_MODEL, CostModel
from repro.sim import Engine


@dataclass(frozen=True)
class PlatformConfig:
    """Shape of the simulated machine."""

    sockets: int = 2
    cores_per_socket: int = 18
    dimms_per_socket: int = 3
    dma_channels_per_socket: int = 8

    @classmethod
    def paper_testbed(cls) -> "PlatformConfig":
        """The §6.1 evaluation machine (36 cores, 6 DIMMs, 16 channels)."""
        return cls()

    @classmethod
    def single_node(cls) -> "PlatformConfig":
        """One NUMA node with 3 DCPMMs (the §2.2 empirical-study setup)."""
        return cls(sockets=1, cores_per_socket=18, dimms_per_socket=3,
                   dma_channels_per_socket=8)

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def total_dimms(self) -> int:
        return self.sockets * self.dimms_per_socket

    @property
    def total_dma_channels(self) -> int:
        return self.sockets * self.dma_channels_per_socket


class Platform:
    """One simulated machine: engine, cores, slow memory, DMA engine."""

    def __init__(self, config: Optional[PlatformConfig] = None,
                 model: Optional[CostModel] = None,
                 engine: Optional[Engine] = None):
        self.config = config or PlatformConfig.paper_testbed()
        self.model = model or DEFAULT_COST_MODEL
        self.engine = engine or Engine()
        self.memory = SlowMemory(self.engine, self.model,
                                 dimms=self.config.total_dimms)
        self.dma = DmaEngine(self.engine, self.model, self.memory,
                             num_channels=self.config.total_dma_channels,
                             sockets=self.config.sockets)
        self.cores: List[Core] = [
            Core(self.engine, core_id=i, socket=i // self.config.cores_per_socket)
            for i in range(self.config.total_cores)
        ]

    @property
    def now(self) -> int:
        """Current simulated time (ns)."""
        return self.engine.now

    def run(self, until: Optional[int] = None) -> None:
        """Advance the simulation (see :meth:`repro.sim.Engine.run`)."""
        self.engine.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self.config
        return (f"<Platform {c.sockets}x{c.cores_per_socket} cores, "
                f"{c.total_dimms} DIMMs, {c.total_dma_channels} DMA channels>")
