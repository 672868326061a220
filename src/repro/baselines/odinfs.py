"""Odinfs [76]: NUMA-aware delegation of data movement.

Odinfs reserves physical cores to run background *delegation threads*;
an application thread hands each data-movement request to them (split
into chunks, spread across threads) and waits.  Large I/Os are thus
parallelised across cores -- lower latency for bulk transfers -- at
the price of permanently burning the reserved cores.

The paper's configuration (§6.1): 12 reserved cores per NUMA node, so
at most 12 worker threads remain usable in a 16-core experiment; its
throughput curves flatten once workers run out (Figure 9/10).

The application thread *sleeps* while delegation threads copy -- that
looks similar to EasyIO's offload, but the interface is synchronous:
the thread cannot run other work, so the saved cycles only help
whole-machine utilisation, not the application's own throughput.

Its data path is the strictly ordered Sync{Write,Read} pipelines over
:class:`~repro.io.backends.DelegationBackend`, whose callers park and
pay a kernel wakeup.  The backend owns the delegation threads, so it
is built at construction time (the threads' processes must exist
before the simulation starts).
"""

from __future__ import annotations

from typing import List, Optional

from repro.fs.nova import NovaFS
from repro.fs.pmimage import PMImage
from repro.hw.cpu import Core
from repro.hw.platform import Platform


class OdinfsFS(NovaFS):
    """NOVA-format filesystem with Odinfs-style delegated data movement."""

    name = "Odinfs"

    def __init__(self, platform: Platform, image: Optional[PMImage] = None,
                 delegation_cores: Optional[List[Core]] = None):
        if delegation_cores is None:
            # Paper default: 12 reserved cores per NUMA node, taken from
            # the top of the core range so workers use the bottom.
            reserve = 12 * platform.config.sockets
            delegation_cores = platform.cores[-reserve:]
        if not delegation_cores:
            raise ValueError("Odinfs needs at least one delegation core")
        self.delegation_cores = delegation_cores
        super().__init__(platform, image)

    @property
    def reserved_cores(self) -> int:
        return len(self.delegation_cores)

    @property
    def requests_delegated(self) -> int:
        return self._backend.requests_delegated

    def _build_pipelines(self):
        from repro.io import (
            DelegationBackend,
            PagePersister,
            SyncReadPipeline,
            SyncWritePipeline,
        )
        self._backend = DelegationBackend(
            self.engine, self.model, self.memory, self.delegation_cores,
            PagePersister(self.image, self.engine))
        self.write_pipeline = SyncWritePipeline(self, self._backend)
        self.read_pipeline = SyncReadPipeline(self, self._backend)
