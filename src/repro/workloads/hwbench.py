"""Raw hardware microbenchmarks (the §2.2 empirical study, Figs 2-4).

These drivers talk to the platform's memory and DMA engine directly --
no filesystem -- reproducing the test tool the authors built: "issue
read (write) requests from (to) Optane DCPMMs through the DMA engine or
CPU-involved memcpy by tuning the number of CPU cores, I/O sizes, batch
size, and DMA channels", on one NUMA node with 3 DCPMMs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.metrics import Timeline
from repro.hw.dma import DmaDescriptor
from repro.hw.platform import Platform, PlatformConfig

US = 1000


@dataclass
class BandwidthPoint:
    """One measured configuration."""

    mode: str          # "memcpy" | "dma"
    write: bool
    cores: int
    io_size: int
    batch: int         # descriptors per submission (1 = no batch)
    channels: int
    bandwidth_gbps: float


def measure_copy_bandwidth(mode: str, write: bool, cores: int, io_size: int,
                           batch: int = 1, channels: int = 1,
                           duration_us: int = 800,
                           platform: Optional[Platform] = None) -> BandwidthPoint:
    """Aggregate copy bandwidth for one (mode, cores, size, batch,
    channels) configuration on the single-node platform."""
    if mode not in ("memcpy", "dma"):
        raise ValueError(f"mode must be 'memcpy' or 'dma', got {mode!r}")
    platform = platform or Platform(PlatformConfig.single_node())
    engine = platform.engine
    t_end = engine.now + duration_us * US
    moved = [0]

    if mode == "memcpy":
        def worker(idx: int):
            while engine.now < t_end:
                yield from platform.memory.cpu_copy(io_size, write=write)
                moved[0] += io_size
        for c in range(cores):
            engine.process(worker(c), name=f"copy{c}")
    else:
        def worker(idx: int):
            channel = platform.dma.channel(idx % channels)
            while engine.now < t_end:
                descs = [DmaDescriptor(io_size, write=write)
                         for _ in range(batch)]
                yield from channel.submit(descs)
                for desc in descs:
                    yield desc.done
                moved[0] += io_size * batch
        for c in range(cores):
            engine.process(worker(c), name=f"dma{c}")

    t0 = engine.now
    engine.run(until=t_end)
    engine.run()  # let in-flight ops finish so the engine drains
    elapsed = max(engine.now - t0, 1)
    return BandwidthPoint(mode=mode, write=write, cores=cores,
                          io_size=io_size, batch=batch, channels=channels,
                          bandwidth_gbps=moved[0] / elapsed)


@dataclass
class InterferenceResult:
    """Figure 4: foreground 64 KB-read latency under background bulk."""

    bg_mode: str                 # "memcpy" | "dma-ex" | "dma-sh"
    timeline: Timeline           # (t, fg latency us)
    gc_windows: List[Tuple[int, int]]

    def fg_max_us(self, during_gc: bool) -> float:
        vals = [v for t, v in self.timeline.points
                if any(s <= t < e for s, e in self.gc_windows) == during_gc]
        return max(vals) if vals else 0.0

    def fg_mean_us(self, during_gc: bool) -> float:
        vals = [v for t, v in self.timeline.points
                if any(s <= t < e for s, e in self.gc_windows) == during_gc]
        return sum(vals) / len(vals) if vals else 0.0


def measure_interference(bg_mode: str, duration_us: int = 12_000,
                         fg_io: int = 64 * 1024,
                         bg_bulk: int = 2 * 1024 * 1024) -> InterferenceResult:
    """Reproduce Figure 4: a foreground reader vs periodic bulk movement.

    The foreground issues 64 KB DMA reads back to back on channel 0 and
    logs each latency.  The background periodically moves 2 MB (a GC):
    via memcpy, via DMA on its own channel (``dma-ex``), or sharing the
    foreground's channel (``dma-sh`` -- head-of-line blocking).
    """
    if bg_mode not in ("memcpy", "dma-ex", "dma-sh"):
        raise ValueError(f"unknown background mode {bg_mode!r}")
    platform = Platform(PlatformConfig.single_node())
    engine = platform.engine
    t_start = engine.now
    t_end = t_start + duration_us * US
    q = duration_us * US // 8
    gc_windows = [(t_start + 1 * q, t_start + 3 * q),
                  (t_start + 5 * q, t_start + 7 * q)]
    timeline = Timeline()
    fg_channel = platform.dma.channel(0)
    bg_channel = fg_channel if bg_mode == "dma-sh" else platform.dma.channel(1)

    def foreground():
        while engine.now < t_end:
            t0 = engine.now
            desc = DmaDescriptor(fg_io, write=False)
            yield from fg_channel.submit([desc])
            yield desc.done
            timeline.record(engine.now, (engine.now - t0) / 1000.0)

    def background():
        chunk = 512 * 1024   # the GC pipelines its bulk in large pieces
        while engine.now < t_end:
            if not any(s <= engine.now < e for s, e in gc_windows):
                yield engine.sleep(20 * US)
                continue
            if bg_mode == "memcpy":
                for _ in range(bg_bulk // chunk):
                    yield from platform.memory.cpu_copy(chunk, write=False)
                    yield from platform.memory.cpu_copy(chunk, write=True)
            else:
                # One read + one write descriptor pair per chunk,
                # submitted together so both directions stay in flight.
                descs = []
                for _ in range(bg_bulk // chunk):
                    descs.append(DmaDescriptor(chunk, write=False))
                    descs.append(DmaDescriptor(chunk, write=True))
                for i in range(0, len(descs), 8):
                    yield from bg_channel.submit(descs[i:i + 8])
                for desc in descs:
                    yield desc.done

    engine.process(foreground(), name="fg")
    engine.process(background(), name="bg")
    engine.run(until=t_end)
    engine.run()
    return InterferenceResult(bg_mode=bg_mode, timeline=timeline,
                              gc_windows=gc_windows)
