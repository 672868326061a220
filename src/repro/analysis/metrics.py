"""Latency, throughput, time-series, and fault-tolerance accounting."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: When a percentile query finds at most this many samples recorded
#: since the last sorted view, they are insorted incrementally; a
#: larger backlog re-sorts from scratch (cheaper past this point).
_INSORT_TAIL_MAX = 64


@dataclass(slots=True)
class FaultStats:
    """Counters for the fault-tolerance paths (availability reporting).

    One instance is shared by the channel manager and the filesystem's
    supervisors, so a benchmark reads a single coherent picture of what
    the fault plan cost: how many descriptors failed, how many retries/
    failovers fixed them, how much work fell back to the memcpy path,
    and how many media faults the checksum hook caught.
    """

    transfer_errors: int = 0        # failed descriptors observed
    channel_halts: int = 0          # CHANERR interrupts taken
    channel_resets: int = 0         # reset() recoveries issued
    quarantines: int = 0            # channels pulled from rotation
    readmissions: int = 0           # probe successes returning a channel
    retries: int = 0                # descriptor resubmissions
    failovers: int = 0              # resubmissions landing on a new channel
    degraded_writes: int = 0        # writes that fell back to memcpy
    degraded_reads: int = 0         # reads that fell back to memcpy
    degraded_bytes: int = 0         # bytes moved on the fallback path
    media_faults_detected: int = 0  # checksum mismatches caught & rewritten

    @staticmethod
    def availability(completed_ops: int, failed_ops: int = 0) -> float:
        """Fraction of operations that completed (1.0 = no data loss)."""
        total = completed_ops + failed_ops
        return completed_ops / total if total else 1.0


@dataclass(slots=True)
class OverloadStats:
    """Counters for the overload-robustness paths.

    One instance is shared by the admission controller, the scheduler's
    syscall dispatch, the filesystem's deadline checks, and the
    watchdog, so a benchmark reads one coherent picture of how an
    overload episode was absorbed: what was admitted, what was turned
    away (and under which policy), and what missed its deadline anyway.
    """

    admitted: int = 0             # syscalls let through the gate
    rejected: int = 0             # turned away (policy "reject")
    shed: int = 0                 # low-priority ops dropped under load
    degraded_to_sync: int = 0     # forced onto the memcpy path
    timeouts: int = 0             # WaitTimeout raised by timed waits
    cancelled: int = 0            # in-flight work cut short by a deadline
    deadline_misses: int = 0      # ops that raised DeadlineExceeded
    watchdog_trips: int = 0       # uthreads flagged as hung


class LatencySeries:
    """A collection of latency samples (ns) with percentile queries."""

    __slots__ = ("samples", "_sorted")

    def __init__(self):
        self.samples: List[int] = []
        # Sorted view, maintained lazily: a query after a few appends
        # insorts just the new tail; a query after many appends (or
        # the first ever) sorts from scratch.  Interleaved
        # record()/percentile() loops therefore cost O(tail * log n)
        # per query instead of O(n log n).
        self._sorted: Optional[List[int]] = None

    def record(self, ns: int) -> None:
        self.samples.append(ns)

    def _sorted_samples(self) -> List[int]:
        # The sorted view covers a prefix of `samples` (appends -- via
        # record() or directly on the public list -- only grow the
        # tail); its length tells how much is missing.
        data = self._sorted
        n = len(self.samples)
        if data is not None:
            delta = n - len(data)
            if delta == 0:
                return data
            if 0 < delta <= _INSORT_TAIL_MAX:
                for x in self.samples[n - delta:]:
                    bisect.insort(data, x)
                return data
        self._sorted = sorted(self.samples)
        return self._sorted

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        """Average latency in ns (0.0 when empty)."""
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """The p-th percentile (0 < p <= 100), linear interpolation."""
        if not self.samples:
            return 0.0
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        data = self._sorted_samples()
        k = (len(data) - 1) * (p / 100.0)
        lo = math.floor(k)
        hi = math.ceil(k)
        if lo == hi:
            return float(data[lo])
        a, b = data[lo], data[hi]
        return a + (b - a) * (k - lo)

    def p50(self) -> float:
        return self.percentile(50)

    def p99(self) -> float:
        return self.percentile(99)

    def maximum(self) -> float:
        return float(max(self.samples)) if self.samples else 0.0

    def mean_us(self) -> float:
        return self.mean() / 1000.0

    def p99_us(self) -> float:
        return self.p99() / 1000.0


class ThroughputMeter:
    """Counts operations (and bytes) inside a measurement window."""

    def __init__(self, window_start: int, window_end: int):
        if window_end <= window_start:
            raise ValueError("empty measurement window")
        self.window_start = window_start
        self.window_end = window_end
        self.ops = 0
        self.bytes = 0

    def record(self, now: int, nbytes: int = 0) -> bool:
        """Count an op completing at ``now`` if it falls in the window."""
        if self.window_start <= now < self.window_end:
            self.ops += 1
            self.bytes += nbytes
            return True
        return False

    @property
    def window_ns(self) -> int:
        return self.window_end - self.window_start

    def ops_per_sec(self) -> float:
        return self.ops * 1e9 / self.window_ns

    def bandwidth_gbps(self) -> float:
        """GB/s moved during the window."""
        return self.bytes / self.window_ns


class Timeline:
    """(time, value) samples for latency-over-time figures (4 and 12)."""

    def __init__(self):
        self.points: List[Tuple[int, float]] = []

    def record(self, t: int, value: float) -> None:
        self.points.append((t, value))

    def __len__(self) -> int:
        return len(self.points)

    def max_value(self, t_lo: Optional[int] = None,
                  t_hi: Optional[int] = None) -> float:
        vals = [v for t, v in self.points
                if (t_lo is None or t >= t_lo) and (t_hi is None or t < t_hi)]
        return max(vals) if vals else 0.0

    def mean_value(self, t_lo: Optional[int] = None,
                   t_hi: Optional[int] = None) -> float:
        vals = [v for t, v in self.points
                if (t_lo is None or t >= t_lo) and (t_hi is None or t < t_hi)]
        return sum(vals) / len(vals) if vals else 0.0

    def bucketed(self, bucket_ns: int) -> List[Tuple[int, float]]:
        """Max value per time bucket (what the paper's figures plot)."""
        buckets = {}
        for t, v in self.points:
            b = t // bucket_ns
            buckets[b] = max(buckets.get(b, 0.0), v)
        return [(b * bucket_ns, v) for b, v in sorted(buckets.items())]
