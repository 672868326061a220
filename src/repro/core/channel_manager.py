"""The traffic-aware channel manager (§4.4).

Responsibilities, exactly as the paper assigns them:

* **Channel separation** -- latency-critical applications (L-apps)
  spread their DMA requests over up to four channels (the §2.2 sweet
  spot); all bandwidth-oriented applications (B-apps) share one
  channel, so their bulk traffic cannot head-of-line-block L-apps.
* **Bandwidth regulation (Listing 1)** -- every epoch the manager
  compares each L-app's observed latency against its SLO; a violation
  throttles the B-app bandwidth limit down by ``delta``, ample slack
  throttles it up.  The limit is enforced at sub-epoch granularity by
  suspending/resuming the B channel through CHANCMD (74 ns).
* **Bulk splitting** -- B-app I/Os are split into 64 KB descriptors so
  a suspension never wastes a large in-flight transfer.
* **Selective offloading** -- I/O at or below 4 KB goes through plain
  memcpy (the DMA engine loses there, and sub-µs completions leave no
  cycles to harvest).
* **Read admission control (Listing 2)** -- a read is offloaded only
  if it is larger than 4 KB and some L-channel has queue depth < 2;
  otherwise it is shunted to memcpy for aggregate read bandwidth.
* **Channel health (fault tolerance)** -- the manager tracks per-channel
  consecutive errors, handles CHANERR interrupts (detect -> reset ->
  quarantine), probes quarantined channels with a small descriptor and
  readmits them on success, and routes traffic around unhealthy
  channels.  When *no* healthy channel remains, selection returns None
  and the filesystem gracefully degrades to the memcpy path -- the
  system stays live at reduced CPU-efficiency instead of wedging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.metrics import FaultStats
from repro.hw.dma import DmaChannel, DmaDescriptor
from repro.hw.platform import Platform


@dataclass
class AppProfile:
    """One application's QoS contract and its observed behaviour.

    ``kind`` is ``"L"`` (latency-critical, optional ``slo_ns``) or
    ``"B"`` (bandwidth-oriented).  The workload reports request
    latencies via :meth:`observe`; the manager reads the EWMA.
    """

    name: str
    kind: str = "L"
    slo_ns: Optional[int] = None
    ewma_alpha: float = 0.2
    latency_ewma: float = field(default=0.0, init=False)
    samples: int = field(default=0, init=False)

    def __post_init__(self):
        if self.kind not in ("L", "B"):
            raise ValueError(f"app kind must be 'L' or 'B', got {self.kind!r}")

    def observe(self, latency_ns: int) -> None:
        """Feed one request latency into the EWMA."""
        if self.samples == 0:
            self.latency_ewma = float(latency_ns)
        else:
            a = self.ewma_alpha
            self.latency_ewma = a * latency_ns + (1 - a) * self.latency_ewma
        self.samples += 1

    @property
    def slo_slack(self) -> Optional[float]:
        """(target - latency) / target, the Listing-1 headroom metric."""
        if self.slo_ns is None or self.samples == 0:
            return None
        return (self.slo_ns - self.latency_ewma) / self.slo_ns


@dataclass
class ChannelHealth:
    """Per-channel health record the manager maintains."""

    consecutive_errors: int = 0
    total_errors: int = 0
    quarantined: bool = False


class ChannelManager:
    """Mediates between applications and DMA channels."""

    #: Listing 2's queue-depth admission bound.
    READ_QDEPTH_LIMIT = 2

    def __init__(self, platform: Platform,
                 l_channel_ids: Optional[List[int]] = None,
                 b_channel_id: Optional[int] = None,
                 offload_threshold: int = 4096,
                 split_bytes: int = 64 * 1024,
                 epoch_ns: int = 20_000,
                 subticks: int = 8,
                 delta: float = 0.25,
                 slack_threshold: float = 0.2,
                 b_limit: float = 2.0,
                 b_limit_min: float = 0.25,
                 b_limit_max: float = 12.0,
                 throttling: bool = False,
                 quarantine_threshold: int = 3,
                 probe_interval_ns: int = 50_000,
                 reset_delay_ns: int = 5_000):
        if split_bytes <= 0:
            raise ValueError(
                f"split_bytes must be positive, got {split_bytes}")
        if offload_threshold < 0:
            raise ValueError(
                f"offload_threshold must be >= 0, got {offload_threshold}")
        if epoch_ns <= 0:
            raise ValueError(f"epoch_ns must be positive, got {epoch_ns}")
        if quarantine_threshold < 1:
            raise ValueError(f"quarantine_threshold must be >= 1, "
                             f"got {quarantine_threshold}")
        if probe_interval_ns <= 0 or reset_delay_ns < 0:
            raise ValueError("probe_interval_ns must be positive and "
                             "reset_delay_ns non-negative")
        self.engine = platform.engine
        self.model = platform.model
        dma = platform.dma
        n = len(dma)
        if l_channel_ids is None:
            l_channel_ids = list(range(min(4, max(1, n - 1))))
        if b_channel_id is None:
            b_channel_id = n - 1
        if b_channel_id in l_channel_ids and n > 1:
            raise ValueError("B channel must be disjoint from L channels")
        self.l_channels: List[DmaChannel] = [dma.channel(i) for i in l_channel_ids]
        self.b_channel: DmaChannel = dma.channel(b_channel_id)
        self.offload_threshold = offload_threshold
        self.split_bytes = split_bytes
        self.epoch_ns = epoch_ns
        self.subticks = max(1, subticks)
        self.delta = delta
        self.slack_threshold = slack_threshold
        self.b_limit = b_limit              # GB/s == bytes/ns
        self.b_limit_min = b_limit_min
        self.b_limit_max = b_limit_max
        self.apps: List[AppProfile] = []
        self.throttle_events = 0            # suspensions issued
        self.limit_changes: List = []       # (t, new_limit) trace
        self._stopped = False
        self._throttling = throttling
        # -- fault tolerance -------------------------------------------
        self.quarantine_threshold = quarantine_threshold
        self.probe_interval_ns = probe_interval_ns
        self.reset_delay_ns = reset_delay_ns
        self.fault_stats = FaultStats()
        self._managed: List[DmaChannel] = list(self.l_channels)
        if self.b_channel not in self._managed:
            self._managed.append(self.b_channel)
        self._health: Dict[int, ChannelHealth] = {
            ch.channel_id: ChannelHealth() for ch in self._managed}
        for ch in self._managed:
            ch.on_halt = self._on_halt
        if throttling:
            self.engine.process(self._regulation_loop(), name="channel-manager")

    # ------------------------------------------------------------------
    # Registration / reporting
    # ------------------------------------------------------------------
    def register(self, app: AppProfile) -> AppProfile:
        self.apps.append(app)
        return app

    # ------------------------------------------------------------------
    # Channel health (fault tolerance)
    # ------------------------------------------------------------------
    def healthy(self, ch: DmaChannel) -> bool:
        """Is the channel usable for new traffic right now?"""
        if ch.halted:
            return False
        health = self._health.get(ch.channel_id)
        return health is None or not health.quarantined

    def note_error(self, ch: DmaChannel) -> None:
        """A descriptor on ``ch`` failed (soft transfer error).

        Crossing the consecutive-error threshold quarantines the
        channel and starts its probe/readmit loop.
        """
        self.fault_stats.transfer_errors += 1
        health = self._health.get(ch.channel_id)
        if health is None:
            return
        health.consecutive_errors += 1
        health.total_errors += 1
        if (health.consecutive_errors >= self.quarantine_threshold
                and not health.quarantined):
            self._quarantine(ch, health)

    def note_success(self, ch: DmaChannel) -> None:
        """A descriptor on ``ch`` completed: clear its error streak."""
        health = self._health.get(ch.channel_id)
        if health is not None:
            health.consecutive_errors = 0

    def _quarantine(self, ch: DmaChannel, health: ChannelHealth) -> None:
        health.quarantined = True
        self.fault_stats.quarantines += 1
        tr = self.engine.tracer
        if tr is not None:
            tr.point("cm_quarantine", track="cm", ch=ch.channel_id)
        self.engine.process(self._probe_loop(ch),
                            name=f"cm-probe-ch{ch.channel_id}")

    def _on_halt(self, ch: DmaChannel) -> None:
        """CHANERR interrupt: schedule detection + reset + quarantine."""
        self.fault_stats.channel_halts += 1
        health = self._health.get(ch.channel_id)
        if health is not None:
            health.consecutive_errors += 1
            health.total_errors += 1
        self.engine.process(self._recover_channel(ch),
                            name=f"cm-reset-ch{ch.channel_id}")

    def _recover_channel(self, ch: DmaChannel):
        """Software CHANERR handling: read the error, reset the ring.

        The stranded descriptors' done events fire with status
        "stranded"; their owning writes' supervisors resubmit them
        elsewhere.  The channel goes into quarantine until a probe
        succeeds.
        """
        if self.reset_delay_ns:
            yield self.engine.timeout(self.reset_delay_ns)
        if self._stopped or not ch.halted:
            return
        ch.reset()
        self.fault_stats.channel_resets += 1
        health = self._health.get(ch.channel_id)
        if health is not None and not health.quarantined:
            self._quarantine(ch, health)

    def _probe_loop(self, ch: DmaChannel):
        """Periodically probe a quarantined channel; readmit on success."""
        health = self._health[ch.channel_id]
        while not self._stopped:
            yield self.engine.timeout(self.probe_interval_ns)
            if self._stopped:
                return
            if ch.halted:
                continue  # reset still pending
            probe = DmaDescriptor(4096, write=True)
            if not ch.try_submit_one(probe):
                continue  # ring full; try again next interval
            yield probe.done
            if probe.status == "ok":
                health.quarantined = False
                health.consecutive_errors = 0
                self.fault_stats.readmissions += 1
                tr = self.engine.tracer
                if tr is not None:
                    tr.point("cm_readmit", track="cm", ch=ch.channel_id)
                return
            health.total_errors += 1

    # ------------------------------------------------------------------
    # Channel selection policies
    # ------------------------------------------------------------------
    def write_channel(self, app: Optional[AppProfile]) -> Optional[DmaChannel]:
        """Channel for a write: B-apps share one, L-apps spread over <=4.

        Only healthy channels are eligible; a B-app whose channel is
        out borrows a healthy L channel (and vice versa) rather than
        wedging.  Returns None when no healthy channel exists -- the
        caller degrades to memcpy.
        """
        healthy_l = [c for c in self.l_channels if self.healthy(c)]
        b_ok = self.healthy(self.b_channel)
        if app is not None and app.kind == "B":
            if b_ok:
                return self.b_channel
            return (min(healthy_l, key=lambda c: (c.queue_depth, c.channel_id))
                    if healthy_l else None)
        if healthy_l:
            return min(healthy_l, key=lambda c: (c.queue_depth, c.channel_id))
        return self.b_channel if b_ok else None

    def admit_read(self, nbytes: int,
                   app: Optional[AppProfile] = None) -> Optional[DmaChannel]:
        """Listing 2: offload a read only when it is worth it.

        Returns the channel to use, or None meaning "use memcpy".
        Unhealthy channels are never admitted (the memcpy path is the
        natural fallback for reads).
        """
        if nbytes <= self.offload_threshold:
            return None
        if app is not None and app.kind == "B":
            return self.b_channel if self.healthy(self.b_channel) else None
        for ch in self.l_channels:
            if self.healthy(ch) and ch.queue_depth < self.READ_QDEPTH_LIMIT:
                return ch
        return None

    def retry_channel(self, app: Optional[AppProfile],
                      failed: DmaChannel,
                      soft: bool) -> Optional[DmaChannel]:
        """Where to resubmit a failed descriptor.

        A soft transfer error retries on the same channel while it
        remains healthy; a halt/strand (or an unhealthy channel) fails
        over to the least-loaded healthy channel.  Returns None when no
        healthy channel exists (degrade to memcpy).
        """
        if soft and self.healthy(failed):
            return failed
        pool = [c for c in self._managed
                if c is not failed and self.healthy(c)]
        if pool:
            return min(pool, key=lambda c: (c.queue_depth, c.channel_id))
        return failed if self.healthy(failed) else None

    def should_offload_write(self, nbytes: int) -> bool:
        """Selective offloading: memcpy for small I/O."""
        return nbytes > self.offload_threshold

    def split(self, app: Optional[AppProfile], nbytes: int) -> List[int]:
        """Descriptor sizes for one transfer (B-apps split to 64 KB)."""
        if app is None or app.kind != "B" or nbytes <= self.split_bytes:
            return [nbytes]
        sizes = [self.split_bytes] * (nbytes // self.split_bytes)
        rem = nbytes % self.split_bytes
        if rem:
            sizes.append(rem)
        return sizes

    # ------------------------------------------------------------------
    # Bandwidth regulation (Listing 1 + CHANCMD enforcement)
    # ------------------------------------------------------------------
    def start_throttling(self) -> None:
        if not self._throttling:
            self._throttling = True
            self.engine.process(self._regulation_loop(), name="channel-manager")

    def _trace_limit(self) -> None:
        tr = self.engine.tracer
        if tr is not None:
            tr.point("cm_limit", track="cm", limit=self.b_limit)

    def stop(self) -> None:
        """Shut the regulation loop down (lets the engine drain)."""
        self._stopped = True
        if self.b_channel.suspended:
            self.b_channel.resume()

    def _regulation_loop(self):
        """Token-bucket enforcement + Listing 1's per-epoch adjustment.

        The bucket carries a *deficit*: a 64 KB chunk that overshoots a
        small budget keeps the channel suspended across epochs until the
        allowance catches up, so effective B-app bandwidth can be
        regulated well below one chunk per epoch.
        """
        tick = max(1, self.epoch_ns // self.subticks)
        allowance = 0.0
        last_bytes = self.b_channel.bytes_moved
        ticks = 0
        while not self._stopped:
            yield self.engine.timeout(tick)
            if self._stopped:
                return
            allowance += self.b_limit * tick
            burst = self.b_limit * self.epoch_ns
            if allowance > burst:
                allowance = burst
            moved = self.b_channel.bytes_moved - last_bytes
            last_bytes = self.b_channel.bytes_moved
            allowance -= moved
            if allowance < 0 and not self.b_channel.suspended:
                # CHANCMD suspend: 74 ns, paid by the manager.
                yield self.engine.timeout(self.model.dma_chancmd_cost)
                # Re-check after the in-flight CHANCMD: stop() may have
                # fired meanwhile, and suspending now would leave the B
                # channel suspended forever (nobody resumes it again).
                if self._stopped:
                    return
                self.b_channel.suspend()
                self.throttle_events += 1
            elif allowance >= 0 and self.b_channel.suspended:
                yield self.engine.timeout(self.model.dma_chancmd_cost)
                if self._stopped:
                    return
                self.b_channel.resume()
            ticks += 1
            if ticks % self.subticks:
                continue
            # Epoch boundary: Listing 1's throttling decision.
            slacks = [a.slo_slack for a in self.apps
                      if a.kind == "L" and a.slo_slack is not None]
            if not slacks:
                continue
            min_slack = min(slacks)
            if min_slack < 0:
                self.b_limit = max(self.b_limit_min,
                                   self.b_limit - self.delta)
                self.limit_changes.append((self.engine.now, self.b_limit))
                self._trace_limit()
            elif min_slack > self.slack_threshold:
                self.b_limit = min(self.b_limit_max,
                                   self.b_limit + self.delta)
                self.limit_changes.append((self.engine.now, self.b_limit))
                self._trace_limit()
