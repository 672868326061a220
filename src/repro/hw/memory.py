"""Bandwidth-shared slow-memory model.

The central abstraction is :class:`BandwidthPool`, an exact
processor-sharing model of one direction (read or write) of a memory
device.  Concurrent transfers share the device capacity max-min fairly,
subject to

* a per-flow rate cap (a CPU core or a DMA channel can only move bytes
  so fast),
* per-group caps (e.g. the DMA-read class cannot exceed ~42 % of the
  device read peak; the CPU-write class collapses when many cores
  store concurrently), and
* the device total.

Whenever the flow set changes the pool recomputes the allocation,
charges every active flow for the bytes it moved since the last
change, and moves its one wake-up to the earliest projected
completion.  This is exact (no chunking error) and costs O(flows)
work per change.

:class:`SlowMemory` wraps a read pool and a write pool for one device
(a set of Optane DIMMs) and exposes the transfer API the CPU-copy and
DMA models use.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.hw.params import CostModel
from repro.sim import Engine, Event

#: Group labels used by the stock capacity policies.
CPU_GROUP = "cpu"
DMA_GROUP = "dma"
#: Odinfs-style delegation threads: NUMA-local streaming stores that
#: avoid the many-writer collapse (the whole point of delegation).
DELEGATION_GROUP = "delegation"


class PoolFlow:
    """One in-flight transfer inside a :class:`BandwidthPool`."""

    __slots__ = ("nbytes", "remaining", "cap", "group", "event", "rate",
                 "shape_id")

    def __init__(self, nbytes: int, cap: float, group: str, event: Event,
                 shape_id: int):
        self.nbytes = nbytes
        self.remaining = float(nbytes)
        self.cap = cap
        self.group = group
        self.event = event
        self.rate = 0.0
        #: The pool's interned id of ``(group, cap)``.
        self.shape_id = shape_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PoolFlow {self.group} {self.remaining:.0f}B"
                f" @ {self.rate:.2f}B/ns>")


#: Memo-cache for :func:`_waterfill`.  The allocation is a pure
#: function of its arguments, and steady-state benchmark loops present
#: the same handful of (weights, caps, capacity) shapes thousands of
#: times -- rebalances are ~25% of sweep runtime without this.  Cached
#: rate lists are shared and must never be mutated by callers.
#: Bounded FIFO-evicting (oldest shape out first): long multi-campaign
#: processes cycling through many shapes stay capped at
#: ``_WATERFILL_CACHE_MAX`` entries instead of thrashing on a
#: clear-everything overflow.  A hit returns exactly what a miss would
#: compute, so the memo never needs clearing between runs.
_WATERFILL_CACHE: dict = {}
_WATERFILL_CACHE_MAX = 4096


def _waterfill(demands: List[float], caps: List[float], capacity: float) -> List[float]:
    """Max-min fair allocation of ``capacity`` across entities.

    ``demands`` are fair-share weights (use 1.0 for unweighted),
    ``caps`` are per-entity rate caps.  Returns the allocated rates
    (a cached list -- treat as read-only).
    """
    key = (tuple(demands), tuple(caps), capacity)
    cached = _WATERFILL_CACHE.get(key)
    if cached is not None:
        return cached
    rates = _waterfill_compute(demands, caps, capacity)
    if len(_WATERFILL_CACHE) >= _WATERFILL_CACHE_MAX:
        # Evict the oldest entry (dict preserves insertion order); the
        # steady-state shapes re-enter at the tail and stay resident.
        _WATERFILL_CACHE.pop(next(iter(_WATERFILL_CACHE)))
    _WATERFILL_CACHE[key] = rates
    return rates


def _waterfill_compute(demands: List[float], caps: List[float],
                       capacity: float) -> List[float]:
    """The uncached max-min fill behind :func:`_waterfill`."""
    n = len(caps)
    rates = [0.0] * n
    active = list(range(n))
    remaining = capacity
    # Each iteration freezes at least one entity at its cap, so the
    # loop runs at most n times.
    while active and remaining > 1e-12:
        total_weight = sum(demands[i] for i in active)
        if total_weight <= 0:
            break
        unit = remaining / total_weight
        frozen = [i for i in active if caps[i] - rates[i] <= unit * demands[i] + 1e-12]
        if not frozen:
            for i in active:
                rates[i] += unit * demands[i]
            remaining = 0.0
            break
        for i in frozen:
            remaining -= caps[i] - rates[i]
            rates[i] = caps[i]
            active.remove(i)
    return rates


def _memo_put(cache: dict, key, value) -> None:
    """Store one pool memo entry, dropping the memo once it is full."""
    if len(cache) >= _WATERFILL_CACHE_MAX:
        cache.clear()
    cache[key] = value


class BandwidthPool:
    """Exact processor-sharing bandwidth pool with hierarchical caps.

    Parameters
    ----------
    engine:
        The simulation engine.
    name:
        For diagnostics ("pm0.write").
    capacity:
        Device total for this direction, bytes/ns.
    group_cap_fn:
        Optional callable ``(group_counts: Dict[str, int]) -> Dict[str, float]``
        returning the cap for each group given how many flows of each
        group are active.  Groups absent from the result are uncapped.
    """

    def __init__(self, engine: Engine, name: str, capacity: float,
                 group_cap_fn: Optional[Callable[[Dict[str, int]], Dict[str, float]]] = None):
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self.group_cap_fn = group_cap_fn
        self._flows: List[PoolFlow] = []
        self._last_update: int = 0
        #: The one completion wake-up, re-armed on every re-solve (None
        #: until the first, or after a wake-up had to be cancelled in
        #: the batch being fired).
        self._wakeup: Optional[Event] = None
        #: The instant ``_wakeup`` is queued at; None while it is not.
        self._wakeup_at: Optional[int] = None
        #: Memoised ``(capacity, shape ids in flow order)`` -> rate list
        #: (see _allocate_rates).
        self._alloc_cache: dict = {}
        #: The order-free memo behind it, for flow sets where every
        #: group's flows share one cap: ``(capacity, sorted shape ids)``
        #: -> ``{shape id: rate}``.
        self._uniform_cache: dict = {}
        #: Interned flow shapes ``(group, cap)`` -> small int ids, so a
        #: memo key is a tuple of ints.  Ids are never reused
        #: (``_next_shape_id`` only grows), so dropping the table can
        #: cost cache misses but never aliases two shapes.
        self._shape_ids: dict = {}
        self._next_shape_id = 0
        # Lifetime statistics.
        self.bytes_moved: int = 0
        self.transfers_completed: int = 0
        #: Rate allocations computed afresh (memo misses).
        self.rate_solves: int = 0
        #: Wake-up timers allocated rather than re-armed.
        self.timers_allocated: int = 0

    # -- public API ----------------------------------------------------
    @property
    def active_flows(self) -> int:
        """Number of in-flight transfers."""
        return len(self._flows)

    def set_capacity(self, capacity: float) -> None:
        """Change the device capacity mid-run (fault injection).

        Charges every in-flight transfer for progress at the old rates,
        then reallocates under the new capacity -- exact, like every
        other flow-set change.
        """
        if capacity <= 0:
            raise ValueError(f"pool capacity must be positive, got {capacity}")
        self._advance()
        self.capacity = capacity
        self._rebalance()

    def transfer(self, nbytes: int, cap: float,
                 group: str = CPU_GROUP) -> Event:
        """Start a transfer; the returned event fires when it finishes.

        ``cap`` is the initiator's own rate limit (per-core or
        per-channel) and ``group`` selects the capacity class.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        event = self.engine.event()
        if nbytes == 0:
            event.succeed(0)
            return event
        self._advance()
        self._flows.append(PoolFlow(nbytes, cap, group, event,
                                    self._shape_id(group, cap)))
        self._rebalance()
        return event

    # -- internals -------------------------------------------------------
    def _shape_id(self, group: str, cap: float) -> int:
        """The interned id of one flow shape."""
        shape = (group, cap)
        ids = self._shape_ids
        sid = ids.get(shape)
        if sid is None:
            if len(ids) >= _WATERFILL_CACHE_MAX:
                ids.clear()
            sid = ids[shape] = self._next_shape_id
            self._next_shape_id += 1
        return sid

    def _advance(self) -> None:
        """Charge all flows for progress since the last state change."""
        now = self.engine.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                flow.remaining -= flow.rate * elapsed
        self._last_update = now

    def _rebalance(self) -> None:
        """Retire finished flows, reassign rates, and move the wake-up
        to the earliest projected completion."""
        engine = self.engine
        # Withdraw the queued wake-up here, where a cancellation counts,
        # so the engine's stats and compactions match cancelling it.
        # Inside its own callback it has already fired.
        wakeup = self._wakeup
        if self._wakeup_at is not None:
            if not engine.withdraw(wakeup, self._wakeup_at):
                # Cancelled in the batch being fired: replace it.
                wakeup = self._wakeup = None
            self._wakeup_at = None
        flows = self._flows
        # Retire flows whose remaining bytes are (numerically) gone.
        finished = [f for f in flows if f.remaining <= 1e-6]
        if finished:
            flows = self._flows = [f for f in flows if f.remaining > 1e-6]
            for flow in finished:
                self.bytes_moved += flow.nbytes
                self.transfers_completed += 1
                flow.event.succeed(flow.nbytes)
        if not flows:
            return
        horizon = math.inf
        for flow, rate in zip(flows, self._allocate_rates(flows)):
            flow.rate = rate
            if rate > 0:
                until_done = flow.remaining / rate
                if until_done < horizon:
                    horizon = until_done
        if horizon == math.inf:
            raise RuntimeError(
                f"bandwidth pool {self.name!r} stalled: zero aggregate rate "
                f"with {len(flows)} active flows")
        delay = max(1, math.ceil(horizon))
        if wakeup is None:
            self._wakeup = engine.timeout(delay)
            self._wakeup.add_callback(self._on_timer)
            self.timers_allocated += 1
        else:
            engine.rearm(wakeup, delay, self._on_timer)
        self._wakeup_at = engine.now + delay

    def _on_timer(self, event: Event) -> None:
        self._wakeup_at = None
        self._advance()
        self._rebalance()

    def _allocate_rates(self, flows: List[PoolFlow]) -> List[float]:
        """Hierarchical max-min rates, one per flow in ``flows`` order:
        groups first (weighted by flow count), then flows within each
        group.

        The allocation is a pure function of the pool capacity and
        each flow's shape ``(group, cap)`` in order -- and benchmark
        steady state cycles through a handful of shapes, so results
        are memoised per pool under the flows' interned shape ids.
        When every group's flows share one cap, the rates do not depend
        on flow order (see :meth:`_solve_rates`), so on a miss an
        order-free memo answers any order of a shape multiset seen
        before.  The returned list may be the cached one: never mutate
        it.
        """
        ids = tuple([f.shape_id for f in flows])
        key = (self.capacity, ids)
        rates = self._alloc_cache.get(key)
        if rates is not None:
            return rates
        # One shape per group means one cap per group.
        if len(set(ids)) == len({f.group for f in flows}):
            ukey = (self.capacity, tuple(sorted(ids)))
            by_shape = self._uniform_cache.get(ukey)
            if by_shape is None:
                rates = self._solve_rates(flows)
                _memo_put(self._uniform_cache, ukey, dict(zip(ids, rates)))
            else:
                rates = [by_shape[i] for i in ids]
        else:
            rates = self._solve_rates(flows)
        _memo_put(self._alloc_cache, key, rates)
        return rates

    def _solve_rates(self, flows: List[PoolFlow]) -> List[float]:
        """The unmemoised allocation behind :meth:`_allocate_rates`.

        With one cap per group, flow order cannot change a rate: group
        names are sorted, a group's cap sums equal values, and its
        equal-cap water-fill gives every member the same float.
        """
        self.rate_solves += 1
        members: Dict[str, List[int]] = {}
        for i, flow in enumerate(flows):
            members.setdefault(flow.group, []).append(i)
        counts = {g: len(ix) for g, ix in members.items()}
        caps = self.group_cap_fn(counts) if self.group_cap_fn else {}
        names = sorted(members)
        flow_caps = [f.cap for f in flows]
        group_caps = [min(caps.get(g, math.inf),
                          sum(flow_caps[i] for i in members[g]))
                      for g in names]
        weights = [float(counts[g]) for g in names]
        group_rates = _waterfill(weights, group_caps, self.capacity)
        rates = [0.0] * len(flows)
        for gname, grate in zip(names, group_rates):
            ix = members[gname]
            shares = _waterfill([1.0] * len(ix), [flow_caps[i] for i in ix],
                                grate)
            for i, rate in zip(ix, shares):
                rates[i] = rate
        return rates


class SlowMemory:
    """One slow-memory device: a set of Optane DIMMs behind shared pools.

    Exposes the two operations the rest of the system uses:

    * :meth:`cpu_copy` -- a CPU core (or a delegation thread) moving
      bytes synchronously (blocks the calling process for the whole
      transfer, which is exactly the CPU cost the paper wants to
      eliminate), and
    * :meth:`dma_transfer` -- raw pool access for the DMA engine.
    """

    def __init__(self, engine: Engine, model: CostModel, dimms: int,
                 name: str = "pm"):
        self.engine = engine
        self.model = model
        self.dimms = dimms
        self.read_pool = BandwidthPool(
            engine, f"{name}.read", model.pm_read_peak(dimms),
            group_cap_fn=self._read_group_caps)
        self.write_pool = BandwidthPool(
            engine, f"{name}.write", model.pm_write_peak(dimms),
            group_cap_fn=self._write_group_caps)
        # Healthy-device capacities; set_degradation() scales from these.
        self._base_read_capacity = self.read_pool.capacity
        self._base_write_capacity = self.write_pool.capacity
        self.degradation = (1.0, 1.0)

    def set_degradation(self, read_factor: float, write_factor: float) -> None:
        """Scale device bandwidth (fault injection: thermal throttling,
        media retries).  Factors are fractions of the healthy capacity;
        (1.0, 1.0) restores full speed."""
        for f in (read_factor, write_factor):
            if not 0.0 < f <= 1.0:
                raise ValueError(f"degradation factor must be in (0, 1], got {f}")
        self.degradation = (read_factor, write_factor)
        self.read_pool.set_capacity(self._base_read_capacity * read_factor)
        self.write_pool.set_capacity(self._base_write_capacity * write_factor)

    # -- capacity policies (the calibrated asymmetries live here) ------
    def _read_group_caps(self, counts: Dict[str, int]) -> Dict[str, float]:
        return {DMA_GROUP: self.model.dma_read_ceiling(self.dimms)}

    def _write_group_caps(self, counts: Dict[str, int]) -> Dict[str, float]:
        return {
            CPU_GROUP: self.model.cpu_write_capacity(
                self.dimms, counts.get(CPU_GROUP, 0)),
            # A channel serves one descriptor at a time, so its pool
            # flows never overlap: the DMA flow count is the number of
            # distinct channels writing.
            DMA_GROUP: self.model.dma_write_ceiling(
                self.dimms, counts.get(DMA_GROUP, 0)),
        }

    # -- transfer API ----------------------------------------------------
    def cpu_copy(self, nbytes: int, write: bool, group: str = CPU_GROUP):
        """Process generator: a CPU core copies ``nbytes`` synchronously.

        The caller (a simulated core/thread) is blocked -- i.e. burning
        CPU -- for the full duration: fixed call overhead, the device
        access latency, then the bandwidth-shared transfer.  A
        delegation thread (Odinfs-style) passes ``DELEGATION_GROUP``:
        same CPU burn, but its sequential NUMA-local streaming access
        sidesteps the many-writer collapse -- the property Odinfs's
        delegation design exploits.
        """
        model = self.model
        yield self.engine.sleep(model.cpu_copy_op_overhead)
        if write:
            yield self.engine.sleep(model.pm_write_latency)
            yield self.write_pool.transfer(
                nbytes, model.cpu_copy_write_rate, group)
        else:
            yield self.engine.sleep(model.pm_read_latency)
            yield self.read_pool.transfer(
                nbytes, model.cpu_copy_read_rate, group)
        return nbytes

    def dma_transfer(self, nbytes: int, write: bool,
                     channel_rate: float) -> Event:
        """Start one DMA channel's transfer; returns its completion
        event.  A channel has at most one in flight."""
        pool = self.write_pool if write else self.read_pool
        return pool.transfer(nbytes, channel_rate, DMA_GROUP)
