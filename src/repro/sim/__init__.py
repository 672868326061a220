"""Deterministic discrete-event simulation kernel.

This package provides the substrate every simulated component in the
reproduction runs on: a nanosecond-resolution event loop that owns its
one schedule (:mod:`engine`), generator-coroutine processes, and
simulated-time synchronisation primitives (:mod:`sync`).

The design is intentionally SimPy-like but self-contained (no external
dependency) and fully deterministic: events scheduled for the same
timestamp fire in schedule order, so a given seed always produces an
identical trace.
"""

from repro.sim.engine import (
    Engine,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    WaitTimeout,
)
from repro.sim.sync import Channel, Gate, RWLock, Store

__all__ = [
    "Channel",
    "Engine",
    "Event",
    "Gate",
    "Interrupt",
    "Process",
    "RWLock",
    "SimulationError",
    "Store",
    "Timeout",
    "WaitTimeout",
]
