"""Vectorised data-plane kernel selection (DESIGN.md §15).

The simulator's numeric hot kernels -- line-stream replay, crash-plan
hashing, latency percentiles -- each ship in two implementations: the
pure-Python *reference* (always available, always the semantics) and a
numpy-backed *vector* kernel that must produce bit-identical outputs.
This module is the single switchboard deciding which one is bound:

* numpy importable **and** ``REPRO_VECTOR`` unset/enabled -> vector
  kernels are selected at import;
* numpy absent -> reference kernels, silently (the fallback is
  first-class: CI runs a no-numpy leg);
* ``REPRO_VECTOR=0`` -> reference kernels even with numpy installed
  (the kill switch; also the A/B lever the perf harness uses).

Consumer modules register a *rebind* callback via :func:`register`;
it is invoked immediately with the current mode and again whenever
:func:`set_enabled` flips it, so the parity tests and the perf harness
can toggle kernels at runtime without re-importing anything.  Rebind
callbacks must also invalidate any memo caches keyed on kernel output
identity (the outputs are equal by the parity invariant, but A/B
timing must not serve one mode's cached results to the other).

Exact equality is a hard requirement, not an aspiration: the golden
equivalence, traced-golden, and crash-sweep suites run byte-exact in
both modes, and ``tests/test_vector_parity.py`` fuzzes each kernel
pair directly.  See DESIGN.md §15 for the per-kernel equality
argument.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional

#: The kill switch.  Evaluated once at import; flip at runtime with
#: :func:`set_enabled` instead of mutating the environment.
_KILLED = os.environ.get("REPRO_VECTOR", "1").strip().lower() in (
    "0", "off", "false", "no")

try:
    import numpy as _np
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None
    HAVE_NUMPY = False

#: Whether vector kernels are currently bound.
ENABLED = HAVE_NUMPY and not _KILLED

_REBINDERS: List[Callable[[bool], None]] = []


def numpy():
    """The numpy module, or None when unavailable."""
    return _np


def register(rebind: Callable[[bool], None]) -> Callable[[bool], None]:
    """Register a kernel-selection callback and invoke it immediately.

    ``rebind(enabled)`` binds the module's kernel globals to the vector
    implementations when ``enabled`` is True, to the reference ones
    otherwise, and drops any caches holding kernel outputs.
    """
    _REBINDERS.append(rebind)
    rebind(ENABLED)
    return rebind


def set_enabled(flag: bool) -> bool:
    """Select vector (True) or reference (False) kernels process-wide.

    Requests to enable without numpy installed stay on the reference
    kernels.  Returns the mode actually in effect.
    """
    global ENABLED
    ENABLED = bool(flag) and HAVE_NUMPY
    for rebind in _REBINDERS:
        rebind(ENABLED)
    return ENABLED


class forced:
    """Context manager pinning the kernel mode (parity tests, A/B runs).

    >>> with forced(False):
    ...     ...  # reference kernels
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._prev: Optional[bool] = None

    def __enter__(self):
        self._prev = ENABLED
        set_enabled(self.enabled)
        return self

    def __exit__(self, *exc):
        set_enabled(self._prev)
        return False


def describe() -> dict:
    """Mode summary recorded by the perf harness / profiler."""
    return {
        "numpy": getattr(_np, "__version__", None),
        "enabled": ENABLED,
        "kill_switch": _KILLED,
    }
