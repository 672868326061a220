"""Shared fixtures and helpers for the test suite."""

import pytest

from repro.hw.platform import Platform, PlatformConfig
from repro.obs import TraceChecker, default_tracing
from repro.sim import Engine
from tests.data.capture_golden import counted, fig08, fig09


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def trace_oracles():
    """Opt-in trace checking: every engine the test creates is traced,
    and at teardown every trace is replayed through the full oracle set
    (ack-implies-durable, SN ordering, span causality, ...).

    List this fixture *before* any fixture that builds a Platform (or
    build platforms inside the test body) so their engines are created
    under the tracing scope.  Yields the list of live tracers, should
    the test want to inspect the stream itself.
    """
    tracers = []
    with default_tracing(collect=tracers):
        yield tracers
    checker = TraceChecker()
    problems = []
    for tr in tracers:
        problems.extend(checker.check(tr.events))
    assert not problems, (
        f"{len(problems)} trace-invariant violation(s):\n"
        + "\n".join(f"  {v}" for v in problems))


@pytest.fixture
def platform():
    """The paper testbed (2 sockets, 6 DIMMs, 16 channels)."""
    return Platform(PlatformConfig.paper_testbed())


@pytest.fixture
def node():
    """Single NUMA node (3 DIMMs, 8 channels) -- the §2.2 setup."""
    return Platform(PlatformConfig.single_node())


def run_proc(engine, gen, until=None):
    """Run a coroutine to completion; raise its error if it failed."""
    proc = engine.process(gen)
    engine.run(until=until)
    if proc.is_alive:
        raise RuntimeError("process did not finish")
    if not proc.ok:
        raise proc.value
    return proc.value


def assert_exact(actual, expected, label):
    """Same keys, and every value equal to its pinned one."""
    assert sorted(actual) == sorted(expected), f"{label}: key sets differ"
    for key in expected:
        assert actual[key] == expected[key], \
            f"{label}[{key}]: {actual[key]!r} != pinned {expected[key]!r}"


@pytest.fixture(scope="session")
def fig08_counted():
    """The serial fig08 golden capture with each point's work counts;
    one run shared by the golden and work-count gates."""
    return counted(fig08)


@pytest.fixture(scope="session")
def fig09_counted():
    """The serial fig09 golden sweep with each point's work counts;
    one run shared by the golden and work-count gates."""
    return counted(fig09)
