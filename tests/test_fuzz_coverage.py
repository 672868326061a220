"""Coverage-map unit tests (ISSUE 10 satellite): identical seeded runs
produce identical signatures, and adding a fault window strictly grows
the trace-vocabulary signature -- the canary for silent breakage in
the coverage-extraction hooks the whole guided search leans on.
"""

from repro.fuzz import (CoverageMap, FaultSpec, ScenarioTuple,
                        WorkloadSpec, make_op, run_scenario,
                        schedule_from_seed, seed_corpus)
from repro.obs.coverage import (bucket, counter_buckets, trace_vocabulary,
                                track_class)


def _plain():
    return ScenarioTuple(workload=schedule_from_seed(17, n_ops=6))


# -- extractor units ---------------------------------------------------

def test_track_class_strips_indices():
    assert track_class("ch3") == "ch"
    assert track_class("node12") == "node"
    assert track_class("fs") == "fs"
    assert track_class("42") == "42"  # all-digit stays itself


def test_bucket_is_log2():
    assert [bucket(v) for v in (0, 1, 2, 3, 4, 7, 8, 1000)] \
        == [0, 1, 2, 2, 3, 3, 4, 10]


def test_counter_buckets_skip_zero_and_non_numeric():
    keys = counter_buckets("x", {"a": 0, "b": 3, "c": "n/a", "d": 1})
    assert keys == {"ctr:x:b:2", "ctr:x:d:1"}


# -- end-to-end signature determinism ----------------------------------

def test_identical_seeded_runs_identical_signatures():
    t = _plain()
    r1, r2 = run_scenario(t), run_scenario(t)
    assert r1.coverage == r2.coverage
    assert r1.signature() == r2.signature()
    assert r1.outcomes == r2.outcomes


def test_extra_fault_window_strictly_grows_vocabulary():
    """A run that additionally halts a channel must reach trace events
    (dma fault/recovery vocabulary) the clean run cannot."""
    ops = (make_op("write", 0, 0, 8192, 3),
           make_op("write", 0, 8192, 8192, 4))
    clean = run_scenario(ScenarioTuple(workload=WorkloadSpec(ops=ops)))
    faulty = run_scenario(ScenarioTuple(
        workload=WorkloadSpec(ops=ops),
        fault=FaultSpec(halts=((0, 1),))))
    clean_vocab = {k for k in clean.coverage if k.startswith("ev:")}
    faulty_vocab = {k for k in faulty.coverage if k.startswith("ev:")}
    assert faulty_vocab > clean_vocab, \
        "fault injection did not grow the trace vocabulary"


def test_ack_gap_near_miss_emitted():
    r = run_scenario(_plain())
    assert any(k.startswith("near:ackgap:") for k in r.coverage), \
        "no ack-to-durable near-miss signal on a write workload"


def test_vocabulary_channel_agnostic():
    """A fault on ch0 and the same fault on ch5 are one coverage
    class: vocabulary keys use the track *class*, not the index."""
    from repro.obs.trace import POINT, TraceEvent
    a = TraceEvent(t=10, ph=POINT, name="dma_fault", track="ch0",
                   op=None, args={})
    b = TraceEvent(t=99, ph=POINT, name="dma_fault", track="ch5",
                   op=None, args={})
    assert trace_vocabulary([a]) == trace_vocabulary([b]) \
        == {"ev:ch:i:dma_fault"}


# -- CoverageMap -------------------------------------------------------

def test_coverage_map_novelty_and_observe():
    m = CoverageMap()
    assert m.novelty(["a", "b"]) == 2
    assert m.observe(["a", "b"]) == 2
    assert m.observe(["a", "c"]) == 1
    assert m.hits == {"a": 2, "b": 1, "c": 1}
    assert len(m) == 3


def test_fresh_maps_see_the_same_novelty():
    """Hits live on the map, not the class: a run fully masked in one
    campaign's map is fully novel again in a fresh one."""
    keys = run_scenario(seed_corpus()[0]).coverage
    m = CoverageMap()
    first_novel = m.observe(keys)
    assert first_novel > 0
    assert m.observe(keys) == 0  # fully masked within one campaign
    assert CoverageMap().observe(keys) == first_novel
