"""Property tests: mutators preserve validity, the shrinker is
deterministic and monotone (ISSUE 10 satellite).

The mutator property is the load-bearing one: every mutated
``FaultPlan``/``NetFaultPlan`` must still pass its *own* validators
(probability bounds, disjoint windows, ``max_faults`` budget) --
:meth:`ScenarioTuple.validate` builds the real plans, so hammering
``apply_mutation`` and validating is a direct test of the fuzzer's
"validity by construction" claim.
"""

import random
from dataclasses import replace

import pytest

from repro.fs.structures import PAGE_SIZE
from repro.fuzz import (FAULT_TOLERANT_KINDS, ScenarioTuple, WorkloadSpec,
                        apply_mutation, make_op, mutator_names,
                        run_scenario, schedule_from_seed, seed_corpus,
                        shrink)
from repro.fuzz.tuples import (MAX_GAP_NS, MAX_IO, MAX_OPS, FaultSpec,
                               N_CHANNELS, NetSpec, RuntimeSpec)


def test_mutation_chains_stay_valid():
    """Long random mutation chains never escape the validators."""
    rng = random.Random(1234)
    for start in seed_corpus():
        t = start
        for _ in range(60):
            _name, t = apply_mutation(rng, t)
            t.validate()  # raises on any invariant break
            plan = t.fault.build()
            if plan is not None:
                # The live plan re-ran FaultPlan's validators on
                # construction (probabilities, 1-based SNs, no
                # conflicting (channel, sn) entries, window bounds).
                assert plan.max_faults >= 0
            t.net.build()


def test_mutation_visits_every_dimension():
    """The registry covers all five tuple dimensions (a mutator
    rename/removal that silently narrows the search space fails
    here)."""
    names = mutator_names()
    for prefix in ("wl-", "fault-", "net-", "rt-", "crash-", "kind-"):
        assert any(n.startswith(prefix) for n in names), \
            f"no mutator for dimension {prefix}"


def test_mutation_is_seed_deterministic():
    t = seed_corpus()[0]
    def chain(seed):
        rng = random.Random(seed)
        cur = t
        out = []
        for _ in range(20):
            name, cur = apply_mutation(rng, cur)
            out.append((name, cur.key()))
        return out
    assert chain(7) == chain(7)
    assert chain(7) != chain(8)  # and the seed actually matters


def test_descriptor_faults_imply_tolerant_kind():
    """Mutators may add descriptor faults to any tuple, but the result
    must always land on a supervised kind."""
    rng = random.Random(99)
    t = ScenarioTuple(kind="nova",
                      workload=schedule_from_seed(5, n_ops=4))
    for _ in range(80):
        _name, t = apply_mutation(rng, t)
        if t.fault.descriptor_faulty:
            assert t.kind in FAULT_TOLERANT_KINDS


def test_invalid_tuple_rejected_by_validators():
    """The plan validators the mutators rely on actually reject bad
    input (guards against validation becoming a no-op)."""
    with pytest.raises(ValueError):
        ScenarioTuple(fault=FaultSpec(p_chan_halt=1.5)).validate()
    with pytest.raises(ValueError):
        ScenarioTuple(fault=FaultSpec(halts=((N_CHANNELS + 3, 1),))
                      ).validate()
    with pytest.raises(ValueError):
        ScenarioTuple(kind="nova",
                      fault=FaultSpec(p_chan_halt=0.1)).validate()


@pytest.mark.parametrize("spec, match", [
    (WorkloadSpec(nfiles=0), "nfiles"),
    (WorkloadSpec(ops=(make_op("write", 0, 0, 1),) * (MAX_OPS + 1)),
     "exceeds"),
    (WorkloadSpec(ops=(("write", 0, 0, 1),)), "malformed"),
    (WorkloadSpec(ops=(make_op("fsync"),)), "unknown op kind"),
    (WorkloadSpec(ops=(make_op("write", 1, 0, 1),)), "targets file"),
    (WorkloadSpec(ops=(make_op("write", 0, -1, 1),)), "negative"),
    (WorkloadSpec(ops=(make_op("write", 0, 0, 1, 0, MAX_GAP_NS + 1),)),
     "out of range"),
    (WorkloadSpec(ops=(make_op("read", 0, 0, MAX_IO + 1),)), "nbytes"),
    (NetSpec(n_nodes=6), "n_nodes"),
    (NetSpec(writes_per_client=0), "at least one"),
    (NetSpec(deadline_us=0), "deadline_us"),
    (NetSpec(partitions=((0, 10, (3,)),)), "partition group"),
    (NetSpec(partitions=((0, 10, (0, 1, 2)),)), "covers every node"),
    (NetSpec(crashes=((3, 0, 10),)), "crash node"),
    (NetSpec(crashes=((0, 0, 0),)), "down_ns"),
    (RuntimeSpec(policy="drop"), "policy"),
    (RuntimeSpec(rate_ops_per_sec=0.0), "rate_ops_per_sec"),
    (RuntimeSpec(burst=0), "burst"),
    (RuntimeSpec(max_inflight=0), "max_inflight"),
    (RuntimeSpec(deadline_us=0), "deadline_us"),
])
def test_spec_validate_rejects(spec, match):
    """Each check a tuple loaded from a corpus file passes through
    rejects its own bad field, with its own message."""
    with pytest.raises(ValueError, match=match):
        spec.validate()


# -- shrinker ----------------------------------------------------------

def _torn_tuple():
    """A deliberately padded tuple whose mutant failure survives
    shrinking (cheap: three appends, crash sweep on)."""
    return ScenarioTuple(workload=WorkloadSpec(ops=(
        make_op("append", 0, 0, 300, 1, 1_000),
        make_op("read", 0, 0, 100, 0, 0),
        make_op("append", 0, 0, 700, 3, 20_000))))


def _mutant_pred(t):
    return run_scenario(t, mutant="skip_append_fence").failing


def test_shrink_deterministic_by_seed():
    t = _torn_tuple()
    a, evals_a = shrink(t, _mutant_pred, seed=3, max_evals=80)
    b, evals_b = shrink(t, _mutant_pred, seed=3, max_evals=80)
    assert a == b and evals_a == evals_b


def test_shrink_monotonically_non_increasing():
    t = _torn_tuple()
    sizes = []
    # Track every accepted intermediate through the predicate.
    def pred(x):
        ok = _mutant_pred(x)
        if ok:
            sizes.append(x.size())
        return ok
    mini, _ = shrink(t, pred, seed=0, max_evals=80)
    assert mini.size() <= t.size()
    # Every accepted candidate (predicate-true) that the shrinker kept
    # is <= the input size; the final result is the smallest seen.
    assert mini.size() == min(sizes)
    assert pred(mini)  # still failing after reduction


def test_shrink_keeps_failure_reproducing():
    mini, _ = shrink(_torn_tuple(), _mutant_pred, seed=0, max_evals=80)
    assert run_scenario(mini, mutant="skip_append_fence").failing
    assert not run_scenario(mini).failing


def test_shrink_passthrough_on_passing_tuple():
    """Nothing to shrink: a passing tuple comes back unchanged."""
    t = ScenarioTuple(workload=WorkloadSpec(ops=(
        make_op("write", 0, 0, 64, 5),)),)
    out, evals = shrink(t, lambda x: run_scenario(x).failing,
                        seed=0, max_evals=10)
    assert out == t and evals == 1


#: The one fault the shrink predicates below depend on.
KEPT_HALT = (3, 2)


def _loaded_tuple():
    """Every reducible dimension active: faults and their
    probabilities, net windows, crashes and probabilities, admission
    and a deadline, and a spare file."""
    return ScenarioTuple(
        workload=WorkloadSpec(nfiles=2, ops=(
            make_op("write", 0, PAGE_SIZE, 3 * PAGE_SIZE, 1, 1_000),
            make_op("append", 0, 0, 2 * PAGE_SIZE, 2, 20_000),
            make_op("read", 0, 0, 100, 0, 0))),
        fault=FaultSpec(seed=3, p_xfer_error=0.1, p_chan_halt=0.05,
                        halts=((0, 1), KEPT_HALT), xfers=((1, 3),),
                        bw=((0, 10_000, 0.5),)),
        net=NetSpec(enabled=True, seed=5, p_drop=0.1, p_dup=0.05,
                    p_delay=0.05, writes_per_client=4,
                    partitions=((30_000, 10_000, (0,)),),
                    crashes=((1, 50_000, 10_000),)),
        runtime=RuntimeSpec(rate_ops_per_sec=100_000.0, burst=1,
                            max_inflight=4, policy="degrade",
                            deadline_us=100))


@pytest.mark.parametrize("keep", [None, "net", "admission", "deadline"])
def test_shrink_strips_faults_net_and_runtime(keep):
    """With a predicate that holds only while one chosen halt survives,
    the shrinker keeps that halt and strips everything else.  ``keep``
    also pins one dimension, so the shrinker has to reduce inside it
    instead of dropping it whole."""
    def pred(t):
        return KEPT_HALT in t.fault.halts and {
            None: True,
            "net": t.net.enabled,
            "admission": t.runtime.admission_active,
            "deadline": t.runtime.deadline_us is not None,
        }[keep]

    t = _loaded_tuple()
    mini, _ = shrink(t, pred, seed=0)
    assert mini.fault.halts == (KEPT_HALT,) and mini.fault.size() == 1
    assert not mini.crash.enabled
    assert mini.workload.nfiles == 1 and len(mini.workload.ops) == 1
    if keep == "net":
        assert mini.net == replace(t.net, p_drop=0.0, p_dup=0.0,
                                   p_delay=0.0, writes_per_client=1,
                                   partitions=(), crashes=())
    else:
        assert mini.net == NetSpec()
    if keep == "admission":
        assert mini.runtime == replace(t.runtime, deadline_us=None)
    elif keep == "deadline":
        assert mini.runtime == replace(t.runtime, rate_ops_per_sec=None,
                                       max_inflight=None)
    else:
        assert mini.runtime == RuntimeSpec()
