"""Campaign determinism and scheduling (ISSUE 10 acceptance).

The acceptance bar: a seeded campaign is *bit-reproducible* -- same
seed => same tuple sequence, coverage signatures, and verdicts, and a
parallel run walks exactly the same path as a serial one.  The
fingerprint hashes the full walk, so one equality pins all three.
"""

from repro.fuzz import (CorpusEntry, FuzzConfig, ScenarioTuple,
                        pick_parents, run_campaign, seed_corpus)

SMALL = dict(budget=14, batch=4)


def test_campaign_bit_reproducible_same_seed():
    a = run_campaign(FuzzConfig(seed=11, **SMALL))
    b = run_campaign(FuzzConfig(seed=11, **SMALL))
    assert a.fingerprint() == b.fingerprint()
    assert a.walk == b.walk
    assert a.coverage.hits == b.coverage.hits


def test_campaign_serial_equals_parallel():
    serial = run_campaign(FuzzConfig(seed=11, processes=1, **SMALL))
    parallel = run_campaign(FuzzConfig(seed=11, processes=4, **SMALL))
    assert serial.fingerprint() == parallel.fingerprint()
    assert serial.walk == parallel.walk
    assert [f.key for f in serial.failures] \
        == [f.key for f in parallel.failures]


def test_campaign_seed_changes_walk():
    a = run_campaign(FuzzConfig(seed=11, **SMALL))
    b = run_campaign(FuzzConfig(seed=12, **SMALL))
    # Generation 0 (the seeds) is shared; the mutated tail must differ.
    assert a.fingerprint() != b.fingerprint()


def test_campaign_respects_budget_and_reports():
    r = run_campaign(FuzzConfig(seed=3, **SMALL))
    assert r.executed == SMALL["budget"]
    assert len(r.walk) == r.executed
    assert r.generations >= 2  # seeds + at least one mutated batch
    assert len(r.coverage) > 0
    assert r.distinct_signatures >= 2
    d = r.as_dict()
    assert d["executed"] == r.executed
    assert d["fingerprint"] == r.fingerprint()


def test_campaign_finds_planted_mutant_from_seeds():
    """The committed-corpus pipeline end-to-end: a mutant campaign
    detects the planted bug within the seed generation."""
    r = run_campaign(FuzzConfig(seed=1, budget=10, batch=4,
                                mutant="skip_append_fence",
                                stop_after_failures=1))
    assert r.failures, "campaign missed the planted mutant"
    assert any(f[0] == "crash" for fail in r.failures
               for f in fail.findings)


def test_mutant_campaign_keeps_supervised_kinds():
    r = run_campaign(FuzzConfig(seed=2, budget=8, batch=4,
                                mutant="skip_append_fence"))
    assert r.executed == 8  # no run rejected a planted mutant
    for fail in r.failures:
        assert ScenarioTuple.from_dict(fail.tuple_dict).kind == "easyio"


def test_energy_scheduler_prefers_novel_parents():
    rich = CorpusEntry(seed_corpus()[0], novel=50, chosen=1)
    poor = CorpusEntry(seed_corpus()[1], novel=0, chosen=10)
    assert rich.energy > poor.energy
    import random
    picks = pick_parents(random.Random(0), [rich, poor], 200)
    assert picks.count(rich) > picks.count(poor)


def test_stop_after_failures_short_circuits():
    full = run_campaign(FuzzConfig(seed=1, budget=30, batch=4,
                                   mutant="skip_append_fence"))
    early = run_campaign(FuzzConfig(seed=1, budget=30, batch=4,
                                    mutant="skip_append_fence",
                                    stop_after_failures=1))
    assert early.failures
    assert early.executed <= full.executed
