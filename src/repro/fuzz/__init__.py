"""Coverage-guided scenario fuzzing for the EasyIO reproduction.

The fuzzer searches the space of ``(workload schedule, FaultPlan,
NetFaultPlan, admission/deadline config, crash plan)`` tuples for
executions that violate any invariant the repo can check -- trace
oracles, mechanism crash oracles, differential-vs-NOVA byte equality,
cluster oracles -- guided by coverage signals the codebase already
emits.  See DESIGN.md §16 for the architecture.
"""

from repro.fuzz.campaign import (CampaignReport, Failure, FuzzConfig,
                                 run_campaign)
from repro.fuzz.corpus import (CorpusEntry, load_reproducers, pick_parents,
                               seed_corpus)
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.mutate import (MUTATORS, apply_mutation, mutator_names,
                               register_mutator)
from repro.fuzz.scenario import (DETECTORS, Finding, ScenarioResult,
                                 run_scenario)
from repro.fuzz.shrink import shrink
from repro.fuzz.tuples import (CrashSpec, FAULT_TOLERANT_KINDS, FaultSpec,
                               NetSpec, RuntimeSpec, ScenarioTuple,
                               WorkloadSpec, make_op, schedule_from_seed)

__all__ = [
    "CampaignReport", "Failure", "FuzzConfig", "run_campaign",
    "CorpusEntry", "load_reproducers", "pick_parents", "seed_corpus",
    "CoverageMap",
    "MUTATORS", "apply_mutation", "mutator_names", "register_mutator",
    "DETECTORS", "Finding", "ScenarioResult", "run_scenario",
    "shrink",
    "CrashSpec", "FAULT_TOLERANT_KINDS", "FaultSpec", "NetSpec",
    "RuntimeSpec", "ScenarioTuple", "WorkloadSpec", "make_op",
    "schedule_from_seed",
]
