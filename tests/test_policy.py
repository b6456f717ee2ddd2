"""The :class:`repro.policy.Policy` surface: validation, serialization,
digest stability, preset loading, and — most load-bearing — the
byte-identity contract: a default-valued policy must reproduce the
pre-policy allocator bit for bit.  The fingerprints and result stats
pinned below were captured on the commit *before* the policy layer
landed; if any of them moves, default traffic changed behavior and the
contract is broken.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ir.printer import print_module
from repro.pipeline import allocate_module, prepare_function, prepare_module
from repro.policy import (
    DEFAULT_DEGRADATION_LADDER,
    DEFAULT_POLICY,
    Policy,
    available_presets,
    load_policy,
    preset_path,
)
from repro.regalloc import allocate_function, verify_allocation
from repro.regalloc.base import AllocationOptions
from repro.service.cache import request_fingerprint
from repro.service.scheduler import (
    ALLOCATOR_FACTORIES,
    DEGRADATION_LADDER,
    degrade_for,
)
from repro.target.presets import make_machine, middle_pressure
from repro.workloads.generator import generate_function
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.suite import make_benchmark

REPO_ROOT = Path(__file__).resolve().parent.parent

#: sha256 of the default policy's canonical JSON.  Changing any field
#: name, default, or the canonical form moves this — which silently
#: *preserves* old cache fingerprints for traffic that pins the old
#: digest, so bump it consciously.
DEFAULT_DIGEST = \
    "71424194846dd9aa5c5febc0f1b9ad1ef94d97a84ab5ecfedd318d51795c515f"

# ---------------------------------------------------------------------------
# Pre-policy pins (captured with the literals still inlined in the code)
# ---------------------------------------------------------------------------

AXPY_IR = """func axpy(%p0, %p1) -> value {
entry:
  %a = mul %p0, 2
  %b = add %a, %p1
  ret %b
}
"""

#: request_fingerprint pins under the *default* options.  These are the
#: cache keys of real pre-PR traffic: a default policy must not move
#: them, or every deployed cache entry is orphaned.
PINNED_FINGERPRINTS = {
    # (ir-producer, allocator, regs) -> hex digest
    "axpy/full/m8":
        "75eea572d9dab2406e3df6feed5b4f8288b62fc8478649ba6388f758effc1375",
    "spillstress/full/m12":
        "0ce86c091fdf45487a2951d368461f4f61e9ca2a0c007dcb24f867e2be7329f5",
    "jess/full/m12":
        "3ec79ea41d3ad27c31d8aadf74ba23074cb55a7382bcdade4c063fd8426aaa6d",
}

#: (moves_eliminated, spill_loads + spill_stores, spilled_webs,
#:  cycles.total, rounds) on spillstress(seed=0) at K=12, per allocator.
PINNED_SPILLSTRESS_STATS = {
    "full": (152, 408, 204, 56448.0, 4),
    "chaitin": (296, 408, 204, 59008.0, 4),
    "briggs": (296, 408, 204, 59008.0, 4),
    "callcost": (296, 408, 204, 59008.0, 4),
    "priority": (164, 376, 188, 59412.0, 3),
}

#: The same 5-tuple on jess at the 24-register model
#: (``middle_pressure()``), for all eight allocators.
PINNED_JESS_M24_STATS = {
    "chaitin": (458, 0, 0, 4527.0, 1),
    "priority": (215, 0, 0, 4812.0, 1),
    "briggs": (458, 0, 0, 4527.0, 1),
    "iterated": (459, 0, 0, 4049.0, 1),
    "optimistic": (458, 0, 0, 4527.0, 1),
    "callcost": (459, 6, 3, 3823.0, 2),
    "only-coalescing": (427, 0, 0, 4115.0, 1),
    "full": (388, 5, 2, 3853.0, 2),
}


def result_pin(result) -> tuple:
    stats = result.stats
    return (stats.moves_eliminated,
            stats.spill_loads + stats.spill_stores,
            stats.spilled_webs,
            result.cycles.total,
            stats.rounds)


@pytest.fixture(scope="module")
def spillstress_m12():
    machine = make_machine(12)
    module = make_benchmark("spillstress", seed=0)
    return prepare_module(module, machine), machine


@pytest.fixture(scope="module")
def jess_m24():
    machine = middle_pressure()
    return prepare_module(make_benchmark("jess", seed=0), machine), machine


class TestPolicyValue:
    def test_default_is_default(self):
        assert Policy() == DEFAULT_POLICY
        assert Policy().is_default()
        assert DEFAULT_POLICY.digest() == DEFAULT_DIGEST

    def test_any_field_change_is_not_default(self):
        assert not Policy(save_restore_cost=4).is_default()
        assert not Policy(loop_depth_exponent=1.5).is_default()
        assert not Policy(spill_tie_break=("name", "id")).is_default()

    def test_frozen_and_hashable(self):
        policy = Policy()
        with pytest.raises(FrozenInstanceError):
            policy.save_restore_cost = 9
        assert len({Policy(), Policy(), Policy(callee_save_cost=3)}) == 2

    def test_replace(self):
        tuned = DEFAULT_POLICY.replace(spill_degree_exponent=2.0)
        assert tuned.spill_degree_exponent == 2.0
        assert DEFAULT_POLICY.spill_degree_exponent == 1.0
        with pytest.raises(ValueError):
            DEFAULT_POLICY.replace(spill_load_cost=-1)

    def test_int_coercion_is_exact(self):
        # Weight fields coerce to float; int-typed cost fields stay int
        # (they feed int arithmetic on the historical path).
        policy = Policy(loop_depth_exponent=1)
        assert policy.loop_depth_exponent == 1.0
        assert isinstance(policy.loop_depth_exponent, float)
        assert policy.is_default()
        assert isinstance(Policy().save_restore_cost, int)


class TestValidation:
    @pytest.mark.parametrize("field", ["save_restore_cost",
                                       "callee_save_cost",
                                       "spill_load_cost",
                                       "spill_store_cost"])
    def test_costs_must_be_nonnegative_ints(self, field):
        for bad in (-1, 1.5, True, "2", None):
            with pytest.raises(ValueError):
                Policy(**{field: bad})

    @pytest.mark.parametrize("field", ["loop_depth_exponent",
                                       "spill_cost_exponent",
                                       "spill_degree_exponent",
                                       "select_differential_weight",
                                       "select_spill_cost_weight",
                                       "select_id_weight"])
    def test_weights_must_be_finite_positive(self, field):
        for bad in (0.0, -0.5, float("nan"), float("inf"), True, "1"):
            with pytest.raises(ValueError):
                Policy(**{field: bad})

    def test_tie_break_rules(self):
        assert Policy(spill_tie_break=("name", "id")).spill_tie_break \
            == ("name", "id")
        for bad in ((), ("name",), ("id", "id"), ("id", "bogus")):
            with pytest.raises(ValueError):
                Policy(spill_tie_break=bad)

    def test_ladder_rules(self):
        with pytest.raises(ValueError, match="unknown allocator"):
            Policy(degradation_ladder=(("full", "nosuch"),))
        with pytest.raises(ValueError, match="degrades to itself"):
            Policy(degradation_ladder=(("full", "full"),))
        with pytest.raises(ValueError, match="duplicate"):
            Policy(degradation_ladder=(("full", "chaitin"),
                                       ("full", "briggs")))

    def test_ladder_canonicalized(self):
        shuffled = tuple(reversed(DEFAULT_DEGRADATION_LADDER))
        policy = Policy(degradation_ladder=shuffled)
        assert policy.degradation_ladder == DEFAULT_DEGRADATION_LADDER
        assert policy.is_default()
        assert policy.digest() == DEFAULT_DIGEST

    def test_options_reject_non_policy(self):
        with pytest.raises(ValueError, match="policy"):
            AllocationOptions(policy={"save_restore_cost": 3})


class TestSerialization:
    def test_json_round_trip(self):
        tuned = Policy(spill_degree_exponent=2.0,
                       select_spill_cost_weight=1.5,
                       spill_tie_break=("name", "id"))
        for indent in (None, 2):
            again = Policy.from_json(tuned.to_json(indent=indent))
            assert again == tuned
            assert again.digest() == tuned.digest()

    def test_digest_tracks_content_not_identity(self):
        assert Policy().digest() == Policy().digest() == DEFAULT_DIGEST
        assert Policy(callee_save_cost=3).digest() != DEFAULT_DIGEST

    def test_from_dict_rejects_unknowns(self):
        with pytest.raises(ValueError, match="unknown policy field"):
            Policy.from_dict({"save_restore_cost": 3, "typo_field": 1})
        with pytest.raises(ValueError):
            Policy.from_dict(["not", "a", "dict"])

    def test_from_json_rejects_malformed(self):
        with pytest.raises(ValueError, match="invalid policy JSON"):
            Policy.from_json("{nope")
        with pytest.raises(ValueError):
            Policy.from_json('{"degradation_ladder": ["full"]}')

    def test_wire_shapes_are_json_safe(self):
        payload = json.loads(Policy().to_json())
        assert payload["degradation_ladder"] == [
            list(pair) for pair in DEFAULT_DEGRADATION_LADDER
        ]
        assert payload["spill_tie_break"] == ["id", "name"]


class TestDegradationLadder:
    def test_scheduler_mirror(self):
        assert DEGRADATION_LADDER == DEFAULT_POLICY.ladder_map()

    def test_degrade_for_default(self):
        assert degrade_for("full") == "chaitin"
        assert degrade_for("iterated") == "briggs"
        assert degrade_for("chaitin") == "chaitin"  # terminal floor

    def test_degrade_for_custom_ladder(self):
        policy = Policy(degradation_ladder=(("full", "briggs"),
                                            ("briggs", "chaitin")))
        assert degrade_for("full", policy) == "briggs"
        assert degrade_for("briggs", policy) == "chaitin"
        # Unlisted allocators fall straight to the floor.
        assert degrade_for("priority", policy) == "chaitin"


class TestFingerprintPins:
    """Default-policy fingerprints must equal the pre-policy values."""

    def test_axpy_pin(self):
        fp = request_fingerprint(AXPY_IR, make_machine(8), "full",
                                 options=AllocationOptions())
        assert fp == PINNED_FINGERPRINTS["axpy/full/m8"]

    def test_spillstress_pin(self, spillstress_m12):
        prepared, machine = spillstress_m12
        fp = request_fingerprint(print_module(prepared), machine, "full",
                                 options=AllocationOptions())
        assert fp == PINNED_FINGERPRINTS["spillstress/full/m12"]

    def test_jess_pin(self):
        machine = make_machine(12)
        prepared = prepare_module(make_benchmark("jess", seed=0), machine)
        fp = request_fingerprint(print_module(prepared), machine, "full",
                                 options=AllocationOptions())
        assert fp == PINNED_FINGERPRINTS["jess/full/m12"]

    def test_non_default_policy_moves_the_fingerprint(self):
        machine = make_machine(8)
        base = request_fingerprint(AXPY_IR, machine, "full",
                                   options=AllocationOptions())
        tuned = AllocationOptions(policy=Policy(spill_cost_exponent=1.25))
        moved = request_fingerprint(AXPY_IR, machine, "full", options=tuned)
        assert moved != base
        # ... and distinct non-default policies get distinct keys.
        other = AllocationOptions(policy=Policy(spill_cost_exponent=0.75))
        assert request_fingerprint(AXPY_IR, machine, "full",
                                   options=other) not in (base, moved)

    def test_explicit_default_policy_is_a_noop(self):
        machine = make_machine(8)
        explicit = AllocationOptions(policy=Policy())
        assert request_fingerprint(
            AXPY_IR, machine, "full", options=explicit
        ) == PINNED_FINGERPRINTS["axpy/full/m8"]


class TestResultPins:
    """Allocation *results* under the default policy, pinned per
    allocator.  This is the strongest byte-identity check: any drift in
    cost constants, spill scoring, selector keys, or round behavior
    shows up here."""

    @pytest.mark.parametrize("name", sorted(PINNED_SPILLSTRESS_STATS))
    def test_spillstress_stats_pin(self, spillstress_m12, name):
        prepared, machine = spillstress_m12
        result = allocate_module(prepared, machine,
                                 ALLOCATOR_FACTORIES[name]())
        assert result_pin(result) == PINNED_SPILLSTRESS_STATS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_JESS_M24_STATS))
    def test_jess_m24_stats_pin(self, jess_m24, name):
        prepared, machine = jess_m24
        result = allocate_module(prepared, machine,
                                 ALLOCATOR_FACTORIES[name]())
        assert result_pin(result) == PINNED_JESS_M24_STATS[name]

    def test_explicit_default_policy_matches_pin(self, spillstress_m12):
        prepared, machine = spillstress_m12
        result = allocate_module(
            prepared, machine, ALLOCATOR_FACTORIES["full"](),
            options=AllocationOptions(policy=Policy()),
        )
        assert result_pin(result) == PINNED_SPILLSTRESS_STATS["full"]


class TestPresets:
    def test_load_none_is_default(self):
        assert load_policy(None) is DEFAULT_POLICY

    def test_tuned_v1_is_committed_and_non_default(self):
        assert "tuned_v1" in available_presets()
        tuned = load_policy("tuned_v1")
        assert not tuned.is_default()

    def test_tuned_v1_matches_the_committed_tuning_report(self):
        from repro.service.schema import PROTOCOL_VERSION, SCHEMA_VERSION

        report_path = REPO_ROOT / "BENCH_policy_tuning.json"
        report = json.loads(report_path.read_text())
        # The CI policy-tuning job asserts the same envelope; a schema
        # bump that forgets to regenerate the report fails here first.
        assert report["type"] == "policy_tuning"
        assert report["schema"] == SCHEMA_VERSION
        assert report["protocol"] == PROTOCOL_VERSION
        tuned = load_policy("tuned_v1")
        assert tuned.digest() == report["best"]["digest"]
        assert tuned == Policy.from_dict(report["best"]["policy"])

    def test_tuned_v1_rescores_exactly_and_dominates(self):
        # Cycle counts are deterministic, so the committed measurements
        # must reproduce byte for byte; any drift is a behavior change.
        # benchmarks/ is not a package: load the tuner by file path.
        path = REPO_ROOT / "benchmarks" / "tune_policy.py"
        spec = importlib.util.spec_from_file_location("tune_policy", path)
        tuner = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tuner)
        committed = json.loads(
            (REPO_ROOT / "BENCH_policy_tuning.json").read_text())
        fresh = tuner.run(argparse.Namespace(
            seed=0, budget=0, local=0, jobs=1, evaluate="tuned_v1"))
        assert fresh["best"]["digest"] == committed["best"]["digest"]
        assert sorted(fresh["families"]) == sorted(committed["families"])
        improved = False
        for name, want in committed["families"].items():
            got = fresh["families"][name]
            assert got["default"] == want["default"], name
            assert got["tuned"] == want["tuned"], name
            base, tuned = got["default"]["cycles"], got["tuned"]["cycles"]
            assert tuned <= base, name
            improved = improved or tuned < base
        assert improved, "tuned_v1 improves cycles on no family"

    def test_unknown_preset_lists_alternatives(self):
        with pytest.raises(ValueError, match="tuned_v1"):
            load_policy("nosuch")

    def test_file_path_loading(self, tmp_path):
        path = tmp_path / "mine.json"
        policy = Policy(save_restore_cost=5)
        path.write_text(policy.to_json(indent=2))
        assert load_policy(str(path)) == policy
        with pytest.raises(ValueError, match="not found"):
            load_policy(str(tmp_path / "missing.json"))
        assert preset_path("tuned_v1").is_file()


# ---------------------------------------------------------------------------
# Property: any valid policy yields verifiable allocations
# ---------------------------------------------------------------------------

_PROP_PROFILE = BenchmarkProfile(
    name="polprop", stmts=12, int_pool=6, call_prob=0.15,
    branch_prob=0.2, loop_prob=0.2, copy_prob=0.2, load_prob=0.15,
    store_prob=0.05, max_params=2, max_call_args=2,
)

policies = st.builds(
    Policy,
    save_restore_cost=st.integers(0, 6),
    callee_save_cost=st.integers(0, 5),
    spill_load_cost=st.integers(1, 4),
    spill_store_cost=st.integers(0, 3),
    loop_depth_exponent=st.sampled_from([0.5, 0.8, 1.0, 1.3, 2.0]),
    spill_cost_exponent=st.sampled_from([0.5, 0.75, 1.0, 1.25]),
    spill_degree_exponent=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    spill_tie_break=st.sampled_from([("id", "name"), ("name", "id"),
                                     ("id",)]),
    select_differential_weight=st.sampled_from([0.5, 1.0, 2.0]),
    select_spill_cost_weight=st.sampled_from([0.5, 1.0, 2.0]),
    select_id_weight=st.sampled_from([0.5, 1.0, 2.0]),
)


class TestPolicyProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(policy=policies, seed=st.integers(0, 10_000),
           allocator=st.sampled_from(["full", "chaitin", "priority"]))
    def test_any_policy_allocates_verifiably(self, policy, seed,
                                             allocator):
        machine = make_machine(6)
        func = generate_function("polprop", _PROP_PROFILE, seed)
        work = prepare_function(func, machine)
        allocate_function(
            work, machine, ALLOCATOR_FACTORIES[allocator](),
            options=AllocationOptions(policy=policy),
        )
        verify_allocation(work, machine)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(policy=policies)
    def test_digest_round_trips_for_any_policy(self, policy):
        again = Policy.from_json(policy.to_json())
        assert again == policy and again.digest() == policy.digest()
