"""The unified AllocationOptions surface and its wire compatibility.

One frozen dataclass now carries every allocation knob across the
public API (``allocate_function``, ``allocate_module``, the scheduler,
the wire protocol).  These tests pin the contract: validation, the two
environment variables folded into :meth:`AllocationOptions.from_env`,
the wire form (protocol v2 only: v1 requests, their bare knobs and
retired option fields are refused), and the rule that only
result-relevant fields enter the service cache fingerprint.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import AllocationError, ServiceError
from repro.pipeline import allocate_module, prepare_function, prepare_module
from repro.regalloc import AllocationOptions, ChaitinAllocator
from repro.regalloc.base import allocate_function
from repro.service.cache import default_cache_dir, request_fingerprint
from repro.service.protocol import (
    PROTOCOL_VERSION,
    AllocationRequest,
    MachineSpec,
)
from repro.service.scheduler import execute_request
from repro.target.presets import make_machine
from repro.workloads.generator import generate_function
from repro.workloads.profiles import BenchmarkProfile

IR = """func axpy(%p0, %p1) -> value {
entry:
  %x = load [%p0+0]
  %y = load [%p0+4]
  %s = add %x, %y
  %t = add %s, %p1
  ret %t
}
"""


def prepared_ir(machine):
    from repro.ir.parser import parse_module

    return prepare_module(parse_module(IR), machine)


class TestValidation:
    def test_defaults(self):
        opts = AllocationOptions()
        assert opts.max_rounds == 64
        assert opts.rematerialize is False
        assert opts.verify is True
        assert opts.jobs == 1
        assert opts.deadline_ms is None
        assert opts.cache_dir is None

    @pytest.mark.parametrize("bad", [
        dict(max_rounds=0),
        dict(jobs=0),
        dict(jobs=-1),
        dict(deadline_ms=-1),
        dict(deadline_ms=True),
        dict(deadline_ms="soon"),
        dict(deadline_ms=float("inf")),
        dict(deadline_ms=float("-inf")),
        dict(deadline_ms=float("nan")),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            AllocationOptions(**bad)

    def test_zero_deadline_is_legal(self):
        # deadline_ms=0 is how clients ask for immediate degradation.
        assert AllocationOptions(deadline_ms=0).deadline_ms == 0

    def test_frozen_and_replace(self):
        opts = AllocationOptions()
        with pytest.raises(AttributeError):
            opts.jobs = 4
        bumped = opts.replace(jobs=4)
        assert bumped.jobs == 4 and opts.jobs == 1

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            AllocationOptions().replace(jobs=-2)


class TestCacheDirResolution:
    """Regression: the cache layer once read ``$REPRO_CACHE_DIR``
    directly, behind the options surface.  The variable now has exactly
    one reader — ``AllocationOptions.from_env`` — and
    ``default_cache_dir`` is pure with respect to the environment."""

    def test_env_is_never_consulted_directly(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "from-env"))
        from pathlib import Path
        home_default = Path("~/.cache/repro").expanduser()
        assert default_cache_dir() == home_default
        assert default_cache_dir(AllocationOptions()) == home_default

    def test_env_flows_only_through_from_env(self, monkeypatch, tmp_path):
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env_dir))
        opts = AllocationOptions.from_env()
        assert default_cache_dir(opts) == env_dir

    def test_explicit_options_win(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        opts = AllocationOptions.from_env(cache_dir=str(chosen))
        assert default_cache_dir(opts) == chosen


class TestFromEnv:
    """``from_env`` folds in ``REPRO_CACHE_DIR`` and nothing else; the
    retired strategy variables it used to read are ignored."""

    def test_reads_both_documented_variables(self):
        env = {"REPRO_INCREMENTAL_ROUNDS": "off",
               "REPRO_INCREMENTAL_EDITS": "off",
               "REPRO_CACHE_DIR": "/tmp/repro-cache"}
        opts = AllocationOptions.from_env(env)
        assert opts == AllocationOptions(cache_dir="/tmp/repro-cache")

    def test_validate_mode_and_empty_env(self):
        assert AllocationOptions.from_env(
            {"REPRO_INCREMENTAL_ROUNDS": "validate"}
        ) == AllocationOptions()
        opts = AllocationOptions.from_env({})
        assert opts == AllocationOptions() and opts.cache_dir is None

    def test_overrides_beat_the_environment(self):
        env = {"REPRO_CACHE_DIR": "/tmp/ignored"}
        opts = AllocationOptions.from_env(env, cache_dir="/tmp/won",
                                          jobs=3)
        assert opts.cache_dir == "/tmp/won"
        assert opts.jobs == 3

    def test_rereads_environment_per_call(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/first")
        assert AllocationOptions.from_env().cache_dir == "/tmp/first"
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/second")
        assert AllocationOptions.from_env().cache_dir == "/tmp/second"


class TestWireForm:
    def test_round_trip(self):
        opts = AllocationOptions(max_rounds=7, rematerialize=True,
                                 verify=False, jobs=4, deadline_ms=250.0)
        assert AllocationOptions.from_dict(opts.to_dict()) == opts

    def test_none_deadline_omitted(self):
        wire = AllocationOptions().to_dict()
        assert "deadline_ms" not in wire
        assert AllocationOptions.from_dict(wire) == AllocationOptions()

    def test_cache_dir_never_crosses_the_wire(self):
        wire = AllocationOptions(cache_dir="/secret/server/path").to_dict()
        assert "cache_dir" not in wire

    def test_retired_strategy_fields_refused(self):
        # Every strategy has one production path; a client asking for
        # another one is told so instead of silently getting the one.
        for name, value in (("incremental", "validate"),
                            ("incremental_edits", "off"),
                            ("reuse_analyses", False)):
            with pytest.raises(ValueError, match=r"unknown option "
                               rf"field\(s\) \['{name}'\]"):
                AllocationOptions.from_dict({"jobs": 2, name: value})
        sent = AllocationOptions().to_dict()
        assert "incremental" not in sent
        assert "incremental_edits" not in sent
        assert "reuse_analyses" not in sent

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown option"):
            AllocationOptions.from_dict({"jobs": 2, "turbo": True})
        with pytest.raises(ValueError, match="must be an object"):
            AllocationOptions.from_dict([1, 2])


class TestRemovedLegacyKeywords:
    """The removed bare keywords are gone from the signatures; the
    options form is the one call shape and warns nothing."""

    @pytest.fixture
    def setup(self):
        machine = make_machine(8)
        return prepared_ir(machine), machine

    def test_modern_call_sites_warn_nothing(self, setup):
        prepared, machine = setup
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            allocate_module(prepared, machine, ChaitinAllocator(),
                            AllocationOptions(verify=False, max_rounds=8))


class TestErrorSurfacing:
    def test_pressure_cannot_be_met_through_options_path(self):
        # A generated function whose peak single-instruction no-spill
        # pressure exceeds k=2 is unallocatable by the spill-everywhere
        # family; the AllocationError must surface through the options
        # API exactly as it did through the legacy keywords.
        profile = BenchmarkProfile(name="press", stmts=14, int_pool=8,
                                   float_pool=2, call_prob=0.3,
                                   branch_prob=0.2, paired_prob=0.6,
                                   load_prob=0.4, store_prob=0.2,
                                   max_params=1, max_call_args=1)
        machine = make_machine(2)
        func = prepare_function(
            generate_function("press", profile, seed=0), machine)
        with pytest.raises(AllocationError,
                           match="register pressure cannot be met"):
            allocate_function(func, machine, ChaitinAllocator(),
                              AllocationOptions(max_rounds=16))


class TestProtocolCompat:
    def test_v2_request_carries_options_on_the_wire(self):
        request = AllocationRequest(
            id="w", ir=IR, machine=MachineSpec(regs=8),
            options=AllocationOptions(verify=False, max_rounds=9,
                                      deadline_ms=500.0))
        wire = request.to_wire()
        assert wire["protocol"] == PROTOCOL_VERSION == 2
        assert wire["options"]["max_rounds"] == 9
        # options is the only copy of the knobs on the wire
        assert "verify" not in wire
        assert "deadline_s" not in wire
        again = AllocationRequest.from_wire(wire)
        assert again.options == request.options

    def test_v1_request_is_refused(self):
        # Protocol v1 is no longer spoken, on the wire or in-process.
        v1_wire = {
            "type": "allocate", "protocol": 1, "id": "old",
            "ir": IR, "allocator": "chaitin",
            "machine": {"regs": 8, "has_paired_loads": True},
        }
        with pytest.raises(ServiceError,
                           match=r"protocol version 1 unsupported"):
            AllocationRequest.from_wire(v1_wire)
        with pytest.raises(ServiceError,
                           match=r"protocol version 1 unsupported"):
            execute_request(AllocationRequest(
                id="v1", ir=IR, allocator="chaitin",
                machine=MachineSpec(regs=8), protocol=1))

    def test_unsupported_protocol_rejected(self):
        beyond = PROTOCOL_VERSION + 1
        with pytest.raises(ServiceError, match="protocol"):
            AllocationRequest(id="x", ir=IR, protocol=beyond).validate()

    def test_bad_wire_options_become_service_errors(self):
        wire = AllocationRequest(id="b", ir=IR).to_wire()
        wire["options"] = {"jobs": 0}
        with pytest.raises(ServiceError, match="bad options"):
            AllocationRequest.from_wire(wire)
        wire["options"] = "fast please"
        with pytest.raises(ServiceError, match="bad options"):
            AllocationRequest.from_wire(wire)
        # Scalars must carry their exact wire type: JSON true is no
        # round count.
        for options in ({"max_rounds": 3.5}, {"max_rounds": True},
                        {"jobs": "2"}, {"verify": 1},
                        {"rematerialize": "yes"}):
            wire["options"] = options
            with pytest.raises(ServiceError, match="bad options"):
                AllocationRequest.from_wire(wire)
        # json.loads reads Infinity and NaN; no deadline is either.
        for line in ('{"deadline_ms": Infinity}', '{"deadline_ms": NaN}'):
            wire["options"] = json.loads(line)
            with pytest.raises(ServiceError, match="bad options: "
                               "deadline_ms must be finite"):
                AllocationRequest.from_wire(wire)

    @pytest.mark.parametrize("bare, moved", [
        ("verify", "options.verify"),
        ("deadline_s", "options.deadline_ms"),
    ])
    def test_bare_knobs_are_refused(self, bare, moved):
        # A v1-style line that still carries the bare knob once had it
        # honoured; dropping it silently would change its answer.
        for options in (None, {"verify": True}):
            wire = {"id": "x", "ir": IR, bare: False, "options": options}
            with pytest.raises(ServiceError, match=moved):
                AllocationRequest.from_wire(wire)


class TestFingerprint:
    def test_result_relevant_options_split_the_fingerprint(self):
        machine = make_machine(8)
        base = request_fingerprint(IR, machine, "full",
                                   options=AllocationOptions())
        assert base != request_fingerprint(
            IR, machine, "full", options=AllocationOptions(max_rounds=3))
        assert base != request_fingerprint(
            IR, machine, "full",
            options=AllocationOptions(rematerialize=True))
        assert base != request_fingerprint(
            IR, machine, "full", options=AllocationOptions(verify=False))

    def test_execution_policy_does_not_split_the_fingerprint(self):
        machine = make_machine(8)
        base = request_fingerprint(IR, machine, "full",
                                   options=AllocationOptions())
        for neutral in (AllocationOptions(jobs=8),
                        AllocationOptions(deadline_ms=50.0),
                        AllocationOptions(cache_dir="/elsewhere")):
            assert base == request_fingerprint(IR, machine, "full",
                                               options=neutral)

    def test_default_options_match_the_legacy_verify_form(self):
        # Cache entries written before the options refactor must stay
        # reachable: the legacy call (no options, verify on) spells the
        # same key as the default options.
        machine = make_machine(8)
        assert request_fingerprint(IR, machine, "full") == \
            request_fingerprint(IR, machine, "full",
                                options=AllocationOptions())
