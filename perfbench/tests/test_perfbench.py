"""Unit tests of the benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import gc
import os
import random
import socket
import statistics
import subprocess
import sys
import time

import pytest

from repro.ir.instructions import Ret
from repro.ir.printer import print_function, print_module
from repro.pipeline import allocate_module, prepare_module
from repro.core import PreferenceDirectedAllocator
from repro.regalloc import AllocationOptions
from repro.target.presets import make_machine

import compile_wl
from common import (
    REQUEST_LINE_LIMIT,
    check_allocation,
    parse_allocated,
    percentile,
)
from schedule import (
    EDIT_GROUP,
    SERVE_GROUP,
    compile_inputs,
    edit_chain,
    interp_args,
    serve_class,
    serve_schedule,
)
from server import Connection, RequestTooLarge, _group_ended, _signal_group
from speed import (
    REFERENCE_PROBE_S,
    BackgroundProbe,
    SpeedTrack,
    one_cpu,
    probe,
)
from tracer import UNATTRIBUTED, Tracer, build_tree


# -- schedules -----------------------------------------------------------

def _compile_text(seed):
    funcs, ops, _ = compile_inputs(seed)
    return [print_function(f) for f in funcs], ops


def test_compile_inputs_deterministic_per_seed():
    assert _compile_text(3) == _compile_text(3)
    assert _compile_text(3) != _compile_text(4)


def test_compile_reference_suite_is_seed_independent():
    a, _, ref = compile_inputs(1)
    b, _, _ = compile_inputs(2)
    assert ref == 88
    assert [print_function(f) for f in a[:ref]] == \
        [print_function(f) for f in b[:ref]]


def test_compile_ops_cover_every_function_once_per_allocator():
    funcs, ops, _ = compile_inputs(5)
    pairs = sorted((op.index, op.allocator) for op in ops)
    assert pairs == sorted((i, a) for i in range(len(funcs))
                           for a in ("chaitin", "full"))


def test_serve_inputs_deterministic_per_seed():
    assert serve_schedule(7, 500) == serve_schedule(7, 500)
    assert serve_schedule(7, 500) != serve_schedule(8, 500)
    assert print_module(serve_class(3)) == print_module(serve_class(3))
    assert [len(serve_class(i).functions) for i in range(6)] == \
        [2, 3, 4, 2, 3, 4]


def test_edit_chain_deterministic_per_seed():
    assert edit_chain(2, 20) == edit_chain(2, 20)
    assert edit_chain(2, 20) != edit_chain(3, 20)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_serve_hit_share_matches_target(seed):
    schedule = serve_schedule(seed, 2000)
    seen, repeats = set(), []
    for cls in schedule:
        repeats.append(cls in seen)
        seen.add(cls)
    # Every group of SERVE_GROUP opens exactly one class: 4 in 5 repeat.
    for start in range(0, len(schedule), SERVE_GROUP):
        assert repeats[start:start + SERVE_GROUP].count(False) == 1
    assert sum(repeats) / len(repeats) == pytest.approx(0.8)
    # Classes open in order, so class k is first sent before class k+1.
    firsts = [schedule.index(k) for k in range(max(schedule) + 1)]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize("seed", [0, 1])
def test_edit_kind_mix_matches_target(seed):
    kinds = [kind for kind, _ in edit_chain(seed, 40)]
    for start in range(0, len(kinds), EDIT_GROUP):
        assert kinds[start:start + EDIT_GROUP].count("struct") == 1
    assert kinds.count("value") == 3 * kinds.count("struct")


def test_edit_chain_never_repeats_a_body():
    bodies = [ir for _, ir in edit_chain(4, 40)]
    assert len(set(bodies)) == len(bodies)


def test_requests_fit_the_server_line_limit():
    texts = [print_module(serve_class(i)) for i in range(40)]
    texts += [ir for _, ir in edit_chain(0, 8)]
    assert max(len(t) for t in texts) < REQUEST_LINE_LIMIT // 2


# -- statistics ----------------------------------------------------------

def test_percentile_matches_statistics_inclusive():
    rng = random.Random(0)
    for n in (2, 3, 10, 101, 250):
        data = [rng.expovariate(1.0) for _ in range(n)]
        cuts = statistics.quantiles(data, n=100, method="inclusive")
        for q in (10, 25, 50, 75, 90, 99):
            assert percentile(data, q) == pytest.approx(cuts[q - 1])


def test_percentile_edges():
    assert percentile([4.0], 50) == 4.0
    assert percentile([3, 1, 2], 0) == 1
    assert percentile([3, 1, 2], 100) == 3
    assert percentile([1, 2, 3, 4], 50) == 2.5
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


# -- tracing -------------------------------------------------------------

def _check_tree(node, tol=1e-9):
    """Every (unattributed) row is non-negative and children add up."""
    children = node["children"]
    if children:
        assert sum(c["s"] for c in children) == pytest.approx(
            node["s"], abs=tol)
    for child in children:
        if child["name"] == UNATTRIBUTED:
            assert child["s"] >= -tol
        _check_tree(child, tol)


def test_unattributed_never_negative_on_nested_spans():
    tracer = Tracer()

    def leaf():
        time.sleep(0.001)

    def middle():
        tracer.call("leaf", leaf)
        tracer.call("leaf", leaf)

    def op():
        tracer.call("middle", middle)
        leaf()

    for _ in range(5):
        tracer.call("op", op)
    for node, _ in tracer.root.walk():
        assert node.self_time >= -1e-9
    _check_tree(tracer.tree())
    assert tracer.total("leaf") == pytest.approx(
        tracer.root.children["op"].children["middle"]
        .children["leaf"].total)


def test_total_counts_outermost_spans_once():
    tracer = Tracer()
    inner = tracer.wrap("x", lambda: time.sleep(0.001))
    outer = tracer.wrap("x", inner)
    outer()
    node = tracer.root.children["x"]
    assert tracer.total("x") == node.total


def test_build_tree_from_flat_profile():
    phases = {"session": {"s": 0.5, "calls": 2},
              "session/diff": {"s": 0.2, "calls": 2},
              "color": {"s": 0.3, "calls": 2}}
    node = build_tree("allocate", 1.0, 2, phases)
    assert node.children["session"].self_time == pytest.approx(0.3)
    assert node.self_time == pytest.approx(0.2)
    _check_tree(node.export())


def test_traced_compile_restores_wrappers_and_attributes_time():
    funcs, ops, _ = compile_inputs(0)
    machine = make_machine(16)
    before = compile_wl.pipeline.prepare_module
    tracer = Tracer()
    plain, traced = compile_wl._paired_window(funcs, ops[:3], machine,
                                              0.05, tracer)
    assert compile_wl.pipeline.prepare_module is before
    assert [r for _, _, r in plain] == [r for _, _, r in traced]
    assert tracer.total("pipeline.prepare") > 0
    assert 0 <= tracer.self_time("op") <= 0.05 * tracer.total("op")
    _check_tree(tracer.tree())


# -- output checks -------------------------------------------------------

@pytest.mark.parametrize("index", range(6))
def test_parse_allocated_round_trips_server_code(index):
    # Six classes cover every profile, calls of both result classes and
    # edge-split blocks with dotted labels.
    machine = make_machine(24)
    module = serve_class(index)
    run = allocate_module(prepare_module(module, machine), machine,
                          PreferenceDirectedAllocator(),
                          AllocationOptions(verify=True))
    code = "\n\n".join(print_function(r.func) for r in run.results)
    parsed = parse_allocated(code, module.functions, machine)
    assert [f.name for f in parsed] == [f.name for f in module.functions]
    for src, got in zip(module.functions, parsed):
        assert check_allocation(src, got, machine,
                                interp_args(src, 1, src.name)) is None


def test_check_allocation_catches_a_wrong_register():
    machine = make_machine(24)
    module = serve_class(1)
    run = allocate_module(prepare_module(module, machine), machine,
                          PreferenceDirectedAllocator(),
                          AllocationOptions(verify=True))
    src, got = module.functions[0], run.results[0].func
    args = interp_args(src, 1, src.name)
    assert check_allocation(src, got, machine, args) is None
    # Return from the wrong register: the caller now sees another value.
    ret = got.blocks[-1].instrs[-1]
    assert isinstance(ret, Ret) and ret.reg_uses
    wrong = machine.file(ret.reg_uses[0].rclass).regs[1]
    ret.reg_uses = [wrong]
    assert check_allocation(src, got, machine, args) is not None


def test_server_stop_waits_for_the_whole_process_group():
    # The leader exits at once and leaves a child behind in its group,
    # as a server leaves its resource tracker.
    proc = subprocess.Popen(["sh", "-c", "sleep 0.3 & exit 0"],
                            start_new_session=True)
    proc.wait()
    assert _signal_group(proc.pid, 0)
    assert _group_ended(proc.pid, 10.0)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


# -- host-speed scaling --------------------------------------------------

def test_scale_uses_the_probes_around_an_interval():
    track = SpeedTrack()
    ref = REFERENCE_PROBE_S
    track.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.0, ref)]
    # No probe inside: the nearest one on each side.
    assert track.scale(1.2, 1.8) == pytest.approx(0.5)
    assert track.scale(0.2, 0.8) == pytest.approx(1 / 1.5)
    # Probes inside count too.
    assert track.scale(0.5, 2.5) == pytest.approx(1 / 1.5)
    assert track.run_scale() == pytest.approx(1 / 1.5)


def test_probe_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_one_cpu_pins_children_and_restores_affinity():
    allowed = os.sched_getaffinity(0)
    with one_cpu():
        pinned = os.sched_getaffinity(0)
        child = subprocess.run(
            [sys.executable, "-c",
             "import os; print(sorted(os.sched_getaffinity(0)))"],
            capture_output=True, text=True, check=True)
    assert len(pinned) == 1 and pinned <= allowed
    assert child.stdout.strip() == str(sorted(pinned))
    assert os.sched_getaffinity(0) == allowed


def test_background_probe_samples_every_cpu_and_stops():
    allowed = os.sched_getaffinity(0)
    with BackgroundProbe(period=0.005) as track:
        time.sleep(0.1)
    assert all(not t.is_alive() for t in track._threads)
    assert len(track._threads) == len(allowed)
    assert len(track.samples) >= len(allowed)
    assert track.samples == sorted(track.samples)
    assert os.sched_getaffinity(0) == allowed
    assert track.run_scale() > 0


def test_oversized_request_is_refused_before_sending():
    ours, theirs = socket.socketpair()
    conn = Connection.__new__(Connection)
    conn.sock, conn.reader = ours, ours.makefile("rb")
    try:
        with pytest.raises(RequestTooLarge):
            conn.request({"ir": "x" * REQUEST_LINE_LIMIT})
        theirs.setblocking(False)
        with pytest.raises(BlockingIOError):
            theirs.recv(1)
    finally:
        conn.close()
        theirs.close()
