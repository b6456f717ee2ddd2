"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``alloc FILE``      — parse textual IR, run the pipeline + an allocator,
  print the allocated code and stats (``--json`` for the service schema).
* ``compare FILE``    — run every allocator over one IR file and print a
  comparison table.
* ``bench NAME``      — allocate one synthetic benchmark under all
  allocators and print the comparison (a CLI twin of
  ``examples/benchmark_tour.py``).
* ``serve``           — run the long-lived allocation service (LDJSON
  over TCP, or stdio with ``--stdio``).
* ``submit``          — send one allocation request to a running server.
* ``stats``           — fetch a running server's metrics snapshot.
* ``example``         — replay the paper's Figure 7 with full tracing.
* ``targets``         — describe the built-in register-usage models.

``alloc``/``compare``/``bench`` accept ``--json`` and emit the same
response schema the service speaks (``repro.service.protocol``), so
piping the CLI and querying the server are interchangeable.

The textual IR syntax is whatever ``repro.ir.printer`` emits; see
``README.md`` or run ``python -m repro example`` for a sample.
"""

from __future__ import annotations

import argparse
import sys
import uuid

from repro.cluster.cli import add_cluster_parser, cmd_cluster_serve
from repro.core import PreferenceDirectedAllocator
from repro.errors import ReproError, ServiceError
from repro.ir.parser import parse_module
from repro.ir.printer import print_function
from repro.pipeline import allocate_module, prepare_module
from repro.policy import load_policy
from repro.profiling import profiled
from repro.regalloc import AllocationOptions, allocate_function
from repro.reporting import canonical_json
from repro.service.cache import ResultCache, default_cache_dir
from repro.service.client import ServiceClient
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    AllocationRequest,
    MachineSpec,
    cycles_to_dict,
    stats_to_dict,
)
from repro.service.schema import (
    allocation_payload,
    comparison_payload,
    final_stats_payload,
)
from repro.service.scheduler import (
    ALLOCATOR_FACTORIES,
    Scheduler,
    execute_request,
    render_allocation,
)
from repro.service.server import ServerThread, serve_stdio
from repro.sim.cycles import estimate_cycles
from repro.target.presets import PRESSURE_MODELS, figure7_machine, make_machine
from repro.workloads import BENCHMARK_NAMES, make_benchmark

__all__ = ["main", "build_parser"]

#: One canonical allocator table, shared with the service layer.
ALLOCATOR_CHOICES = ALLOCATOR_FACTORIES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Preference-Directed Graph Coloring (PLDI 2002) "
                    "reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    alloc = sub.add_parser("alloc", help="allocate an IR file")
    alloc.add_argument("file", help="textual IR file ('-' for stdin)")
    alloc.add_argument("--allocator", choices=sorted(ALLOCATOR_CHOICES),
                       default="full")
    alloc.add_argument("--regs", type=int, default=24,
                       help="registers per class (default 24)")
    alloc.add_argument("--policy", default=None, metavar="FILE|PRESET",
                       help="heuristic policy: a preset name (e.g. tuned_v1) or a Policy JSON file")
    alloc.add_argument("--profile", action="store_true",
                       help="print a per-phase wall-clock profile to stderr")
    alloc.add_argument("--json", action="store_true",
                       help="emit the service response schema")

    compare = sub.add_parser("compare",
                             help="run every allocator over an IR file")
    compare.add_argument("file", help="textual IR file ('-' for stdin)")
    compare.add_argument("--regs", type=int, default=24)
    compare.add_argument("--policy", default=None, metavar="FILE|PRESET",
                         help="heuristic policy: a preset name (e.g. tuned_v1) or a Policy JSON file")
    compare.add_argument("--profile", action="store_true",
                         help="print a per-phase wall-clock profile to stderr")
    compare.add_argument("--json", action="store_true",
                         help="emit one service response per allocator")

    bench = sub.add_parser("bench", help="allocate a synthetic benchmark")
    bench.add_argument("name", choices=BENCHMARK_NAMES)
    bench.add_argument("--regs", type=int, default=16)
    bench.add_argument("--policy", default=None, metavar="FILE|PRESET",
                       help="heuristic policy: a preset name (e.g. tuned_v1) or a Policy JSON file")
    bench.add_argument("--profile", action="store_true",
                       help="print a per-phase wall-clock profile to stderr")
    bench.add_argument("--json", action="store_true",
                       help="emit one service response per allocator")

    serve = sub.add_parser("serve", help="run the allocation service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7421,
                       help="TCP port (0 picks a free one; default 7421)")
    serve.add_argument("--stdio", action="store_true",
                       help="speak LDJSON on stdin/stdout instead of TCP")
    serve.add_argument("--jobs", type=int, default=1,
                       help="process-pool width per allocation")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="admission-control queue bound")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="in-memory result-cache entries")
    serve.add_argument("--cache-dir", default=None,
                       help="on-disk cache directory "
                            "(default ~/.cache/repro or $REPRO_CACHE_DIR)")
    serve.add_argument("--no-disk-cache", action="store_true",
                       help="keep the result cache in memory only")
    serve.add_argument("--cache-peer", default=None, metavar="HOST:PORT",
                       help="share results through a cluster cache-peer "
                            "tier instead of the local disk layer")

    submit = sub.add_parser("submit",
                            help="send one request to a running server")
    source = submit.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help="textual IR file ('-' for stdin)")
    source.add_argument("--bench", choices=BENCHMARK_NAMES,
                        help="a built-in benchmark name")
    submit.add_argument("--allocator", choices=sorted(ALLOCATOR_CHOICES),
                        default="full")
    submit.add_argument("--regs", type=int, default=24)
    submit.add_argument("--deadline", type=float, default=None,
                        help="seconds before the server may degrade "
                             "the allocator")
    submit.add_argument("--policy", default=None, metavar="FILE|PRESET",
                        help="heuristic policy: a preset name (e.g. tuned_v1) or a Policy JSON file")
    submit.add_argument("--base", default=None, metavar="TOKEN",
                        help="send an allocate_delta request: TOKEN is "
                             "the session_digest of the previous "
                             "response ('new' starts a fresh edit "
                             "chain); requires --file")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7421)
    submit.add_argument("--json", action="store_true",
                        help="print the full response JSON")

    stats = sub.add_parser("stats",
                           help="fetch a running server's metrics")
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, default=7421)

    sub.add_parser("example", help="replay the paper's Figure 7")
    sub.add_parser("targets", help="describe the register-usage models")

    add_cluster_parser(sub, ALLOCATOR_CHOICES, BENCHMARK_NAMES)
    return parser


def main(argv: list[str] | None = None,
         out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "alloc":
            return _maybe_profiled(args, lambda: _cmd_alloc(args, out))
        elif args.command == "compare":
            _maybe_profiled(args, lambda: _cmd_compare(args, out))
        elif args.command == "bench":
            _maybe_profiled(args, lambda: _cmd_bench(args, out))
        elif args.command == "serve":
            _cmd_serve(args, out)
        elif args.command == "submit":
            return _cmd_submit(args, out) or 0
        elif args.command == "stats":
            _cmd_stats(args, out)
        elif args.command == "example":
            _cmd_example(out)
        elif args.command == "targets":
            _cmd_targets(out)
        elif args.command == "cluster":
            return _cmd_cluster(args, out) or 0
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # unreadable IR file, unbindable port, ...
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `python -m repro targets | head`
        return 0
    return 0


def _maybe_profiled(args, thunk) -> int:
    """Run ``thunk``, honoring ``--profile``.

    The phase table goes to stderr so ``--json`` output (whose response
    schema is sealed and digest-checked by the service cache) stays
    untouched.
    """
    if not getattr(args, "profile", False):
        return thunk() or 0
    with profiled() as prof:
        code = thunk() or 0
    _print_phase_table(prof.snapshot(), sys.stderr)
    return code


def _print_phase_table(snapshot: dict, out) -> None:
    if not snapshot:
        print("; no phases recorded", file=out)
        return
    print(f"; {'phase':36s} {'seconds':>10s} {'calls':>8s}", file=out)
    for path, entry in sorted(snapshot.items(),
                              key=lambda kv: -kv[1]["s"]):
        print(f"; {path:36s} {entry['s']:>10.4f} {entry['calls']:>8d}",
              file=out)


def _read_text(path: str) -> str:
    return sys.stdin.read() if path == "-" else open(path).read()


def _read_module(path: str):
    return parse_module(_read_text(path))


def _policy_options(args) -> AllocationOptions | None:
    """Options carrying ``--policy``, or None when it was not given.

    None keeps every call site on its historical default-options path —
    the flag's absence must not perturb anything.
    """
    spec = getattr(args, "policy", None)
    if spec is None:
        return None
    try:
        return AllocationOptions.from_env(policy=load_policy(spec))
    except (ValueError, OSError) as err:
        raise ReproError(f"--policy: {err}") from err


def _cmd_alloc(args, out) -> int:
    if args.json:
        # One-shot direct run: a fixed id keeps the output deterministic
        # (submit generates unique ids; a server queue needs them).
        request = AllocationRequest(
            id="cli",
            ir=_read_text(args.file),
            allocator=args.allocator,
            machine=MachineSpec(regs=args.regs),
            options=_policy_options(args),
        )
        response = execute_request(request)
        print(canonical_json(allocation_payload(response)), file=out)
        return 0
    machine = make_machine(args.regs)
    module = _read_module(args.file)
    prepared = prepare_module(module, machine)
    run = allocate_module(prepared, machine,
                          ALLOCATOR_CHOICES[args.allocator](),
                          _policy_options(args))
    for result in run.results:
        print(print_function(result.func), file=out)
        print(file=out)
    stats, cycles = run.stats, run.cycles
    print(f"; allocator        : {stats.allocator}", file=out)
    print(f"; moves eliminated : {stats.moves_eliminated}"
          f"/{stats.moves_before}", file=out)
    print(f"; spill instrs     : {stats.spill_instructions}", file=out)
    print(f"; estimated cycles : {cycles.total:.0f} "
          f"({cycles.describe()})", file=out)
    return 0


def _cmd_compare(args, out) -> None:
    machine = make_machine(args.regs)
    module = _read_module(args.file)
    prepared = prepare_module(module, machine)
    options = _policy_options(args)
    if args.json:
        print(_comparison_json(prepared, machine, options=options),
              file=out)
        return
    _comparison_table(prepared, machine, out, options)


def _cmd_bench(args, out) -> None:
    machine = make_machine(args.regs)
    module = make_benchmark(args.name)
    prepared = prepare_module(module, machine)
    options = _policy_options(args)
    if args.json:
        print(_comparison_json(prepared, machine, bench=args.name,
                               options=options), file=out)
        return
    print(f"benchmark {args.name}: {len(prepared.functions)} functions, "
          f"{prepared.instruction_count()} instructions, "
          f"{args.regs} regs/class", file=out)
    _comparison_table(prepared, machine, out, options)


def _comparison_table(prepared, machine, out, options=None) -> None:
    header = (f"{'allocator':20s} {'moves elim.':>12s} {'spills':>7s} "
              f"{'caller-save':>12s} {'paired':>7s} {'cycles':>9s}")
    print(header, file=out)
    print("-" * len(header), file=out)
    for name, factory in ALLOCATOR_CHOICES.items():
        run = allocate_module(prepared, machine, factory(), options)
        stats, cycles = run.stats, run.cycles
        print(f"{name:20s} "
              f"{stats.moves_eliminated:5d}/{stats.moves_before:<6d} "
              f"{stats.spill_instructions:7d} "
              f"{cycles.caller_save_cycles:12.0f} "
              f"{cycles.paired_loads_fused:7d} "
              f"{cycles.total:9.0f}", file=out)


def _comparison_json(prepared, machine, bench: str | None = None,
                     options=None) -> str:
    """Every allocator's result in the service response schema."""
    from repro.service.protocol import AllocationResponse, machine_descriptor

    results = {}
    for name, factory in ALLOCATOR_CHOICES.items():
        run = allocate_module(prepared, machine, factory(), options)
        response = AllocationResponse(
            ok=True,
            allocator=name,
            effective_allocator=name,
            code=render_allocation(run),
            stats=stats_to_dict(run.stats),
            cycles=cycles_to_dict(run.cycles),
        ).seal()
        results[name] = allocation_payload(response)
    return canonical_json(
        comparison_payload(machine_descriptor(machine), results, bench)
    )


def _cmd_serve(args, out) -> None:
    overrides = {"jobs": args.jobs}
    if args.cache_dir:  # --cache-dir beats $REPRO_CACHE_DIR
        overrides["cache_dir"] = args.cache_dir
    options = AllocationOptions.from_env(**overrides)
    if args.cache_peer:
        from repro.cluster.cachepeer import PeerCacheBackend, parse_hostport

        peer_host, peer_port = parse_hostport(args.cache_peer)
        cache = ResultCache(max_entries=args.cache_size,
                            backend=PeerCacheBackend(peer_host, peer_port))
    else:
        disk_dir = None
        if not args.no_disk_cache:
            disk_dir = default_cache_dir(options)
        cache = ResultCache(max_entries=args.cache_size, disk_dir=disk_dir)
    metrics = ServiceMetrics()
    scheduler = Scheduler(cache=cache, metrics=metrics, options=options,
                          max_queue=args.max_queue)
    if args.stdio:
        scheduler.start()
        try:
            serve_stdio(scheduler, sys.stdin, out)
        finally:
            scheduler.stop()
            print(canonical_json(final_stats_payload(metrics.snapshot(),
                                                     cache.snapshot())),
                  file=sys.stderr)
        return
    server = ServerThread(scheduler, args.host, args.port)
    host, port = server.start()
    print(f"repro service listening on {host}:{port}", file=out, flush=True)
    try:
        server.join()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        print(canonical_json(final_stats_payload(metrics.snapshot(),
                                                 cache.snapshot())),
              file=out, flush=True)


def _cmd_submit(args, out) -> int:
    base = getattr(args, "base", None)
    # An explicit options object silences the bare constructor knobs,
    # so --deadline must ride inside it whenever --policy forces one.
    options = _policy_options(args)
    if options is not None and args.deadline is not None:
        options = options.replace(deadline_ms=args.deadline * 1000.0)
    request = AllocationRequest(
        id=f"cli-{uuid.uuid4().hex[:12]}",
        ir=_read_text(args.file) if args.file else None,
        bench=args.bench,
        allocator=args.allocator,
        machine=MachineSpec(regs=args.regs),
        deadline_s=args.deadline,
        options=options,
        base_digest=(None if base is None
                     else ("" if base == "new" else base)),
    )
    client = ServiceClient(args.host, args.port)
    response = client.allocate(request)
    if args.json:
        print(canonical_json(allocation_payload(response)), file=out)
        return 0 if response.ok else 1
    if not response.ok:
        raise ServiceError(response.error)
    stats = response.stats
    flags = []
    if response.cached:
        flags.append("cached")
    if response.degraded:
        flags.append(f"degraded->{response.effective_allocator}")
    if response.session_digest:
        flags.append(f"session {response.session_digest}")
    print(f"{response.effective_allocator}: "
          f"moves {stats['moves_eliminated']}/{stats['moves_before']}, "
          f"spills {stats['spill_instructions']}, "
          f"cycles {response.cycles['total']:.0f}"
          f"{' [' + ', '.join(flags) + ']' if flags else ''}", file=out)
    return 0


def _cmd_stats(args, out) -> None:
    client = ServiceClient(args.host, args.port)
    print(canonical_json(client.stats()), file=out)


def _cmd_cluster(args, out) -> int:
    """Dispatch ``cluster {serve,submit,stats}``.

    ``submit``/``stats`` reuse the single-server implementations
    verbatim — the router speaks the identical protocol, only the
    default port differs (and argparse already applied it).
    """
    if args.cluster_command == "serve":
        return cmd_cluster_serve(args, out)
    if args.cluster_command == "submit":
        return _cmd_submit(args, out) or 0
    _cmd_stats(args, out)
    return 0


def _cmd_example(out) -> None:
    from repro.target.lowering import lower_function
    from repro.workloads.figures import figure7_function

    machine = figure7_machine()
    func = figure7_function()
    print("Figure 7(a):", file=out)
    print(print_function(func), file=out)
    lower_function(func, machine)
    allocator = PreferenceDirectedAllocator(keep_trace=True)
    result = allocate_function(func, machine, allocator)
    print("\nselection trace:", file=out)
    print(allocator.last_trace, file=out)
    print("\nFigure 7(h):", file=out)
    print(print_function(func), file=out)
    report = estimate_cycles(func, machine)
    print(f"\nmoves eliminated {result.stats.moves_eliminated}"
          f"/{result.stats.moves_before}; paired loads fused "
          f"{report.paired_loads_fused}", file=out)


def _cmd_targets(out) -> None:
    for label, factory in PRESSURE_MODELS.items():
        print(f"--- {label} ---", file=out)
        print(factory().describe(), file=out)
        print(file=out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
