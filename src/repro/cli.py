"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands mirror the library's main flows:

* ``repro stats [FILE]`` — structural statistics and the derived
  channel count of a specification (the bundled medical system when no
  file is given); ``--daemon HOST:PORT`` instead prints a running
  daemon's ``/v1/stats`` snapshot (``--metrics`` for the raw
  Prometheus exposition), ``--journal PATH`` summarises — or with
  ``--follow`` tails — a JSONL event journal;
* ``repro print [FILE]`` — pretty-print a specification (round-trips
  the concrete syntax);
* ``repro simulate [FILE] [--input name=value ...]`` — execute the
  functional model and report outputs;
* ``repro partition [FILE] --algorithm greedy|kl|annealed`` — run a
  baseline partitioner and print the result;
* ``repro refine [FILE] --design D --model M [-o OUT]`` — run model
  refinement and (optionally) write the refined source;
* ``repro figure9`` / ``repro figure10 [--check]`` — regenerate the
  paper's evaluation tables;
* ``repro verify --design D --model M`` — co-simulate original vs
  refined (the equivalence check);
* ``repro robustness`` — the fault-injection campaign (scenarios x
  designs x models) against the timeout-and-retry protocol;
* ``repro profile --design D --model M`` — the instrumented
  refine → simulate → verify pipeline: kernel counters and per-phase
  wall-clock as a table plus JSON under ``benchmarks/output/``
  (``--json`` prints the JSON to stdout instead);
* ``repro trace --design D --model M [-o trace.json]`` — run the whole
  parse → validate → partition → refine → estimate → export → simulate
  pipeline under a hierarchical span tracer and export Chrome
  trace-event JSON (loadable in Perfetto / ``chrome://tracing``);
* ``repro explain LINE --design D --model M`` — refinement provenance:
  which refinement procedure and rule produced a given line of the
  refined specification (``--all`` summarises every line, ``--check``
  asserts completeness);
* ``repro simulate --vcd out.vcd`` — additionally dump every signal
  change of the run as a GTKWave-compatible VCD waveform;
* ``repro fuzz --seed 0 --count 200`` — the differential fuzzing
  campaign: seeded random specifications judged by the round-trip,
  walker-parity and refinement-equivalence oracles, with the
  regression corpus replayed first (exit 1 on any surviving failure);
* ``repro sweep --design Design1 --model Model1 --protocol handshake
  --seed 0`` — cross-product campaign (every flag repeatable) that
  refines and verifies each combination under a seeded stimulus;
* ``repro explore`` — multi-objective design-space exploration:
  layered partitioner search (greedy/annealed, then KL seeded from the
  quality cache, then re-annealed frontier members) over allocations x
  models x protocols, keeping a Pareto frontier over (bus traffic,
  refined lines, estimated cost) with dominance-based early stopping
  (see ``docs/EXPLORATION.md``);
* ``repro serve`` — the refinement-as-a-service daemon: HTTP/JSON jobs
  on the execution engine with deadlines, backpressure, a circuit
  breaker and graceful drain (see ``docs/SERVICE.md``);
* ``repro loadgen`` — the seeded load harness against a running (or
  ``--serve`` self-hosted) daemon; writes a byte-stable report under
  ``benchmarks/output/``.

The campaign commands (``figure9``, ``figure10``, ``robustness``,
``fuzz``, ``sweep``, ``explore``) share the execution-engine flags: ``--executor
serial|process``, ``--workers N``, ``--job-timeout S``, plus the result
cache (``--cache DIR`` to enable, ``--no-cache``, ``--refresh``) and
``--journal PATH`` (structured campaign/job events
with a shared run ID; see ``docs/OBSERVABILITY.md``).  Campaign tables
print to stdout; engine/cache
statistics print to stderr, so stdout stays byte-comparable across
executors.  See ``docs/EXECUTION.md``.

SIGINT/SIGTERM during a campaign is graceful: worker processes are
terminated, cache scratch files removed, a partial-campaign note goes
to stderr, and the process exits 130 — never a raw traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from typing import Dict, List, Optional

from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def _load_spec(path: Optional[str], workload: Optional[str] = None):
    from repro.lang.parser import parse

    if path is not None:
        with open(path) as handle:
            spec = parse(handle.read())
    else:
        from repro.apps.workloads import resolve_workload

        spec = resolve_workload(workload).spec()
    spec.validate()
    return spec


def _resolve_partition(spec, args):
    """Partition from --design, looked up in the registry workload's
    design catalog (default: the medical system's Design1/2/3)."""
    from repro.apps.workloads import resolve_workload

    workload = resolve_workload(getattr(args, "workload", None))
    designs = workload.designs(spec)
    if getattr(args, "design", None):
        if args.design not in designs:
            raise ReproError(
                f"unknown design {args.design!r}; choose from {sorted(designs)}"
            )
        return designs[args.design]
    raise ReproError(f"a --design is required (choose from {sorted(designs)})")


def _parse_inputs(pairs: List[str]) -> Dict[str, int]:
    inputs: Dict[str, int] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ReproError(f"--input expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        inputs[name.strip()] = int(value)
    return inputs


def _parse_limits(args):
    """--max-steps / --max-delta into a KernelLimits (or None)."""
    max_steps = getattr(args, "max_steps", None)
    max_delta = getattr(args, "max_delta", None)
    if max_steps is None and max_delta is None:
        return None
    from repro.sim import KernelLimits

    defaults = KernelLimits()
    return KernelLimits(
        max_steps=max_steps if max_steps is not None else defaults.max_steps,
        max_delta=max_delta if max_delta is not None else defaults.max_delta,
    )


def _add_workload_option(p) -> None:
    p.add_argument("--workload", default=None, metavar="ID",
                   help="registry workload supplying the specification, "
                        "design catalog and default stimulus (default "
                        "medical; see 'repro workloads')")


def _add_exec_options(p) -> None:
    """The shared execution-engine flags of every campaign command."""
    group = p.add_argument_group("execution engine")
    group.add_argument("--executor", choices=("serial", "process"),
                       default="serial",
                       help="job executor (default serial; process = "
                            "kept worker processes)")
    group.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes (default: min(4, CPUs))")
    group.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-clock budget (process executor)")
    group.add_argument("--cache", nargs="?", const="", default=None,
                       metavar="DIR",
                       help="enable the result cache (default dir: "
                            "$REPRO_CACHE_DIR or .repro_cache)")
    group.add_argument("--no-cache", action="store_true",
                       help="bypass the cache entirely")
    group.add_argument("--refresh", action="store_true",
                       help="recompute every job but refill the cache "
                            "(needs --cache)")
    group.add_argument("--journal", metavar="PATH", default=None,
                       help="append campaign/engine events to this JSONL "
                            "journal (see docs/OBSERVABILITY.md)")


def _build_engine(args, tracer=None):
    """An :class:`repro.exec.ExecutionEngine` from the shared flags."""
    from repro.exec import (
        ExecutionEngine,
        ResultCache,
        default_cache_dir,
        resolve_executor,
    )

    options = {}
    if args.executor == "process":
        if args.workers is not None:
            options["workers"] = args.workers
        options["timeout"] = args.job_timeout
    executor = resolve_executor(args.executor, **options)
    cache = None
    if args.cache is not None and not args.no_cache:
        cache = ResultCache(args.cache or default_cache_dir())
    journal = None
    if getattr(args, "journal", None):
        from repro.obs.events import EventJournal

        journal = EventJournal(path=args.journal)
    return ExecutionEngine(
        executor=executor,
        cache=cache,
        tracer=tracer,
        refresh=args.refresh,
        journal=journal,
    )


def _print_exec_stats(engine) -> None:
    """Engine counters to stderr — stdout carries only the campaign
    report, so it stays byte-comparable across executors."""
    print(engine.describe(), file=sys.stderr)


@contextlib.contextmanager
def _campaign_guard(engine, command: str):
    """Graceful SIGINT/SIGTERM for a campaign command.

    SIGTERM is converted to :class:`KeyboardInterrupt` so both signals
    take one path: terminate the engine's worker processes, remove cache
    scratch files, print a partial-campaign note to stderr, and let
    :func:`main` exit 130 — never a raw traceback, never an orphaned
    worker or ``.tmp-*`` file.  A campaign that completes releases
    its workers too, so an in-process ``main()`` call leaves none.
    """

    def _terminate(signum, frame):  # noqa: ARG001 — signal contract
        raise KeyboardInterrupt

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        pass  # not the main thread (embedded use); SIGINT still works
    try:
        yield
    except KeyboardInterrupt:
        engine.abort()
        print(
            f"repro {command}: interrupted - campaign stopped early "
            "(workers terminated, cache scratch files removed); "
            "partial results were not written",
            file=sys.stderr,
        )
        raise
    finally:
        engine.release()
        engine.journal.close()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


# -- subcommand handlers -------------------------------------------------------


def _stats_daemon(args) -> int:
    """``repro stats --daemon HOST:PORT``: a live telemetry snapshot."""
    import json

    from repro.serve.client import ClientError, ReproClient

    host, _, port = args.daemon.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(f"--daemon expects HOST:PORT, got {args.daemon!r}")
    client = ReproClient(host=host, port=int(port), retries=1)
    try:
        if args.metrics:
            from repro.obs.metrics import validate_exposition

            text = client.metrics_text()
            if not text:
                print(
                    "error: daemon runs with telemetry off (no /metrics)",
                    file=sys.stderr,
                )
                return 1
            validate_exposition(text)
            sys.stdout.write(text)
            return 0
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
        return 0
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _stats_journal(args) -> int:
    """``repro stats --journal PATH [--follow]``: summarise or tail a
    JSONL event journal."""
    import time

    from repro.obs.events import read_journal, validate_journal

    if args.follow:
        with open(args.journal) as handle:
            try:
                while True:
                    line = handle.readline()
                    if line:
                        sys.stdout.write(line)
                        sys.stdout.flush()
                    else:
                        time.sleep(0.2)
            except KeyboardInterrupt:
                return 0
    records = read_journal(args.journal)
    validate_journal(records)
    by_kind: Dict[str, int] = {}
    request_ids = set()
    for record in records:
        kind = str(record["kind"])
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if record["request_id"]:
            request_ids.add(record["request_id"])
    print(
        f"journal {args.journal}: {len(records)} records, "
        f"{len(request_ids)} request/run ids"
    )
    for kind in sorted(by_kind):
        print(f"  {kind:<20} {by_kind[kind]:>6}")
    return 0


def _cmd_stats(args) -> int:
    from repro.graph import AccessGraph

    if args.daemon:
        return _stats_daemon(args)
    if args.journal:
        return _stats_journal(args)
    spec = _load_spec(args.file)
    stats = spec.stats()
    graph = AccessGraph.from_specification(spec)
    print(f"specification {spec.name}")
    for key, value in stats.as_dict().items():
        print(f"  {key}: {value}")
    print(f"  data-access channels: {graph.channel_count()}")
    print(f"  source lines: {spec.line_count()}")
    return 0


def _cmd_print(args) -> int:
    from repro.lang.printer import print_specification

    spec = _load_spec(args.file)
    sys.stdout.write(print_specification(spec))
    return 0


def _cmd_simulate(args) -> int:
    from repro.sim import Simulator

    spec = _load_spec(args.file)
    observer = None
    if args.vcd:
        from repro.obs.vcd import VCDWriter

        observer = VCDWriter()
    result = Simulator(spec).run(
        inputs=_parse_inputs(args.input),
        limits=_parse_limits(args),
        observer=observer,
    )
    status = "completed" if result.completed else "DID NOT COMPLETE"
    print(f"simulation {status} ({result.steps} scheduler steps)")
    for name, value in result.output_values().items():
        print(f"  {name} = {value}")
    if observer is not None:
        import os

        os.makedirs(os.path.dirname(args.vcd) or ".", exist_ok=True)
        observer.write(args.vcd)
        print(
            f"VCD waveform written to {args.vcd} "
            f"({len(observer.changes)} signal changes)"
        )
    return 0 if result.completed else 1


def _cmd_partition(args) -> int:
    from repro.graph import AccessGraph, classify_variables
    from repro.partition import (
        annealed_partition,
        greedy_partition,
        kl_partition,
        partition_cost,
    )

    spec = _load_spec(args.file)
    graph = AccessGraph.from_specification(spec)
    algorithms = {
        "greedy": greedy_partition,
        "kl": kl_partition,
        "annealed": annealed_partition,
    }
    kwargs = {}
    if args.algorithm == "annealed" and args.seed is not None:
        kwargs["seed"] = args.seed
    partition = algorithms[args.algorithm](spec, graph=graph, **kwargs)
    print(partition.describe())
    print(f"cost: {partition_cost(graph, partition):.3f}")
    if partition.p >= 2:
        print(classify_variables(graph, partition).describe())
    return 0


def _cmd_refine(args) -> int:
    from repro.lang.printer import print_specification
    from repro.models import resolve_model
    from repro.refine import Refiner

    spec = _load_spec(args.file)
    partition = _resolve_partition(spec, args)
    design = Refiner(
        spec, partition, resolve_model(args.model), protocol=args.protocol
    ).run()
    print(design.describe())
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(print_specification(design.spec))
        print(f"refined specification written to {args.output}")
    return 0


def _cmd_verify(args) -> int:
    from repro.models import resolve_model
    from repro.refine import Refiner
    from repro.sim.equivalence import check_equivalence

    spec = _load_spec(args.file)
    partition = _resolve_partition(spec, args)
    design = Refiner(
        spec, partition, resolve_model(args.model), protocol=args.protocol
    ).run()
    report = check_equivalence(
        design, inputs=_parse_inputs(args.input), limits=_parse_limits(args)
    )
    print(report.describe())
    return 0 if report.equivalent else 1


def _cmd_export_c(args) -> int:
    from repro.export import export_c

    spec = _load_spec(args.file)
    source = export_c(spec, inputs=_parse_inputs(args.input))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(source)
        print(f"C translation unit written to {args.output}")
    else:
        sys.stdout.write(source)
    return 0


def _cmd_export_vhdl(args) -> int:
    from repro.export import export_vhdl

    spec = _load_spec(args.file)
    top = None
    if getattr(args, "design", None):
        from repro.models import resolve_model
        from repro.refine import Refiner

        partition = _resolve_partition(spec, args)
        design = Refiner(spec, partition, resolve_model(args.model)).run()
        spec = design.spec
    source = export_vhdl(spec, entity_name=args.entity)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(source)
        print(f"VHDL written to {args.output}")
    else:
        sys.stdout.write(source)
    return 0


def _cmd_figure9(args) -> int:
    from repro.experiments import run_figure9

    engine = _build_engine(args)
    with _campaign_guard(engine, "figure9"):
        result = run_figure9(engine=engine, workload=args.workload)
        print(result.render(include_paper=not args.no_paper))
        _print_exec_stats(engine)
    return 0


def _cmd_figure10(args) -> int:
    from repro.experiments import run_figure10

    engine = _build_engine(args)
    with _campaign_guard(engine, "figure10"):
        result = run_figure10(
            check_equivalence=args.check, engine=engine, workload=args.workload
        )
        print(result.render(include_paper=not args.no_paper))
        if args.breakdown:
            print()
            print(result.render_breakdown())
        _print_exec_stats(engine)
    return 0


def _cmd_robustness(args) -> int:
    from repro.experiments.robustness import run_robustness

    engine = _build_engine(args)
    with _campaign_guard(engine, "robustness"):
        result = run_robustness(
            seed=args.seed,
            protocol=args.protocol,
            designs=args.design or None,
            models=args.model or None,
            engine=engine,
            workload=args.workload,
        )
        rendered = result.render()
        print(rendered)
        if args.output:
            import os

            os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
            with open(args.output, "w") as handle:
                handle.write(rendered + "\n")
            print(f"\ncampaign table written to {args.output}")
        _print_exec_stats(engine)
    return 1 if result.unexpected() else 0


def _cmd_profile(args) -> int:
    from repro.experiments.profiling import run_profile

    spec = _load_spec(args.file)
    partition = _resolve_partition(spec, args)
    report = run_profile(
        spec,
        partition,
        model=args.model,
        protocol=args.protocol,
        design=args.design,
        inputs=_parse_inputs(args.input) or None,
        limits=_parse_limits(args),
        verify=not args.no_verify,
    )
    if args.json:
        print(report.as_json())
    else:
        print(report.render())
    if args.output:
        import os

        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        with open(args.output, "w") as handle:
            handle.write(report.as_json() + "\n")
        if not args.json:
            print(f"\nprofile JSON written to {args.output}")
    return 0 if report.equivalent in (True, None) else 1


def _default_inputs(spec, args) -> Dict[str, object]:
    """--input pairs, falling back to the medical stimulus if it fits."""
    inputs: Dict[str, object] = dict(_parse_inputs(args.input))
    if not inputs:
        from repro.apps.medical import MEDICAL_INPUTS

        port_names = {v.name for v in spec.variables}
        inputs = {
            name: value
            for name, value in MEDICAL_INPUTS.items()
            if name in port_names
        }
    return inputs


def _cmd_trace(args) -> int:
    import json

    from repro.estimate import profile_specification
    from repro.export import export_c, export_vhdl
    from repro.models import resolve_model
    from repro.obs.trace import SpanTracer, validate_chrome_trace
    from repro.refine import Refiner
    from repro.sim import Simulator

    tracer = SpanTracer()
    source = args.file or "<bundled medical system>"
    with tracer.span("pipeline", source=source, design=args.design,
                     model=args.model):
        with tracer.span("parse") as span:
            if args.file is None:
                from repro.apps.medical import medical_specification

                spec = medical_specification()
            else:
                from repro.lang.parser import parse

                with open(args.file) as handle:
                    spec = parse(handle.read())
            span.set("lines", spec.line_count())
        with tracer.span("validate"):
            spec.validate()
        with tracer.span("partition") as span:
            partition = _resolve_partition(spec, args)
            span.set("components", partition.p)
        # the Refiner shares the tracer, so its per-procedure spans
        # (category "refine") nest under this one
        with tracer.span("refine") as span:
            design = Refiner(
                spec,
                partition,
                resolve_model(args.model),
                protocol=args.protocol,
                tracer=tracer,
            ).run()
            span.set("refined_lines", design.spec.line_count())
        inputs = _default_inputs(spec, args)
        with tracer.span("estimate") as span:
            profile = profile_specification(
                spec, partition, inputs=dict(inputs)
            )
            span.set("behaviors", len(profile.lifetimes))
        with tracer.span("export-c") as span:
            span.set("bytes", len(export_c(spec)))
        with tracer.span("export-vhdl") as span:
            span.set("bytes", len(export_vhdl(design.spec)))
        limits = _parse_limits(args)
        with tracer.span("simulate-original") as span:
            run = Simulator(spec).run(inputs=dict(inputs), limits=limits)
            span.set("steps", run.steps)
        with tracer.span("simulate-refined") as span:
            run = Simulator(design.spec).run(inputs=dict(inputs), limits=limits)
            span.set("steps", run.steps)

    print(tracer.describe())
    payload = tracer.to_chrome_json()
    events = validate_chrome_trace(json.loads(payload))
    if args.output:
        import os

        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        with open(args.output, "w") as handle:
            handle.write(payload + "\n")
        print(
            f"\nChrome trace ({events} events) written to {args.output} "
            "- load it in Perfetto or chrome://tracing"
        )
    return 0


def _cmd_fuzz(args) -> int:
    from repro.experiments.fuzzing import run_fuzz

    tracer = None
    if args.trace:
        from repro.obs.trace import SpanTracer

        tracer = SpanTracer()
    corpus = args.corpus if args.corpus else None
    engine = _build_engine(args, tracer=tracer)
    with _campaign_guard(engine, "fuzz"):
        kwargs = dict(
            seed=args.seed,
            count=args.count,
            models=args.model or None,
            budget=args.budget,
            vectors=args.vectors,
            corpus=corpus,
            engine=engine,
        )
        if tracer is not None:
            with tracer.span("fuzz", seed=args.seed, count=args.count):
                report = run_fuzz(**kwargs)
        else:
            report = run_fuzz(**kwargs)
        rendered = report.as_json() if args.json else report.render()
        print(rendered)
        if args.output:
            import os

            os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
            with open(args.output, "w") as handle:
                handle.write(rendered + "\n")
            print(f"\ncampaign report written to {args.output}")
        if tracer is not None:
            import os

            os.makedirs(os.path.dirname(args.trace) or ".", exist_ok=True)
            with open(args.trace, "w") as handle:
                handle.write(tracer.to_chrome_json() + "\n")
            print(f"Chrome trace written to {args.trace}")
        _print_exec_stats(engine)
    return 0 if report.ok else 1


def _cmd_sweep(args) -> int:
    import json

    from repro.experiments.sweep import run_sweep

    tracer = None
    if args.trace:
        from repro.obs.trace import SpanTracer

        tracer = SpanTracer()
    engine = _build_engine(args, tracer=tracer)
    with _campaign_guard(engine, "sweep"):
        result = run_sweep(
            spec=_load_spec(args.file) if args.file else None,
            workload=args.workload,
            designs=args.design or None,
            models=args.model or None,
            protocols=args.protocol or None,
            seeds=[int(s) for s in args.seed] if args.seed else None,
            inputs=_parse_inputs(args.input) or None,
            limits=_parse_limits(args),
            engine=engine,
            batch=args.batch,
        )
        rendered = result.as_json() if args.json else result.render()
        print(rendered)
        if args.output:
            import os

            os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
            with open(args.output, "w") as handle:
                handle.write(rendered + "\n")
            print(f"\nsweep table written to {args.output}")
        if tracer is not None:
            import os

            from repro.obs.trace import validate_chrome_trace

            payload = tracer.to_chrome_json()
            validate_chrome_trace(json.loads(payload))
            os.makedirs(os.path.dirname(args.trace) or ".", exist_ok=True)
            with open(args.trace, "w") as handle:
                handle.write(payload + "\n")
            print(f"Chrome trace written to {args.trace}")
        _print_exec_stats(engine)
    return 0 if result.ok else 1


def _cmd_explore(args) -> int:
    import json

    from repro.experiments.explore import run_explore

    tracer = None
    if args.trace:
        from repro.obs.trace import SpanTracer

        tracer = SpanTracer()
    engine = _build_engine(args, tracer=tracer)
    with _campaign_guard(engine, "explore"):
        result = run_explore(
            spec=_load_spec(args.file) if args.file else None,
            workload=args.workload,
            allocations=args.allocation or None,
            models=args.model or None,
            protocols=args.protocol or None,
            inputs=_parse_inputs(args.input) or None,
            **(
                {"anneal_seeds": tuple(int(s) for s in args.anneal_seed)}
                if args.anneal_seed else {}
            ),
            **(
                {"reanneal_seeds": tuple(int(s) for s in args.reanneal_seed)}
                if args.reanneal_seed else {}
            ),
            top_k=args.top_k,
            frontier_seed_cap=args.frontier_seeds,
            max_cells=args.max_cells,
            limits=_parse_limits(args),
            engine=engine,
        )
        rendered = result.as_json() if args.json else result.render()
        print(rendered)
        if args.output:
            import os

            os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
            with open(args.output, "w") as handle:
                handle.write(rendered + "\n")
            print(f"\nexplore report written to {args.output}")
        if tracer is not None:
            import os

            from repro.obs.trace import validate_chrome_trace

            payload = tracer.to_chrome_json()
            validate_chrome_trace(json.loads(payload))
            os.makedirs(os.path.dirname(args.trace) or ".", exist_ok=True)
            with open(args.trace, "w") as handle:
                handle.write(payload + "\n")
            print(f"Chrome trace written to {args.trace}")
        _print_exec_stats(engine)
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        executor=args.executor,
        default_deadline=args.default_deadline,
        max_deadline=args.max_deadline,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        cache_dir=args.cache or None,
        cache_capacity=args.cache_capacity,
        no_cache=args.no_cache,
        drain_grace=args.drain_grace,
        trace=args.trace,
        chaos=args.chaos,
        verbose=args.verbose,
        telemetry=not args.no_telemetry,
        journal_path=args.journal,
        flight_dir=args.flight_dir,
        flight_capacity=args.flight_capacity,
    )
    return run_server(config)


def _cmd_loadgen(args) -> int:
    from repro.serve import LoadgenConfig, run_loadgen

    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        seed=args.seed,
        clients=args.clients,
        requests=args.requests,
        cases=args.cases,
        vectors=args.vectors,
        budget=args.budget,
        deadline=args.deadline,
        retries=args.retries,
        journal_path=args.journal,
    )
    server = None
    if args.serve:
        from repro.serve import ReproServer, ServeConfig

        server = ReproServer(
            ServeConfig(
                host=args.host,
                port=0,
                workers=args.serve_workers,
                queue_limit=args.serve_queue_limit,
                no_cache=True,
            )
        ).start()
        config.port = server.port
        print(f"loadgen: self-hosted daemon on {server.url}", file=sys.stderr)
    try:
        result = run_loadgen(config)
    finally:
        if server is not None:
            server.begin_drain("loadgen finished")
            server.wait(timeout=10.0)
    print(result.report, end="")
    if args.output:
        import os

        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        with open(args.output, "w") as handle:
            handle.write(result.report)
        print(f"report written to {args.output}", file=sys.stderr)
    if args.timings:
        import json as _json
        import os

        os.makedirs(os.path.dirname(args.timings) or ".", exist_ok=True)
        with open(args.timings, "w") as handle:
            handle.write(_json.dumps(result.timings, indent=2, sort_keys=True) + "\n")
        print(f"timing sidecar written to {args.timings}", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_workloads(args) -> int:
    from repro.apps.workloads import default_registry
    from repro.experiments.tables import render_table

    registry = default_registry()
    if args.describe:
        workload = registry.get(args.describe)
        spec = workload.spec()
        print(f"workload {workload.id}: {workload.title}")
        print(f"  category:   {workload.category}")
        print(f"  spec:       {spec.name} "
              f"({len(list(spec.top.iter_tree()))} behaviors, "
              f"{spec.line_count()} lines)")
        designs = workload.designs(spec)
        marks = [
            name + (" (default)" if name == workload.default_design else "")
            for name in sorted(designs)
        ]
        print(f"  designs:    {', '.join(marks)}")
        stimulus = ", ".join(
            f"{k}={v}" for k, v in sorted(workload.default_inputs.items())
        ) or "(port defaults)"
        print(f"  stimulus:   {stimulus}")
        if workload.invariants:
            ranges = ", ".join(
                f"{name} in [{lo}, {hi}]"
                for name, (lo, hi) in sorted(workload.invariants.items())
            )
            print(f"  invariants: {ranges}")
        print(f"  {workload.description}")
        return 0
    if args.validate:
        failed = 0
        for workload, summary, error in registry.validate_all():
            if error is not None:
                failed += 1
                print(f"{workload.id}: FAIL - {error}")
            else:
                print(f"{workload.id}: {summary}")
        print(f"\n{len(registry) - failed}/{len(registry)} workloads valid")
        return 1 if failed else 0
    rows = []
    for workload in registry:
        spec = workload.spec()
        rows.append(
            [
                workload.id,
                workload.category,
                str(len(workload.designs(spec))),
                str(spec.line_count()),
                workload.title,
            ]
        )
    print(render_table(
        ["Workload", "Category", "Designs", "Lines", "Title"],
        rows,
        title="Registered workloads (see docs/WORKLOADS.md)",
    ))
    return 0


def _cmd_validate_hdl(args) -> int:
    from repro.export.validate import detect_toolchain, validate_workloads

    toolchain = detect_toolchain()
    print(f"toolchain: {toolchain.describe()}", file=sys.stderr)
    reports = validate_workloads(
        workloads=args.workload or None,
        models=tuple(args.model) if args.model else ("Model1",),
        toolchain=toolchain,
    )
    failed = 0
    for index, report in enumerate(reports):
        if index:
            print()
        print(report.render())
        if not report.ok:
            failed += 1
    if failed:
        print(f"\nvalidation FAILED for {failed} workload(s)", file=sys.stderr)
        return 1
    if toolchain.ghdl is None:
        print("\nnotice: ghdl not found - VHDL co-simulation was skipped",
              file=sys.stderr)
    return 0


def _cmd_explain(args) -> int:
    from repro.models import resolve_model
    from repro.obs.explain import SpecExplainer
    from repro.obs.provenance import provenance_report
    from repro.refine import Refiner

    spec = _load_spec(args.file)
    partition = _resolve_partition(spec, args)
    design = Refiner(
        spec, partition, resolve_model(args.model), protocol=args.protocol
    ).run()
    explainer = SpecExplainer(design.spec, spec)

    if args.check:
        unresolved = explainer.unresolved()
        report = provenance_report(design.spec, spec)
        print(report.describe())
        if unresolved:
            print(f"\nUNRESOLVED lines ({len(unresolved)}):")
            for item in unresolved:
                print(f"  {item.line_no}: {item.text}")
            return 1
        total = len(explainer.text.splitlines())
        print(f"\nall {total} refined lines resolve to a refinement step")
        return 0
    if args.all:
        print(explainer.summary())
        return 0
    if not args.line:
        raise ReproError("a LINE argument is required (or use --all/--check)")
    token = args.line
    if ":" in token:
        _, _, token = token.rpartition(":")
    try:
        line_no = int(token)
    except ValueError:
        raise ReproError(f"LINE must be an integer or file:line, got {args.line!r}")
    print(explainer.explain(line_no).describe())
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Model refinement for hardware-software codesign "
            "(Gong, Gajski & Bakshi, DATE 1996) - reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file(p):
        p.add_argument(
            "file",
            nargs="?",
            help="specification source file (default: the bundled medical system)",
        )

    p = sub.add_parser(
        "stats",
        help="specification statistics; or a daemon telemetry snapshot "
             "(--daemon) / an event-journal summary (--journal)",
    )
    add_file(p)
    p.add_argument("--daemon", metavar="HOST:PORT",
                   help="print a running daemon's /v1/stats snapshot "
                        "as JSON instead")
    p.add_argument("--metrics", action="store_true",
                   help="with --daemon: print the raw (locally "
                        "validated) Prometheus exposition instead")
    p.add_argument("--journal", metavar="PATH",
                   help="summarise a JSONL event journal instead")
    p.add_argument("--follow", action="store_true",
                   help="with --journal: tail the journal, printing "
                        "records as they are appended")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("print", help="pretty-print a specification")
    add_file(p)
    p.set_defaults(handler=_cmd_print)

    def add_limits(p):
        p.add_argument("--max-steps", type=int, metavar="N",
                       help="scheduler step budget (default 2000000)")
        p.add_argument("--max-delta", type=int, metavar="N",
                       help="consecutive delta-cycle budget (default unlimited)")

    p = sub.add_parser("simulate", help="execute the functional model")
    add_file(p)
    p.add_argument("--input", action="append", metavar="NAME=VALUE")
    add_limits(p)
    p.add_argument("--vcd", metavar="PATH",
                   help="dump signal changes as a VCD waveform (GTKWave)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("partition", help="run a baseline partitioner")
    add_file(p)
    p.add_argument(
        "--algorithm",
        choices=("greedy", "kl", "annealed"),
        default="greedy",
    )
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed for the annealed partitioner (default 1996)")
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("refine", help="run model refinement")
    add_file(p)
    p.add_argument("--design", required=True,
                   help="Design1, Design2 or Design3 (medical system)")
    p.add_argument("--model", default="Model1",
                   help="Model1..Model4 (default Model1)")
    p.add_argument("--protocol", default="handshake",
                   choices=("handshake", "strobe", "handshake-timeout"))
    p.add_argument("-o", "--output", help="write the refined source here")
    p.set_defaults(handler=_cmd_refine)

    p = sub.add_parser("verify", help="co-simulate original vs refined")
    add_file(p)
    p.add_argument("--design", required=True)
    p.add_argument("--model", default="Model1")
    p.add_argument("--protocol", default="handshake",
                   choices=("handshake", "strobe", "handshake-timeout"))
    p.add_argument("--input", action="append", metavar="NAME=VALUE")
    add_limits(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "export-c",
        help="generate a standalone C program from the functional model",
    )
    add_file(p)
    p.add_argument("--input", action="append", metavar="NAME=VALUE",
                   help="bake an input port value into the program")
    p.add_argument("-o", "--output", help="write the C source here")
    p.set_defaults(handler=_cmd_export_c)

    p = sub.add_parser(
        "export-vhdl",
        help="generate behavioral VHDL (optionally of a refined design)",
    )
    add_file(p)
    p.add_argument("--design", help="refine first: Design1/2/3 (medical)")
    p.add_argument("--model", default="Model1")
    p.add_argument("--entity", help="override the entity name")
    p.add_argument("-o", "--output", help="write the VHDL source here")
    p.set_defaults(handler=_cmd_export_vhdl)

    p = sub.add_parser("figure9", help="regenerate the Figure 9 table")
    p.add_argument("--no-paper", action="store_true",
                   help="omit the paper's reference rows")
    _add_workload_option(p)
    _add_exec_options(p)
    p.set_defaults(handler=_cmd_figure9)

    p = sub.add_parser("figure10", help="regenerate the Figure 10 table")
    p.add_argument("--check", action="store_true",
                   help="co-simulate every refined design (slower)")
    p.add_argument("--no-paper", action="store_true")
    p.add_argument("--breakdown", action="store_true",
                   help="also decompose each cell's CPU time per "
                        "refinement procedure")
    _add_workload_option(p)
    _add_exec_options(p)
    p.set_defaults(handler=_cmd_figure10)

    p = sub.add_parser(
        "robustness",
        help="fault-injection campaign: scenarios x designs x models",
    )
    p.add_argument("--seed", type=int, default=1996,
                   help="fault-injector RNG seed (default 1996)")
    p.add_argument("--protocol", default="handshake-timeout",
                   choices=("handshake", "strobe", "handshake-timeout"),
                   help="bus protocol the refined designs use")
    p.add_argument("--design", action="append",
                   help="restrict to a design (repeatable; default all)")
    p.add_argument("--model", action="append",
                   help="restrict to a model (repeatable; default all)")
    p.add_argument("-o", "--output",
                   default="benchmarks/output/robustness_campaign.txt",
                   help="write the campaign table here ('' to skip)")
    _add_workload_option(p)
    _add_exec_options(p)
    p.set_defaults(handler=_cmd_robustness)

    p = sub.add_parser(
        "profile",
        help="instrumented refine/simulate/verify pipeline with kernel counters",
    )
    add_file(p)
    p.add_argument("--design", required=True,
                   help="Design1, Design2 or Design3 (medical system)")
    p.add_argument("--model", default="Model1",
                   help="Model1..Model4 (default Model1)")
    p.add_argument("--protocol", default="handshake",
                   choices=("handshake", "strobe", "handshake-timeout"))
    p.add_argument("--input", action="append", metavar="NAME=VALUE")
    add_limits(p)
    p.add_argument("--no-verify", action="store_true",
                   help="skip the co-simulation (verify) phase")
    p.add_argument("-o", "--output",
                   default="benchmarks/output/profile.json",
                   help="write the profile JSON here ('' to skip)")
    p.add_argument("--json", action="store_true",
                   help="print the profile JSON to stdout instead of tables")
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser(
        "trace",
        help="run the whole pipeline under a span tracer; export "
             "Chrome trace-event JSON",
    )
    add_file(p)
    p.add_argument("--design", required=True,
                   help="Design1, Design2 or Design3 (medical system)")
    p.add_argument("--model", default="Model1",
                   help="Model1..Model4 (default Model1)")
    p.add_argument("--protocol", default="handshake",
                   choices=("handshake", "strobe", "handshake-timeout"))
    p.add_argument("--input", action="append", metavar="NAME=VALUE")
    add_limits(p)
    p.add_argument("-o", "--output",
                   default="benchmarks/output/trace.json",
                   help="write Chrome trace-event JSON here ('' to skip)")
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing campaign: generated specs x oracles",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default 0)")
    p.add_argument("--count", type=int, default=50,
                   help="number of generated cases (default 50)")
    p.add_argument("--budget", type=int, default=None,
                   help="generator statement budget (default 40)")
    p.add_argument("--vectors", type=int, default=3,
                   help="random input vectors per case (default 3)")
    p.add_argument("--model", action="append",
                   help="restrict refinement oracle to a model "
                        "(repeatable; default all four)")
    p.add_argument("--corpus", default="tests/corpus",
                   help="regression corpus to replay first ('' to skip)")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON instead of a table")
    p.add_argument("-o", "--output",
                   default="benchmarks/output/fuzz_campaign.txt",
                   help="write the report here ('' to skip)")
    p.add_argument("--trace", metavar="PATH",
                   help="also run under a span tracer and write Chrome "
                        "trace-event JSON here")
    _add_exec_options(p)
    p.set_defaults(handler=_cmd_fuzz)

    p = sub.add_parser(
        "sweep",
        help="cross-product campaign: designs x models x protocols x seeds",
    )
    add_file(p)
    p.add_argument("--design", action="append",
                   help="design to include (repeatable; default all three)")
    p.add_argument("--model", action="append",
                   help="model to include (repeatable; default all four)")
    p.add_argument("--protocol", action="append",
                   choices=("handshake", "strobe", "handshake-timeout"),
                   help="protocol to include (repeatable; default handshake)")
    p.add_argument("--seed", action="append", metavar="N",
                   help="stimulus seed to include (repeatable; default 0 = "
                        "the baseline input vector)")
    p.add_argument("--input", action="append", metavar="NAME=VALUE",
                   help="override the baseline stimulus")
    add_limits(p)
    p.add_argument("--batch", action="store_true",
                   help="group seeds of one (design, model, protocol) "
                        "into batched jobs of up to 8 seeds (same table, "
                        "fewer refinements)")
    p.add_argument("--json", action="store_true",
                   help="print a JSON report (cells + kernel-variant "
                        "counts) instead of the table")
    p.add_argument("-o", "--output",
                   default="benchmarks/output/sweep_campaign.txt",
                   help="write the sweep table here ('' to skip)")
    p.add_argument("--trace", metavar="PATH",
                   help="run under a span tracer and write Chrome "
                        "trace-event JSON here")
    _add_workload_option(p)
    _add_exec_options(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser(
        "explore",
        help="multi-objective design-space exploration: layered "
             "partitioner search with a Pareto frontier over "
             "(traffic, refined lines, cost)",
    )
    add_file(p)
    p.add_argument("--allocation", action="append",
                   help="allocation to include (repeatable; default all "
                        "named alternatives — see docs/EXPLORATION.md)")
    p.add_argument("--model", action="append",
                   help="model to include (repeatable; default all four)")
    p.add_argument("--protocol", action="append",
                   choices=("handshake", "strobe", "handshake-timeout"),
                   help="protocol to include (repeatable; default handshake)")
    p.add_argument("--input", action="append", metavar="NAME=VALUE",
                   help="override the baseline stimulus")
    p.add_argument("--anneal-seed", action="append", metavar="N",
                   help="layer-1 annealing seed (repeatable; "
                        "default 1996 and 2023)")
    p.add_argument("--reanneal-seed", action="append", metavar="N",
                   help="layer-3 re-annealing seed (repeatable; default 7)")
    p.add_argument("--top-k", type=int, default=2, metavar="K",
                   help="quality-cache width: candidates per allocation "
                        "that seed the KL layer (default 2)")
    p.add_argument("--frontier-seeds", type=int, default=2, metavar="N",
                   help="frontier members per allocation re-annealed in "
                        "layer 3 (default 2)")
    p.add_argument("--max-cells", type=int, default=None, metavar="N",
                   help="hard cell budget; the campaign stops "
                        "deterministically when it is reached")
    add_limits(p)
    p.add_argument("--json", action="store_true",
                   help="print the JSON report (frontier + every evaluated "
                        "point + stop reason) instead of the table")
    p.add_argument("-o", "--output",
                   default="benchmarks/output/explore_frontier.txt",
                   help="write the frontier report here ('' to skip)")
    p.add_argument("--trace", metavar="PATH",
                   help="run under a span tracer and write Chrome "
                        "trace-event JSON here")
    _add_workload_option(p)
    _add_exec_options(p)
    p.set_defaults(handler=_cmd_explore)

    p = sub.add_parser(
        "serve",
        help="refinement-as-a-service daemon: HTTP/JSON jobs on the "
             "execution engine with deadlines, backpressure and "
             "graceful drain",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8736,
                   help="listen port (0 = ephemeral; default 8736)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker slots = max concurrent jobs (default 2)")
    p.add_argument("--queue-limit", type=int, default=8,
                   help="admitted requests allowed to wait for a slot "
                        "before 429 (default 8)")
    p.add_argument("--executor", choices=("serial", "process"),
                   default="process",
                   help="process (isolated workers; default) or serial "
                        "(in-process, no crash isolation)")
    p.add_argument("--default-deadline", type=float, default=30.0,
                   metavar="SECONDS",
                   help="deadline granted when a request names none")
    p.add_argument("--max-deadline", type=float, default=300.0,
                   metavar="SECONDS",
                   help="ceiling any requested deadline is clamped to")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="consecutive worker crashes that quarantine a "
                        "job spec (default 3)")
    p.add_argument("--breaker-cooldown", type=float, default=30.0,
                   metavar="SECONDS",
                   help="quarantine duration before a probe (default 30)")
    p.add_argument("--cache", metavar="DIR", default=None,
                   help="result-cache directory (default: "
                        "$REPRO_CACHE_DIR or .repro_cache)")
    p.add_argument("--cache-capacity", type=int, default=4096)
    p.add_argument("--no-cache", action="store_true",
                   help="serve without a result cache")
    p.add_argument("--drain-grace", type=float, default=30.0,
                   metavar="SECONDS",
                   help="how long a drain waits for in-flight requests")
    p.add_argument("--trace", action="store_true",
                   help="per-slot span tracing + the /v1/trace endpoint")
    p.add_argument("--chaos", action="store_true",
                   help="register the chaos fault-injection tasks "
                        "(testing only)")
    p.add_argument("--verbose", action="store_true",
                   help="access-log lines on stderr")
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="append every request/job/breaker event to this "
                        "JSONL journal")
    p.add_argument("--flight-dir", metavar="DIR",
                   default="benchmarks/output",
                   help="where flight-recorder dumps land on crash/"
                        "deadline/circuit-open (default benchmarks/output)")
    p.add_argument("--flight-capacity", type=int, default=512, metavar="N",
                   help="flight-recorder ring size in records "
                        "(default 512)")
    p.add_argument("--no-telemetry", action="store_true",
                   help="disable the metrics registry, event journal and "
                        "flight recorder entirely")
    p.set_defaults(handler=_cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="seeded load harness against a repro serve daemon; writes "
             "a byte-stable report",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8736,
                   help="daemon port (ignored with --serve)")
    p.add_argument("--serve", action="store_true",
                   help="self-host a daemon on an ephemeral port for "
                        "the duration of the run")
    p.add_argument("--serve-workers", type=int, default=2,
                   help="worker slots of the self-hosted daemon")
    p.add_argument("--serve-queue-limit", type=int, default=8,
                   help="queue limit of the self-hosted daemon")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default 0)")
    p.add_argument("--clients", type=int, default=4,
                   help="concurrent client threads (default 4)")
    p.add_argument("--requests", type=int, default=25,
                   help="logical requests per client (default 25)")
    p.add_argument("--cases", type=int, default=6,
                   help="distinct generated specifications (default 6)")
    p.add_argument("--vectors", type=int, default=3,
                   help="input vectors per specification (default 3)")
    p.add_argument("--budget", type=int, default=8,
                   help="spec-generator statement budget (default 8)")
    p.add_argument("--deadline", type=float, default=30.0,
                   metavar="SECONDS",
                   help="per-request deadline (default 30)")
    p.add_argument("--retries", type=int, default=12,
                   help="per-request retry budget (default 12)")
    p.add_argument("-o", "--output",
                   default="benchmarks/output/loadgen_report.txt",
                   help="write the byte-stable report here ('' to skip)")
    p.add_argument("--timings",
                   default="benchmarks/output/loadgen_timings.json",
                   help="write the machine-dependent timing sidecar "
                        "here ('' to skip)")
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="append client-side request events (shared "
                        "correlation IDs) to this JSONL journal")
    p.set_defaults(handler=_cmd_loadgen)

    p = sub.add_parser(
        "workloads",
        help="list, describe or validate the workload registry",
    )
    p.add_argument("--describe", metavar="ID",
                   help="print one workload's full card instead of the list")
    p.add_argument("--validate", action="store_true",
                   help="run every registry entry's self-checks "
                        "(termination, designs, invariants); exit 1 on "
                        "any failure")
    p.set_defaults(handler=_cmd_workloads)

    p = sub.add_parser(
        "validate-hdl",
        help="compile/co-simulate exported workloads with the external "
             "toolchain (cc, ghdl) against the kernel",
    )
    p.add_argument("--workload", action="append", metavar="ID",
                   help="workload to validate (repeatable; default "
                        "medical and pcm_pwm)")
    p.add_argument("--model", action="append", metavar="M",
                   help="implementation model for the refined-design "
                        "export sweep (repeatable; default Model1)")
    p.set_defaults(handler=_cmd_validate_hdl)

    p = sub.add_parser(
        "explain",
        help="which refinement step produced a line of the refined spec",
    )
    p.add_argument("line", nargs="?", metavar="LINE",
                   help="1-based line number (or file:line) of the "
                        "refined specification")
    add_file(p)
    p.add_argument("--design", required=True,
                   help="Design1, Design2 or Design3 (medical system)")
    p.add_argument("--model", default="Model1",
                   help="Model1..Model4 (default Model1)")
    p.add_argument("--protocol", default="handshake",
                   choices=("handshake", "strobe", "handshake-timeout"))
    p.add_argument("--all", action="store_true",
                   help="summarise the provenance of every line")
    p.add_argument("--check", action="store_true",
                   help="verify every refined line resolves to a "
                        "refinement step (exit 1 otherwise)")
    p.set_defaults(handler=_cmd_explain)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "refresh", False) and (args.cache is None or args.no_cache):
        # without a cache there is nothing to refresh: refuse rather
        # than recompute and report "cache hits 0" as if it had worked
        parser.error("--refresh needs a result cache: add --cache [DIR] "
                     "and drop --no-cache")
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # campaign guards have already cleaned up and printed their
        # note; the conventional interrupted-exit code, no traceback
        return 130
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
