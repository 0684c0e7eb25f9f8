"""Command-line interface: ``python -m repro``.

The paper's core experiment, and the subsystems grown around it, without
writing code:

    python -m repro run --model GCN --dataset CO --strategy Dynamic
    python -m repro run --dataset RE --backend hetero --json
    python -m repro compare --model GCN --dataset CI
    python -m repro serve-bench --pool 4 --requests 200 --arrival poisson
    python -m repro shard-bench --dataset PU --shards 2,4
    python -m repro trace GCN PU --shards 4 --out trace.json

Every subcommand is **parse -> call -> emit**: build arguments from the
flags, make the library call a Python user would make (the
:class:`~repro.engine.core.Engine` facade, or the experiment that sits
beside its subject: ``repro.shard.scaling``, ``repro.serve.comparison``,
``repro.dyngraph.churn``, ``repro.engine.overhead``), and hand the result
to :func:`_emit`.  Results print (``format_report()``) and serialise
(``to_dict()``, under ``--json``) themselves; nothing here knows a
result's fields.

Checks live at the library boundary.  A range or membership check on a
value the library call also receives belongs in the function or
constructor it feeds, raised as a ``ValueError`` / ``KeyError`` naming the
argument; :func:`main` turns those into one ``<command>: <library
message>`` line and exit status 1.  Only argument *parsing* (``--shards
two``) is rejected here.  The gate runners (``bench`` / ``perf-diff`` in
``repro.perf.cli``, ``staticcheck`` in ``repro.staticcheck.cli``) wire
their own subcommands: they report on the repository, not on a run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import BACKENDS, Engine, estimate_resources, u250_default
from repro.baselines.cpu_gpu import OutOfMemoryError
from repro.datasets import DATASET_NAMES, format_catalog
from repro.gnn import MODEL_NAMES
from repro.serve import ARRIVAL_KINDS, SCHEDULERS


def _emit(args, result, ok: bool = True, out: str | None = None) -> int:
    """The one emitter: print the result's own report (its ``to_dict()``
    as JSON under ``--json``), write the same text to ``out`` when given,
    and return the exit status."""
    if getattr(args, "json", False):
        text = json.dumps(result.to_dict(), indent=2)
    else:
        text = result.format_report()
    print(text)
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        print(f"report written to {path}")
    return 0 if ok else 1


def _names(value: str) -> list[str]:
    """A comma-separated flag value as a list of names."""
    return [name.strip() for name in value.split(",") if name.strip()]


def _pick(args, *names: str) -> dict:
    """The named flags as keyword arguments, where a flag and the library
    parameter it feeds share a name."""
    return {name: getattr(args, name) for name in names}


def _compile(args, engine: Engine, **kwargs):
    return engine.compile(
        args.model, args.dataset, scale=args.scale, seed=args.seed,
        prune=args.prune, **kwargs,
    )


def cmd_run(args) -> int:
    engine = Engine(u250_default())
    return _emit(args, engine.infer(
        _compile(args, engine), strategy=args.strategy, backend=args.backend
    ))


def cmd_compare(args) -> int:
    from repro.analysis.compare import format_comparison

    engine = Engine(u250_default())
    handle = _compile(args, engine)
    dynamic = engine.infer(handle, strategy="Dynamic")
    for static in ("S1", "S2"):  # one Table VII cell, kernel by kernel
        print(format_comparison(dynamic, engine.infer(handle, strategy=static)))
    return 0


def cmd_engine_bench(args) -> int:
    from repro.config import small_test_config
    from repro.engine.overhead import measure_facade_overhead

    return _emit(args, measure_facade_overhead(
        config=u250_default() if args.full_config else small_test_config(),
        **_pick(args, "model", "dataset", "scale", "strategy", "repeats"),
    ))


def cmd_shard_bench(args) -> int:
    from repro.shard.scaling import shard_scaling_sweep

    try:
        counts = [int(n) for n in _names(args.shards)]
    except ValueError:
        raise SystemExit(
            f"shard-bench: --shards must be comma-separated integers, "
            f"got {args.shards!r}"
        )
    program = _compile(args, Engine(u250_default())).program
    sweep = shard_scaling_sweep(program, counts, strategy=args.strategy)
    status = _emit(args, sweep, ok=not sweep.mismatches)
    if args.plan and not args.json:
        print("\n" + sweep.runs[max(sweep.runs)].plan.describe())
    return status


def cmd_serve_bench(args) -> int:
    from repro.serve.comparison import serving_comparison

    return _emit(args, serving_comparison(
        args.requests,
        pools=(1, args.pool),
        rate_rps=args.rate,
        models=_names(args.models),
        datasets=_names(args.datasets),
        max_batch_size=args.max_batch,
        max_wait_s=args.max_wait_ms * 1e-3,
        cache_capacity=args.cache,
        slo_p99_s=None if args.slo_p99_ms is None else args.slo_p99_ms * 1e-3,
        **_pick(args, "arrival", "strategy", "prune", "scale", "skew",
                "class_skew", "seed", "scheduler", "queue_bound",
                "autoscale", "trace"),
    ))


def cmd_trace(args) -> int:
    from repro.obs import TraceCheck, Tracer, export_run, validate_trace

    if args.validate is not None:
        check = TraceCheck(
            args.validate, validate_trace(args.validate, rtol=args.rtol)
        )
    else:
        tracer = Tracer(task_spans=not args.no_task_spans)
        engine = Engine(u250_default(), pool_size=args.shards, tracer=tracer)
        result = engine.infer(
            _compile(args, engine, shards=args.shards),
            strategy=args.strategy,
            backend="sharded" if args.shards > 1 else "simulated",
        )
        check = export_run(tracer, result, args.out, jsonl=args.jsonl,
                           top=args.top, rtol=args.rtol)
    return _emit(args, check, ok=not check.errors)


def cmd_trace_analyze(args) -> int:
    from repro.obs import TraceError, analyze_trace

    try:
        analysis = analyze_trace(
            args.trace, what_if=args.what_if or (), diff=args.diff,
            top=args.top,
        )
    except TraceError as exc:
        print(f"trace-analyze: {exc}", file=sys.stderr)
        return 1
    status = _emit(args, analysis, analysis.attribution.reconciles(), args.out)
    if status:
        print("trace-analyze: critical-path sum does not reconcile with the "
              "reported latency (the report gives the residual)",
              file=sys.stderr)
    return status


def cmd_dyngraph_bench(args) -> int:
    from repro.dyngraph import churn_experiment, patch_vs_recompile

    shared = dict(
        dataset=args.dataset, model_name=args.model,
        edge_fraction=args.edge_fraction, seed=args.seed,
    )
    _emit(args, patch_vs_recompile(
        scale=args.scale, repeats=args.repeats, **shared
    ))
    print()
    return _emit(args, churn_experiment(
        # serving simulates every program version: default to a smaller
        # instance than the microbenchmark to keep the sweep quick
        scale=(min(args.scale, 0.25) if args.churn_scale is None
               else args.churn_scale),
        num_requests=args.requests,
        pool_size=args.pool,
        mutation_every=args.mutation_every,
        **shared,
    ))


def cmd_table(args) -> int:
    print(args.table())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Dynasparse reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    # flags several subcommands share, declared once
    def graph(p, dataset="CO"):
        p.add_argument("--model", choices=MODEL_NAMES, default="GCN")
        p.add_argument("--dataset", choices=DATASET_NAMES, default=dataset)

    def sizing(p):
        p.add_argument("--scale", type=float, default=None,
                       help="dataset scale in (0, 1]")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--prune", type=float, default=0.0,
                       help="weight sparsity in [0, 1]")

    def common(p):
        graph(p)
        sizing(p)

    def strategy(p):
        p.add_argument("--strategy", default="Dynamic",
                       help="Dynamic | S1 | S2 | Oracle | Fixed-<prim>")

    def as_json(p):
        p.add_argument("--json", action="store_true",
                       help="emit the result as JSON instead of text")

    p_run = command("run", cmd_run, "run one model/dataset/strategy")
    common(p_run)
    strategy(p_run)
    p_run.add_argument("--backend", choices=BACKENDS, default="simulated",
                       help="how Engine.infer runs the program")
    as_json(p_run)

    common(command("compare", cmd_compare, "S1 vs S2 vs Dynamic"))

    p_shard = command(
        "shard-bench", cmd_shard_bench,
        "sharded multi-device scaling vs a single device "
        "(repro.shard); exits 1 if outputs are not bit-exact",
    )
    common(p_shard)
    strategy(p_shard)
    p_shard.add_argument("--shards", default="2,4",
                        help="comma-separated shard counts to sweep")
    p_shard.add_argument("--plan", action="store_true",
                        help="print the largest sweep's shard plan")
    as_json(p_shard)

    p_trace = command(
        "trace", cmd_trace,
        "run one traced inference and export a Perfetto trace.json "
        "(repro.obs); or validate an existing trace with --validate",
    )
    p_trace.add_argument("model", nargs="?", choices=MODEL_NAMES,
                         default="GCN")
    p_trace.add_argument("dataset", nargs="?", choices=DATASET_NAMES,
                         default="CO")
    sizing(p_trace)
    strategy(p_trace)
    p_trace.add_argument("--shards", type=int, default=1,
                         help="trace a sharded run across N devices")
    p_trace.add_argument("--out", default="trace.json",
                         help="Perfetto trace output path")
    p_trace.add_argument("--jsonl", default=None,
                         help="also write a flat JSONL event log here")
    p_trace.add_argument("--no-task-spans", action="store_true",
                         help="omit per-task spans (smaller trace files)")
    p_trace.add_argument("--validate", default=None, metavar="PATH",
                         help="validate an existing trace.json and exit "
                              "(no run)")
    p_trace.add_argument("--top", type=int, default=12,
                         help="hottest-span rows in the flame summary "
                              "(the rest aggregate into an (other) row)")
    p_trace.add_argument("--rtol", type=float, default=0.01,
                         help="relative tolerance of the span-sum "
                              "reconciliation check")

    p_ta = command(
        "trace-analyze", cmd_trace_analyze,
        "critical-path attribution, what-if projections and trace "
        "diffing over an exported trace.json (repro.obs.analyze)",
    )
    p_ta.add_argument("trace", help="trace.json produced by `repro trace`")
    p_ta.add_argument("--diff", default=None, metavar="OTHER",
                      help="diff against this baseline trace.json "
                           "(per span-group deltas)")
    p_ta.add_argument("--what-if", action="append", default=None,
                      metavar="SPEC",
                      help="project a hypothetical; comma-compose tokens "
                           "zero-halo, interconnect=K, cores=N "
                           "(repeatable)")
    p_ta.add_argument("--top", type=int, default=10,
                      help="span-group rows shown in the diff report")
    as_json(p_ta)
    p_ta.add_argument("--out", default=None, metavar="PATH",
                      help="also write the report here (CI artifact)")

    p_srv = command(
        "serve-bench", cmd_serve_bench,
        "replay synthetic traffic through the repro.serve subsystem",
    )
    p_srv.add_argument("--pool", type=int, default=4,
                       help="number of simulated devices in the pool")
    p_srv.add_argument("--requests", type=int, default=200)
    p_srv.add_argument("--arrival", choices=ARRIVAL_KINDS, default="poisson")
    p_srv.add_argument("--rate", type=float, default=None,
                       help="mean arrival rate in req/s of virtual time "
                            "(default: calibrated to saturate the pool)")
    p_srv.add_argument("--models", default="GCN,GIN",
                       help="comma-separated model mix")
    p_srv.add_argument("--datasets", default="CO,CI",
                       help="comma-separated dataset mix")
    strategy(p_srv)
    sizing(p_srv)
    p_srv.add_argument("--skew", type=float, default=0.0,
                       help="Zipf skew of the model/dataset popularity")
    p_srv.add_argument("--max-batch", type=int, default=8)
    p_srv.add_argument("--max-wait-ms", type=float, default=1.0,
                       help="micro-batching window in virtual milliseconds")
    p_srv.add_argument("--cache", type=int, default=64,
                       help="program-cache capacity")
    p_srv.add_argument("--scheduler", choices=SCHEDULERS, default="legacy",
                       help="batching scheduler: the fire-whole-batches "
                            "micro-batcher or the continuous-batching "
                            "scheduler (repro.sched)")
    p_srv.add_argument("--class-skew", type=float, default=0.0,
                       help="fraction of requests tagged with the "
                            "interactive SLO class (rest are bulk)")
    p_srv.add_argument("--slo-p99-ms", type=float, default=None,
                       help="interactive p99 latency target in virtual ms "
                            "(grades goodput and per-class violations)")
    p_srv.add_argument("--queue-bound", type=int, default=None,
                       help="per-class admission bound (continuous only): "
                            "interactive sheds past it, bulk defers")
    p_srv.add_argument("--autoscale", action="store_true",
                       help="autoscale the active device set with the "
                            "queue-depth autoscaler (continuous only)")
    p_srv.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Perfetto trace of the cold pool "
                            "sweep to PATH")
    as_json(p_srv)

    p_dyn = command(
        "dyngraph-bench", cmd_dyngraph_bench,
        "patch-vs-recompile and churn-serving benchmarks (repro.dyngraph)",
    )
    graph(p_dyn, dataset="PU")
    p_dyn.add_argument("--scale", type=float, default=1.0,
                       help="dataset scale for the microbenchmark")
    p_dyn.add_argument("--churn-scale", type=float, default=None,
                       help="dataset scale for the churn serving stream "
                            "(default: min(--scale, 0.25))")
    p_dyn.add_argument("--edge-fraction", type=float, default=0.01,
                       help="edge churn per delta, as a fraction of nnz(A)")
    p_dyn.add_argument("--repeats", type=int, default=5,
                       help="mutations averaged in the microbenchmark")
    p_dyn.add_argument("--requests", type=int, default=48,
                       help="events in the churn serving stream")
    p_dyn.add_argument("--mutation-every", type=int, default=6,
                       help="every N-th event is a mutation")
    p_dyn.add_argument("--pool", type=int, default=2)
    p_dyn.add_argument("--seed", type=int, default=0)

    p_eng = command(
        "engine-bench", cmd_engine_bench,
        "measure Engine facade overhead vs direct run_strategy",
    )
    graph(p_eng)
    p_eng.add_argument("--scale", type=float, default=0.25)
    strategy(p_eng)
    p_eng.add_argument("--repeats", type=int, default=9,
                       help="best-of-N timing repeats")
    p_eng.add_argument("--full-config", action="store_true",
                       help="use the U250 config instead of the small "
                            "test config")

    # the gate runners wire their own subcommands (bench, perf-diff;
    # staticcheck): they report on the repository, not on a run
    from repro.perf.cli import add_parsers as add_perf_parsers
    from repro.staticcheck.cli import add_parser as add_staticcheck_parser

    add_perf_parsers(sub)
    add_staticcheck_parser(sub)

    command("resources", cmd_table, "Fig. 9 resource table").set_defaults(
        table=lambda: estimate_resources(u250_default()).format_table()
    )
    command("datasets", cmd_table, "Table VI dataset catalog").set_defaults(
        table=format_catalog
    )

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError, OutOfMemoryError) as exc:
        # the library's own message, whichever boundary raised it (an
        # OutOfMemoryError is one of the paper's N/A cells, e.g. NELL on
        # PyG-GPU): one clean line, not a traceback
        message = exc.args[0] if len(exc.args) == 1 else exc
        raise SystemExit(f"{args.command}: {message}")


if __name__ == "__main__":
    sys.exit(main())
