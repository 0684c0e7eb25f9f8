"""Command-line interface: ``python -m repro``.

The paper's core experiment, and the subsystems grown around it, without
writing code:

    python -m repro run --model GCN --dataset CO --strategy Dynamic
    python -m repro compare --model GCN --dataset CI
    python -m repro trace GCN PU --shards 4 --out trace.json
    python -m repro bench --names sharded_scaling

Every subcommand is **parse -> call -> emit**: build arguments from the
flags, make the library call a Python user would make (the
:class:`~repro.engine.core.Engine` facade, or ``repro.obs`` for a
trace), and hand the result to :func:`_emit`.  Results print
(``format_report()``) and serialise (``to_dict()``, under ``--json``)
themselves; nothing here knows a result's fields.  Measurements (serving
throughput, sharded scaling, facade overhead, graph churn) are bench
specs, run by ``repro bench``.

Checks live at the library boundary.  A range or membership check on a
value the library call also receives belongs in the function or
constructor it feeds, raised as a ``ValueError`` / ``KeyError`` naming the
argument; :func:`main` turns those into one ``<command>: <library
message>`` line and exit status 1.  Only argument *parsing* (``--shards
two``) is rejected here.  The gate runners (``bench`` / ``perf-diff``,
in ``repro.perf.cli``) wire their own subcommands: they report on the
repository, not on a run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import Engine, estimate_resources, u250_default
from repro.datasets import DATASET_NAMES, format_catalog
from repro.gnn import MODEL_NAMES


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


def _compile(args, engine: Engine, **kwargs):
    return engine.compile(
        args.model, args.dataset, scale=args.scale, seed=args.seed,
        prune=args.prune, **kwargs,
    )


def cmd_run(args) -> int:
    engine = Engine(u250_default())
    return _emit(args, engine.infer(_compile(args, engine), strategy=args.strategy))


def cmd_compare(args) -> int:
    from repro.analysis.compare import format_comparison

    engine = Engine(u250_default())
    handle = _compile(args, engine)
    dynamic = engine.infer(handle, strategy="Dynamic")
    for static in ("S1", "S2"):  # one Table VII cell, kernel by kernel
        print(format_comparison(dynamic, engine.infer(handle, strategy=static)))
    return 0


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
        check = export_run(tracer, result, args.out, top=args.top,
                           rtol=args.rtol)
    return _emit(args, check, ok=not check.errors)


def cmd_trace_analyze(args) -> int:
    from repro.obs import TraceError, analyze_trace

    try:
        analysis = analyze_trace(args.trace, what_if=args.what_if or ())
    except TraceError as exc:
        print(f"trace-analyze: {exc}", file=sys.stderr)
        return 1
    status = _emit(args, analysis, analysis.attribution.reconciles(), args.out)
    if status:
        print("trace-analyze: critical-path sum does not reconcile with the "
              "reported latency (the report gives the residual)",
              file=sys.stderr)
    return status


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
    def sizing(p):
        p.add_argument("--scale", type=float, default=None,
                       help="dataset scale in (0, 1]")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--prune", type=float, default=0.0,
                       help="weight sparsity in [0, 1]")

    def common(p):
        p.add_argument("--model", choices=MODEL_NAMES, default="GCN")
        p.add_argument("--dataset", choices=DATASET_NAMES, default="CO")
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
    as_json(p_run)

    common(command("compare", cmd_compare, "S1 vs S2 vs Dynamic"))

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
        "critical-path attribution and what-if projections over an "
        "exported trace.json (repro.obs.analyze)",
    )
    p_ta.add_argument("trace", help="trace.json produced by `repro trace`")
    p_ta.add_argument("--what-if", action="append", default=None,
                      metavar="SPEC",
                      help="project a hypothetical; comma-compose tokens "
                           "zero-halo, interconnect=K (repeatable)")
    as_json(p_ta)
    p_ta.add_argument("--out", default=None, metavar="PATH",
                      help="also write the report here (CI artifact)")

    # the gate runners wire their own subcommands (bench, perf-diff):
    # they report on the repository, not on a run
    from repro.perf.cli import add_parsers as add_perf_parsers

    add_perf_parsers(sub)

    command("resources", cmd_table, "Fig. 9 resource table").set_defaults(
        table=lambda: estimate_resources(u250_default()).format_table()
    )
    command("datasets", cmd_table, "Table VI dataset catalog").set_defaults(
        table=format_catalog
    )

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        # the library's own message, whichever boundary raised it: one
        # clean line, not a traceback
        message = exc.args[0] if len(exc.args) == 1 else exc
        raise SystemExit(f"{args.command}: {message}")


if __name__ == "__main__":
    sys.exit(main())
