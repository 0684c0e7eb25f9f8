"""The perf ledger's one command.

Two ways in, one code path:

``python3 ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    one run of one workload in this interpreter (the benchmark contract's
    call).  Untraced, it prints the end-to-end metrics; traced, it walks
    the probe cell, records spans, prints the per-layer metrics and writes
    ``ledger/out/trace_<W>.json``.  The last line of standard output is
    the result object.

``python3 ledger/run.py [--seed N] [--workloads a,b] [--out FILE]``
    the whole ledger: each workload untraced then traced, every run in
    its own fresh child interpreter, one child at a time, merged into
    ``FILE`` (default ``ledger/out/ledger.json``) for ``compare.py``.

``src/`` is put on ``sys.path`` from this file's location, so no
``PYTHONPATH`` is needed; in a directory without ``src/`` the import
fails and the run exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

#: What the interpreter and the C library read once, when the process starts.
#: ``--seed`` must be the only source of randomness, and peak memory must be
#: what the program holds, not what the allocator happened to keep:
#:
#: - str hashes order the sets the program iterates and with them which
#:   temporaries are alive together;
#: - glibc moves its mmap and trim thresholds with the order in which the
#:   first big arrays are freed, and with them which arrays sit in the heap
#:   (probe: one seed of ``cold_large`` peaks anywhere from 132 to 165 MB, run
#:   to run).  Pinned, every array of 4 MiB or more goes back to the kernel
#:   when freed (ten seeds: 131-134 MB) and the heap is trimmed by ``tidy()``
#:   alone; host times do not move (``warm_sweep`` 39.6 against 39.8 ms).  A
#:   threshold of 128 KiB would do the same for memory and cost ``warm_sweep``
#:   40% in page faults.
AT_START = {
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": str(4 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in AT_START.items()):
    # the interpreter starts over with them set
    os.environ.update(AT_START)
    os.execv(sys.executable, [sys.executable, *sys.argv])

#: "process start" of ``setup_s``: taken before anything heavy is imported
T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: BLAS pools are pinned to one thread, before numpy loads: the box has two
#: cores and the host clock must not depend on what else runs on the second
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _key in PINNED:
    os.environ[_key] = "1"
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402  (numpy, scipy and repro load here)

#: interpreter start-up and imports, the part of set-up a process pays once
IMPORT_S = time.perf_counter() - T_START
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
#: walks a traced run makes (their medians are the walk's times)
WALK_REPEATS = 3


def contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@dataclass
class Sample:
    """One timed operation that completed."""

    cell: str
    j: int
    seconds: float
    units: int
    modelled_ms: float
    modelled_rps: float


class Measurement:
    """Everything one run gathered: samples, statistics by phase, spans."""

    def __init__(self, workload, recorder) -> None:
        self.workload = workload
        self.recorder = recorder
        self.samples: list[Sample] = []
        #: (kind, phase) -> rows; kinds are inference, sharded, serve,
        #: load, compile, patch; phases are setup, walk, timed
        self.stats: dict[tuple[str, str], list[dict]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.span_cost_s = 0.0
        #: what the first pass added to the program caches' (hits, misses,
        #: evictions), and the process's peak resident set when it ended
        self.cache_delta = (0, 0, 0)
        self.first_pass_rss_mb = 0.0

    def file(self, rows, phase: str, j: int | None = None) -> None:
        for kind, row in rows:
            if j is not None:
                row["j"] = j
            self.stats[kind, phase].append(row)

    def first_pass(self) -> list[Sample]:
        """The samples every run takes however slow its host: the part of
        a run that is the same work everywhere."""
        return [s for s in self.samples if s.j < self.workload.samples_per_pass]

    def exact(self, kind: str) -> list[dict]:
        """One row per distinct operation: the first pass of the timed
        section, or what set-up ran directly when operations hide their
        results inside a server."""
        first_pass = [r for r in self.stats[kind, "timed"]
                      if r["j"] < self.workload.samples_per_pass]
        return first_pass or self.stats[kind, "setup"]

    def digest(self) -> str:
        """sha256 over every exact per-operation statistic."""
        def strip(rows):
            return [{k: v for k, v in r.items() if k not in ("host_s", "single_host_s")}
                    for r in rows]
        rows = strip(self.exact("inference")) + strip(self.exact("sharded"))
        served = strip(self.exact("serve"))
        if self.workload.host_leaks_into_virtual:
            served = [{k: r[k] for k in ("requests", "mutations", "patches", "shed")}
                      for r in served]
        return metrics.digest(rows + served)

    def by_cell(self) -> dict[str, list[float]]:
        """Cell -> the seconds of its samples, in the order taken."""
        cells: dict[str, list[float]] = defaultdict(list)
        for s in self.samples:
            cells[s.cell].append(s.seconds)
        return dict(cells)


def one_op(wl, cell, j: int, rec, run: Measurement) -> float:
    """Run, time and verify sample ``j`` of ``cell``; returns the seconds
    the operation took.  An exception or a failed check counts in
    ``run.failed`` and the run goes on."""
    rec.cell, rec.op = cell.name, run.attempted
    run.attempted += 1
    t0 = time.perf_counter()
    try:
        rec.phase = "prepare"
        inputs = wl.prepare(cell, j, rec)
        workloads.tidy()
        rec.phase = "timed"
        t0 = time.perf_counter()
        with rec.span("op", "ledger"):
            out = wl.op(cell, j, inputs, rec)
        seconds = time.perf_counter() - t0
        rec.phase = "check"
        check = wl.check(cell, j, inputs, out, rec)
    except Exception:
        traceback.print_exc()
        run.failed += 1
        return time.perf_counter() - t0
    finally:
        rec.phase = "timed"
    if not check.ok:
        print(f"FAILED verification: {wl.name} {cell.name} sample {j}", file=sys.stderr)
        run.failed += 1
    run.file(check.rows, "timed", j)
    run.samples.append(Sample(cell.name, j, seconds, check.units,
                              check.modelled_ms, check.modelled_rps))
    return seconds


def measure(wl, seconds: float, rec, run: Measurement) -> None:
    """Cycle through the cells until ``seconds`` of operations are timed;
    the first pass always completes."""
    rec.phase = "timed"
    before = wl.cache_totals()
    counts = {cell.name: 0 for cell in wl.cells}
    timed, first_pass = 0.0, True
    while first_pass or timed < seconds:
        for cell in wl.cells:
            for _ in range(wl.samples_per_pass):
                if not first_pass and timed >= seconds:
                    break
                timed += one_op(wl, cell, counts[cell.name], rec, run)
                counts[cell.name] += 1
        if first_pass:
            run.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            run.cache_delta = tuple(b - a for a, b in zip(before, wl.cache_totals()))
        first_pass = False


def end_to_end(run: Measurement, setup_s: float) -> dict[str, float]:
    """The contract's end-to-end metrics.  Host times are each cell's
    *steady* time (``metrics.steady``: the fastest of its samples);
    virtual-clock numbers and memory come from the first pass alone, so
    they do not depend on how many samples the host got through."""
    cells = run.by_cell()
    units = {s.cell: s.units for s in run.samples}
    steady_s = {cell: metrics.steady(seconds) for cell, seconds in cells.items()}
    first = run.first_pass()
    if first[0].modelled_rps:
        # a serve workload replays one stream; where the server charges
        # host seconds to the virtual clock the replays differ, and the
        # least disturbed one is reported
        modelled_ms = min(s.modelled_ms for s in run.samples)
        modelled_rps = max(s.modelled_rps for s in run.samples)
    else:
        modelled_ms = metrics.geomean(s.modelled_ms for s in first)
        modelled_rps = len(first) / sum(s.modelled_ms / 1e3 for s in first)
    return {
        "setup_s": setup_s,
        "op_wall_ms": metrics.geomean(steady_s.values()) * 1e3,
        "host_ops_per_s": sum(units.values()) / sum(steady_s.values()),
        "modelled_latency_ms": modelled_ms,
        "modelled_ops_per_s": modelled_rps,
        "peak_rss_mb": run.first_pass_rss_mb,
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in PINNED},
        "at_start": {k: os.environ.get(k) for k in AT_START},
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` (no child process); the
    driver's checkout is not a repository and reads ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            text = (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def timed_setup(cls, seed: int, scale: float, rec):
    """A fresh workload, its set-up statistics and the seconds set-up took."""
    workloads.tidy()
    wl = cls(seed, scale)
    rec.phase, rec.cell, rec.op = "setup", "", None
    t0 = time.perf_counter()
    with rec.span("setup", "ledger"):
        rows = wl.setup(rec)
    return wl, rows, time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> tuple[Measurement, dict[str, float]]:
    """One run in this interpreter; returns what it gathered and the
    metrics the contract asks of it (end-to-end untraced, per-layer
    traced)."""
    rec = spans.Recorder() if trace else spans.NULL
    cls = workloads.WORKLOADS[name]
    wl, rows, first_setup_s = timed_setup(cls, seed, scale, rec)
    run = Measurement(wl, rec)
    run.file(rows, "setup")
    if trace:
        rec.phase, rec.cell = "walk", "walk"
        for _ in range(WALK_REPEATS):
            workloads.tidy()
            rows, verified, failed = workloads.walk(wl, rec)
            run.file(rows, "walk")
            run.attempted += verified
            run.failed += failed
        run.span_cost_s = spans.span_cost_s()
    measure(wl, seconds, rec, run)
    if not run.samples:
        raise RuntimeError(f"{name}: no operation completed")
    if trace:
        return run, metrics.per_layer(run)
    # The other set-ups ``setup_s`` is the median of come after the timed
    # section, so traced and untraced operations both follow one set-up:
    # made before it, they leave the heap scattered and ``serve_steady``'s
    # operations 16% slower (probe: 275 against 240 ms).
    setups = [first_setup_s] + [
        timed_setup(cls, seed, scale, rec)[2] for _ in range(cls.setup_repeats - 1)]
    # what the process paid once, plus the median of its fresh set-ups
    return run, end_to_end(run, IMPORT_S + statistics.median(setups))


def single(args) -> int:
    spec = contract()
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    wall0 = time.perf_counter()
    run, values = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if set(values) != set(declared):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    cells = run.by_cell()
    ratio, which, n = metrics.tail((s.cell, s.seconds) for s in run.samples)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": run.attempted, "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "metrics": {k: {"value": v, "unit": declared[k]["unit"]} for k, v in values.items()},
        "modelled_digest": run.digest(),
        "op_wall_ms": metrics.by_cell_geomean((s.cell, s.seconds * 1e3) for s in run.samples),
        "samples_s": cells,
        "op_wall_tail": {"ratio_to_cell_steady": ratio, "percentile": which, "samples": n},
        "notes": notes(run),
        "environment": environment(),
        "wall_s": time.perf_counter() - wall0,
    }
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(run.samples)} timed operations over "
          f"{len(cells)} cells, {run.attempted} verified, {run.failed} failed")
    print(f"# {'cell':<32}{'samples':>8}{'steady ms':>12}{'median ms':>12}")
    for cell, seconds in cells.items():
        print(f"# {cell:<32}{len(seconds):>8}{metrics.steady(seconds) * 1e3:>12.3f}"
              f"{statistics.median(seconds) * 1e3:>12.3f}")
    for name, m in record["metrics"].items():
        print(f"{name:<34}{m['value']:>18.6f} {m['unit']:<7} better: {declared[name]['better']}")
    print(f"{'modelled_digest':<34}{record['modelled_digest']}")
    print(f"{'op_wall tail':<34}{which} = {ratio:.3f} x cell steady time over {n} samples")
    for line in record["notes"]:
        print(f"# {line}")
    out = Path(args.out) if args.out else OUT / f"run_{args.workload}_trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    if args.trace:
        run.recorder.write(
            OUT / f"trace_{args.workload}.json", workload=args.workload, seed=args.seed,
            self_seconds_by_layer={
                phase: run.recorder.self_time_by_layer(phase)
                for phase in ("setup", "walk", "prepare", "timed", "check")})
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


def notes(run: Measurement) -> list[str]:
    """Informational lines: what the numbers cannot say by themselves."""
    lines = []
    if run.workload.name == "warm_sweep":
        rows = run.exact("inference")
        for prune, paper in workloads.PAPER_TABLE_VIII.items():
            level = [r for r in rows if (f"/p{prune:g}" in r["group"]) == bool(prune)]
            for static in ("S1", "S2"):
                lines.append(
                    f"Dynamic vs {static} at prune {prune:g}: "
                    f"{metrics.speedup(level, static):.3f}x on "
                    f"PU@{workloads.WARM_SCALE:g} (4 models); the "
                    f"paper's Table VIII band reads {paper[static]}x over its six "
                    f"datasets, which this graph alone does not reproduce")
    if run.workload.host_leaks_into_virtual:
        lines.append("the server charges host-measured patch and compile seconds to "
                     "the virtual clock here, so modelled_* do not repeat exactly")
    return lines


# -- the whole ledger ---------------------------------------------------
def ledger(args) -> int:
    spec = contract()
    names = args.workloads.split(",") if args.workloads else list(WORKLOAD_NAMES)
    unknown = [n for n in names if n not in WORKLOAD_NAMES]
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; expected {list(WORKLOAD_NAMES)}")
    wall0 = time.perf_counter()
    merged: dict = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in names:
        runs = {}
        for trace in (0, 1):
            path = OUT / f"run_{name}_trace{trace}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(path)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print("\n".join(done.stdout.splitlines()[:-1]))
            if done.returncode != 0:
                raise SystemExit(f"{name} trace={trace} exited {done.returncode}")
            runs[trace] = json.loads(path.read_text())
        untraced, traced = runs[0], runs[1]
        merged["workloads"][name] = {
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "failed_frac": max(untraced["failed_frac"], traced["failed_frac"]),
            "attempted": untraced["attempted"], "failed": untraced["failed"],
            "modelled_digest": untraced["modelled_digest"],
            "modelled_digest_traced": traced["modelled_digest"],
            "samples_per_cell": {c: len(v) for c, v in untraced["samples_s"].items()},
            "op_wall_tail": untraced["op_wall_tail"],
            "notes": untraced["notes"],
            # the traced run's operations against the untraced run's, same
            # seed and cells: two noisy runs, so informational beside the
            # calibrated trace.overhead_frac
            "trace_wall_delta_frac":
                traced["op_wall_ms"] / untraced["op_wall_ms"] - 1.0,
            "wall_s": untraced["wall_s"] + traced["wall_s"],
        }
        merged["environment"] = untraced["environment"]
    merged["wall_s"] = time.perf_counter() - wall0
    out = Path(args.out) if args.out else OUT / "ledger.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(merged, indent=1))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"\n# ledger: seed {args.seed}, {merged['wall_s']:.0f} s, written to {out}")
    for name, w in merged["workloads"].items():
        print(f"{name}: failed_frac {w['failed_frac']:g}  digest {w['modelled_digest'][:16]}")
        for metric, m in w["end_to_end"].items():
            b = bounds[metric]
            print(f"  {metric:<22}{m['value']:>16.4f} {m['unit']:<5} "
                  f"better: {b['better']:<7} bound: {b['bound']:g}")
    return 1 if any(w["failed_frac"] for w in merged["workloads"].values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run this one workload in this interpreter")
    parser.add_argument("--workloads", help="comma-separated subset (whole-ledger mode)")
    parser.add_argument("--seed", type=int, default=0,
                        help="the only source of randomness (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="where to write the run's (or the ledger's) JSON")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(contract()["run_seconds"])
    return single(args) if args.workload else ledger(args)


if __name__ == "__main__":
    sys.exit(main())
