"""The six workloads, the walk, and the constants that size them.

Every workload is a list of *cells* (one model/graph/strategy combination
each) and one *operation* that is timed per cell.  Sample ``j`` of a cell
draws its inputs from ``seed + j``, so two runs with one ``--seed`` do the
same work sample by sample; how many samples a run reaches is set by its
time budget, and the first ``samples_per_pass`` of every cell always run
(they carry the exact, virtual-clock statistics).

Sizing (probes on the 2-core reference box, one BLAS thread; a 10 s run):

===============  ======================================  ===================
workload         one operation                           samples per cell
===============  ======================================  ===================
``cold_small``   27 ms (GCN/CO) .. 280 ms (GIN/CI)       20 (5 seeds a pass)
``cold_large``   0.25 s PU@.5, 0.21 s FL@.1,             11-12
                 0.33 s RE@.02
``warm_sweep``   5 ms .. 0.10 s on PU@0.25, 1.4 s a      7
                 pass over the 24 cells
``shard_sweep``  12 ms .. 0.18 s                         20-22
``serve_steady`` 0.24 s per 20,000-request stream        36-38
``serve_churn``  0.24 s per 100-request stream (12       38
                 patches)
===============  ======================================  ===================

The issue sized operations on full-scale graphs (0.85-2.5 s on
``cold_large``, 10 s a pass on ``warm_sweep``) for timed sections of
12-25 s.  The benchmark contract allows about 25 s for a whole run, set-up
and verification included, and on the shared box an operation is disturbed
more the longer it is, so graphs and repeats shrank until every cell gets 7
or more samples.  Cells and workloads are as specified.
"""

from __future__ import annotations

import ctypes
import gc
from dataclasses import dataclass, field

import numpy as np

import metrics
import reference
from repro import Engine, load_dataset, u250_default
from repro.compiler import Compiler
from repro.dyngraph import GraphDelta, MutableGraph
from repro.gnn import build_adjacency_variants, build_model, init_weights, prune_weights
from repro.serve import churn_stream, synthesize

MODELS = ("GCN", "GraphSAGE", "GIN", "SGC")
#: warm-up operations draw from seeds no timed sample reaches
WARMUP_OFFSET = 10_000
#: the walk's mutation churns this share of the probe graph's edges, the
#: same share ``serve_churn`` streams use per mutation
EDGE_FRACTION = 0.005
#: requests in the walk's probe stream
WALK_REQUESTS = 400

#: PubMed's share in ``warm_sweep`` and ``shard_sweep``: at full scale one
#: pass over the cells takes 10 s and 2.5 s, and a 10 s run must make several
WARM_SCALE = 0.25
SHARD_SCALE = 0.5

#: Table VIII of the paper (geomean over its six datasets) for the bands
#: the two ``warm_sweep`` prune levels fall in; printed beside the
#: ledger's own PU-only figure, never compared
PAPER_TABLE_VIII = {0.0: {"S1": 2.16, "S2": 1.38}, 0.9: {"S1": 10.77, "S2": 2.11}}


@dataclass(frozen=True)
class Cell:
    model: str
    dataset: str
    scale: float = 1.0
    prune: float = 0.0
    strategy: str = "Dynamic"
    shards: int = 1

    @property
    def group(self) -> str:
        """The cell without its strategy: what S1/S2/Dynamic share."""
        text = f"{self.model}/{self.dataset}@{self.scale:g}"
        if self.prune:
            text += f"/p{self.prune:g}"
        if self.shards > 1:
            text += f"/x{self.shards}"
        return text

    @property
    def name(self) -> str:
        return f"{self.group}/{self.strategy}"


@dataclass
class Check:
    """What verifying one operation found (outside the timed region)."""

    ok: bool
    #: requests completed: 1 for an inference, the stream's for a serve
    units: int = 1
    #: virtual-clock latency (inference) or mean request latency (serve), ms
    modelled_ms: float = 0.0
    #: virtual-clock throughput of a serve operation (0 for inference)
    modelled_rps: float = 0.0
    #: (kind, row) exact statistics to file under the operation's phase
    rows: list = field(default_factory=list)


def _malloc_trim():
    """glibc's ``malloc_trim`` where the C library has one, else a no-op."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_MALLOC_TRIM = _malloc_trim()


def tidy() -> None:
    """Run before every operation and every warm-up, outside all timed
    regions: collect garbage and hand freed heap pages back to the kernel.

    Every operation then starts from the same heap, and ``peak_rss_mb`` is
    what the operations need at once, not what an earlier one happened to
    leave under the top of the heap (probe: without the trim one seed of
    ``cold_small`` reads 222 or 256 MB, of ``serve_steady`` 316 or 337)."""
    gc.collect()
    _MALLOC_TRIM(0)


def weights_for(cell: Cell, data, seed: int) -> dict:
    """The weights ``Engine.compile`` derives for ``(cell, seed)``."""
    model = build_model(cell.model, data.num_features, data.hidden_dim, data.num_classes)
    weights = init_weights(model, seed=seed)
    return prune_weights(weights, cell.prune) if cell.prune > 0 else weights


def oracle(cell: Cell, data, seed: int) -> np.ndarray:
    return reference.infer(cell.model, data.a, data.h0, weights_for(cell, data, seed))


def timing_row(cell: Cell, program) -> dict:
    t = program.timings
    return {"cell": cell.name, "parse_ms": t.parse_s * 1e3,
            "partition_ms": t.partition_s * 1e3, "profile_ms": t.profile_s * 1e3}


def with_host(row: dict, span, **extra) -> dict:
    """Attach the host seconds of the span that produced ``row``."""
    row.update(extra)
    if span is not None:
        row["host_s"] = span.dur
    return row


class Workload:
    """Base: cells, per-pass repeats, set-up, one operation, its check."""

    name = ""
    cells: tuple[Cell, ...] = ()
    #: samples each cell takes per pass (the exact statistics cover pass 0)
    samples_per_pass = 1
    #: fresh set-ups an untraced run times for ``setup_s`` (their median;
    #: the first one of a process is always the slowest, and the rest are
    #: made after the timed section): five where one takes a second or
    #: less, three where it takes two or three
    setup_repeats = 3
    #: the walk's probe cell
    probe = Cell("GCN", "CO")
    #: True where the server charges host-measured seconds to the virtual
    #: clock, so virtual times do not repeat and stay out of the digest
    host_leaks_into_virtual = False

    def __init__(self, seed: int = 0, scale: float = 1.0) -> None:
        self.seed = seed
        #: miniature factor (tests run at 0.05): graphs and streams shrink
        self.scale = scale
        self.engine: Engine | None = None
        self._cache = [0, 0, 0]
        self._first: dict[str, dict] = {}
        self._refs: dict = {}

    def graph_scale(self, cell: Cell) -> float:
        return cell.scale * self.scale

    def requests(self, full: int) -> int:
        return max(24, int(full * self.scale))

    def cache_totals(self) -> tuple[int, int, int]:
        """Cumulative (hits, misses, evictions) of the program caches the
        operations go through."""
        if self.engine is None:
            return tuple(self._cache)
        s = self.engine.cache.stats()
        return (s.hits, s.misses, s.evictions)

    def ref(self, key, cell: Cell, data, seed: int) -> np.ndarray:
        """The oracle's answer for inputs every sample of ``key`` shares,
        computed at the first check so set-up times none of it."""
        if key not in self._refs:
            self._refs[key] = oracle(cell, data, seed)
        return self._refs[key]

    def same_as_first(self, cell: Cell, row: dict) -> bool:
        """Identical work must give identical virtual-clock statistics."""
        exact = {k: v for k, v in row.items() if k not in ("host_s", "single_host_s", "j")}
        return self._first.setdefault(cell.name, exact) == exact

    # -- to implement ---------------------------------------------------
    def setup(self, rec) -> list:
        """Build state and run one warm-up operation per cell; returns
        ``(kind, row)`` statistics gathered on the way."""
        raise NotImplementedError

    def prepare(self, cell: Cell, j: int, rec):
        """Inputs of sample ``j``, built outside the timed region (spans
        opened here carry the phase ``prepare``)."""
        return None

    def op(self, cell: Cell, j: int, inputs, rec):
        raise NotImplementedError

    def check(self, cell: Cell, j: int, inputs, out, rec) -> Check:
        raise NotImplementedError


# -- cold: a dataset name to a response, nothing kept between requests --
class Cold(Workload):
    def setup(self, rec) -> list:
        for cell in self.cells:
            tidy()
            self.op(cell, WARMUP_OFFSET, None, rec)
        return []

    def op(self, cell, j, inputs, rec):
        seed, scale = self.seed + j, self.graph_scale(cell)
        with rec.span("engine.construct", "engine"):
            engine = Engine()
        with rec.span("datasets.load", "datasets") as load:
            engine.load_graph(cell.dataset, scale=scale, seed=seed)
        with rec.span("engine.compile", "compiler"):
            handle = engine.compile(cell.model, cell.dataset, scale=scale, seed=seed)
        with rec.span("runtime.first_infer", "runtime") as infer:
            result = engine.infer(handle)
        return engine, handle, result, load, infer

    def check(self, cell, j, inputs, out, rec) -> Check:
        engine, handle, result, load, infer = out
        s = engine.cache.stats()
        for i, n in enumerate((s.hits, s.misses, s.evictions)):
            self._cache[i] += n
        row = metrics.inference_stats(result)
        ok = reference.matches(result.output_dense(), oracle(cell, handle.data, self.seed + j))
        return Check(ok, modelled_ms=row["latency_ms"], rows=[
            ("inference", with_host(row, infer, cell=cell.name, group=cell.group,
                                    strategy=cell.strategy)),
            ("load", with_host({"cell": cell.name, "nnz": int(handle.data.a.nnz)}, load)),
            ("compile", timing_row(cell, handle.program)),
        ])


class ColdSmall(Cold):
    name = "cold_small"
    cells = tuple(Cell(m, d) for m in ("GCN", "GIN") for d in ("CO", "CI"))
    samples_per_pass = 5
    setup_repeats = 5
    probe = Cell("GIN", "CI")


class ColdLarge(Cold):
    name = "cold_large"
    cells = (Cell("GCN", "PU", 0.5), Cell("GCN", "FL", 0.1), Cell("GCN", "RE", 0.02))
    setup_repeats = 5
    probe = Cell("GCN", "PU", 0.5)


# -- warm: the paper's sweep loop over compiled programs ----------------
class WarmSweep(Workload):
    name = "warm_sweep"
    cells = tuple(
        Cell(m, "PU", WARM_SCALE, p, s)
        for m in MODELS for p in (0.0, 0.9) for s in ("S1", "S2", "Dynamic")
    )
    probe = Cell("GraphSAGE", "PU", WARM_SCALE, 0.9)

    def setup(self, rec) -> list:
        self.engine = Engine()
        self.handles = {}
        for cell in self.cells:
            if cell.group not in self.handles:
                with rec.span("engine.compile", "compiler"):
                    self.handles[cell.group] = self.engine.compile(
                        cell.model, cell.dataset, scale=self.graph_scale(cell),
                        seed=self.seed, prune=cell.prune)
            tidy()
            self.op(cell, WARMUP_OFFSET, None, rec)
        return []

    def op(self, cell, j, inputs, rec):
        with rec.span("runtime.warm_infer", "runtime") as infer:
            result = self.engine.infer(self.handles[cell.group], strategy=cell.strategy)
        return result, infer

    def check(self, cell, j, inputs, out, rec) -> Check:
        result, infer = out
        row = metrics.inference_stats(result)
        data = self.handles[cell.group].data
        ok = reference.matches(
            result.output_dense(), self.ref(cell.group, cell, data, self.seed))
        ok = self.same_as_first(cell, row) and ok
        return Check(ok, modelled_ms=row["latency_ms"], rows=[
            ("inference", with_host(row, infer, cell=cell.name, group=cell.group,
                                    strategy=cell.strategy)),
        ])


# -- shard: the same kernels driven across a device pool ----------------
class ShardSweep(Workload):
    name = "shard_sweep"
    cells = (
        Cell("GCN", "PU", SHARD_SCALE, shards=2), Cell("GCN", "PU", SHARD_SCALE, shards=4),
        Cell("GIN", "PU", SHARD_SCALE, shards=2), Cell("GIN", "PU", SHARD_SCALE, shards=4),
        Cell("GCN", "FL", 0.1, shards=4),
    )
    samples_per_pass = 2
    setup_repeats = 5
    probe = Cell("GCN", "PU", SHARD_SCALE, shards=2)

    def setup(self, rec) -> list:
        self.engine = Engine(pool_size=4)
        self.handles, self.singles = {}, {}
        for cell in self.cells:
            scale = self.graph_scale(cell)
            with rec.span("engine.compile", "compiler"):
                self.engine.compile(cell.model, cell.dataset, scale=scale, seed=self.seed)
            with rec.span("shard.plan", "shard"):
                self.handles[cell.name] = self.engine.compile(
                    cell.model, cell.dataset, scale=scale, seed=self.seed,
                    shards=cell.shards)
            tidy()
            self.op(cell, WARMUP_OFFSET, None, rec)
        return []

    def op(self, cell, j, inputs, rec):
        with rec.span("shard.infer", "shard") as infer:
            result = self.engine.infer(self.handles[cell.name], backend="sharded")
        return result, infer

    def single(self, cell: Cell, rec) -> tuple[tuple, list]:
        """The single-device run of the cell's program, made at the cell's
        first check: the output a sharded run must equal bit for bit, the
        modelled latency its speedup is over, and (traced) the host time
        ``shard.host_overhead_vs_single`` divides by."""
        if cell.name in self.singles:
            return self.singles[cell.name], []
        handle = self.handles[cell.name]
        with rec.span("runtime.first_infer", "runtime"):
            self.engine.infer(handle)
        with rec.span("runtime.warm_infer", "runtime") as warm:
            result = self.engine.infer(handle)
        row = metrics.inference_stats(result)
        self.singles[cell.name] = (
            result.output_dense(), row["latency_ms"],
            warm.dur if warm is not None else None)
        return self.singles[cell.name], [("inference", dict(
            row, cell=cell.name, group=cell.group, strategy=cell.strategy))]

    def check(self, cell, j, inputs, out, rec) -> Check:
        result, infer = out
        (single_out, single_ms, single_host_s), rows = self.single(cell, rec)
        row = metrics.sharded_stats(result, single_ms)
        output = result.output_dense()
        data = self.handles[cell.name].data
        ok = reference.matches(output, self.ref(cell.group, cell, data, self.seed))
        ok = np.array_equal(output, single_out) and ok
        ok = self.same_as_first(cell, row) and ok
        if single_host_s is not None:
            row["single_host_s"] = single_host_s
        rows.append(("sharded", with_host(row, infer, cell=cell.name)))
        return Check(ok, modelled_ms=row["latency_ms"], rows=rows)


# -- serve --------------------------------------------------------------
def is_inference(request) -> bool:
    """Streams mix inference and mutation requests; only the former has
    a model and gets a response."""
    return hasattr(request, "model")


class Serve(Workload):
    """Shared checks of the two serve workloads."""

    def answered(self, stream, report) -> bool:
        """Exactly one response per inference request, none shed."""
        wanted = {r.request_id for r in stream if is_inference(r)}
        answered = [r.request_id for r in report.responses]
        return (len(answered) == len(wanted) and set(answered) == wanted
                and report.shed_requests == 0)

    def serve_check(self, cell, ok, report, span) -> Check:
        row = metrics.serve_stats(report)
        return Check(
            ok, units=row["requests"], modelled_ms=row["latency_mean_ms"],
            modelled_rps=row["throughput_rps"],
            rows=[("serve", with_host(row, span, cell=cell.name))],
        )


class ServeSteady(Serve):
    name = "serve_steady"
    cells = (Cell("mix", "CO+CI"),)
    probe = Cell("GCN", "CO")
    #: requests per stream; all arrive within 0.02 virtual seconds, a burst
    #: the pool needs 0.6 to drain, so virtual throughput is the server's
    #: capacity and mean latency the same capacity seen by a request.  A
    #: uniform mix: with Zipf skew the hot program changes with the seed
    #: and virtual throughput swings 13.8k-18.4k req/s from seed to seed.
    REQUESTS = 20_000
    RATE_RPS = 1e6
    DATASETS = ("CO", "CI")

    def setup(self, rec) -> list:
        """Only the stream and one replay of it: the replay compiles and
        executes each of the eight programs once, which is all the warming
        the timed replays need.  (Compiling and inferring each program
        directly first would double the 3 s this takes: the server's run
        memo is its own.)"""
        self.engine = Engine(pool_size=4)
        self.stream = synthesize(
            self.requests(self.REQUESTS), arrival="poisson", rate_rps=self.RATE_RPS,
            models=MODELS, datasets=self.DATASETS, scale=self.scale, skew=0.0,
            seed=self.seed)
        self.op(self.cells[0], WARMUP_OFFSET, None, rec)
        return []

    def op(self, cell, j, inputs, rec):
        with rec.span("serve.serve", "serve") as span:
            report = self.engine.serve(self.stream, max_batch_size=8)
        return report, span

    def check(self, cell, j, inputs, out, rec) -> Check:
        report, span = out
        ok = self.answered(self.stream, report)
        # one sampled response per program against the oracle
        sampled = {}
        for response in report.responses:
            sampled.setdefault((response.model, response.dataset), response)
        ok = ok and len(sampled) == len(MODELS) * len(self.DATASETS)
        for (model, dataset), response in sampled.items():
            data = self.engine.load_graph(dataset, scale=self.scale, seed=self.seed)
            ok = reference.matches(
                response.output,
                self.ref((model, dataset), Cell(model, dataset), data, self.seed)) and ok
        check = self.serve_check(cell, ok, report, span)
        check.ok = self.same_as_first(cell, check.rows[0][1]) and check.ok
        return check


class ServeChurn(Serve):
    name = "serve_churn"
    cells = (Cell("GCN", "PU", 0.5),)
    setup_repeats = 5
    probe = Cell("GCN", "PU", 0.5)
    host_leaks_into_virtual = True
    #: requests per stream, every eighth a mutation, all arriving within a
    #: virtual millisecond (a burst to drain, as in ``serve_steady``).
    #: Every sample replays the same stream against a fresh copy of the
    #: graph on a fresh engine (built in ``prepare``, untimed): on one graph
    #: kept across samples the log and the cache grow, the k-th stream costs
    #: more than the first (probe: 1.33 s rising to 1.97 s over seven) and
    #: resident memory climbs 15 MB a stream, so what a run reads would
    #: depend on how many streams the host got through.
    REQUESTS = 100
    RATE_RPS = 1e5

    def setup(self, rec) -> list:
        cell = self.cells[0]
        with rec.span("datasets.load", "datasets"):
            self.data = load_dataset(cell.dataset, scale=self.graph_scale(cell), seed=self.seed)
        inputs = self.prepare(cell, WARMUP_OFFSET, rec)
        tidy()
        self.op(cell, WARMUP_OFFSET, inputs, rec)
        return [("inference", dict(
            metrics.inference_stats(inputs.first), cell=cell.name, group=cell.group,
            strategy=cell.strategy))]

    def prepare(self, cell, j, rec):
        engine = Engine(pool_size=2)
        graph = MutableGraph(self.data)
        engine.register_graph(graph)
        with rec.span("engine.compile", "compiler"):
            handle = engine.compile(cell.model, graph)
        with rec.span("runtime.first_infer", "runtime"):
            first = engine.infer(handle)
        stream = churn_stream(
            self.requests(self.REQUESTS), graph=graph, models=(cell.model,),
            mutation_every=8, edge_fraction=EDGE_FRACTION, rate_rps=self.RATE_RPS,
            seed=self.seed)
        s = engine.cache.stats()
        return Churn(engine, graph, stream, first, (s.hits, s.misses, s.evictions))

    def op(self, cell, j, inputs, rec):
        with rec.span("serve.serve", "serve") as span:
            report = inputs.engine.serve(inputs.stream)
        return report, span

    def check(self, cell, j, inputs, out, rec) -> Check:
        report, span = out
        engine, graph, stream = inputs.engine, inputs.graph, inputs.stream
        s = engine.cache.stats()
        for i, n in enumerate((s.hits, s.misses, s.evictions)):
            self._cache[i] += n - inputs.cache_before[i]
        ok = self.answered(stream, report)
        ok = ok and report.num_mutations == sum(1 for r in stream if not is_inference(r))
        # the live graph after this stream: the cached, patched program
        # must answer what the oracle computes on the current snapshot
        # (streams and Engine.compile both default to weight seed 0)
        live = engine.infer(engine.compile(cell.model, graph))
        ok = reference.matches(
            live.output_dense(), oracle(cell, graph.snapshot(), 0)) and ok
        return self.serve_check(cell, ok, report, span)


@dataclass
class Churn:
    """What one ``serve_churn`` sample runs against."""

    engine: Engine
    graph: MutableGraph
    stream: list
    #: the direct inference that warmed the program before any mutation
    first: object
    #: the engine cache's (hits, misses, evictions) before the stream
    cache_before: tuple


WORKLOADS = {w.name: w for w in
             (ColdSmall, ColdLarge, WarmSweep, ShardSweep, ServeSteady, ServeChurn)}


# -- the walk -----------------------------------------------------------
def edge_delta(graph: MutableGraph, seed: int) -> GraphDelta:
    """Delete ``EDGE_FRACTION / 2`` of the stored edges, insert as many."""
    rng = np.random.default_rng(seed)
    a = graph.snapshot().a.tocoo()
    k = max(1, int(a.nnz * EDGE_FRACTION / 2))
    gone = rng.choice(a.nnz, size=k, replace=False)
    rows = rng.integers(0, graph.num_vertices, size=2 * k + 8)
    cols = rng.integers(0, graph.num_vertices, size=2 * k + 8)
    keep = rows != cols
    rows, cols = rows[keep][:k], cols[keep][:k]
    return GraphDelta(
        insert_rows=rows, insert_cols=cols,
        insert_vals=np.ones(rows.size, np.float32),
        delete_rows=a.row[gone], delete_cols=a.col[gone],
    )


def walk(wl: Workload, rec) -> tuple[list, int, int]:
    """The cold journey of the workload's probe cell, one layer at a time,
    then standalone probes of what the journey does not call by itself.

    Every traced run walks before it times, so each per-layer *time* has a
    measurement on every workload (see ``metrics``).  Returns the
    statistics rows, and how many outputs were verified and how many of
    those failed.
    """
    cell, seed, scale = wl.probe, wl.seed, wl.graph_scale(wl.probe)
    rows, outputs = [], []

    def infer_row(result, span, strategy="Dynamic") -> dict:
        outputs.append(result.output_dense())
        return with_host(metrics.inference_stats(result), span, cell=cell.name,
                         group=cell.group, strategy=strategy)

    with rec.span("walk", "ledger"):
        with rec.span("engine.construct", "engine"):
            engine = Engine(pool_size=2)
        with rec.span("datasets.load", "datasets") as span:
            data = engine.load_graph(cell.dataset, scale=scale, seed=seed)
        rows.append(("load", with_host({"cell": cell.name, "nnz": int(data.a.nnz)}, span)))
        with rec.span("gnn.weights", "gnn"):
            weights = weights_for(cell, data, seed)
        model = build_model(cell.model, data.num_features, data.hidden_dim, data.num_classes)
        with rec.span("gnn.adjacency", "gnn"):
            build_adjacency_variants(data.a, model.adjacency_names())
        with rec.span("compiler.compile", "compiler"):
            program = Compiler(u250_default()).compile(model, data, weights)
        rows.append(("compile", timing_row(cell, program)))
        with rec.span("engine.compile", "compiler"):
            handle = engine.compile(cell.model, cell.dataset, scale=scale, seed=seed,
                                    prune=cell.prune)
        with rec.span("runtime.first_infer", "runtime"):
            engine.infer(handle)
        with rec.span("runtime.warm_infer", "runtime") as span:
            result = engine.infer(handle)
        warm = infer_row(result, span)
        rows.append(("inference", warm))
        for strategy in ("S1", "S2"):
            with rec.span("runtime.static_infer", "runtime") as span:
                result = engine.infer(handle, strategy=strategy)
            rows.append(("inference", infer_row(result, span, strategy)))

        with rec.span("shard.plan", "shard"):
            split = engine.compile(cell.model, cell.dataset, scale=scale, seed=seed,
                                   prune=cell.prune, shards=2)
        with rec.span("shard.first_infer", "shard"):
            engine.infer(split, backend="sharded")
        with rec.span("shard.infer", "shard") as span:
            sharded = engine.infer(split, backend="sharded")
        outputs.append(sharded.output_dense())
        row = metrics.sharded_stats(sharded, warm["latency_ms"])
        if "host_s" in warm:
            row["single_host_s"] = warm["host_s"]
        rows.append(("sharded", with_host(row, span, cell=cell.name)))

        stream = synthesize(
            wl.requests(WALK_REQUESTS), arrival="poisson", rate_rps=ServeSteady.RATE_RPS,
            models=(cell.model,), datasets=(cell.dataset,), prune_levels=(cell.prune,),
            scale=scale, seed=seed)
        with rec.span("serve.first_serve", "serve"):
            engine.serve(stream, max_batch_size=8)
        with rec.span("serve.serve", "serve") as span:
            report = engine.serve(stream, max_batch_size=8)
        outputs.append(report.responses[0].output)
        rows.append(("serve", with_host(metrics.serve_stats(report), span, cell=cell.name)))

        graph = MutableGraph(data)
        with rec.span("dyngraph.compile", "compiler"):
            live = engine.compile(cell.model, graph, seed=seed, prune=cell.prune)
        with rec.span("dyngraph.first_infer", "runtime"):
            engine.infer(live)
        delta = edge_delta(graph, seed)
        with rec.span("dyngraph.mutate", "dyngraph"):
            patch = engine.mutate(live, delta)
        rows.append(("patch", {"cell": cell.name, "patch_ms": patch.wall_s * 1e3}))
        with rec.span("dyngraph.infer", "runtime"):
            after = engine.infer(live)

    ref = oracle(cell, data, seed)
    failed = sum(1 for out in outputs if not reference.matches(out, ref))
    if not reference.matches(after.output_dense(), oracle(cell, graph.snapshot(), seed)):
        failed += 1
    return rows, len(outputs) + 1, failed
