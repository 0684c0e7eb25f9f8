"""Churn experiments: patch-vs-recompile cost and serving under mutation.

Two measurements back the dyngraph subsystem's claims (shared by the
``dyngraph_churn`` bench specs and the ``python -m repro dyngraph-bench``
CLI):

``patch_vs_recompile``
    the microbenchmark — apply a small random edge delta to a mid-size
    graph and compare the wall-clock cost of
    :meth:`~repro.dyngraph.patcher.ProgramPatcher.patch` against a full
    ``Compiler.compile``.  Both sides end at the same readiness bar: a
    profiled program holding the censused view of every operand its
    kernels read, which is what either call returns.

``churn_experiment``
    the serving comparison — the same interleaved infer/mutate stream
    replayed through two servers that differ only in mutation policy
    (``patch`` vs ``evict``), reporting throughput, latency and compile
    time for each.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from repro.compiler.compile import Compiler
from repro.config import u250_default
from repro.datasets.catalog import load_dataset
from repro.dyngraph.delta import random_delta
from repro.dyngraph.mutable import MutableGraph
from repro.dyngraph.patcher import ProgramPatcher
from repro.gnn import build_model, init_weights


@dataclass(frozen=True)
class MicrobenchResult:
    """One patch-vs-recompile measurement."""

    dataset: str
    model: str
    scale: float
    nnz: int
    delta_edges: int
    #: best-of-N seconds of a full compile per mutation
    recompile_s: float
    #: best-of-N seconds of a patch
    patch_s: float
    dirty_blocks: int
    reanalyzed_pairs: int
    decision_flips: int

    @property
    def speedup(self) -> float:
        return self.recompile_s / self.patch_s if self.patch_s > 0 else float("inf")

    def format_report(self) -> str:
        return (
            f"patch vs recompile — {self.model} on {self.dataset} "
            f"(scale {self.scale}, nnz {self.nnz:,}), "
            f"{self.delta_edges} edge changes/delta "
            f"({self.delta_edges / self.nnz:.2%} churn):\n"
            f"  full recompile    : {self.recompile_s * 1e3:.3f} ms\n"
            f"  program patch     : {self.patch_s * 1e3:.3f} ms "
            f"({self.dirty_blocks} dirty blocks, "
            f"{self.reanalyzed_pairs} K2P re-decisions, "
            f"{self.decision_flips} flips)\n"
            f"  speedup           : {self.speedup:.1f}x"
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "speedup": self.speedup}


def patch_vs_recompile(
    *,
    dataset: str = "PU",
    scale: float = 0.5,
    model_name: str = "GCN",
    edge_fraction: float = 0.01,
    feature_updates: int = 8,
    repeats: int = 5,
    seed: int = 0,
) -> MicrobenchResult:
    """Time patching a ``edge_fraction`` delta against full recompiles."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if not 0.0 < edge_fraction <= 1.0:
        raise ValueError(f"edge_fraction must be in (0, 1], got {edge_fraction}")
    data = load_dataset(dataset, scale=scale, seed=seed)
    graph = MutableGraph(data, graph_id=f"{dataset}-bench")
    snapshot = graph.snapshot()
    model = build_model(
        model_name, snapshot.num_features, snapshot.hidden_dim,
        snapshot.num_classes,
    )
    weights = init_weights(model, seed=seed)
    compiler = Compiler(u250_default())
    program = compiler.compile(model, snapshot, weights)
    patcher = ProgramPatcher()

    n_changes = max(1, int(graph.nnz * edge_fraction / 2))
    recompile_s = patch_s = float("inf")
    dirty = reanalyzed = flips = 0
    for rep in range(repeats):
        delta = random_delta(
            graph.num_vertices,
            snapshot.num_features,
            edge_inserts=n_changes,
            edge_deletes=n_changes,
            feature_updates=feature_updates,
            seed=seed + 101 * (rep + 1),
        )
        applied = graph.apply(delta)
        snapshot = graph.snapshot()

        t0 = time.perf_counter()
        compiler.compile(model, snapshot, weights)
        recompile_s = min(recompile_s, time.perf_counter() - t0)

        t0 = time.perf_counter()
        program, report = patcher.patch(program, snapshot, applied)
        # best-of-N (timeit-style): the minimum is the noise-robust
        # estimate of each path's intrinsic cost
        patch_s = min(patch_s, time.perf_counter() - t0)
        if not report.patched:
            raise RuntimeError(
                f"microbench delta unexpectedly fell back: {report.reason}"
            )
        dirty += report.dirty_blocks
        reanalyzed += report.reanalyzed_pairs
        flips += report.decision_flips

    return MicrobenchResult(
        dataset=dataset,
        model=model_name,
        scale=scale,
        nnz=graph.nnz,
        delta_edges=2 * n_changes,
        recompile_s=recompile_s,
        patch_s=patch_s,
        dirty_blocks=dirty // repeats,
        reanalyzed_pairs=reanalyzed // repeats,
        decision_flips=flips // repeats,
    )


class ChurnReports(dict):
    """``{"patch": ServingReport, "evict": ServingReport}``: one stream
    served under both mutation policies."""

    def format_report(self) -> str:
        patch, evict = self["patch"], self["evict"]
        ratio = (
            patch.throughput_rps / evict.throughput_rps
            if evict.throughput_rps else float("inf")
        )
        return "\n".join([
            f"churn serving stream: {patch.num_requests} requests, "
            f"{patch.num_mutations} mutations",
            *(
                f"\n== churn serving, mutation policy: {policy} ==\n"
                f"{report.format_report()}"
                for policy, report in self.items()
            ),
            "\nsummary:",
            f"  churn throughput   : patch {patch.throughput_rps:,.0f} req/s "
            f"vs evict {evict.throughput_rps:,.0f} req/s ({ratio:.2f}x)",
            f"  compile time spent : patch {patch.compile_s * 1e3:.1f} ms "
            f"(+ {patch.patch_s * 1e3:.1f} ms patching) vs "
            f"evict {evict.compile_s * 1e3:.1f} ms",
        ])


def churn_experiment(
    *,
    dataset: str = "PU",
    scale: float = 0.25,
    model_name: str = "GCN",
    num_requests: int = 60,
    mutation_every: int = 6,
    edge_fraction: float = 0.005,
    pool_size: int = 2,
    max_batch_size: int = 4,
    rate_rps: float | None = None,
    seed: int = 0,
) -> ChurnReports:
    """Serve one interleaved infer/mutate stream under both mutation
    policies; returns ``{"patch": ServingReport, "evict": ServingReport}``.

    Each policy gets its own server *and* its own :class:`MutableGraph`
    built from the same seed, so the two runs see bit-identical graphs,
    deltas and arrival times — the only difference is what happens to
    cached programs when a mutation lands.

    The default arrival rate is calibrated against the *measured compile
    time* — the stream spans a few compiles' worth of virtual time — so
    the comparison sits in the regime where mutation handling matters:
    fast enough that recompile stalls queue requests, long enough that a
    single compile cannot dominate the whole sweep.
    """
    from repro.serve.server import InferenceServer
    from repro.serve.workload import churn_stream

    if num_requests < 2:
        raise ValueError(
            f"num_requests must be >= 2 (a churn stream needs traffic "
            f"around its mutations), got {num_requests}"
        )
    rate = rate_rps
    if rate is None:
        data = load_dataset(dataset, scale=scale, seed=seed)
        model = build_model(
            model_name, data.num_features, data.hidden_dim, data.num_classes
        )
        probe = Compiler(u250_default()).compile(
            model, data, init_weights(model, seed=seed)
        )
        span_s = 3.0 * max(probe.timings.total_s, 1e-4)
        rate = num_requests / span_s

    reports = ChurnReports()
    for policy in ("patch", "evict"):
        data = load_dataset(dataset, scale=scale, seed=seed)
        graph = MutableGraph(data, graph_id=f"{dataset}-churn")
        server = InferenceServer(
            u250_default(),
            pool_size=pool_size,
            max_batch_size=max_batch_size,
            return_outputs=False,
            mutation_policy=policy,
        )
        server.register_graph(graph)
        stream = churn_stream(
            num_requests,
            graph=graph,
            models=(model_name,),
            mutation_every=mutation_every,
            edge_fraction=edge_fraction,
            rate_rps=rate,
            seed=seed,
        )
        reports[policy] = server.serve(stream)
    return reports
