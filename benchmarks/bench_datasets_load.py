"""D1 — datasets: what a cold request pays before the compiler sees a graph.

``load_dataset`` is the first layer of the cold journey (dataset name ->
response) and, until its hot spots were replaced by exact faster methods,
was 55-90% of it.  This bench times it on the six graphs the perf ledger
loads (``ledger/workloads.py``: ``cold_small``, ``cold_large``,
``warm_sweep``, ``shard_sweep``), split into the adjacency generator and
the feature generator, and reports generated nonzeros per host second and
the peak of temporary memory a load holds beyond what it returns.

The generators are seeded and their output is a contract: every cell's
content digest is asserted against the value recorded at commit 0ddcee8,
before the rewrite, so a faster generator that draws a different graph
fails here as well as in ``tests/test_datasets.py``.
"""

import tracemalloc

from _common import Metric, best_of, emit, format_table, geomean, register_bench
from repro import load_dataset
from repro.datasets import powerlaw_graph, sparse_features
from repro.engine.keys import graph_content_digest
from repro.formats.density import nnz_count

SEED = 0
REPEATS = 5
#: (dataset, scale) -> ``graph_content_digest`` at SEED, recorded at 0ddcee8
CELLS = {
    ("CO", 1.0): "b91cbc2fa9b8910b8d418a590304d661e5f93c9b",
    ("CI", 1.0): "fa7c765b976c53f77ddccd518e37f2f0780733e3",
    ("PU", 0.5): "7c83cb097653307bcfde562da0396691196479b5",
    ("PU", 0.25): "197e7ec519b41255e6cb305d6a95b8d1f72ff64b",
    ("FL", 0.1): "840d74b3e26f637bce355ef51a8a307bb79ac777",
    ("RE", 0.02): "e7126cf6262c58ab264811bdd34a3211cf51a362",
}


def _best_ms(fn) -> float:
    return best_of(fn, REPEATS)[1] * 1e3


def _held_bytes(data) -> int:
    parts = [data.a.indptr, data.a.indices, data.a.data]
    h0 = data.h0
    parts += [h0] if not hasattr(h0, "indptr") else [h0.indptr, h0.indices, h0.data]
    return sum(p.nbytes for p in parts)


def _measure(name: str, scale: float, digest: str) -> dict:
    data = load_dataset(name, scale=scale, seed=SEED)
    assert graph_content_digest(data) == digest, (
        f"{name}@{scale:g}: generated graph differs from the recorded one"
    )
    spec, v = data.spec, data.num_vertices
    edges = data.num_edges // 2 if spec.symmetric else data.num_edges
    tracemalloc.start()
    held = _held_bytes(load_dataset(name, scale=scale, seed=SEED))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "cell": f"{name}@{scale:g}",
        "nnz": data.num_edges + nnz_count(data.h0),
        "load_ms": _best_ms(lambda: load_dataset(name, scale=scale, seed=SEED)),
        "adjacency_ms": _best_ms(
            lambda: powerlaw_graph(v, edges, seed=SEED, symmetric=spec.symmetric)
        ),
        "features_ms": _best_ms(
            lambda: sparse_features(
                v, data.num_features, spec.h0_density, seed=SEED + 1
            )
        ),
        "temp_mb": (peak - held) / 2**20,
    }


def _table(rows) -> str:
    return format_table(
        ["cell", "nnz(A)+nnz(H0)", "load (ms)", "adjacency (ms)",
         "features (ms)", "Mnnz/s", "peak temp (MB)"],
        [[r["cell"], f"{r['nnz']:,}", f"{r['load_ms']:.2f}",
          f"{r['adjacency_ms']:.2f}", f"{r['features_ms']:.2f}",
          f"{r['nnz'] / r['load_ms'] / 1e3:.2f}", f"{r['temp_mb']:.1f}"]
         for r in rows],
        title=f"D1: load_dataset per perf-ledger graph (seed {SEED}, "
              f"best of {REPEATS})",
    )


def _run():
    rows = [_measure(name, scale, digest) for (name, scale), digest in CELLS.items()]
    emit("bench_datasets_load", _table(rows))
    return rows


@register_bench(
    "datasets_load",
    tier=("smoke", "full"),
    tags=("datasets", "micro"),
    # a host rate, as machine-dependent as the times it is derived from;
    # the digests, the nnz count and peak_temp_mb are the tight gates
    tolerances={"nnz_per_s": 9.0},
)
def _spec():
    """load_dataset per ledger graph: adjacency/features ms, nnz/s, temp MB."""
    rows = _run()
    nnz = sum(r["nnz"] for r in rows)
    total_s = sum(r["load_ms"] for r in rows) / 1e3
    return {
        "load_ms": Metric("load_ms", geomean([r["load_ms"] for r in rows]), "ms"),
        "adjacency_ms": Metric(
            "adjacency_ms", geomean([r["adjacency_ms"] for r in rows]), "ms"),
        "features_ms": Metric(
            "features_ms", geomean([r["features_ms"] for r in rows]), "ms"),
        "nnz": Metric("nnz", nnz, "count"),
        "nnz_per_s": Metric("nnz_per_s", nnz / total_s, "1/s", "higher"),
        "peak_temp_mb": Metric(
            "peak_temp_mb", max(r["temp_mb"] for r in rows), "MB"),
    }
