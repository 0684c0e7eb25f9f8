#!/usr/bin/env python
"""Dynamic graphs: mutate a served graph and patch the compiled program.

Walkthrough of the `repro.dyngraph` subsystem:

1. wrap a dataset in a `MutableGraph` and compile it through the
   `Engine` facade;
2. apply a batched edge/feature delta via `engine.mutate` and inspect
   its exact effect;
3. verify the patched program's inference output is bit-identical to a
   from-scratch compile of the mutated graph;
4. trigger the patcher's recompile fallback with an oversized delta;
5. serve an interleaved infer/mutate stream with patch-instead-of-evict
   and compare against the evict policy.
"""

import time

import numpy as np

from repro import Compiler, Engine, init_weights, load_dataset
from repro.dyngraph import (
    GraphDelta,
    MutableGraph,
    ProgramPatcher,
    random_delta,
)
from repro.runtime.executor import run_strategy
from repro.serve import InferenceServer, churn_stream


def main() -> None:
    # 1. a mutable graph: versioned, immutable snapshots ----------------
    engine = Engine()
    graph = MutableGraph(load_dataset("CO"), graph_id="cora-live")
    print(f"graph: {graph}")

    handle = engine.compile("GCN", graph, seed=0)

    # 2. a batched mutation: edge churn + a feature write ---------------
    delta = GraphDelta.edges(
        inserts=[(0, 5), (7, 9, 0.5)],      # (row, col[, weight])
        deletes=[(1, 2)],
        features=[(3, 10, 1.25)],           # H0[3, 10] = 1.25
    )
    report = engine.mutate(handle, delta)
    applied = graph.log[-1]
    print(f"\napplied: {applied}")
    print(f"  touched vertices: {applied.touched_vertices.tolist()}")
    print(f"  nnz(A) delta: {applied.a_nnz_delta:+d}, "
          f"nnz(H0) delta: {applied.h_nnz_delta:+d}")

    # 3. the handle now holds the patched program: prove exactness ------
    print(f"\npatch: {report.wall_s * 1e3:.2f} ms wall "
          f"({report.dirty_blocks} dirty blocks, "
          f"{report.reanalyzed_pairs} K2P re-decisions, "
          f"{report.decision_flips} flips)")

    weights = init_weights(handle.model, seed=0)
    t0 = time.perf_counter()
    fresh = Compiler().compile(handle.model, graph.snapshot(), weights)
    print(f"full recompile for comparison: "
          f"{(time.perf_counter() - t0) * 1e3:.2f} ms wall")

    out_patched = engine.infer(handle, strategy="Dynamic").output_dense()
    out_fresh = run_strategy(fresh, "Dynamic").output_dense()
    assert np.array_equal(out_patched, out_fresh)
    print("patched inference output == from-scratch compile (bit-exact)")

    # 4. the fallback heuristic: a delta over 2% of the edges -----------
    big = random_delta(graph.num_vertices, graph.snapshot().num_features,
                       edge_inserts=400, edge_deletes=400, seed=1)
    applied = graph.apply(big)
    _, report = ProgramPatcher().patch(handle.program, graph.snapshot(), applied)
    print(f"\noversized delta -> patched={report.patched} "
          f"(reason: {report.reason})")

    # 5. serving under churn: patch vs evict ----------------------------
    print("\nserving an interleaved infer/mutate stream:")
    for policy in ("patch", "evict"):
        live = MutableGraph(load_dataset("CO"), graph_id="cora-churn")
        server = InferenceServer(pool_size=2, max_batch_size=4,
                                 return_outputs=False,
                                 mutation_policy=policy)
        server.register_graph(live)
        stream = churn_stream(40, graph=live, models=("GCN",),
                              mutation_every=5, edge_fraction=0.01,
                              rate_rps=10_000.0, seed=7)
        r = server.serve(stream)
        print(f"  {policy:>5}: {r.throughput_rps:>9,.0f} req/s, "
              f"p95 {r.latency_p95_s * 1e3:.3f} ms, "
              f"hit rate {r.cache_hit_rate * 100:.0f}%, "
              f"compile {r.compile_s * 1e3:.1f} ms, "
              f"patch {r.patch_s * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
