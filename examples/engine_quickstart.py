#!/usr/bin/env python
"""Engine quickstart: one facade over compile, infer, mutate and serve.

The `repro.Engine` owns the program cache and the simulated device pool,
so the whole Dynasparse workflow is four calls:

1. `engine.compile(model, graph)` — cached per (model, graph, config)
   fingerprint;
2. `engine.infer(handle, backend=...)` — the cycle-accurate simulator,
   on one device or sharded over the pool (`repro.BACKENDS` names them);
3. `engine.mutate(handle, delta)` — dynamic-graph support: the compiled
   program is patched in place of a recompile;
4. `engine.serve(requests)` — batched multi-device serving sharing the
   same cache and pool.
"""

from repro import (
    BACKENDS,
    Engine,
    GraphDelta,
    InferenceRequest,
    MutableGraph,
    load_dataset,
)


def main() -> None:
    engine = Engine(pool_size=2)

    # 1. compile — the second call is a cache hit
    handle = engine.compile("GCN", "CO", scale=0.5, seed=0)
    again = engine.compile("GCN", "CO", scale=0.5, seed=0)
    print(f"compiled {handle.model_name} on {handle.data_name}: "
          f"{handle.program.num_kernels} kernels, "
          f"compile {handle.compile_s * 1e3:.2f} ms "
          f"(second call cache hit: {again.cache_hit})")

    # 2. infer — both simulator widths, same handle
    print("\nbackends:")
    for backend in BACKENDS:
        result = engine.infer(handle, backend=backend)
        extra = ""
        if backend == "simulated":
            prims = {p.value: c for p, c in result.primitive_totals.items()}
            extra = f"  primitives {prims}"
        print(f"  {backend:>9}: {result.latency_ms:10.4f} ms{extra}")

    # 3. mutate — a dynamic graph patches instead of recompiling
    graph = MutableGraph(load_dataset("CO", scale=0.5, seed=0),
                         graph_id="cora-live")
    live = engine.compile("GCN", graph, seed=0)
    report = engine.mutate(
        live, GraphDelta.edges(inserts=[(0, 7), (3, 11)], deletes=[(1, 2)])
    )
    print(f"\nmutation: patched={report.patched} in "
          f"{report.wall_s * 1e3:.2f} ms "
          f"({report.dirty_blocks} dirty blocks, "
          f"{report.decision_flips} K2P flips); "
          f"graph now v{graph.version}")
    print(f"post-mutation latency: "
          f"{engine.infer(live).latency_ms:.4f} ms")

    # 4. serve — traffic through the same cache and pool
    requests = [
        InferenceRequest(model="GCN", dataset="CO", scale=0.5, seed=0,
                         arrival_s=i * 1e-4)
        for i in range(12)
    ]
    sweep = engine.serve(requests, max_batch_size=4, return_outputs=False)
    print(f"\nserving: {sweep.num_requests} requests in "
          f"{sweep.num_batches} batches on {sweep.pool_size} devices — "
          f"{sweep.throughput_rps:,.0f} req/s, "
          f"cache misses {sweep.cache_misses} "
          f"(the program was already compiled in step 1)")


if __name__ == "__main__":
    main()
