"""Property test over a cached program's lineage.

One small registered graph, one engine whose cache holds two programs,
and random interleavings of everything that compiles, serves, mutates
or evicts: direct compiles, served streams that mix reads and
mutations under both mutation policies, engine-side deltas, deltas
applied to the graph behind the engine's back, handle mutation, and LRU
pressure from a second model and an unrelated graph.  The cache key is
the only record of which graph version a program was compiled from, so
whatever the interleaving:

- every answer equals a fresh ``Compiler().compile`` of the graph
  version current when it was asked for (bit for bit: a patched program
  is exact), and
- after a mutation that went through the engine, no cache key names the
  graph with any fingerprint but the current one, and every program
  under a current key carries the block census of a rebuild.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from conftest import make_tiny_config
from hypothesis import given, settings, strategies as st
from test_dyngraph import tiny_graph

from repro.compiler import Compiler
from repro.datasets.catalog import GraphData
from repro.dyngraph import GraphDelta, MutableGraph
from repro.engine import MUTATION_POLICIES, Engine
from repro.engine.keys import dataset_fingerprint
from repro.formats.partition import PartitionedMatrix
from repro.gnn import build_model, init_weights
from repro.runtime.executor import run_strategy
from repro.serve import InferenceRequest, MutationRequest

CFG = make_tiny_config()
MODELS = ("GCN", "GIN")
V = 48


def small_graph(name: str, seed: int) -> GraphData:
    """~270 edges: up to five changed edges are within the patcher's 2%
    churn budget (patched), six or more are over it (recompile fallback)."""
    return replace(tiny_graph(V, 8, density=0.12, seed=seed), name=name)


def oracle(model_name: str, data: GraphData) -> np.ndarray:
    model = build_model(
        model_name, data.num_features, data.hidden_dim, data.num_classes
    )
    program = Compiler(CFG).compile(model, data, init_weights(model, seed=0))
    return run_strategy(program, "Dynamic").output_dense()


edges = st.tuples(st.integers(0, V - 1), st.integers(0, V - 1)).filter(
    lambda e: e[0] != e[1]
)
deltas = st.tuples(
    st.lists(edges, max_size=6), st.lists(edges, max_size=2)
).filter(any)
models = st.sampled_from(MODELS)
policies = st.sampled_from(MUTATION_POLICIES)
operations = st.one_of(
    st.tuples(st.just("compile"), models),
    st.tuples(st.just("serve"), policies,
              st.lists(st.one_of(models, deltas), min_size=1, max_size=5)),
    st.tuples(st.just("delta"), policies, deltas),
    st.tuples(st.just("out_of_band"), deltas),
    st.tuples(st.just("mutate"), deltas),
    st.tuples(st.just("pressure")),
)


def graph_delta(delta) -> GraphDelta:
    inserts, deletes = delta
    return GraphDelta.edges(inserts=inserts, deletes=deletes)


@given(st.lists(operations, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_every_answer_is_the_current_graphs(ops):
    engine = Engine(CFG, cache_capacity=2)
    graph = MutableGraph(small_graph("g", 0), graph_id="g", symmetric=False)
    engine.register_graph(graph)
    # the oracle's own copy of the graph: the same deltas in the same
    # order give the same versions, without asking the engine anything
    shadow = MutableGraph(small_graph("g", 0), graph_id="shadow",
                          symmetric=False)
    unrelated = small_graph("other", 1)
    expected: dict[tuple, np.ndarray] = {}
    handle = None

    def want(model: str) -> np.ndarray:
        key = (model, shadow.version)
        if key not in expected:
            expected[key] = oracle(model, shadow.snapshot())
        return expected[key]

    def lineage_is_current() -> None:
        current = dataset_fingerprint(graph.snapshot())
        named = [k for k in engine.cache.keys() if k[1][0] == "g"]
        assert all(key[1] == current for key in named), (current, named)
        # and what a current key holds was patched from the version the
        # delta started at: its block census is the rebuilt one
        for key in named:
            program = engine.cache.peek(key)
            for (name, rows, cols), view in program._views.items():
                rebuilt = PartitionedMatrix(program.store[name], rows, cols)
                np.testing.assert_array_equal(
                    view.density_grid, rebuilt.density_grid
                )

    for op, *args in ops:
        if op == "compile":
            (model,) = args
            handle = engine.compile(model, "g")
            assert handle.graph_version == graph.version
            np.testing.assert_array_equal(
                engine.infer(handle).output_dense(), want(model)
            )
        elif op == "serve":
            policy, events = args
            stream, wants, mutated = [], {}, False
            for i, event in enumerate(events):
                if isinstance(event, str):
                    stream.append(InferenceRequest(
                        model=event, dataset="g", arrival_s=1e-3 * i))
                    wants[stream[-1].request_id] = want(event)
                else:
                    delta = graph_delta(event)
                    stream.append(MutationRequest(
                        graph_id="g", delta=delta, arrival_s=1e-3 * i))
                    version = shadow.version
                    shadow.apply(delta)
                    mutated = mutated or shadow.version != version
            report = engine.serve(stream, mutation_policy=policy)
            assert graph.version == shadow.version
            assert {r.request_id for r in report.responses} == set(wants)
            for response in report.responses:
                np.testing.assert_array_equal(
                    response.output, wants[response.request_id]
                )
            if mutated:
                lineage_is_current()
        elif op == "delta":
            policy, delta = args
            shadow.apply(graph_delta(delta))
            outcome = engine.apply_delta("g", graph_delta(delta), policy=policy)
            assert graph.version == shadow.version
            if outcome.structural:
                lineage_is_current()
            if policy == "evict":
                assert not outcome.patches
        elif op == "out_of_band":
            (delta,) = args
            shadow.apply(graph_delta(delta))
            graph.apply(graph_delta(delta))
        elif op == "mutate" and handle is not None:
            (delta,) = args
            shadow.apply(graph_delta(delta))
            if engine.mutate(handle, graph_delta(delta)) is not None:
                lineage_is_current()
                assert handle.graph_version == graph.version
                assert engine.cache.peek(handle.key) is handle.program
                np.testing.assert_array_equal(
                    engine.infer(handle).output_dense(),
                    want(handle.model_name),
                )
        elif op == "pressure":
            engine.compile("GCN", unrelated)
        assert len(engine.cache) <= 2
