"""Tests for the `repro.engine` facade.

Covers: bit-exact equivalence of ``Engine.infer`` against the legacy
``Compiler`` + ``run_strategy`` wiring for the whole small-config
model x dataset matrix, backend dispatch (every name runs, unknown
backends and strategies are rejected), program-cache sharing between
direct engine use and serving, the ``engine.mutate`` dynamic-graph path,
and the top-level removal of the 1.1 deprecation shims.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import make_tiny_config

import repro
from repro import Compiler, build_model, init_weights, load_dataset
from repro.dyngraph import GraphDelta, MutableGraph
from repro.engine import BACKENDS, Engine, measure_facade_overhead
from repro.gnn import MODEL_NAMES
from repro.runtime.executor import run_strategy
from repro.runtime.strategies import make_strategy, strategy_names
from repro.serve import InferenceRequest, InferenceServer

SCALE = 0.12
MATRIX_DATASETS = ("CO", "CI")


def legacy_result(model_name, dataset, cfg, *, seed=3, strategy="Dynamic"):
    """The pre-engine choreography, spelled out by hand."""
    data = load_dataset(dataset, scale=SCALE, seed=seed)
    model = build_model(model_name, data.num_features, data.hidden_dim,
                        data.num_classes)
    program = Compiler(cfg).compile(model, data, init_weights(model, seed=seed))
    return run_strategy(program, strategy)


class TestEquivalence:
    @pytest.mark.parametrize("dataset", MATRIX_DATASETS)
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_engine_matches_legacy_path(self, model, dataset):
        cfg = make_tiny_config()
        legacy = legacy_result(model, dataset, cfg)
        engine = Engine(cfg)
        handle = engine.compile(model, dataset, scale=SCALE, seed=3)
        result = engine.infer(handle)
        assert result.latency_ms == legacy.latency_ms
        assert result.total_cycles == legacy.total_cycles
        assert result.primitive_totals == legacy.primitive_totals
        np.testing.assert_array_equal(
            result.output_dense(), legacy.output_dense()
        )

    @pytest.mark.parametrize("strategy", ("S1", "S2", "Oracle"))
    def test_equivalence_holds_per_strategy(self, strategy):
        cfg = make_tiny_config()
        legacy = legacy_result("GCN", "CO", cfg, strategy=strategy)
        engine = Engine(cfg)
        handle = engine.compile("GCN", "CO", scale=SCALE, seed=3)
        result = engine.infer(handle, strategy=strategy)
        assert result.total_cycles == legacy.total_cycles
        np.testing.assert_array_equal(
            result.output_dense(), legacy.output_dense()
        )

    def test_second_compile_is_a_cache_hit(self):
        engine = Engine(make_tiny_config())
        first = engine.compile("GCN", "CO", scale=SCALE, seed=3)
        second = engine.compile("GCN", "CO", scale=SCALE, seed=3)
        assert not first.cache_hit and second.cache_hit
        assert second.program is first.program
        assert second.compile_s == 0.0

    def test_explicit_weights_bypass_the_cache(self):
        engine = Engine(make_tiny_config())
        data = load_dataset("CO", scale=SCALE, seed=3)
        model = build_model("GCN", data.num_features, data.hidden_dim,
                            data.num_classes)
        w = init_weights(model, seed=99)
        handle = engine.compile(model, data, weights=w)
        assert handle.key is None and not handle.cache_hit
        assert len(engine.cache) == 0


class TestBackendRegistry:
    def test_builtin_backends_all_run(self):
        engine = Engine(make_tiny_config())
        handle = engine.compile("GCN", "CO", scale=SCALE, seed=3)
        assert set(BACKENDS) >= {"simulated", "cpu", "gpu", "hetero"}
        for name in ("simulated", "cpu", "gpu", "hetero"):
            result = engine.infer(handle, backend=name)
            assert result.latency_s > 0
            assert result.latency_ms == pytest.approx(result.latency_s * 1e3)

    def test_unknown_backend_error_lists_names(self):
        engine = Engine(make_tiny_config())
        handle = engine.compile("GCN", "CO", scale=SCALE, seed=3)
        with pytest.raises(KeyError) as excinfo:
            engine.infer(handle, backend="warp-drive")
        message = str(excinfo.value)
        for name in ("simulated", "cpu", "gpu", "hetero"):
            assert name in message

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_rejects_an_unknown_strategy(self, backend):
        engine = Engine(make_tiny_config())
        handle = engine.compile("GCN", "CO", scale=SCALE, seed=3)
        with pytest.raises(KeyError) as simulated:
            engine.infer(handle, strategy="nope")
        with pytest.raises(KeyError) as excinfo:
            engine.infer(handle, strategy="nope", backend=backend)
        assert str(excinfo.value) == str(simulated.value)
        assert "valid strategies" in str(excinfo.value)


class TestStrategyErrors:
    def test_make_strategy_error_lists_valid_names(self):
        with pytest.raises(KeyError) as excinfo:
            make_strategy("nope", make_tiny_config())
        message = str(excinfo.value)
        for name in strategy_names():
            assert name in message
        assert "Fixed-GEMM" in message


class TestServeIntegration:
    def test_serve_shares_the_engine_program_cache(self):
        engine = Engine(make_tiny_config())
        engine.compile("GCN", "CO", scale=SCALE, seed=3)
        report = engine.serve(
            [InferenceRequest(model="GCN", dataset="CO", scale=SCALE, seed=3)],
            return_outputs=False,
        )
        # already compiled through the facade: serving never recompiles
        assert report.cache_misses == 0 and report.cache_hits == 1

    def test_server_composes_engine(self):
        engine = Engine(make_tiny_config(), pool_size=2)
        server = InferenceServer(engine=engine, return_outputs=False)
        assert server.cache is engine.cache
        assert server.pool is engine.pool
        assert server.config is engine.config

    def test_server_rejects_conflicting_config_and_engine(self):
        engine = Engine(make_tiny_config())
        # a value-equal config is harmless and accepted...
        server = InferenceServer(make_tiny_config(), engine=engine)
        assert server.engine is engine
        # ...a different config, or engine-owned resources, are rejected
        with pytest.raises(ValueError, match="config"):
            InferenceServer(make_tiny_config(num_cores=1), engine=engine)
        with pytest.raises(ValueError, match="pool_size"):
            InferenceServer(engine=engine, pool_size=4)
        with pytest.raises(ValueError, match="cache_capacity"):
            engine.serve([], cache_capacity=8)

    def test_model_fingerprint_sees_layer_parameters(self):
        from repro.engine import model_fingerprint
        from repro.gnn.layers import LayerSpec
        from repro.gnn.models import ModelSpec

        a = ModelSpec("GIN", [LayerSpec("gin", 8, 4, eps=0.0)])
        b = ModelSpec("GIN", [LayerSpec("gin", 8, 4, eps=0.5)])
        assert model_fingerprint(a) != model_fingerprint(b)

    def test_repeated_engine_serve_stays_warm(self):
        engine = Engine(make_tiny_config())
        workload = [
            InferenceRequest(model="GCN", dataset="CO", scale=SCALE, seed=3)
            for _ in range(3)
        ]
        cold = engine.serve(workload, return_outputs=False)
        warm = engine.serve(workload, return_outputs=False)
        assert cold.cache_misses == 1
        assert warm.cache_misses == 0 and warm.compile_s == 0.0


class TestMutation:
    def _graph(self, graph_id, seed=0):
        return MutableGraph(
            load_dataset("CO", scale=0.3, seed=seed), graph_id=graph_id
        )

    def test_mutate_patches_and_matches_fresh_compile(self):
        cfg = make_tiny_config()
        engine = Engine(cfg)
        graph = self._graph("eng-mut")
        handle = engine.compile("GCN", graph, seed=0)
        key_before = handle.key
        report = engine.mutate(
            handle,
            GraphDelta.edges(inserts=[(0, 9), (4, 7)], deletes=[(1, 2)]),
        )
        assert report is not None and report.patched
        assert handle.graph_version == graph.version == 1
        assert handle.key != key_before
        # the patched program was re-keyed in the cache, not duplicated
        assert engine.cache.peek(handle.key) is handle.program
        assert engine.cache.peek(key_before) is None
        fresh = Compiler(cfg).compile(
            handle.model, graph.snapshot(), init_weights(handle.model, seed=0)
        )
        np.testing.assert_array_equal(
            engine.infer(handle).output_dense(),
            run_strategy(fresh, "Dynamic").output_dense(),
        )

    def test_mutate_noop_returns_none(self):
        engine = Engine(make_tiny_config())
        graph = self._graph("eng-noop")
        handle = engine.compile("GCN", graph, seed=0)
        # deleting an absent self-loop changes nothing structurally
        report = engine.mutate(handle, GraphDelta.edges(deletes=[(0, 0)]))
        assert report is None
        assert handle.graph_version == graph.version == 0

    def test_mutate_recaches_after_lru_eviction(self):
        engine = Engine(make_tiny_config())
        graph = self._graph("eng-evicted")
        handle = engine.compile("GCN", graph, seed=0)
        engine.cache.pop(handle.key)  # simulate LRU pressure
        report = engine.mutate(handle, GraphDelta.edges(inserts=[(0, 9)]))
        assert report is not None
        # the fallback path re-caches the program under its new key, and
        # that key is all the lineage there is
        assert engine.cache.peek(handle.key) is handle.program
        assert engine.cache.keys() == [handle.key]

    def test_mutate_requires_a_mutable_graph(self):
        engine = Engine(make_tiny_config())
        handle = engine.compile("GCN", "CO", scale=SCALE, seed=3)
        with pytest.raises(ValueError, match="MutableGraph"):
            engine.mutate(handle, GraphDelta.edges(inserts=[(0, 1)]))

    def test_apply_delta_evict_policy(self):
        engine = Engine(make_tiny_config())
        graph = self._graph("eng-evict")
        handle = engine.compile("GCN", graph, seed=0)
        outcome = engine.apply_delta(
            graph.graph_id, GraphDelta.edges(inserts=[(0, 9)]),
            policy="evict",
        )
        assert outcome.structural and outcome.evictions == 1
        assert engine.cache.peek(handle.key) is None

    def test_namesake_inline_graph_is_evicted_never_patched(self):
        # lineage is read off the cache keys, and a key names its graph
        # by name: an inline GraphData that shares a registered graph's
        # name but not its content is no snapshot of it, so the graph's
        # next mutation evicts its program (the one case where the
        # key-derived rule is wider than tracking compiles by hand)
        from dataclasses import replace

        cfg = make_tiny_config()
        engine = Engine(cfg)
        graph = self._graph("eng-twin")
        handle = engine.compile("GCN", graph, seed=0)
        namesake = replace(
            load_dataset("CO", scale=0.3, seed=1), name="eng-twin"
        )
        twin = engine.compile("GCN", namesake, seed=0)
        assert twin.key != handle.key and twin.key[1][0] == "eng-twin"
        outcome = engine.apply_delta(
            "eng-twin", GraphDelta.edges(inserts=[(0, 9)])
        )
        assert [e.old_key for e in outcome.patches] == [handle.key]
        assert outcome.evictions == 1
        assert engine.cache.peek(twin.key) is None
        # served exactly afterwards: a recompile of its own content
        (response,) = engine.serve(
            [InferenceRequest(model="GCN", dataset=namesake)]
        ).responses
        assert not response.cache_hit
        fresh = Compiler(cfg).compile(
            twin.model, namesake, init_weights(twin.model, seed=0)
        )
        np.testing.assert_array_equal(
            response.output, run_strategy(fresh, "Dynamic").output_dense()
        )

    def test_apply_delta_rejects_unknown_policy_and_graph(self):
        engine = Engine(make_tiny_config())
        with pytest.raises(KeyError, match="unregistered"):
            engine.apply_delta("ghost", GraphDelta.edges(inserts=[(0, 1)]))
        engine.register_graph(self._graph("eng-pol"))
        with pytest.raises(ValueError, match="patch"):
            engine.apply_delta(
                "eng-pol", GraphDelta.edges(inserts=[(0, 1)]), policy="burn"
            )


class TestDeprecationShims:
    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_an_attribute
        # the 1.1 shims are gone in 2.0: the low-level names live in
        # repro.runtime only
        with pytest.raises(AttributeError):
            repro.run_strategy
        assert "run_strategy" not in repro.__all__
        assert hasattr(repro.runtime, "run_strategy")
        # ...and no module grew a PEP 562 hook since (what staticcheck's
        # RPR502 policed while there were shims to police)
        import importlib
        import pkgutil

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name != "repro.__main__":
                module = importlib.import_module(info.name)
                assert "__getattr__" not in vars(module), info.name


class TestOverheadHarness:
    def test_measure_facade_overhead_runs(self):
        result = measure_facade_overhead(
            model="GCN", dataset="CO", scale=0.1, repeats=3,
            config=make_tiny_config(),
        )
        assert result.direct_s > 0 and result.engine_s > 0
        # no ceiling assert here (CI noise); the bench smoke gate owns it
        assert result.overhead_fraction == pytest.approx(
            result.engine_s / result.direct_s - 1.0
        )
