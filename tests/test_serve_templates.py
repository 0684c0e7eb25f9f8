"""The serve loop resolves each request template once per sweep, and a
report's responses are columns built on access.

A template is everything about a request but its id and arrival: the
first request of one resolves it (binds a registered graph's live
snapshot, checks shards and SLO class, keys the program and the batch) and
later requests reuse that, until a mutation drops it.  These tests hold
the loop to the per-request behaviour it had before: what a request runs
on, which requests share an execution, which request an error names, and
what ``report.responses`` holds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from conftest import cold_then_warm, comparison_json, make_tiny_config, serving

from repro.compiler.compile import CompileTimings
from repro.datasets import load_dataset
from repro.dyngraph import GraphDelta, MutableGraph
from repro.engine import Engine, ProgramCache
from repro.gnn import build_model, init_weights, reference_inference
from repro.serve import InferenceRequest, InferenceResponse, MutationRequest
from repro.serve import synthesize

SCALE = 0.15


def tiny(**overrides) -> tuple:
    """A two-device tiny engine and its sweeps: ``(engine, serve)``."""
    base = dict(pool_size=2, max_batch_size=4, max_wait_s=1e-3)
    base.update(overrides)
    return serving(make_tiny_config(), **base)


def request(**overrides) -> InferenceRequest:
    base = dict(model="GCN", dataset="CO", scale=SCALE, seed=3)
    base.update(overrides)
    return InferenceRequest(**base)


# -- a registered graph that mutates mid-stream ---------------------------
#: the three mutations, in stream order: an edge insert, a delete of it
#: plus another insert, and a feature write
DELTAS = (
    GraphDelta.edges(inserts=[(0, 9), (3, 17)]),
    GraphDelta.edges(deletes=[(0, 9)], inserts=[(5, 11)]),
    GraphDelta.edges(features=[(2, 1, 0.5)]),
)
#: the two interleaved templates: (model, strategy)
TEMPLATES = (("GCN", "Dynamic"), ("GIN", "S1"))
GAP_S = 4e-5


def churned_stream(graph_id: str) -> list:
    """Four blocks of six reads alternating the two templates, a mutation
    between consecutive blocks."""
    stream, t = [], 0.0
    for block in range(4):
        for i in range(6):
            model, strategy = TEMPLATES[i % 2]
            stream.append(InferenceRequest(model=model, dataset=graph_id, strategy=strategy,
                                           seed=3, arrival_s=t))
            t += GAP_S
        if block < len(DELTAS):
            stream.append(MutationRequest(graph_id=graph_id, delta=DELTAS[block], arrival_s=t))
            t += GAP_S
    return stream


def snapshots(data) -> list:
    """The graph at each version the stream walks through."""
    replica = MutableGraph(data, graph_id="replica")
    versions = [replica.snapshot()]
    for delta in DELTAS:
        replica.apply(delta)
        versions.append(replica.snapshot())
    return versions


class TestTemplatesUnderMutation:
    @pytest.fixture(scope="class")
    def served(self):
        data = load_dataset("CO", scale=SCALE, seed=3)
        engine, serve = tiny()
        engine.register_graph(MutableGraph(data, graph_id="live"))
        stream = churned_stream("live")
        return stream, serve(stream), snapshots(data)

    def test_each_response_ran_on_the_snapshot_live_at_its_arrival(self, served):
        stream, report, versions = served
        mutations = [e.arrival_s for e in stream if isinstance(e, MutationRequest)]
        for response in report.responses:
            # mutations apply first on a timestamp tie
            data = versions[sum(m <= response.arrival_s for m in mutations)]
            model = build_model(response.model, data.num_features, data.hidden_dim,
                                data.num_classes)
            np.testing.assert_allclose(
                response.output,
                reference_inference(model, data.a, data.h0, init_weights(model, seed=3)),
                rtol=1e-4, atol=1e-5)

    def test_counts_are_the_per_request_loops(self, served):
        # recorded from the loop that resolved every request on its own
        _, report, _ = served
        assert len(report.responses) == 24
        assert (report.cache_hits, report.cache_misses) == (22, 2)
        assert (report.num_patches, report.num_batches) == (6, 8)

    def test_a_mutation_rebinds_the_next_request(self, served):
        # the reads after a mutation cannot share an execution with the
        # reads before it: their program is the patched one
        stream, report, _ = served
        block_of = {}
        block = 0
        for event in stream:
            if isinstance(event, MutationRequest):
                block += 1
            else:
                block_of[event.request_id] = block
        blocks = {}
        for response in report.responses:
            blocks.setdefault(response.batch_id, set()).add(block_of[response.request_id])
        assert all(len(b) == 1 for b in blocks.values())


# -- the program cache after a sweep ---------------------------------------
#: four programs over a cache of two: the registered graph under GCN and
#: GIN, Cora and CiteSeer under SGC
CACHED = (("GCN", "live"), ("GIN", "live"), ("SGC", "CO"), ("SGC", "CI"))
#: the order two blocks of reads visit them in, a mutation between them.
#: Each block ends on a hit, whose touch decides an order: of the two
#: programs the mutation patches (the second block's first miss evicts
#: the older), and of the cache the sweep leaves
BLOCKS = ((0, 0, 1, 2, 0, 3, 1, 1, 2, 3, 1, 0, 1), (2, 1, 0, 3, 2, 1, 2))


def test_the_cache_is_left_as_one_get_per_request_leaves_it():
    """A sweep over a two-program cache compiles and evicts mid-stream and
    patches on a mutation.  Afterwards the cache's LRU order and counters
    (``saved_s`` bit for bit) are those of ``get_or_compile`` called once
    per inference request in admission order on a bare cache, handed the
    programs the sweep compiled and patched."""
    engine = Engine(make_tiny_config(), pool_size=2, cache_capacity=2)
    engine.register_graph(MutableGraph(load_dataset("CO", scale=SCALE, seed=3), graph_id="live"))
    stream, t = [], 0.0
    for block, visits in enumerate(BLOCKS):
        if block:
            stream.append(MutationRequest(graph_id="live", delta=DELTAS[0], arrival_s=t))
            mutated_s, t = t, t + GAP_S
        for i in visits:
            model, dataset = CACHED[i]
            stream.append(InferenceRequest(model=model, dataset=dataset, scale=SCALE, seed=3,
                                           arrival_s=t))
            t += GAP_S
    reads = [r for r in stream if isinstance(r, InferenceRequest)]

    def keys() -> dict:
        return {r.request_id: engine.resolve_request(r).program_key(engine.config)
                for r in reads}

    before, compiled, patched = keys(), [], {}
    compile_request, apply_delta = engine.compile_request, engine.apply_delta

    def compiling(req):
        compiled.append(compile_request(req))
        return compiled[-1]

    def mutating(*args, **kwargs):
        outcome = apply_delta(*args, **kwargs)
        patched.update({e.old_key: (e.new_key, engine.cache.peek(e.new_key))
                        for e in outcome.patches})
        return outcome

    with mock.patch.object(engine, "compile_request", compiling), \
            mock.patch.object(engine, "apply_delta", mutating):
        engine.serve(stream, max_batch_size=4, mutation_policy="patch")
    after, replay, programs = keys(), ProgramCache(2), iter(compiled)
    for event in stream:
        if isinstance(event, MutationRequest):
            for old in [key for key in replay.keys() if key in patched]:
                replay.pop(old)
                replay.put(*patched[old])
        else:
            key = (before if event.arrival_s < mutated_s else after)[event.request_id]
            replay.get_or_compile(key, lambda: next(programs))
    cache = engine.cache
    assert cache.evictions > 0 and len(patched) == 2 and next(programs, None) is None
    assert cache.keys() == replay.keys()
    assert (cache.hits, cache.misses, cache.evictions, cache.invalidations) == (
        replay.hits, replay.misses, replay.evictions, replay.invalidations)
    assert cache.saved_s.hex() == replay.saved_s.hex()
    assert cache.compile_s.hex() == replay.compile_s.hex()


#: one field each, changed from the base template
VARIANTS = (dict(seed=4), dict(prune=0.5), dict(scale=0.2), dict(strategy="S1"),
            dict(shards=2), dict(slo="interactive"))


def test_templates_differing_in_one_field_never_share_a_batch():
    """Each variant is its own template: a request of one never founds an
    execution with a request of another.  Joiners may differ only in SLO
    class: a join in flight is class-agnostic (requests of one batch key
    are bit-identical runs)."""
    stream = []
    for i in range(8):
        for j, variant in enumerate(({},) + VARIANTS):
            stream.append(request(arrival_s=(i * len(VARIANTS) + j) * 1e-6, **variant))
    _, serve = tiny()
    report = serve(stream)
    by_id = {r.request_id: r for r in stream}
    program = ("model", "dataset", "seed", "prune", "scale", "strategy", "shards")
    executions: dict[int, list] = {}
    for response in report.responses:
        executions.setdefault(response.batch_id, []).append(response)
    keys = set()
    for members in executions.values():
        reqs = [by_id[r.request_id] for r in members]
        (key,) = {tuple(getattr(r, f) for f in program) for r in reqs}
        keys.add(key)
        founders = [by_id[r.request_id] for r in members if not r.joined]
        assert len({r.slo for r in founders}) == 1
    assert len(keys) == len(VARIANTS)  # the SLO variant shares the base's batch key


# -- errors stay per request ----------------------------------------------
BAD = {
    "slo": (dict(slo="gold"), "carries SLO class 'gold'"),
    "shards": (dict(shards=3), "asks for 3 shards"),
    "no shards": (dict(shards=0), "asks for 0 shards"),
}


@pytest.mark.parametrize("field", sorted(BAD))
@pytest.mark.parametrize("valid", [0, 1000])
def test_a_bad_request_is_named_after_valid_ones_of_its_neighbour_template(field, valid):
    """The bad template differs from the valid one in that field alone;
    two of its requests follow the valid ones, and the error names the
    first, whether it is the stream's first request or its 1,001st."""
    overrides, message = BAD[field]
    stream = [request(arrival_s=i * 1e-6) for i in range(valid)]
    first, second = (request(arrival_s=(valid + k) * 1e-6, **overrides) for k in range(2))
    _, serve = tiny()
    with pytest.raises(ValueError, match=f"request {first.request_id} {message}"):
        serve(stream + [first, second])


# -- the responses sequence -------------------------------------------------
def eager(columns) -> list[InferenceResponse]:
    """The responses as the loop used to build them, one keyword each."""
    out = []
    for first, size, finish, batch_id, device, shards, barrier, cycles, output in (
            columns.executions):
        for req, start, deferred, (compile_s, hit), joined in columns.members[first:first + size]:
            out.append(InferenceResponse(
                request_id=req.request_id, model=req.model, dataset=req.dataset_name,
                strategy=req.strategy, arrival_s=req.arrival_s, compile_s=compile_s,
                start_s=start, finish_s=finish, service_s=finish - start, cache_hit=hit,
                batch_id=batch_id, batch_size=size, device=device, shards=shards,
                barrier_s=0.0 if joined else barrier, accel_cycles=cycles, output=output,
                slo=req.slo, joined=joined, deferred=deferred,
            ))
    return out


def fields_of(response: InferenceResponse) -> tuple:
    return tuple(getattr(response, f.name) for f in dataclasses.fields(response))


class TestResponsesSequence:
    @pytest.fixture(scope="class")
    def report(self):
        stream = synthesize(40, arrival="poisson", rate_rps=2e5, models=("GCN", "GIN"),
                            datasets=("CO",), strategies=("Dynamic", "S1"), scale=SCALE,
                            seed=3, class_skew=0.3)
        _, serve = tiny()
        return serve(stream)

    def test_every_access_builds_the_eager_responses(self, report):
        responses = report.responses
        want = eager(responses)
        assert len(responses) == len(want) == 40
        assert [fields_of(r) for r in responses] == [fields_of(r) for r in want]
        assert [fields_of(r) for r in list(responses)] == [fields_of(r) for r in want]
        for i in (0, 1, 17, 39, -1, -2, -40):
            assert fields_of(responses[i]) == fields_of(want[i])
        for window in (slice(3, 11), slice(None, None, 7), slice(-5, None), slice(30, 2, -3)):
            assert [fields_of(r) for r in responses[window]] == [
                fields_of(r) for r in want[window]]

    def test_it_is_read_only_and_bounded(self, report):
        responses = report.responses
        with pytest.raises(IndexError):
            responses[40]
        with pytest.raises(IndexError):
            responses[-41]
        with pytest.raises(TypeError):
            responses[0] = responses[1]
        assert not hasattr(responses, "append")

    def test_the_report_reads_the_same_columns(self, report):
        latencies = np.array([r.latency_s for r in report.responses])
        assert report.latency_mean_s == pytest.approx(latencies.mean(), rel=1e-12)
        assert report.joined_requests == sum(r.joined for r in report.responses)
        assert report.num_batches == len({r.batch_id for r in report.responses})


#: the JSON text of a 30-request stream at 20,000 req/s (Cora and
#: CiteSeer at scale 0.1, GCN and GIN, 30% interactive), served cold then
#: warm on pools of 1 and 2 devices with every compile charged 3 ms,
#: recorded from the loop that built its responses eagerly
SERVE_BENCH_SHA256 = "013625aa20ef6cbb48aead744e785cef9fdfc5c19492d4f4b1ca61d55ceffac0"


def test_serve_bench_json_is_unchanged():
    workload = synthesize(30, rate_rps=20000.0, models=("GCN", "GIN"),
                          datasets=("CO", "CI"), scale=0.1, class_skew=0.3)
    with mock.patch.object(CompileTimings, "total_s", property(lambda self: 3e-3)):
        sweeps = cold_then_warm(workload)
    out = json.dumps(comparison_json(20000.0, sweeps), indent=2) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == SERVE_BENCH_SHA256, out[:2000]
    assert json.loads(out)["sweeps"]["warm_pool2"]["num_requests"] == 30
