"""Tests for ``repro.obs``: tracer, metrics registry, exporters, and the
trace context threaded through engine / runtime / serve / shard.

The integration tests double as the PR's acceptance checks: a traced run
must stay bit-exact with the untraced one, and span duration sums must
reconcile with the run's reported latency (exactly for the runtime's own
bookkeeping, within 1% through the exported trace).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_tiny_config
from repro.engine import Engine
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Span,
    Tracer,
    flame_summary,
    to_perfetto,
    validate_trace,
    write_trace,
)


# -- tracer ------------------------------------------------------------
class TestTracer:
    def test_span_records_interval_and_args(self):
        tr = Tracer()
        sp = tr.span("dev0", "L1.agg", 1.0, 3.5, cat="kernel", tasks=7)
        assert isinstance(sp, Span)
        assert sp.track == "dev0" and sp.name == "L1.agg"
        assert sp.start_s == 1.0 and sp.dur_s == 2.5 and sp.end_s == 3.5
        assert sp.args == {"tasks": 7}
        assert tr.spans == (sp,)

    def test_negative_duration_is_clamped_not_raised(self):
        # float jitter at barriers may produce end < start by an ulp;
        # that must not kill a traced run
        tr = Tracer()
        sp = tr.span("dev0", "k", 2.0, 2.0 - 1e-15, cat="kernel")
        assert sp.dur_s == 0.0

    def test_instant_is_zero_duration_marker(self):
        tr = Tracer()
        sp = tr.instant("serve", "req0/enqueue", 0.25, cat="enqueue")
        assert sp.kind == "instant" and sp.dur_s == 0.0

    def test_counter_samples(self):
        tr = Tracer()
        tr.counter("serve", "queue_depth", 0.0, 3)
        tr.counter("serve", "queue_depth", 1.0, 1)
        assert [c.value for c in tr.counters] == [3.0, 1.0]

    def test_tracks_sorted_and_include_counter_tracks(self):
        tr = Tracer()
        tr.span("dev1", "k", 0.0, 1.0)
        tr.span("dev0", "k", 0.0, 1.0)
        tr.counter("serve", "depth", 0.0, 1)
        assert tr.tracks() == ("dev0", "dev1", "serve")

    def test_select_by_cat_and_track_prefix(self):
        tr = Tracer()
        tr.span("dev0", "k", 0.0, 1.0, cat="kernel")
        tr.span("dev0/core3", "k[0]", 0.0, 0.5, cat="task")
        tr.span("dev1", "k", 0.0, 2.0, cat="kernel")
        # track="dev0" matches dev0 and dev0/* but never dev1
        assert len(tr.select(track="dev0")) == 2
        assert len(tr.select(cat="kernel")) == 2
        assert len(tr.select(cat="task", track="dev0")) == 1
        assert tr.total_s(cat="kernel") == pytest.approx(3.0)

    def test_clear_drops_everything(self):
        tr = Tracer()
        tr.span("dev0", "k", 0.0, 1.0)
        tr.counter("dev0", "c", 0.0, 1)
        tr.clear()
        assert tr.spans == () and tr.counters == () and tr.tracks() == ()

    def test_null_tracer_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        NULL_TRACER.span("dev0", "k", 0.0, 1.0, cat="kernel")
        NULL_TRACER.instant("dev0", "m", 0.0)
        NULL_TRACER.counter("dev0", "c", 0.0, 1)
        NULL_TRACER.clear()
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.counters == ()
        assert NULL_TRACER.tracks() == ()


# -- metrics -----------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_get_or_create_and_inc(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests").inc()
        reg.counter("serve.requests").inc(4)
        assert reg.counter("serve.requests").value == 5.0

    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.set(2)
        assert reg.gauge("depth").value == 2.0

    def test_cross_kind_name_reuse_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered as a counter"):
            reg.gauge("x")
        with pytest.raises(ValueError, match="already registered as a counter"):
            reg.histogram("x")

    def test_histogram_snapshot_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency_s")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4 and snap["sum"] == 10.0
        assert snap["min"] == 1.0 and snap["max"] == 4.0
        assert snap["mean"] == 2.5 and snap["p50"] == 2.5

    def test_empty_histogram_snapshot_is_zeroes(self):
        snap = MetricsRegistry().histogram("h").snapshot()
        assert snap["count"] == 0 and snap["p99"] == 0.0

    def test_snapshot_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(0.5)
        reg.histogram("h").observe(1.0)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"]["c"] == 3.0
        assert snap["gauges"]["g"] == 0.5
        assert snap["histograms"]["h"]["count"] == 1
        assert reg.names() == ("c", "g", "h")


def _listed_snapshot(values: list) -> dict:
    """A histogram's snapshot as defined over the list of its floats."""
    if not values:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    arr = np.asarray(values, dtype=np.float64)
    p50, p95, p99 = np.percentile(arr, [50, 95, 99])
    return {"count": int(arr.size), "sum": float(arr.sum()), "min": float(arr.min()),
            "max": float(arr.max()), "mean": float(arr.mean()),
            "p50": float(p50), "p95": float(p95), "p99": float(p99)}


def _bits(snapshot: dict) -> list:
    return [(k, v if isinstance(v, int) else float(v).hex()) for k, v in snapshot.items()]


_VALUES = st.one_of(st.floats(-1e300, 1e300, allow_nan=False, width=64),
                    st.integers(-(2 ** 60), 2 ** 60))
#: observe one value, extend by a list (ints as an int array), or take a
#: snapshot
_OPS = st.lists(st.one_of(
    st.tuples(st.just("observe"), _VALUES),
    st.tuples(st.just("extend"), st.lists(_VALUES, max_size=12)),
    st.tuples(st.just("snapshot"), st.none()),
), max_size=10)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_OPS)
def test_histogram_snapshot_is_the_list_definition_bit_for_bit(ops):
    """The arrays a histogram keeps summarise to the bits the list of its
    floats does, however observations and snapshots interleave: a value
    observed after a snapshot shows in the next one."""
    hist, listed = MetricsRegistry().histogram("h"), []
    for op, arg in ops + [("snapshot", None)]:
        if op == "observe":
            hist.observe(arg)
            listed.append(float(arg))
        elif op == "extend":
            ints = all(isinstance(v, int) for v in arg)
            values = np.array(arg, dtype=np.int64 if ints else np.float64)
            hist.extend(values)
            listed.extend(np.asarray(values, dtype=np.float64).tolist())
        else:
            assert _bits(hist.snapshot()) == _bits(_listed_snapshot(listed))
    assert hist.values.tolist() == listed


# -- exporters ---------------------------------------------------------
def _demo_tracer() -> Tracer:
    tr = Tracer()
    tr.span("dev0", "L1.agg", 0.0, 2e-6, cat="kernel", tasks=3)
    tr.span("dev0/core0", "L1.agg[0]", 0.0, 1e-6, cat="task")
    tr.instant("serve", "req0/enqueue", 0.0, cat="enqueue")
    tr.counter("serve", "queue_depth", 0.0, 2)
    return tr


class TestPerfettoExport:
    def test_every_track_gets_thread_metadata(self):
        trace = to_perfetto(_demo_tracer())
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["args"].get("name") for e in meta if e["name"] == "thread_name"}
        assert names == {"dev0", "dev0/core0", "serve"}
        # one sort_index per named thread, stable with the tid
        sorts = [e for e in meta if e["name"] == "thread_sort_index"]
        assert all(e["args"]["sort_index"] == e["tid"] for e in sorts)

    def test_span_instant_counter_phases_and_units(self):
        trace = to_perfetto(_demo_tracer())
        by_ph = {}
        for e in trace["traceEvents"]:
            by_ph.setdefault(e["ph"], []).append(e)
        # complete events carry microsecond ts/dur
        x = next(e for e in by_ph["X"] if e["name"] == "L1.agg")
        assert x["dur"] == pytest.approx(2.0)  # 2e-6 s -> 2 us
        assert x["args"] == {"tasks": 3}
        i = by_ph["i"][0]
        assert i["s"] == "t" and "dur" not in i
        c = by_ph["C"][0]
        assert c["args"] == {"queue_depth": 2.0}

    def test_meta_lands_in_other_data(self):
        trace = to_perfetto(_demo_tracer(), meta={"model": "GCN"})
        assert trace["otherData"] == {"model": "GCN"}

    def test_write_trace_round_trips(self, tmp_path):
        path = write_trace(_demo_tracer(), tmp_path / "trace.json")
        assert validate_trace(path) == []
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"


class TestJsonlAndFlame:
    def test_flame_summary_rolls_up_by_cat_and_track(self):
        text = flame_summary(_demo_tracer())
        assert "by category:" in text and "kernel" in text
        assert "per track:" in text and "dev0" in text

    def test_flame_summary_handles_empty_trace(self):
        assert "0 spans" in flame_summary(Tracer())

    def test_flame_summary_aggregates_tail_into_other_row(self):
        # 5 distinct names, top=2: the 3 dropped names must show up as
        # one aggregated (other) row instead of silently vanishing
        tr = Tracer()
        for i in range(5):
            tr.span("dev0", f"k{i}", float(i), float(i) + 1e-3, cat="kernel")
        text = flame_summary(tr, top=2)
        assert "(other: 3 names)" in text
        tail = next(line for line in text.splitlines() if "(other" in line)
        assert "3x" in tail  # 3 spans aggregated
        assert "60.0%" in tail  # 3 of 5 equal spans

    def test_flame_summary_no_other_row_when_all_fit(self):
        tr = Tracer()
        tr.span("dev0", "k0", 0.0, 1e-3, cat="kernel")
        assert "(other" not in flame_summary(tr, top=12)


class TestValidateTrace:
    def test_accepts_well_formed_trace(self):
        assert validate_trace(to_perfetto(_demo_tracer())) == []

    def test_rejects_empty_and_malformed(self):
        assert validate_trace({}) != []
        assert validate_trace({"traceEvents": []}) != []

    def test_flags_unknown_phase_and_missing_name(self):
        trace = to_perfetto(_demo_tracer())
        trace["traceEvents"].append({"ph": "Z", "pid": 1, "tid": 1, "ts": 0})
        errors = validate_trace(trace)
        assert any("unknown phase" in e for e in errors)

    def test_flags_anonymous_tracks(self):
        trace = to_perfetto(_demo_tracer())
        trace["traceEvents"].append(
            {"ph": "X", "pid": 1, "tid": 99, "ts": 0.0, "dur": 1.0, "name": "k"}
        )
        errors = validate_trace(trace)
        assert any("no thread_name" in e for e in errors)

    def test_flags_negative_duration(self):
        trace = to_perfetto(_demo_tracer())
        trace["traceEvents"].append(
            {"ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "dur": -1.0, "name": "k"}
        )
        assert any("bad dur" in e for e in validate_trace(trace))

    def test_reconciliation_passes_and_fails(self):
        tr = Tracer()
        tr.span("dev0", "k", 0.0, 1e-3, cat="kernel")
        good = to_perfetto(
            tr, meta={"expected_total_s": 1e-3, "reconcile_cats": ["kernel"]}
        )
        assert validate_trace(good) == []
        bad = to_perfetto(
            tr, meta={"expected_total_s": 2e-3, "reconcile_cats": ["kernel"]}
        )
        assert any("reconciliation failed" in e for e in validate_trace(bad))

    def test_reconciliation_rtol_parameter(self):
        # a 5% skew: fails the default 1% gate, passes rtol=0.1
        tr = Tracer()
        tr.span("dev0", "k", 0.0, 1e-3, cat="kernel")
        trace = to_perfetto(
            tr,
            meta={"expected_total_s": 1.05e-3, "reconcile_cats": ["kernel"]},
        )
        assert any("reconciliation failed" in e for e in validate_trace(trace))
        assert validate_trace(trace, rtol=0.1) == []

    def test_flags_negative_ts(self):
        trace = to_perfetto(_demo_tracer())
        trace["traceEvents"].append(
            {"ph": "X", "pid": 1, "tid": 1, "ts": -5.0, "dur": 1.0,
             "name": "k"}
        )
        assert any("bad ts" in e for e in validate_trace(trace))

    def test_unreadable_path_is_an_error_not_a_crash(self, tmp_path):
        errors = validate_trace(tmp_path / "missing.json")
        assert len(errors) == 1 and "cannot load" in errors[0]


# -- traced runs through the engine ------------------------------------
@pytest.fixture(scope="module")
def traced_run():
    """One traced unsharded run and its untraced twin."""
    tracer = Tracer()
    engine = Engine(make_tiny_config(), tracer=tracer)
    handle = engine.compile("GCN", "CO", scale=0.15, seed=3)
    result = engine.infer(handle)
    plain = Engine(make_tiny_config()).infer(
        Engine(make_tiny_config()).compile("GCN", "CO", scale=0.15, seed=3)
    )
    return tracer, result, plain


class TestTracedEngineRun:
    def test_bit_exact_with_tracing_disabled_run(self, traced_run):
        _, result, plain = traced_run
        assert np.array_equal(result.output, plain.output)
        assert result.total_cycles == plain.total_cycles

    def test_expected_tracks_present(self, traced_run):
        tracer, _, _ = traced_run
        tracks = tracer.tracks()
        assert "host/compile" in tracks
        assert "timeline" in tracks  # one layer span per kernel
        assert "dev0" in tracks and "dev0/analyzer" in tracks
        assert any(t.startswith("dev0/core") for t in tracks)

    def test_kernel_and_exposed_spans_sum_to_latency(self, traced_run):
        # each kernel's exposed analysis follows its kernel span on the
        # lane, so the two tile every layer
        tracer, result, _ = traced_run
        span_sum = tracer.total_s(cat="kernel") + tracer.total_s(cat="exposed")
        assert span_sum == pytest.approx(result.latency_s, rel=1e-9)

    def test_kernel_spans_carry_mapping_args(self, traced_run):
        tracer, result, _ = traced_run
        kernels = tracer.select(cat="kernel", track="dev0")
        assert len(kernels) == len(result.kernel_stats)
        for sp in kernels:
            assert sp.args["ktype"] in ("AGGREGATE", "UPDATE")
            assert sp.args["tasks"] > 0 and sp.args["waves"] > 0

    def test_wave_spans_nest_inside_their_kernel(self, traced_run):
        tracer, _, _ = traced_run
        kernels = {sp.name: sp for sp in tracer.select(cat="kernel", track="dev0")}
        waves = tracer.select(cat="wave", track="dev0")
        assert waves
        for wv in waves:
            parent = kernels[wv.name.split("/wave")[0]]
            assert wv.start_s >= parent.start_s - 1e-12
            assert wv.end_s <= parent.end_s + 1e-12

    def test_compile_phases_traced(self, traced_run):
        tracer, _, _ = traced_run
        compile_spans = tracer.select(cat="compile")
        assert len(compile_spans) == 1
        phases = {
            sp.name.rsplit("/", 1)[-1]
            for sp in tracer.select(cat="compile-phase")
        }
        assert phases == {"parse", "partition", "profile"}
        # phase spans tile the enclosing compile span
        parent = compile_spans[0]
        phase_sum = tracer.total_s(cat="compile-phase")
        assert phase_sum <= parent.dur_s + 1e-12

    def test_exported_trace_validates_with_reconciliation(self, traced_run):
        tracer, result, _ = traced_run
        trace = to_perfetto(tracer, meta={
            "expected_total_s": result.latency_s,
            "reconcile_cats": ["kernel", "exposed"],
        })
        assert validate_trace(trace) == []

    def test_task_spans_can_be_disabled(self):
        tracer = Tracer(task_spans=False)
        engine = Engine(make_tiny_config(), tracer=tracer)
        engine.infer(engine.compile("GCN", "CO", scale=0.15, seed=3))
        assert tracer.select(cat="task") == []
        assert tracer.select(cat="wave")  # coarser levels stay

    def test_wave_counts_surface_on_result(self, traced_run):
        tracer, result, _ = traced_run
        counts = {ks.kernel_id: ks.num_waves for ks in result.kernel_stats}
        assert len(counts) == len(result.layers)
        for ks in result.kernel_stats:
            assert ks.num_waves == counts[ks.kernel_id] > 0
            assert ks.tasks_executed > 0
        # the traced wave spans agree with the surfaced counts
        for kid, n in counts.items():
            assert len([
                sp for sp in tracer.select(cat="wave")
                if sp.name.startswith(f"{kid}/wave")
            ]) == n

    def test_result_to_dict_json_round_trips(self, traced_run):
        _, result, _ = traced_run
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["model"] == "GCN" and payload["dataset"] == "CO"
        assert payload["total_cycles"] == result.total_cycles
        assert len(payload["kernels"]) == len(result.kernel_stats)
        assert payload["kernels"][0]["waves"] > 0

    def test_cache_hit_traced_as_instant(self, traced_run):
        tracer, _, _ = traced_run
        engine = Engine(make_tiny_config(), tracer=tracer)
        engine.compile("GCN", "CO", scale=0.15, seed=3)
        engine.compile("GCN", "CO", scale=0.15, seed=3)
        hits = [sp for sp in tracer.select(cat="compile")
                if sp.kind == "instant" and sp.name.endswith("/cache-hit")]
        assert hits


# -- traced sharded runs (the PR's acceptance scenario) ----------------
@pytest.fixture(scope="module")
def traced_sharded_run():
    """Traced PubMed GCN sharded across 4 pool devices."""
    tracer = Tracer()
    engine = Engine(make_tiny_config(), pool_size=4, tracer=tracer)
    handle = engine.compile("GCN", "PU", scale=0.12, seed=3, shards=4)
    result = engine.infer(handle, backend="sharded")
    return tracer, result, engine, handle


class TestTracedShardedRun:
    def test_one_track_per_shard(self, traced_sharded_run):
        tracer, result, _, _ = traced_sharded_run
        shard_tracks = [t for t in tracer.tracks() if t.startswith("shard")]
        assert result.num_shards == 4
        assert len(shard_tracks) >= 4

    def test_halo_span_precedes_each_aggregate_kernel(self, traced_sharded_run):
        tracer, _, _, _ = traced_sharded_run
        for s in range(4):
            track = f"shard{s}"
            halos = {sp.name.removesuffix("/halo"): sp
                     for sp in tracer.select(cat="halo", track=track)}
            assert halos, f"no halo spans on {track}"
            for sp in tracer.select(cat="kernel", track=track):
                if sp.args["ktype"] != "AGGREGATE":
                    continue
                halo = halos.get(sp.name)
                if halo is None:
                    continue  # zero-byte exchange is legitimately untraced
                assert halo.end_s == pytest.approx(sp.start_s)

    def test_whole_transfer_on_the_dma_track_exposed_part_on_the_shard(
        self, traced_sharded_run
    ):
        tracer, result, _, _ = traced_sharded_run
        for s in range(4):
            dma = {sp.name: sp for sp in tracer.select(track=f"shard{s}/dma")}
            halo = {sp.name: sp
                    for sp in tracer.select(cat="halo", track=f"shard{s}")}
            assert dma.keys() == halo.keys() and dma
            for layer in result.layers:
                sp = dma.get(f"{layer.kernel_id}/halo")
                if sp is None:
                    assert layer.halo_bytes[s] == 0
                    continue
                assert sp.cat == "dma"
                assert sp.dur_s == pytest.approx(layer.halo_s[s], rel=1e-12)
                assert sp.args == {
                    "halo_bytes": int(layer.halo_bytes[s]),
                    "chunks": int(layer.halo_chunks[s]),
                }
                exposed = halo[sp.name]
                assert exposed.start_s == sp.start_s
                assert exposed.dur_s == pytest.approx(
                    layer.exposed_halo_s[s], rel=1e-12
                )
                # this run hides most of every transfer behind compute
                assert exposed.dur_s < sp.dur_s

    def test_each_shard_track_tiles_every_layer(self, traced_sharded_run):
        """halo -> kernel -> exposed -> barrier-wait, end to start, from
        the layer's first instant to its barrier: the dma track overlaps
        none of it."""
        tracer, result, _, _ = traced_sharded_run
        layers = tracer.select(cat="layer", track="timeline")
        for s in range(4):
            spans = sorted(
                (sp for sp in tracer.spans if sp.track == f"shard{s}"
                 and sp.cat in ("halo", "kernel", "exposed", "barrier")),
                key=lambda sp: sp.start_s,
            )
            assert spans[0].start_s == 0.0
            for a, b in zip(spans, spans[1:]):
                assert a.end_s == pytest.approx(b.start_s, rel=1e-12)
            assert spans[-1].end_s == pytest.approx(result.latency_s, rel=1e-12)
            for layer in layers:
                inside = sum(
                    sp.dur_s for sp in spans
                    if sp.name.split("/")[0] == layer.name
                )
                assert inside == pytest.approx(layer.dur_s, rel=1e-9)

    def test_layer_spans_reconcile_with_latency(self, traced_sharded_run):
        tracer, result, _, _ = traced_sharded_run
        layer_sum = tracer.total_s(cat="layer", track="timeline")
        assert layer_sum == pytest.approx(result.latency_s, rel=0.01)

    def test_exported_trace_validates_in_perfetto_schema(self, traced_sharded_run):
        tracer, result, _, _ = traced_sharded_run
        trace = to_perfetto(tracer, meta={
            "expected_total_s": result.latency_s,
            "reconcile_cats": ["layer"],
        })
        assert validate_trace(trace) == []

    def test_bit_exact_with_unsharded_run(self, traced_sharded_run):
        _, result, engine, handle = traced_sharded_run
        plain = engine.infer(handle, backend="simulated")
        assert np.array_equal(result.output, plain.output)

    def test_barrier_wait_spans_on_non_critical_shards(self, traced_sharded_run):
        tracer, _, _, _ = traced_sharded_run
        waits = tracer.select(cat="barrier")
        assert waits  # with nnz-balanced shards some shard always waits
        for sp in waits:
            assert sp.name.endswith("/barrier-wait")

    def test_halo_bytes_counters_match_result(self, traced_sharded_run):
        tracer, result, _, _ = traced_sharded_run
        sampled = sum(
            c.value for c in tracer.counters if c.name == "halo_bytes"
        )
        assert sampled == pytest.approx(result.halo_bytes)

    def test_sharded_result_to_dict_json_round_trips(self, traced_sharded_run):
        _, result, _, _ = traced_sharded_run
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["num_shards"] == 4
        assert payload["halo_bytes"] == result.halo_bytes
        assert len(payload["kernels"]) == len(result.layers)
