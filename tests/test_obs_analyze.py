"""Tests for ``repro.obs.analyze``: TraceModel loading, critical-path
attribution and what-if projections.

Every run traces one shape whatever its width, so the acceptance checks
ride on one traced run per width (one device and four pool devices):
category attribution sums must reconcile with ``latency_s``, wave spans
must nest in their lane's kernel span, the zero-halo what-if must match
the result's own halo-seconds accounting (a no-op on one device), and a
trace read back from ``trace.json`` must hold the tracer's spans one for
one.
"""

import functools
import json

import numpy as np
import pytest

from conftest import make_tiny_config
from repro.engine import Engine
from repro.obs import (
    Tracer,
    TraceError,
    TraceModel,
    attribute,
    attribution_lines,
    critical_path,
    parse_what_if,
    project,
    to_perfetto,
    write_trace,
)


@functools.lru_cache(maxsize=None)
def _traced(width: int):
    """Traced PubMed GCN on ``width`` pool devices (1: the unsharded
    run), its tracer and the config."""
    tracer = Tracer()
    config = make_tiny_config()
    engine = Engine(config, pool_size=width, tracer=tracer)
    handle = engine.compile("GCN", "PU", scale=0.12, seed=3, shards=width)
    result = engine.infer(handle, backend="sharded" if width > 1 else None)
    return tracer, result, config


@pytest.fixture(scope="module", params=(1, 4))
def traced_run(request):
    """The traced run at each width."""
    return _traced(request.param)


@pytest.fixture(scope="module")
def traced_sharded_run():
    """The traced run across 4 pool devices (the halo what-ifs)."""
    return _traced(4)


@pytest.fixture(scope="module")
def sharded_model(traced_sharded_run):
    """The 4-device run as a TraceModel with full reconcile meta."""
    tracer, result, _ = traced_sharded_run
    return TraceModel.from_tracer(tracer, meta=result.trace_meta())


def assert_same_spans(model, tracer):
    """Span by span: everything equal but the times, which the s -> µs ->
    s round trip through ``trace.json`` may move by a float ulp."""
    assert len(model.spans) == len(tracer.spans)
    for got, want in zip(model.spans, tracer.spans):
        assert (got.track, got.name, got.cat, got.kind, got.args) == (
            want.track, want.name, want.cat, want.kind, want.args
        )
        assert abs(got.start_s - want.start_s) <= 1e-12
        assert abs(got.dur_s - want.dur_s) <= 1e-12


# -- TraceModel loading -------------------------------------------------
class TestTraceModel:
    def test_from_tracer_copies_spans_and_counters(self, traced_sharded_run):
        tracer, _, _ = traced_sharded_run
        model = TraceModel.from_tracer(tracer)
        assert model.spans == tuple(tracer.spans)
        assert model.counters == tuple(tracer.counters)
        assert model.kind == "inference"

    def test_perfetto_round_trip_preserves_spans(self, traced_sharded_run):
        tracer, result, _ = traced_sharded_run
        trace = to_perfetto(tracer, meta={"expected_total_s": result.latency_s})
        model = TraceModel.from_trace(trace)
        assert_same_spans(model, tracer)
        assert model.tracks() == tracer.tracks()
        assert model.expected_latency_s == pytest.approx(result.latency_s)

    def test_load_accepts_file_dict_tracer_and_model(
        self, traced_sharded_run, tmp_path
    ):
        tracer, _, _ = traced_sharded_run
        path = write_trace(tracer, tmp_path / "t.json")
        from_file = TraceModel.load(path)
        from_dict = TraceModel.load(to_perfetto(tracer))
        from_tracer = TraceModel.load(tracer)
        assert TraceModel.load(from_file) is from_file
        for model in (from_file, from_dict, from_tracer):
            assert_same_spans(model, tracer)

    def test_counters_round_trip(self, traced_sharded_run):
        tracer, _, _ = traced_sharded_run
        assert tracer.counters  # halo_bytes samples exist
        model = TraceModel.from_trace(to_perfetto(tracer))
        assert sorted((c.track, c.name, c.value) for c in model.counters) == \
            sorted((c.track, c.name, c.value) for c in tracer.counters)

    def test_corrupt_json_raises_trace_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [')
        with pytest.raises(TraceError, match="cannot load trace from"):
            TraceModel.from_trace(bad)

    def test_missing_file_raises_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="cannot load trace from"):
            TraceModel.from_trace(tmp_path / "nope.json")

    def test_empty_trace_raises_trace_error(self):
        with pytest.raises(TraceError, match="no traceEvents"):
            TraceModel.from_trace({"traceEvents": []})
        with pytest.raises(TraceError, match="no traceEvents"):
            TraceModel.from_trace({})

    def test_no_other_data_means_no_expected_latency(self):
        tracer, _, _ = _traced(1)
        trace = to_perfetto(tracer)  # no meta
        model = TraceModel.from_trace(trace)
        assert model.expected_latency_s is None
        # attribution still works, it just makes no reconciliation claim
        att = attribute(model)
        assert att.expected_s is None and att.reconciles()

    def test_kind_detection(self):
        tr = Tracer()
        tr.span("serve", "batch-0/form", 0.0, 1.0, cat="batch")
        assert TraceModel.from_tracer(tr).kind == "serve"
        tr2 = Tracer()
        tr2.span("host", "x", 0.0, 1.0, cat="something-else")
        assert TraceModel.from_tracer(tr2).kind == "unknown"


# -- critical path + attribution ---------------------------------------
class TestAttribution:
    def test_attribution_reconciles_at_every_width(self, traced_run):
        """Acceptance: category sums == latency_s, since the critical
        lane's spans tile every barrier."""
        tracer, result, _ = traced_run
        att = attribute(TraceModel.from_tracer(tracer, meta=result.trace_meta()))
        assert att.kind == "inference"
        assert att.total_s == pytest.approx(result.latency_s, rel=1e-9)
        assert att.reconciles(0.01) and att.residual_frac() < 1e-9
        assert att.by_category["kernel"] > 0
        assert att.by_category["exposed-host"] > 0  # K2P shows at every width
        if result.num_shards == 1:
            assert set(att.by_category) == {"kernel", "exposed-host"}
        else:
            assert set(att.by_category) == {"kernel", "halo", "exposed-host"}

    def test_critical_path_is_the_slowest_lane_per_layer(self, traced_run):
        tracer, result, _ = traced_run
        path = critical_path(tracer)
        kernel_segs = [seg for seg in path if seg.category == "kernel"]
        assert len(kernel_segs) == len(result.layers)
        lanes = "dev0" if result.num_shards == 1 else "shard{}"
        for seg, layer in zip(kernel_segs, result.layers):
            assert seg.span.track == lanes.format(layer.slowest)
            assert seg.span.name == layer.kernel_id

    def test_wave_spans_nest_in_their_lane_kernel_span(self, traced_run):
        tracer, result, _ = traced_run
        kernels = {(sp.track, sp.name): sp for sp in tracer.select(cat="kernel")}
        waves = tracer.select(cat="wave")
        assert {sp.track for sp in waves} == {track for track, _ in kernels}
        assert len(waves) == sum(
            ks.num_waves for ks in result.kernel_stats)
        for wave in waves:
            kernel = kernels[wave.track, wave.name.split("/wave")[0]]
            assert wave.start_s >= kernel.start_s - 1e-12
            assert wave.end_s <= kernel.end_s + 1e-12
        for task in tracer.select(cat="task"):
            lane = task.track.split("/core")[0]
            kernel = kernels[lane, task.name.split("[")[0]]
            assert kernel.start_s - 1e-12 <= task.start_s
            assert task.end_s <= kernel.end_s + 1e-12

    def test_single_span_trace_attributes(self):
        tr = Tracer()
        tr.span("timeline", "L0.agg", 0.0, 2e-3, cat="layer", slowest="dev0")
        tr.span("dev0", "L0.agg", 0.0, 2e-3, cat="kernel")
        att = attribute(tr)
        assert att.by_category == {"kernel": pytest.approx(2e-3)}
        assert att.num_segments == 1

    def test_empty_tracer_raises(self):
        with pytest.raises(TraceError, match="no kernel/layer spans"):
            attribute(Tracer())

    def test_serve_trace_has_no_critical_path(self):
        tr = Tracer()
        tr.span("pool/dev0", "batch-0", 0.0, 1.0, cat="dispatch")
        with pytest.raises(TraceError, match="no single critical path"):
            critical_path(tr)

    def test_report_and_dict_round_trip(self, sharded_model):
        att = attribute(sharded_model)
        text = att.format_report()
        assert "critical-path attribution" in text
        assert "reconciles" in text
        payload = att.to_dict()
        assert payload["reconciles"] is True
        assert payload["total_s"] == pytest.approx(att.total_s)
        json.dumps(payload)  # must be JSON-serialisable

    def test_failed_reconciliation_is_reported(self, sharded_model):
        att = attribute(sharded_model, expected_s=1.0)  # absurd target
        assert not att.reconciles(0.01)
        assert "DOES NOT reconcile" in att.format_report()


# -- what-if projections ------------------------------------------------
class TestWhatIf:
    def test_zero_halo_is_the_results_own_accounting(self, traced_run):
        """Acceptance: span-replay == the result's halo accounting; one
        device moves no halo, so the projection leaves its latency."""
        tracer, result, config = traced_run
        model = TraceModel.from_tracer(tracer, meta=result.trace_meta())
        wi = project(model, zero_halo=True)
        assert wi.baseline_s == pytest.approx(result.latency_s, rel=1e-12)
        if result.num_shards == 1:
            assert wi.projected_s == wi.baseline_s and wi.speedup == 1.0
            return
        oracle = sum(
            float(np.max(config.cycles_to_seconds(
                layer.lane("cycles") + layer.lane("exposed_cycles")
            )))
            for layer in result.layers
        )
        assert wi.projected_s == pytest.approx(oracle, rel=1e-12)
        assert wi.projected_s == pytest.approx(
            result.zero_halo_latency_s(), rel=1e-12
        )
        assert 0 < wi.savings_s < result.halo_s
        assert wi.speedup > 1.0

    @pytest.mark.parametrize("scale", (1.0, 2.0, 0.01))
    def test_replay_matches_the_executor_schedule(
        self, sharded_model, traced_sharded_run, scale
    ):
        """The projection replays the executor's formula from the spans:
        at the recorded interconnect it reproduces ``latency_s``, at a
        faster or (so slow that the transfer outlasts the compute) slower
        one the same arithmetic over the result's own arrays."""
        _, result, config = traced_sharded_run
        oracle = 0.0
        for layer in result.layers:
            compute = config.cycles_to_seconds(
                layer.lane("cycles") + layer.lane("exposed_cycles")
            )
            halo = layer.halo_s / scale
            lead_in = halo / np.maximum(layer.halo_chunks, 1)
            oracle += float(np.max(
                compute + lead_in + np.maximum(halo - compute, 0.0)
            ))
        wi = project(sharded_model, interconnect_scale=scale)
        assert wi.projected_s == pytest.approx(oracle, rel=1e-12)
        if scale == 1.0:
            assert project(sharded_model).projected_s == pytest.approx(
                result.latency_s, rel=1e-12
            )
            assert wi.projected_s == pytest.approx(result.latency_s, rel=1e-12)

    def test_interconnect_scale_bounds(self, sharded_model):
        base = project(sharded_model, interconnect_scale=1.0)
        assert base.projected_s == pytest.approx(base.baseline_s, rel=1e-12)
        faster = project(sharded_model, interconnect_scale=4.0)
        zero = project(sharded_model, zero_halo=True)
        assert zero.projected_s <= faster.projected_s <= base.projected_s

    def test_invalid_parameters_raise(self, sharded_model):
        with pytest.raises(TraceError, match="interconnect_scale"):
            project(sharded_model, interconnect_scale=0.0)

    def test_parse_what_if(self):
        assert parse_what_if("zero-halo") == {"zero_halo": True}
        assert parse_what_if("zero-halo,interconnect=2.5") == {
            "zero_halo": True, "interconnect_scale": 2.5,
        }
        # a core count is a run with num_cores=N, which the simulator bills
        for token in ("warp-drive", "cores=4"):
            with pytest.raises(TraceError, match="unknown what-if token"):
                parse_what_if(token)
        # the schedule overlaps halo and compute itself: not a what-if
        with pytest.raises(TraceError, match="expected zero-halo or interconnect"):
            parse_what_if("overlap-halo")
        with pytest.raises(TraceError, match="bad interconnect factor"):
            parse_what_if("interconnect=fast")
        with pytest.raises(TraceError, match="empty what-if spec"):
            parse_what_if(" , ")

    def test_describe_mentions_speedup(self, sharded_model):
        wi = project(sharded_model, zero_halo=True)
        assert "zero-halo" in wi.describe() and "x" in wi.describe()


# -- perf-diff attribution helper ---------------------------------------
class TestAttributionLines:
    def test_missing_trace_degrades_to_hint(self, tmp_path):
        lines = attribution_lines(tmp_path / "trace.json")
        assert len(lines) == 1 and "no trace artifact" in lines[0]

    def test_corrupt_trace_degrades_to_message(self, tmp_path):
        bad = tmp_path / "trace.json"
        bad.write_text("not json")
        lines = attribution_lines(bad)
        assert any("cannot attribute" in line for line in lines)
