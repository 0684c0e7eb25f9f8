"""Tests for ``repro.obs.analyze``: TraceModel loading, critical-path
attribution, what-if projections and trace diffing.

The acceptance checks ride on the 4-device sharded sweep: category
attribution sums must reconcile with ``ShardedResult.latency_s`` within
1%, the zero-halo what-if must match the result's own halo-seconds
accounting, and diffing a trace against itself must report zero deltas.
"""

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
    diff_traces,
    parse_what_if,
    project,
    to_perfetto,
    write_trace,
)


@pytest.fixture(scope="module")
def traced_sharded_run():
    """Traced PubMed GCN sharded across 4 pool devices."""
    tracer = Tracer()
    config = make_tiny_config()
    engine = Engine(config, pool_size=4, tracer=tracer)
    handle = engine.compile("GCN", "PU", scale=0.12, seed=3, shards=4)
    result = engine.infer(handle, backend="sharded")
    return tracer, result, config


@pytest.fixture(scope="module")
def sharded_model(traced_sharded_run):
    """The sharded run as a TraceModel with full reconcile meta."""
    tracer, result, config = traced_sharded_run
    return TraceModel.from_tracer(tracer, meta={
        "expected_total_s": result.latency_s,
        "reconcile_cats": ["layer"],
        "num_cores": config.num_cores,
    })


@pytest.fixture(scope="module")
def traced_single_run():
    """Traced single-device Cora GCN run."""
    tracer = Tracer()
    engine = Engine(make_tiny_config(), tracer=tracer)
    handle = engine.compile("GCN", "CO", scale=0.15, seed=3)
    result = engine.infer(handle)
    return tracer, result


# -- TraceModel loading -------------------------------------------------
class TestTraceModel:
    def test_from_tracer_copies_spans_and_counters(self, traced_sharded_run):
        tracer, _, _ = traced_sharded_run
        model = TraceModel.from_tracer(tracer)
        assert model.spans == tuple(tracer.spans)
        assert model.counters == tuple(tracer.counters)
        assert model.kind == "sharded"

    def test_perfetto_round_trip_preserves_spans(self, traced_sharded_run):
        tracer, result, _ = traced_sharded_run
        trace = to_perfetto(tracer, meta={"expected_total_s": result.latency_s})
        model = TraceModel.from_trace(trace)
        # groupwise identical up to the float ulp the s->µs->s units
        # round-trip may cost (a µs-scale span loses nothing visible)
        assert len(model.spans) == len(tracer.spans)
        assert model.tracks() == tracer.tracks()
        assert model.expected_latency_s == pytest.approx(result.latency_s)
        diff = diff_traces(model, tracer)
        assert diff.is_zero(atol=1e-12)
        assert diff.max_abs_delta_s < 1e-12

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
            assert diff_traces(model, tracer).is_zero(atol=1e-12)

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
            TraceModel.from_file(bad)

    def test_missing_file_raises_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="cannot load trace from"):
            TraceModel.from_file(tmp_path / "nope.json")

    def test_empty_trace_raises_trace_error(self):
        with pytest.raises(TraceError, match="no traceEvents"):
            TraceModel.from_trace({"traceEvents": []})
        with pytest.raises(TraceError, match="no traceEvents"):
            TraceModel.from_trace({})

    def test_no_other_data_means_no_expected_latency(self, traced_single_run):
        tracer, _ = traced_single_run
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
    def test_sharded_attribution_reconciles_within_1pct(self, sharded_model):
        """Acceptance: category sums == ShardedResult.latency_s (<=1%)."""
        att = attribute(sharded_model)
        assert att.kind == "sharded"
        assert att.reconciles(0.01)
        # the spans tile the barriers exactly, so it is far tighter
        assert att.residual_frac() < 1e-9
        assert set(att.by_category) <= {"kernel", "halo"}
        assert att.by_category["kernel"] > 0
        assert att.by_category["halo"] > 0

    def test_sharded_path_is_slowest_shard_per_layer(self, traced_sharded_run):
        tracer, result, _ = traced_sharded_run
        path = critical_path(tracer)
        kernel_segs = [seg for seg in path if seg.category == "kernel"]
        assert len(kernel_segs) == len(result.kernel_stats)
        for seg, ks in zip(kernel_segs, result.kernel_stats):
            slowest = int(np.argmax(ks.shard_seconds))
            assert seg.span.track == f"shard{slowest}"
            assert seg.span.name == ks.kernel_id

    def test_single_device_attribution_exact(self, traced_single_run):
        tracer, result = traced_single_run
        att = attribute(tracer, expected_s=result.latency_s)
        assert att.kind == "single"
        assert set(att.by_category) == {"kernel", "exposed-host"}
        assert att.total_s == pytest.approx(result.latency_s, rel=1e-12)
        assert att.reconciles(0.01) and att.residual_frac() < 1e-9

    def test_single_span_trace_attributes(self):
        tr = Tracer()
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
    def test_zero_halo_matches_sharded_result_accounting(
        self, sharded_model, traced_sharded_run
    ):
        """Acceptance: span-replay == ShardedResult halo accounting."""
        _, result, config = traced_sharded_run
        wi = project(sharded_model, zero_halo=True)
        oracle = sum(
            float(np.max(config.cycles_to_seconds(
                ks.shard_cycles + ks.shard_exposed_cycles
            )))
            for ks in result.kernel_stats
        )
        assert wi.baseline_s == pytest.approx(result.latency_s, rel=1e-12)
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
        for ks in result.kernel_stats:
            compute = config.cycles_to_seconds(
                ks.shard_cycles + ks.shard_exposed_cycles
            )
            halo = ks.shard_halo_s / scale
            lead_in = halo / np.maximum(ks.shard_halo_chunks, 1)
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

    def test_cores_identity_and_scaling(self, sharded_model):
        cores_now = sharded_model.meta["num_cores"]
        same = project(sharded_model, cores=cores_now)
        assert same.projected_s == pytest.approx(same.baseline_s, rel=1e-12)
        more = project(sharded_model, cores=cores_now * 4)
        assert more.projected_s < same.projected_s

    def test_cores_without_meta_or_tasks_raises(self):
        tr = Tracer()
        tr.span("dev0", "k", 0.0, 1e-3, cat="kernel")  # no tasks arg
        with pytest.raises(TraceError, match="cores what-if needs"):
            project(tr, cores=4)

    def test_single_device_cores_projection(self, traced_single_run):
        tracer, _ = traced_single_run
        model = TraceModel.from_tracer(tracer, meta={"num_cores": 2})
        wi = project(model, cores=8)
        assert wi.projected_s < wi.baseline_s

    def test_invalid_parameters_raise(self, sharded_model):
        with pytest.raises(TraceError, match="interconnect_scale"):
            project(sharded_model, interconnect_scale=0.0)
        with pytest.raises(TraceError, match="cores"):
            project(sharded_model, cores=0)

    def test_parse_what_if(self):
        assert parse_what_if("zero-halo") == {"zero_halo": True}
        assert parse_what_if("zero-halo,cores=16,interconnect=2.5") == {
            "zero_halo": True, "cores": 16, "interconnect_scale": 2.5,
        }
        with pytest.raises(TraceError, match="unknown what-if token"):
            parse_what_if("warp-drive")
        # the schedule overlaps halo and compute itself: not a what-if
        with pytest.raises(TraceError, match="expected zero-halo, interconnect"):
            parse_what_if("overlap-halo")
        with pytest.raises(TraceError, match="bad core count"):
            parse_what_if("cores=many")
        with pytest.raises(TraceError, match="empty what-if spec"):
            parse_what_if(" , ")

    def test_describe_mentions_speedup(self, sharded_model):
        wi = project(sharded_model, zero_halo=True)
        assert "zero-halo" in wi.describe() and "x" in wi.describe()


# -- trace diffing ------------------------------------------------------
class TestDiff:
    def test_self_diff_is_zero(self, sharded_model, tmp_path,
                               traced_sharded_run):
        """Acceptance: a trace diffed against itself has zero deltas."""
        tracer, _, _ = traced_sharded_run
        diff = diff_traces(sharded_model, sharded_model)
        assert diff.is_zero()
        assert diff.delta_total_s == 0.0
        assert "no deltas" in diff.format_report()
        # ... and a file diffed against the same file is exactly zero too
        path = write_trace(tracer, tmp_path / "self.json")
        assert diff_traces(
            TraceModel.from_file(path), TraceModel.from_file(path)
        ).is_zero()

    def test_slower_span_group_is_named_first(self, traced_sharded_run):
        tracer, _, _ = traced_sharded_run
        slow = Tracer()
        for sp in tracer.spans:
            dur = sp.dur_s * (3.0 if sp.cat == "halo" else 1.0)
            slow.span(sp.track, sp.name, sp.start_s, sp.start_s + dur,
                      cat=sp.cat, **sp.args)
        diff = diff_traces(slow, tracer)
        assert not diff.is_zero()
        offenders = diff.regressions()
        assert offenders and all(g.cat == "halo" for g in offenders)
        assert diff.groups[0].cat == "halo"  # sorted by |delta|
        assert "halo" in diff.format_report(top=3)

    def test_groups_missing_on_one_side_still_appear(self):
        a, b = Tracer(), Tracer()
        a.span("dev0", "k", 0.0, 1.0, cat="kernel")
        a.span("dev0", "gone", 1.0, 2.0, cat="kernel")
        b.span("dev0", "k", 0.0, 1.0, cat="kernel")
        diff = diff_traces(b, a)
        gone = [g for g in diff.groups if g.name == "gone"]
        assert gone and gone[0].count_new == 0 and gone[0].count_base == 1
        assert gone[0].delta_s == pytest.approx(-1.0)

    def test_to_dict_serialisable(self, sharded_model):
        payload = diff_traces(sharded_model, sharded_model).to_dict(top=5)
        assert payload["is_zero"] is True
        json.dumps(payload)


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

    def test_diff_plus_attribution(self, traced_sharded_run, tmp_path):
        tracer, result, _ = traced_sharded_run
        meta = {"expected_total_s": result.latency_s}
        new = write_trace(tracer, tmp_path / "new.json", meta=meta)
        base = write_trace(tracer, tmp_path / "base.json", meta=meta)
        lines = attribution_lines(new, base)
        text = "\n".join(lines)
        assert "no span group regressed" in text
        assert "critical-path attribution" in text

    def test_regressed_group_is_named(self, traced_sharded_run, tmp_path):
        tracer, result, _ = traced_sharded_run
        slow = Tracer()
        for sp in tracer.spans:
            dur = sp.dur_s * (2.0 if sp.cat == "halo" else 1.0)
            slow.span(sp.track, sp.name, sp.start_s, sp.start_s + dur,
                      cat=sp.cat, **sp.args)
        new = write_trace(slow, tmp_path / "new.json")
        base = write_trace(tracer, tmp_path / "base.json")
        text = "\n".join(attribution_lines(new, base))
        assert "responsible span group" in text
        assert "halo" in text
