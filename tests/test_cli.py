"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "CiteSeer" in out and "Reddit" in out

    def test_resources_command(self, capsys):
        assert main(["resources"]) == 0
        out = capsys.readouterr().out
        assert "Utilization" in out

    def test_run_command(self, capsys):
        assert main(["run", "--dataset", "CO", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out and "primitives" in out

    def test_run_with_pruning(self, capsys):
        assert main([
            "run", "--dataset", "CO", "--scale", "0.2", "--prune", "0.9",
            "--strategy", "S1",
        ]) == 0
        assert "latency" in capsys.readouterr().out

    def test_run_with_hetero_backend(self, capsys):
        assert main(["run", "--dataset", "CO", "--scale", "0.2",
                     "--backend", "hetero"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out and "device seconds" in out

    def test_run_with_cpu_backend(self, capsys):
        assert main(["run", "--dataset", "CO", "--scale", "0.2",
                     "--backend", "cpu"]) == 0
        assert "framework model" in capsys.readouterr().out

    def test_engine_bench_command(self, capsys):
        assert main(["engine-bench", "--scale", "0.1", "--repeats", "2"]) == 0
        assert "facade overhead" in capsys.readouterr().out

    def test_run_backend_oom_is_a_clean_cli_error(self, monkeypatch):
        # the paper's N/A cells (NELL on GPU) must not dump a traceback
        from repro.baselines.cpu_gpu import OutOfMemoryError
        from repro.engine import Engine

        def boom(self, handle, **kwargs):
            raise OutOfMemoryError("working set exceeds platform memory")

        monkeypatch.setattr(Engine, "infer", boom)
        with pytest.raises(SystemExit, match="working set"):
            main(["run", "--dataset", "CO", "--scale", "0.1",
                  "--backend", "gpu"])

    def test_compare_command(self, capsys):
        assert main(["compare", "--dataset", "CO", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "S1" in out and "S2" in out and "Dynamic" in out

    def test_bad_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--model", "GAT"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestJsonOutput:
    def test_run_json(self, capsys):
        import json

        assert main(["run", "--dataset", "CO", "--scale", "0.2",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "simulated"
        assert payload["model"] == "GCN" and payload["dataset"] == "CO"
        assert payload["latency_ms"] > 0
        assert all(k["waves"] >= 1 for k in payload["kernels"])

    def test_run_json_roofline_backend(self, capsys):
        import json

        assert main(["run", "--dataset", "CO", "--scale", "0.2",
                     "--backend", "cpu", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "cpu" and payload["latency_ms"] > 0

    def test_shard_bench_json(self, capsys):
        import json

        # full-scale CO: the u250 partition floor needs >= 2 block rows
        assert main(["shard-bench", "--dataset", "CO",
                     "--shards", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["single_device"]["latency_ms"] > 0
        (sweep,) = payload["sweeps"]
        assert sweep["num_shards"] == 2 and sweep["bit_exact"] is True

    def test_serve_bench_json(self, capsys):
        import json

        assert main(["serve-bench", "--requests", "12", "--pool", "2",
                     "--models", "GCN", "--datasets", "CO",
                     "--scale", "0.15", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pool_size"] == 2
        sweeps = payload["sweeps"]
        assert sweeps["cold_pool2"]["num_requests"] == 12
        assert sweeps["warm_pool2"]["cache_hit_rate"] == 1.0
        assert "serve.requests" in sweeps["cold_pool2"]["metrics"]["counters"]


class TestTraceCommand:
    def test_trace_writes_a_valid_perfetto_file(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        assert main(["trace", "GCN", "CO", "--scale", "0.2",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "trace validated" in text and "perfetto" in text.lower()
        trace = json.loads(out.read_text())
        meta = trace["otherData"]
        assert meta["model"] == "GCN" and meta["shards"] == 1
        from repro.obs import validate_trace

        assert validate_trace(trace) == []

    def test_trace_sharded_produces_shard_tracks(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        # full-scale CO: the u250 partition floor needs >= 2 block rows
        assert main(["trace", "GCN", "CO",
                     "--shards", "2", "--out", str(out)]) == 0
        trace = json.loads(out.read_text())
        names = {
            e["args"]["name"] for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"shard0", "shard1", "timeline"} <= names
        assert trace["otherData"]["reconcile_cats"] == ["layer"]

    def test_trace_validate_mode(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "GCN", "CO", "--scale", "0.2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["trace", "--validate", str(out)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_trace_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Z"}]}')
        assert main(["trace", "--validate", str(bad)]) == 1
        assert "unknown phase" in capsys.readouterr().out

    def test_trace_validate_truncated_json(self, tmp_path, capsys):
        bad = tmp_path / "truncated.json"
        bad.write_text('{"traceEvents": [{"ph": "X", "ts": 0')
        assert main(["trace", "--validate", str(bad)]) == 1
        assert "cannot load trace" in capsys.readouterr().out

    def test_trace_validate_no_other_data(self, tmp_path, capsys):
        # a structurally sound trace without reconciliation metadata must
        # validate (the span-sum check is simply unarmed)
        trace = {"traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "dev0"}},
            {"name": "k", "cat": "kernel", "ph": "X", "ts": 0.0,
             "dur": 5.0, "pid": 1, "tid": 1},
        ]}
        import json

        path = tmp_path / "bare.json"
        path.write_text(json.dumps(trace))
        assert main(["trace", "--validate", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_trace_validate_negative_ts(self, tmp_path, capsys):
        import json

        trace = {"traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "dev0"}},
            {"name": "k", "cat": "kernel", "ph": "X", "ts": -4.0,
             "dur": 5.0, "pid": 1, "tid": 1},
        ]}
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(trace))
        assert main(["trace", "--validate", str(path)]) == 1
        assert "bad ts" in capsys.readouterr().out

    def test_trace_rtol_flag_loosens_reconciliation(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        assert main(["trace", "GCN", "CO", "--scale", "0.2",
                     "--no-task-spans", "--out", str(out)]) == 0
        capsys.readouterr()
        trace = json.loads(out.read_text())
        # inflate the reported latency ~5%: the default 1% gate must
        # fail, an explicit --rtol 0.1 must pass
        trace["otherData"]["expected_total_s"] *= 1.05
        out.write_text(json.dumps(trace))
        assert main(["trace", "--validate", str(out)]) == 1
        assert "reconciliation failed" in capsys.readouterr().out
        assert main(["trace", "--validate", str(out),
                     "--rtol", "0.1"]) == 0

    def test_trace_rtol_must_be_positive(self, tmp_path):
        with pytest.raises(SystemExit, match="rtol must be positive"):
            main(["trace", "--validate", str(tmp_path / "x.json"),
                  "--rtol", "0"])

    def test_trace_top_flag_truncates_flame_summary(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "GCN", "CO", "--scale", "0.2",
                     "--no-task-spans", "--out", str(out),
                     "--top", "2"]) == 0
        text = capsys.readouterr().out
        assert "top 2" in text and "(other:" in text


class TestTraceAnalyzeCommand:
    @pytest.fixture(scope="class")
    def sharded_trace(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("ta") / "trace.json"
        assert main(["trace", "GCN", "CO", "--shards", "2",
                     "--no-task-spans", "--out", str(out)]) == 0
        return out

    def test_attribution_report(self, sharded_trace, capsys):
        assert main(["trace-analyze", str(sharded_trace)]) == 0
        text = capsys.readouterr().out
        assert "critical-path attribution" in text
        assert "reconciles" in text

    def test_what_if_and_self_diff(self, sharded_trace, capsys):
        assert main(["trace-analyze", str(sharded_trace),
                     "--what-if", "zero-halo",
                     "--what-if", "zero-halo,interconnect=2"]) == 0
        text = capsys.readouterr().out
        assert "what-if zero-halo" in text
        assert "what-if zero-halo, interconnect x2" in text

    def test_json_output(self, sharded_trace, capsys):
        import json

        assert main(["trace-analyze", str(sharded_trace), "--json",
                     "--what-if", "zero-halo"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["attribution"]["reconciles"] is True
        assert payload["what_ifs"][0]["speedup"] >= 1.0

    def test_out_writes_report_file(self, sharded_trace, tmp_path, capsys):
        report = tmp_path / "attribution.txt"
        assert main(["trace-analyze", str(sharded_trace),
                     "--out", str(report)]) == 0
        assert "critical-path attribution" in report.read_text()
        assert str(report) in capsys.readouterr().out

    def test_missing_trace_exits_one(self, tmp_path, capsys):
        assert main(["trace-analyze", str(tmp_path / "nope.json")]) == 1
        assert "cannot load trace" in capsys.readouterr().err

    def test_corrupt_trace_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [')
        assert main(["trace-analyze", str(bad)]) == 1
        assert "cannot load trace" in capsys.readouterr().err

    def test_empty_trace_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "empty.json"
        bad.write_text('{"traceEvents": []}')
        assert main(["trace-analyze", str(bad)]) == 1
        assert "no traceEvents" in capsys.readouterr().err

    def test_bad_what_if_token_exits_one(self, sharded_trace, capsys):
        for token in ("warp-drive", "cores=4"):
            assert main(["trace-analyze", str(sharded_trace),
                         "--what-if", token]) == 1
            assert "unknown what-if token" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", (
        ["trace", "GCN", "CO", "--jsonl", "e.jsonl"],
        ["trace-analyze", "t.json", "--diff", "t.json"],
        ["trace-analyze", "t.json", "--top", "3"],
        ["perf-diff", "new", "--baseline-trace", "b.json"],
    ), ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_removed_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_single_span_trace_attributes(self, tmp_path, capsys):
        import json

        trace = {"traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "dev0"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2,
             "args": {"name": "timeline"}},
            {"name": "L0.agg", "cat": "layer", "ph": "X", "ts": 0.0,
             "dur": 2000.0, "pid": 1, "tid": 2, "args": {"slowest": "dev0"}},
            {"name": "L0.agg", "cat": "kernel", "ph": "X", "ts": 0.0,
             "dur": 2000.0, "pid": 1, "tid": 1},
        ]}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(trace))
        assert main(["trace-analyze", str(path)]) == 0
        text = capsys.readouterr().out
        assert "1 segments" in text and "kernel" in text

    def test_failed_reconciliation_exits_one(self, sharded_trace, tmp_path,
                                             capsys):
        import json

        trace = json.loads(sharded_trace.read_text())
        trace["otherData"]["expected_total_s"] *= 2.0
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps(trace))
        assert main(["trace-analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert "does not reconcile" in err


# -- every result reports itself ----------------------------------------
def _typed(json_type, names):
    return dict.fromkeys(names.split(), json_type)


# The recursive key set (names and JSON types, values dropped) of every
# ``--json`` payload, recorded from commit 4f21418, before the CLI stopped
# assembling payloads by hand.  "*" stands for the keys of a data-keyed
# mapping (primitive, category, SLO-class and device names), "#" for a
# device or pool index, "histogram" for a MetricsRegistry histogram
# snapshot.  Never edit an entry to make a change pass: a key that goes
# missing is the silent JSON miss the to-dict-coverage check of
# tests/test_source_invariants.py exists to prevent.
_INFERENCE = {
    **_typed("float", (
        "accel_cycles exposed_overhead_cycles latency_ms load_balance "
        "overhead_fraction runtime_overhead_seconds total_cycles"
    )),
    **_typed("int", (
        "bytes_read bytes_written input_bytes num_pairs num_tasks total_macs"
    )),
    **_typed("str", "dataset model strategy"),
    "compile": _typed("float", "parse_s partition_s profile_s total_s"),
    "kernels": [{
        **_typed("float", "cycles out_density"),
        **_typed("int", "pairs skipped_pairs tasks tasks_executed waves"),
        **_typed("str", "kernel_id ktype"),
        "primitives": {"*": "int"},
    }],
}
_SHARDED = {
    **_typed("bool", "bit_exact"),
    **_typed("float", (
        # ``overlap_halo_latency_ms`` left this row on purpose when the
        # schedule itself began to overlap halo and compute (MIGRATION.md)
        "halo_fraction halo_s latency_ms load_balance nnz_balance "
        "runtime_overhead_seconds speedup zero_halo_latency_ms"
    )),
    **_typed("int", "halo_bytes num_shards"),
    **_typed("str", "dataset model strategy"),
    "kernels": [{
        **_typed("float", "barrier_ms"),
        **_typed("int", "halo_bytes slowest_shard"),
        **_typed("str", "kernel_id ktype"),
        "shard_ms": ["float"],
        "shard_tasks": ["int"],
    }],
}
_SERVING = {
    **_typed("float", (
        "avg_batch_size cache_hit_rate compile_s compile_saved_s goodput_rps "
        "halo_s latency_mean_s latency_p50_s latency_p95_s latency_p99_s "
        "load_balance makespan_s max_wait_s patch_s queue_mean_s queue_p95_s "
        "throughput_rps"
    )),
    **_typed("int", (
        "active_devices cache_hits cache_misses deferred_requests halo_bytes "
        "joined_requests max_batch_size max_queue_depth max_shard_width "
        "mutation_evictions num_batches num_mutations num_patch_fallbacks "
        "num_patches num_requests pool_size preemptions sharded_batches "
        "sharded_requests shed_requests"
    )),
    **_typed("str", "scheduler"),
    "autoscaler_events": [],
    "class_breakdown": {"*": {
        **_typed("float", "mean_s p50_s p95_s p99_s queue_p95_s"),
        **_typed("int", "count deferred joined violations"),
        **_typed("null", "target_p99_s"),
    }},
    "device_busy_s": ["float"],
    "device_utilization": ["float"],
    "metrics": {
        "counters": _typed("float", (
            "serve.batches serve.cache_hits serve.cache_misses "
            "serve.compile_s serve.compile_saved_s serve.halo_bytes "
            "serve.mutations serve.patch_fallbacks serve.patches "
            "serve.requests serve.sharded_batches serve.sharded_requests"
        )),
        "gauges": _typed("float", (
            "serve.cache_hit_rate serve.dev#.busy_fraction "
            "serve.load_balance serve.max_shard_width"
        )),
        "histograms": _typed("histogram", (
            "serve.batch_size serve.latency_s serve.phase.barrier_s "
            "serve.phase.compile_s serve.phase.execute_s "
            "serve.phase.queue_wait_s serve.queue_s"
        )),
    },
    "phase_breakdown": _typed("histogram", "barrier compile execute queue_wait"),
}
#: what in-flight dispatch adds to a sweep's metrics
_IN_FLIGHT = {"metrics": {
    "counters": _typed("float", (
        "serve.sched.admitted serve.sched.deferred serve.sched.executions "
        "serve.sched.joined serve.sched.preemptions serve.sched.scale_downs "
        "serve.sched.scale_ups serve.sched.shed"
    )),
    "gauges": _typed("float", (
        "serve.sched.active_devices serve.sched.max_queue_depth"
    )),
    "histograms": _typed("histogram", (
        "serve.sched.bulk.latency_s serve.sched.bulk.queue_s"
    )),
}}
_TRACE_ANALYZE = {
    "trace": "str",
    "attribution": {
        **_typed("bool", "reconciles"),
        **_typed("float", "expected_s residual_frac total_s"),
        **_typed("int", "num_segments"),
        **_typed("str", "kind source"),
        "aggregate_by_cat": {"*": "float"},
        "by_category": {"*": "float"},
    },
    "what_ifs": [{
        **_typed("float", "baseline_s projected_s savings_s speedup"),
        **_typed("str", "name"),
    }],
}
_DATA_KEYED = {"primitives", "by_category", "aggregate_by_cat",
               "class_breakdown", "device_seconds", "device_pairs",
               "modelled_cycles"}
_HISTOGRAM = {"count", "max", "mean", "min", "p50", "p95", "p99", "sum"}


def _merge(a, b):
    """Union of two shapes (the same key must have the same type)."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = dict(a)
        for key, value in b.items():
            out[key] = _merge(out[key], value) if key in out else value
        return out
    if isinstance(a, list) and isinstance(b, list):
        return [_merge(a[0], b[0])] if a and b else a or b
    assert a == b, (a, b)
    return a


def _serving(extra=None):
    sweep = _merge(_SERVING, extra or {})
    return {
        **_typed("float", "arrival_rate_rps throughput_scaling"),
        "pool_size": "int",
        "sweeps": {"<sweep>": sweep},
    }


_SERVE_ARGV = ["serve-bench", "--requests", "12", "--pool", "2", "--models",
               "GCN", "--datasets", "CO", "--scale", "0.15", "--json"]
#: cell -> (argv, shape at 4f21418, keys added since: every run result
#: now names its backend, and the hetero payload carries what it dropped
#: [, keys removed since: a sweep no longer names its dispatch policy,
#: continuous batching being the only one])
#: per kernel, what the Analyzer weighed: chosen and each candidate, and
#: how many output partitions left the core as COO
_MODELLED = {"modelled_cycles": {"*": "float"}, "coo_writebacks": "int"}
#: a sweep counts the PCIe input transfers it paid and skipped
_PCIE = {"sweeps": {"<sweep>": {
    **_typed("int", "pcie_transfers"), **_typed("float", "pcie_s pcie_saved_s"),
    "metrics": {"counters": _typed("float", (
        "serve.pcie_s serve.pcie_saved_s serve.pcie_transfers"))},
}}}

#: one result type at every width: an unsharded run reports what a sharded
#: one does (a kernel row adds its lanes' records) ...
_SHARD_KEYS = {
    **_typed("float", "halo_fraction halo_s nnz_balance zero_halo_latency_ms"),
    **_typed("int", "halo_bytes num_shards"),
    "kernels": [{
        **_typed("float", "barrier_ms halo_exposed_ms"),
        **_typed("int", "halo_bytes slowest_shard"),
        "shard_ms": ["float"],
        "shard_tasks": ["int"],
        "shard_modelled_cycles": [_typed("float", "GEMM SpDMM SpDMM^T SPMM chosen")],
    }],
}
#: ... and a sharded run what an unsharded one does (a kernel row is the
#: record of the lane that set its barrier)
_RUN_KEYS = {
    **_typed("float", (
        "accel_cycles exposed_overhead_cycles overhead_fraction total_cycles"
    )),
    **_typed("int", (
        "bytes_read bytes_written input_bytes num_pairs num_tasks total_macs"
    )),
    "compile": _typed("float", "parse_s partition_s profile_s total_s"),
    "kernels": [{
        **_typed("float", "cycles out_density"),
        **_typed("int", "pairs skipped_pairs tasks tasks_executed waves"),
        "primitives": {"*": "int"},
        **_MODELLED,
    }],
}

JSON_CELLS = {
    "run": (["run", "--dataset", "CO", "--scale", "0.2", "--json"],
            {**_INFERENCE, "backend": "str"},
            _merge({"kernels": [_MODELLED]}, _SHARD_KEYS)),
    "run_cpu": (["run", "--dataset", "CO", "--scale", "0.2",
                 "--backend", "cpu", "--json"],
                {**_typed("str", "backend dataset framework model"),
                 "latency_ms": "float"}, {}),
    "run_hetero": (["run", "--dataset", "CO", "--scale", "0.2",
                    "--backend", "hetero", "--json"],
                   {**_typed("str", "backend dataset model"),
                    "latency_ms": "float"},
                   {"device_seconds": {"*": "float"},
                    "device_pairs": {"*": "int"},
                    "transfer_seconds": "float",
                    "primitives": {"*": "int"}}),
    "shard_bench": (["shard-bench", "--dataset", "CO", "--shards", "2",
                     "--json"],
                    {"single_device": _INFERENCE, "sweeps": [_SHARDED],
                     "mismatched_shard_counts": []},
                    {"single_device": _merge(
                        {"backend": "str", "kernels": [_MODELLED]}, _SHARD_KEYS),
                     "sweeps": [_merge({"backend": "str", "kernels": [
                         {"halo_exposed_ms": "float", "coo_writebacks": "int",
                          "shard_modelled_cycles": [_typed(
                              "float", "GEMM SpDMM SpDMM^T SPMM chosen")]}]},
                         _RUN_KEYS)]}),
    "serve_bench": (_SERVE_ARGV, _serving(_IN_FLIGHT), _PCIE,
                    {"sweeps": {"<sweep>": {"scheduler"}}}),
    "trace_analyze": (["trace-analyze", "{trace}", "--json", "--what-if",
                       "zero-halo"], _TRACE_ANALYZE, {}),
}


def _drop(shape, removed=frozenset()):
    """``shape`` without the ``removed`` keys (a set, nested in dicts)."""
    if isinstance(removed, (set, frozenset)):
        return {k: v for k, v in shape.items() if k not in removed}
    return {k: _drop(v, removed[k]) if k in removed else v for k, v in shape.items()}


def _shape(value, key=None):
    """Names and JSON types of a payload, recursively; values dropped."""
    import re

    if isinstance(value, dict):
        if set(value) == _HISTOGRAM:
            return "histogram"
        out = {}
        for name, item in value.items():
            item = _shape(item, name)
            if key in _DATA_KEYED:
                name = "*"
            else:
                name = re.sub(r"dev\d+", "dev#", name)
                name = re.sub(r"^(cold|warm)_pool\d+$", "<sweep>", name)
            out[name] = _merge(out[name], item) if name in out else item
        return out
    if isinstance(value, list):
        shapes = [_shape(item) for item in value]
        merged = shapes[:1]
        for item in shapes[1:]:
            merged = [_merge(merged[0], item)]
        return merged
    return {bool: "bool", int: "int", float: "float", str: "str",
            type(None): "null"}[type(value)]


class TestResultsReportThemselves:
    @pytest.mark.parametrize("cell", sorted(JSON_CELLS))
    def test_json_key_set_matches_the_recorded_table(self, cell, capsys,
                                                     tmp_path):
        import json

        argv, recorded, added, *removed = JSON_CELLS[cell]
        trace = tmp_path / "trace.json"
        if cell == "trace_analyze":
            assert main(["trace", "GCN", "CO", "--shards", "2",
                         "--no-task-spans", "--out", str(trace)]) == 0
            capsys.readouterr()
        argv = [arg.format(trace=trace) for arg in argv]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert _shape(payload) == _merge(_drop(recorded, *removed), added)

    def test_hetero_json_carries_what_it_used_to_drop(self, capsys):
        import json

        assert main(["run", "--dataset", "CO", "--scale", "0.2",
                     "--backend", "hetero", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "hetero"
        assert set(payload["device_seconds"]) == {"GPU", "FPGA"}
        executed = sum(count for prim, count in payload["primitives"].items()
                       if prim != "SKIP")
        assert sum(payload["device_pairs"].values()) == executed > 0
        assert payload["transfer_seconds"] >= 0.0

    def test_every_result_type_reports_itself(self):
        import json

        from repro import BACKENDS, Engine
        from repro.config import small_test_config
        from repro.dyngraph import patch_vs_recompile
        from repro.engine.overhead import measure_facade_overhead
        from repro.serve import synthesize

        engine = Engine(small_test_config(), pool_size=2)
        handle = engine.compile("GCN", "CO", scale=0.3, shards=2)
        results = {
            name: engine.infer(handle, backend=name)
            for name in BACKENDS
        }
        results["ServingReport"] = engine.serve(
            synthesize(6, datasets=("CO",), scale=0.3), return_outputs=False
        )
        results["OverheadResult"] = measure_facade_overhead(
            scale=0.1, repeats=1
        )
        results["MicrobenchResult"] = patch_vs_recompile(
            dataset="CO", scale=0.3, repeats=1
        )
        for name, result in results.items():
            report = result.format_report()
            assert isinstance(report, str) and report.strip(), name
            payload = result.to_dict()
            assert json.loads(json.dumps(payload)) == payload, name
        for name in BACKENDS:
            assert results[name].to_dict()["backend"] == name

    def test_dyngraph_bench_command(self, capsys):
        # CI's cli-smoke arguments
        assert main(["dyngraph-bench", "--dataset", "CO", "--scale", "0.3",
                     "--requests", "12", "--mutation-every", "4",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        for needle in ("full recompile", "program patch", " ms",
                       "mutation policy: patch", "mutation policy: evict",
                       "churn throughput", "x)"):
            assert needle in out, needle

    def test_shard_bench_fails_when_outputs_diverge(self, monkeypatch,
                                                    capsys):
        import json

        from repro.runtime.executor import InferenceResult

        exact = InferenceResult.output_dense
        monkeypatch.setattr(  # every width but the single device's diverges
            InferenceResult, "output_dense",
            lambda self: exact(self) + (self.num_shards > 1),
        )
        argv = ["shard-bench", "--dataset", "CO", "--scale", "0.3",
                "--shards", "2"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "FAIL:" in out and "NO" in out
        assert main(argv + ["--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["mismatched_shard_counts"] == [2]
        assert payload["sweeps"][0]["bit_exact"] is False


# -- every check lives at the library boundary --------------------------
def _library_checks():
    """(argv, argument the message names, the library call that raises
    it): every range or membership check the CLI made by hand at 4f21418,
    plus the flags that used to die with a traceback."""
    import numpy as np

    from repro import make_strategy, u250_default
    from repro.datasets import load_dataset
    from repro.dyngraph import churn_experiment, patch_vs_recompile
    from repro.engine.cache import ProgramCache
    from repro.engine.overhead import measure_facade_overhead
    from repro.engine.pool import AcceleratorPool
    from repro.gnn import build_model
    from repro.gnn.pruning import prune_to_sparsity
    from repro.obs import Tracer, flame_summary, validate_trace
    from repro.sched import SLOPolicy
    from repro.serve import InferenceServer, churn_stream, synthesize

    def bad_prune(level):
        return lambda: prune_to_sparsity(np.ones((2, 2)), level)

    def bad_scale(scale):
        return lambda: load_dataset("CO", scale=scale)

    no_pool = lambda: AcceleratorPool(None, 0)  # noqa: E731
    serve = ["serve-bench", "--requests", "4", "--models", "GCN",
             "--datasets", "CO", "--scale", "0.05", "--pool", "1"]
    dyn = ["dyngraph-bench", "--dataset", "CO", "--scale", "0.3",
           "--requests", "12", "--mutation-every", "4", "--repeats", "1"]
    small = ["--dataset", "CO", "--scale", "0.1"]
    return [
        (["run", *small, "--prune", "2"], "sparsity", bad_prune(2.0)),
        (["run", "--scale", "7"], "scale", bad_scale(7.0)),
        (["run", *small, "--strategy", "nope"], "strategy",
         lambda: make_strategy("nope", u250_default())),
        (["compare", *small, "--prune", "-1"], "sparsity", bad_prune(-1.0)),
        (["trace", "GCN", "CO", "--scale", "0.1", "--prune", "2"],
         "sparsity", bad_prune(2.0)),
        (serve + ["--pool", "0"], "num_devices", no_pool),
        (serve + ["--rate", "-1"], "rate_rps",
         lambda: synthesize(4, rate_rps=-1.0)),
        (serve + ["--max-batch", "0"], "max_batch_size",
         lambda: InferenceServer(max_batch_size=0)),
        (serve + ["--cache", "0"], "capacity", lambda: ProgramCache(0)),
        (serve + ["--max-wait-ms", "-1"], "max_wait_s",
         lambda: InferenceServer(max_wait_s=-1e-3)),
        (serve + ["--requests", "0"], "num_requests", lambda: synthesize(0)),
        (serve + ["--prune", "2"], "sparsity", bad_prune(2.0)),
        (serve + ["--skew", "-1"], "skew", lambda: synthesize(4, skew=-1.0)),
        (serve + ["--scale", "0"], "scale", bad_scale(0.0)),
        (serve + ["--class-skew", "2"], "class_skew",
         lambda: synthesize(4, class_skew=2.0)),
        (serve + ["--slo-p99-ms", "0"], "target_p99_s",
         lambda: SLOPolicy.default(interactive_target_p99_s=0.0)),
        (serve + ["--queue-bound", "0"], "max_queue_depth",
         lambda: SLOPolicy.default(interactive_queue_depth=0)),
        (serve + ["--strategy", "nope"], "strategy",
         lambda: make_strategy("nope", u250_default())),
        (serve + ["--models", "X"], "model",
         lambda: build_model("X", 4, 4, 2)),
        (serve + ["--datasets", "X"], "dataset", lambda: load_dataset("X")),
        (dyn + ["--scale", "0"], "scale", bad_scale(0.0)),
        (dyn + ["--edge-fraction", "0"], "edge_fraction",
         lambda: patch_vs_recompile(edge_fraction=0.0)),
        (dyn + ["--repeats", "0"], "repeats",
         lambda: patch_vs_recompile(repeats=0)),
        (dyn + ["--requests", "1"], "num_requests",
         lambda: churn_experiment(num_requests=1)),
        (dyn + ["--mutation-every", "1"], "mutation_every",
         lambda: churn_stream(4, graph=None, mutation_every=1)),
        (dyn + ["--pool", "0"], "num_devices", no_pool),
        (dyn + ["--churn-scale", "2"], "scale", bad_scale(2.0)),
        (["engine-bench", "--scale", "0.1", "--repeats", "0"], "repeats",
         lambda: measure_facade_overhead(repeats=0)),
        (["trace", "--validate", "x.json", "--rtol", "0"], "rtol",
         lambda: validate_trace({}, rtol=0.0)),
        (["trace", "GCN", "CO", "--scale", "0.1", "--top", "-1"], "top",
         lambda: flame_summary(Tracer(), top=-1)),
        (["trace", "GCN", "CO", "--scale", "0.1", "--shards", "0"],
         "num_devices", no_pool),
    ]


class TestChecksLiveInTheLibrary:
    @pytest.mark.parametrize(
        "argv, argument, library_call", _library_checks(),
        ids=lambda v: " ".join(v[:1] + v[-2:]) if isinstance(v, list) else None,
    )
    def test_bad_value_is_one_library_line(self, argv, argument,
                                           library_call, tmp_path,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)  # a traced run writes trace.json
        with pytest.raises((ValueError, KeyError)) as raised:
            library_call()
        library_message = str(raised.value.args[0])
        assert argument in library_message
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert str(exited.value) == f"{argv[0]}: {library_message}"

    def test_bad_flag_exits_nonzero_without_a_traceback(self):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--prune", "2"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode != 0
        assert "Traceback" not in done.stderr
        assert done.stderr.strip() == (
            "run: sparsity must be in [0, 1], got 2.0"
        )
