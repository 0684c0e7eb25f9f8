"""The ledger checked at miniature scale: ``python -m pytest ledger/``.

Not collected by tier-1 (``testpaths`` is ``tests/``).  Every workload runs
at 0.05 of its graph and stream sizes with a token time budget, so the
whole file stays under 30 s; what is checked is the machinery (every metric
the contract declares is produced, spans reconcile, a wrong output is
counted, ``compare.py`` tells a changed model from an unchanged one), not
any number.
"""

from __future__ import annotations

import copy
import json
import time

import pytest

import compare
import run

MINI = dict(seed=0, seconds=0.2, scale=0.05)


@pytest.fixture(scope="module")
def spec():
    return run.contract()


@pytest.fixture(scope="module")
def traced():
    """One traced miniature run per workload, and the seconds all took."""
    t0 = time.perf_counter()
    runs = {name: run.run_workload(name, trace=True, **MINI) for name in run.WORKLOAD_NAMES}
    return runs, time.perf_counter() - t0


def test_contract_names_the_six_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert spec["paths"] == ["ledger"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])


def test_miniatures_finish_fast_and_verify(traced, spec):
    runs, seconds = traced
    assert seconds < 30
    declared = {m["name"] for m in spec["per_layer"]}
    for name, (measurement, metrics) in runs.items():
        assert measurement.failed == 0, name
        assert measurement.attempted > len(measurement.samples), name  # the walk verifies too
        assert set(metrics) == declared, name


def test_untraced_run_reports_every_end_to_end_metric(spec):
    declared = {m["name"] for m in spec["end_to_end"]}
    for name in ("cold_small", "serve_churn"):
        measurement, metrics = run.run_workload(name, trace=False, **MINI)
        assert measurement.failed == 0
        assert set(metrics) == declared
        assert all(value > 0 for value in metrics.values()), metrics


def test_spans_reconcile_and_layers_sit_where_the_code_says(traced):
    runs, _ = traced
    for name, (measurement, metrics) in runs.items():
        assert metrics["trace.residual_frac"] <= 0.01, name
        timed = {s.name for s in measurement.recorder.spans if s.phase == "timed"}
        if name in ("warm_sweep", "shard_sweep", "serve_steady"):
            assert not {n for n in timed if n.startswith(("datasets.", "engine.compile"))}
            assert metrics["datasets.load_share"] == 0
    steady, churn = runs["serve_steady"][1], runs["serve_churn"][1]
    assert steady["engine.cache_hit_rate"] == 1.0
    assert steady["dyngraph.patches"] == 0
    assert churn["dyngraph.patches"] > 0
    assert runs["cold_large"][1]["datasets.load_share"] > 0


def test_same_seed_gives_the_same_digest():
    first, _ = run.run_workload("warm_sweep", trace=False, **MINI)
    again, _ = run.run_workload("warm_sweep", trace=False, **MINI)
    other, _ = run.run_workload("warm_sweep", trace=False, **dict(MINI, seed=1))
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()


def test_corrupted_output_counts_as_failed(monkeypatch):
    import workloads

    class Corrupted(workloads.WarmSweep):
        def op(self, cell, j, inputs, rec):
            result, span = super().op(cell, j, inputs, rec)
            result.output = result.output * 1.01
            return result, span

    monkeypatch.setitem(workloads.WORKLOADS, "warm_sweep", Corrupted)
    measurement, _ = run.run_workload("warm_sweep", trace=False, **MINI)
    assert measurement.failed == len(measurement.samples) > 0


def ledger_file(tmp_path, name, latency_scale=1.0):
    entry = {
        "end_to_end": {
            "op_wall_ms": {"value": 10.0, "unit": "ms"},
            "modelled_latency_ms": {"value": 2.5 * latency_scale, "unit": "ms"},
        },
        "per_layer": {}, "failed_frac": 0.0, "modelled_digest": "abc" * 8,
    }
    doc = {"seed": 0, "workloads": {"warm_sweep": entry, "serve_churn": copy.deepcopy(entry)}}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_compare_passes_identical_and_flags_a_perturbed_exact_metric(tmp_path, capsys):
    base = ledger_file(tmp_path, "a.json")
    assert compare.main([base, ledger_file(tmp_path, "b.json")]) == 0
    assert "identical" in capsys.readouterr().out
    # one part in a million on the virtual clock: far inside the contract's
    # bound, still a change of the model
    assert compare.main([base, ledger_file(tmp_path, "c.json", 1 + 1e-6)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    # serve_churn's virtual clock takes host time: the bound applies there
    assert out.count("REGRESSION") == 1
