"""Tests for repro.perf: schema round-trip, registry/tier filtering,
regression detection, the bench/perf-diff CLIs, and bit-exactness of the
two vectorised hot paths the subsystem's profiler surfaced."""

import ast
import dataclasses
import inspect
import json
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from k2p_oracle import batch_of, decide as scalar_decide, ideal_hardware
from repro import u250_default
from repro.__main__ import main
from repro.formats.partition import block_nnz_grid
from repro.hw.report import CODE_ORDER, PRIMITIVE_CODES, Primitive
from repro.perf import (
    BenchResult,
    EnvFingerprint,
    Metric,
    Regression,
    SuiteReport,
    all_benches,
    compare,
    compare_dirs,
    discover,
    load_dir,
    register_bench,
    run_bench,
    run_suite,
    select,
)
from repro.perf import spec as spec_mod
from repro.runtime.perf_model import model_cycles_batch, region_primitive_batch
from repro.runtime.strategies import (
    DynamicMapping,
    FixedMapping,
    MappingStrategy,
    OracleMapping,
    Static1,
    Static2,
)
from unit_oracles import block_nnz_grid_reference

CFG = u250_default()


@pytest.fixture
def registry():
    """Snapshot/restore the global bench registry around a test."""
    saved = dict(spec_mod._REGISTRY)
    spec_mod._REGISTRY.clear()
    try:
        yield spec_mod._REGISTRY
    finally:
        spec_mod._REGISTRY.clear()
        spec_mod._REGISTRY.update(saved)


def fingerprint():
    return EnvFingerprint(
        python="3.11.0", numpy="2.0.0", scipy="1.14.0",
        platform="test", git_sha="deadbee", scale_mode="bench",
    )


def result(name="b", metrics=(), tier="smoke", tolerances=None):
    return BenchResult(
        name=name, tier=tier, metrics=tuple(metrics), repeats=1,
        fingerprint=fingerprint(), tolerances=dict(tolerances or {}),
    )


class TestSchema:
    def test_round_trip_exact(self):
        r = result(metrics=[
            Metric("lat", 1.25, "ms", "lower"),
            Metric("speedup", 3.0, "x", "higher"),
        ], tolerances={"speedup": 0.5})
        assert BenchResult.from_dict(r.to_dict()) == r
        assert BenchResult.loads(r.dumps()) == r

    def test_file_round_trip_and_load_dir(self, tmp_path):
        r = result(name="grid", metrics=[Metric("wall_s", 0.2, "s")])
        path = r.write(tmp_path)
        assert path.name == "BENCH_grid.json"
        assert BenchResult.read(path) == r
        assert load_dir(tmp_path) == {"grid": r}

    def test_newer_schema_version_refused(self):
        raw = result().to_dict()
        raw["schema_version"] = 999
        with pytest.raises(ValueError, match="newer"):
            BenchResult.from_dict(raw)

    def test_metric_direction_validated(self):
        with pytest.raises(ValueError, match="direction"):
            Metric("m", 1.0, "ms", "sideways")

    def test_missing_metric_lists_names(self):
        r = result(metrics=[Metric("a", 1.0)])
        with pytest.raises(KeyError, match="'a'"):
            r.metric("b")

    def test_fingerprint_collect_real_env(self):
        fp = EnvFingerprint.collect(scale_mode="bench")
        assert fp.numpy == np.__version__
        assert fp.scale_mode == "bench"
        json.dumps(result(metrics=[]).to_dict())  # serialisable


class TestRegistry:
    def test_register_and_tier_filtering(self, registry):
        @register_bench("smoke_only", tier="smoke")
        def _a():
            return {}

        @register_bench("full_only", tier="full", tags=("paper",))
        def _b():
            return {}

        @register_bench("both", tier=("smoke", "full"))
        def _c():
            return {}

        assert [s.name for s in select(tier="smoke")] == ["smoke_only", "both"]
        assert [s.name for s in select(tier="full")] == ["full_only", "both"]
        assert [s.name for s in select(tags=["paper"])] == ["full_only"]
        assert [s.name for s in select(names=["both"])] == ["both"]

    def test_duplicate_name_rejected(self, registry):
        @register_bench("dup")
        def _a():
            return {}

        with pytest.raises(ValueError, match="already registered"):
            @register_bench("dup")
            def _b():
                return {}

    def test_unknown_tier_and_name_rejected(self, registry):
        with pytest.raises(ValueError, match="unknown tier"):
            register_bench("x", tier="nightly")
        with pytest.raises(KeyError, match="registered"):
            select(names=["nope"])
        with pytest.raises(ValueError, match="valid tiers"):
            select(tier="nightly")

    def test_named_spec_outside_tier_rejected(self, registry):
        @register_bench("full_only", tier="full")
        def _a():
            return {}

        # silently dropping an explicitly named bench would report a
        # clean run for a bench that never executed
        with pytest.raises(ValueError, match="do not run in tier"):
            select(tier="smoke", names=["full_only"])


def test_benchmarks_are_specs_only(registry, monkeypatch):
    """``repro bench`` is a bench's one entry point: every
    ``benchmarks/bench_*.py`` registers at least one spec, defines no
    ``test_*`` function and no ``__main__`` block, and no registered
    payload takes a parameter (a spec runs one instance at every tier)."""
    bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    paths = sorted(bench_dir.glob("bench_*.py"))
    for name in [m for m in sys.modules if m.startswith("bench_") or m == "_common"]:
        monkeypatch.delitem(sys.modules, name)
    try:
        discover(bench_dir)
    finally:
        for path in paths:
            sys.modules.pop(path.stem, None)
    specs = all_benches().values()
    registering = {spec.fn.__module__ for spec in specs}
    assert [p.name for p in paths if p.stem not in registering] == []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tests = [node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name.startswith("test_")]
        mains = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Compare)
                 and isinstance(node.left, ast.Name)
                 and node.left.id == "__name__"]
        assert not tests and not mains, f"{path.name}: {tests} {mains}"
    assert [s.name for s in specs if inspect.signature(s.fn).parameters] == []


class TestRunner:
    def test_run_bench_appends_wall_time(self, registry):
        @register_bench("timed", tier="smoke")
        def _t():
            return {"val": (2.0, "x", "higher")}

        r = run_bench(select(names=["timed"])[0], tier="smoke", repeats=2,
                      fingerprint=fingerprint())
        assert r.metric("val").direction == "higher"
        assert r.metric("wall_s").unit == "s"
        assert r.repeats == 2

    def test_wrong_tier_rejected(self, registry):
        @register_bench("full_only", tier="full")
        def _t():
            return {}

        with pytest.raises(ValueError, match="does not run in tier"):
            run_bench(select(names=["full_only"])[0], tier="smoke")

    def test_suite_isolates_failures(self, registry, tmp_path):
        @register_bench("boom", tier="smoke")
        def _a():
            raise RuntimeError("kaput")

        @register_bench("fine", tier="smoke")
        def _b():
            return {"v": 1.0}

        report = run_suite(tier="smoke", out_dir=tmp_path)
        assert not report.ok
        assert "RuntimeError" in report.failures["boom"]
        assert [r.name for r in report.results] == ["fine"]
        assert (tmp_path / "BENCH_fine.json").exists()

    def test_suite_reports_missing_baseline(self, registry, tmp_path):
        @register_bench("newbie", tier="smoke")
        def _a():
            return {}

        report = run_suite(tier="smoke", out_dir=tmp_path / "out",
                           baseline_dir=tmp_path / "base")
        assert report.missing_baselines == ["newbie"]
        assert report.ok  # a brand-new bench cannot regress


class TestCompare:
    def base(self):
        return result(metrics=[
            Metric("cycles", 100.0, "count", "lower"),
            Metric("speedup", 4.0, "x", "higher"),
            Metric("wall_s", 1.0, "s", "lower"),
        ])

    def classify(self, **values):
        metrics = [m for m in [
            Metric("cycles", values.get("cycles", 100.0), "count", "lower"),
            Metric("speedup", values.get("speedup", 4.0), "x", "higher"),
            Metric("wall_s", values.get("wall_s", 1.0), "s", "lower"),
        ]]
        out = compare(result(metrics=metrics), self.base())
        return {c.metric: c.classification for c in out}

    def test_within_tolerance(self):
        cls = self.classify(cycles=110.0, speedup=3.8)
        assert cls == {"cycles": "within", "speedup": "within",
                       "wall_s": "within"}

    def test_regression_lower_is_better(self):
        assert self.classify(cycles=200.0)["cycles"] == "regression"

    def test_regression_higher_is_better(self):
        assert self.classify(speedup=1.0)["speedup"] == "regression"

    def test_improvement(self):
        cls = self.classify(cycles=10.0, speedup=40.0)
        assert cls["cycles"] == "improvement"
        assert cls["speedup"] == "improvement"

    def test_time_units_get_generous_band(self):
        # 9x slower wall clock is still "within" (different machine class);
        # order-of-magnitude blowups are flagged
        assert self.classify(wall_s=9.9)["wall_s"] == "within"
        assert self.classify(wall_s=10.1)["wall_s"] == "regression"

    def test_tolerance_override_tightens(self):
        new = result(metrics=[Metric("wall_s", 1.5, "s", "lower")],
                     tolerances={"wall_s": 0.1})
        base = result(metrics=[Metric("wall_s", 1.0, "s", "lower")])
        (c,) = compare(new, base)
        assert c.is_regression and c.tolerance == 0.1

    def test_zero_baseline(self):
        new = result(metrics=[Metric("errs", 1.0, "count", "lower")])
        base = result(metrics=[Metric("errs", 0.0, "count", "lower")])
        (c,) = compare(new, base)
        assert c.is_regression and c.worse_by == float("inf")

    @pytest.mark.parametrize("cycles,line", (
        (200.0, "100 -> 200 count (+100.0% worse, tol 25%) [WORSE]"),
        (10.0, "100 -> 10 count (+90.0% better, tol 25%) [better]"),
        (110.0, "100 -> 110 count (+10.0% worse, tol 25%) [ok]"),
        (95.0, "100 -> 95 count (+5.0% better, tol 25%) [ok]"),
    ))
    def test_describe_signs_the_change_in_its_own_direction(self, cycles, line):
        new = result(metrics=[Metric("cycles", cycles, "count", "lower")])
        (c,) = compare(new, self.base())
        assert c.describe() == f"b.cycles: {line}"

    def test_describe_an_improved_speedup(self):
        new = result(metrics=[Metric("speedup", 5.408, "x", "higher")])
        (c,) = compare(new, self.base())
        assert c.classification == "improvement"
        assert c.describe() == "b.speedup: 4 -> 5.408 x (+35.2% better, tol 25%) [better]"

    def test_one_sided_metrics_skipped(self):
        new = result(metrics=[Metric("brand_new", 1.0)])
        assert compare(new, self.base()) == []

    def test_regressions_sort_first(self):
        new = result(metrics=[
            Metric("cycles", 10.0, "count", "lower"),    # improvement
            Metric("speedup", 1.0, "x", "higher"),       # regression
        ])
        out = compare(new, self.base())
        assert [c.classification for c in out][0] == "regression"
        assert isinstance(out[0], Regression) and "WORSE" in out[0].describe()


class TestCompareDirs:
    def write(self, d, name, value):
        result(name=name,
               metrics=[Metric("v", value, "count", "lower")]).write(d)

    def test_compare_and_update(self, tmp_path):
        new, base = tmp_path / "new", tmp_path / "base"
        self.write(new, "a", 100.0)
        self.write(new, "b", 1.0)
        self.write(base, "a", 50.0)
        comparisons, missing = compare_dirs(new, base)
        assert [c.classification for c in comparisons] == ["regression"]
        assert missing == ["b"]

        report = SuiteReport("smoke", new, results=list(load_dir(new).values()))
        report.promote(base)
        assert "refreshed: 2 file(s)" in report.format_report()
        assert sorted(p.name for p in base.glob("BENCH_*.json")) == [
            "BENCH_a.json", "BENCH_b.json"]
        comparisons, missing = compare_dirs(new, base)
        assert missing == []
        assert all(c.classification == "within" for c in comparisons)


BENCH_TEMPLATE = """
from repro.perf import register_bench


@register_bench("cli_spec", tier=("smoke", "full"))
def _spec():
    # returning wall_s explicitly keeps the runner from appending the
    # measured one: a trivial payload's real wall clock is microseconds
    # of pure jitter, and this spec must compare deterministically
    return {{"val": ({value}, "count", "lower"), "wall_s": (0.5, "s")}}
"""


class TestBenchCLI:
    @pytest.fixture
    def bench_dir(self, tmp_path, registry, monkeypatch):
        """A benchmarks dir holding one registered spec, value 100."""
        import sys

        d = tmp_path / "benchmarks"
        d.mkdir()
        (d / "bench_cli_spec.py").write_text(
            textwrap.dedent(BENCH_TEMPLATE.format(value=100.0))
        )
        monkeypatch.delitem(sys.modules, "bench_cli_spec", raising=False)
        return d

    def test_bench_list(self, bench_dir, capsys):
        assert main(["bench", "--list", "--benchmarks-dir",
                     str(bench_dir)]) == 0
        assert "cli_spec" in capsys.readouterr().out

    def test_bench_run_update_then_check(self, bench_dir, tmp_path, capsys):
        out, base = tmp_path / "out", tmp_path / "base"
        args = ["bench", "--benchmarks-dir", str(bench_dir),
                "--out", str(out), "--baseline-dir", str(base)]
        assert main(args + ["--update-baseline"]) == 0
        assert (base / "BENCH_cli_spec.json").exists()
        # same value against the fresh baseline: exit 0
        assert main(args + ["--check-baseline"]) == 0
        assert "regression" not in capsys.readouterr().out

    def test_bench_missing_dir_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["bench", "--benchmarks-dir", str(tmp_path / "nope")])

    def test_bench_unknown_name_is_clean_error(self, bench_dir):
        with pytest.raises(SystemExit, match="unknown bench"):
            main(["bench", "--benchmarks-dir", str(bench_dir),
                  "--names", "nope"])

    def test_update_baseline_promotes_only_this_run(self, bench_dir,
                                                    tmp_path, registry):
        """Stale BENCH_*.json in out_dir must not be promoted."""
        out, base = tmp_path / "out", tmp_path / "base"
        out.mkdir()
        result(name="stale").write(out)
        assert main(["bench", "--benchmarks-dir", str(bench_dir),
                     "--out", str(out), "--baseline-dir", str(base),
                     "--update-baseline"]) == 0
        assert (base / "BENCH_cli_spec.json").exists()
        assert not (base / "BENCH_stale.json").exists()

    def test_update_baseline_refused_on_failure(self, tmp_path, registry,
                                                capsys):
        """A run with a failing bench must not refresh the baseline."""
        import sys

        d = tmp_path / "benchmarks"
        d.mkdir()
        (d / "bench_boom.py").write_text(textwrap.dedent("""
            from repro.perf import register_bench


            @register_bench("boom", tier=("smoke", "full"))
            def _spec():
                raise RuntimeError("kaput")
        """))
        sys.modules.pop("bench_boom", None)
        out, base = tmp_path / "out", tmp_path / "base"
        try:
            assert main(["bench", "--benchmarks-dir", str(d),
                         "--out", str(out), "--baseline-dir", str(base),
                         "--update-baseline"]) == 1
        finally:
            sys.modules.pop("bench_boom", None)
        assert not base.exists() or not list(base.glob("BENCH_*.json"))
        assert "NOT refreshed" in capsys.readouterr().out

    def test_bench_regression_gates(self, bench_dir, tmp_path):
        """An injected synthetic regression must flip the exit code."""
        out, base = tmp_path / "out", tmp_path / "base"
        args = ["bench", "--benchmarks-dir", str(bench_dir),
                "--out", str(out), "--baseline-dir", str(base)]
        assert main(args + ["--update-baseline"]) == 0
        # tamper with the baseline: pretend the metric used to be 10x better
        path = base / "BENCH_cli_spec.json"
        raw = json.loads(path.read_text())
        for m in raw["metrics"]:
            if m["name"] == "val":
                m["value"] = 10.0
        path.write_text(json.dumps(raw))
        assert main(args + ["--check-baseline"]) == 1


class TestPerfDiffCLI:
    def write(self, d, name, value, unit="count"):
        result(name=name,
               metrics=[Metric("v", value, unit, "lower")]).write(d)

    def test_within_exits_zero(self, tmp_path, capsys):
        new, base = tmp_path / "new", tmp_path / "base"
        self.write(new, "a", 100.0)
        self.write(base, "a", 101.0)
        assert main(["perf-diff", str(new), str(base)]) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        new, base = tmp_path / "new", tmp_path / "base"
        self.write(new, "a", 100.0)
        self.write(base, "a", 10.0)
        assert main(["perf-diff", str(new), str(base)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_missing_dir_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["perf-diff", str(tmp_path / "nope"), str(tmp_path / "no2")])

    def test_no_overlap_is_clean_error(self, tmp_path):
        new, base = tmp_path / "new", tmp_path / "base"
        new.mkdir(), base.mkdir()
        with pytest.raises(SystemExit, match="no overlapping"):
            main(["perf-diff", str(new), str(base)])

    def test_all_flag_prints_within(self, tmp_path, capsys):
        new, base = tmp_path / "new", tmp_path / "base"
        self.write(new, "a", 100.0)
        self.write(base, "a", 100.0)
        assert main(["perf-diff", str(new), str(base), "--all"]) == 0
        assert "a.v" in capsys.readouterr().out

    def _traced_dirs(self, tmp_path, *, halo_factor=1.0):
        """new/base BENCH dirs with an injected regression and a trace of
        the new run, whose halo spans take ``halo_factor`` ms."""
        from repro.obs import Tracer, write_trace

        new, base = tmp_path / "new", tmp_path / "base"
        self.write(new, "a", 100.0)
        self.write(base, "a", 10.0)  # regression beyond tolerance
        slow = Tracer()
        slow.span("timeline", "L0.agg", 0.0, 4e-3 + halo_factor * 1e-3,
                  cat="layer", slowest_shard=0)
        slow.span("shard0", "L0.agg/halo", 0.0, halo_factor * 1e-3,
                  cat="halo")
        slow.span("shard0", "L0.agg", halo_factor * 1e-3,
                  4e-3 + halo_factor * 1e-3, cat="kernel", tasks=4)
        write_trace(slow, new / "trace.json",
                    meta={"expected_total_s": 4e-3 + halo_factor * 1e-3})
        return new, base

    def test_attribute_names_the_regressed_span_group(self, tmp_path,
                                                      capsys):
        new, base = self._traced_dirs(tmp_path, halo_factor=3.0)
        assert main(["perf-diff", str(new), str(base), "--attribute"]) == 1
        out = capsys.readouterr().out
        assert "critical-path attribution" in out
        # 3 of the critical path's 7 ms are the halo the regression grew
        assert "halo" in out and "42.9%" in out

    def test_attribute_without_traces_degrades_gracefully(self, tmp_path,
                                                          capsys):
        new, base = tmp_path / "new", tmp_path / "base"
        self.write(new, "a", 100.0)
        self.write(base, "a", 10.0)
        assert main(["perf-diff", str(new), str(base), "--attribute"]) == 1
        assert "no trace artifact" in capsys.readouterr().out

    def test_attribute_silent_when_within_tolerance(self, tmp_path, capsys):
        new, base = self._traced_dirs(tmp_path)
        # overwrite the regression with matching numbers
        self.write(new, "a", 100.0)
        self.write(base, "a", 100.0)
        assert main(["perf-diff", str(new), str(base), "--attribute"]) == 0
        assert "critical-path" not in capsys.readouterr().out

    def test_attribute_with_all_runs_even_within_tolerance(self, tmp_path,
                                                           capsys):
        new, base = self._traced_dirs(tmp_path)
        self.write(new, "a", 100.0)
        self.write(base, "a", 100.0)
        assert main(["perf-diff", str(new), str(base),
                     "--attribute", "--all"]) == 0
        assert "critical-path attribution" in capsys.readouterr().out

    def test_attribute_explicit_trace_paths(self, tmp_path, capsys):
        new, base = self._traced_dirs(tmp_path, halo_factor=3.0)
        moved_new = tmp_path / "n.json"
        (new / "trace.json").rename(moved_new)
        assert main(["perf-diff", str(new), str(base), "--attribute",
                     "--trace", str(moved_new)]) == 1
        assert "critical-path attribution" in capsys.readouterr().out


def _density_grid(n=257):
    rng = np.random.default_rng(3)
    ax = rng.uniform(0.0, 1.0, n)
    ay = rng.uniform(0.0, 1.0, n)
    ax[::11] = 0.0
    ay[::7] = 0.0
    ay[::5] = ax[::5]          # exact ties
    ax[3], ay[3] = 0.5, 0.5    # exact GEMM threshold
    ax[4], ay[4] = 2.0 / CFG.psys, 0.01  # exact SpDMM threshold
    return ax, ay


class TestVectorizedHotPaths:
    """The two vectorised hot paths are bit-exact vs their references."""

    @pytest.mark.parametrize("n,m,block", [(64, 64, 16), (100, 130, 32),
                                           (1, 7, 16), (256, 256, 256)])
    def test_block_nnz_grid_sparse(self, n, m, block):
        rng = np.random.default_rng(n + m)
        mat = sp.random(n, m, density=0.1, format="csr", dtype=np.float32,
                        rng=rng)
        assert np.array_equal(
            block_nnz_grid(mat, block, block),
            block_nnz_grid_reference(mat, block, block),
        )

    def test_block_nnz_grid_dense_and_explicit_zeros(self):
        rng = np.random.default_rng(0)
        dense = (rng.uniform(size=(70, 90)) < 0.3).astype(np.float32)
        assert np.array_equal(
            block_nnz_grid(dense, 16, 32),
            block_nnz_grid_reference(dense, 16, 32),
        )
        # COO with duplicates and explicit zeros exercises canonicalisation
        coo = sp.coo_matrix(
            (np.array([1.0, 2.0, 0.0, -2.0]),
             ([0, 0, 5, 0], [0, 0, 5, 0])), shape=(64, 64),
        )
        assert np.array_equal(
            block_nnz_grid(coo, 16, 16),
            block_nnz_grid_reference(coo, 16, 16),
        )
        # canonical CSR carrying an explicit zero must skip the native
        # indptr-slice path and still count exactly
        csr = coo.tocsr()
        assert csr.has_canonical_format and (csr.data == 0).any()
        assert np.array_equal(
            block_nnz_grid(csr, 16, 16),
            block_nnz_grid_reference(csr, 16, 16),
        )

    # Algorithm 7 at its boundaries on the U250 (psys = 16, so the SpDMM
    # threshold 2/psys is 0.125): (alpha_x, alpha_y) -> (primitive,
    # transposed), the expected answer written out.  The Analyzer reads
    # the census, so "just under" is one nonzero under: of a 512 x 512 X
    # block, of a 512 x 128 Y block.
    BELOW_X = 0.125 - 1 / (512 * 512)
    BELOW_Y = 0.125 - 1 / (512 * 128)
    ALGORITHM_7 = [
        ((0.0, 1.0), (Primitive.SKIP, False)),     # alpha = 0: skip...
        ((0.7, 0.0), (Primitive.SKIP, False)),     # ...whichever side it is on
        ((0.0, 0.0), (Primitive.SKIP, False)),
        ((0.0, 0.05), (Primitive.SKIP, False)),
        ((0.5, 0.5), (Primitive.GEMM, False)),     # alpha_min = 1/2: GEMM wins
        ((0.5, 0.9), (Primitive.GEMM, False)),
        ((0.9, 0.5), (Primitive.GEMM, False)),     # no orientation but SpDMM's
        ((0.4999, 0.9), (Primitive.SPDMM, False)),  # X sparser: X in BufferU
        ((0.9, 0.4999), (Primitive.SPDMM, True)),   # ay < ax: transposed
        ((0.3, 0.3), (Primitive.SPDMM, False)),     # tie keeps X in BufferU
        ((0.01, 0.125), (Primitive.SPDMM, False)),  # alpha_max = 2/psys: SpDMM
        ((0.125, 0.01), (Primitive.SPDMM, True)),
        ((0.125, 0.125), (Primitive.SPDMM, False)),
        ((0.01, BELOW_Y), (Primitive.SPMM, False)),  # one nonzero under: SPMM
        ((BELOW_X, 0.01), (Primitive.SPMM, False)),  # SPMM is never transposed
        ((1.0, 1.0), (Primitive.GEMM, False)),
    ]

    def test_analyzer_decide_batch_matches_scalar(self):
        """Algorithm 7's table holds where its premises do (no AHM pass,
        unbounded bandwidth, a fully occupied array: ``ideal_hardware``);
        on the hardware as modelled the batch equals the scalar loop."""
        analyzer = DynamicMapping(dataclasses.replace(
            CFG, memory=dataclasses.replace(CFG.memory, bandwidth_gbps=float("inf"))))
        pairs = [pair for pair, _ in self.ALGORITHM_7]
        densities = tuple(map(np.array, zip(*pairs)))
        with ideal_hardware():
            codes, transposed, _ = analyzer.decide_batch(
                None, batch_of(*densities, m=512, n=512, d=128))
        for i, ((ax, ay), (primitive, flag)) in enumerate(self.ALGORITHM_7):
            assert (CODE_ORDER[codes[i]], bool(transposed[i])) == \
                (primitive, flag), (ax, ay)
        batch = batch_of(*densities, m=512, n=512, d=128)
        codes, transposed, _ = DynamicMapping(CFG).decide_batch(None, batch)
        ref_codes, ref_transposed = scalar_decide(batch, CFG)
        assert codes.tolist() == ref_codes.tolist()
        assert transposed.tolist() == ref_transposed.tolist()

    @pytest.mark.parametrize("strategy", [
        DynamicMapping(CFG), Static1(CFG), Static2(CFG), OracleMapping(CFG),
        FixedMapping(CFG, Primitive.GEMM),
    ], ids=lambda s: type(s).__name__)
    def test_strategy_decide_batch_matches_scalar(self, strategy):
        """One call over a density grid equals the per-pair loop: the
        Analyzer's rule in plain Python, a constant for a fixed mapping."""
        from repro.ir.kernel import KernelIR, KernelType

        kernel = KernelIR(kernel_id="k1", layer_id=1,
                          ktype=KernelType.AGGREGATE, input_dim=128,
                          output_dim=128, num_vertices=512, num_edges=2048)
        ax, ay = _density_grid(101)
        batch = batch_of(ax, ay, m=512, n=512, d=128, x_sparse=True, y_sparse=False)
        codes, transposed, modelled = strategy.decide_batch(kernel, batch)
        if isinstance(strategy, DynamicMapping):
            want = scalar_decide(batch, CFG, skip=strategy.skips_empty)
            assert modelled["chosen"] <= min(
                v for k, v in modelled.items() if k != "chosen" and v is not None)
        else:
            fixed = {"S1": Primitive.SPDMM, "S2": Primitive.SPDMM}.get(
                strategy.name, Primitive.GEMM)
            want = ([PRIMITIVE_CODES[fixed]] * len(batch), [False] * len(batch))
            assert modelled is None
        assert codes.tolist() == list(want[0])
        assert transposed.tolist() == list(want[1])

    def test_a_strategy_must_define_decide_batch(self):
        with pytest.raises(TypeError, match="decide_batch"):
            type("NoBatch", (MappingStrategy,), {})(CFG)

    def test_model_cycles_batch_bit_exact(self):
        # Table IV on a 512 x 512 x 128 pair: volume 2**25, psys**2 = 256.
        # Dyadic densities, so every expected cycle count is exact
        table = [  # (alpha_x, alpha_y) -> (GEMM, SpDMM, SPMM) cycles
            ((1.0, 1.0), (131072.0, 262144.0, 2097152.0)),
            ((0.25, 0.5), (131072.0, 65536.0, 262144.0)),
            ((0.5, 0.25), (131072.0, 65536.0, 262144.0)),
            ((0.0625, 0.125), (131072.0, 16384.0, 16384.0)),
            ((0.0, 0.75), (131072.0, 0.0, 0.0)),
        ]
        pairs = [pair for pair, _ in table]
        batch = model_cycles_batch(512, 512, 128, *map(np.array, zip(*pairs)), CFG)
        for k, ((ax, ay), expected) in enumerate(table):
            assert tuple(batch[:, k]) == expected, (ax, ay)

    def test_argmin_and_region_batch_bit_exact(self):
        # Table IV's tie-breaks, and where the closed-form regions and the
        # model's argmin part: (alpha_x, alpha_y) -> (argmin, region)
        G, D, S = Primitive.GEMM, Primitive.SPDMM, Primitive.SPMM
        table = [
            ((0.5, 0.5), (G, G)),        # GEMM == SpDMM cycles: GEMM wins
            ((0.5, 1.0), (G, G)),
            ((0.0625, 0.125), (D, D)),   # SpDMM == SPMM cycles: SpDMM wins
            ((0.125, 0.0625), (D, D)),
            ((0.25, 0.75), (D, D)),
            ((0.0625, 0.0625), (S, S)),
            ((0.0, 0.75), (D, D)),       # both zero-cost: first in region order
            ((0.0, 0.0625), (D, S)),     # the regions ignore the zero case
        ]
        pairs = [pair for pair, _ in table]
        ax, ay = map(np.array, zip(*pairs))
        # argmin returns the first primitive (in region order) at the minimum
        argmin = np.argmin(model_cycles_batch(512, 512, 128, ax, ay, CFG), axis=0)
        region = region_primitive_batch(ax, ay, CFG)
        for k, ((x, y), expected) in enumerate(table):
            assert (CODE_ORDER[argmin[k]], CODE_ORDER[region[k]]) == expected, (x, y)

    def test_batch_density_validation(self):
        with pytest.raises(ValueError, match="densities"):
            model_cycles_batch(8, 8, 8, np.array([1.5]), np.array([0.5]), CFG)


class TestUnitMismatchGate:
    """compare() pairs metrics by name; a unit or direction change means
    the values are not comparable and must hard-fail the gate."""

    def test_unit_change_is_a_hard_gate_failure(self):
        new = result(metrics=[Metric("lat", 0.5, "x", "lower")])
        base = result(metrics=[Metric("lat", 2.0, "s", "lower")])
        (c,) = compare(new, base)
        assert c.classification == "mismatch"
        assert c.is_regression
        assert "not comparable" in c.describe()
        assert "MISMATCH" in c.describe()

    def test_direction_flip_is_a_hard_gate_failure(self):
        new = result(metrics=[Metric("lat", 2.0, "s", "higher")])
        base = result(metrics=[Metric("lat", 2.0, "s", "lower")])
        (c,) = compare(new, base)
        assert c.classification == "mismatch" and c.is_regression

    def test_mismatch_sorts_with_regressions(self):
        new = result(metrics=[
            Metric("ok", 100.0, "count", "lower"),
            Metric("changed", 100.0, "ratio", "lower"),
        ])
        base = result(metrics=[
            Metric("ok", 100.0, "count", "lower"),
            Metric("changed", 100.0, "count", "lower"),
        ])
        out = compare(new, base)
        assert out[0].classification == "mismatch"

    def test_equal_values_do_not_mask_a_mismatch(self):
        # same number, different meaning: still a gate failure
        new = result(metrics=[Metric("m", 1.0, "ratio", "higher")])
        base = result(metrics=[Metric("m", 1.0, "s", "lower")])
        (c,) = compare(new, base)
        assert c.is_regression

    def test_mismatch_fails_the_perf_diff_cli(self, tmp_path, capsys):
        new, base = tmp_path / "new", tmp_path / "base"
        result(name="a",
               metrics=[Metric("v", 1.0, "x", "higher")]).write(new)
        result(name="a",
               metrics=[Metric("v", 1.0, "s", "lower")]).write(base)
        assert main(["perf-diff", str(new), str(base)]) == 1
        assert "MISMATCH" in capsys.readouterr().out
