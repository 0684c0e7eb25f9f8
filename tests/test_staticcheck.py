"""repro.staticcheck: rule fixtures, ratchet behaviour, CLI exit codes.

Every rule gets a positive fixture (must fire), a negative fixture (must
stay silent) and the shared suppression-comment check; the ratchet tests
pin the burn-down semantics (baseline absorbs old findings, new ones
fail); the self-check asserts the shipped tree is clean against the
committed baseline — the same gate CI runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.staticcheck import (
    CLOCKED_PACKAGES,
    StaticCheckError,
    WALLCLOCK_ALLOWLIST,
    counts_of,
    load_baseline,
    ratchet,
    rule_catalog,
    run_checks,
    save_baseline,
)
from repro.staticcheck.typing_ratchet import (
    compare_counts,
    load_mypy_baseline,
    mypy_available,
    mypy_ratchet,
    parse_error_counts,
    save_mypy_baseline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_module(root: Path, rel: str, source: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")


def check(root: Path, source: str, codes, rel="src/repro/serve/mod.py"):
    write_module(root, rel, source)
    return run_checks(root, paths=(rel,), codes=codes)


# one (positive, negative) source pair per rule; positives written into a
# clocked module (serve/) so the clock rules apply
RULE_FIXTURES = {
    "RPR101": (
        "import time\n\ndef f():\n    return time.perf_counter()\n",
        "def f():\n    return 0.0\n",
    ),
    "RPR102": (
        "import datetime\n\ndef f():\n    return datetime.datetime.now()\n",
        "import datetime\n\ndef f():\n"
        "    return datetime.datetime(2023, 5, 15)\n",
    ),
    "RPR103": (
        "import time\n\ndef f():\n    time.sleep(0.1)\n",
        "import time  # imported, never slept on\n\ndef f():\n    return 1\n",
    ),
    "RPR201": (
        "import numpy as np\n\ndef f():\n    return np.random.rand(3)\n",
        "import numpy as np\n\ndef f(seed):\n"
        "    return np.random.default_rng(seed).random(3)\n",
    ),
    "RPR202": (
        "import random\n\ndef f():\n    return random.random()\n",
        "import random\n\ndef f(seed):\n"
        "    return random.Random(seed).random()\n",
    ),
    "RPR203": (
        "import numpy as np\n\ndef f():\n    return np.random.default_rng()\n",
        "import numpy as np\n\ndef f(seed):\n"
        "    return np.random.default_rng(seed)\n",
    ),
    "RPR204": (
        "def f(a, b):\n    out = []\n    for k in {a, b}:\n"
        "        out.append(k)\n    return out\n",
        "def f(a, b):\n    out = []\n    for k in sorted({a, b}):\n"
        "        out.append(k)\n    return out\n",
    ),
    "RPR301": (
        "def f(wait_ms, timeout_s):\n    return wait_ms + timeout_s\n",
        "def f(wait_ms, timeout_s):\n"
        "    return wait_ms * 1e-3 + timeout_s\n",
    ),
    "RPR402": (
        "def f(obj):\n    object.__setattr__(obj, 'x', 1)\n",
        "class C:\n    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n",
    ),
}


class TestRuleFixtures:
    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_positive_fires(self, code, tmp_path):
        bad, _good = RULE_FIXTURES[code]
        findings = check(tmp_path, bad, codes=[code])
        assert [f.code for f in findings] == [code]

    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_negative_silent(self, code, tmp_path):
        _bad, good = RULE_FIXTURES[code]
        assert check(tmp_path, good, codes=[code]) == []

    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_line_suppression(self, code, tmp_path):
        bad, _good = RULE_FIXTURES[code]
        findings = check(tmp_path, bad, codes=[code])
        lines = bad.splitlines()
        lines[findings[0].line - 1] += f"  # staticcheck: ignore[{code}]"
        assert check(tmp_path, "\n".join(lines) + "\n", codes=[code]) == []

    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_file_suppression(self, code, tmp_path):
        bad, _good = RULE_FIXTURES[code]
        suppressed = f"# staticcheck: ignore-file[{code}]\n" + bad
        assert check(tmp_path, suppressed, codes=[code]) == []

    def test_bare_ignore_suppresses_everything(self, tmp_path):
        bad = "def f(a_ms, b_s):\n    return a_ms + b_s  # staticcheck: ignore\n"
        assert check(tmp_path, bad, codes=["RPR301"]) == []

    def test_wrong_code_does_not_suppress(self, tmp_path):
        bad = ("def f(a_ms, b_s):\n"
               "    return a_ms + b_s  # staticcheck: ignore[RPR999]\n")
        findings = check(tmp_path, bad, codes=["RPR301"])
        assert [f.code for f in findings] == ["RPR301"]


class TestClockRuleScoping:
    def test_allowlisted_module_passes(self, tmp_path):
        rel = next(iter(WALLCLOCK_ALLOWLIST))
        bad = RULE_FIXTURES["RPR101"][0]
        assert check(tmp_path, bad, codes=["RPR101"], rel=rel) == []

    def test_unallowlisted_host_module_fails(self, tmp_path):
        bad = RULE_FIXTURES["RPR101"][0]
        findings = check(tmp_path, bad, codes=["RPR101"],
                         rel="src/repro/analysis/mod.py")
        assert findings and "WALLCLOCK_ALLOWLIST" in findings[0].message

    @pytest.mark.parametrize("pkg", CLOCKED_PACKAGES)
    def test_every_clocked_package_guarded(self, pkg, tmp_path):
        bad = RULE_FIXTURES["RPR101"][0]
        findings = check(tmp_path, bad, codes=["RPR101"],
                         rel=f"src/repro/{pkg}/mod.py")
        assert findings and "clocked module" in findings[0].message

    def test_no_allowlist_entry_in_clocked_packages(self):
        for rel in WALLCLOCK_ALLOWLIST:
            assert Path(rel).parts[2] not in CLOCKED_PACKAGES

    @pytest.mark.parametrize("rel", sorted(WALLCLOCK_ALLOWLIST))
    def test_every_exemption_still_has_its_reason(self, rel, tmp_path):
        # an exemption may not outlive the wall-clock read it excuses:
        # the allowlisted file exists and, checked under a path that is
        # not exempt, RPR101 fires on it
        source = (REPO_ROOT / rel).read_text(encoding="utf-8")
        findings = check(tmp_path, source, codes=["RPR101"],
                         rel="src/repro/analysis/mod.py")
        assert findings, f"{rel} reads no wall clock: drop its exemption"

    def test_non_library_paths_ignored(self, tmp_path):
        bad = RULE_FIXTURES["RPR101"][0]
        assert check(tmp_path, bad, codes=["RPR101"],
                     rel="benchmarks/bench_mod.py") == []


class TestProjectRules:
    def test_rpr501_partial_to_dict(self, tmp_path):
        src = (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass Report:\n    kept: int\n    dropped: int\n\n"
            "    def to_dict(self):\n        return {'kept': self.kept}\n"
        )
        findings = check(tmp_path, src, codes=["RPR501"])
        assert findings and "'dropped'" in findings[0].message

    def test_rpr501_asdict_covers_all(self, tmp_path):
        # asdict, or a walk over fields(self), covers every field
        for body in ("asdict(self)",
                     "{f.name: getattr(self, f.name) for f in fields(self)}"):
            src = (
                "from dataclasses import asdict, dataclass, fields\n\n"
                "@dataclass\nclass Report:\n    kept: int\n    dropped: int\n\n"
                f"    def to_dict(self):\n        return {body}\n"
            )
            assert check(tmp_path, src, codes=["RPR501"]) == []


class TestRatchet:
    def _findings(self, tmp_path, n_bad):
        src = "".join(
            f"def f{i}(a_ms, b_s):\n    return a_ms + b_s\n\n" for i in range(n_bad)
        )
        return check(tmp_path, src, codes=["RPR301"])

    def test_baseline_absorbs_old_findings(self, tmp_path):
        findings = self._findings(tmp_path, 2)
        base = tmp_path / "baseline.json"
        save_baseline(base, findings)
        result = ratchet(findings, load_baseline(base))
        assert result.ok and len(result.baselined) == 2 and not result.improved

    def test_new_finding_beyond_baseline_fails(self, tmp_path):
        old = self._findings(tmp_path, 2)
        base = tmp_path / "baseline.json"
        save_baseline(base, old)
        grown = self._findings(tmp_path, 3)
        result = ratchet(grown, load_baseline(base))
        assert not result.ok and len(result.new) == 1
        # the excess surfaces as the latest finding in the file
        assert result.new[0].line == max(f.line for f in grown)

    def test_burn_down_reports_improvement(self, tmp_path):
        old = self._findings(tmp_path, 3)
        base = tmp_path / "baseline.json"
        save_baseline(base, old)
        shrunk = self._findings(tmp_path, 1)
        result = ratchet(shrunk, load_baseline(base))
        assert result.ok and sum(result.improved.values()) == 2

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}

    def test_corrupt_baseline_raises(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        with pytest.raises(StaticCheckError):
            load_baseline(bad)

    def test_counts_are_per_code_and_file(self, tmp_path):
        findings = self._findings(tmp_path, 2)
        counts = counts_of(findings)
        assert counts == {"RPR301:src/repro/serve/mod.py": 2}


class TestCLI:
    def _seed_violation(self, tmp_path):
        write_module(tmp_path, "src/repro/serve/bad.py",
                     "def f(a_ms, b_s):\n    return a_ms + b_s\n")

    def test_clean_tree_exit_0(self, tmp_path, capsys):
        write_module(tmp_path, "src/repro/ok.py", "def f():\n    return 1\n")
        rc = cli_main(["staticcheck", "--root", str(tmp_path)])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_seeded_violation_exit_1(self, tmp_path, capsys):
        self._seed_violation(tmp_path)
        rc = cli_main(["staticcheck", "--root", str(tmp_path)])
        assert rc == 1
        assert "RPR301" in capsys.readouterr().out

    def test_update_then_check_baseline_exit_0(self, tmp_path, capsys):
        self._seed_violation(tmp_path)
        assert cli_main(["staticcheck", "--root", str(tmp_path),
                         "--update-baseline"]) == 0
        assert cli_main(["staticcheck", "--root", str(tmp_path),
                         "--baseline"]) == 0
        out = capsys.readouterr().out
        assert "absorbed" in out

    def test_new_violation_beyond_baseline_exit_1(self, tmp_path):
        self._seed_violation(tmp_path)
        assert cli_main(["staticcheck", "--root", str(tmp_path),
                         "--update-baseline"]) == 0
        write_module(tmp_path, "src/repro/serve/worse.py",
                     "def g(c_ms, d_s):\n    return c_ms - d_s\n")
        assert cli_main(["staticcheck", "--root", str(tmp_path),
                         "--baseline"]) == 1

    def test_json_report_shape(self, tmp_path, capsys):
        self._seed_violation(tmp_path)
        rc = cli_main(["staticcheck", "--root", str(tmp_path), "--json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts_by_code"] == {"RPR301": 1}
        assert payload["findings"][0]["path"] == "src/repro/serve/bad.py"

    def test_out_artifact_written(self, tmp_path, capsys):
        self._seed_violation(tmp_path)
        out = tmp_path / "report" / "staticcheck.json"
        cli_main(["staticcheck", "--root", str(tmp_path), "--out", str(out)])
        capsys.readouterr()
        assert json.loads(out.read_text())["counts_by_code"] == {"RPR301": 1}

    def test_bad_path_exit_2(self, tmp_path, capsys):
        rc = cli_main(["staticcheck", "--root", str(tmp_path), "no/such/dir"])
        assert rc == 2
        capsys.readouterr()

    def test_unknown_rule_exit_2(self, tmp_path, capsys):
        write_module(tmp_path, "src/repro/ok.py", "x = 1\n")
        rc = cli_main(["staticcheck", "--root", str(tmp_path),
                       "--rules", "RPR999"])
        assert rc == 2
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert cli_main(["staticcheck", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPR101" in out and "RPR501" in out
        assert "RPR401" not in out  # no oracle is left under src/ to pair
        assert "RPR503" not in out  # tests/test_engine.py resolves __all__


class TestMypyRatchet:
    SAMPLE = (
        "src/repro/serve/server.py:10: error: Incompatible types [assignment]\n"
        "src/repro/serve/pool.py:5: error: Missing return [return]\n"
        "src/repro/formats/csr.py:7: error: Untyped def [no-untyped-def]\n"
        "src/repro/config.py:3: error: Bad thing [misc]\n"
        "src/repro/serve/server.py:12: note: See docs\n"
    )

    def test_parse_error_counts(self):
        assert parse_error_counts(self.SAMPLE) == {
            "repro": 1, "repro.formats": 1, "repro.serve": 2,
        }

    def test_growth_fails(self, tmp_path):
        base = tmp_path / "mypy.json"
        save_mypy_baseline(base, {"repro.serve": 1}, "1.11.0")
        verdict = compare_counts(
            {"repro.serve": 2}, load_mypy_baseline(base), "1.11.0"
        )
        assert verdict["status"] == "fail"
        assert verdict["grown"]["repro.serve"] == {"baseline": 1, "now": 2}

    def test_shrink_passes_and_reports(self, tmp_path):
        base = tmp_path / "mypy.json"
        save_mypy_baseline(base, {"repro.serve": 3}, "1.11.0")
        verdict = compare_counts(
            {"repro.serve": 1}, load_mypy_baseline(base), "1.11.0"
        )
        assert verdict["status"] == "ok"
        assert verdict["shrunk"]["repro.serve"] == {"baseline": 3, "now": 1}

    def test_version_change_is_stale_not_fail(self, tmp_path):
        base = tmp_path / "mypy.json"
        save_mypy_baseline(base, {"repro.serve": 0}, "1.10.0")
        verdict = compare_counts(
            {"repro.serve": 99}, load_mypy_baseline(base), "1.11.0"
        )
        assert verdict["status"] == "stale"

    def test_unmeasured_baseline_is_stale(self):
        verdict = compare_counts(
            {"repro": 5},
            {"version": 1, "mypy_version": None, "modules": {}},
            "1.11.0",
        )
        assert verdict["status"] == "stale"

    def test_skips_gracefully_without_mypy(self, tmp_path):
        if mypy_available():  # pragma: no cover - env-dependent branch
            pytest.skip("mypy installed: the skip path is not reachable")
        payload = mypy_ratchet(REPO_ROOT, tmp_path / "mypy.json")
        assert payload["status"] == "skipped"

    @pytest.mark.skipif(not mypy_available(), reason="mypy not installed")
    def test_real_run_against_committed_baseline(self):
        payload = mypy_ratchet(
            REPO_ROOT, REPO_ROOT / "results" / "mypy_baseline.json"
        )
        assert payload["status"] in ("ok", "stale")


class TestSelfCheck:
    def test_catalog_meets_floor(self):
        rules = rule_catalog()
        assert len(rules) >= 10
        assert len({r.category for r in rules}) >= 5

    def test_shipped_tree_is_clean_against_committed_baseline(self):
        findings = run_checks(REPO_ROOT)
        baseline = load_baseline(
            REPO_ROOT / "results" / "staticcheck_baseline.json"
        )
        result = ratchet(findings, baseline)
        assert result.ok, "\n".join(f.describe() for f in result.new)

    def test_shipped_cli_gate_exit_0(self, capsys):
        rc = cli_main(["staticcheck", "--root", str(REPO_ROOT), "--baseline"])
        capsys.readouterr()
        assert rc == 0
