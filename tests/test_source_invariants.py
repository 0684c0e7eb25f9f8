"""Source invariants of the shipped package, asserted on its syntax tree.

Every latency the stack reports is modelled: cycles priced by the
hardware model on a virtual clock, never the host's wall clock, and
every exactness gate compares runs of one seed bit for bit.  Those
claims hold only while the conventions below hold, so each is a check
over every ``src/repro/**/*.py`` (parsed once per module):

1. no host clock read in a clocked package, and outside one only in a
   module of ``WALLCLOCK_ALLOWLIST`` (each entry names its reason);
2. no forbidden call: host date, ``sleep``, global-state or unseeded
   RNG draws, ``object.__setattr__`` on another instance;
3. no iteration over a set (its order follows ``PYTHONHASHSEED``);
4. no ``+``, ``-`` or comparison of two names with different unit
   suffixes (``a_ms + b_s``);
5. a dataclass ``to_dict`` names every public field.

An exemption is an allowlist entry with its reason, here; there is no
suppression comment.  Each check also has a fixture that must fire and
one that must stay silent.  A layering test keeps the platform what-ifs
(``repro.hetero``, ``repro.baselines``) out of ``import repro``.  The
last test keeps the ``python -m repro`` commands of the CI workflows,
the README and the verify skill in step with the CLI they call.
"""

from __future__ import annotations

import ast
import builtins
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent

#: packages whose code runs against the virtual clock: a host clock read
#: here couples modelled latency to machine speed, allowlisted or not
CLOCKED_PACKAGES = ("runtime", "sched", "serve", "shard", "hw")

#: host-side measurement modules that read the wall clock, each with the
#: reason it is exempt
WALLCLOCK_ALLOWLIST: dict[str, str] = {
    "src/repro/baselines/reference.py":
        "times the numpy reference inference on the actual host CPU",
    "src/repro/dyngraph/patcher.py":
        "PatchReport.wall_s: host patching cost reported to the operator",
    "src/repro/perf/runner.py":
        "bench harness wall_s: the thing being measured is host time",
    "src/repro/compiler/compile.py":
        "CompileStats phase timings: host compile cost breakdown",
}

CLOCK_READS = {
    f"time.{fn}" for fn in (
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    )
}

#: canonical callee -> why library code may not call it; ``module.*``
#: covers every function of the module but the seeded constructors
FORBIDDEN_CALLS: dict[str, str] = {
    "time.sleep": "stalls the host without advancing the virtual clock",
    **{
        f"datetime.{cls}.{fn}": "reads the host date"
        for cls in ("datetime", "date") for fn in ("now", "utcnow", "today")
    },
    "numpy.random.*": "draws from numpy's global RNG; thread a "
                      "np.random.default_rng(seed) Generator",
    "random.*": "draws from the process-global RNG; use random.Random(seed)",
}
SEEDED_CONSTRUCTORS = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
    "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
    "Random", "SystemRandom", "getstate", "setstate",
}

#: the units an identifier declares by its last ``_``-separated word
UNITS = {"ns", "us", "ms", "s", "cycles", "bytes", "gbps", "mhz", "hz", "rps"}


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> canonical dotted name, for every absolute import
    (``import numpy as np``: np -> numpy; ``from time import sleep``:
    sleep -> time.sleep)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def calls(tree: ast.Module):
    """``(call, canonical callee)`` for every call whose callee resolves
    to an import or a builtin."""
    aliases = import_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        head, _, rest = name.partition(".")
        if head in aliases:
            yield node, ".".join(filter(None, (aliases[head], rest)))
        elif hasattr(builtins, head):
            yield node, name


def clock_reads(rel: str, tree: ast.Module):
    parts = Path(rel).parts
    package = parts[2] if len(parts) > 3 else None
    for node, name in calls(tree):
        if name not in CLOCK_READS:
            continue
        if package in CLOCKED_PACKAGES:
            yield node.lineno, f"{name}() in clocked package {package}/"
        elif rel not in WALLCLOCK_ALLOWLIST:
            yield node.lineno, (
                f"{name}() outside WALLCLOCK_ALLOWLIST: add the module with "
                f"its reason if this is a host-side measurement"
            )


def forbidden_calls(rel: str, tree: ast.Module):
    for node, name in calls(tree):
        module, _, fn = name.rpartition(".")
        reason = FORBIDDEN_CALLS.get(name)
        if reason is None and fn not in SEEDED_CONSTRUCTORS:
            reason = FORBIDDEN_CALLS.get(f"{module}.*")
        if fn == "default_rng" and not node.args and not node.keywords:
            reason = "draws OS entropy without a seed"
        if name == "object.__setattr__" and not (
            node.args and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "self"
        ):
            reason = "mutates a frozen instance from outside its own methods"
        if reason:
            yield node.lineno, f"{name}(): {reason}"


def set_iteration(rel: str, tree: ast.Module):
    def is_set(node: ast.expr) -> bool:
        return isinstance(node, (ast.Set, ast.SetComp)) or (
            isinstance(node, ast.Call)
            and dotted_name(node.func) in ("set", "frozenset")
        )

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            iters = [comp.iter for comp in node.generators]
        else:
            continue
        for it in iters:
            if is_set(it):
                yield it.lineno, "iterates a set: wrap it in sorted(...)"


def unit_of(node: ast.expr) -> str | None:
    """The unit suffix of a bare Name/Attribute; a call or arithmetic
    operand is an explicit conversion and carries none."""
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    stem, _, unit = name.rpartition("_")
    return unit if stem and unit in UNITS else None


def mixed_units(rel: str, tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            pairs = [(node.left, node.right)]
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
            pairs = [(node.target, node.value)]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = list(zip(operands, operands[1:]))
        else:
            continue
        for a, b in pairs:
            ua, ub = unit_of(a), unit_of(b)
            if ua and ub and ua != ub:
                yield node.lineno, (
                    f"'{ast.unparse(a)}' ({ua}) against '{ast.unparse(b)}' "
                    f"({ub}): convert one side explicitly"
                )


def to_dict_coverage(rel: str, tree: ast.Module):
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        if not any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            continue
        to_dict = next((s for s in cls.body if isinstance(s, ast.FunctionDef)
                        and s.name == "to_dict"), None)
        if to_dict is None:
            continue
        body = ast.unparse(to_dict)
        if "asdict" in body or "fields(self)" in body:
            continue  # walks every field by construction
        for stmt in cls.body:
            if not (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                continue
            field = stmt.target.id
            if field.startswith("_") or "ClassVar" in ast.unparse(stmt.annotation):
                continue
            if not any(s in body for s in
                       (f"self.{field}", f"'{field}'", f'"{field}"')):
                yield to_dict.lineno, f"{cls.name}.to_dict() drops {field!r}"


CHECKS = {
    "clock-reads": clock_reads,
    "forbidden-calls": forbidden_calls,
    "set-iteration": set_iteration,
    "mixed-units": mixed_units,
    "to-dict-coverage": to_dict_coverage,
}


def findings(check, source: str, rel: str = "src/repro/serve/mod.py"):
    return list(CHECKS[check](rel, ast.parse(source)))


@pytest.fixture(scope="module")
def shipped() -> dict[str, ast.Module]:
    """Every ``src/repro`` module, parsed once: repo-relative path -> tree."""
    return {
        path.relative_to(REPO_ROOT).as_posix():
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
    }


@pytest.mark.parametrize("check", CHECKS)
def test_shipped_tree_holds(check, shipped):
    bad = [f"{rel}:{line}: {message}"
           for rel, tree in shipped.items()
           for line, message in CHECKS[check](rel, tree)]
    assert not bad, "\n".join(bad)


# id -> (check, source that must fire, source that must stay silent);
# every source sits in serve/, a clocked package
FIXTURES = {
    "perf_counter": (
        "clock-reads",
        "import time\n\ndef f():\n    return time.perf_counter()\n",
        "import time\n\ndef f():\n    return time.struct_time\n",
    ),
    "from-time-import": (
        "clock-reads",
        "from time import monotonic as tick\n\ndef f():\n    return tick()\n",
        "from time import struct_time\n\ndef f():\n    return struct_time\n",
    ),
    "datetime-now": (
        "forbidden-calls",
        "import datetime\n\ndef f():\n    return datetime.datetime.now()\n",
        "import datetime\n\ndef f():\n"
        "    return datetime.datetime(2023, 5, 15)\n",
    ),
    "sleep": (
        "forbidden-calls",
        "from time import sleep\n\ndef f():\n    sleep(0.1)\n",
        "import time  # imported, never slept on\n\ndef f():\n    return 1\n",
    ),
    "numpy-global-rng": (
        "forbidden-calls",
        "import numpy as np\n\ndef f():\n    return np.random.rand(3)\n",
        "import numpy as np\n\ndef f(seed):\n"
        "    return np.random.default_rng(seed).random(3)\n",
    ),
    "stdlib-global-rng": (
        "forbidden-calls",
        "import random\n\ndef f():\n    return random.random()\n",
        "import random\n\ndef f(seed):\n"
        "    return random.Random(seed).random()\n",
    ),
    "unseeded-default-rng": (
        "forbidden-calls",
        "from numpy.random import default_rng\n\ndef f():\n"
        "    return default_rng()\n",
        "from numpy.random import default_rng\n\ndef f(seed):\n"
        "    return default_rng(seed)\n",
    ),
    "setattr-on-another": (
        "forbidden-calls",
        "def f(obj):\n    object.__setattr__(obj, 'x', 1)\n",
        "class C:\n    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n",
    ),
    "set-iteration": (
        "set-iteration",
        "def f(a, b):\n    return [k for k in {a, b}]\n",
        "def f(a, b):\n    return [k for k in sorted({a, b})]\n",
    ),
    "mixed-units": (
        "mixed-units",
        "def f(wait_ms, timeout_s):\n    return wait_ms + timeout_s\n",
        "def f(wait_ms, timeout_s):\n    return wait_ms * 1e-3 + timeout_s\n",
    ),
    "to-dict-drops-field": (
        "to-dict-coverage",
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass Report:\n    kept: int\n    dropped: int\n\n"
        "    def to_dict(self):\n        return {'kept': self.kept}\n",
        "from dataclasses import dataclass, fields\n\n"
        "@dataclass\nclass Report:\n    kept: int\n    dropped: int\n\n"
        "    def to_dict(self):\n"
        "        return {f.name: getattr(self, f.name) for f in fields(self)}\n",
    ),
}


@pytest.mark.parametrize("case", FIXTURES)
def test_positive_fires(case):
    check, bad, _good = FIXTURES[case]
    assert len(findings(check, bad)) == 1


@pytest.mark.parametrize("case", FIXTURES)
def test_negative_silent(case):
    check, _bad, good = FIXTURES[case]
    assert findings(check, good) == []


class TestClockScoping:
    BAD = FIXTURES["perf_counter"][1]

    @pytest.mark.parametrize("package", CLOCKED_PACKAGES)
    def test_every_clocked_package_guarded(self, package):
        assert findings("clock-reads", self.BAD, f"src/repro/{package}/mod.py")

    def test_allowlisted_module_passes(self):
        rel = next(iter(WALLCLOCK_ALLOWLIST))
        assert findings("clock-reads", self.BAD, rel) == []

    def test_unallowlisted_host_module_fails(self):
        (_, message), = findings("clock-reads", self.BAD, "src/repro/analysis/mod.py")
        assert "WALLCLOCK_ALLOWLIST" in message

    def test_no_allowlist_entry_in_clocked_packages(self):
        for rel in WALLCLOCK_ALLOWLIST:
            assert Path(rel).parts[2] not in CLOCKED_PACKAGES, rel

    @pytest.mark.parametrize("rel", sorted(WALLCLOCK_ALLOWLIST))
    def test_every_exemption_still_has_its_reason(self, rel, shipped):
        # an exemption may not outlive the clock read it excuses
        assert WALLCLOCK_ALLOWLIST[rel]
        assert list(clock_reads("src/repro/analysis/mod.py", shipped[rel])), (
            f"{rel} reads no host clock: drop its exemption")


def test_import_repro_loads_no_platform_what_if():
    # the CPU/GPU rooflines and the CPU+GPU+FPGA executor price a program;
    # they are not a way to run one, so the engine may not import them
    probe = ("import repro, sys; print(sorted(m for m in sys.modules "
             "if m.startswith(('repro.hetero', 'repro.baselines'))))")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]", out


def workflow_commands():
    """``(where, subcommand, flags)`` for every ``python -m repro`` command
    in the CI workflows, the README and the verify skill: ``\\``
    continuations and folded ``run: >`` blocks are joined into one line
    first, and an inline code span ends a command."""
    out = []
    for path in [*sorted((REPO_ROOT / ".github" / "workflows").glob("*.yml")),
                 REPO_ROOT / "README.md",
                 REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]:
        lines = path.read_text(encoding="utf-8").splitlines()
        i = 0
        while i < len(lines):
            start, text = i, lines[i]
            if re.fullmatch(r"\s*run: >-?", text):
                indent = len(text) - len(text.lstrip()) + 1
                text = ""
                while i + 1 < len(lines) and (
                    len(lines[i + 1]) - len(lines[i + 1].lstrip()) >= indent
                ):
                    i += 1
                    text += " " + lines[i].strip()
            while text.endswith("\\") and i + 1 < len(lines):
                i += 1
                text = text[:-1] + " " + lines[i].strip()
            i += 1
            for command in re.split(r"\||;|&&|`", text):
                match = re.search(r"python -m repro (\S+)(.*)", command)
                if match:
                    out.append((f"{path.name}:{start + 1}", match.group(1),
                                 re.findall(r"(?<!\S)--[a-z][\w-]*", match.group(2))))
    return out


WORKFLOW_COMMANDS = workflow_commands()


@pytest.mark.parametrize("where, sub, flags", WORKFLOW_COMMANDS,
                         ids=[where for where, _, _ in WORKFLOW_COMMANDS])
def test_workflow_commands_parse(where, sub, flags, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli_main([sub, "--help"])
    help_text = capsys.readouterr().out
    assert exit_.value.code == 0, f"{where}: no subcommand {sub!r}"
    missing = [flag for flag in flags
               if not re.search(re.escape(flag) + r"(?![\w-])", help_text)]
    assert not missing, f"{where}: repro {sub} has no {', '.join(missing)}"
