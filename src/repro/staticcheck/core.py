"""Rule registry, file contexts and the check driver.

``repro.staticcheck`` machine-checks the conventions the rest of the
stack silently relies on: virtual-clock purity, seeded determinism,
``_s``/``_bytes``/``_cycles`` unit hygiene, frozen-instance exactness
and public-API contracts.  Every rule is a plain function registered
with :func:`register_rule`; the driver parses each file once with stdlib
:mod:`ast` and hands the tree to every rule.

Suppression is explicit and comment-local::

    t0 = time.perf_counter()  # staticcheck: ignore[RPR101] -- host-side timing

    # staticcheck: ignore-file[RPR301]   (anywhere in the file)

A bare ``# staticcheck: ignore`` (no codes) suppresses every rule on
that line.  Suppressions carry no other semantics: the ratchet baseline
(:mod:`repro.staticcheck.baseline`) is the mechanism for *pre-existing*
findings, suppression comments are for *accepted* ones.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

#: modules whose code runs against the virtual clock: a host wall-clock
#: read here would silently couple simulated latency to machine speed
#: and make every bit-exactness and perf claim unfalsifiable.
CLOCKED_PACKAGES = ("runtime", "sched", "serve", "shard", "hw")

_SUPPRESS_LINE = re.compile(
    r"#\s*staticcheck:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]+)\])?"
)
_SUPPRESS_FILE = re.compile(
    r"#\s*staticcheck:\s*ignore-file\[(?P<codes>[A-Z0-9,\s]+)\]"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    category: str
    severity: str
    path: str  # repo-relative, posix separators
    line: int
    message: str

    def key(self) -> str:
        """Ratchet granularity: line numbers shift, (code, file) counts don't."""
        return f"{self.code}:{self.path}"

    def describe(self) -> str:
        return f"{self.path}:{self.line}: {self.code} [{self.category}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "category": self.category,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass(frozen=True)
class Rule:
    """A registered rule: metadata plus the check callable."""

    code: str
    category: str
    default_severity: str
    summary: str
    check: Callable[..., Iterable[tuple[int, str]]]


#: code -> Rule; populated by the ``rules_*`` modules at import time
RULES: dict[str, Rule] = {}


def register_rule(code: str, category: str, default_severity: str = "error"):
    """Register ``fn`` as the checker for ``code``.

    ``fn`` receives a :class:`FileContext` and yields ``(line, message)``
    pairs.  The first docstring line becomes the rule's catalog summary.
    """
    if not re.fullmatch(r"RPR\d{3}", code):
        raise ValueError(f"rule code must match RPR###, got {code!r}")
    if default_severity not in ("error", "warning"):
        raise ValueError(f"unknown severity {default_severity!r}")

    def deco(fn):
        if code in RULES:
            raise ValueError(f"duplicate rule code {code}")
        summary = (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else ""
        RULES[code] = Rule(
            code=code,
            category=category,
            default_severity=default_severity,
            summary=summary,
            check=fn,
        )
        return fn

    return deco


def rule_catalog() -> list[Rule]:
    """Every registered rule, sorted by code (drives ``--list-rules`` and README)."""
    _load_builtin_rules()
    return [RULES[c] for c in sorted(RULES)]


@dataclass
class FileContext:
    """One parsed source file plus its suppression map."""

    rel_path: str  # posix, relative to the repo root
    source: str
    tree: ast.Module
    #: line -> set of suppressed codes; the sentinel ``"*"`` means all
    suppressed_lines: dict[int, set[str]] = field(default_factory=dict)
    #: file-wide suppressed codes
    suppressed_file: set[str] = field(default_factory=set)

    @property
    def is_clocked(self) -> bool:
        """True for modules that execute against the virtual clock."""
        parts = Path(self.rel_path).parts
        return (
            len(parts) >= 3
            and parts[0] == "src"
            and parts[1] == "repro"
            and parts[2] in CLOCKED_PACKAGES
        )

    @property
    def is_library(self) -> bool:
        """True for shipped package code (as opposed to tests/benchmarks)."""
        return self.rel_path.startswith("src/repro/")

    def is_suppressed(self, code: str, line: int) -> bool:
        if code in self.suppressed_file:
            return True
        codes = self.suppressed_lines.get(line)
        return codes is not None and ("*" in codes or code in codes)


class StaticCheckError(Exception):
    """Unreadable/unparseable input or a corrupt baseline file."""


def _parse_suppressions(source: str) -> tuple[dict[int, set[str]], set[str]]:
    lines: dict[int, set[str]] = {}
    file_wide: set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "staticcheck" not in text:
            continue
        m = _SUPPRESS_FILE.search(text)
        if m:
            file_wide.update(c.strip() for c in m.group("codes").split(",") if c.strip())
            continue
        m = _SUPPRESS_LINE.search(text)
        if m:
            codes = m.group("codes")
            if codes is None:
                lines.setdefault(lineno, set()).add("*")
            else:
                lines.setdefault(lineno, set()).update(
                    c.strip() for c in codes.split(",") if c.strip()
                )
    return lines, file_wide


def load_file(path: Path, root: Path) -> FileContext:
    """Parse one python file into a :class:`FileContext`."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise StaticCheckError(f"{path}: cannot parse: {exc}") from exc
    suppressed_lines, suppressed_file = _parse_suppressions(source)
    return FileContext(
        rel_path=path.relative_to(root).as_posix(),
        source=source,
        tree=tree,
        suppressed_lines=suppressed_lines,
        suppressed_file=suppressed_file,
    )


def discover_files(root: Path, paths: Iterable[str]) -> list[Path]:
    """Expand the given repo-relative paths into sorted ``.py`` files."""
    out: list[Path] = []
    for rel in paths:
        p = root / rel
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        elif p.is_file():
            out.append(p)
        else:
            raise StaticCheckError(f"no such file or directory: {p}")
    return out


def _load_builtin_rules() -> None:
    # rule modules self-register on import; deferred so `import
    # repro.staticcheck.core` alone never pays for them
    from repro.staticcheck import (  # noqa: F401
        rules_api,
        rules_clock,
        rules_determinism,
        rules_exactness,
        rules_units,
    )


def run_checks(
    root: Path,
    paths: Iterable[str] = ("src/repro",),
    codes: Iterable[str] | None = None,
) -> list[Finding]:
    """Run every registered rule over ``paths``; returns sorted findings.

    ``codes`` restricts to a subset of rules — the test fixtures use this
    to isolate one rule.
    """
    _load_builtin_rules()
    root = root.resolve()
    selected = sorted(codes) if codes is not None else sorted(RULES)
    unknown = [c for c in selected if c not in RULES]
    if unknown:
        raise StaticCheckError(f"unknown rule code(s): {', '.join(unknown)}")

    contexts = [load_file(p, root) for p in discover_files(root, paths)]
    findings: list[Finding] = []
    for code in selected:
        rule = RULES[code]
        for ctx in contexts:
            for line, message in rule.check(ctx):
                if not ctx.is_suppressed(code, line):
                    findings.append(Finding(
                        code=code, category=rule.category,
                        severity=rule.default_severity,
                        path=ctx.rel_path, line=line, message=message,
                    ))
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings
