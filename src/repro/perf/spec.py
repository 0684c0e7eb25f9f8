"""The bench registry: ``@register_bench(name, tier=..., tags=...)``.

A *bench spec* is a named, tiered, tagged payload callable.  The payload
takes no argument: a spec runs one instance whatever the tier, so its
numbers are only ever compared with a baseline of that instance.  It
asserts its own claims and returns its metrics — a mapping of
``metric_name -> Metric | (value, unit) | (value, unit, direction) |
value``.  Wall time is measured by the runner and appended automatically
as ``wall_s``, so a payload that only wants to be timed can return
``{}``.

Benches register themselves at import time; :func:`discover` imports
every ``bench_*.py`` under a benchmarks directory so the CLI sees the
full registry without hand-listing scripts.  ``repro bench`` is the only
way a bench runs.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro.perf.schema import Metric

TIERS = ("smoke", "full")


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark."""

    name: str
    fn: Callable[[], Mapping]
    tiers: tuple[str, ...]
    tags: tuple[str, ...] = ()
    description: str = ""
    #: per-metric relative tolerance overrides for baseline comparison
    tolerances: dict = field(default_factory=dict)

    def runs_in(self, tier: str) -> bool:
        return tier in self.tiers

    def describe(self) -> str:
        """The one-line ``repro bench --list`` entry."""
        tags = f" [{', '.join(self.tags)}]" if self.tags else ""
        return (
            f"{self.name:<32} {'/'.join(self.tiers):<11}{tags}  "
            f"{self.description}"
        )


_REGISTRY: dict[str, BenchSpec] = {}


def register_bench(
    name: str,
    *,
    tier: str | Iterable[str] = TIERS,
    tags: Iterable[str] = (),
    description: str = "",
    tolerances: Mapping[str, float] | None = None,
):
    """Decorator registering a payload callable as a :class:`BenchSpec`.

    ``tier`` is one tier name or an iterable of them; a smoke-tier bench
    must finish in seconds (it gates CI), full-tier benches may take
    minutes.  Duplicate names are an error — the registry is flat and the
    name becomes the ``BENCH_<name>.json`` filename.
    """
    tiers = (tier,) if isinstance(tier, str) else tuple(tier)
    unknown = [t for t in tiers if t not in TIERS]
    if unknown:
        raise ValueError(f"unknown tier(s) {unknown}; valid tiers: {TIERS}")

    def deco(fn: Callable[[], Mapping]):
        if name in _REGISTRY:
            raise ValueError(
                f"bench {name!r} is already registered "
                f"(by {_REGISTRY[name].fn.__module__})"
            )
        doc = (fn.__doc__ or "").strip()
        _REGISTRY[name] = BenchSpec(
            name=name,
            fn=fn,
            tiers=tiers,
            tags=tuple(tags),
            description=description or (doc.splitlines()[0] if doc else ""),
            tolerances=dict(tolerances or {}),
        )
        return fn

    return deco


def get_bench(name: str) -> BenchSpec:
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown bench {name!r}; registered: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name]


def all_benches() -> dict[str, BenchSpec]:
    return dict(_REGISTRY)


def select(
    *,
    tier: str | None = None,
    names: Iterable[str] | None = None,
    tags: Iterable[str] | None = None,
) -> list[BenchSpec]:
    """Registered specs filtered by tier, explicit names and/or tags,
    in registration order.  Explicit names must exist (typos raise), and
    an explicitly named spec that does not run in the requested tier is
    an error too — silently dropping it would report a clean run for a
    bench that never executed."""
    if names is not None:
        specs = [get_bench(n) for n in names]
    else:
        specs = list(_REGISTRY.values())
    if tier is not None:
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}; valid tiers: {TIERS}")
        if names is not None:
            excluded = [s.name for s in specs if not s.runs_in(tier)]
            if excluded:
                raise ValueError(
                    f"bench(es) {excluded} do not run in tier {tier!r}; "
                    f"pass --tier accordingly"
                )
        specs = [s for s in specs if s.runs_in(tier)]
    if tags:
        wanted = set(tags)
        specs = [s for s in specs if wanted & set(s.tags)]
    return specs


def clear_registry() -> None:
    """Forget every registered bench (test isolation).

    Registration is an import side effect, so re-running
    :func:`discover` after this only re-registers modules that are no
    longer in ``sys.modules`` — tests that clear the registry must pop
    their bench modules too.
    """
    _REGISTRY.clear()


def normalise_metrics(name: str, raw: Mapping) -> list[Metric]:
    """Coerce a payload's return value into :class:`Metric` objects."""
    metrics: list[Metric] = []
    for key, value in raw.items():
        if isinstance(value, Metric):
            metrics.append(value)
        elif isinstance(value, tuple):
            if not 1 <= len(value) <= 3:
                raise ValueError(
                    f"bench {name!r} metric {key!r}: expected "
                    f"(value[, unit[, direction]]), got {value!r}"
                )
            parts = (key, float(value[0])) + tuple(value[1:])
            metrics.append(Metric(*parts))
        else:
            metrics.append(Metric(key, float(value)))
    return metrics


def discover(benchmarks_dir: Path | None = None) -> int:
    """Import every ``bench_*.py`` in a benchmarks directory so their
    ``@register_bench`` decorators run.  Returns the number of modules
    imported.  The directory defaults to ``$REPRO_BENCHMARKS_DIR`` or
    ``./benchmarks``; it is appended to ``sys.path`` so the scripts'
    ``from _common import ...`` resolves.
    """
    if benchmarks_dir is None:
        benchmarks_dir = Path(
            os.environ.get("REPRO_BENCHMARKS_DIR", Path.cwd() / "benchmarks")
        )
    benchmarks_dir = Path(benchmarks_dir)
    if not benchmarks_dir.is_dir():
        raise FileNotFoundError(
            f"benchmarks directory {benchmarks_dir} does not exist "
            "(set --benchmarks-dir or REPRO_BENCHMARKS_DIR)"
        )
    here = str(benchmarks_dir.resolve())
    if here not in sys.path:
        sys.path.append(here)
    imported = 0
    for path in sorted(benchmarks_dir.glob("bench_*.py")):
        module_name = path.stem
        if module_name in sys.modules:
            # same file -> already imported (specs registered then); a
            # *different* file under the same stem must not be silently
            # shadowed by the stale module
            loaded = getattr(sys.modules[module_name], "__file__", None)
            if loaded is not None and Path(loaded).resolve() != path.resolve():
                raise ImportError(
                    f"bench module {module_name!r} is already loaded from "
                    f"{loaded}; refusing to shadow {path} (pop it from "
                    "sys.modules to re-discover)"
                )
            imported += 1
            continue
        spec = importlib.util.spec_from_file_location(module_name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        try:
            spec.loader.exec_module(module)
        except Exception:
            del sys.modules[module_name]
            raise
        imported += 1
    return imported


__all__ = [
    "TIERS",
    "BenchSpec",
    "register_bench",
    "get_bench",
    "all_benches",
    "select",
    "clear_registry",
    "normalise_metrics",
    "discover",
]
