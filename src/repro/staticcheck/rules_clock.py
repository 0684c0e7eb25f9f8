"""RPR1xx — virtual-clock purity.

Every latency the stack reports is *virtual*: cycle counts priced by the
hardware model, never the host's wall clock.  A stray ``time.time()`` in
a clocked module couples simulated results to machine speed and makes
the paper's central claim (runtime analysis with negligible overhead)
unfalsifiable in this repro.  Host wall-clock reads are therefore only
legal in the explicitly allowlisted host-side measurement modules below
— and *never* in the clocked packages (``runtime/``, ``sched/``,
``serve/``, ``shard/``, ``hw/``), not even via allowlist.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.staticcheck.astutil import dotted_name, imported_names, module_aliases
from repro.staticcheck.core import CLOCKED_PACKAGES, FileContext, register_rule

#: host-side measurement modules that legitimately read the wall clock,
#: with the reason each is exempt.  Entries under a clocked package are
#: rejected outright — the allowlist cannot punch holes in the clock.
WALLCLOCK_ALLOWLIST: dict[str, str] = {
    "src/repro/engine/overhead.py":
        "measures the facade's own host-side overhead vs run_strategy",
    "src/repro/baselines/reference.py":
        "times the numpy reference inference on the actual host CPU",
    "src/repro/dyngraph/churn.py":
        "patch-vs-recompile microbenchmark: host wall time is the metric",
    "src/repro/dyngraph/patcher.py":
        "PatchReport.wall_s: host patching cost reported to the operator",
    "src/repro/perf/runner.py":
        "bench harness wall_s: the thing being measured is host time",
    "src/repro/compiler/compile.py":
        "CompileStats phase timings: host compile cost breakdown",
}

_badlist = [p for p in WALLCLOCK_ALLOWLIST
            if Path(p).parts[:3][-1] in CLOCKED_PACKAGES and p.startswith("src/repro/")]
assert not _badlist, f"allowlist entries inside clocked packages: {_badlist}"

#: wall-clock reading functions in the ``time`` module
_TIME_FUNCS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
}
#: wall-clock reading attributes on datetime classes
_DATETIME_FUNCS = {"now", "utcnow", "today"}


def _wallclock_time_calls(ctx: FileContext):
    """(line, func) for every ``time.*`` wall-clock read in the file."""
    time_aliases = module_aliases(ctx.tree, "time")
    from_time = {
        local: orig for local, orig in imported_names(ctx.tree, "time").items()
        if orig in _TIME_FUNCS
    }
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        head, _, tail = name.partition(".")
        if head in time_aliases and tail in _TIME_FUNCS:
            yield node.lineno, name
        elif name in from_time:
            yield node.lineno, f"time.{from_time[name]}"


@register_rule("RPR101", "virtual-clock", "error")
def wallclock_read(ctx: FileContext):
    """Host wall-clock read (``time.time``/``perf_counter``/...) outside the allowlist."""
    if not ctx.is_library:
        return
    allowed = ctx.rel_path in WALLCLOCK_ALLOWLIST
    for line, name in _wallclock_time_calls(ctx):
        if ctx.is_clocked:
            yield line, (
                f"{name}() in clocked module: virtual-clock code must never "
                f"read the host wall clock (no allowlist exemption possible)"
            )
        elif not allowed:
            yield line, (
                f"{name}() outside the WALLCLOCK_ALLOWLIST: add the module "
                f"to repro.staticcheck.rules_clock.WALLCLOCK_ALLOWLIST with "
                f"a rationale if this is a deliberate host-side measurement"
            )


@register_rule("RPR102", "virtual-clock", "error")
def datetime_read(ctx: FileContext):
    """``datetime.now``/``utcnow``/``today`` in library code."""
    if not ctx.is_library:
        return
    dt_aliases = module_aliases(ctx.tree, "datetime")
    from_dt = set(imported_names(ctx.tree, "datetime"))
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None or "." not in name:
            continue
        parts = name.split(".")
        if parts[-1] not in _DATETIME_FUNCS:
            continue
        if parts[0] in dt_aliases or parts[0] in from_dt:
            yield node.lineno, (
                f"{name}() reads the host clock/date: report virtual-clock "
                f"quantities, or stamp timestamps at the reporting edge only"
            )


@register_rule("RPR103", "virtual-clock", "error")
def sleep_call(ctx: FileContext):
    """``time.sleep`` in library code (blocks the host; virtual time never sleeps)."""
    if not ctx.is_library:
        return
    time_aliases = module_aliases(ctx.tree, "time")
    from_time = imported_names(ctx.tree, "time")
    sleep_names = {f"{a}.sleep" for a in time_aliases}
    sleep_names.update(local for local, orig in from_time.items() if orig == "sleep")
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in sleep_names:
                yield node.lineno, (
                    "time.sleep() stalls the host without advancing the "
                    "virtual clock; model delays via the clock instead"
                )
