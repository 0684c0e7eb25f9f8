"""RPR3xx — unit hygiene.

The codebase encodes physical units in identifier suffixes (``_s``,
``_ms``, ``_us``, ``_ns``, ``_cycles``, ``_bytes``, ``_gbps``, ``_rps``,
...).  Two real bugs have already shipped through silent unit mixing
(the bursty-arrival rate contract, the perf-baseline unit mismatch), so
the convention is now machine-checked: adding, subtracting, comparing or
directly assigning across different declared units requires an explicit
conversion expression (any arithmetic with a scale factor, or a call) —
a bare ``a_s + b_ms`` is always wrong.
"""

from __future__ import annotations

import ast

from repro.staticcheck.astutil import terminal_name, unit_of
from repro.staticcheck.core import FileContext, register_rule


def _unit(node: ast.expr) -> str | None:
    """Declared unit of a bare Name/Attribute operand; None otherwise.

    Only undecorated name chains carry a unit: a Call or BinOp operand is
    treated as an explicit conversion and exempts the expression.
    """
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = terminal_name(node)
        return unit_of(name) if name else None
    return None


def _mix(a: ast.expr, b: ast.expr) -> tuple[str, str] | None:
    ua, ub = _unit(a), _unit(b)
    if ua is not None and ub is not None and ua != ub:
        return ua, ub
    return None


@register_rule("RPR301", "units", "error")
def mixed_unit_arithmetic(ctx: FileContext):
    """Addition/subtraction or comparison of names with different unit suffixes."""
    if not ctx.is_library:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            mix = _mix(node.left, node.right)
            if mix:
                op = "+" if isinstance(node.op, ast.Add) else "-"
                yield node.lineno, (
                    f"'{terminal_name(node.left)} {op} "
                    f"{terminal_name(node.right)}' mixes units "
                    f"{mix[0]} and {mix[1]}; convert one side explicitly"
                )
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for a, b in zip(operands, operands[1:]):
                mix = _mix(a, b)
                if mix:
                    yield node.lineno, (
                        f"comparison of '{terminal_name(a)}' ({mix[0]}) with "
                        f"'{terminal_name(b)}' ({mix[1]}); convert one side "
                        f"explicitly"
                    )
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
            mix = _mix(node.target, node.value)
            if mix:
                yield node.lineno, (
                    f"augmented assignment mixes units {mix[0]} and {mix[1]} "
                    f"('{terminal_name(node.target)}' vs "
                    f"'{terminal_name(node.value)}')"
                )


@register_rule("RPR302", "units", "error")
def cross_unit_assignment(ctx: FileContext):
    """Bare assignment of a ``_ms`` name into a ``_s`` name (or any unit pair)."""
    if not ctx.is_library:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        uv = _unit(value)
        if uv is None:
            continue
        for target in targets:
            ut = _unit(target)
            if ut is not None and ut != uv:
                yield node.lineno, (
                    f"'{terminal_name(target)}' ({ut}) assigned straight from "
                    f"'{terminal_name(value)}' ({uv}) with no conversion"
                )


@register_rule("RPR304", "units", "error")
def keyword_unit_mismatch(ctx: FileContext):
    """Call keyword ``f(timeout_s=wait_ms)`` passing a name of a different unit."""
    if not ctx.is_library:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg is None:
                continue
            declared = unit_of(kw.arg)
            if declared is None:
                continue
            uv = _unit(kw.value)
            if uv is not None and uv != declared:
                yield kw.value.lineno, (
                    f"keyword {kw.arg}= ({declared}) receives "
                    f"'{terminal_name(kw.value)}' ({uv}) with no conversion"
                )
