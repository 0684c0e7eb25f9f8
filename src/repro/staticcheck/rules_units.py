"""RPR3xx — unit hygiene.

The codebase encodes physical units in identifier suffixes (``_s``,
``_ms``, ``_us``, ``_ns``, ``_cycles``, ``_bytes``, ``_gbps``, ``_rps``,
...).  Two real bugs have already shipped through silent unit mixing
(the bursty-arrival rate contract, the perf-baseline unit mismatch), so
the convention is now machine-checked: adding, subtracting (``+=`` and
``-=`` too) or comparing across different declared units requires an explicit
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
