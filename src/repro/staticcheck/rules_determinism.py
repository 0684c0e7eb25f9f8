"""RPR2xx — seeded determinism.

Bit-exactness gates (vectorised-vs-reference executor, sharded-vs-single
outputs, patch-vs-recompile programs) only mean something if every run
of the same seed produces the same bits.  Global-state RNGs and
hash-randomised set iteration are the two ways nondeterminism has
historically leaked into "deterministic" python code.
"""

from __future__ import annotations

import ast

from repro.staticcheck.astutil import dotted_name, module_aliases
from repro.staticcheck.core import FileContext, register_rule

#: ``np.random`` attributes that are *not* global-state draws
_NP_RANDOM_OK = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
}
#: ``random`` module attributes that are constructors, not global draws
_STDLIB_RANDOM_OK = {"Random", "SystemRandom", "getstate", "setstate"}


@register_rule("RPR201", "determinism", "error")
def global_numpy_rng(ctx: FileContext):
    """Global-state ``np.random.*`` draw (use ``np.random.default_rng(seed)``)."""
    if not ctx.is_library:
        return
    np_aliases = module_aliases(ctx.tree, "numpy")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        parts = name.split(".")
        if (
            len(parts) == 3
            and parts[0] in np_aliases
            and parts[1] == "random"
            and parts[2] not in _NP_RANDOM_OK
        ):
            yield node.lineno, (
                f"{name}() draws from numpy's global RNG: results depend on "
                f"call order across the whole process; thread an explicit "
                f"np.random.default_rng(seed) Generator instead"
            )


@register_rule("RPR202", "determinism", "error")
def global_stdlib_rng(ctx: FileContext):
    """Global-state stdlib ``random.*`` draw in library code."""
    if not ctx.is_library:
        return
    rand_aliases = module_aliases(ctx.tree, "random")
    if not rand_aliases:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        head, _, tail = name.partition(".")
        if head in rand_aliases and tail and "." not in tail \
                and tail not in _STDLIB_RANDOM_OK:
            yield node.lineno, (
                f"{name}() draws from the process-global stdlib RNG; use a "
                f"seeded random.Random(seed) (or numpy Generator) instance"
            )


@register_rule("RPR203", "determinism", "error")
def unseeded_default_rng(ctx: FileContext):
    """``np.random.default_rng()`` called without a seed."""
    if not ctx.is_library:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        if name.split(".")[-1] == "default_rng" and not node.args and not node.keywords:
            yield node.lineno, (
                "default_rng() without a seed draws OS entropy: every run "
                "differs; pass the caller's seed through"
            )


@register_rule("RPR204", "determinism", "error")
def set_iteration_order(ctx: FileContext):
    """Direct iteration over a set literal/comprehension/``set()`` call."""
    if not ctx.is_library:
        return

    def is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name in ("set", "frozenset")
        return False

    message = (
        "iteration order of a set depends on PYTHONHASHSEED for str keys; "
        "wrap in sorted(...) before feeding ordered output"
    )
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)) and is_set_expr(node.iter):
            yield node.iter.lineno, message
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for comp in node.generators:
                if is_set_expr(comp.iter):
                    yield comp.iter.lineno, message
