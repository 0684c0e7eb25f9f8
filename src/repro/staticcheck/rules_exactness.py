"""RPR4xx — exactness contracts.

Frozen dataclasses are an exactness primitive: mutation through
``object.__setattr__`` from outside the instance's own methods defeats
the freeze and is how cached/shared state gets corrupted.  (The
bit-exactness oracles the fast paths are held against live in the test
suite, each imported by the tests that run it.)
"""

from __future__ import annotations

import ast

from repro.staticcheck.core import register_rule


@register_rule("RPR402", "exactness", "error")
def frozen_mutation_outside_self(ctx):
    """``object.__setattr__`` on anything but ``self`` (breaks frozen dataclasses)."""
    if not ctx.is_library:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        ):
            continue
        first = node.args[0] if node.args else None
        if not (isinstance(first, ast.Name) and first.id == "self"):
            target = ast.unparse(first) if first is not None else "<missing>"
            yield node.lineno, (
                f"object.__setattr__ on {target!r}: mutating a frozen "
                f"instance from outside its own methods defeats the freeze; "
                f"rebuild with dataclasses.replace() instead"
            )
