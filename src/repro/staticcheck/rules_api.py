"""RPR5xx — public-API hygiene.

The serialised surface (``to_dict`` payloads consumed by ``--json`` CLI
modes, CI artifacts and the perf baselines) is a contract with code we
do not control.  RPR501 catches ``to_dict`` silently dropping a newly
added field.  Two rules went once a tier-1 test held their invariant:
RPR502, warn-once PEP 562 deprecation shims (``tests/test_engine.py``
asserts no module under ``src/`` defines ``__getattr__``), and RPR503,
every ``__all__`` entry bound (``tests/test_engine.py`` imports each
module and resolves every entry).
"""

from __future__ import annotations

import ast

from repro.staticcheck.core import FileContext, register_rule


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> list[str]:
    fields = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            ann = ast.unparse(stmt.annotation)
            if not name.startswith("_") and "ClassVar" not in ann:
                fields.append(name)
    return fields


@register_rule("RPR501", "api", "error")
def to_dict_field_coverage(ctx: FileContext):
    """Public dataclass ``to_dict`` must mention every field (round-trip contract)."""
    if not ctx.is_library:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if not _is_dataclass_decorated(node):
            continue
        to_dict = next(
            (s for s in node.body
             if isinstance(s, ast.FunctionDef) and s.name == "to_dict"),
            None,
        )
        if to_dict is None:
            continue
        body_src = ast.unparse(to_dict)
        if "asdict" in body_src or "fields(self)" in body_src:
            # dataclasses.asdict / a walk over fields(self) covers every
            # field by construction; what the walk leaves out it names
            continue
        for field_name in _dataclass_fields(node):
            # covered if to_dict reads self.<field> or names the key
            if f"self.{field_name}" in body_src or f"'{field_name}'" in body_src \
                    or f'"{field_name}"' in body_src:
                continue
            yield to_dict.lineno, (
                f"{node.name}.to_dict() never serialises field "
                f"{field_name!r}: --json consumers and baselines will "
                f"silently miss it"
            )
