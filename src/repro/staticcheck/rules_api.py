"""RPR5xx — public-API hygiene.

The serialised surface (``to_dict`` payloads consumed by ``--json`` CLI
modes, CI artifacts and the perf baselines) and the import surface
(``__all__``) are contracts with code we do not control.  These rules
catch ``to_dict`` silently dropping a newly added field and ``__all__``
naming something the module never binds.  (RPR502, warn-once PEP 562
deprecation shims, went with the last shim: ``tests/test_engine.py``
asserts no module under ``src/`` defines ``__getattr__``.)
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


@register_rule("RPR503", "api", "error")
def dunder_all_bound(ctx: FileContext):
    """Every ``__all__`` entry must be bound in the module (unless ``__getattr__`` exists)."""
    if not ctx.is_library:
        return
    tree = ctx.tree
    has_getattr = any(
        isinstance(n, ast.FunctionDef) and n.name == "__getattr__"
        for n in tree.body
    )
    if has_getattr:
        return  # names may be provided dynamically (PEP 562)
    exported: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__" \
                        and isinstance(node.value, (ast.List, ast.Tuple)):
                    for elt in node.value.elts:
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                            exported.append((elt.lineno, elt.value))
    if not exported:
        return
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    bound.update(
                        e.id for e in target.elts if isinstance(e, ast.Name)
                    )
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
    for lineno, name in exported:
        if name not in bound:
            yield lineno, (
                f"__all__ exports {name!r} but the module never binds it: "
                f"`from module import *` (and linters) will fail"
            )
