"""Small shared AST helpers for the rule modules."""

from __future__ import annotations

import ast

#: unit suffix -> canonical unit; longest suffix wins (``_ms`` before ``_s``)
UNIT_SUFFIXES: dict[str, str] = {
    "_ns": "ns",
    "_us": "us",
    "_ms": "ms",
    "_s": "s",
    "_cycles": "cycles",
    "_bytes": "bytes",
    "_gbps": "gbps",
    "_mhz": "mhz",
    "_hz": "hz",
    "_rps": "rps",
}
_ORDERED_SUFFIXES = sorted(UNIT_SUFFIXES, key=len, reverse=True)


def unit_of(name: str) -> str | None:
    """The declared unit of a ``_s``/``_bytes``/... suffixed identifier."""
    for suffix in _ORDERED_SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return UNIT_SUFFIXES[suffix]
    return None


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


def terminal_name(node: ast.expr) -> str | None:
    """The last identifier of a Name/Attribute chain (``self.a_s`` -> ``a_s``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def module_aliases(tree: ast.Module, module: str) -> set[str]:
    """Local names bound to ``module`` itself (``import time as t`` -> {'t'})."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or module.split(".")[0])
    return aliases


def imported_names(tree: ast.Module, module: str) -> dict[str, str]:
    """``from module import x as y`` bindings: local name -> attribute."""
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
    return bound
