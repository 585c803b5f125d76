"""Every public name in ``src/repro`` is either used or documented.

A public top-level ``def`` or ``class`` earns its place one of three
ways: something else in ``src/`` refers to it (by name or attribute,
outside its own definition; ``__all__`` strings and imports do not
count), a benchmark or example refers to it, or ``README.md`` names it
in backticks as API.  A name that only tests call belongs in
``tests/`` as an oracle or fixture, or nowhere.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ROOT = SRC.parents[1]


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attribute names ``tree`` refers to, outside ``skip``."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _parsed(directory: Path) -> list[ast.Module]:
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(directory.rglob("*.py"))
    ]


def _public_definitions(modules: list[ast.Module]):
    for module in modules:
        for node in module.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                yield module, node


def _readme_names() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"`([^`\n]+)`", text)
    return {word for span in spans for word in re.findall(r"\w+", span)}


def unreferenced_public_names() -> list[str]:
    src_modules = _parsed(SRC)
    used_outside = _readme_names()
    for directory in ("benchmarks", "examples"):
        for module in _parsed(ROOT / directory):
            used_outside |= _references(module)
    per_module = [_references(module) for module in src_modules]

    orphans = []
    for module, node in _public_definitions(src_modules):
        name = node.name
        if name in used_outside or any(
            name in refs
            for other, refs in zip(src_modules, per_module)
            if other is not module
        ):
            continue
        if name not in _references(module, skip=node):
            orphans.append(name)
    return sorted(orphans)


def test_every_public_name_has_a_caller_or_is_documented():
    orphans = unreferenced_public_names()
    assert not orphans, (
        f"{len(orphans)} public src/ names have no caller in src/, "
        "benchmarks/ or examples/ and are not named in README.md: "
        + ", ".join(orphans)
    )
