"""Every public function of the package is used by the package or the benchmark.

A static check with ``ast``; it reads the sources and imports nothing. A
public top-level function or method defined in ``src/qgms`` must be
named (called, imported or read as an attribute) somewhere in
``src/qgms`` or ``perfbench``. Tests do not count: a function only the
tests reach is a probe to express in the tests through what the package
already exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

def public_definitions() -> dict[str, str]:
    """``{"module.func" or "module.Class.method": bare name}`` over src/qgms."""
    out = {}
    for path in sorted((ROOT / "src" / "qgms").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = [("", node)]
            if isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.", sub) for sub in node.body]
            for owner, item in members:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out[f"{path.stem}.{owner}{item.name}"] = item.name
    return out


def referenced_names() -> set[str]:
    """Every name, attribute and imported name in src/qgms and perfbench."""
    paths = [*(ROOT / "src" / "qgms").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_function_is_used_outside_the_tests():
    used = referenced_names()
    unused = {label for label, name in public_definitions().items() if name not in used}
    assert unused == set()
