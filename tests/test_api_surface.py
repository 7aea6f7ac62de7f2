"""Every function of the package is used by the package or the benchmark.

A static check with ``ast``; it reads the sources and imports nothing. A
public top-level function or method defined in ``src/qgms`` must be
named (called, imported or read as an attribute) somewhere in
``src/qgms`` or ``perfbench``; a private one (dunders aside) somewhere in
``src/qgms``, so a refactor cannot leave a helper behind that nothing
calls. Tests do not count: a function only the tests reach is a probe to
express in the tests through what the package already exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

def definitions() -> dict[str, str]:
    """``{"module.func" or "module.Class.method": bare name}`` over src/qgms.

    Dunder methods are left out: Python calls them, not the package.
    """
    out = {}
    for path in sorted((ROOT / "src" / "qgms").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = [("", node)]
            if isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.", sub) for sub in node.body]
            for owner, item in members:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    out[f"{path.stem}.{owner}{item.name}"] = item.name
    return out


def referenced_names(*dirs: str) -> set[str]:
    """Every name, attribute and imported name in the given directories."""
    names = set()
    for path in (p for d in dirs for p in (ROOT / d).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_function_is_used_outside_the_tests():
    used = referenced_names("src/qgms", "perfbench")
    unused = {
        label
        for label, name in definitions().items()
        if not name.startswith("_") and name not in used
    }
    assert unused == set()


def test_every_private_function_is_used_by_the_package():
    used = referenced_names("src/qgms")
    unused = {
        label
        for label, name in definitions().items()
        if name.startswith("_") and name not in used
    }
    assert unused == set()
