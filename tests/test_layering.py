"""Layering of the package: no module of ``knotconc`` imports a private
name (one starting with ``_``) from another, so each module reaches the
others only through their public API.  Tests may import private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "knotconc"


def private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("knotconc"):
            continue
        found += [f"{path.name}:{node.lineno}: {alias.name}"
                  for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in private_imports(path)] == []
