"""Layering of the package: no module of ``knotconc`` imports a private
name (one starting with ``_``) from another, so each module reaches the
others only through their public API.  Tests may import private names.
And every name the package defines has a reader in the package itself,
apart from an explicit allowlist."""

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


# Names with no reader in src/, each with the test or ROADMAP item that
# keeps it.  A name that gains a reader, or goes, must leave this list.
UNREFERENCED = {
    "Cyclotomic.zeta_power": "the tests' reference H(zeta); ROADMAP item 1 deletes it",
    "Cyclotomic.inverse": "the tests' reference elimination; ROADMAP item 1 deletes it",
    "Cyclotomic.conjugate": "the oracle of test_is_real_is_conjugation_invariance; "
                            "ROADMAP item 5 deletes the class",
    "eta_from_lattice_minimum": "acceptance criterion 7; ROADMAP item 1 moves it into the tests",
    "SeifertMatrix.block_sum": "acceptance criterion 5; ROADMAP item 1 moves it into the tests",
    "sum_delta_upper": "acceptance criterion 9; ROADMAP item 8 gives it a reader",
    "crossing_change_j_bounds": "tests/test_sequences.py only; ROADMAP item 1 deletes it",
    "_Parser.error": "argparse.ArgumentParser calls it on a usage error",
}


def definitions(tree: ast.Module):
    """(qualified name, node) of every top-level function, class and
    assigned name, and of every method; dunder names are protocol, not
    API, and are left out."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef):
                    found.append((f"{node.name}.{sub.name}", sub))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(name.id, node) for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return [(name, node) for name, node in found if not name.rsplit(".", 1)[-1].startswith("__")]


def readers(tree: ast.Module):
    """(name, line) of every name read, attribute read or imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def test_every_name_has_a_reader_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = {(name, module, line) for module, tree in trees.items()
             for name, line in readers(tree)}
    unread = set()
    for module, tree in trees.items():
        for qualified, node in definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            # a read inside the definition itself (recursion) does not count
            if not any(n == name and not (m == module and node.lineno <= line <= node.end_lineno)
                       for n, m, line in reads):
                unread.add(qualified)
    assert unread == set(UNREFERENCED)
