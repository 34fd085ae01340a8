"""The public surface carries no dead weight: every name in a landau module's
__all__ is used by the package itself or by a script under scripts/.

A use is a name or attribute in the code.  The name's own definition, the
__all__ lists and the re-exports in landau/__init__.py do not count, so a
symbol that only tests call fails here until it is deleted or put to use.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "landau"


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _defines(node: ast.stmt, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _uses(nodes: list[ast.stmt]) -> set[str]:
    out: set[str] = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def test_every_exported_name_has_a_use_outside_the_tests():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    scripts = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "scripts").glob("*.py"))
    ]
    assert modules and scripts
    elsewhere = {
        stem: _uses([n for other, t in modules.items() if other != stem for n in t.body])
        | _uses([n for t in scripts for n in t.body])
        for stem in modules
    }
    unused = []
    for stem, tree in modules.items():
        for name in _exports(tree):
            own = _uses([n for n in tree.body if not _defines(n, name)])
            if name not in own | elsewhere[stem]:
                unused.append(f"{stem}.{name}")
    assert unused == [], f"exported but used only by tests: {unused}"
