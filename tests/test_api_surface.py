"""The public surface carries no dead weight: every name in a landau module's
__all__, and every public method of an exported class, is used by the package
itself or by a script under scripts/.

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


def _attributes(nodes: list[ast.stmt]) -> set[str]:
    """The attribute names read in nodes: a method is only ever used as one."""
    return {node.attr for top in nodes for node in ast.walk(top) if isinstance(node, ast.Attribute)}


def _parse() -> tuple[dict[str, ast.Module], list[ast.stmt]]:
    """The package's modules by stem, and the statements of the scripts."""
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    scripts = [
        node
        for path in sorted((ROOT / "scripts").glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    assert modules and scripts
    return modules, scripts


def test_every_exported_name_has_a_use_outside_the_tests():
    modules, scripts = _parse()
    elsewhere = {
        stem: _uses([n for other, t in modules.items() if other != stem for n in t.body])
        | _uses(scripts)
        for stem in modules
    }
    unused = []
    for stem, tree in modules.items():
        for name in _exports(tree):
            own = _uses([n for n in tree.body if not _defines(n, name)])
            if name not in own | elsewhere[stem]:
                unused.append(f"{stem}.{name}")
    assert unused == [], f"exported but used only by tests: {unused}"


def test_every_public_method_of_an_exported_class_has_a_use_outside_the_tests():
    modules, scripts = _parse()
    unused = []
    for stem, tree in modules.items():
        exported = set(_exports(tree))
        elsewhere = _attributes([n for other, t in modules.items() if other != stem for n in t.body])
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name not in exported:
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                rest = [n for n in tree.body if n is not cls]
                rest += [n for n in cls.body if n is not method]
                if method.name not in _attributes(rest + scripts) | elsewhere:
                    unused.append(f"{stem}.{cls.name}.{method.name}")
    assert unused == [], f"public methods used only by tests: {unused}"
