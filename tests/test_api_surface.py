"""The public surface carries no dead weight: every public name a landau
module defines, and every public method of every public class, is used by the
package itself or by a script under scripts/.

A public name is one without a leading underscore that a module binds at its
top level by def, class or assignment; what it imports does not count.  A use
is a name or attribute in the code.  The name's own definition and the
re-exports in landau/__init__.py do not count, so a symbol that only tests
call fails here until it is deleted or put to use.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "landau"


def _names(target: ast.expr) -> list[str]:
    """The names an assignment target binds; `f.x = ...` binds none."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _names(elt)]
    if isinstance(target, ast.Starred):
        return _names(target.value)
    return []


def _bound(node: ast.stmt) -> list[str]:
    """The names a top-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [name for target in node.targets for name in _names(target)]
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return _names(node.target)
    return []


def _public(tree: ast.Module) -> list[str]:
    return [name for node in tree.body for name in _bound(node) if not name.startswith("_")]


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


def test_the_scan_finds_the_public_names_of_every_kind():
    modules, _ = _parse()
    # a function, a class, a constant and a module-level table
    assert {"is_prime", "PrimeConvention", "DEFAULT_CONVENTION"} <= set(_public(modules["primes"]))
    assert {"main", "Command", "ROOT"} <= set(_public(modules["cli"]))
    assert not any(name.startswith("_") for tree in modules.values() for name in _public(tree))


def test_every_public_name_has_a_use_outside_the_tests():
    modules, scripts = _parse()
    unused = []
    for stem, tree in modules.items():
        elsewhere = _uses([n for other, t in modules.items() if other != stem for n in t.body])
        elsewhere |= _uses(scripts)
        for name in _public(tree):
            own = _uses([n for n in tree.body if name not in _bound(n)])
            if name not in own | elsewhere:
                unused.append(f"{stem}.{name}")
    assert unused == [], f"public but used only by tests: {unused}"


def test_every_public_method_of_a_public_class_has_a_use_outside_the_tests():
    modules, scripts = _parse()
    unused = []
    for stem, tree in modules.items():
        elsewhere = _attributes([n for other, t in modules.items() if other != stem for n in t.body])
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                rest = [n for n in tree.body if n is not cls]
                rest += [n for n in cls.body if n is not method]
                if method.name not in _attributes(rest + scripts) | elsewhere:
                    unused.append(f"{stem}.{cls.name}.{method.name}")
    assert unused == [], f"public methods used only by tests: {unused}"


def test_every_private_name_is_read_in_the_package():
    # a helper kept only for the tests is dead weight too; the emitters are
    # looked up by name (reports._load), so they are read without a use
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for stem, tree in trees.items():
        elsewhere = _uses([n for other, t in trees.items() if other != stem for n in t.body])
        for node in tree.body:
            for name in _bound(node):
                if (not name.startswith("_") or name.startswith(("__", "_emit_"))
                        or name in elsewhere):
                    continue
                if name not in _uses([n for n in tree.body if name not in _bound(n)]):
                    unused.append(f"{stem}.{name}")
    assert unused == [], f"private but never read in the package: {unused}"


def _imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports anywhere in it: at its top, in a
    function body or under TYPE_CHECKING."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {alias.name for alias in node.names}
    return out


def test_the_import_graph_is_acyclic_with_primes_at_the_bottom():
    modules, _ = _parse()
    graph = {stem: _imports(tree) & set(modules) for stem, tree in modules.items()}
    assert {"primes", "zn"} <= graph["goldbach"]  # the scan sees top-level imports
    assert "harness" in graph["cli"]  # and a call-time `from . import`
    done: set[str] = set()

    def cycle_from(stem: str, path: list[str]) -> list[str]:
        """A cycle through stem's imports, depth first, or [] when none."""
        if stem in path:
            return path[path.index(stem):] + [stem]
        if stem not in done:
            for dep in sorted(graph[stem]):
                if cycle := cycle_from(dep, path + [stem]):
                    return cycle
            done.add(stem)
        return []

    cycles = [" → ".join(c) for stem in sorted(graph) if (c := cycle_from(stem, []))]
    assert cycles == []
    assert graph["primes"] == set()


def _readers(*names: str) -> dict[str, set[str]]:
    """For each name, the package modules that import it, read it off a
    module or name it in code (a def is no read)."""
    readers = {name: set() for name in names}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                found = {node.attr}
            else:
                found = {node.id} if isinstance(node, ast.Name) else set()
            for name in found & readers.keys():
                readers[name].add(path.stem)
    return readers


def test_only_primes_reads_the_square_sieve_rows():
    # the row layout (slot s of row k holds k^2 + 2s + 1 + (k & 1)) is known
    # to primes alone, where both readers of the rows live beside the sieve:
    # no other module imports _square_flags, the sieve's floor, the rows it
    # picks or its one least top, or reads them off primes, and no module
    # names a fixed floor, the sieve's former one or one of Legendre's own
    readers = _readers("_square_flags", "_square_floor", "_sieved_rows", "_SQUARE_SIEVE_TOP",
                       "_SQUARE_SIEVE_FROM", "_LEGENDRE_SIEVE_FROM")
    assert readers == {"_square_flags": {"primes"}, "_square_floor": {"primes"},
                       "_sieved_rows": {"primes"}, "_SQUARE_SIEVE_TOP": {"primes"},
                       "_SQUARE_SIEVE_FROM": set(), "_LEGENDRE_SIEVE_FROM": set()}


def test_only_figurate_certifies_the_parabolic_verdicts():
    # figurate holds the one scan that checks the sieve's k^2 + 1 verdicts
    # against the unit count, with the parity rule for odd k: no other module
    # runs the certificate, and only primes and figurate read the verdicts
    readers = _readers("totient_is_k_squared", "_parabolic_verdicts")
    assert readers["totient_is_k_squared"] == {"figurate"}
    assert "figurate" in readers["_parabolic_verdicts"]
    assert readers["_parabolic_verdicts"] <= {"primes", "figurate"}
