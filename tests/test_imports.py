"""Import hygiene of the package: modules reach each other only through
public names, every name a module exports exists, no module imports a name
it never uses, and no public function or method is dead API that only tests
call."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import orbitrips

SRC = Path(orbitrips.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
REPO = SRC.parent.parent


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_private_names_imported_from_sibling_modules(name):
    private = []
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("orbitrips")):
            private += [alias.name for alias in node.names
                        if alias.name.startswith("_") and alias.name != "__version__"]
    assert private == []


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_every_exported_name_resolves(name):
    module = orbitrips if name == "__init__" else importlib.import_module(f"orbitrips.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def _exported(tree) -> set[str]:
    """Names listed in a module's literal __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_every_imported_name_is_used(name):
    # an import is used when the module reads the bound name or re-exports it
    tree = ast.parse((SRC / f"{name}.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {sub.id for sub in ast.walk(tree)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
    assert [n for n in imported if n not in read | _exported(tree)] == []


def _references(node) -> Counter:
    """Names read as identifiers or attributes anywhere under node."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def test_every_public_function_and_method_has_a_caller():
    # a caller is a reference in src/ or perfbench/ outside the definition
    # itself; names in import lists and __all__ do not count, tests do not count
    callers = Counter()
    for path in sorted((REPO / "src").rglob("*.py")) + sorted((REPO / "perfbench").rglob("*.py")):
        callers += _references(ast.parse(path.read_text()))
    dead = []
    for name in MODULES:
        tree = ast.parse((SRC / f"{name}.py").read_text())
        defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            defs += [n for n in cls.body if isinstance(n, ast.FunctionDef)]
        dead += [f"{name}.{d.name}" for d in defs if not d.name.startswith("_")
                 and callers[d.name] <= _references(d)[d.name]]
    assert dead == []
