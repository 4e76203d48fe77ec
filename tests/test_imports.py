"""Import hygiene of the package: modules reach each other only through
public names, and every name a module exports exists."""

import ast
import importlib
from pathlib import Path

import pytest

import orbitrips

SRC = Path(orbitrips.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


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
