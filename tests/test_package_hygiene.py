"""Source hygiene of the package, checked with the standard library alone.

Every module must use each name it imports (the package ``__init__`` may
instead re-export it through ``__all__``), and ``__all__`` must list each
public name once and only names that exist.
"""

import ast
import importlib
from pathlib import Path

import pytest

import ssnpath

PACKAGE_DIR = Path(ssnpath.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def _imported_names(tree):
    """(name bound by an import, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_declared_all(tree) or ())
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_resolves_without_duplicates(path):
    names = _declared_all(ast.parse(path.read_text(), filename=str(path)))
    if names is None:
        return
    module_name = "ssnpath" if path.stem == "__init__" else f"ssnpath.{path.stem}"
    module = importlib.import_module(module_name)
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ names missing attributes: {missing}"
    duplicates = sorted({name for name in names if names.count(name) > 1})
    assert duplicates == [], f"{module_name}.__all__ repeats {duplicates}"


def test_package_declares_all():
    assert _declared_all(ast.parse((PACKAGE_DIR / "__init__.py").read_text()))
