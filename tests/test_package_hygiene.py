"""Source hygiene of the package and its tests, checked with the standard library alone.

Every package module and test module must use each name it imports (the
package ``__init__`` may instead re-export it through ``__all__``),
``__all__`` must list each public name once and only names that exist,
every function the package defines must be named somewhere outside the tests,
no package module but ``problem.py`` may import how the design is cut into
blocks, none but ``solver.py`` may reach the restricted Gram block (and
``dual.py``, which holds the state, names none), no package module may read
or write a private attribute that no class of its own declares, none may set
an attribute on an exception it caught, and none may set ``flags.writeable``.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import ssnpath

PACKAGE_DIR = Path(ssnpath.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_MODULES,
    ids=lambda p: p.name if p.parent == PACKAGE_DIR else f"tests/{p.name}",
)
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


@pytest.mark.parametrize(
    "name", ["ActivePartition", "PrimalDualState", "active_partition", "cold_start", "ssn_update"]
)
def test_solver_state_internals_are_not_exported(name):
    # ssn_solve(prob, None, cfg) starts from the cold start; the state's
    # machinery stays in ssnpath.dual and ssnpath.solver
    assert name not in ssnpath.__all__ and not hasattr(ssnpath, name)


def _non_test_sources():
    """The files that may call into the package: everything but ``tests/``."""
    yield from (REPO / "src").rglob("*.py")
    yield from (REPO / "perfbench").glob("*.py")
    yield from (REPO / "tools").rglob("*.py")
    yield from (REPO / "demos").rglob("*.py")
    yield REPO / "pyproject.toml"


def test_every_function_is_named_outside_its_def():
    # a function or method only the tests reach is surface to delete, not to keep
    defined = Counter(
        node.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    words = Counter(re.findall(r"\w+", "\n".join(p.read_text() for p in _non_test_sources())))
    unnamed = sorted(name for name, count in defined.items() if words[name] <= count)
    assert unnamed == [], f"defined in ssnpath but named nowhere outside tests/: {unnamed}"


def _private(attr):
    return attr.startswith("_") and not attr.endswith("__")


def _on_self(node):
    return isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")


def _declared_private_attributes(tree):
    """Private names a class of the module declares: in ``__slots__``, its body or on ``self``.

    Methods defined in a class body count as declared.
    """
    declared = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                declared.add(stmt.name)
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                declared |= names
                if "__slots__" in names:
                    declared.update(elt.value for elt in stmt.value.elts)
        declared.update(
            node.attr for node in ast.walk(cls)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and _on_self(node)
        )
    return declared


def _foreign_private_attributes(path, ctx):
    """Private attributes the module uses in context ``ctx`` off ``self`` and undeclared."""
    tree = ast.parse(path.read_text(), filename=str(path))
    declared = _declared_private_attributes(tree)
    return [
        f"{node.value.id if isinstance(node.value, ast.Name) else '...'}.{node.attr} "
        f"(line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx)
        and _private(node.attr) and node.attr not in declared and not _on_self(node)
    ]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem != "problem"], ids=lambda p: p.name
)
def test_only_problem_knows_how_the_design_is_blocked(path):
    # the blocked products of problem.py are the one place that cuts X into blocks
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {name for name, _ in _imported_names(tree)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    leaked = sorted(names & {"_row_blocks", "_BLOCK_ENTRIES", "_column_blocks", "_PASS_ENTRIES"})
    assert leaked == [], f"{path.name} reads how problem.py blocks the design: {leaked}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem != "solver"], ids=lambda p: p.name
)
def test_only_the_solver_holds_the_gram_block(path):
    # the solver's one holder forms, borders, keeps and gives up the restricted Gram block
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {name for name, _ in _imported_names(tree)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    leaked = sorted(names & {"_gram", "_gram_border", "_solve_restricted"})
    assert leaked == [], f"{path.name} reaches the solver's Gram block: {leaked}"


def test_the_state_names_no_gram_block():
    # a state is what an update left; the block the update solved with stays in the solver
    tree = ast.parse((PACKAGE_DIR / "dual.py").read_text())
    # identifiers, and strings that could be one: __slots__ entries, getattr names
    names = {getattr(node, field, None) for node in ast.walk(tree)
             for field in ("id", "arg", "attr", "name")}
    names |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    gram = sorted(name for name in names
                  if isinstance(name, str) and name.isidentifier() and "gram" in name.lower())
    assert gram == [], f"dual.py names a Gram block: {gram}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_attributes_are_written_only_where_declared(path):
    # a private field one module sets on another's object is a hidden channel
    # between them; the value belongs in what the writer returns
    foreign = _foreign_private_attributes(path, ast.Store)
    assert foreign == [], f"{path.name} writes private attributes it does not declare: {foreign}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_attributes_are_read_only_where_declared(path):
    # a module that reads another's private fields depends on how that one
    # holds its data; it should call what the owner exposes instead
    foreign = _foreign_private_attributes(path, ast.Load)
    assert foreign == [], f"{path.name} reads private attributes it does not declare: {foreign}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_caught_exceptions_are_not_mutated(path):
    # an attribute set on a caught exception before re-raising it is a field
    # the exception's class does not declare and no handler is bound to read
    tree = ast.parse(path.read_text(), filename=str(path))
    mutated = [
        f"{handler.name}.{node.attr} (line {node.lineno})"
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler) and handler.name is not None
        for stmt in handler.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == handler.name
    ]
    assert mutated == [], f"{path.name} sets attributes on caught exceptions: {mutated}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_arrays_turn_read_only_through_setflags(path):
    # numpy's flags.writeable setter looks setflags up by a new name string on
    # every call, and the interpreter's type attribute cache keeps such strings
    # alive: a benchmark fit's tracemalloc peak held several KB of them, a
    # different amount in each process
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
             and node.attr == "writeable"]
    assert lines == [], f"{path.name} sets flags.writeable on lines {lines}; use setflags(write=False)"
