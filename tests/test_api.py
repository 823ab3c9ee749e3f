"""Every public name a module declares is defined: `from iupm.<module> import *`
fails on a stale ``__all__`` entry, which a plain import does not catch.  And
every private name the package defines, and every solver function, is used by
the package itself, and every public function is used by it or listed under
README's "Library API": code that only the tests call belongs with the tests."""

import ast
import importlib
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import iupm
from iupm import optimize

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(iupm.__path__, "iupm.") if name != "iupm.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_modules_with_all_are_found():
    declared = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]
    assert len(declared) >= 9


def _private_definitions(tree):
    """Names starting with one underscore bound at the top level of a module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _uses(tree):
    """Every name read, every attribute taken and every name imported in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_name_is_used_in_the_package():
    trees = {path: ast.parse(path.read_text()) for path in Path(iupm.__file__).parent.glob("*.py")}
    used = Counter(name for tree in trees.values() for name in _uses(tree))
    unused = [
        f"{path.name}:{name}"
        for path, tree in sorted(trees.items())
        for name in _private_definitions(tree)
        if used[name] == 0
    ]
    assert unused == []


def test_every_test_helper_is_reachable_from_a_test_module():
    """Every top-level name of ``tests/helpers.py`` is imported by a test
    module, or used by a helper that is: a retired oracle does not linger."""
    tests = Path(__file__).parent
    body = ast.parse((tests / "helpers.py").read_text()).body
    defined = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        for name in names:
            defined.setdefault(name, []).append(node)
    pending = [
        alias.name
        for path in tests.glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "helpers"
        for alias in node.names
    ]
    reached = set()
    while pending:
        name = pending.pop()
        if name in defined and name not in reached:
            reached.add(name)
            pending += [used for node in defined[name] for used in _uses(node)]
    assert sorted(set(defined) - reached) == []


def test_every_solver_function_is_imported_by_the_package():
    """A function in ``optimize.__all__`` that no other module of the package
    imports is a dead solver entry point."""
    imported = {
        alias.name
        for path in Path(iupm.__file__).parent.glob("*.py")
        if path.name != "optimize.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "optimize"
        for alias in node.names
    }
    solvers = [name for name in optimize.__all__ if inspect.isfunction(getattr(optimize, name))]
    assert solvers and [name for name in solvers if name not in imported] == []


def _callers(name):
    """(module file, top-level definition) of every call of ``name`` in the
    package, by plain name or as an attribute; "<module>" for a call outside
    any definition."""
    found = set()
    for path in Path(iupm.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and name in (
                    getattr(call.func, "id", None), getattr(call.func, "attr", None)
                ):
                    found.add((path.name, owner))
    return sorted(found)


def test_one_solve_step_and_one_result_assembly():
    """Every fit goes through ``optimize.solve``, the only caller of the two
    solvers and the only solver function in ``optimize.__all__``, and every
    ``FitResult`` is built in one function."""
    assert _callers("maximize") == [("optimize.py", "solve")]
    assert _callers("newton_maximize") == [("optimize.py", "solve")]
    assert [name for name in optimize.__all__ if inspect.isfunction(getattr(optimize, name))] == ["solve"]
    assert _callers("FitResult") == [("inference.py", "_fit_result")]


def test_one_route_to_each_result():
    """The two solvers take every argument from ``solve``: no parameter has
    a default that only a test would change.  The Poisson likelihood
    constants are built for an assay alone, whose kernels take (D, n) rates."""
    for solver in (optimize.maximize, optimize.newton_maximize):
        parameters = inspect.signature(solver).parameters.values()
        assert [p.name for p in parameters if p.default is not p.empty] == []
    assert _callers("_likelihood_terms") == [("assay.py", "MultiDilutionAssay")]


def test_one_expected_information_and_one_derivative():
    """The binomial sums behind the Poisson expected information are made in
    one place, the pass that the information and its derivative both read."""
    assert _callers("_binomial_sums") == [("inference.py", "LevelPass")]


def test_one_replicate_loop():
    """Every study draws its replicates in one loop, and a power study's LRT
    runs there as an estimator, one ``lrt_overdispersion`` call a replicate."""
    assert _callers("_simulate_until_regular") == [("simulate.py", "_replicates")]
    assert _callers("lrt_overdispersion") == [("simulate.py", "_apply_estimator")]


def test_no_module_level_function_is_cached():
    """No module-level function keeps results across calls (``functools.cache``
    or ``lru_cache``): a fit hands what it computed to the next step itself.
    A cache built inside one call, such as the one of
    ``simulate._replicates``, is dropped with that call."""
    def cache_name(decorator):
        node = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(node, "id", None) or getattr(node, "attr", None)

    cached = [
        f"{path.name}:{node.name}"
        for path in sorted(Path(iupm.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(cache_name(d) in ("cache", "lru_cache") for d in node.decorator_list)
    ]
    assert cached == []


def test_every_function_is_mentioned_elsewhere_in_the_package():
    """A module-level function whose name appears on no line of the package
    but its own ``def`` is dead code, public or private."""
    lines = {}
    for path in Path(iupm.__file__).parent.glob("*.py"):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            lines[path, lineno] = set(re.findall(r"\w+", line))
    dead = [
        f"{path.name}:{node.name}"
        for path in sorted(Path(iupm.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not any(node.name in words for key, words in lines.items() if key != (path, node.lineno))
    ]
    assert dead == []


def test_every_method_is_read_by_the_package():
    """The same check for the methods and properties of package classes,
    which are only reached as attributes: a name that no module of the
    package reads (``_uses``) is dead code.  Dunder methods, and overrides
    of an inherited method, are called by Python or by the base class."""
    trees = {name: ast.parse(Path(importlib.import_module(name).__file__).read_text()) for name in MODULES}
    used = Counter(attr for tree in trees.values() for attr in _uses(tree))
    dead = [
        f"{name}.{node.name}.{item.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("__")
        and not any(hasattr(base, item.name) for base in getattr(importlib.import_module(name), node.name).__mro__[1:])
        and used[item.name] == 0
    ]
    assert dead == []


def test_every_public_function_is_used_by_the_package_or_documented():
    """The bullet list under README's "## Library API" names exactly the
    public module-level functions that no module of the package uses
    (``__init__``'s re-exports and ``__all__`` do not count): such a function
    is library API only when that list names it, and the list names no
    function that the package uses or that is gone."""
    package = Path(iupm.__file__).parent
    trees = {path: ast.parse(path.read_text()) for path in package.glob("*.py")}
    used = Counter(name for path, tree in trees.items() if path.name != "__init__.py" for name in _uses(tree))
    orphans = sorted(
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and used[node.name] == 0
    )
    readme = (package.parents[1] / "README.md").read_text()
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    assert sorted(re.findall(r"^\* `(\w+)\(", section, flags=re.M)) == orphans


def test_only_assay_reads_json():
    """Every JSON document is read in ``assay.py``, where ``_check`` walks it:
    no other module calls ``json.loads`` or ``json.load``, or imports them."""
    readers = sorted(
        path.name
        for path in Path(iupm.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
            and isinstance(node.value, ast.Name) and node.value.id == "json")
        or (isinstance(node, ast.ImportFrom) and node.module == "json"
            and any(alias.name in ("load", "loads") for alias in node.names))
    )
    assert readers == ["assay.py"]
