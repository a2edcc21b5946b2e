"""The package source parses as Python 3.10, the oldest version that
``pyproject.toml`` allows, whichever interpreter runs the suite, it
names each operation once, every module is loaded by an entry point,
every public function, class and method is used in the package, called
by the benchmark or listed as library API, every error class is raised
somewhere, and only the zero scan reads the pieces' critical points and
calls the searches that refine its zeros."""

import ast
import importlib
import inspect
import pathlib

import pytest

import barbilliard
from barbilliard import errors

MODULES = sorted(pathlib.Path(barbilliard.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _imported_modules(tree: ast.Module) -> set:
    """Dotted names of the package modules that a module's imports load,
    relative imports resolved against ``barbilliard``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "barbilliard" + ("." + base if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _reached() -> set:
    """Dotted names of the package modules that the imports of
    ``__init__``, ``cli`` and ``__main__`` load, nested imports included,
    followed through every module they reach."""
    paths = {f"barbilliard.{p.stem}": p for p in MODULES}
    todo = ["barbilliard.__init__", "barbilliard.cli", "barbilliard.__main__"]
    seen = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            tree = ast.parse(paths[name].read_text(), filename=str(paths[name]))
            todo += [m for m in _imported_modules(tree) if m in paths]
    return seen


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_reached_by_an_entry_point(path):
    """The package or a command loads every module: code that only tests
    reach belongs under ``tests/``."""
    assert f"barbilliard.{path.stem}" in _reached()


#: the public names that no package module uses, each with the benchmark
#: file that calls it; a name leaves the list when the benchmark stops
#: calling it and the package drops it
BENCHMARK_ONLY = {
    "certify_rational": "benchmark/workloads.py",
    "standard_pentagram": "benchmark/workloads.py",
    "ellipse_pentagram": "benchmark/workloads.py",
    "foot_and_delta": "benchmark/tracing.py",
    "TangentMap.gap_angles": "benchmark/tracing.py",
    "golden_min": "benchmark/tracing.py",
}

#: library API that no command runs and the benchmark does not call, each
#: with a test file that relies on it: a point body's map is the closed-form
#: oracle of the rotation, circle-map, value-type and figure tests, and the
#: contact abscissas that of the ellipse pentagram the map walks
LIBRARY_API = {
    "ConvexBody.point": "tests/test_rotation.py",
    "ellipse_contact_xs": "tests/test_pentagram.py",
}


def _unreferenced(sources=None) -> set:
    """The public module-level functions and classes, and the public methods
    of those classes (``Class.method``), that no module but ``__init__``
    uses outside the definition itself.  A function or class is used where
    its name is read, bare or as an attribute; a method only where it is
    read as an attribute of something other than the parsed flags
    ``args``, so a local variable or a flag of the same name does not
    count.  ``sources`` maps each module path to its text (default: the
    package as installed)."""
    defs, refs = [], []
    for path, text in (sources or {p: p.read_text() for p in MODULES}).items():
        tree = ast.parse(text, filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs.append((node.name, node, path))
                if isinstance(node, ast.ClassDef):
                    defs += [(f"{node.name}.{sub.name}", sub, path) for sub in node.body
                             if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    refs.append((path, node.id, node.lineno, False))
                elif isinstance(node, ast.Attribute):
                    flag = isinstance(node.value, ast.Name) and node.value.id == "args"
                    refs.append((path, node.attr, node.lineno, not flag))
    return {qual for qual, node, path in defs
            if not any(name == qual.rpartition(".")[2] and (method_read or "." not in qual)
                       and not (where == path and node.lineno <= line <= node.end_lineno)
                       for where, name, line, method_read in refs)}


def test_no_public_name_goes_unused():
    """Code that no command runs is deleted, not kept for tests: a public
    name that nothing in the package uses must be one the benchmark calls
    or listed library API, and both lists are exact, so they cannot go
    stale either way."""
    assert _unreferenced() == set(BENCHMARK_ONLY) | set(LIBRARY_API)
    assert not set(BENCHMARK_ONLY) & set(LIBRARY_API)
    repo = pathlib.Path(__file__).resolve().parents[1]
    for qual, user in {**BENCHMARK_ONLY, **LIBRARY_API}.items():
        assert qual.rpartition(".")[2] in (repo / user).read_text(), (qual, user)


def test_a_method_named_like_a_flag_is_still_unused():
    """``args.point`` and cli's local ``point`` do not use a method named
    ``point``: one planted on ``TangentMap`` is reported."""
    sources = {p: p.read_text() for p in MODULES}
    path = next(p for p in MODULES if p.name == "circlemap.py")
    head, sep, tail = sources[path].partition("class TangentMap")
    body, sep2, rest = tail.partition("\n    def ")
    sources[path] = head + sep + body + "\n    def point(self):\n        return 0\n" + sep2 + rest
    assert "TangentMap.point" in _unreferenced(sources)


def test_every_error_class_is_raised():
    """Each error class has a ``raise`` site in the package, so no
    exported class names a failure that cannot happen."""
    classes = {name for name, value in vars(errors).items()
               if inspect.isclass(value) and issubclass(value, errors.BarBilliardError)
               and value is not errors.BarBilliardError}
    raised = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    assert sorted(classes - raised) == []


def _callers(*names) -> set:
    """The package modules that call a function or method of these names."""
    return {path.stem for path in MODULES
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in names}


def test_only_rotation_reads_critical_points():
    """``rotation._circle_zeros`` places the pieces' critical points and
    checks their resolution; no other module calls ``.critical_points()``,
    so no caller keeps a resolution pass of its own."""
    assert _callers("critical_points") == {"rotation"}


def test_only_rotation_calls_the_searches():
    """The zero engine alone polishes located zeros (``brentq``), so no
    caller grows a polish of its own, and it reads each tangency at the
    extremum the pieces give: nothing in the package calls
    ``golden_min``, which the benchmark's tracer alone still binds."""
    assert _callers("brentq") == {"rotation"}
    assert _callers("golden_min") == set()


def test_newer_syntax_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def _public_callables(namespace) -> list:
    """(name, value) for the public functions and classes of a namespace."""
    return [(name, value) for name, value in vars(namespace).items()
            if not name.startswith("_") and (inspect.isroutine(value) or inspect.isclass(value))]


def test_no_public_name_is_an_alias():
    """No module or package class binds one function or class to two
    public names: a second name is a forwarder that callers must learn."""
    spaces = [barbilliard] + [importlib.import_module(f"barbilliard.{p.stem}")
                              for p in MODULES if not p.stem.startswith("_")]
    spaces += sorted({value for space in spaces for _, value in _public_callables(space)
                      if inspect.isclass(value) and value.__module__.startswith("barbilliard")},
                     key=lambda cls: cls.__qualname__)
    for space in spaces:
        names = {}
        for name, value in _public_callables(space):
            first = names.setdefault(id(value), name)
            assert first == name, f"{space.__name__}.{name} is {space.__name__}.{first}"
