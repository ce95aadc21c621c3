"""Whole-package checks: no stripped invariants, no dead private helpers, no
unused imports, no unread parameters or attributes, and the benchmark's tracer fits."""

import ast
import collections
import importlib.util
from pathlib import Path

import rncgeom
import rncgeom.verify  # noqa: F401  (the tracer wraps this layer too)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(rncgeom.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert; invariants must raise typed errors instead,
    # and a demo's checks must run under -O too
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _private_definitions(tree):
    """``(name, node)`` for each private module-level function or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(node):
    """Names and attributes read anywhere under ``node``."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    )


def test_every_private_helper_is_used():
    # a private function or constant read nowhere but in its own body is dead
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    reads = sum((_reads(tree) for tree in trees.values()), collections.Counter())
    dead = [
        f"{filename}:{name}"
        for filename, tree in trees.items()
        for name, node in _private_definitions(tree)
        if reads[name] == _reads(node)[name]
    ]
    assert dead == []


def _unused_imports(tree):
    """Names the module binds by an import statement and never loads.  An
    attribute of the same name (``form.rank``) does not count as a read."""
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in loaded:
                    yield name


def test_every_import_is_used():
    # an import no line reads is a stale dependency (``__init__`` imports to
    # re-export), in the package and in the demos
    unused = [
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        )
    ]
    assert unused == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unread_parameters(tree):
    """``name(param)`` for each parameter of a module-level function or a
    method that its body never reads.  A method's receiver (``self`` or
    ``cls``) is exempt, and so are nested closures, whose signature a
    caller inside the module fixes."""
    functions = [(node, 0) for node in tree.body if isinstance(node, FUNCTIONS)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, FUNCTIONS):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in node.decorator_list
                    )
                    functions.append((node, 0 if static else 1))
    for node, receivers in functions:
        reads = {
            n.id
            for statement in node.body
            for n in ast.walk(statement)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        args = node.args
        params = args.posonlyargs + args.args
        params = params[receivers:] + args.kwonlyargs + [args.vararg, args.kwarg]
        for param in params:
            if param is not None and param.arg not in reads:
                yield f"{node.name}({param.arg})"


def test_every_parameter_is_read():
    # a parameter no body reads is a setting every caller passes for nothing
    unread = [
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _unread_parameters(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        )
    ]
    assert unread == []


def _is_dataclass(cls):
    """``@dataclass`` or ``@dataclass(...)`` decorates the class."""
    targets = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def _declared_attributes(tree):
    """``(class, name)`` for each ``__slots__`` name and each annotated
    field of a dataclass."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
            ):
                for elt in ast.walk(node.value):
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        yield cls.name, elt.value
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and _is_dataclass(cls)
            ):
                yield cls.name, node.target.id


def _attribute_loads(tree):
    """Attribute names loaded (``x.name``) or fetched by ``getattr(x, "name")``."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr
        elif (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id == "getattr"
            and len(n.args) >= 2
            and isinstance(n.args[1], ast.Constant)
        ):
            yield n.args[1].value


def test_every_attribute_is_read():
    # a slot or dataclass field that no line of the package reads is state
    # every constructor fills for nothing; matched by name, like the guards above
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    loaded = {name for tree in trees.values() for name in _attribute_loads(tree)}
    unread = [
        f"{filename}:{cls}.{name}"
        for filename, tree in trees.items()
        for cls, name in _declared_attributes(tree)
        if name not in loaded
    ]
    assert unread == []


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target_and_restores_them():
    # the benchmark's traced pass wraps every name in tracing.TARGETS;
    # a renamed target fails install() here rather than only in that pass
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracing.installed_wrappers()
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
