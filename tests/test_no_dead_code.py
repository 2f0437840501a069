"""Dead-code guard: every top-level name of the package is read somewhere in
src/ or tests/, every name a module imports is read in that module, and
every top-level function and class of src/, and every method of its
classes, is reachable from cli.main, and every parameter default of src/
is both kept by some call of src/ and overridden by another.

References are taken from the syntax tree, so a name that survives only in
a comment or a docstring counts as dead.  Dunder names are exempt, and so
are the imports of __init__.py, which are the package's public names.
"""

import ast
import copy
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "quadtrace").glob("*.py"))
CORPUS = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def _reads(tree: ast.AST) -> Counter:
    """Names read: loaded identifiers, attribute names, imported names and
    string constants (monkeypatch.setattr(module, "name", ...))."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _loaded_names(tree: ast.AST) -> set:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def test_every_top_level_name_is_used():
    reads = Counter()
    for path in CORPUS:
        reads.update(_reads(_parse(path)))
    unused = [
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in _top_level_names(_parse(path))
        if not _is_dunder(name) and reads[name] == 0
    ]
    assert unused == []


def test_every_import_is_used():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        loaded = _loaded_names(tree)
        unused += [
            f"{path.stem}: {name}" for name in _imported_names(tree) if name not in loaded
        ]
    assert unused == []


def _loaded_attributes(tree: ast.AST) -> set:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _definitions(tree: ast.Module):
    """(name, node) per top-level statement; each non-dunder method of a
    class is a node of its own, named Class.method, cut out of its class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [
                sub
                for sub in node.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not _is_dunder(sub.name)
            ]
            rest = copy.copy(node)
            rest.body = [sub for sub in node.body if sub not in methods]
            yield node.name, rest
            yield from ((f"{node.name}.{sub.name}", sub) for sub in methods)
        else:
            yield from ((name, node) for name in _top_level_names(ast.Module([node], [])))


def _package_imports(tree: ast.AST, modules) -> dict:
    """{name: (module, name)} for the names bound anywhere in tree by
    relative imports of the package (`from .x import f`)."""
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in modules
        for alias in node.names
    }


def test_every_function_is_reachable_from_the_cli():
    # a node is a top-level statement of a module or a method; it reaches the
    # names it loads, through its module's definitions and relative imports,
    # and every method whose attribute name it loads
    trees = {path.stem: _parse(path) for path in SOURCES if path.name != "__init__.py"}
    nodes, scopes, methods = {}, {}, {}
    for module, tree in trees.items():
        scopes[module] = _package_imports(tree, trees)
        for name, node in _definitions(tree):
            nodes[module, name] = node
            if "." in name:
                methods.setdefault(name.split(".")[1], []).append((module, name))
            else:
                scopes[module][name] = (module, name)
    reached, todo = set(), [("cli", "main")]
    while todo:
        key = todo.pop()
        if key not in reached and key in nodes:
            reached.add(key)
            scope = scopes[key[0]]
            todo += [scope[name] for name in _loaded_names(nodes[key]) if name in scope]
            for attr in _loaded_attributes(nodes[key]):
                todo += methods.get(attr, [])
    unreached = [
        f"{module}.{name}"
        for (module, name), node in nodes.items()
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) and (module, name) not in reached
    ]
    assert unreached == []


def _passes(call: ast.Call, index: int | None, param: str) -> bool:
    """Whether call passes param, at positional index (None when keyword-only);
    a *args or **kwargs that could carry it counts as passing it."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return starred or len(call.args) > index


def test_every_parameter_default_is_kept_and_overridden():
    # a default that every call overrides is not a default, and one that no
    # call overrides is a constant; calls are matched to definitions by name,
    # and cli.main's argv is exempt as the entry point
    defs, calls = [], {}
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path.stem, node))
            elif isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    knobs = []
    for module, fn in defs:
        args = fn.args
        positional = args.posonlyargs + args.args
        bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(args.defaults)
        defaulted = [(i - bound, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [
            (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
        for index, param in defaulted:
            if (module, fn.name, param) == ("cli", "main", "argv"):
                continue
            passes = {_passes(call, index, param) for call in calls.get(fn.name, [])}
            if passes != {True, False}:
                knobs.append(f"{module}.{fn.name}({param})")
    assert knobs == []
