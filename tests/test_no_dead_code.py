"""Dead-code guard: every top-level name of the package is read somewhere in
src/ or tests/, and every name a module imports is read in that module.

References are taken from the syntax tree, so a name that survives only in
a comment or a docstring counts as dead.  Dunder names are exempt, and so
are the imports of __init__.py, which are the package's public names.
"""

import ast
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
