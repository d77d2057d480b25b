"""Every module-level import in the package is used by the module itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "adjtorelli"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_every_module_level_import_is_used():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    assert [u for path in modules for u in _unused_imports(path)] == []


def _private_definitions(tree):
    """(name, node) for each private function, method and module constant."""
    nodes = list(tree.body)
    nodes += [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _references(tree, skip=None):
    """Names loaded in tree, as bare names or attributes, outside node skip."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    for node in ast.walk(tree):
        if id(node) in inside or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _dead_private_names(src):
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    dead = []
    for filename, tree in trees.items():
        for name, node in _private_definitions(tree):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in _references(other, node if other is tree else None)
                       for other in trees.values()):
                dead.append(f"{filename}:{node.lineno} {name}")
    return dead


def test_every_private_helper_is_referenced():
    """A private function, method or module constant outlives no caller."""
    assert _dead_private_names(SRC) == []
