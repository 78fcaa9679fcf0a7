"""Checks on the package's own source, with the standard library only."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bohm_radiance"


def _references(tree, skip):
    """Names loaded, attributes read and names imported in tree, outside
    the node skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        stack.extend(ast.iter_child_nodes(node))


def _package_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _module_names(tree):
    """(name, defining node) of each module-level function, class and
    assigned name of tree."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def _unread(trees, names, outside=frozenset()):
    """The qualified names of the (qualified name, name, defining node)
    entries of names whose name no tree reads outside that node, leaving
    out the names in outside."""
    return [qualified for qualified, name, node in names
            if name not in outside
            and not any(name in _references(other, node)
                        for other in trees.values())]


def test_no_unused_private_module_names():
    # every module-level _name (function, class or assignment) of the
    # package is used somewhere in it outside its own definition: a
    # helper left behind by a refactor fails here
    trees = _package_trees()
    names = [(f"{module}: {name}", name, node)
             for module, tree in trees.items()
             for name, node in _module_names(tree)
             if name.startswith("_") and not name.startswith("__")]
    assert _unread(trees, names) == []


def test_every_public_name_has_a_reader():
    # every public module-level name of the package, and every public
    # method or property of its classes, is read elsewhere in src/, by a
    # file under bench/, or named in code in README.md (the library API):
    # a function kept only for tests is a test oracle and lives in tests/
    trees = _package_trees()
    names = []
    for module, tree in trees.items():
        for name, node in _module_names(tree):
            names.append((f"{module}.{name}", name, node))
            if isinstance(node, ast.ClassDef):
                names.extend((f"{module}.{name}.{item.name}", item.name, item)
                             for item in node.body
                             if isinstance(item, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef)))
    bench = {ref for path in sorted((ROOT / "bench").rglob("*.py"))
             for ref in _references(
                 ast.parse(path.read_text(encoding="utf-8")), None)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.S)
    named = {word for span in code for word in re.findall(r"\w+", span)}
    public = [entry for entry in names if not entry[1].startswith("_")]
    assert _unread(trees, public, bench | named) == []
