"""Checks on the package's own source, with the standard library only."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bohm_radiance"


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


def test_no_unused_private_module_names():
    # every module-level _name (function, class or assignment) of the
    # package is used somewhere in it outside its own definition: a
    # helper left behind by a refactor fails here
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [n.id for target in targets
                         for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__") \
                        and not any(name in _references(other, node)
                                    for other in trees.values()):
                    unused.append(f"{module}: {name}")
    assert unused == []
