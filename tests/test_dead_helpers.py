"""Every module-level private helper of ``mono3d`` is used somewhere in the
package: a deletion that leaves a helper without callers fails here."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mono3d"


def private_definitions(tree):
    """(name, first line, last line) of each module-level private function,
    class or constant; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def references(tree):
    """(name, line) of each name the module reads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_private_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = {(module, name, line) for module, tree in trees.items()
            for name, line in references(tree)}
    orphans = [f"{module}:{first}: {name}" for module, tree in trees.items()
               for name, first, last in private_definitions(tree)
               if not any(n == name and (m != module or not first <= line <= last)
                          for m, n, line in used)]
    assert len(trees) > 1 and not orphans, orphans
