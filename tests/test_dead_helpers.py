"""Nothing in ``mono3d`` is left without a user. Every module-level private
helper is used somewhere in the package, and every module-level public
function and class is referenced from another package module, from
``scripts/``, from ``tests/`` or from README.md: a deletion that leaves a
helper without callers, or an API that nothing uses, fails here."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mono3d"


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


def imported_names(tree):
    """Each name a ``from ... import`` statement of the module imports."""
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_private_helper_is_referenced():
    trees = package_trees()
    used = {(module, name, line) for module, tree in trees.items()
            for name, line in references(tree)}
    orphans = [f"{module}:{first}: {name}" for module, tree in trees.items()
               for name, first, last in private_definitions(tree)
               if not any(n == name and (m != module or not first <= line <= last)
                          for m, n, line in used)]
    assert len(trees) > 1 and not orphans, orphans


def test_every_public_function_and_class_has_a_user():
    trees = package_trees()
    outside = [ast.parse(path.read_text(encoding="utf-8"))
               for folder in ("scripts", "tests") for path in sorted((ROOT / folder).glob("*.py"))]
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))

    def users(tree):
        return {name for name, _ in references(tree)} | imported_names(tree)

    outside_users = set().union(readme, *map(users, outside))
    module_users = {module: users(tree) for module, tree in trees.items()}
    orphans = [f"{module}:{node.lineno}: {node.name}" for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")
               and node.name not in outside_users
               and not any(node.name in names for m, names in module_users.items()
                           if m != module)]
    assert outside and not orphans, orphans
