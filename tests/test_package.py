"""Public names of the package."""

import ast
from pathlib import Path

import eddyopt


def test_every_exported_name_resolves():
    assert len(set(eddyopt.__all__)) == len(eddyopt.__all__)
    missing = [name for name in eddyopt.__all__ if not hasattr(eddyopt, name)]
    assert missing == []


def test_imported_public_names_are_all():
    # a name dropped from either list must leave the other as well
    tree = ast.parse(Path(eddyopt.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert {n for n in imported if not n.startswith("_")} == \
        set(eddyopt.__all__)


def test_every_top_level_definition_is_used_or_exported():
    # a module-level function or class that nothing in the package names
    # and `__all__` does not export is dead code
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(eddyopt.__file__).parent.glob("*.py"))]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = {node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in used | set(eddyopt.__all__)}
    assert unused == set()
