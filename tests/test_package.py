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
