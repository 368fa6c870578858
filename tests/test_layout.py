"""Modules of the package reach each other through public names only: no
module imports a sibling's ``_private`` name or reads one as an attribute
of a sibling module."""

import ast
import glob
import os

import pytest

import ubsc

MODULES = sorted(glob.glob(os.path.join(os.path.dirname(ubsc.__file__), "*.py")))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses(source: str) -> list:
    """(line, text) of each private name of a sibling module that
    ``source`` imports or reads."""
    tree = ast.parse(source)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ubsc")):
            for a in node.names:
                if node.module is None or node.module == "ubsc":  # ``from . import x as y``
                    aliases.add(a.asname or a.name)
                elif _private(a.name):
                    found.append((node.lineno, f"from {'.' * node.level}{node.module} "
                                                 f"import {a.name}"))
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name.startswith("ubsc."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_private_imports_between_modules(path):
    with open(path, encoding="utf-8") as fh:
        assert private_uses(fh.read()) == []


def test_private_uses_are_found():
    src = ("from . import render as r\nfrom .syntax import _Parser, parse\n"
           "from ubsc.render import _HOLE\nx = r._canon_text(r.render_value, r.__name__)\n")
    assert private_uses(src) == [(2, "from .syntax import _Parser"),
                                 (3, "from ubsc.render import _HOLE"), (4, "r._canon_text")]
