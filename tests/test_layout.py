"""Modules of the package reach each other through public names only: no
module imports a sibling's ``_private`` name or reads one as an attribute
of a sibling module, and no function imports anything.  README's table of caches names every memoised
function of the package."""

import ast
import glob
import os
import re

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


def nested_imports(source: str) -> list:
    """Line of each ``import`` or ``from ... import`` inside a function."""
    return sorted({node.lineno for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_imports_inside_functions(path):
    with open(path, encoding="utf-8") as fh:
        assert nested_imports(fh.read()) == []


def test_nested_imports_are_found():
    src = ("import os\ndef f():\n    import re\n    def g():\n"
           "        from . import terms\n    return re\n")
    assert nested_imports(src) == [3, 5]


def _called(node) -> str:
    """The last name of a decorator or callee, called or not."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "attr", None) or getattr(node, "id", None)


def memoised(path: str) -> list:
    """``module.name`` of each function of the module at ``path`` decorated
    with ``lru_cache(...)`` or ``memo_on_term``, methods as
    ``module.Class.name``, and of each module-level ``x = lru_cache(...)(f)``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []
    stack = [(os.path.basename(path)[:-3], tree.body)]
    while stack:
        prefix, body = stack.pop()
        for node in body:
            if isinstance(node, ast.ClassDef):
                stack.append((f"{prefix}.{node.name}", node.body))
            elif isinstance(node, ast.FunctionDef):
                if any(_called(d) in ("lru_cache", "memo_on_term") for d in node.decorator_list):
                    found.append(f"{prefix}.{node.name}")
            elif (isinstance(node, ast.Assign) and body is tree.body
                  and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Call)
                  and _called(node.value.func) == "lru_cache"):
                found += [f"{prefix}.{x.id}" for x in node.targets if isinstance(x, ast.Name)]
    return found


def test_readme_caches_table_names_every_memoised_function():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("### Caches\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([^`]+)`", section))
    found = [name for path in MODULES for name in memoised(path)]
    assert len(found) > 25
    assert [name for name in found if name not in named] == []
