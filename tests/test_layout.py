"""Modules of the package reach each other through public names only: no
module imports a sibling's ``_private`` name or reads one as an attribute
of a sibling module, and no function imports anything.  README's table of caches names every memoised
function of the package.  Every term class takes its dataclass form from
its metaclass alone."""

import ast
import dataclasses
import glob
import importlib
import os
import re

import pytest

import ubsc
from ubsc import values as v

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


# ------------------------------------------------------------ recursive functions
# Every function of the package on a call cycle, and whether a
# ``memo_on_term(kids=...)`` fill keeps it stack-safe (True): the fill
# memoises a term's parts in a loop before the function reads them, so the
# cycle runs one level deep.  The False entries recurse once per level of
# their input and are the walks ROADMAP item 2 has left; a new recursive
# function fails the test until it is listed here.

RECURSIVE = {
    "checker._ProcessChecker._check_def_body": False,
    "checker._ProcessChecker.check": False,
    "checker.synth_process": False,
    "engine.alternatives.go": False,
    "engine.encode_recovery": False,
    "render._canon_body": False,
    "render._canon_defs": False,
    "render._canon_text": False,
    "render._expr_text": True,
    "render._open_shape": True,
    "render._shape_tree": True,
    "render.render_base": False,
    "render.render_expr": True,
    "render.render_network": False,
    "render.render_type": False,
    "render.render_value": False,
    "sestypes._subst_tvar": False,
    "sestypes.contractive": False,
    "sestypes.dual": False,
    "sestypes.refine_session": False,
    "syntax._Parser.atom": False,
    "syntax._Parser.atom_network": False,
    "syntax._Parser.btype": False,
    "syntax._Parser.chantail": False,
    "syntax._Parser.expr": False,
    "syntax._Parser.network": False,
    "syntax._Parser.prefixterm": False,
    "syntax._Parser.process": False,
    "syntax._Parser.recov": False,
    "syntax._Parser.stype": False,
    "syntax._resolve": False,
    "terms._bound_join": True,
    "terms._defs_facts": True,
    "terms._facts": True,
    "terms._subst_end": False,
    "terms._subst_free": False,
    "terms.map_nodes": False,
    "terms.rename_node_sessions.go": False,
    "values._closed_type": True,
    "values._closed_value": True,
    "values._eval": False,
    "values._type_expr": False,
    "values.aggregate": False,
    "values.compare_values": False,
    "values.eval_expr": False,
    "values.map_vars": False,
    "values.memo_on_term": False,  # one level: the decorator given only ``kids``
    "values.refine_base": False,
    "values.type_expr": False,
    "values.type_of_value": False,
    "values.value_key": False,
}

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(fn):
    """The nodes of ``fn``'s body outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCS):
            stack += ast.iter_child_nodes(node)


def call_graph(sources: dict) -> tuple:
    """(callees, memo-filled functions) of the modules ``sources`` maps by
    name.  A function is ``module.qualname``, a nested one named under its
    parents.  A call counts when it names a function by a bare name in scope
    (nested, module-level or imported from a sibling) or as a ``self.``
    attribute of the enclosing class."""
    edges, filled = {}, set()
    for mod, source in sources.items():
        tree = ast.parse(source)
        top = {}
        for node in tree.body:
            if isinstance(node, FUNCS):
                top[node.name] = f"{mod}.{node.name}"
            elif isinstance(node, ast.ImportFrom) and node.level and node.module:
                top.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
        stack = [(tree, mod, top, None)]
        while stack:
            node, qual, env, cls = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    stack.append((child, f"{qual}.{child.name}", env, f"{qual}.{child.name}"))
                elif isinstance(child, FUNCS):
                    q = f"{qual}.{child.name}"
                    inner = {**env, **{n.name: f"{q}.{n.name}" for n in _own_nodes(child)
                                       if isinstance(n, FUNCS)}}
                    out = edges.setdefault(q, set())
                    for n in _own_nodes(child):
                        f = n.func if isinstance(n, ast.Call) else None
                        if isinstance(f, ast.Name) and f.id in inner:
                            out.add(inner[f.id])
                        elif (cls and isinstance(f, ast.Attribute)
                              and isinstance(f.value, ast.Name) and f.value.id == "self"):
                            out.add(f"{cls}.{f.attr}")
                    if any(isinstance(d, ast.Call) and _called(d) == "memo_on_term"
                           and any(k.arg == "kids" for k in d.keywords)
                           for d in child.decorator_list):
                        filled.add(q)
                    stack.append((child, q, inner, None))
    return edges, filled


def on_cycles(edges: dict) -> set:
    """The functions that reach themselves through ``edges``."""
    out = set()
    for start in edges:
        seen, stack = set(), list(edges[start])
        while stack:
            f = stack.pop()
            if f == start:
                out.add(start)
                break
            if f not in seen and f in edges:
                seen.add(f)
                stack += edges[f]
    return out


def recursive_functions(sources: dict) -> dict:
    """Each function on a call cycle, and whether it stays off every cycle
    once the memo-filled functions are taken to call nothing."""
    edges, filled = call_graph(sources)
    cut = {f: set() if f in filled else out - filled for f, out in edges.items()}
    unsafe = on_cycles(cut)
    return {f: f not in unsafe for f in sorted(on_cycles(edges))}


def test_recursive_functions_are_listed():
    sources = {}
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            sources[os.path.basename(path)[:-3]] = fh.read()
    assert recursive_functions(sources) == RECURSIVE


def test_recursive_functions_are_found():
    """Nested functions, ``self.`` methods, siblings' functions imported by
    name, and the cycles a memo fill cuts."""
    a = ("from .b import g\nfrom . import b\n"
         "def f(x):\n    def go(y):\n        return go(y) + b.h(y)\n    return g(go(x))\n"
         "class C:\n    def m(self):\n        return self.n()\n"
         "    def n(self):\n        return self.m() + n()\n"
         "@memo_on_term(kids=parts)\ndef fill(x):\n    return [fill(k) for k in x] + [h(x)]\n"
         "def h(x):\n    return fill(x)\n")
    b = "from .a import f\ndef g(x):\n    return f(x)\ndef h(x):\n    return 0\n"
    assert recursive_functions({"a": a, "b": b}) == {
        "a.C.m": False, "a.C.n": False, "a.f": False, "a.f.go": False, "a.fill": True,
        "a.h": True, "b.g": False}


def _term_classes() -> list:
    """Every ``values.Term`` subclass the package's modules declare."""
    for path in MODULES:
        importlib.import_module(f"ubsc.{os.path.basename(path)[:-3]}")
    found, stack = [], [v.Term]
    while stack:
        subclasses = stack.pop().__subclasses__()
        found += [c for c in subclasses if c.__module__.startswith("ubsc.")]
        stack += subclasses
    return found


def test_term_classes_are_frozen_dataclasses_equal_by_identity():
    classes = _term_classes()
    assert len(classes) == 48
    for cls in classes:
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen, cls
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_module_decorates_a_term_class(path):
    """The metaclass makes a term class a dataclass; a decorator of its own
    could give it field equality back."""
    module = f"ubsc.{os.path.basename(path)[:-3]}"
    terms = {c.__name__ for c in _term_classes() if c.__module__ == module}
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and node.name in terms and node.decorator_list] == []


def test_an_undecorated_term_class_interns_frozen_by_identity():
    class Probe(v.Term):
        name: str
        depth: int

    a = Probe("x", 1)
    assert Probe("x", 1) is a and Probe("x", True) is not a and (a.name, a.depth) == ("x", 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.depth = 2
    twin = type.__call__(Probe, "x", 1)  # the same fields, built past the table
    assert twin is not a and twin != a and hash(twin) != hash(a)
