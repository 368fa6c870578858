"""Shared helpers: a seeded generator of well-typed source programs used by
the preservation/safety property suite, a recovery-term test, and a check
that no test changes the recursion limit."""

import random
import sys

from ubsc import terms as t
from ubsc import values as v
from ubsc import sestypes as st
from ubsc.render import render_type

BASES = [("int", "1"), ("bool", "true"), ("str", '"m"')]

# The benchmark imports this module for ``generate_program`` alone, without
# pytest; importing pytest there would add to its set-up time and memory.
if "pytest" in sys.modules:
    import pytest

    @pytest.fixture(autouse=True, scope="session")
    def recursion_limit_unchanged():
        """The suite ends at the recursion limit it started with.  A deep
        term must be walked in a loop; a test that raised the limit would
        hide the ``RecursionError`` a user meets."""
        limit = sys.getrecursionlimit()
        yield
        assert sys.getrecursionlimit() == limit, "a test changed the recursion limit"

    def in_fresh_process(module: str, call: str):
        """The value of ``module.call``, a literal, worked out in a new
        Python process: its caches and interned terms start empty."""
        import ast
        import os
        import subprocess

        here = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join([os.path.dirname(os.path.dirname(v.__file__)), here])
        out = subprocess.run([sys.executable, "-c", f"import {module} as m; print(m.{call})"],
                             cwd=here, env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True)
        return ast.literal_eval(out.stdout)


def has_recover(p: t.Process) -> bool:
    """``p`` holds a recovery term, found by one preorder walk."""
    return any(type(q) is t.Recover for q in v.universe(p, t.subprocesses))


def random_protocol(rng: random.Random, depth: int) -> st.SessionType:
    """Plain-side protocol: inputs, outputs and branches (selection lives on
    the aggregator side only)."""
    if depth == 0:
        return st.END
    kind = rng.choice(["in", "out", "bra", "end"])
    if kind == "end":
        return st.END
    if kind == "in":
        beta, _ = rng.choice(BASES)
        return st.In(_base(beta), random_protocol(rng, depth - 1))
    if kind == "out":
        beta, _ = rng.choice(BASES)
        return st.Out(_base(beta), random_protocol(rng, depth - 1))
    arms = st.mkarms([("l1", random_protocol(rng, depth - 1)),
                      ("l2", random_protocol(rng, depth - 1))])
    return st.BraT(arms)


def _base(name):
    return {"int": v.INT_T, "bool": v.BOOL_T, "str": v.STR_T}[name]


def _lit(beta) -> str:
    return {v.INT_T: "1", v.BOOL_T: "true", v.STR_T: '"m"'}[beta]


def plain_body(rng, ty, chan) -> str:
    ty = st.unfold(ty)
    match ty:
        case st.End():
            return "0"
        case st.In(beta, cont):
            return f"{chan}?(x{rng.randrange(1000)}) def {_lit(beta)}. " \
                   + plain_body(rng, cont, chan)
        case st.Out(beta, cont):
            return f"{chan}!<{_lit(beta)}>. " + plain_body(rng, cont, chan)
        case st.BraT(arms):
            inner = ", ".join(f"{l}: {plain_body(rng, c, chan)}" for l, c in arms)
            return f"{chan}>>{{{inner}, df: 0}}"
    raise AssertionError(ty)


def aggr_body(rng, ty, chan) -> str:
    ty = st.unfold(ty)
    match ty:
        case st.End():
            return "0"
        case st.In(beta, cont):
            return f"{chan}?(z{rng.randrange(1000)}). " + aggr_body(rng, cont, chan)
        case st.Out(beta, cont):
            return f"{chan}!<{_lit(beta)}>. " + aggr_body(rng, cont, chan)
        case st.SelT(arms):
            label, cont = arms[rng.randrange(len(arms))]
            return f"{chan}<<{label}. " + aggr_body(rng, cont, chan)
    raise AssertionError(ty)


def generate_program(seed: int) -> str:
    rng = random.Random(seed)
    proto = random_protocol(rng, rng.randint(1, 3))
    if isinstance(proto, st.End):
        proto = st.In(v.INT_T, st.END)
    k = rng.randint(1, 3)
    req = "req a(*c). " + aggr_body(rng, st.dual(proto), "*c")
    accs = "\n|| ".join(
        "[ acc a(c). " + plain_body(rng, proto, "c") + " ]" for _ in range(k)
    )
    return (f"type G = {render_type(proto)}\nshared a : G\n\n"
            f"[ {req} ]\n|| {accs}\n")
