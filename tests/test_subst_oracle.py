"""Substitution on processes against the recursive walk it replaced, kept
verbatim in ``walk_oracle``: ``subst_channel``, ``subst_value``,
``subst_ident`` and call unfolding give the same interned object, or raise
a ``SubstError`` with the same message.

The inputs are every substitution that scheduler runs of the corpus
programs make, every binder of the generated programs and of their
subterms with each kind of replacement, and hypothesis-generated processes
over two names, so that binders shadow the substituted name at every
depth."""

import glob
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import walk_oracle as oracle
from conftest import generate_program
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import terms as t
from ubsc import values as v
from ubsc.syntax import parse

CORPUS = sorted(os.path.basename(f) for f in glob.glob(os.path.join(cp.corpus_dir(), "*.ubsc")))


def _outcome(f, *args):
    try:
        return f(*args)
    except t.SubstError as e:
        return ("SubstError", str(e))


def _subst_ident(p: t.Process, name: str, arg) -> t.Process:
    """The package's substitution of a call argument for a parameter: the
    unfolding of a one-argument call."""
    return t.subst_procvar(t.Call("D", (arg,)), "D", (name,), p)


def _agree(name: str, *args) -> None:
    mine = _subst_ident if name == "subst_ident" else getattr(t, name)
    new, old = _outcome(mine, *args), _outcome(getattr(oracle, name), *args)
    if type(new) is tuple or type(old) is tuple:
        assert new == old, (name, args)
    else:
        assert new is old, (name, args)


def _replacements(name: str) -> list:
    """(function, arguments) pairs substituting for ``name`` in every way a
    caller does: an endpoint of either polarity, a value, and a call
    argument of each kind."""
    args = [t.ChanVar("w", True), v.Var("w"), t.Endpoint("s#0", False),
            v.Lit(v.IntV(3)), v.BinOp("+", v.Var(name), v.Lit(v.IntV(1)))]
    return ([("subst_channel", (name, t.Endpoint("s#0", aggr))) for aggr in (True, False)]
            + [("subst_value", (name, v.IntV(7)))]
            + [("subst_ident", (name, a)) for a in args])


def _check_binders(p: t.Process) -> None:
    """Every substitution into the body of each binder in ``p``, and of
    every free name of each subterm."""
    stack = [p]
    while stack:
        q = stack.pop()
        _, _, kids = t.layer(q)
        for names, k in kids:
            for x in names:
                for fn, args in _replacements(x):
                    _agree(fn, k, *args)
        for x in t.process_facts(q)[2] | {"unused"}:
            for fn, args in _replacements(x):
                _agree(fn, q, *args)
        stack += [k for _, k in kids]


def test_scheduler_substitutions_match_oracle():
    """Every substitution scheduler runs of every corpus program make
    (seeds 0-2, 300 steps): Conn's endpoints, the values Rcv, Gthr and Rec
    bind, and the calls the runs unfold."""
    calls = set()

    def recording(name, real):
        def f(*args):
            calls.add((name, args))
            return real(*args)
        return f

    eng.alternatives.cache_clear()
    with mock.patch.object(t, "subst_channel", recording("subst_channel", t.subst_channel)), \
            mock.patch.object(eng, "_subst_value", recording("subst_value", t.subst_value)), \
            mock.patch.object(t, "subst_procvar", recording("subst_procvar", t.subst_procvar)):
        for name in CORPUS:
            for seed in range(3):
                eng.run_scheduler(cp.load_program(name).network,
                                  eng.SchedulerConfig(seed=seed, max_steps=300),
                                  digests=False)
    eng.alternatives.cache_clear()
    assert {name for name, _ in calls} == {"subst_channel", "subst_value", "subst_procvar"}
    assert len(calls) > 1000
    for name, args in calls:
        _agree(name, *args)


def test_generated_program_substitutions_match_oracle():
    for seed in range(40):
        for nd in t.flatten_nodes(parse(generate_program(seed)).network)[1]:
            _check_binders(nd.process)


# ------------------------------------------------------------ generated processes
# Two names, each both a channel variable and an expression variable, so
# that misuses and binders that shadow the substituted name come up at
# every depth.

NAMES = ["x", "y"]
CHANS = hs.one_of(hs.builds(t.ChanVar, hs.sampled_from(NAMES), hs.booleans()),
                  hs.builds(t.Endpoint, hs.just("s"), hs.booleans()))
EXPRS = hs.recursive(
    hs.one_of(hs.builds(v.Var, hs.sampled_from(NAMES)), hs.just(v.Lit(v.IntV(1)))),
    lambda kids: hs.builds(v.BinOp, hs.just("+"), kids, kids), max_leaves=3)


def processes():
    binder = hs.sampled_from(NAMES)
    leaf = hs.one_of(hs.just(t.Inact()),
                     hs.builds(t.Call, hs.sampled_from(["D", "E"]),
                               hs.lists(hs.one_of(CHANS, EXPRS), max_size=3).map(tuple)))

    def extend(kids):
        return hs.one_of(
            hs.builds(t.Send, CHANS, EXPRS, kids),
            hs.builds(t.Recv, CHANS, binder, EXPRS, kids),
            hs.builds(t.Select, CHANS, hs.just("l"), kids),
            hs.builds(t.Request, hs.just("a"), binder, kids),
            hs.builds(t.Accept, hs.just("a"), binder, kids),
            hs.builds(lambda c, p, q: t.Branch(c, (("l", p),), q), CHANS, kids, kids),
            hs.builds(t.Sum, kids, kids),
            hs.builds(t.Cond, EXPRS, kids, kids),
            hs.builds(lambda n, prm, d, b: t.Defs(((n, (prm,), d),), b),
                      hs.sampled_from(["D"] + NAMES), binder, kids, kids),
            hs.builds(t.Recover, kids, kids))

    return hs.recursive(leaf, extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(processes())
def test_generated_process_substitutions_match_oracle(p):
    for x in NAMES + ["unused"]:
        for fn, args in _replacements(x):
            _agree(fn, p, *args)
    for params, args in ((("x",), (t.ChanVar("y", False),)),
                         (("x", "y"), (v.Var("y"), t.Endpoint("s", True))),
                         (("y",), ())):
        _agree("subst_procvar", t.Call("D", args), "D", params, p)


# ------------------------------------------------------------ error order

def _deep(n: int):
    """A wrapper of a process in ``n`` selections on another channel."""
    def wrap(p: t.Process) -> t.Process:
        for _ in range(n):
            p = t.Select(t.ChanVar("d", False), "l", p)
        return p
    return wrap


C_AGGR, ONE = t.ChanVar("c", True), v.Lit(v.IntV(1))
C_EXPR, PLAIN = v.BinOp("+", v.Var("c"), ONE), t.Endpoint("s", False)
TWO_MISUSES = {
    "polarity at the head, expression below": (
        "subst_channel", lambda d: d(t.Send(C_AGGR, ONE, d(t.Send(PLAIN, C_EXPR, t.Inact())))),
        ("c", PLAIN), "polarity mismatch substituting s for *c"),
    "expression at the head, polarity below": (
        "subst_channel",
        lambda d: d(t.Recv(PLAIN, "y", C_EXPR, d(t.Select(C_AGGR, "l", t.Inact())))),
        ("c", PLAIN), "channel variable c used as an expression"),
    "a call's channel argument before its expression argument": (
        "subst_channel", lambda d: d(t.Call("D", (C_EXPR, C_AGGR))),
        ("c", PLAIN), "polarity mismatch substituting s for *c"),
    "a call's value in channel position": (
        "subst_value", lambda d: d(t.Call("D", (C_EXPR, t.ChanVar("c", False)))),
        ("c", v.IntV(7)), "value substituted for channel position c"),
    "a guard before its arms": (
        "subst_channel", lambda d: d(t.Cond(C_EXPR, t.Send(C_AGGR, ONE, t.Inact()), t.Inact())),
        ("c", PLAIN), "channel variable c used as an expression"),
}


@pytest.mark.parametrize("fn, build, args, message", TWO_MISUSES.values(), ids=list(TWO_MISUSES))
def test_the_first_misuse_decides_the_error(fn, build, args, message):
    """Of two misuses of the substituted name, the one the recursive walk
    meets first is reported: channel fields before expression fields, and a
    prefix before its continuation.  So it is on a chain too deep for that
    walk."""
    _agree(fn, build(_deep(20)), *args)
    assert _outcome(getattr(t, fn), build(_deep(20)), *args) == ("SubstError", message)
    assert _outcome(getattr(t, fn), build(_deep(5_000)), *args) == ("SubstError", message)
