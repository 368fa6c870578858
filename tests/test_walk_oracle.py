"""The expression and session-type walks that go through one generic view
(``values.subexprs`` / ``rebuild_expr``, ``sestypes.conts`` /
``rebuild_type``) against the per-constructor walks they replaced, kept
verbatim in ``walk_oracle``.

The inputs are every expression and session type of the corpus programs
(raw and recovery-encoded), of generated programs, of the states seeded
scheduler runs reach and of their typings' full contexts, and
hypothesis-generated types with recursion, type variables and nested
arms.

The last part checks interning against ``walk_oracle.term_eq``, the ``==``
terms had before: two terms of one class are one object exactly when that
``==`` calls them equal, on every term of those inputs and on a one-field
change of each."""

import functools
import glob
import itertools
import os
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import walk_oracle as oracle
from conftest import generate_program
from test_subst_oracle import processes
from test_type_memo import FAMILIES, _runs
from ubsc import checker as ck
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import render
from ubsc import sestypes as st
from ubsc import terms as t
from ubsc import values as v
from ubsc.syntax import parse

CORPUS = sorted(os.path.basename(f) for f in glob.glob(os.path.join(cp.corpus_dir(), "*.ubsc")))
BASES = [v.INT_T, v.BOOL_T, v.STR_T, v.UNIT_T, v.ANY_T,
         v.PairT(v.INT_T, v.ANY_T), v.SetT(v.PairT(v.INT_T, v.INT_T))]


# ------------------------------------------------------------ inputs

def _collect_process(p, exprs: set) -> None:
    stack = [p]
    while stack:
        q = stack.pop()
        _, es, kids = t.layer(q)
        exprs.update(es)
        stack.extend(k for _, k in kids)


def _collect_network(net, exprs: set) -> None:
    for nd in t.flatten_nodes(net)[1]:
        _collect_process(nd.process, exprs)


def _subexpressions(exprs) -> list:
    """Every expression in ``exprs`` and below, each once."""
    seen, stack = set(), list(exprs)
    while stack:
        e = stack.pop()
        if e not in seen:
            seen.add(e)
            match e:
                case v.BinOp(_, a, b) | v.TupleE(a, b):
                    stack += [a, b]
                case v.SetE(items) | v.Builtin(_, items):
                    stack += items
    return sorted(seen, key=render.render_expr)


def _subtypes(types) -> list:
    """Every session type in ``types`` and below, each once."""
    seen, stack = set(), list(types)
    while stack:
        ty = stack.pop()
        if ty not in seen:
            seen.add(ty)
            match ty:
                case st.Out(_, c) | st.In(_, c) | st.Rec(_, c):
                    stack.append(c)
                case st.SelT(arms) | st.BraT(arms):
                    stack += [x for _, x in arms]
    return sorted(seen, key=render.render_type)


def _program_inputs(prog, exprs: set, types: set) -> None:
    _collect_network(prog.network, exprs)
    _collect_network(eng.encode_network(prog.network), exprs)
    types.update(prog.type_decls.values())


@functools.lru_cache(maxsize=None)
def _inputs() -> dict:
    """Expressions and session types per input family."""
    out = {}
    exprs, types = set(), set()
    for name in CORPUS:
        _program_inputs(cp.load_program(name), exprs, types)
    out["corpus"] = (_subexpressions(exprs), _subtypes(types))
    exprs, types = set(), set()
    for seed in range(40):
        _program_inputs(parse(generate_program(seed)), exprs, types)
    out["generated"] = (_subexpressions(exprs), _subtypes(types))
    exprs, types = set(), set()
    for fname, seeds, steps, loss, bias, protocol_of in FAMILIES:
        prog = cp.load_program(fname)
        g = ck.Gamma(shared=prog.shared_types())
        for state in _runs(prog, seeds, steps, loss, bias):
            for nd in state.nodes:
                _collect_process(nd.process, exprs)
            res = ck.type_network(g, state.to_network(), protocols=protocol_of(state))
            types.update(ty for _, ty in (res.full_context or {}).values())
    out["reached"] = (_subexpressions(exprs), _subtypes(types))
    return out


FAMILIES_OF_INPUTS = ["corpus", "generated", "reached"]


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except Exception as exc:  # the kind of failure is part of the behaviour
        return "raise", type(exc), str(exc)


def test_inputs_cover_every_constructor():
    ekinds, tkinds = set(), set()
    for exprs, types in _inputs().values():
        ekinds.update(map(type, exprs))
        tkinds.update(map(type, types))
    assert ekinds == {v.Lit, v.Var, v.BinOp, v.TupleE, v.SetE, v.Builtin}
    assert tkinds == {st.End, st.Out, st.In, st.SelT, st.BraT}
    assert len(_inputs()["reached"][1]) >= 10


# ------------------------------------------------------------ expressions

def _check_expr(e) -> None:
    fv = oracle.fv_expr(e)
    assert v.fv_expr(e) == fv, e
    for name in sorted(fv) + ["zz"]:
        for repl in (v.Lit(v.IntV(7)), v.Var("w"), e):
            new = v.map_vars(e, {name}, lambda x: repl)
            old = oracle.subst_expr_var(e, name, repl)
            assert new == old and (new is e) == (old is e), (e, name)
    names = sorted(fv)
    envs = [{}, {"zz": "v9"}, {x: f"v{i}" for i, x in enumerate(names)},
            {x: x for x in names}, dict(itertools.islice(((x, "d0") for x in names), 1))]
    for env in envs:
        new, old = render._canon_expr(e, env), oracle._canon_expr(e, env)
        assert new == old and (new is e) == (old is e), (e, env)
        assert render.render_expr(new) == render.render_expr(old)


@pytest.mark.parametrize("family", FAMILIES_OF_INPUTS)
def test_expression_walks_match_oracle(family):
    exprs, _ = _inputs()[family]
    assert exprs
    for e in exprs:
        _check_expr(e)


def test_expression_walks_fail_alike():
    for bad in (3, None, t.Inact(), v.BinOp("+", v.Lit(v.IntV(1)), 3)):
        for f, args in ((v.fv_expr, ()), (v.map_vars, ({"x"}, lambda x: v.Var("y"))),
                        (v.map_vars, ({"x"}, v.Var))):
            with pytest.raises(v.EvalError):
                f(bad, *args)
        with pytest.raises(v.EvalError):
            oracle.fv_expr(bad)
        with pytest.raises(v.EvalError):
            oracle.subst_expr_var(bad, "x", v.Var("y"))


def test_map_vars_shares_untouched_subterms():
    e = v.BinOp("+", v.TupleE(v.Var("x"), v.Lit(v.IntV(1))), v.SetE((v.Var("y"), v.Var("z"))))
    out = v.map_vars(e, {"y"}, lambda x: v.Var(x + "'"))
    assert out == v.BinOp("+", e.left, v.SetE((v.Var("y'"), v.Var("z"))))
    assert out.left is e.left and out.right.items[1] is e.right.items[1]
    assert v.map_vars(e, {"q"}, v.Var) is e
    assert v.map_vars(e, {"x"}, lambda x: e.left.first) is e
    assert v.map_vars(e, {"x": 0}.keys(), lambda x: v.Lit(v.UNIT)).left.first == v.Lit(v.UNIT)


# ------------------------------------------------------------ session types

def _tvars(ty) -> list:
    return sorted({u.name for u in _subtypes([ty]) if type(u) in (st.TVar, st.Rec)})


def _wildcarded(ty):
    """``ty`` with every payload type the wildcard: equal to ``ty`` under
    ``types_equal``, and refined back to it by ``refine_session``."""
    match ty:
        case st.Out(_, c) | st.In(_, c):
            return type(ty)(v.ANY_T, _wildcarded(c))
        case st.SelT(arms) | st.BraT(arms):
            return type(ty)(tuple((l, _wildcarded(x)) for l, x in arms))
        case st.Rec(n, b):
            return st.Rec(n, _wildcarded(b))
    return ty


def _check_type(ty) -> None:
    assert _outcome(st.dual, ty) == _outcome(oracle.dual, ty), ty
    assert st.contractive(ty) == oracle.contractive(ty), ty
    for name in _tvars(ty) + ["Z"]:
        for repl in (st.END, ty, st.TVar("W")):
            new = _outcome(st._subst_tvar, ty, name, repl)
            assert new == _outcome(oracle._subst_tvar, ty, name, repl), (ty, name)
    assert _outcome(st.unfold, ty) == _outcome(oracle.unfold, ty), ty
    for n in range(3):
        assert _outcome(st.advance, ty, n) == _outcome(oracle.advance, ty, n), (ty, n)


def _check_pair(a, b) -> None:
    assert _outcome(st.types_equal, a, b) == _outcome(oracle.types_equal, a, b), (a, b)
    assert (_outcome(st.refine_session, a, b)
            == _outcome(oracle.refine_session, a, b)), (a, b)


def _relabelled(ty):
    """``ty`` with every arm label and every type variable renamed: the
    same shape, with tags that differ."""
    match ty:
        case st.TVar(n):
            return st.TVar(n + "2")
        case st.Out(b, c) | st.In(b, c):
            return type(ty)(b, _relabelled(c))
        case st.SelT(arms) | st.BraT(arms):
            return type(ty)(tuple((l + "2", _relabelled(x)) for l, x in arms))
        case st.Rec(n, b):
            return st.Rec(n, _relabelled(b))
    return ty


def _partners(ty) -> list:
    out = [ty, _wildcarded(ty), _relabelled(ty)]
    for f in (oracle.dual, oracle.unfold, lambda u: oracle.dual(oracle.dual(u))):
        kind, *val = _outcome(f, ty)
        if kind == "value":
            out.append(val[0])
    return out


@pytest.mark.parametrize("family", FAMILIES_OF_INPUTS)
def test_session_type_walks_match_oracle(family):
    _, types = _inputs()[family]
    assert types
    for ty in types:
        _check_type(ty)
        for other in _partners(ty):
            _check_pair(ty, other)
            _check_pair(other, ty)
    rng = random.Random(20)
    pairs = list(itertools.combinations(types, 2))
    for a, b in rng.sample(pairs, min(len(pairs), 3000)):
        _check_pair(a, b)


def test_session_type_walks_fail_alike():
    for bad in (3, None, st.Out(v.INT_T, 3), st.SelT((("a", t.Inact()),))):
        assert _outcome(st.dual, bad) == _outcome(oracle.dual, bad)
        assert _outcome(st.dual, bad)[1] is st.TypeSyntaxError
        assert st.contractive(bad) is oracle.contractive(bad) is False
        assert _outcome(st._subst_tvar, bad, "X", st.END)[1] is st.TypeSyntaxError
        for other in (bad, 4, st.END):
            _check_pair(bad, other)


# ------------------------------------------------------------ generated types

LABELS = ["a", "b", "c"]


@hs.composite
def session_types(draw, depth=4, bound=()):
    kinds = ["end"] + (["var"] * 2 if bound else []) + ["free"]
    if depth > 0:
        kinds += ["out", "in", "sel", "bra", "rec", "rec"]
    kind = draw(hs.sampled_from(kinds))
    if kind == "end":
        return st.END
    if kind == "var":
        return st.TVar(draw(hs.sampled_from(bound)))
    if kind == "free":
        return st.TVar("F")
    if kind in ("out", "in"):
        cls = st.Out if kind == "out" else st.In
        return cls(draw(hs.sampled_from(BASES)), draw(session_types(depth - 1, bound)))
    if kind == "rec":
        name = draw(hs.sampled_from(["X", "Y"]))
        return st.Rec(name, draw(session_types(depth - 1, bound + (name,))))
    labels = draw(hs.lists(hs.sampled_from(LABELS), min_size=1, max_size=3, unique=True))
    arms = st.mkarms([(l, draw(session_types(depth - 1, bound))) for l in labels])
    return (st.SelT if kind == "sel" else st.BraT)(arms)


@settings(max_examples=300, deadline=None)
@given(session_types(), session_types())
def test_generated_type_walks_match_oracle(a, b):
    _check_type(a)
    for other in _partners(a) + [b]:
        _check_pair(a, other)
        _check_pair(other, a)


@settings(max_examples=200, deadline=None)
@given(session_types())
def test_generated_type_and_its_copy_match_oracle(a):
    """Pairs that reach the arms and the unfolding: a type against a copy
    built apart, and against the copy with one payload made a wildcard."""
    copy = oracle._subst_tvar(a, "unused", st.END)
    _check_pair(a, copy)
    _check_pair(_wildcarded(a), copy)


# ------------------------------------------------------------ alternatives

def _reached_processes(networks, steps: int) -> set:
    """Every process and subprocess of the nodes that seeded runs (seeds
    0-2, ``steps`` steps each) of ``networks`` reach."""
    nodes = []
    for net in networks:
        for seed in range(3):
            cfg = eng.SchedulerConfig(seed=seed, loss_rate=0.3, recovery_bias=0.2,
                                      max_steps=steps)
            eng.run_scheduler(net, cfg, digests=False,
                              on_step=lambda state, step: nodes.extend(state.nodes))
    return {q for p in {nd.process for nd in nodes} for q in v.universe(p, t.subprocesses)}


def _alternatives_key(alternatives, p):
    """Each alternative of ``p``: its head, and its rebuild applied to the
    head and to 0; or the failure."""
    return _outcome(lambda: [(h, rb(h), rb(t.Inact())) for h, rb in alternatives(p)])


def _check_alternatives(p) -> bool:
    """Agreement with the oracle on ``p``; True when ``p`` has several heads."""
    new = _alternatives_key(eng.alternatives, p)
    assert new == _alternatives_key(oracle.alternatives, p), p
    return new[0] == "value" and len(new[1]) > 1


@pytest.mark.parametrize("family,steps,sums", [("corpus", 300, 200), ("generated", 50, 0)])
def test_alternatives_match_oracle(family, steps, sums):
    """A sum's alternatives come from ``terms.sum_alternatives`` in one
    loop; on every (sub)process the corpus programs and generated programs
    reach, the heads and their rebuilds are the recursive walk's.  The
    generated programs hold no sums."""
    if family == "corpus":
        nets = [cp.load_program(name).network for name in CORPUS]
    else:
        nets = [parse(generate_program(seed)).network for seed in range(40)]
    procs = _reached_processes(nets, steps)
    assert procs and sum(map(_check_alternatives, procs)) >= sums


@settings(max_examples=300, deadline=None)
@given(processes())
def test_generated_alternatives_match_oracle(p):
    """Generated processes nest sums under definitions, calls and one
    another."""
    for q in v.universe(p, t.subprocesses):
        _check_alternatives(q)


# ------------------------------------------------------------ interned terms

def _all_terms(roots) -> list:
    """Every term in ``roots`` and below, found through dataclass fields,
    tuples and sets; each object once."""
    seen, stack = {}, list(roots)
    while stack:
        x = stack.pop()
        if isinstance(x, v.Term):
            if id(x) not in seen:
                seen[id(x)] = x
                stack += oracle.fields_of(x)
        elif type(x) in (tuple, frozenset):
            stack += x
    return list(seen.values())


def _program_roots(prog) -> list:
    nodes = [nd for net in (prog.network, eng.encode_network(prog.network))
             for nd in t.flatten_nodes(net)[1]]
    return ([nd.process for nd in nodes] + [nd.buffers for nd in nodes]
            + list(prog.type_decls.values()) + list(prog.shared_types().values()))


@functools.lru_cache(maxsize=None)
def _term_inputs() -> dict:
    """Every term per input family: nodes' processes and buffers, declared
    and shared types, and for reached states their typings' full contexts."""
    out = {"corpus": _all_terms(r for name in CORPUS
                                for r in _program_roots(cp.load_program(name))),
           "generated": _all_terms(r for seed in range(40)
                                   for r in _program_roots(parse(generate_program(seed))))}
    roots = []
    for fname, seeds, steps, loss, bias, protocol_of in FAMILIES:
        prog = cp.load_program(fname)
        g = ck.Gamma(shared=prog.shared_types())
        for state in _runs(prog, seeds, steps, loss, bias):
            protos = protocol_of(state)
            roots += [nd.process for nd in state.nodes] + [nd.buffers for nd in state.nodes]
            roots += protos.values()
            res = ck.type_network(g, state.to_network(), protocols=protos)
            roots += [ty for _, ty in (res.full_context or {}).values()]
    out["reached"] = _all_terms(roots)
    return out


def _changed(f):
    """A field value changed in one place: a string primed, an integer plus
    one, a boolean negated, a term by :func:`_mutant`, a tuple or a set in
    its first part; None when nothing in it can change."""
    if type(f) is str:
        return f + "'"
    if type(f) is bool:
        return not f
    if type(f) is int:
        return f + 1
    if isinstance(f, v.Term):
        m = _mutant(f)
        return m and m[0]
    if type(f) is tuple and f:
        g = _changed(f[0])
        return None if g is None else (g, *f[1:])
    if type(f) is frozenset and f:
        first = min(f, key=repr)
        g = _changed(first)
        return None if g is None else (f - {first}) | {g}
    return None


def _mutant(x):
    """(``x`` with its first field that can change changed, its fields as
    given), or None when none can."""
    fs = oracle.fields_of(x)
    for i, f in enumerate(fs):
        g = _changed(f)
        if g is not None:
            given = (*fs[:i], g, *fs[i + 1:])
            return type(x)(*given), given
    return None


def _rebuilt(x):
    """``x`` built again from its fields, down to the leaves, in new tuples
    and sets."""
    if isinstance(x, v.Term):
        return type(x)(*map(_rebuilt, oracle.fields_of(x)))
    if type(x) in (tuple, frozenset):
        return type(x)(map(_rebuilt, x))
    return x


@pytest.mark.parametrize("family", FAMILIES_OF_INPUTS)
def test_terms_are_one_object_exactly_when_equal(family):
    """Pairs of one class: each term and its rebuilding, each term and its
    one-field change, each change and its rebuilding, and neighbours in
    ``repr`` order.  A change also keeps the fields it was given."""
    terms = _term_inputs()[family]
    pairs, by_class = [], defaultdict(list)
    for x in terms:
        by_class[type(x)].append(x)
        pairs.append((x, _rebuilt(x)))
        m = _mutant(x)
        if m is not None:
            mutant, given = m
            assert all(type(a) is type(b) and oracle._field_eq(a, b)
                       for a, b in zip(oracle.fields_of(mutant), given)), (x, mutant)
            pairs += [(x, mutant), (mutant, _rebuilt(mutant))]
    for xs in by_class.values():
        xs.sort(key=repr)
        pairs += zip(xs, xs[1:])
    same = 0
    for a, b in pairs:
        assert (a is b) == oracle.term_eq(a, b), (a, b)
        same += a is b
    assert len(by_class) >= 20 and same > 500 and len(pairs) - same > 500
