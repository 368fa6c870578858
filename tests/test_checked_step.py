"""A checked step re-derives nothing the state already knows.

``RunState.to_network`` builds one network per state, and that network
carries its flattened parts, so ``flatten_nodes`` does not walk it again.
Type text, protocol candidates, buffer typings, closed expression types and
definition checks are memoised on the terms they read.  Each memo is checked
here against the computation it replaces; the carried parts are checked
against the walk over an equal network that carries nothing."""

import dataclasses
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import generate_program, in_fresh_process
from test_type_memo import FAMILIES, P3_T, _fields, _runs
from ubsc import checker as ck
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import render
from ubsc import safety as sf
from ubsc import sestypes as st
from ubsc import terms as t
from ubsc import values as v
from ubsc.syntax import parse, parse_network, parse_process, parse_type
from ubsc.terms import Endpoint

CORPUS_PROGRAMS = sorted(f for f in os.listdir(cp.corpus_dir()) if f.endswith(".ubsc"))
FAMILY_PROTOCOLS = {fname: protos for fname, _, _, _, _, protos in FAMILIES}


# ------------------------------------------------------------ carried flatten

def _uncarried(state):
    """A network equal to ``state.to_network()`` that carries nothing: new
    node objects, so that not even a lone node carries parts."""
    return t.restrict_all(state.restricted,
                          t.par_all([dataclasses.replace(nd) for nd in state.nodes]))


def _states(network, seed, steps):
    cfg = eng.SchedulerConfig(seed=seed, loss_rate=0.3, recovery_bias=0.2, max_steps=steps)
    out = [eng.RunState.from_network(eng.encode_network(network))]
    eng.run_scheduler(network, cfg, digests=False,
                      on_step=lambda state, step: out.append(state))
    return out


def _assert_carried_matches_walk(states, gamma, protocol_of, monkeypatch):
    walked = []
    free_names = t.free_names
    monkeypatch.setattr(t, "free_names", lambda n: walked.append(n) or free_names(n))
    for state in states:
        net, plain = state.to_network(), _uncarried(state)
        assert net is state.to_network()
        assert net == plain
        walked.clear()
        carried = t.flatten_nodes(net)
        assert carried == (state.restricted, state.nodes) and walked == []
        assert t.flatten_nodes(plain) == carried
        protos = protocol_of(state)
        assert (_fields(ck.type_network(gamma, net, protocols=protos))
                == _fields(ck.type_network(gamma, plain, protocols=protos)))
        assert sf.is_error_network(net) == sf.is_error_network(plain)


@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
def test_carried_flatten_matches_the_walk_on_corpus_runs(name, monkeypatch):
    prog = cp.load_program(name)
    states = [s for seed in (0, 1, 2) for s in _states(prog.network, seed, 150)]
    _assert_carried_matches_walk(states, ck.Gamma(shared=prog.shared_types()),
                                 FAMILY_PROTOCOLS.get(name, lambda state: None),
                                 monkeypatch)


def test_carried_flatten_matches_the_walk_on_generated_programs(monkeypatch):
    for gseed in range(8):
        prog = parse(generate_program(gseed))
        T = prog.shared_types()["a"]
        _assert_carried_matches_walk(
            _states(prog.network, gseed, 150), ck.Gamma(shared=prog.shared_types()),
            lambda state: {**{s: T for s in state.restricted}, "a": T}, monkeypatch)


HB_NODES = parse_network('[ *s!<"hbt">. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ]')


def test_repeated_restricted_names_are_walked_and_renamed():
    nodes = t.flatten_nodes(HB_NODES)[1]
    restricted, renamed = t.flatten_nodes(eng.RunState(("s", "s"), nodes).to_network())
    assert restricted == ("s", "s#h1")
    assert [b.ep.session for nd in renamed for b in nd.buffers] == ["s#h1", "s#h1"]


def test_restricted_name_that_is_a_free_variable_is_walked_and_renamed():
    node = parse_network("[ *s!<x>. 0 | *s~0:[] ]")
    assert t.flatten_nodes(eng.RunState(("x", "s"), (node,)).to_network()) == (
        ("x#h1", "s"), (node,))


@pytest.mark.parametrize("restricted", [(), ("s",)])
def test_state_without_nodes_flattens_to_the_inactive_node(restricted):
    assert t.flatten_nodes(eng.RunState(restricted, ()).to_network()) == (
        restricted, (t.NetworkNode(t.Inact(), ()),))


# ------------------------------------------------------------ buffer typing

def test_buffer_typing_is_memoised_and_fails_alike():
    ok = parse_network('[ 0 | *s~0:[(0, 1), (1, 2)] ]').buffers[0]
    assert ck.type_buffer(ck.Gamma(), ok) is ck.type_buffer(ck.Gamma(vars={"y": v.INT_T}), ok)
    bad = parse_network('[ 0 | *s~0:[(0, 1), (0, "x")] ]').buffers[0]
    errors = []
    for _ in range(2):
        with pytest.raises(ck.TypeFail) as exc:
            ck.type_buffer(ck.Gamma(), bad)
        errors.append(exc.value)
    assert errors[0] is not errors[1]
    assert [(e.rule, e.reason, e.where) for e in errors] == [
        ("LExp", errors[0].reason, "*s")] * 2


def _buffer_work(steps: int = 600) -> list:
    """The buffer typings worked out at each step of a checked paxos5 run."""
    body, count, per_step = ck._type_buffer_body, [0], []

    def counted(b):
        count[0] += 1
        return body(b)

    ck._type_buffer_body = counted
    prog = cp.load_program("paxos5.ubsc")
    g, T = ck.Gamma(shared=prog.shared_types()), parse_type(P3_T)

    def check(state, step):
        before = count[0]
        res = ck.type_network(g, state.to_network(),
                              protocols={**{s: T for s in state.restricted}, "a": T})
        assert res.ok, (step, res.render())
        assert sf.is_error_network(state.to_network()).verdict == "ok"
        per_step.append(count[0] - before)

    try:
        eng.run_scheduler(prog.network, eng.SchedulerConfig(
            seed=26508, loss_rate=0.3, recovery_bias=0.2, max_steps=steps),
            digests=False, on_step=check)
    finally:
        ck._type_buffer_body = body
    return per_step


def test_type_buffer_work_stays_flat_over_a_long_checked_run():
    """A 600-step checked paxos5 run types each new buffer once: the buffer
    typings worked out in its last 100 steps stay within 1.5 times those of
    its first 100 steps, although finished sessions' buffers pile up.  The
    run has a fresh process to itself: buffers are interned, so in a process
    where earlier tests built them they would already hold their typing."""
    per_step = in_fresh_process("test_checked_step", "_buffer_work()")
    assert len(per_step) == 600
    first, last = sum(per_step[:100]), sum(per_step[-100:])
    assert 0 < last <= 1.5 * first, (first, last)


# ------------------------------------------------------------ type text

def _subterms(ty):
    yield ty
    match ty:
        case st.Out(_, c) | st.In(_, c) | st.Rec(_, c):
            yield from _subterms(c)
        case st.SelT(arms) | st.BraT(arms):
            for _, c in arms:
                yield from _subterms(c)


def _bases(b):
    yield b
    match b:
        case v.PairT(x, y):
            yield from _bases(x)
            yield from _bases(y)
        case v.SetT(e):
            yield from _bases(e)


def test_type_text_memo_matches_a_fresh_rendering():
    """Every session type met in the criterion-4 family runs (contexts and
    candidates, with their subterms), and among the candidates of the
    declared protocols of the corpus and of generated programs 0-39,
    renders as the unmemoised function renders it; so does every payload
    type in them.  Types are interned, so each counts once."""
    met = {}

    def meet(types):
        for ty in types:
            met.update((id(sub), sub) for sub in _subterms(ty))

    def candidates(T):
        return [ty for pos in range(4) for aggr in (False, True)
                for ty in ck._protocol_candidates(T, aggr, pos)]

    for fname, seeds, steps, loss, bias, protocol_of in FAMILIES:
        prog = cp.load_program(fname)
        g = ck.Gamma(shared=prog.shared_types())
        for state in _runs(prog, seeds, steps, loss, bias):
            protos = protocol_of(state)
            res = ck.type_network(g, state.to_network(), protocols=protos)
            meet(ty for _, ty in res.full_context.values())
            for T in set(protos.values()):
                meet(candidates(T))
    for prog in ([cp.load_program(f) for f in CORPUS_PROGRAMS]
                 + [parse(generate_program(seed)) for seed in range(40)]):
        for T in {**prog.type_decls, **prog.shared_types()}.values():
            meet(candidates(T))
    assert len(met) > 50
    bases = {}
    for ty in met.values():
        assert render.render_type(ty) == render.render_type.__wrapped__(ty)
        if isinstance(ty, (st.Out, st.In)):
            bases.update((id(b), b) for b in _bases(ty.beta))
    for b in bases.values():
        assert render.render_base(b) == render.render_base.__wrapped__(b)


# ------------------------------------------------------------ candidates

CANDIDATE_PROTOCOLS = [P3_T, "?str.end", "!str.!str.end", "?int.?int.end", "?int.!int.end",
                       "rec X. ?int. &{go: !int. X, stop: end}"]


@pytest.mark.parametrize("text", CANDIDATE_PROTOCOLS)
def test_protocol_candidates_match_the_sorted_advance(text):
    T = parse_type(text)
    for aggr in (False, True):
        side = st.dual(T) if aggr else T
        for pos in range(6):
            want = sorted(st.advance(side, pos), key=render.render_type.__wrapped__)
            got = ck._candidate_start_types(Endpoint("s", aggr), pos, {"s": T}, {}, {})
            assert got == want
            got.append(st.END)
            got.reverse()
            assert ck._candidate_start_types(Endpoint("s", aggr), pos, {"s": T}, {}, {}) == want


# ------------------------------------------------------------ types_equal

_BASE = hs.recursive(
    hs.sampled_from([("int",), ("bool",), ("str",), ("unit",), ("any",)]),
    lambda sub: hs.tuples(hs.just("pair"), sub, sub) | hs.tuples(hs.just("set"), sub),
    max_leaves=3)


def _prefixes(sub):
    arms = hs.dictionaries(hs.sampled_from(["l1", "l2", "l3"]), sub, min_size=1, max_size=3)
    return (hs.tuples(hs.sampled_from(["out", "in"]), _BASE, sub)
            | hs.tuples(hs.sampled_from(["sel", "bra"]), arms.map(lambda d: sorted(d.items()))))


# recursion bodies start with a prefix: the parser admits contractive types only
_TYPE = hs.recursive(
    hs.just(("end",)) | hs.tuples(hs.just("var"), hs.sampled_from(["X", "Y"])),
    lambda sub: _prefixes(sub) | hs.tuples(hs.just("rec"), hs.sampled_from(["X", "Y"]),
                                           _prefixes(sub)),
    max_leaves=8)


def _build_base(r):
    match r:
        case ("pair", a, b):
            return v.PairT(_build_base(a), _build_base(b))
        case ("set", e):
            return v.SetT(_build_base(e))
    return {"int": v.IntT, "bool": v.BoolT, "str": v.StrT, "unit": v.UnitT,
            "any": v.AnyT}[r[0]]()


def _build(r):
    """A session type built afresh from its description, down to the leaves."""
    match r:
        case ("end",):
            return st.End()
        case ("var", n):
            return st.TVar(n)
        case ("out", b, c):
            return st.Out(_build_base(b), _build(c))
        case ("in", b, c):
            return st.In(_build_base(b), _build(c))
        case ("sel", arms):
            return st.SelT(tuple((l, _build(c)) for l, c in arms))
        case ("bra", arms):
            return st.BraT(tuple((l, _build(c)) for l, c in arms))
        case ("rec", n, body):
            return st.Rec(n, _build(body))
    raise AssertionError(r)


@settings(max_examples=300, deadline=None)
@given(_TYPE)
def test_types_equal_on_itself_agrees_with_an_equal_copy(recipe):
    a, b = _build(recipe), _build(recipe)
    assert a is b and st.types_equal(a, b)


# ------------------------------------------------------------ closed expressions

def test_closed_ill_typed_expression_fails_alike_twice():
    p = parse_process("*s!<size(1)>. 0")
    delta = {Endpoint("s", True): st.Out(v.INT_T, st.END)}
    errors = [ck.type_process(ck.Gamma(), delta, p).error for _ in range(2)]
    assert errors[0] is not errors[1]
    assert [(e.rule, e.reason, e.where) for e in errors] == [
        ("TExpr", "size over non-set int", "*s!<size(1)>. 0")] * 2
    messages = []
    for _ in range(2):
        with pytest.raises(v.ExprTypeError) as exc:
            v.type_expr({}, p.expr)
        messages.append(str(exc.value))
    assert messages == ["size over non-set int"] * 2


def test_closed_expression_types_match_the_unmemoised_typing():
    """Every payload and guard of the paxos5 program's reached states types
    as the typing without the closed memo does, under no variables."""
    exprs = {}
    for state in _states(cp.load_program("paxos5.ubsc").network, 0, 80):
        for nd in state.nodes:
            stack = [nd.process]
            while stack:
                p = stack.pop()
                _, es, kids = t.layer(p)
                exprs.update((id(e), e) for e in es if not v.fv_expr(e))
                stack += [k for _, k in kids]
    assert len(exprs) > 20
    for e in exprs.values():
        assert v.type_expr({"x": v.BOOL_T}, e) == v._type_expr({}, e)


# ------------------------------------------------------------ definition checks

DEF_OK = "def D(c) = *c!<1>. 0 in D(*s)"
DEF_BAD = "def D(c) = *c!<true>. 0 in D(*s)"


def _def_checks(text):
    delta = {Endpoint("s", True): st.Out(v.INT_T, st.END)}
    res = ck.type_process(ck.Gamma(), delta, parse_process(text))
    err = res.error
    return res.ok, res.trace, err and (err.rule, err.reason, err.where)


@pytest.mark.parametrize("text", [DEF_OK, DEF_BAD])
def test_definition_checks_replay_from_their_slot(text):
    ck._def_slot.cache_clear()
    cold = _def_checks(text)
    assert ck._def_slot.cache_info().misses == 1
    assert _def_checks(text) == cold
    assert ck._def_slot.cache_info().hits == 1
    assert cold[0] == (text == DEF_OK)


def _warm_and_cold(first, second):
    """The render and trace of ``second``, a (process text, shared types,
    linear types) check, after ``first`` in the same slots, and from empty
    slots."""
    def typed(text, shared, delta):
        gamma = ck.Gamma(shared={a: parse_type(ty) for a, ty in shared.items()})
        res = ck.type_process(gamma, {Endpoint(s, False): parse_type(ty)
                                      for s, ty in delta.items()}, parse_process(text))
        return res.render(), res.trace

    ck._def_slot.cache_clear()
    assert typed(*first)[0] == "Ok, residual: (empty)"
    warm = typed(*second)
    ck._def_slot.cache_clear()
    return warm, typed(*second)


def test_definition_checks_read_the_shared_channels():
    """A definition body checked under one type of a shared channel is
    checked again under another."""
    text = "def D(x) = req a(*y). *y!<x>. 0 in D(1)"
    warm, cold = _warm_and_cold((text, {"a": "?int.end"}, {}),
                                (text, {"a": "?str.end"}, {}))
    assert warm == cold
    assert cold[0] == "Fail TExpr: expected payload type str, got int (at *y!<x>. 0)"


def test_definition_replay_restores_the_signatures_it_seeded():
    """Replaying ``A``'s check seeds ``B``'s signature as the check did, so
    a later call of ``B`` is held to it."""
    defs = "def A(c) = B(c), B(d) = d?(x). 0 in "
    warm, cold = _warm_and_cold(
        (defs + "A(s1)", {}, {"s1": "?int.end"}),
        (defs + "if true then A(s1) else B(s2)", {}, {"s1": "?int.end", "s2": "?str.end"}))
    assert warm == cold
    assert cold[0] == "Fail TVar: B: channel argument s2 type mismatch"


def test_definition_slots_are_bounded():
    maxsize = ck._def_slot.cache_info().maxsize
    ck._def_slot.cache_clear()
    for k in range(maxsize + 5):
        _def_checks(f"def D(c) = *c!<{k}>. 0 in D(*s)")
    assert ck._def_slot.cache_info().currsize == maxsize


# ------------------------------------------------------------ work gauge

def test_checked_steps_render_nothing_until_read(monkeypatch):
    """A criterion-4 paxos5 job (seed 7, which takes the pinned retry),
    50 checked steps of ``type_network``, ``advances_to`` and
    ``is_error_network`` on ``state.to_network()``, formats no stated
    context in the checker and renders no node for the normal order.  Read
    afterwards, every judgment and every report equals the oracles'."""
    import safety_oracle
    import type_oracle

    formatted = []
    fmt = ck.render_stated_context
    monkeypatch.setattr(ck, "render_stated_context",
                        lambda ctx: formatted.append(ctx) or fmt(ctx))
    prog = cp.load_program("paxos5.ubsc")
    g, T = ck.Gamma(shared=prog.shared_types()), parse_type(P3_T)
    checked = []  # (network, protocols, pin, typing, report)

    def check(state, step):
        net, protos = state.to_network(), {**{s: T for s in state.restricted}, "a": T}
        cur, pin = ck.type_network(g, net, protocols=protos), None
        assert cur.ok
        if checked and not st.advances_to(checked[-1][3].full_context, cur.full_context):
            prev = checked[-1][3].full_context
            for pin in [dict(prev)] + st.context_advance(prev):
                cur = ck.type_network(g, net, protocols=protos, pin=pin)
                if cur.ok:
                    break
            assert cur.ok
        report = sf.is_error_network(net)
        assert report.verdict == "ok"
        checked.append((net, protos, pin, cur, report))

    ck._node_typing.cache_clear()
    rendered = eng._node_render.cache_info()
    eng.run_scheduler(prog.network, eng.SchedulerConfig(
        seed=7, loss_rate=0.3, recovery_bias=0.2, max_steps=50),
        digests=False, on_step=check)
    assert len(checked) == 50 and any(pin is not None for _, _, pin, _, _ in checked)
    assert formatted == []
    info = eng._node_render.cache_info()
    assert (info.hits, info.misses) == (rendered.hits, rendered.misses)
    for net, protos, pin, cur, report in checked:
        want = type_oracle.type_network(g, net, protocols=protos, pin=pin)
        assert ([(a.rule, a.subject, a.delta_size, a.judgment) for a in cur.trace]
                == [(a.rule, a.subject, a.delta_size, a.judgment) for a in want.trace])
        assert (cur.residual, cur.full_context) == (want.residual, want.full_context)
        assert report.classification == safety_oracle.is_error_network(net).classification
        assert report == safety_oracle.is_error_network(net)
    assert formatted
