import copy
import dataclasses
import functools
import gc
import glob
import os

import pytest

import canon_oracle
from conftest import generate_program, in_fresh_process
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import render
from ubsc import sestypes as st
from ubsc import terms as t
from ubsc import values as v
from ubsc.syntax import parse, parse_network, parse_process


def test_free_names_request_binds():
    p = t.Request("a", "x", t.Send(t.ChanVar("x", True), v.Lit(v.IntV(1)), t.Inact()))
    assert t.free_names(p) == {"a"}


def test_free_names_node():
    n = parse_network("[ s?(x) def 1. 0 | s~0:[] ]")
    assert t.free_names(n) == {"s"}


def test_free_names_restriction_binds():
    n = parse_network("new s. [ s?(x). 0 | s~0:[] ]")
    assert t.free_names(n) == set()


def test_flatten_renames_past_a_taken_fresh_name():
    """An inner ``new s`` under an outer one is renamed apart; ``s#h1`` is
    free elsewhere, so it becomes ``s#h2``."""
    def node(s):
        ep = t.Endpoint(s, False)
        return t.NetworkNode(t.Send(ep, v.Lit(v.IntV(1)), t.Inact()), (t.Buffer(ep, 0, ()),))

    net = t.Restrict(("s",), t.Par((node("s"), t.Restrict(("s",), node("s")), node("s#h1"))))
    assert t.flatten_nodes(net) == (("s", "s#h2"), (node("s"), node("s#h2"), node("s#h1")))


def test_subst_channel():
    p = parse_process("x!<1>. 0")
    # x parses as an endpoint at top level; build the variable form directly
    p = t.Send(t.ChanVar("x", False), v.Lit(v.IntV(1)), t.Inact())
    out = t.subst_channel(p, "x", t.Endpoint("s", False))
    assert out == t.Send(t.Endpoint("s", False), v.Lit(v.IntV(1)), t.Inact())


def test_subst_channel_shadowed():
    p = t.Request("a", "x", t.Send(t.ChanVar("x", True), v.Lit(v.IntV(1)), t.Inact()))
    assert t.subst_channel(p, "x", t.Endpoint("s", True)) == p


def test_subst_channel_polarity_mismatch():
    p = t.Send(t.ChanVar("x", True), v.Lit(v.IntV(1)), t.Inact())
    with pytest.raises(t.SubstError):
        t.subst_channel(p, "x", t.Endpoint("s", False))


def test_subst_connection_shape():
    # the connection rule applies the aggregator substitution to the requester
    body = t.Send(t.ChanVar("y", True), v.Lit(v.StrV("hbt")), t.Inact())
    out = t.subst_channel(body, "y", t.Endpoint("s", True))
    assert out.chan == t.Endpoint("s", True)


def test_subst_procvar():
    body = t.Send(t.Endpoint("s", False), v.Var("x"), t.Inact())
    p = t.Call("D", (v.Lit(v.IntV(5)),))
    out = t.subst_procvar(p, "D", ("x",), body)
    assert out == t.Send(t.Endpoint("s", False), v.Lit(v.IntV(5)), t.Inact())


def test_subst_procvar_substitutes_all_arguments_at_once():
    """An argument that names another parameter is not substituted again:
    ``D(b, 1)`` with ``D(a, b) = s!<a + b>`` sends ``b + 1``, and a call
    ``D(*w, *c)`` of ``D(c, w)`` swaps the two channel variables."""
    body = t.Send(t.Endpoint("s", False), v.BinOp("+", v.Var("a"), v.Var("b")), t.Inact())
    out = t.subst_procvar(t.Call("D", (v.Var("b"), v.Lit(v.IntV(1)))), "D", ("a", "b"), body)
    assert out == t.Send(t.Endpoint("s", False), v.BinOp("+", v.Var("b"), v.Lit(v.IntV(1))),
                         t.Inact())
    body = t.Send(t.ChanVar("c", True), v.Lit(v.IntV(1)), t.Call("D", (t.ChanVar("w", False),
                                                                        t.ChanVar("c", True))))
    out = t.subst_procvar(t.Call("D", (t.ChanVar("w", True), t.ChanVar("c", True))),
                          "D", ("c", "w"), body)
    assert out == t.Send(t.ChanVar("w", True), v.Lit(v.IntV(1)),
                         t.Call("D", (t.ChanVar("c", False), t.ChanVar("w", True))))


def test_subst_procvar_unrelated_untouched():
    p = t.Call("E", (v.Lit(v.IntV(1)),))
    assert t.subst_procvar(p, "D", ("x",), t.Inact()) == p


def test_subst_procvar_arity():
    with pytest.raises(t.SubstError):
        t.subst_procvar(t.Call("D", ()), "D", ("x",), t.Inact())


def test_alpha_equivalence():
    a = parse_process("req a(*x). *x!<1>. 0")
    b = parse_process("req a(*y). *y!<1>. 0")
    assert render.canon_process(a) == render.canon_process(b)
    c = parse_process("req a(*y). *y!<2>. 0")
    assert render.canon_process(a) != render.canon_process(c)


def test_alpha_is_equivalence_and_subst_commutes():
    a = parse_process("acc a(x). x?(w) def 1. 0")
    b = parse_process("acc a(z). z?(q) def 1. 0")
    assert render.canon_process(a) == render.canon_process(b)
    # substituting a free channel commutes with renaming of bound ones
    p1 = t.Send(t.ChanVar("u", False), v.Lit(v.IntV(1)),
                t.Recv(t.ChanVar("u", False), "w", v.Lit(v.UNIT), t.Inact()))
    s1 = t.subst_channel(p1, "u", t.Endpoint("s", False))
    assert render.canon_process(s1) == render.canon_process(
        parse_process("s!<1>. s?(w). 0"))


def test_free_names_after_subst():
    p = t.Send(t.ChanVar("x", False), v.Lit(v.IntV(1)), t.Inact())
    out = t.subst_channel(p, "x", t.Endpoint("s", False))
    assert t.free_names(p) == {"x"}
    assert t.free_names(out) == {"s"}


def test_buffer_polarity_enforced():
    with pytest.raises(ValueError):
        t.Buffer(t.Endpoint("s", False), 0, (t.TaggedMsg(0, v.IntV(1)),))
    with pytest.raises(ValueError):
        t.Buffer(t.Endpoint("s", True), 0, (t.ValMsg(v.IntV(1)),))


def test_free_names_substitution_law():
    # substituting a fresh endpoint removes the variable and adds the session
    cases = [
        t.Send(t.ChanVar("x", False), v.Lit(v.IntV(1)),
               t.Recv(t.ChanVar("x", False), "w", v.Lit(v.UNIT), t.Inact())),
        t.Cond(v.BinOp(">", v.Var("n"), v.Lit(v.IntV(0))),
               t.Send(t.ChanVar("x", False), v.Var("n"), t.Inact()),
               t.Inact()),
        t.Branch(t.ChanVar("x", False), (("l", t.Inact()),), t.Inact()),
    ]
    for p in cases:
        before = t.free_names(p)
        assert "x" in before
        after = t.free_names(t.subst_channel(p, "x", t.Endpoint("s", False)))
        assert after == (before - {"x"}) | {"s"}


# ------------------------------------------------------------------ oracle
# The hand-written walks that the generic layer/rebuild traversal replaced,
# kept verbatim as the reference the new walks must agree with.

from ubsc.terms import (Accept, Branch, Call, Chan, ChanVar, Cond, Defs, Endpoint,
                        Inact, Process, Recover, Recv, Request, Select, Send, Sum)
from ubsc.values import Expr, fv_expr


def _free_process(p: Process, sessions: set, shared: set, varnames: set, bound: set):
    """Accumulate free names of ``p``; ``bound`` holds variable and definition
    names currently in scope."""

    def expr_free(e: Expr):
        for x in fv_expr(e):
            if x not in bound:
                varnames.add(x)

    def chan_free(ch: Chan):
        if isinstance(ch, Endpoint):
            sessions.add(ch.session)
        elif ch.name not in bound:
            varnames.add(ch.name)

    match p:
        case Inact():
            return
        case Request(a, x, body) | Accept(a, x, body):
            shared.add(a)
            _free_process(body, sessions, shared, varnames, bound | {x})
        case Send(ch, e, body):
            chan_free(ch)
            expr_free(e)
            _free_process(body, sessions, shared, varnames, bound)
        case Recv(ch, x, d, body):
            chan_free(ch)
            expr_free(d)
            _free_process(body, sessions, shared, varnames, bound | {x})
        case Select(ch, _, body):
            chan_free(ch)
            _free_process(body, sessions, shared, varnames, bound)
        case Branch(ch, arms, default_arm):
            chan_free(ch)
            for _, ap in arms:
                _free_process(ap, sessions, shared, varnames, bound)
            _free_process(default_arm, sessions, shared, varnames, bound)
        case Sum(l, r):
            _free_process(l, sessions, shared, varnames, bound)
            _free_process(r, sessions, shared, varnames, bound)
        case Cond(g, t, e):
            expr_free(g)
            _free_process(t, sessions, shared, varnames, bound)
            _free_process(e, sessions, shared, varnames, bound)
        case Defs(defs, body):
            names = {n for n, _, _ in defs}
            for _, params, dbody in defs:
                _free_process(dbody, sessions, shared, varnames, bound | names | set(params))
            _free_process(body, sessions, shared, varnames, bound | names)
        case Call(name, args):
            if name not in bound:
                varnames.add(name)
            for a in args:
                if isinstance(a, (Endpoint, ChanVar)):
                    chan_free(a)
                else:
                    expr_free(a)
        case Recover(body, handler):
            _free_process(body, sessions, shared, varnames, bound)
            _free_process(handler, sessions, shared, varnames, bound)
        case _:
            raise TypeError(f"not a process: {p!r}")


def free_chans(p: Process) -> set:
    """Free channel references (endpoints and channel variables) of a process.
    This is the ``fs`` function used by the drop side conditions."""
    out: set = set()

    def go(p: Process, bound: set):
        def chan(ch: Chan):
            if isinstance(ch, Endpoint) or ch.name not in bound:
                out.add(ch)

        match p:
            case Inact():
                pass
            case Request(_, x, body) | Accept(_, x, body):
                go(body, bound | {x})
            case Send(ch, _, body) | Select(ch, _, body):
                chan(ch)
                go(body, bound)
            case Recv(ch, x, _, body):
                chan(ch)
                go(body, bound | {x})
            case Branch(ch, arms, default_arm):
                chan(ch)
                for _, ap in arms:
                    go(ap, bound)
                go(default_arm, bound)
            case Sum(l, r):
                go(l, bound)
                go(r, bound)
            case Cond(_, t, e):
                go(t, bound)
                go(e, bound)
            case Defs(defs, body):
                names = {n for n, _, _ in defs}
                for _, params, dbody in defs:
                    go(dbody, bound | names | set(params))
                go(body, bound | names)
            case Call(_, args):
                for a in args:
                    if isinstance(a, (Endpoint, ChanVar)):
                        chan(a)
            case Recover(body, handler):
                go(body, bound)
                go(handler, bound)

    go(p, set())
    return out


def _map_process(p: Process, on_chan, on_expr, bound: set):
    """Capture-aware structural map over channel references and expressions.
    ``on_chan``/``on_expr`` receive the current bound-variable set."""
    match p:
        case Inact():
            return p
        case Request(a, x, body):
            return Request(a, x, _map_process(body, on_chan, on_expr, bound | {x}))
        case Accept(a, x, body):
            return Accept(a, x, _map_process(body, on_chan, on_expr, bound | {x}))
        case Send(ch, e, body):
            return Send(on_chan(ch, bound), on_expr(e, bound),
                        _map_process(body, on_chan, on_expr, bound))
        case Recv(ch, x, d, body):
            return Recv(on_chan(ch, bound), x, on_expr(d, bound),
                        _map_process(body, on_chan, on_expr, bound | {x}))
        case Select(ch, l, body):
            return Select(on_chan(ch, bound), l, _map_process(body, on_chan, on_expr, bound))
        case Branch(ch, arms, default_arm):
            return Branch(
                on_chan(ch, bound),
                tuple((l, _map_process(ap, on_chan, on_expr, bound)) for l, ap in arms),
                _map_process(default_arm, on_chan, on_expr, bound),
            )
        case Sum(l, r):
            return Sum(_map_process(l, on_chan, on_expr, bound),
                       _map_process(r, on_chan, on_expr, bound))
        case Cond(g, t, e):
            return Cond(on_expr(g, bound),
                        _map_process(t, on_chan, on_expr, bound),
                        _map_process(e, on_chan, on_expr, bound))
        case Defs(defs, body):
            names = {n for n, _, _ in defs}
            new_defs = tuple(
                (n, params, _map_process(b, on_chan, on_expr, bound | names | set(params)))
                for n, params, b in defs
            )
            return Defs(new_defs, _map_process(body, on_chan, on_expr, bound | names))
        case Call(name, args):
            new_args = tuple(
                on_chan(a, bound) if isinstance(a, (Endpoint, ChanVar)) else on_expr(a, bound)
                for a in args
            )
            return Call(name, new_args)
        case Recover(body, handler):
            return Recover(_map_process(body, on_chan, on_expr, bound),
                           _map_process(handler, on_chan, on_expr, bound))
    raise TypeError(f"not a process: {p!r}")


def _rename_shared(p: Process, ren: dict) -> Process:
    match p:
        case Request(a, x, b):
            return Request(ren.get(a, a), x, _rename_shared(b, ren))
        case Accept(a, x, b):
            return Accept(ren.get(a, a), x, _rename_shared(b, ren))
        case Inact() | Call():
            return p
        case Send(ch, e, b):
            return Send(ch, e, _rename_shared(b, ren))
        case Recv(ch, x, d, b):
            return Recv(ch, x, d, _rename_shared(b, ren))
        case Select(ch, l, b):
            return Select(ch, l, _rename_shared(b, ren))
        case Branch(ch, arms, df):
            return Branch(ch, tuple((l, _rename_shared(ap, ren)) for l, ap in arms),
                          _rename_shared(df, ren))
        case Sum(l, r):
            return Sum(_rename_shared(l, ren), _rename_shared(r, ren))
        case Cond(g, t, e):
            return Cond(g, _rename_shared(t, ren), _rename_shared(e, ren))
        case Defs(defs, b):
            return Defs(tuple((n, prms, _rename_shared(db, ren)) for n, prms, db in defs),
                        _rename_shared(b, ren))
        case Recover(b, h):
            return Recover(_rename_shared(b, ren), _rename_shared(h, ren))
    raise TypeError(f"not a process: {p!r}")


# The substitutions as they were written on the oracle map.

def oracle_subst_channel(p, name, ep):
    def on_chan(ch, bound):
        if isinstance(ch, ChanVar) and ch.name == name and name not in bound:
            if ch.aggr != ep.aggr:
                raise t.SubstError(f"polarity mismatch substituting {ep!r} for {ch!r}")
            return ep
        return ch

    def on_expr(e, bound):
        if name not in bound and name in fv_expr(e):
            raise t.SubstError(f"channel variable {name} used as an expression")
        return e

    return _map_process(p, on_chan, on_expr, set())


def oracle_subst_value(p, name, value):
    repl = v.Lit(value)

    def on_expr(e, bound):
        return e if name in bound else v.map_vars(e, {name}, lambda x: repl)

    def on_chan(ch, bound):
        if isinstance(ch, ChanVar) and ch.name == name and name not in bound:
            raise t.SubstError(f"value substituted for channel position {ch!r}")
        return ch

    return _map_process(p, on_chan, on_expr, set())


def oracle_rename_node_sessions(node, ren):
    def on_chan(ch, bound):
        if isinstance(ch, Endpoint) and ch.session in ren:
            return Endpoint(ren[ch.session], ch.aggr)
        return ch

    p = _rename_shared(_map_process(node.process, on_chan, lambda e, b: e, set()), ren)
    bufs = tuple(t.Buffer(Endpoint(ren.get(b.ep.session, b.ep.session), b.ep.aggr),
                          b.state, b.queue) for b in node.buffers)
    return t.NetworkNode(p, bufs, pos=node.pos)


# ------------------------------------------------------------------ corpus

PROCESS_TYPES = (Inact, Request, Accept, Send, Recv, Select, Branch, Sum, Cond,
                 Defs, Call, Recover)


def _subterms(x, out: set):
    """Every process inside ``x``, found through dataclass fields and tuples
    (independently of ``terms.layer``)."""
    if isinstance(x, PROCESS_TYPES):
        out.add(x)
        for f in dataclasses.fields(x):
            _subterms(getattr(x, f.name), out)
    elif isinstance(x, tuple):
        for y in x:
            _subterms(y, out)


@pytest.fixture(scope="module")
def corpus_terms():
    """(nodes, processes): the nodes of every corpus program, raw and
    recovery-encoded, of 30 generated programs and of scheduler-reached
    paxos3 states; the processes are all their subterms."""
    networks = [cp.load_program(os.path.basename(f)).network
                for f in sorted(glob.glob(os.path.join(cp.corpus_dir(), "*.ubsc")))]
    networks += [parse(generate_program(seed)).network for seed in range(30)]
    networks += [eng.encode_network(n) for n in networks]
    nodes = [nd for n in networks for nd in t.flatten_nodes(n)[1]]
    paxos3 = cp.load_program("paxos3.ubsc").network
    for seed in range(3):
        cfg = eng.SchedulerConfig(seed=seed, loss_rate=0.3, recovery_bias=0.2, max_steps=60)
        eng.run_scheduler(paxos3, cfg, on_step=lambda state, _: nodes.extend(state.nodes),
                          digests=False)
    nodes = list(dict.fromkeys(nodes))
    procs: set = set()
    for nd in nodes:
        _subterms(nd.process, procs)
    return nodes, sorted(procs, key=repr)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except t.SubstError as e:
        return ("SubstError", str(e))


def test_free_names_match_oracle(corpus_terms):
    _, procs = corpus_terms
    assert len(procs) > 500
    for p in procs:
        sessions, shared, varnames = set(), set(), set()
        _free_process(p, sessions, shared, varnames, set())
        assert t.process_facts(p) == (sessions, shared, varnames), p
        assert t.free_names(p) == sessions | shared | varnames, p
        assert t.free_chans(p) == free_chans(p), p


def test_substitutions_match_oracle(corpus_terms):
    _, procs = corpus_terms
    for p in procs:
        sessions, shared, varnames = set(), set(), set()
        _free_process(p, sessions, shared, varnames, set())
        for ch in free_chans(p):
            if isinstance(ch, ChanVar):
                for ep in (Endpoint("fresh", ch.aggr), Endpoint("fresh", not ch.aggr)):
                    assert _outcome(t.subst_channel, p, ch.name, ep) == \
                        _outcome(oracle_subst_channel, p, ch.name, ep), (p, ch)
        for x in varnames | {"unused"}:
            assert _outcome(t.subst_value, p, x, v.IntV(7)) == \
                _outcome(oracle_subst_value, p, x, v.IntV(7)), (p, x)


def test_rename_node_sessions_matches_oracle(corpus_terms):
    nodes, _ = corpus_terms
    for nd in nodes:
        sessions, shared, _ = t.process_facts(nd.process)
        for ren in ({s: s + "'" for s in sessions | shared},
                    {s: "r0" for s in sorted(sessions)[:1]}):
            assert t.rename_node_sessions(nd, ren) == oracle_rename_node_sessions(nd, ren)


def test_rebuild_from_own_layer(corpus_terms):
    _, procs = corpus_terms
    for p in procs:
        chans, exprs, kids = t.layer(p)
        assert t.rebuild(p, chans, exprs, [k for _, k in kids]) is p
        fresh = t.rebuild(p, [copy.copy(c) for c in chans], [copy.copy(e) for e in exprs],
                          [copy.copy(k) for _, k in kids])
        assert fresh is p


# ---------------------------------------------------------------- long chains

@functools.lru_cache(maxsize=None)
def _node(i):
    """``[ s<i>!<i>. 0 | s<i>~0:[] ]``, one object per ``i``."""
    ep = t.Endpoint(f"s{i}", False)
    return t.NetworkNode(t.Send(ep, v.Lit(v.IntV(i)), t.Inact()), (t.Buffer(ep, 0, ()),))


def _restriction_chain(first="s0"):
    """3,000 restricted names over one node, a new network carrying no
    parts; ``first`` is the innermost name."""
    return t.restrict_all([f"s{i}" for i in range(2999, 0, -1)] + [first],
                          t.par_all([_node(0)]))


def _par_chain(first=0):
    """3,000 nodes in one composition under one restriction, the first node
    on session ``s<first>``."""
    return t.Restrict(("s1",), t.par_all([_node(first)] + [_node(i) for i in range(1, 3000)]))


@pytest.mark.parametrize("build, other, names, nodes, short", [
    (_restriction_chain, lambda: _restriction_chain("z"), 3000, 1,
     "new s0. [ s0!<0>. 0 | s0~0:[] ]"),
    (_par_chain, lambda: _par_chain(3000), 1, 3000, None),
], ids=["restrictions", "parallel"])
def test_long_chains_hash_compare_flatten_and_digest(build, other, names, nodes, short):
    """A network with 3,000 restricted names or 3,000 parallel parts hashes,
    equals a copy built apart, differs from one whose innermost name
    differs, and flattens, normalises and digests, none of it recursing."""
    net, copy_, changed = build(), build(), other()
    assert net is not copy_ and hash(net) == hash(copy_) and net == copy_
    assert net != changed and not net == changed
    restricted, flat = t.flatten_nodes(net)
    assert (len(restricted), len(flat)) == (names, nodes)
    normal = eng.normalize(net)
    assert normal == eng.normalize(copy_)
    assert t.flatten_nodes(normal) == canon_oracle.normal_parts(net)
    assert eng.digest(net) == eng.digest(copy_) != eng.digest(changed)
    if short:
        assert eng.digest(net) == eng.digest(parse_network(short))


def _ballot(rounds, seed=4, step=1, first="+"):
    """``fst((1, seed)) + 1 + ... + step``: a ballot after ``rounds`` rounds,
    a left-nested chain of ``rounds`` BinOps built afresh, the innermost
    with the operator ``first`` and the last adding ``step``."""
    e = v.Builtin("fst", (v.TupleE(v.Lit(v.IntV(1)), v.Lit(v.IntV(seed))),))
    for i in range(rounds):
        e = v.BinOp(first if i == 0 else "+", e,
                    v.Lit(v.IntV(step if i == rounds - 1 else 1)))
    return e


def test_long_ballot_chains_hash_and_compare():
    """A ballot grows one ``+ 1`` per round.  Two 5,000-level chains built
    apart are one object, which hashes and compares without recursion; a
    chain whose innermost leaf, innermost operator or outermost operand
    differs is another.  The free names of a process that sends a 6,000-level
    ballot, built afresh, are worked out in a loop."""
    a, b = _ballot(5000), _ballot(5000)
    assert a is b and hash(a) == hash(b) and a == b and not a != b
    for other in (_ballot(5000, seed=5), _ballot(5000, step=2), _ballot(4999),
                  _ballot(5000, first="-"), v.BinOp("-", a.left, a.right)):
        assert other is not a and a != other and not a == other
    assert v.TupleE(a, a) is v.TupleE(b, b)
    ep = t.Endpoint("s", True)
    p, q = t.Send(ep, a, t.Inact()), t.Send(ep, b, t.Inact())
    assert p is q and {p: 1}[q] == 1
    deep = t.Send(ep, _ballot(6000, seed=6), t.Inact())
    assert t.process_facts(deep) == (frozenset({"s"}), frozenset(), frozenset())


def test_long_send_chains_are_one_object():
    """A 400-prefix send chain built twice apart is one object, which hashes
    and compares without recursion."""
    def chain():
        p = t.Inact()
        for i in range(400):
            p = t.Send(t.Endpoint("s", False), v.Lit(v.IntV(i)), p)
        return p

    a, b = chain(), chain()
    assert a is b and hash(a) == hash(b) and a == b and {a: 1}[b] == 1


def test_deep_nested_conditions_have_facts_and_shapes():
    """``if x < 0 then 0 else (if x < 1 then 0 else (...))``, 3,000 levels
    deep: its free names and its shape are filled from its parts in a
    loop, the shape keeping one placeholder per closed bound."""
    p = t.Send(t.Endpoint("s", False), v.Var("y"), t.Inact())
    for i in reversed(range(3000)):
        p = t.Cond(v.BinOp("<", v.Var("x"), v.Lit(v.IntV(i))), t.Inact(), p)
    assert t.process_facts(p) == (frozenset({"s"}), frozenset(), frozenset({"x", "y"}))
    assert t.free_chans(p) == {t.Endpoint("s", False)}
    shape, q, n = render._shape(p), p, 0
    while type(q) is t.Cond:
        n += 1
        assert shape.guard is v.BinOp("<", v.Var("x"), v.Var("\x00"))
        shape, q = shape.else_p, q.else_p
    assert n == 3000 and len(render._fills(p)) == 3001


def _prefix_chain(chan, var, n=10_000):
    """``n`` prefixes, Send, Recv, Select, Request and Accept in turn, on
    the channel ``chan`` and the expression ``var < 3``, over ``if var < 3
    then 0 else 0``; built from its end in a loop.  The binders bind ``y``
    and ``r``."""
    e = v.BinOp("<", var, v.Lit(v.IntV(3)))
    p = t.Cond(e, t.Inact(), t.Inact())
    for i in reversed(range(n)):
        p = (t.Send(chan, e, p), t.Recv(chan, "y", e, p), t.Select(chan, "l", p),
             t.Request("a", "r", p), t.Accept("a", "r", p))[i % 5]
    return p


def test_substitution_on_a_long_prefix_chain():
    """Substituting into a 10,000-prefix chain, and unfolding a call whose
    definition is such a chain, walks the chain in a loop and gives the
    chain built directly."""
    c, var = t.ChanVar("c", False), v.Var("v")
    p = _prefix_chain(c, var)
    s, one = t.Endpoint("s", False), v.Lit(v.IntV(1))
    assert t.subst_channel(p, "c", s) is _prefix_chain(s, var)
    assert t.subst_value(p, "v", v.IntV(1)) is _prefix_chain(c, one)
    d = t.ChanVar("d", False)
    assert t.subst_procvar(t.Call("D", (d,)), "D", ("c",), p) is _prefix_chain(d, var)
    assert t.subst_procvar(t.Call("D", (s, one)), "D", ("c", "v"), p) is _prefix_chain(s, one)


# ---------------------------------------------------------------- interning

# a field value per annotation, to build one term of every class
SAMPLE_FIELDS = {"str": "x", "int": 1, "bool": False, "tuple": (), "frozenset": frozenset(),
                 "Value": v.IntV(1), "BaseType": v.INT_T, "Expr": v.Lit(v.IntV(1)),
                 "Chan": t.Endpoint("s", False), "Endpoint": t.Endpoint("s", False),
                 "Process": t.Inact(), "SessionType": st.END}
NETWORK_CLASSES = {t.NetworkNode, t.Par, t.Restrict}


def test_every_term_class_is_interned():
    """Every dataclass of ``values``, ``terms`` and ``sestypes`` but the
    network classes is interned: built twice it is one object, it has no
    generated ``==``, and a copy or a deep copy of it is it.  The network
    classes keep their structural ``==``."""
    classes = [c for m in (v, t, st) for c in vars(m).values() if isinstance(c, type)
               and dataclasses.is_dataclass(c) and c.__module__ == m.__name__]
    assert len(classes) == 51 and NETWORK_CLASSES < set(classes)
    for cls in classes:
        if cls in NETWORK_CLASSES:
            assert type(cls) is not v.Interned and "__eq__" in vars(cls)
            continue
        args = [SAMPLE_FIELDS[f.type.strip("'\"")] for f in dataclasses.fields(cls)]
        a = cls(*args)
        assert type(cls) is v.Interned and "__eq__" not in vars(cls), cls
        assert cls(*args) is a and copy.copy(a) is a and copy.deepcopy(a) is a, cls


def test_scalar_fields_are_keyed_by_type():
    """``True == 1``, but an integer built after a boolean stays an integer."""
    one, true = v.IntV(1), v.IntV(True)
    assert true is not one and type(true.n) is bool and type(v.IntV(1).n) is int
    assert t.TaggedMsg(0, v.UNIT) is not t.TaggedMsg(False, v.UNIT)


def test_node_is_one_object_per_value_and_line():
    """Nodes are hash-consed on their process, buffers and line.  Nodes
    that differ only in line are equal and hash as (process, buffers), and
    stay two objects; ``dataclasses.replace`` builds through the table, and
    a copy or a deep copy of a node is the node."""
    p = parse_process("s!<1>. s?(x). 0")
    bufs = (t.Buffer(t.Endpoint("s", False), 0, ()),)
    node = t.NetworkNode(p, bufs, pos=3)
    assert t.NetworkNode(p, bufs, pos=3) is node
    assert t.NetworkNode(process=p, buffers=bufs, pos=3) is node
    at7, nowhere = t.NetworkNode(p, bufs, pos=7), t.NetworkNode(p, bufs)
    assert at7 is not node and nowhere is not node and at7 is not nowhere
    assert at7 == node == nowhere and (at7.pos, node.pos, nowhere.pos) == (7, 3, None)
    assert hash(at7) == hash(node) == hash(nowhere) == hash((p, bufs))
    assert node != t.NetworkNode(p, ()) and hash(t.NetworkNode(p, ())) == hash((p, ()))
    assert dataclasses.replace(node, pos=7) is at7 and dataclasses.replace(at7, pos=3) is node
    assert dataclasses.replace(node) is node
    assert copy.copy(node) is node and copy.deepcopy(node) is node
    assert all(a is b for a, b in zip(copy.deepcopy([node, at7]), [node, at7]))
    text = "[ s!<1>. 0 | s~0:[] ] || [ s?(x). 0 | s~0:[] ]"
    assert all(a is b for a, b in zip(t.flatten_nodes(parse_network(text))[1],
                                       t.flatten_nodes(parse_network(text))[1]))


def test_equal_nodes_share_their_records():
    """Two redexes applied in either order reach equal states whose nodes
    are one object each, with one ``node_facts`` and one digest record."""
    state = eng.RunState.from_network(parse_network(
        "[ s!<1>. 0 | s~0:[] ] || [ u!<2>. 0 | u~0:[] ] || [ *s?(x). *u?(y). 0 "
        "| *s~0:[] | *u~0:[] ]"))
    losses = [r for r in eng.enabled_redexes(state) if r.rule == "Loss"]
    assert len(losses) == 2
    a, b = losses
    ab = eng.apply_redex(eng.apply_redex(state, a), b)
    ba = eng.apply_redex(eng.apply_redex(state, b), a)
    assert ab == ba and ab.digest() == ba.digest()
    for x, y in zip(ab.nodes, ba.nodes):
        assert x is y
        assert eng.node_facts(x) is eng.node_facts(y)
        assert eng._node_digest(x) is eng._node_digest(y)


def _table_counts(steps: int = 3000, every: int = 500) -> tuple:
    """(step, live entries, dead entries) of the interning table at every
    ``every``-th step of a paxos5 run, and the table's size before the run
    and after it, once the run and the lru caches have let go of it."""
    net, rows = cp.load_program("paxos5.ubsc").network, []
    before = len(v._TABLE)

    def count(state, step):
        if (step.index + 1) % every == 0:
            dead = sum(ref() is None for ref in v._TABLE.values())
            rows.append((step.index + 1, len(v._TABLE) - dead, dead))

    eng.run_scheduler(net, eng.SchedulerConfig(
        seed=26508, loss_rate=0.3, recovery_bias=0.2, max_steps=steps),
        digests=False, on_step=count)
    for module in (eng, t, render, v, st):
        for obj in vars(module).values():
            if hasattr(obj, "cache_info"):
                obj.cache_clear()
    gc.collect()
    return rows, before, len(v._TABLE)


def test_interning_table_stays_bounded_over_a_long_run():
    """Over a 3,000-step paxos5 run, in a process of its own, the interning
    table never holds more dead entries than live ones plus 4,096; once the
    run is over and the caches are emptied, it is back near its size before
    the run."""
    rows, before, after = in_fresh_process("test_terms", "_table_counts()")
    assert [step for step, _, _ in rows] == [500, 1000, 1500, 2000, 2500, 3000]
    assert all(dead <= live + 4096 for _, live, dead in rows), rows
    assert rows[-1][1] > 10_000 and after <= before + 100, (rows, before, after)
