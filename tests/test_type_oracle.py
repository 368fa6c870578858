"""Node typing against the candidate product it replaced.

``type_oracle`` holds the earlier ``checker._type_node_body`` verbatim,
which runs ``type_process`` over every combination of the endpoints'
candidate types.  The checker now filters each endpoint's candidates on its
own and takes the product over the used endpoints only.  On scheduler-reached
states of the criterion-4 families, of generated programs and of a long
paxos5 run, each typed under its own protocol map, the paxos one and none,
``type_network`` must give the same verdict, contexts, trace and error under
both bodies.  The second half bounds the ``type_process`` calls per node,
and the last part compares ``synth_process`` with the oracle's copy of the
``match``-per-constructor synthesis it replaced."""

import os

import pytest

import type_oracle as oracle
from conftest import generate_program
from test_type_memo import DECLARED_CASES, FAMILIES, P3_T, _fields, _fixed, _runs
from ubsc import checker as ck
from ubsc import corpus as cp
from ubsc import sestypes as st
from ubsc import terms as t
from ubsc.syntax import parse, parse_network, parse_process, parse_type
from ubsc.terms import Endpoint

PAXOS = _fixed(P3_T)


def _with_body(body, *args, **kwargs):
    """``type_network`` with every node typed by ``body``, outside the memo."""
    def type_node(gamma, node, idx, declared, protocols, derived, trace):
        where = f"node#{idx}" + (f" (line {node.pos})" if node.pos else "")
        return body(gamma, node, idx, where, declared, protocols, derived, trace)

    saved = ck._type_node
    ck._type_node = type_node
    try:
        return ck.type_network(*args, **kwargs)
    finally:
        ck._type_node = saved


def _assert_same(gamma, net, **kwargs) -> bool:
    new = _with_body(ck._type_node_body, gamma, net, **kwargs)
    assert _fields(new) == _fields(_with_body(oracle._type_node_body, gamma, net, **kwargs))
    return new.ok


def _check_states(prog, states, protocol_of) -> list:
    """The verdicts of every state under its own protocols, the paxos ones
    and none, each checked against the oracle."""
    g = ck.Gamma(shared=prog.shared_types())
    return [_assert_same(g, state.to_network(), protocols=protos)
            for state in states
            for protos in (protocol_of(state), PAXOS(state), None)]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
def test_node_typing_matches_oracle_on_corpus_runs(family):
    fname, seeds, steps, loss, bias, protocol_of = family
    prog = cp.load_program(fname)
    assert True in _check_states(prog, _runs(prog, seeds, steps, loss, bias), protocol_of)


def test_node_typing_matches_oracle_on_generated_programs():
    verdicts = []
    for gseed in range(8):
        prog = parse(generate_program(gseed))
        T = prog.shared_types()["a"]
        verdicts += _check_states(
            prog, _runs(prog, range(2), 25, 0.3, 0.25),
            lambda state, T=T: {**{s: T for s in state.restricted}, "a": T})
    assert True in verdicts and False in verdicts


def test_node_typing_matches_oracle_on_written_networks():
    assert {_assert_same(ck.Gamma(), parse_network(text), declared=d)
            for text, contexts in DECLARED_CASES for d in contexts} == {True, False}
    # no candidate types the process, and the last, ?str.end, does not fit
    # the buffer: the error is still the one ?str.end gives
    assert not _assert_same(ck.Gamma(), parse_network("[ s?(x) def true. 0 | s~2:[7] ]"),
                            protocols={"s": parse_type("&{l1: ?int.end, l2: ?str.end}")})


def _paxos5_states(stops):
    """The states of paxos5 under seed 26508 (loss 0.3, bias 0.2) after
    each step count in ``stops``."""
    prog = cp.load_program("paxos5.ubsc")
    states = list(_runs(prog, [26508], max(stops), 0.3, 0.2))
    return prog, [states[i] for i in stops]


def test_node_typing_matches_oracle_on_long_paxos5_run():
    """Every 10th state up to step 350, where a finished session's endpoint
    gives the oracle two candidates and the product reaches 2048 per node."""
    prog, states = _paxos5_states(range(0, 351, 10))
    g = ck.Gamma(shared=prog.shared_types())
    assert all(_assert_same(g, s.to_network(), protocols=PAXOS(s)) for s in states)


# ------------------------------------------------------------------ bound

def _count_calls(monkeypatch) -> list:
    calls = [0]
    real = ck.type_process

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(ck, "type_process", counting)
    return calls


def _filtered_product(gamma, node, declared, protocols, derived) -> int:
    """The product over the endpoints the process uses of the candidate
    types each one's buffer admits; a synthesised type counts as one."""
    theta = ck._node_theta(gamma, node, 0)
    n = 1
    for ep in ck._free_chans(node.process):
        _, c, m = theta[ep]
        cands = ck._candidate_start_types(ep, max(c - len(m), 0), protocols, declared,
                                          derived)
        n *= 1 if cands is None else sum(st.combine(ty, m) is not None for ty in cands)
    return n


def test_type_process_calls_are_bounded_per_node(monkeypatch):
    """A node that types makes at most one ``type_process`` call per tuple of
    the product over its used endpoints' filtered candidates; one that fails
    makes one more, which finds the error of the last tuple of the whole
    product."""
    calls = _count_calls(monkeypatch)
    seen = []

    def type_node(gamma, node, idx, declared, protocols, derived, trace):
        bound, before = _filtered_product(gamma, node, declared, protocols, derived), calls[0]
        try:
            ctx = ck._type_node_body(gamma, node, idx, "", declared, protocols, derived,
                                     trace)
        except ck.TypeFail:
            assert calls[0] - before <= bound + 1
            seen.append(False)
            raise
        assert calls[0] - before <= bound
        seen.append(True)
        return ctx

    monkeypatch.setattr(ck, "_type_node", type_node)
    for fname, seeds, steps, loss, bias, protocol_of in FAMILIES:
        prog = cp.load_program(fname)
        g = ck.Gamma(shared=prog.shared_types())
        for state in _runs(prog, seeds, steps, loss, bias):
            for protos in (protocol_of(state), PAXOS(state), None):
                ck.type_network(g, state.to_network(), protocols=protos)
    assert True in seen and False in seen


def test_long_paxos5_run_types_each_node_once(monkeypatch):
    """Cold, the step-350 state makes one ``type_process`` call per node,
    where the oracle made 9,472 in all, and the step-1500 state types."""
    prog, (at350, at1500) = _paxos5_states([350, 1500])
    g = ck.Gamma(shared=prog.shared_types())
    calls = _count_calls(monkeypatch)
    ck._node_typing.cache_clear()
    assert ck.type_network(g, at350.to_network(), protocols=PAXOS(at350)).ok
    assert calls[0] == len(at350.nodes)
    ck._node_typing.cache_clear()
    assert ck.type_network(g, at1500.to_network(), protocols=PAXOS(at1500)).ok


# ------------------------------------------------------------------ synthesis

def _synthesised(synth, p):
    """The context ``synth`` gives ``p``, or its failure message."""
    try:
        return synth(ck.Gamma(), p)
    except ck._SynthFail as e:
        return str(e)


def _subprocesses(nodes) -> list:
    """Every subprocess of the nodes' processes, each object once."""
    seen: dict = {}
    stack = [nd.process for nd in nodes]
    while stack:
        p = stack.pop()
        if id(p) not in seen:
            seen[id(p)] = p
            stack.extend(k for _, k in t.layer(p)[2])
    return list(seen.values())


def _synthesis_programs():
    """The corpus programs and generated programs 0-39, with scheduler runs."""
    names = sorted(f for f in os.listdir(cp.corpus_dir()) if f.endswith(".ubsc"))
    assert len(names) == 12
    progs = [cp.load_program(f) for f in names]
    progs += [parse(generate_program(gseed)) for gseed in range(40)]
    for prog in progs:
        yield prog.network
        yield from (s.to_network() for s in _runs(prog, range(2), 25, 0.3, 0.25))


def _type_oracle_networks():
    """The states the node-typing tests above reach, less the generated
    programs' runs, which :func:`_synthesis_programs` makes."""
    for fname, seeds, steps, loss, bias, _ in FAMILIES:
        yield from (s.to_network() for s in _runs(cp.load_program(fname), seeds, steps,
                                                  loss, bias))
    yield from (parse_network(text) for text, _ in DECLARED_CASES)
    yield parse_network("[ s?(x) def true. 0 | s~2:[7] ]")
    yield from (s.to_network() for s in _paxos5_states(range(0, 351, 10))[1])


# written processes for the failures no reached state gives: merges that
# disagree, payloads that do not type, and which failure comes first
SYNTHESIS_TEXTS = [
    "s!<1>. 0 + s?(x). 0",
    "if true then s!<1>. 0 else s?(x). 0",
    "s>>{a: u!<1>. 0, b: u?(x). 0, df: 0}",
    "s>>{a: u!<1>. 0, df: u?(x). 0}",
    "s>>{a: s!<1>. 0, b: s?(x). 0, df: s!<2>. 0}",
    "s!<1 + true>. 0",
    "s?(x). s!<x>. 0",
    "s!<y>. 0",
    "u!<true>. s!<1 + true>. 0",
    "s!<1 + true>. 0 + s?(x). 0",
    "s!<1>. 0 + s!<1 + true>. 0",
    "*s<<a. *s<<b. u?(x). 0",
]


def test_synthesis_matches_oracle():
    """On every node process, and every subprocess of one, of the corpus
    programs, generated programs 0-39, the states the tests above reach and
    the written processes, ``synth_process`` gives the oracle's context or
    the oracle's failure."""
    outcomes = set()
    written = [t.NetworkNode(parse_process(text)) for text in SYNTHESIS_TEXTS]
    for nodes in [*(t.flatten_nodes(net)[1] for net in _synthesis_programs()),
                  *(t.flatten_nodes(net)[1] for net in _type_oracle_networks()), written]:
        for p in _subprocesses(nodes):
            new = _synthesised(ck.synth_process, p)
            assert new == _synthesised(oracle.synth_process, p), p
            outcomes.add(type(new))
    assert outcomes == {dict, str}


# ------------------------------------------------------------------ merge

def _merged_fields(res) -> tuple:
    """What a reader of a typing sees: verdict, contexts, error, and each
    rule application as (rule, subject, delta size, judgment text)."""
    err = res.error
    return (res.ok, res.residual, res.full_context,
            None if err is None else (err.rule, err.reason, err.where),
            [(a.rule, a.subject, a.delta_size, a.judgment) for a in res.trace])


def _assert_merge_same(gamma, net, **kwargs):
    new = ck.type_network(gamma, net, **kwargs)
    assert _merged_fields(new) == _merged_fields(oracle.type_network(gamma, net, **kwargs))
    return new


def _pins(prev) -> list:
    """The contexts criterion 4 pins after ``prev``: its full context and its
    one-step advances, the first eight."""
    return ([dict(prev.full_context)] + st.context_advance(prev.full_context))[:8]


def _check_merge_run(prog, states, protocol_of) -> set:
    g = ck.Gamma(shared=prog.shared_types())
    prev, verdicts = None, set()
    for state in states:
        net, protos = state.to_network(), protocol_of(state)
        cur = _assert_merge_same(g, net, protocols=protos)
        if prev is not None and prev.ok:
            for cand in _pins(prev):
                verdicts.add(_assert_merge_same(g, net, protocols=protos, pin=cand).ok)
        if cur.ok:
            _assert_merge_same(g, net, protocols=protos,
                               declared={**cur.residual, **dict(list(cur.residual.items())[:1])})
        verdicts.add(cur.ok)
        prev = cur
    return verdicts


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
def test_merge_matches_oracle_on_corpus_runs(family):
    """Each reached state of a criterion-4 family under its protocols, then
    pinned to the previous state's context and its advances, then declared
    to its own residual: ``type_network`` gives the oracle's contexts,
    error and rule applications."""
    fname, seeds, steps, loss, bias, protocol_of = family
    prog = cp.load_program(fname)
    assert True in _check_merge_run(prog, _runs(prog, seeds, steps, loss, bias), protocol_of)


def test_merge_matches_oracle_on_generated_programs():
    verdicts = set()
    for gseed in range(8):
        prog = parse(generate_program(gseed))
        T = prog.shared_types()["a"]
        verdicts |= _check_merge_run(
            prog, _runs(prog, range(2), 25, 0.3, 0.25),
            lambda state, T=T: {**{s: T for s in state.restricted}, "a": T})
    assert verdicts == {True, False}


def test_merge_matches_oracle_on_long_paxos5_run():
    """Every 100th state up to step 1500, where over 200 restricted sessions
    are merged and consumed."""
    prog, states = _paxos5_states(range(0, 1501, 100))
    assert True in _check_merge_run(prog, states, PAXOS)


def _ctx(**kw):
    return {Endpoint(name[2:] if name.startswith("a_") else name, name.startswith("a_")):
            (c, parse_type(ty)) for name, (c, ty) in kw.items()}


HB2 = "[ *s!<1>. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ]"

# written networks, declared and pinned contexts, each reaching one line of
# the merge or of TSRes
MERGE_CASES = [
    ("new s. (" + HB2 + ")", {}, "Ok"),
    ("new s. ([ 0 | *s~0:[] ] || [ *s!<1>. 0 | *s~0:[] ])", {}, "aggregator endpoint *s appears"),
    ("new s. [ s?(x). 0 | s~0:[] ]", {}, "restricted session s has no aggregator"),
    ("new s. ([ *s!<1>. 0 | *s~0:[] ] || [ s!<1>. 0 | s~0:[] ])", {}, "endpoints of s are not dual"),
    ("new u. new s. ([ *s!<1>. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ])", {}, "Ok"),
    ("[ *s!<1>. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ] || [ s?(x). s?(y). 0 | s~0:[] ]", {},
     "sibling entries for s cannot be synchronised"),
    ("[ 0 | *s~1:[] ] || [ 0 | s~1:[] ] || [ s?(x). 0 | s~0:[] ]", {}, "Ok"),
    ("[ *s!<1>. 0 | *s~0:[] ] || [ 0 | s~2:[] ]", {}, "Ok, residual: *s: (0, !int.end)"),
    ("new s. ([ *s?(x). 0 | *s~0:[] ] || [ 0 | s~1:[] ])", {}, "Ok"),  # re-padded
    ("[ *s?(x). 0 | *s~0:[] ] || [ 0 | s~1:[] ]", {}, "Ok, residual: *s: (1, end)"),
    ("new s. ([ 0 | *s~0:[] ] || [ 0 | s~1:[] ])", {}, "*s: (0, end) vs s: (1, end)"),
    (HB2, {"pin": _ctx(a_u=(0, "end"))}, "pinned entry *u absent"),
    (HB2, {"pin": _ctx(a_s=(0, "!int.end"), s=(0, "?int.end"))}, "Ok"),
    ("[ 0 | *s~1:[] ] || [ 0 | s~1:[] ]", {"pin": _ctx(a_s=(0, "end"), s=(0, "end"))},
     "pinned state 0 behind *s"),
    (HB2, {"pin": _ctx(a_s=(1, "end"), s=(1, "end"))}, "Ok"),
    (HB2, {"pin": _ctx(a_s=(1, "?int.end"), s=(1, "end"))}, "*s cannot present as (1, ?int.end)"),
    (HB2, {"pin": _ctx(a_s=(0, "!int.end"))}, "pinned context drops s"),
    (HB2, {"pin": _ctx(s=(0, "!int.end"))}, "siblings of s do not synchronise"),
    (HB2, {"pin": _ctx(s=(1, "end"))}, "Ok"),
    (HB2, {"declared": _ctx(a_s=(0, "!int.end"), s=(1, "end"))}, "Ok"),
    (HB2, {"declared": _ctx(a_s=(0, "!int.end"), s=(0, "?int.end"), u=(0, "end"))},
     "declared entry u has no counterpart"),
]


def test_merge_matches_oracle_on_written_networks():
    """Every merge and TSRes line, reached by hand, gives the oracle's
    result, and the one each case is written for."""
    for text, kwargs, expected in MERGE_CASES:
        res = _assert_merge_same(ck.Gamma(), parse_network(text), **kwargs)
        assert expected in res.render(), (text, kwargs, res.render())


def test_merge_outcomes_are_memoised_per_session():
    """A session's outcome is worked out once: typing the same state again
    looks every session up, and so does a state that moved one node."""
    prog, (s1, s2) = _paxos5_states([300, 301])
    g = ck.Gamma(shared=prog.shared_types())
    ck._session_merge.cache_clear()
    ck.type_network(g, s1.to_network(), protocols=PAXOS(s1))
    first = ck._session_merge.cache_info()
    assert first.misses >= len(s1.restricted)
    ck.type_network(g, s1.to_network(), protocols=PAXOS(s1))
    assert ck._session_merge.cache_info().misses == first.misses
    ck.type_network(g, s2.to_network(), protocols=PAXOS(s2))
    assert ck._session_merge.cache_info().misses - first.misses <= 3
