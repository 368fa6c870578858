"""The per-node typing memo (``checker._node_typing``) against the checker
with the memo emptied before every call.

A scheduler step changes a few nodes, so most nodes of a state are typed
again under the same inputs and the memo answers them.  Every result must
be the one a cold checker gives: verdict, residual, full context, trace and
error.  The key is the slice of the inputs a node can read, so the second
half checks that each part of that slice takes part in the key and that
nothing outside it does."""

import dataclasses
import importlib
import os
import random

import pytest

from conftest import generate_program
from ubsc import checker as ck
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import sestypes as st
from ubsc import values as v
from ubsc.syntax import parse, parse_network, parse_type
from ubsc.terms import Endpoint

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
P3_T = "?int. !set((int, (int, int))). &{accept: ?(int, int).end, restart: end}"


def _fixed(text):
    T = parse_type(text)
    return lambda state: {**{s: T for s in state.restricted}, "a": T}


def _drop_protocols(state):
    drop_T = parse_type("?int.?int.end")
    return {**{s: drop_T for s in state.restricted},
            "s": parse_type("?int.!int.end"), "a": drop_T}


# the five criterion-4 families: file, seeds, steps, loss, bias, protocols
FAMILIES = [
    ("heartbeat_simple.ubsc", range(3), 12, 0.3, 0.3, _fixed("?str.end")),
    ("heartbeat_gather.ubsc", range(3), 25, 0.3, 0.25, _fixed("!str.!str.end")),
    ("drop_connections.ubsc", range(3), 25, 0.3, 0.25, _drop_protocols),
    ("paxos3.ubsc", range(2), 50, 0.3, 0.2, _fixed(P3_T)),
    ("paxos5.ubsc", range(1), 50, 0.3, 0.2, _fixed(P3_T)),
]


def _fields(res):
    err = res.error
    return (res.ok, res.residual, res.full_context, res.trace,
            None if err is None else (type(err), err.rule, err.reason, err.where))


def _cold(*args, **kwargs):
    ck._node_typing.cache_clear()
    return ck.type_network(*args, **kwargs)


def _unsliced_type_node(gamma, node, idx, declared, protocols, derived, trace):
    """``_type_node`` as it was before the memo: the node typed under the
    whole of every input, not the slice the memo keys on."""
    where = f"node#{idx}" + (f" (line {node.pos})" if node.pos else "")
    return ck._type_node_body(gamma, node, idx, where, declared, protocols,
                              derived, trace)


def _unsliced(*args, **kwargs):
    saved = ck._type_node
    ck._type_node = _unsliced_type_node
    try:
        return ck.type_network(*args, **kwargs)
    finally:
        ck._type_node = saved


def _runs(prog, seeds, steps, loss, bias):
    """Every state a seeded scheduler run reaches, the initial one first."""
    base = eng.encode_network(prog.network)
    for seed in seeds:
        state = eng.RunState.from_network(base)
        yield state
        rng = random.Random(seed)
        for _ in range(steps):
            redexes = eng.enabled_redexes(state)
            if not redexes:
                break
            state = eng.apply_redex(state, *eng.pick_redex(redexes, rng, loss, bias))
            yield state


def _check_run(prog, protocol_of, seeds, steps, loss, bias):
    """Type each reached state warm (the memo carrying the previous states),
    cold, again with every node in the memo, and with no memo under the
    unsliced inputs; retry the pinned candidates of the step's context
    advancement warm and unsliced."""
    g = ck.Gamma(shared=prog.shared_types())
    ck._node_typing.cache_clear()
    prev = None
    checked = 0
    for state in _runs(prog, seeds, steps, loss, bias):
        net, protos = state.to_network(), protocol_of(state)
        warm = ck.type_network(g, net, protocols=protos)
        cold = _cold(g, net, protocols=protos)
        hot = ck.type_network(g, net, protocols=protos)
        oracle = _unsliced(g, net, protocols=protos)
        assert _fields(warm) == _fields(cold) == _fields(hot) == _fields(oracle)
        if prev is not None and prev.ok:
            for cand in ([dict(prev.full_context)]
                         + st.context_advance(prev.full_context))[:3]:
                warm_pin = ck.type_network(g, net, protocols=protos, pin=cand)
                oracle_pin = _unsliced(g, net, protocols=protos, pin=cand)
                assert _fields(warm_pin) == _fields(oracle_pin)
        prev = warm
        checked += 1
    return checked


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
def test_memo_matches_cold_checker_on_corpus_runs(family):
    fname, seeds, steps, loss, bias, protocol_of = family
    prog = cp.load_program(fname)
    assert _check_run(prog, protocol_of, seeds, steps, loss, bias) > len(seeds)


def test_memo_matches_cold_checker_on_generated_programs():
    for gseed in range(8):
        prog = parse(generate_program(gseed))
        T = prog.shared_types()["a"]
        _check_run(prog, lambda state, T=T: {**{s: T for s in state.restricted}, "a": T},
                   range(2), 25, 0.3, 0.25)


def _declared(**kw):
    return {Endpoint(name[2:] if name.startswith("a_") else name, name.startswith("a_")):
            (c, parse_type(ty)) for name, (c, ty) in kw.items()}


DECLARED_CASES = [  # networks checked against stated contexts, some failing
    ('[ *s!<"hbt">. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ] || [ s?(x). 0 | s~0:[] ]',
     [_declared(a_s=(0, "!str.end"), s=(0, "?str.end")),
      _declared(a_s=(0, "!str.end"), s=(0, "?str.end"), u=(0, "?int.end")),
      _declared(a_s=(0, "!int.end"), s=(0, "?int.end"))]),
    ('[ 0 | *s~1:[] ] || [ s?(x). 0 | s~1:["hbt"] ] || [ s?(x). 0 | s~0:[] ]',
     [_declared(a_s=(1, "end"), s=(1, "end")), _declared(s=(1, "end"))]),
    ("[ s!<1>. 0 | s~0:[7] ] || [ s!<1>. 0 | s~0:[] ]",
     [_declared(s=(0, "!int.end")), _declared(s=(1, "!int.end")),
      _declared(s=(1, "end")), _declared(s=(2, "end"))]),
    ('[ *s?(x). 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ] || [ s!<1>. 0 | s~0:[] ]',
     [_declared(a_s=(0, "!int.end"), s=(0, "?int.end")),
      _declared(a_s=(0, "?int.end"), s=(0, "!int.end")),
      _declared(a_s=(1, "end"), s=(1, "end"))]),
]


def test_memo_matches_unsliced_checker_on_declared_contexts():
    ck._node_typing.cache_clear()
    for text, contexts in DECLARED_CASES:
        net = parse_network(text)
        for d in contexts + contexts:
            warm = ck.type_network(ck.Gamma(), net, declared=d)
            assert _fields(warm) == _fields(_unsliced(ck.Gamma(), net, declared=d))
    assert ck._node_typing.cache_info().hits > 0


# ------------------------------------------------------------------ failures

HB_WRONG = {"s": parse_type("!str.end")}  # the receivers' side of s is ?str


def test_failing_network_is_replayed_from_the_memo():
    net = parse_network('[ *s!<"hbt">. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ]')
    cold = _cold(ck.Gamma(), net, protocols=HB_WRONG)
    assert not cold.ok
    assert _fields(cold) == _fields(_unsliced(ck.Gamma(), net, protocols=HB_WRONG))
    misses = ck._node_typing.cache_info().misses
    warm = ck.type_network(ck.Gamma(), net, protocols=HB_WRONG)
    assert ck._node_typing.cache_info().misses == misses
    assert _fields(warm) == _fields(cold)
    assert warm.error is not cold.error


def test_failing_node_adds_no_trace_entries():
    node = parse_network('[ *s!<"hbt">. 0 | *s~0:[] ]')
    ck._node_typing.cache_clear()
    errors = []
    for _ in range(2):
        trace = []
        with pytest.raises(ck.TypeFail) as exc:
            ck._type_node(ck.Gamma(), node, 0, {}, HB_WRONG, {}, trace)
        assert trace == []
        errors.append((exc.value.rule, exc.value.reason, exc.value.where))
    assert ck._node_typing.cache_info().hits == 1
    assert errors[0] == errors[1]


# ------------------------------------------------------------ key and bound

HB_NODE = '[ *s!<"hbt">. 0 | *s~0:[] ]'
HB_RIGHT = {"s": parse_type("?str.end")}


def _typed(node, protocols, idx=0, gamma=ck.Gamma()):
    trace = []
    try:
        ctx = ck._type_node(gamma, node, idx, {}, protocols, {}, trace)
    except ck.TypeFail as e:
        return ("fail", e.rule, e.reason, e.where)
    return ("ok", ctx, trace)


def test_line_of_a_node_is_part_of_the_key():
    node = parse_network(HB_NODE)
    ck._node_typing.cache_clear()
    at3, at7 = dataclasses.replace(node, pos=3), dataclasses.replace(node, pos=7)
    assert at3 == at7
    ok3, ok7 = _typed(at3, HB_RIGHT), _typed(at7, HB_RIGHT)
    assert ok3[2][-1].subject == "node#0 (line 3)"
    assert ok7[2][-1].subject == "node#0 (line 7)"
    fail3, fail7 = _typed(at3, HB_WRONG), _typed(at7, HB_WRONG)
    assert fail3[3] == "node#0 (line 3)" and fail7[3] == "node#0 (line 7)"


def test_protocol_of_a_held_session_is_part_of_the_key():
    node = parse_network(HB_NODE)
    ck._node_typing.cache_clear()
    assert _typed(node, HB_RIGHT)[0] == "ok"
    assert _typed(node, HB_WRONG)[0] == "fail"
    assert ck._node_typing.cache_info().misses == 2


def test_protocol_of_another_session_still_hits():
    node = parse_network(HB_NODE)
    ck._node_typing.cache_clear()
    first = _typed(node, HB_RIGHT)
    again = _typed(node, {**HB_RIGHT, "u": parse_type("!int.end"), "a": st.END})
    assert again == first
    assert ck._node_typing.cache_info().hits == 1


def test_shared_name_outside_the_node_still_hits():
    node = parse_network("[ acc a(c). c?(x). 0 ]")
    T = parse_type("?int.end")
    ck._node_typing.cache_clear()
    first = _typed(node, {}, gamma=ck.Gamma(shared={"a": T}))
    assert _typed(node, {}, gamma=ck.Gamma(shared={"a": T, "b": st.END})) == first
    assert ck._node_typing.cache_info().hits == 1
    assert _typed(node, {}, gamma=ck.Gamma(shared={"a": parse_type("!int.end")})) != first


def test_value_variables_are_part_of_the_key():
    node = parse_network("[ *s!<y>. 0 | *s~0:[] ]")
    ck._node_typing.cache_clear()
    assert _typed(node, HB_RIGHT, gamma=ck.Gamma(vars={"y": v.STR_T}))[0] == "ok"
    assert _typed(node, HB_RIGHT, gamma=ck.Gamma(vars={"y": v.INT_T}))[0] == "fail"


def test_memo_is_bounded():
    info = ck._node_typing.cache_info()
    assert info.maxsize is not None
    node = parse_network(HB_NODE)
    ck._node_typing.cache_clear()
    for idx in range(info.maxsize + 10):
        _typed(node, HB_RIGHT, idx)
    info = ck._node_typing.cache_info()
    assert info.misses == info.maxsize + 10
    assert info.currsize <= info.maxsize


def test_bench_clear_caches_empties_the_memo(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    workloads = importlib.import_module("workloads")
    _typed(parse_network(HB_NODE), HB_RIGHT)
    assert ck._node_typing.cache_info().currsize > 0
    workloads.clear_caches()
    assert ck._node_typing.cache_info().currsize == 0

