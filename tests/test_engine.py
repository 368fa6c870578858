import gc
import glob
import json
import os
import random
import types
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import has_recover, in_fresh_process
from test_digest import _wide_sum
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import terms as t
from ubsc import values as v
from ubsc.syntax import parse, parse_network, parse_process
from ubsc.render import render_network, render_process


# ------------------------------------------------------------- gather oracle

def gather_oracle(queue, c):
    out = v.UNIT
    for m in [m for m in queue if m.tag == c]:
        out = v.aggregate(out, m.value)
    return out


def residual_oracle(queue, c):
    return tuple(m for m in queue if m.tag != c)


def random_queue(rng):
    kinds = [lambda: v.IntV(rng.randrange(10)),
             lambda: v.StrV(rng.choice("abc")),
             lambda: v.mkset([v.PairV(v.IntV(rng.randrange(3)), v.IntV(rng.randrange(3)))])]
    kind = rng.choice(kinds)
    return tuple(t.TaggedMsg(rng.randrange(4), kind())
                 for _ in range(rng.randrange(8)))


def test_gather_residual_oracle_1000():
    rng = random.Random(20250808)
    for _ in range(1000):
        q = random_queue(rng)
        c = rng.randrange(4)
        assert eng.gather_values(q, c) == gather_oracle(q, c)
        assert eng.residual(q, c) == residual_oracle(q, c)
        # partition law: every element consumed or kept, never both
        kept = eng.residual(q, c)
        consumed = tuple(m for m in q if m.tag == c)
        assert len(kept) + len(consumed) == len(q)
        assert all(m in q for m in kept)


def test_gather_examples():
    q = (t.TaggedMsg(0, v.StrV("hbt2")), t.TaggedMsg(1, v.StrV("hbt2")),
         t.TaggedMsg(0, v.StrV("hbt1")))
    assert eng.gather_values(q, 0) == v.aggregate(v.StrV("hbt2"), v.StrV("hbt1"))
    assert eng.gather_values((), 3) == v.UNIT
    assert eng.residual(q, 0) == (t.TaggedMsg(1, v.StrV("hbt2")),)
    sets = (t.TaggedMsg(2, v.mkset([v.PairV(v.IntV(1), v.IntV(5))])),
            t.TaggedMsg(2, v.mkset([v.PairV(v.IntV(2), v.IntV(9))])))
    assert eng.gather_values(sets, 2) == v.mkset(
        [v.PairV(v.IntV(1), v.IntV(5)), v.PairV(v.IntV(2), v.IntV(9))])


# ------------------------------------------------------------- congruence

def test_normalize_unit_node():
    a = parse_network("[ s?(x). 0 | s~0:[] ] || [0]")
    b = parse_network("[ s?(x). 0 | s~0:[] ]")
    assert eng.networks_equivalent(a, b)


def test_normalize_restriction_order():
    a = parse_network("new u. new w. ([ 0 | u~0:[] ] || [ 0 | *w~1:[] ])")
    b = parse_network("new w. new u. ([ 0 | *w~1:[] ] || [ 0 | u~0:[] ])")
    assert eng.networks_equivalent(a, b)


def test_normalize_sum_commutes():
    a = parse_network("[ s?(x). 0 + s!<1>. 0 | s~0:[] ]")
    b = parse_network("[ s!<1>. 0 + s?(x). 0 | s~0:[] ]")
    assert eng.networks_equivalent(a, b)


def test_normalize_par_commutes():
    a = parse_network("[ 0 | s~0:[] ] || [ 0 | u~1:[] ]")
    b = parse_network("[ 0 | u~1:[] ] || [ 0 | s~0:[] ]")
    assert eng.networks_equivalent(a, b)


def test_scope_extrusion():
    a = parse_network("(new s. [ 0 | s~0:[] ]) || [ 0 | u~0:[] ]")
    b = parse_network("new s. ([ 0 | s~0:[] ] || [ 0 | u~0:[] ])")
    assert eng.networks_equivalent(a, b)


# ------------------------------------------------------------- recovery encoding

def test_encode_inact_and_call():
    p = t.Recover(t.Inact(), parse_process("s!<1>. 0"))
    assert eng.encode_recovery(p) == t.Inact()
    p = t.Recover(t.Call("D", ()), t.Inact())
    assert eng.encode_recovery(p) == t.Call("D", ())


def test_encode_recv_unit_test():
    p = parse_process("(s?(x). 0) >r u!<1>. 0")
    out = eng.encode_recovery(p)
    want = parse_process("s?(x). if x != unit then 0 else u!<1>. 0")
    assert out == want


def test_encode_branch_default_arm():
    p = parse_process("(s>>{l: 0}) >r u!<1>. 0")
    out = eng.encode_recovery(p)
    assert isinstance(out, t.Branch)
    assert out.default_arm == parse_process("u!<1>. 0")


def test_encode_defs_recurses():
    p = parse_process("(def D(x) = s?(w). D(x) in D(1)) >r 0")
    out = eng.encode_recovery(p)
    assert not has_recover(out)
    body = out.defs[0][2]
    assert isinstance(body, t.Recv)
    assert isinstance(body.body, t.Cond)


def test_encode_idempotent_and_recover_free():
    p = parse_process("(s?(x). (s>>{l: 0}) >r 0) >r 0")
    out = eng.encode_recovery(p)
    assert not has_recover(out)
    assert eng.encode_recovery(out) == out


def _send_chain(bottom, n=3_000):
    """``n`` sends of 1 on ``s`` over ``bottom``, built directly."""
    p = bottom
    for _ in range(n):
        p = t.Send(t.Endpoint("s", False), v.Lit(v.IntV(1)), p)
    return p


def test_has_recover_on_a_long_send_chain():
    assert not has_recover(_send_chain(t.Inact()))
    assert has_recover(_send_chain(t.Recover(t.Inact(), t.Inact())))


def test_wide_sum_enumerates_and_steps():
    """A sum's alternatives are listed in a loop, not by recursing down its
    spine: a node holding 2,000 alternatives enumerates one ``Loss`` per
    alternative and steps."""
    state = eng.RunState.from_network(_wide_sum(2000))
    redexes = eng.enabled_redexes(state)
    assert len(redexes) == 2000 and {r.rule for r in redexes} == {"Loss"}
    assert render_network(eng.apply_redex(state, redexes[0]).to_network()) == "[ 0 | s~1:[] ]"


# ------------------------------------------------------------- redex discovery

def test_enabled_beacon():
    net = parse_network('[ *s!<"h">. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ] || [ s?(x). 0 | s~0:[] ]')
    st = eng.RunState.from_network(net)
    rs = eng.enabled_redexes(st)
    bcasts = [r for r in rs if r.rule == "Bcast"]
    assert len(bcasts) == 1 and bcasts[0].receivers == (1, 2)


def test_enabled_lagging_loss():
    # a sender left behind can only lose its message once the gatherer moved on
    net = parse_network('new s. ([ 0 | *s~2:[] ] || [ s!<"h">. 0 | s~1:[] ])')
    st = eng.RunState.from_network(net)
    rules = {r.rule for r in eng.enabled_redexes(st)}
    assert rules == {"Loss"}


def test_enabled_deadlock_empty():
    net = parse_network("[ acc a(x). 0 ] || [ acc b(y). 0 ]")
    st = eng.RunState.from_network(net)
    assert eng.enabled_redexes(st) == []


def test_conn_empty_family_allowed():
    net = parse_network("[ req a(*x). 0 ]")
    st = eng.RunState.from_network(net)
    rs = eng.enabled_redexes(st)
    assert rs[0].rule == "Conn" and rs[0].receivers == ()
    st2 = eng.apply_redex(st, rs[0], ())
    assert len(st2.restricted) == 1


def test_malformed_redexes_are_refused():
    """Each refusal of ``apply_redex``, whole, on a redex no enumeration
    makes: a receiver outside the family, an alternative the node lacks, a
    rule that does not exist, and a Conn acceptor with no accept."""
    state = eng.RunState.from_network(parse_network(
        "[ *s!<1>. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ]"))
    bcast = next(r for r in eng.enabled_redexes(state) if r.rule == "Bcast")
    conn = eng.RunState.from_network(parse_network("[ req a(*w). 0 ] || [ 0 ]"))
    for st, r, chosen, message in [
        (state, bcast, (0,), "chosen receivers outside the eligible family"),
        (state, replace(bcast, alt=1), None, "stale alternative index"),
        (state, replace(bcast, rule="Nope"), None, "unknown rule Nope"),
        (conn, eng.Redex("Conn", "a", 0, (1,)), None, "node 1 has no accept alternative on a"),
    ]:
        with pytest.raises(eng.EngineError) as e:
            eng.apply_redex(st, r, chosen)
        assert str(e.value) == message


def test_script_step_needs_an_index_among_matches():
    state = eng.RunState.from_network(parse_network(
        "[ *s!<1>. 0 | *s~0:[] ] || [ *u!<2>. 0 | *u~0:[] ]"))
    with pytest.raises(eng.EngineError) as e:
        eng.resolve_script_step(state, {"rule": "Bcast"})
    assert str(e.value) == "2 Bcast redexes match; no index picks one"
    assert eng.resolve_script_step(state, {"rule": "Bcast", "index": 1})[0].session == "u"


def test_script_step_filters_by_session():
    state = eng.RunState.from_network(parse_network(
        "[ *s!<1>. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ]"))
    with pytest.raises(eng.EngineError) as e:
        eng.resolve_script_step(state, {"rule": "Bcast", "session": "u"})
    assert str(e.value) == "0 Bcast redexes match; index 0 outside [0, 0)"
    assert eng.resolve_script_step(state, {"rule": "Bcast", "session": "s"})[0].session == "s"


def test_ucast_state_condition():
    net = parse_network('[ s!<1>. 0 | s~1:[] ] || [ 0 | *s~2:[] ]')
    st = eng.RunState.from_network(net)
    assert all(r.rule != "Ucast" for r in eng.enabled_redexes(st))
    net = parse_network('[ s!<1>. 0 | s~2:[] ] || [ 0 | *s~2:[] ]')
    st = eng.RunState.from_network(net)
    assert any(r.rule == "Ucast" for r in eng.enabled_redexes(st))


def test_brec_requires_handler_buffers():
    # the default arm uses u, but the node has no u buffer: blocked
    net = parse_network("[ s>>{l: 0, df: u!<1>. 0} | s~0:[] ]")
    st = eng.RunState.from_network(net)
    assert all(r.rule != "BRec" for r in eng.enabled_redexes(st))
    net = parse_network("[ s>>{l: 0, df: u!<1>. 0} | s~0:[] | u~0:[] ]")
    st = eng.RunState.from_network(net)
    assert any(r.rule == "BRec" for r in eng.enabled_redexes(st))


def test_bra_head_label_must_match():
    net = parse_network("[ s>>{l: 0, df: 0} | s~0:[#other] ]")
    st = eng.RunState.from_network(net)
    assert all(r.rule not in ("Bra", "BRec") for r in eng.enabled_redexes(st))


# ------------------------------------------------------------- rule semantics

def test_counter_monotonic_along_traces():
    text = open("corpus/heartbeat_gather.ubsc").read()
    prog = parse(text)
    for seed in range(12):
        state = eng.RunState.from_network(eng.encode_network(prog.network))
        counters = {}
        for _ in range(60):
            rs = eng.enabled_redexes(state)
            if not rs:
                break
            rng = random.Random(seed * 101 + _)
            r = rs[rng.randrange(len(rs))]
            chosen = tuple(j for j in r.receivers if rng.random() >= 0.2)
            state = eng.apply_redex(state, r, chosen)
            for i, nd in enumerate(state.nodes):
                for b in nd.buffers:
                    key = (i, b.ep)
                    assert counters.get(key, -1) <= b.state
                    counters[key] = b.state


def test_rule_counter_deltas():
    # receive leaves the counter unchanged; recovery/loss/gather bump by one
    net = parse_network('[ s?(x). 0 | s~1:["m"] ]')
    st = eng.RunState.from_network(net)
    (r,) = [x for x in eng.enabled_redexes(st) if x.rule == "Rcv"]
    st2 = eng.apply_redex(st, r)
    assert st2.nodes[0].buffers[0].state == 1
    assert st2.nodes[0].buffers[0].queue == ()

    net = parse_network("[ s?(x) def 5. x!<1>. 0 | s~1:[] ]")
    st = eng.RunState.from_network(net)
    (r,) = [x for x in eng.enabled_redexes(st) if x.rule == "Rec"]
    st2 = eng.apply_redex(st, r)
    assert st2.nodes[0].buffers[0].state == 2

    net = parse_network('[ s!<1>. 0 | s~0:["stale"] ]')
    st = eng.RunState.from_network(net)
    (r,) = [x for x in eng.enabled_redexes(st) if x.rule == "Loss"]
    st2 = eng.apply_redex(st, r)
    assert st2.nodes[0].buffers[0].state == 1
    assert st2.nodes[0].buffers[0].queue == (t.ValMsg(v.StrV("stale")),)


def test_gthr_gathers_at_current_state():
    net = parse_network('[ *s?(x). 0 | *s~0:[(0, "a"), (1, "b"), (0, "c")] ]')
    st = eng.RunState.from_network(net)
    (r,) = eng.enabled_redexes(st)
    assert eng.redex_payload(st, r) == '"c"'  # max of "a","c"
    st2 = eng.apply_redex(st, r)
    buf = st2.nodes[0].buffers[0]
    assert buf.state == 1 and buf.queue == (t.TaggedMsg(1, v.StrV("b")),)


def test_brec_drops_branch_endpoint_and_unused_plain():
    net = parse_network(
        "[ s>>{l: 0, df: u!<1>. 0} | s~0:[] | u~0:[] | w~0:[] | *q~0:[] ]")
    st = eng.RunState.from_network(net)
    (r,) = [x for x in eng.enabled_redexes(st) if x.rule == "BRec"]
    st2 = eng.apply_redex(st, r)
    eps = {b.ep for b in st2.nodes[0].buffers}
    # the branch endpoint and the unused plain buffer go; the aggregator stays
    assert eps == {t.Endpoint("u", False), t.Endpoint("q", True)}


def test_cond_drop_condition_blocks():
    # the taken branch uses a session with no buffer: the conditional blocks
    net = parse_network("[ if true then u!<1>. 0 else 0 ]")
    st = eng.RunState.from_network(net)
    assert eng.enabled_redexes(st) == []


# ------------------------------------------------------------- scheduler

def test_scheduler_deterministic():
    text = open("corpus/heartbeat_gather.ubsc").read()
    net = parse(text).network
    cfg = eng.SchedulerConfig(seed=7, loss_rate=0.4, recovery_bias=0.3, max_steps=50)
    a = eng.run_scheduler(net, cfg)
    b = eng.run_scheduler(net, cfg)
    assert a.to_jsonl() == b.to_jsonl()
    c = eng.run_scheduler(net, eng.SchedulerConfig(seed=8, loss_rate=0.4,
                                                   recovery_bias=0.3, max_steps=50))
    assert a.to_jsonl() != c.to_jsonl()


CORPUS = sorted(os.path.basename(f) for f in glob.glob(os.path.join(cp.corpus_dir(), "*.ubsc")))


def _json_lines(trace: eng.Trace) -> str:
    """The trace as ``json.dumps`` writes its header and each step's dict."""
    return "".join(json.dumps(obj, sort_keys=True) + "\n"
                   for obj in [trace.header_json(), *(s.to_json() for s in trace.steps)])


@pytest.mark.parametrize("networks", [False, True])
def test_trace_lines_are_json_dumps(networks):
    steps = 0
    for name in CORPUS:
        net = cp.load_program(name).network
        for seed in (0, 1, 2):
            cfg = eng.SchedulerConfig(seed=seed, max_steps=200)
            trace = eng.run_scheduler(net, cfg, networks=networks)
            assert trace.to_jsonl() == _json_lines(trace)
            steps += len(trace.steps)
    assert steps > 2000


def test_trace_line_escapes_as_json_dumps():
    odd = 'a"b\\c\nd\té\u20ac\U0001d11e\x00'
    steps = [eng.TraceStep(0, "Rec", "s#0", 1, (), None, "0123abcd"),
             eng.TraceStep(1, "Bcast", odd, 0, (1, 12), odd, "", odd),
             eng.TraceStep(2, "Sel", "s#1", 3, (0,), "accept", "", None)]
    trace = eng.Trace(eng.SchedulerConfig(seed=3), "ffff", steps)
    assert trace.to_jsonl() == _json_lines(trace)


def _live_growth() -> tuple:
    """How many more function objects are alive, and how many more entries
    the alternatives memo holds, after 20 paxos5 runs of 500 steps."""
    def functions():
        gc.collect()
        return sum(type(o) is types.FunctionType for o in gc.get_objects())

    net = cp.load_program("paxos5.ubsc").network
    funcs, alts = functions(), eng.alternatives.cache_info().currsize
    for seed in range(20):
        eng.run_scheduler(net, eng.SchedulerConfig(seed=seed, loss_rate=0.3, recovery_bias=0.2,
                                                   max_steps=500), digests=False)
    return functions() - funcs, eng.alternatives.cache_info().currsize - alts


def test_alternatives_memo_keeps_no_function_per_process():
    """The memo grows by thousands of processes, and the functions alive by
    fewer than a hundred: processes under one block share their rebuild."""
    funcs, alts = in_fresh_process("test_engine", "_live_growth()")
    assert alts > 2000
    assert funcs < 100


def test_scheduler_lossless_delivers_all():
    net = parse_network('[ *s!<"h">. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ] || [ s?(x). 0 | s~0:[] ]')
    cfg = eng.SchedulerConfig(seed=1, loss_rate=0.0, recovery_bias=0.0, max_steps=10)
    tr = eng.run_scheduler(net, cfg)
    bcast = [s for s in tr.steps if s.rule == "Bcast"][0]
    assert set(bcast.receivers) == {1, 2}
    # terminates with all nodes inactive
    assert all(isinstance(nd.process, t.Inact) for nd in tr.final.nodes)


def test_scheduler_total_loss_then_recovery():
    net = parse_network('[ *s!<"h">. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ]')
    cfg = eng.SchedulerConfig(seed=3, loss_rate=1.0, recovery_bias=0.5, max_steps=20)
    tr = eng.run_scheduler(net, cfg)
    rules = [s.rule for s in tr.steps]
    assert "Rec" in rules  # the receiver recovered on its own
    bcast = [s for s in tr.steps if s.rule == "Bcast"][0]
    assert bcast.receivers == ()


def test_fresh_session_names_stable():
    net = parse_network("[ req a(*x). 0 ] || [ acc a(y). 0 ]")
    cfg = eng.SchedulerConfig(seed=0, loss_rate=0.0, recovery_bias=0.0, max_steps=5)
    a = eng.run_scheduler(net, cfg)
    b = eng.run_scheduler(net, cfg)
    assert a.final.restricted == b.final.restricted == ("s#0",)


def test_step_memo_holds_successors_weakly():
    """A node's memo of its steps does not keep a successor alive: once the
    successor is dropped the same step builds an equal node again."""
    state = eng.RunState.from_network(parse_network(
        "[ s!<1>. s!<2>. 0 | s~0:[] ] || [ 0 | *s~0:[] ]"))
    (r,) = [r for r in eng.enabled_redexes(state) if r.rule == "Loss"]
    succ = eng.apply_redex(state, r)
    node = succ.nodes[r.sender]
    fields, ref = (node.process, node.buffers, node.pos), weakref.ref(node)
    del succ, node
    gc.collect()
    assert ref() is None
    again = eng.apply_redex(state, r).nodes[r.sender]
    assert (again.process, again.buffers, again.pos) == fields
