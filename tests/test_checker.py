import pytest

from golden_cases import corpus_programs
from ubsc import checker as ck
from ubsc import sestypes as st
from ubsc import engine as eng
from ubsc import sestypes as st
from ubsc import terms as t
from ubsc import values as v
from ubsc.corpus import load_program
from ubsc.syntax import parse_declared, parse_network, parse_process, parse_type
from ubsc.terms import Endpoint

G = ck.Gamma()


def declared(**kw):
    out = {}
    for name, (c, ty) in kw.items():
        aggr = name.startswith("a_")
        out[Endpoint(name[2:] if aggr else name, aggr)] = (c, parse_type(ty))
    return out


# ------------------------------------------------------------- buffer typing

def test_buffer_typing_tagged_queue():
    net = parse_network('[ 0 | *s~0:[(0, "hbt2"), (1, "hbt2"), (0, "hbt1")] ]')
    ep, c, m = ck.type_buffer(G, net.buffers[0])
    assert ep == Endpoint("s", True)
    assert c == 2
    assert m == (st.OutItem(v.STR_T), st.OutItem(v.STR_T))


def test_buffer_typing_empty():
    net = parse_network("[ 0 | s~2:[] ]")
    ep, c, m = ck.type_buffer(G, net.buffers[0])
    assert (ep, c, m) == (Endpoint("s", False), 2, ())


def test_buffer_typing_plain_fold():
    net = parse_network('[ 0 | s~1:["hbt"] ]')
    ep, c, m = ck.type_buffer(G, net.buffers[0])
    assert (ep, c, m) == (Endpoint("s", False), 1, (st.OutItem(v.STR_T),))
    # oracle: one item per message, in order
    net = parse_network('[ 0 | s~0:[1, #go, "x"] ]')
    _, _, m = ck.type_buffer(G, net.buffers[0])
    assert m == (st.OutItem(v.INT_T), st.SelItem("go"), st.OutItem(v.STR_T))


def test_buffer_typing_sandwiched_state():
    net = parse_network('[ 0 | *s~0:[(0, 1), (2, 2)] ]')
    _, c, m = ck.type_buffer(G, net.buffers[0])
    assert c == 3
    assert m == (st.OutItem(v.INT_T), st.PadItem(), st.OutItem(v.INT_T))


def test_buffer_typing_rejects_stale_and_mixed():
    with pytest.raises(ck.TypeFail):
        ck.type_buffer(G, parse_network('[ 0 | *s~2:[(0, 1)] ]').buffers[0])
    with pytest.raises(ck.TypeFail):
        ck.type_buffer(G, parse_network('[ 0 | *s~0:[(0, 1), (0, "x")] ]').buffers[0])


# ------------------------------------------------------------- process typing

def test_send_checks_against_given_type():
    p = parse_process('*s!<"hbt">. 0')
    d = {Endpoint("s", True): parse_type("!str.end")}
    assert ck.type_process(ck.Gamma(), d, p).ok
    d = {Endpoint("s", True): parse_type("!int.end")}
    assert not ck.type_process(ck.Gamma(), d, p).ok


def test_weakening_on_end():
    p = parse_process("0")
    assert ck.type_process(G, {Endpoint("s", False): st.END}, p).ok
    assert not ck.type_process(G, {Endpoint("s", False): parse_type("!int.end")}, p).ok


def test_select_polarity():
    p = parse_process("s<<go. 0")
    d = {Endpoint("s", False): parse_type("+{go: end}")}
    res = ck.type_process(G, d, p)
    assert not res.ok and res.error.rule == "TSel"


def test_branch_drops_only_plain():
    p = parse_process("s>>{go: 0, df: 0}")
    d = {Endpoint("s", False): parse_type("&{go: end}"),
         Endpoint("u", True): parse_type("!int.end")}
    res = ck.type_process(G, d, p)
    assert not res.ok  # the aggregator endpoint may not be dropped/left live


def test_sum_same_context():
    g = ck.Gamma(shared={"a": parse_type("?int.end")})
    p = parse_process("s!<1>. 0 + acc a(w). w?(y). s!<2>. 0")
    d = {Endpoint("s", False): parse_type("!int.end")}
    assert ck.type_process(g, d, p).ok


def test_cond_split_drops_plain():
    p = parse_process("if 1 > 2 then s!<1>. 0 else u!<2>. 0")
    d = {Endpoint("s", False): parse_type("!int.end"),
         Endpoint("u", False): parse_type("!int.end")}
    assert ck.type_process(G, d, p).ok


def test_request_gets_dual():
    g = ck.Gamma(shared={"a": parse_type("?int.end")})
    assert ck.type_process(g, {}, parse_process("req a(*x). *x!<1>. 0")).ok
    assert not ck.type_process(g, {}, parse_process("req a(*x). *x?(y). 0")).ok


def test_def_signature_inference_and_recursion():
    p = parse_process("def D(n) = if n > 0 then D(n - 1) else 0 in D(3)")
    assert ck.type_process(G, {}, p).ok


def test_def_channel_param():
    g = ck.Gamma(shared={"a": parse_type("?int.?int.end")})
    p = parse_process("def D(w) = w?(z). 0 in acc a(x). x?(y). D(x)")
    assert ck.type_process(g, {}, p).ok


def test_call_leftover_live_channel_fails():
    """A channel the call does not pass is shed before the call, by SWk."""
    p = parse_process("def D() = 0 in s?(x). D()")
    d = {Endpoint("s", False): parse_type("?int.?int.end")}
    res = ck.type_process(G, d, p)
    assert res.render() == "Fail SWk: unused channel s has type ?int.end, not end"


def _context(entries: dict) -> dict:
    """A linear context from ``{"*s": "+{a: end}", ...}``."""
    return {Endpoint(ch.lstrip("*"), ch.startswith("*")): parse_type(ty)
            for ch, ty in entries.items()}


@pytest.mark.parametrize("text, entries, expect", [
    ("s!<1>. 0", {}, "Fail TSnd: channel s not in the linear context"),
    ("req a(*x). 0", {}, "Fail TReq: undeclared shared channel a"),
    ("acc a(x). 0", {}, "Fail TAcc: undeclared shared channel a"),
    ("*s<<b. 0", {"*s": "+{a: end}"}, "Fail TSel: label b not offered by +{a: end}"),
    ("*s>>{a: 0}", {"*s": "&{a: end}"}, "Fail TBr: branch on aggregator endpoint *s"),
    ("s>>{a: *r!<1>. 0, df: 0}", {"s": "&{a: end}", "*r": "!int.end"},
     "Fail TBr: recovery arm drops aggregator endpoint *r"),
    ("if 1 then 0 else 0", {}, "Fail TCond: guard has type int"),
    ("if true then *r!<1>. 0 else 0", {"*r": "!int.end"},
     "Fail TCond: aggregator endpoint *r dropped by else-branch"),
    ("if true then 0 else *r!<1>. 0", {"*r": "!int.end"},
     "Fail TCond: aggregator endpoint *r dropped by then-branch"),
    ("D(1)", {}, "Fail TVar: unbound definition D"),
    ("def D(n) = 0 in D(1, 2)", {}, "Fail TVar: D expects 1 arguments, got 2"),
    ("def D(x) = x!<1>. 0 in D(s)", {}, "Fail TVar: channel argument s not in context"),
    ("def D(x) = x!<1>. 0 in if true then D(s) else D(1)", {"s": "!int.end"},
     "Fail TVar: D: expected a channel argument, got expression"),
    ("def D(x) = x!<1>. D(*x) in D(s)", {"s": "!int.end"},
     "Fail TVar: D: channel argument *x has wrong polarity"),
    ("def D(x) = x!<1>. D(y) in D(s)", {"s": "!int.end"},
     "Fail TVar: channel argument y not in context"),
    ("def D(x) = x!<1>. D(x) in D(s)", {"s": "!int.end"},
     "Fail TVar: D: channel argument x type mismatch"),
    ("def D(n) = D(*s) in D(1)", {}, "Fail TVar: D: expected an expression argument, got channel"),
    ("def D(n) = D(true) in D(1)", {}, "Fail TVar: D: argument type bool does not match int"),
    ("0 >r 0", {}, "Fail TRec: recovery term must be encoded before typechecking"),
    ("s?(x). 0", {}, "Fail TRcv: channel s not in the linear context"),
    ("s!<1>. 0", {"s": "?int.end"}, "Fail TSnd: s has type ?int.end, cannot send"),
    ("s?(x). 0", {"s": "!int.end"}, "Fail TRcv: s has type !int.end, cannot receive"),
    ("*s<<a. 0", {"*s": "!int.end"}, "Fail TSel: *s has type !int.end, cannot select"),
    ("s>>{a: 0, df: 0}", {"s": "!int.end"}, "Fail TBr: s has type !int.end, cannot branch"),
    ("s<<a. 0", {"s": "+{a: end}"}, "Fail TSel: select on plain endpoint s"),
    ("s!<true>. 0", {"s": "!int.end"},
     "Fail TExpr: expected payload type int, got bool (at s!<true>. 0)"),
])
def test_process_rule_rejections(text, entries, expect):
    """One ill-typed process per rejection of a process typing rule.  A
    definition's signature comes from its first call, so a call that
    disagrees with it is a second call.  Two rejections cannot be reached:
    TInact with channels left, and a call that leaves live channels, as
    every channel a process does not use is weakened away or rejected by SWk
    first."""
    assert ck.type_process(G, _context(entries), parse_process(text)).render() == expect


@pytest.mark.parametrize("text, protocols, expect", [
    ("[ 0 | s~0:[] | s~0:[] ]", {}, "Fail TNode: duplicate buffer for s (at node#0)"),
    ("new a. [ req a(*x). 0 ]", {}, "Fail TCRes: no protocol for restricted shared name a"),
    ("new a. [ req a(*x). 0 ]", {"a": "end"}, "Ok, residual: (empty)"),
    ("new s. [ s?(x). 0 | s~0:[] ]", {},
     "Fail TSRes: restricted session s has no aggregator endpoint in context"),
    ("[ s?(x). 0 | s~5:[] ]", {"s": "?int.end"},
     "Fail TNode: no protocol position 5 for s (at node#0 (line 1))"),
])
def test_network_rule_rejections(text, protocols, expect):
    protocols = {name: parse_type(ty) for name, ty in protocols.items()}
    res = ck.type_network(G, parse_network(text), protocols=protocols)
    assert res.render() == expect
    assert not res.ok or "TCRes" in [app.rule for app in res.trace]


@pytest.mark.parametrize("text, context, expect", [
    # the plain entry cannot be reached from the aggregator's dual, so the
    # reduct after the broadcast would not type: preservation would fail
    ("[ *s!<1>. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ]", "*s:(0, !int.end), s:(0, ?str.end)",
     "Fail TSynch: declared entries *s: (0, !int.end) and s: (0, ?str.end) do not synchronise"),
    ("[ 0 | *s~1:[] ] || [ s?(x). 0 | s~0:[] ]", "*s:(1, end), s:(0, ?str.end)",
     "Ok, residual: *s: (1, end), s: (0, ?str.end)"),
    ("[ *s!<1>. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ]", "*s:(0, !int.end), s:(1, end)",
     "Ok, residual: *s: (0, !int.end), s: (1, end)"),
    ("[ 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ] || [ 0 | s~1:[] ]", "s:(2, end)",
     "Fail TSynch: s: (1, end) does not synchronise to (2, end)"),
])
def test_declared_context(text, context, expect):
    """A declared context is checked against itself before the network: a
    session declaring both endpoints must have a plain entry its
    aggregator's dual synchronises to.  A lagging plain entry qualifies."""
    res = ck.type_network(G, parse_network(text), declared=parse_declared(context))
    assert res.render() == expect


# ------------------------------------------------------------- network typing

def test_heartbeat_static():
    net = parse_network('[ *s!<"hbt">. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ] || [ s?(x). 0 | s~0:[] ]')
    res = ck.type_network(G, net, declared=declared(
        a_s=(0, "!str.end"), s=(0, "?str.end")))
    assert res.ok


def test_heartbeat_runtime_synch():
    net = parse_network('[ 0 | *s~1:[] ] || [ s?(x). 0 | s~1:["hbt"] ] || [ s?(x). 0 | s~0:[] ]')
    res = ck.type_network(G, net, declared=declared(a_s=(1, "end"), s=(1, "end")))
    assert res.ok
    assert any(a.rule == "TSynch" for a in res.trace)


def test_heartbeat_gather_runtime_judgment():
    prog = load_program("heartbeat_runtime1.ubsc")
    res = ck.type_network(G, prog.network)
    assert res.ok and res.residual == {}
    # the intermediate judgment with both endpoints at state 2 is in the trace
    tpar = [a for a in res.trace if a.rule == "TPar"]
    assert any("*s: (2, end), s: (2, end)" in (a.judgment or "") for a in tpar)


def test_node_domain_conditions():
    # process uses a session with no buffer
    net = parse_network("[ s!<1>. 0 ]")
    res = ck.type_network(G, net)
    assert not res.ok and res.error.rule == "TNode"
    # free channel variable
    p = t.NetworkNode(t.Send(t.ChanVar("x", False), v.Lit(v.IntV(1)), t.Inact()), ())
    res = ck.type_network(G, p)
    assert not res.ok and "channel variable" in res.error.reason


@pytest.mark.parametrize("text, expect", [
    ("[ s!<1>. 0 + s?(x). 0 | s~0:[] ]",
     "Fail TNode: sum alternatives disagree on s (at node#0 (line 1))"),
    ("[ if true then s!<1>. 0 else s?(x). 0 | s~0:[] ]",
     "Fail TNode: branches disagree on s (at node#0 (line 1))"),
    ("[ acc a(x). 0 + s!<1>. 0 | s~0:[] ]",
     "Fail TNode: cannot synthesise a type for Accept; a protocol declaration is "
     "required (at node#0 (line 1))"),
    ("[ s!<1>. 0 + s!<2>. 0 | s~0:[] ]", "Ok, residual: s: (0, !int.end)"),
    ("[ s>>{a: u!<1>. 0, b: u?(x). 0, df: 0} | s~0:[] | u~0:[] ]",
     "Fail TNode: branches disagree on u (at node#0 (line 1))"),
    ("[ *s<<a. 0 | *s~0:[] ]", "Ok, residual: *s: (0, +{a: end})"),
    ("[ s!<1 + true>. 0 | s~0:[] ]",
     "Fail TNode: arithmetic over int, bool (at node#0 (line 1))"),
    ("[ D(1) | s~0:[] ]",
     "Fail TNode: cannot synthesise a type for Call; a protocol declaration is "
     "required (at node#0 (line 1))"),
])
def test_synthesis_without_protocols(text, expect):
    """With no protocol for its session, a node's types are synthesised
    from its process; each failure names the merge that failed."""
    assert ck.type_network(G, parse_network(text)).render() == expect


def test_duplicate_aggregator_rejected():
    net = parse_network("[ 0 | *s~0:[] ] || [ 0 | *s~0:[] ]")
    res = ck.type_network(G, net)
    assert not res.ok and res.error.rule == "TPar"


def test_restriction_duality_failure():
    net = parse_network("new s. ([ *s!<1>. 0 | *s~0:[] ] || [ s>>{l: 0, df: 0} | s~0:[] ])")
    res = ck.type_network(G, net)
    assert not res.ok
    assert res.error.rule in ("TSRes", "TSynch")


def test_vacuous_restriction_allowed():
    net = parse_network("new s. [0]")
    assert ck.type_network(G, net).ok


def test_congruence_invariance():
    a = parse_network('[ s?(x). 0 | s~0:[] ] || [ *s!<"h">. 0 | *s~0:[] ]')
    b = parse_network('[ *s!<"h">. 0 | *s~0:[] ] || ([ s?(x). 0 | s~0:[] ] || [0])')
    d = declared(a_s=(0, "!str.end"), s=(0, "?str.end"))
    ra = ck.type_network(G, a, declared=d)
    rb = ck.type_network(G, b, declared=d)
    assert ra.ok and rb.ok
    bad = declared(a_s=(0, "!int.end"), s=(0, "?int.end"))
    assert not ck.type_network(G, a, declared=bad).ok
    assert not ck.type_network(G, b, declared=bad).ok


def test_substitution_preserves_typing():
    # typing the bound form implies typing of the substituted form
    g = ck.Gamma(shared={"a": parse_type("?int.end")})
    bound = parse_process("acc a(w). w?(y). 0")
    assert ck.type_process(g, {}, bound).ok
    inner = bound.body  # w?(y). 0 with w a channel variable
    substituted = t.subst_channel(inner, "w", Endpoint("s", False))
    d = {Endpoint("s", False): parse_type("?int.end")}
    assert ck.type_process(g, d, substituted).ok


def test_send_prefix_buffer_empty_lemma():
    # a well-typed node with a pending send has an empty own queue: the
    # non-empty variant is untypeable under any context the harness tries
    net = parse_network('[ s!<1>. 0 | s~0:[7] ]')
    for d in [declared(s=(0, "!int.end")), declared(s=(1, "!int.end")),
              declared(s=(1, "end")), declared(s=(2, "end"))]:
        assert not ck.type_network(G, net, declared=d).ok
    # while the empty-queue variant types
    ok_net = parse_network('[ s!<1>. 0 | s~0:[] ]')
    assert ck.type_network(G, ok_net, declared=declared(s=(0, "!int.end"))).ok


def test_error_networks_rejected_everywhere():
    brc_bra = load_program("error_brc_bra.ubsc").network
    brc_brc = load_program("error_brc_brc.ubsc").network
    contexts = [
        declared(a_s=(0, "!int.end"), s=(0, "?int.end")),
        declared(a_s=(0, "+{a: end}"), s=(0, "&{a: end}")),
        declared(a_s=(1, "end"), s=(1, "end")),
        declared(a_s=(2, "!int.end"), s=(2, "?int.end")),
    ]
    for d in contexts:
        assert not ck.type_network(G, brc_bra, declared=d).ok
        assert not ck.type_network(G, brc_brc, declared=d).ok


def test_rcv_uni_pair_types_with_synch():
    net = load_program("ok_rcv_uni.ubsc").network
    res = ck.type_network(G, net, declared=declared(s=(1, "end")))
    assert res.ok


def test_rcv_uni_with_aggregator_untypeable():
    n1 = parse_network('[ *s!<1>. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ] || [ s!<1>. 0 | s~0:[] ]')
    n2 = parse_network('[ *s?(x). 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ] || [ s!<1>. 0 | s~0:[] ]')
    contexts = [
        declared(a_s=(0, "!int.end"), s=(0, "?int.end")),
        declared(a_s=(0, "?int.end"), s=(0, "!int.end")),
        declared(a_s=(1, "end"), s=(1, "end")),
    ]
    for n in (n1, n2):
        assert all(not ck.type_network(G, n, declared=d).ok for d in contexts)


def test_paxos_types_and_recheck():
    prog = load_program("paxos5.ubsc")
    g = ck.Gamma(shared=prog.shared_types())
    net = eng.encode_network(prog.network)
    res = ck.type_network(g, net)
    assert res.ok and res.residual == {}
    assert ck.recheck(res, g, net)


def test_paxos_multi_variant_types():
    prog = load_program("paxos_multi.ubsc")
    g = ck.Gamma(shared=prog.shared_types())
    res = ck.type_network(g, eng.encode_network(prog.network))
    assert res.ok, res.render()


def test_drop_connections_types():
    prog = load_program("drop_connections.ubsc")
    g = ck.Gamma(shared=prog.shared_types())
    res = ck.type_network(g, eng.encode_network(prog.network))
    assert res.ok, res.render()


def test_typed_step_preservation_on_gather_chain():
    case = [c for c in corpus_programs() if c.name == "gather_chain"][0]
    prog = load_program(case.program)
    g = ck.Gamma(shared=prog.shared_types())
    protocols = {"a": prog.shared_types()["a"]}
    state = eng.RunState.from_network(eng.encode_network(prog.network))
    prev = ck.type_network(g, state.to_network(), protocols=protocols)
    assert prev.ok
    for spec in case.schedule:
        _, _, state = eng.resolve_script_step(state, spec)
        protocols = {s: prog.shared_types()["a"] for s in state.restricted}
        protocols["a"] = prog.shared_types()["a"]
        cur = ck.type_network(g, state.to_network(), protocols=protocols)
        assert cur.ok, (spec, cur.render())
        assert st.advances_to(prev.full_context, cur.full_context), spec
        prev = cur


def test_substitution_preserves_typing_generated():
    # over generated programs: the accept-bound body types with the channel
    # variable, and stays typeable after substituting a concrete endpoint
    import random as _random
    from conftest import generate_program, plain_body
    from ubsc.syntax import parse, parse_process
    for gseed in range(20):
        text = generate_program(gseed)
        prog = parse(text)
        g = ck.Gamma(shared=prog.shared_types())
        T = prog.shared_types()["a"]
        rng = _random.Random(gseed)
        body_text = plain_body(rng, T, "c")
        bound = parse_process(f"acc a(c). {body_text}")
        assert ck.type_process(g, {}, bound).ok, text
        inner = t.subst_channel(bound.body, "c", Endpoint("s", False))
        res = ck.type_process(g, {Endpoint("s", False): T}, inner)
        assert res.ok, (text, res.render())


def test_mixed_set_in_a_buffer_fails_sexp():
    res = ck.type_network(ck.Gamma(), parse_network('[ 0 | s~0:[{1, "a"}] ]'))
    text = res.render()
    assert not res.ok and text.startswith("Fail SExp: mixed element types in set: ")
    assert text.endswith(" (at s)")
