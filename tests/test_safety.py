import pytest

from ubsc import checker as ck
from ubsc import engine as eng
from ubsc import safety as sf
from ubsc.corpus import load_program
from ubsc.syntax import parse, parse_network, parse_type
from ubsc.terms import Endpoint


def test_classify_shapes():
    node = parse_network("[ *s!<1>. 0 | *s~3:[] ]")
    assert sf.classify_prefix(node, "s") == ("Brc", 3)
    node = parse_network('[ s>>{l: 0, df: 0} | s~2:["m"] ]')
    assert sf.classify_prefix(node, "s") == ("Bra", 2)
    node = parse_network("[ 0 | u~0:[] ]")
    assert sf.classify_prefix(node, "s") is None
    node = parse_network("[ *s?(x). 0 | *s~1:[(1, 2)] ]")
    assert sf.classify_prefix(node, "s") == ("Gth", 1)
    node = parse_network("[ s!<1>. 0 | s~0:[] ]")
    assert sf.classify_prefix(node, "s") == ("Uni", 0)
    # a non-empty own queue blocks the broadcast shape
    node = parse_network("[ *s!<1>. 0 | *s~3:[(3, 1)] ]")
    assert sf.classify_prefix(node, "s") is None


def test_classify_through_definitions():
    node = parse_network("[ def D() = *s!<1>. 0 in D() | *s~0:[] ]")
    assert sf.classify_prefix(node, "s") == ("Brc", 0)


def test_error_brc_bra():
    net = load_program("error_brc_bra.ubsc").network
    rep = sf.is_error_network(net)
    assert rep.verdict == "error-network"
    s, (i, ki, ci), (j, kj, cj) = rep.witness
    assert {ki, kj} == {"Brc", "Bra"} and ci == cj


def test_error_double_brc():
    net = load_program("error_brc_brc.ubsc").network
    rep = sf.is_error_network(net)
    assert rep.verdict == "error-network"
    _, (_, ki, _), (_, kj, _) = rep.witness
    assert ki == kj == "Brc"


def test_aggregator_pairs_any_state():
    net = parse_network("[ *s!<1>. 0 | *s~0:[] ] || [ *s?(x). 0 | *s~5:[] ]")
    assert sf.is_error_network(net).verdict == "error-network"


def test_mixed_pairs_require_same_state():
    net = parse_network("[ *s!<1>. 0 | *s~0:[] ] || [ s>>{l: 0, df: 0} | s~1:[] ]")
    assert sf.is_error_network(net).verdict == "ok"


def test_rcv_uni_pair_is_ok():
    net = load_program("ok_rcv_uni.ubsc").network
    assert sf.is_error_network(net).verdict == "ok"


def test_send_queue_note_is_distinct():
    net = parse_network("[ s!<1>. 0 | s~0:[9] ]")
    rep = sf.is_error_network(net)
    assert rep.verdict == "ok"
    assert rep.send_queue_violations


def test_deadlocked():
    assert sf.is_deadlocked(parse_network("[ acc a(x). 0 ] || [ acc b(y). 0 ]"))
    assert sf.is_deadlocked(parse_network("[ acc a(x). 0 + acc b(y). 0 ]"))
    assert not sf.is_deadlocked(parse_network("[ req a(*x). 0 ] || [ acc a(y). 0 ]"))
    assert not sf.is_deadlocked(parse_network("[0] || [0]"))
    assert not sf.is_deadlocked(parse_network("[ s?(x). 0 | s~0:[] ]"))


def test_deadlock_trichotomy_on_terminal_states():
    # terminal leftovers with buffers: not deadlocked, no redexes
    net = parse_network("[ 0 | s~2:[] ] || [ 0 | *s~2:[] ]")
    st = eng.RunState.from_network(net)
    assert eng.enabled_redexes(st) == []
    assert not sf.is_deadlocked(net)


def test_simple_networks():
    prog = load_program("heartbeat_gather.ubsc")
    g = ck.Gamma(shared=prog.shared_types())
    res = ck.type_network(g, prog.network)
    assert res.ok and sf.is_simple(res)

    paxos = load_program("paxos5.ubsc")
    g = ck.Gamma(shared=paxos.shared_types())
    res = ck.type_network(g, eng.encode_network(paxos.network))
    assert res.ok and sf.is_simple(res)


def test_two_session_interleaving_not_simple():
    text = """
type T = ?int. end
shared a : T
[ req a(*x). req a(*y). *x!<1>. *y!<2>. 0 ] || [ acc a(w). w?(z). 0 ] || [ acc a(w). w?(z). 0 ]
"""
    prog = parse(text)
    g = ck.Gamma(shared=prog.shared_types())
    res = ck.type_network(g, prog.network)
    assert res.ok
    assert not sf.is_simple(res)


# ------------------------------------------------------------- progress search

def beacon_state():
    net = parse_network(
        '[ *s!<"h">. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ] || [ s?(x). 0 | s~0:[] ]')
    return eng.RunState.from_network(eng.encode_network(net))


def test_progress_shape_detected():
    st = beacon_state()
    assert sf.progress_shape_sessions(st) == [("s", 0)]


def test_session_progress_search_finds_schedule():
    st = beacon_state()
    sched = sf.session_progress_search(st, "s", 0)
    assert sched is not None
    assert all(r.rule not in eng.RECOVERY_RULES for r in sched)


def test_recovery_shape_and_search():
    # a typed lagging node has exactly as many protocol steps left as its lag
    net = parse_network(
        '[ 0 | *s~2:[] ] || [ s!<"h">. 0 | s~1:[] ] || [ s!<"a">. s!<"b">. 0 | s~0:[] ]')
    st = eng.RunState.from_network(eng.encode_network(net))
    assert sf.recovery_shape_sessions(st) == [("s", 2)]
    sched = sf.session_recovery_search(st, "s", 2)
    assert sched is not None
    assert all(r.rule in ("Rec", "BRec", "Loss", "True", "False", "Rcv", "Bra")
               for r in sched)


def test_progress_during_gather_chain():
    prog = load_program("heartbeat_gather.ubsc")
    state = eng.RunState.from_network(eng.encode_network(prog.network))
    from ubsc import corpus as cp
    case = [c for c in cp.corpus_programs() if c.name == "gather_chain"][0]
    for spec in case.schedule:
        for sess, c in sf.progress_shape_sessions(state):
            assert sf.session_progress_search(state, sess, c) is not None
        for sess, c in sf.recovery_shape_sessions(state):
            assert sf.session_recovery_search(state, sess, c) is not None
        r, chosen = eng.resolve_script_step(state, spec)
        state = eng.apply_redex(state, r, chosen)


# ------------------------------------------------------------- one peel per node

def _reached_networks(name, seed, steps):
    cfg = eng.SchedulerConfig(seed=seed, loss_rate=0.3, recovery_bias=0.2, max_steps=steps)
    out = []
    eng.run_scheduler(load_program(name).network, cfg, digests=False,
                      on_step=lambda state, step: out.append(state.to_network()))
    return out


@pytest.mark.parametrize("name", [
    "paxos3.ubsc", "paxos5.ubsc", "paxos_multi.ubsc", "paxos_recover.ubsc",
    "heartbeat_gather.ubsc", "heartbeat_runtime.ubsc", "drop_connections.ubsc",
    "error_brc_bra.ubsc", "error_brc_brc.ubsc", "ok_rcv_uni.ubsc",
])
def test_error_network_report_matches_oracle(name):
    import safety_oracle
    nets = [load_program(name).network]
    for seed in (0, 1, 2):
        nets += _reached_networks(name, seed, 80)
    for net in nets:
        assert sf.is_error_network(net) == safety_oracle.is_error_network(net)


def test_error_network_report_matches_oracle_on_errors():
    """States with a witness and with send-queue violations, built by hand."""
    import safety_oracle
    for text in (
        "[ *s!<1>. 0 | *s~0:[] ] || [ s>>{l: 0, df: 0} | s~0:[] ]",
        "[ *s!<1>. 0 | *s~0:[] ] || [ *s!<2>. 0 | *s~0:[] ]",
        "[ *s!<1>. 0 | *s~0:[(0, 1)] ] || [ s!<1>. 0 | s~0:[2] ] || [ s?(x). 0 | s~0:[] ]",
        "[ *u<<l. 0 | *u~1:[(1, 1)] | s~0:[] ] || [ s!<1>. 0 | s~0:[] | u~1:[] ]",
    ):
        net = parse_network(text)
        assert sf.is_error_network(net) == safety_oracle.is_error_network(net)


def test_is_error_network_peels_each_node_once(monkeypatch):
    """On the paxos5 step-300 state (49 sessions) every node is peeled once,
    not once per session."""
    from ubsc import terms as t
    net = _reached_networks("paxos5.ubsc", 26508, 300)[-1]
    calls = []
    peel = sf._peel
    monkeypatch.setattr(sf, "_peel", lambda p, *a: calls.append(p) or peel(p, *a))
    report = sf.is_error_network(net)
    _, nodes = t.flatten_nodes(eng.normalize(net))
    assert len(calls) == len(nodes) == 5
    assert len({s for _, s in report.classification}) <= len(nodes)
