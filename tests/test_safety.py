import os

import pytest

from conftest import generate_program
from golden_cases import corpus_programs
from ubsc import checker as ck
from ubsc import engine as eng
from ubsc import safety as sf
from ubsc import terms as t
from ubsc.corpus import corpus_dir, load_program
from ubsc.syntax import parse, parse_declared, parse_network, parse_type
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


def test_error_pair_behind_four_unfoldings():
    """Both Bcasts are enabled, so both nodes sit at a Brc head, though one
    of them is four unfoldings deep."""
    net = parse_network("[ def A() = B(), B() = C(), C() = D(), D() = *s!<1>. 0 in A() "
                        "| *s~0:[] ] || [ *s!<2>. 0 | *s~0:[] ]")
    redexes = eng.enabled_redexes(eng.RunState.from_network(net))
    assert [(r.rule, r.sender) for r in redexes] == [("Bcast", 0), ("Bcast", 1)]
    rep = sf.is_error_network(net)
    assert rep.verdict == "error-network"
    _, (_, ki, _), (_, kj, _) = rep.witness
    assert ki == kj == "Brc"


def test_deadlock_with_sum_inside_definitions():
    assert sf.is_deadlocked(parse_network("[ def D() = acc a(x). 0 in (D() + acc b(y). 0) ]"))


def test_stuck_calls():
    """A call that does not unfold is a head that fires nothing: it is no
    accept, and a sum holding one still has two heads."""
    assert not sf.is_deadlocked(parse_network("[ X() ]"))
    assert not sf.is_deadlocked(parse_network("[ acc a(x). 0 + X() ]"))
    node = parse_network("[ *s!<1>. 0 + X() | *s~0:[] ]")
    assert sf.classify_prefix(node, "s") is None
    net = parse_network("[ *s!<1>. 0 + X() | *s~0:[] ] || [ *s!<2>. 0 | *s~0:[] ]")
    assert sf.is_error_network(net).classification == {(1, "s"): ("Brc", 0)}


def test_stuck_call_in_a_sum_fires_nothing():
    net = parse_network("[ *s!<1>. 0 + X() + *s!<2>. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ]")
    state = eng.RunState.from_network(net)
    heads = [h for h, _ in eng.alternatives(state.nodes[0].process)]
    assert [type(h) for h in heads] == [t.Send, t.Call, t.Send]
    redexes = eng.enabled_redexes(state)
    assert [(r.rule, r.session, r.sender, r.receivers, r.detail) for r in redexes] == [
        ("Bcast", "s", 0, (1,), ()), ("Bcast", "s", 0, (1,), ()), ("Rec", "s", 1, (), ())]
    assert [r.alt for r in redexes if r.sender == 0] == [0, 2]


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


def test_is_simple_needs_a_typed_network():
    prog = load_program("error_brc_bra.ubsc")
    res = ck.type_network(ck.Gamma(shared=prog.shared_types()), prog.network,
                          declared=parse_declared("*s:(0, !int.end), s:(0, ?int.end)",
                                                  prog.type_decls))
    assert not res.ok
    with pytest.raises(ValueError, match="requires an Ok typing result"):
        sf.is_simple(res)


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


def test_search_cuts_paths_at_its_bound():
    """Two broadcasts bring ``s`` to state 2: a bound of 1 finds nothing."""
    state = eng.RunState.from_network(parse_network(
        "[ *s!<1>. *s!<2>. 0 | *s~0:[] ] || [ s?(x). s?(y). 0 | s~0:[] ]"))
    target = sf._all_at("s", 2)
    for bound in (0, 1):
        assert sf._bfs(state, lambda r: True, target, bound) is None
    assert [r.rule for r in sf._bfs(state, lambda r: True, target, 2)] == ["Bcast", "Bcast"]


def _all_at_oracle(state: eng.RunState, session: str, c: int) -> bool:
    """The search target as it was before it kept each node's part: every
    buffer of ``session`` in the state, read from ``_session_positions``."""
    import safety_oracle
    ag_nodes, pl_nodes = safety_oracle._session_positions(state, session)
    return len(ag_nodes) == 1 and all(cp == c for _, cp in ag_nodes + pl_nodes)


@pytest.mark.parametrize("name", ["paxos3.ubsc", "paxos5.ubsc", "paxos_multi.ubsc"])
def test_search_target_matches_session_positions(name):
    """One target per session and state, kept over a whole run as a search
    keeps it over the states it reaches, agrees with the buffer scan on
    every reached state of a paxos run: at each state some buffer of the
    session holds, and at the state after it."""
    states = []
    eng.run_scheduler(load_program(name).network, eng.SchedulerConfig(
        seed=1, loss_rate=0.3, recovery_bias=0.2, max_steps=120), digests=False,
        on_step=lambda state, step: states.append(state))
    targets, hits = {}, 0
    for state in states:
        at = {(b.ep.session, b.state + k) for nd in state.nodes for b in nd.buffers
              for k in (0, 1)}
        for s, c in sorted(at):
            target = targets.setdefault((s, c), sf._all_at(s, c))
            assert target(state) == _all_at_oracle(state, s, c), (s, c)
            hits += target(state)
    assert hits > 0


def test_search_target_counts_every_aggregator():
    """A node with two aggregator buffers of the session, and one node
    object held twice in a state, count each buffer where it stands."""
    twice = parse_network("[ 0 | s~1:[] ] || [ 0 | s~1:[] ] || [ 0 | *s~1:[] ]")
    doubled = parse_network("[ 0 | *s~1:[] ] || [ 0 | *s~1:[] ] || [ 0 | s~1:[] ]")
    both = parse_network("[ 0 | *s~1:[] | *s~1:[] ] || [ 0 | s~1:[] ]")
    for net, want in ((twice, True), (doubled, False), (both, False)):
        state = eng.RunState.from_network(net)
        assert len(set(map(id, state.nodes))) < len(state.nodes) or net is both
        for c in (0, 1):
            target = sf._all_at("s", c)
            assert [target(state), target(state)] == [want and c == 1] * 2
            assert target(state) == _all_at_oracle(state, "s", c)


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
    case = [c for c in corpus_programs() if c.name == "gather_chain"][0]
    for spec in case.schedule:
        for sess, c in sf.progress_shape_sessions(state):
            assert sf.session_progress_search(state, sess, c) is not None
        for sess, c in sf.recovery_shape_sessions(state):
            assert sf.session_recovery_search(state, sess, c) is not None
        _, _, state = eng.resolve_script_step(state, spec)


# ------------------------------------------------------------- one head view

CORPUS_PROGRAMS = sorted(f for f in os.listdir(corpus_dir()) if f.endswith(".ubsc"))


def _reached_networks(name, seed, steps, network=None):
    cfg = eng.SchedulerConfig(seed=seed, loss_rate=0.3, recovery_bias=0.2, max_steps=steps)
    out = []
    eng.run_scheduler(network or load_program(name).network, cfg, digests=False,
                      on_step=lambda state, step: out.append(state.to_network()))
    return out


def _assert_checks_match_oracle(nets):
    import safety_oracle
    for net in nets:
        assert sf.is_error_network(net) == safety_oracle.is_error_network(net)
        assert sf.is_deadlocked(net) == safety_oracle.is_deadlocked(net)


@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
def test_error_network_report_matches_oracle(name):
    """Both safety checks, which read ``engine.alternatives``, agree with
    the oracle's bounded peel on the scheduler-reached states."""
    nets = [load_program(name).network]
    for seed in (0, 1, 2):
        nets += _reached_networks(name, seed, 150)
    _assert_checks_match_oracle(nets)


@pytest.mark.parametrize("name", ["paxos3.ubsc", "paxos5.ubsc", "heartbeat_gather.ubsc"])
def test_shapes_match_oracle(name):
    import safety_oracle
    for net in _reached_networks(name, 0, 150):
        state = eng.RunState.from_network(net)
        assert sf.progress_shape_sessions(state) == safety_oracle.progress_shape_sessions(state)
        assert sf.recovery_shape_sessions(state) == safety_oracle.recovery_shape_sessions(state)


def test_safety_checks_match_oracle_on_generated_programs():
    nets = []
    for gseed in range(40):
        network = parse(generate_program(gseed)).network
        nets += [network] + _reached_networks(None, gseed, 150, network)
    _assert_checks_match_oracle(nets)


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


def test_safety_checks_reuse_the_engine_heads(monkeypatch):
    """On the paxos5 step-300 state (49 sessions), once ``enabled_redexes``
    has read every node's heads, the safety checks unfold no call."""
    net = _reached_networks("paxos5.ubsc", 26508, 300)[-1]
    eng.enabled_redexes(eng.RunState.from_network(net))
    calls = []
    unfold = t.unfold_call
    monkeypatch.setattr(t, "unfold_call", lambda *a: calls.append(a) or unfold(*a))
    report = sf.is_error_network(net)
    sf.is_deadlocked(net)
    assert calls == []
    _, nodes = t.flatten_nodes(eng.normalize(net))
    assert len({s for _, s in report.classification}) <= len(nodes) == 5


@pytest.mark.parametrize("name", ["paxos5.ubsc", "drop_connections.ubsc", "error_brc_bra.ubsc"])
def test_normal_form_carries_its_parts(name, monkeypatch):
    """``normalize`` returns a network that carries its names and nodes, so
    flattening it walks nothing, and a reached state, which carries its
    own, is normalised and flattened without a walk.  The parts are those
    of ``normal_parts``, which the safety checks read before."""
    import canon_oracle
    reached = _reached_networks(name, 1, 80)
    nets = [load_program(name).network, *reached,
            parse_network("new s. new u. ([ 0 ] || [ s!<1>. 0 | s~0:[] ])")]
    walked = []
    free_names = t.free_names
    monkeypatch.setattr(t, "free_names", lambda n: walked.append(n) or free_names(n))
    for net in nets:
        normal, want = eng.normalize(net), canon_oracle.normal_parts(net)
        walked.clear()
        assert t.flatten_nodes(normal) == want and walked == []
    for net in reached:
        walked.clear()
        assert t.flatten_nodes(eng.normalize(net)) and walked == []


def test_safety_checks_flatten_once(monkeypatch):
    net = _reached_networks("paxos3.ubsc", 0, 40)[-1]
    calls = []
    flatten = t.flatten_nodes
    monkeypatch.setattr(t, "flatten_nodes", lambda n: calls.append(n) or flatten(n))
    sf.is_error_network(net)
    sf.is_deadlocked(net)
    assert len(calls) == 2


def test_send_queue_note_on_a_well_typed_state():
    """drop_connections, seed 3, loss 0.3, bias 0.25: after its second step
    (a Ucast to the aggregator, which is about to broadcast) the aggregator
    holds a tagged message in its own queue.  The state types under
    criterion 4's protocols, so the note states the fact and makes no claim
    about typing."""
    from test_type_memo import _drop_protocols, _runs
    prog = load_program("drop_connections.ubsc")
    state = list(_runs(prog, [3], 2, 0.3, 0.25))[-1]
    net = state.to_network()
    assert ck.type_network(ck.Gamma(shared=prog.shared_types()), net,
                           protocols=_drop_protocols(state)).ok
    assert sf.is_error_network(net).render() == (
        "ok\n  note: node#0 sends on s with a non-empty own queue")
