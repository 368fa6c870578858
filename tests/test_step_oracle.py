"""Redex enumeration and application against the code they replaced.

``step_oracle`` holds the earlier ``enabled_redexes``, ``apply_redex`` and
``redex_payload`` verbatim, which rebuild every node's alternatives and
buffer map on every call.  On scheduler-reached states of every corpus
program (encoded and raw) and of generated programs, each state must give
the same redexes in the same order, and each redex the same payload and an
equal next state, node lines included, under the full, an empty and a
random receiver subset."""

import dataclasses
import functools
import glob
import os
import random

import pytest

import alt_oracle
import step_oracle as oracle
from conftest import generate_program
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import terms as t
from ubsc import values as v
from ubsc.syntax import parse, parse_network

CORPUS = sorted(os.path.basename(f) for f in glob.glob(os.path.join(cp.corpus_dir(), "*.ubsc")))
GENERATED = [f"gen:{s}" for s in range(40)]


@functools.lru_cache(maxsize=None)
def _network(name: str) -> t.Network:
    if name.startswith("gen:"):
        return parse(generate_program(int(name[4:]))).network
    return cp.load_program(name).network


def _outcome(fn, *args, **kwargs):
    """The state ``fn`` returns, with its node lines, or the error it raises."""
    try:
        state = fn(*args, **kwargs)
    except eng.EngineError as e:
        return "EngineError", str(e)
    return state, tuple(nd.pos for nd in state.nodes)


def _choices(r: eng.Redex, rng: random.Random) -> list:
    """The receiver subsets to apply ``r`` under: the default, none and a
    random subset."""
    return [None, (), tuple(j for j in r.receivers if rng.random() < 0.5)]


def _assert_step_matches(state: eng.RunState, rng: random.Random) -> list:
    redexes = eng.enabled_redexes(state)
    assert redexes == oracle.enabled_redexes(state)
    for r in redexes:
        assert eng.redex_payload(state, r) == oracle.redex_payload(state, r)
        for chosen in _choices(r, rng):
            assert (_outcome(eng.apply_redex, state, r, chosen)
                    == _outcome(oracle.apply_redex, state, r, chosen))
    return redexes


def _walk(net: t.Network, seed: int, steps: int) -> set:
    """Follow a seeded schedule from ``net``, checking every state on it;
    the rules of the redexes compared."""
    state = eng.RunState.from_network(net)
    rng = random.Random(seed)
    compared = set()
    for _ in range(steps):
        redexes = _assert_step_matches(state, rng)
        compared.update(r.rule for r in redexes)
        if not redexes:
            break
        state = eng.apply_redex(state, *eng.pick_redex(redexes, rng, 0.3, 0.2))
    return compared


@functools.lru_cache(maxsize=None)
def _walks(name: str) -> frozenset:
    """Walk the program ``name`` on its seeded schedules; the rules compared."""
    net = _network(name)
    if name.startswith("gen:"):
        runs = [(eng.encode_network(net), seed, 40) for seed in (7, 8)]
    else:  # raw too: recovery terms are heads no rule fires from
        runs = ([(eng.encode_network(net), seed, 60) for seed in (0, 1, 2)]
                + [(net, seed, 60) for seed in (3, 4)])
    return frozenset().union(*(_walk(*run) for run in runs))


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_runs_match_oracle(name):
    _walks(name)


def test_generated_runs_match_oracle():
    for name in GENERATED:
        _walks(name)


def test_walks_compare_every_rule():
    """The corpus and generated walks reach each of the twelve rules, so the
    oracle skips none of them."""
    compared = frozenset().union(*map(_walks, CORPUS + GENERATED))
    assert compared == {"Conn", "Bcast", "Sel", "Ucast", "Gthr", "Rcv", "Bra",
                        "Rec", "BRec", "Loss", "True", "False"}


ACCEPTORS = ("[ acc a(c). c?(x). 0 + acc a(d). d?(y). d?(z). 0 ] || "
             "[ acc a(c). c?(x). 0 + acc a(d). d?(y). d?(z). 0 ] || "
             "[ req a(*c). *c!<1>. *c!<2>. 0 ]")


def _two_equal_nodes(state: eng.RunState, same_object: bool, pos=(None, None)):
    """``state`` with node 1 replaced by node 0: the same object, or an equal
    one with the two at the lines ``pos``."""
    n0 = state.nodes[0]
    if same_object:
        n1 = n0
    else:
        n0 = dataclasses.replace(n0, pos=pos[0])
        n1 = dataclasses.replace(n0, pos=pos[1])
    return dataclasses.replace(state, nodes=(n0, n1) + state.nodes[2:])


def test_equal_nodes_at_two_indices_match_oracle():
    rng = random.Random(5)
    state = eng.RunState.from_network(parse_network(ACCEPTORS))
    for _ in range(6):
        for same in (True, False):
            st = _two_equal_nodes(state, same)
            assert st.nodes[0] == st.nodes[1]
            _assert_step_matches(st, rng)
        redexes = eng.enabled_redexes(state)
        if not redexes:
            break
        state = eng.apply_redex(state, redexes[0])


def test_equal_nodes_keep_their_own_lines():
    rng = random.Random(6)
    state = eng.RunState.from_network(parse_network(ACCEPTORS))
    for _ in range(6):
        st = _two_equal_nodes(state, False, pos=(3, 7))
        _assert_step_matches(st, rng)
        for r in eng.enabled_redexes(st):
            assert [nd.pos for nd in eng.apply_redex(st, r).nodes[:2]] == [3, 7]
        # and swapped, so whichever line fills a memo, the other reads it
        swapped = _two_equal_nodes(state, False, pos=(7, 3))
        for r in eng.enabled_redexes(swapped):
            assert [nd.pos for nd in eng.apply_redex(swapped, r).nodes[:2]] == [7, 3]
        redexes = eng.enabled_redexes(state)
        if not redexes:
            break
        state = eng.apply_redex(state, redexes[-1])


@pytest.mark.parametrize("text", [
    # a default arm on the branch's own session: only the other buffers count
    "[ s>>{l: 0, df: s!<1>. 0} | s~0:[] ] || [ 0 | *s~1:[] ]",
    "[ s>>{l: 0, df: s!<1>. 0} | s~0:[] | *s~0:[] ]",
    '[ s>>{l: 0, df: 0} | s~0:["m"] ] || [ *s<<l. 0 | *s~0:[] ]',
    "[ if 1 > 2 then s!<1>. 0 else t!<2>. 0 | s~0:[] ] || [ 0 | *s~0:[] ]",
    "[ s!<1>. 0 | s~2:[] ] || [ 0 | *s~2:[] ] || [ 0 | *s~3:[] ]",
])
def test_hand_written_states_match_oracle(text):
    _walk(parse_network(text), 9, 10)


def _disjoint_sibling(state: eng.RunState, r: eng.Redex, redexes: list):
    """The state after the first other redex that leaves ``r``'s sender
    node the same object and ``r`` enabled with equal fields; None when no
    redex does."""
    for q in redexes:
        if q == r:
            continue
        sibling = eng.apply_redex(state, q)
        if sibling.nodes[r.sender] is state.nodes[r.sender] \
                and r in eng.enabled_redexes(sibling):
            return sibling
    return None


@functools.lru_cache(maxsize=None)
def _repeats(name: str) -> frozenset:
    """Apply each non-Conn redex of every state of seeded scheduler runs of
    ``name`` from the state and again from a sibling state holding the same
    sender node object; the rules repeated."""
    net = eng.encode_network(_network(name))
    states = []
    for seed in (0, 1, 2):
        states.append(eng.RunState.from_network(net))
        eng.run_scheduler(net, eng.SchedulerConfig(seed=seed, max_steps=60), digests=False,
                          on_step=lambda state, _: states.append(state))
    repeated = set()
    for state in states:
        redexes = eng.enabled_redexes(state)
        for r in redexes:
            if r.rule == "Conn":
                continue
            first = _outcome(eng.apply_redex, state, r)
            assert first == _outcome(oracle.apply_redex, state, r)
            sibling = _disjoint_sibling(state, r, redexes)
            if sibling is None:
                continue
            assert sibling.nodes[r.sender] is state.nodes[r.sender]
            second = _outcome(eng.apply_redex, sibling, r)
            assert second == _outcome(oracle.apply_redex, sibling, r)
            assert second[0].nodes[r.sender] is first[0].nodes[r.sender]
            repeated.add(r.rule)
    return frozenset(repeated)


@pytest.mark.parametrize("name", CORPUS)
def test_repeated_steps_reuse_the_sender_node(name):
    """Both results of a repeated step equal the oracle's, node lines
    included, and the second gives back the first's sender node object."""
    _repeats(name)


def test_repeated_steps_cover_every_rule_but_conn():
    repeated = frozenset().union(*map(_repeats, CORPUS))
    assert repeated == {"Bcast", "Sel", "Ucast", "Gthr", "Rcv", "Bra",
                        "Rec", "BRec", "Loss", "True", "False"}, repeated


# ------------------------------------------------------------- alternatives

def _reached_processes() -> dict:
    """Each process on the nodes of the raw and encoded program and of every
    state of seeded scheduler runs (seeds 0-2, 200 steps), over every corpus
    program and every generated one, as dict keys in the order met."""
    procs: dict = {}

    def note(state, _=None):
        procs.update(dict.fromkeys(nd.process for nd in state.nodes))

    for name in CORPUS + GENERATED:
        net = _network(name)
        note(eng.RunState.from_network(net))
        note(eng.RunState.from_network(eng.encode_network(net)))
        for seed in (0, 1, 2):
            eng.run_scheduler(net, eng.SchedulerConfig(seed=seed, max_steps=200),
                              on_step=note, digests=False)
    return procs


def test_alternatives_match_closure_oracle():
    """Each reached process has the oracle's heads in the oracle's order, and
    each alternative's rebuild gives the oracle's term around the inactive
    process and around the head itself."""
    procs = _reached_processes()
    assert len(procs) > 1000
    for p in procs:
        got, want = eng.alternatives(p), alt_oracle.alternatives(p)
        assert [head for head, _ in got] == [head for head, _ in want]
        for (head, rebuild), (_, old) in zip(got, want):
            for probe in (t.Inact(), head):
                assert rebuild(probe) == old(probe)


def test_processes_under_one_block_share_a_rebuild():
    """Over a paxos5 run, every process under one node's definitions block
    rebuilds through one function object."""
    eng.alternatives.cache_clear()
    eng._rewrap.cache_clear()
    by_block: dict = {}

    def note(state, _):
        for nd in state.nodes:
            by_block.setdefault(nd.process.defs, set()).add(nd.process)

    eng.run_scheduler(_network("paxos5.ubsc"), eng.SchedulerConfig(seed=0, max_steps=200),
                      on_step=note, digests=False)
    assert len(by_block) == 5
    for procs in by_block.values():
        assert len(procs) > 10
        assert len({id(rebuild) for p in procs for _, rebuild in eng.alternatives(p)}) == 1


def test_sender_step_makes_one_node(monkeypatch):
    """A non-Conn step whose sender node has no ``steps`` memo enters one
    node into the interning table, its successor, besides any receiver's:
    no node is made and dropped on the way.  The nodes sit at lines no other
    test uses, so the successors are new."""
    entered = []

    def enter(key, term):
        if type(term) is t.NetworkNode:
            entered.append(term)
        return v.enter(key, term)

    monkeypatch.setattr(t, "enter", enter)
    made = 0
    for name in ("paxos5.ubsc", "heartbeat_gather.ubsc", "drop_connections.ubsc"):
        state = eng.RunState.from_network(eng.encode_network(_network(name)))
        state = dataclasses.replace(state, nodes=tuple(
            dataclasses.replace(nd, pos=90000 + i) for i, nd in enumerate(state.nodes)))
        rng = random.Random(1)
        for _ in range(60):
            redexes = eng.enabled_redexes(state)
            if not redexes:
                break
            for r in redexes:
                if r.rule == "Conn":
                    continue
                eng.node_facts(state.nodes[r.sender]).steps.clear()
                entered.clear()
                succ = eng.apply_redex(state, r, ())
                others = {id(succ.nodes[j]) for j in r.receivers if r.rule == "Ucast"}
                assert len({id(nd) for nd in entered}) == len(entered)
                assert {id(nd) for nd in entered} - others <= {id(succ.nodes[r.sender])}
                made += any(nd is succ.nodes[r.sender] for nd in entered)
            state = eng.apply_redex(state, *eng.pick_redex(redexes, rng, 0.3, 0.2))
    assert made > 100
