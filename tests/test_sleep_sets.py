"""The progress and recovery searches with sleep sets against the search
without them (``safety_oracle._bfs``): equal schedules, footprints that
really are independent, and pruned successors that were already seen."""

from itertools import combinations

import pytest

import safety_oracle
from conftest import generate_program
from ubsc import engine as eng
from ubsc import safety as sf
from ubsc.corpus import load_program
from ubsc.syntax import parse

SLEEP_BFS = sf._bfs
SEARCHES = ((sf.session_progress_search, sf.progress_shape_sessions),
            (sf.session_recovery_search, sf.recovery_shape_sessions))


def _reached_states(network, seed, steps):
    cfg = eng.SchedulerConfig(seed=seed, loss_rate=0.3, recovery_bias=0.2, max_steps=steps)
    out = []
    eng.run_scheduler(network, cfg, digests=False,
                      on_step=lambda state, step: out.append(state))
    return out


def _searches(states):
    """Every progress and recovery search of every eligible shape of
    ``states``, as (search, state, session, state counter)."""
    return [(fn, st, sess, c) for st in states for fn, shapes in SEARCHES
            for sess, c in shapes(st)]


def _schedules(monkeypatch, bfs, searches):
    monkeypatch.setattr(sf, "_bfs", bfs)
    return [fn(st, sess, c) for fn, st, sess, c in searches]


def _assert_same_schedules(monkeypatch, searches):
    new = _schedules(monkeypatch, SLEEP_BFS, searches)
    old = _schedules(monkeypatch, safety_oracle._bfs, searches)
    assert new == old


@pytest.mark.parametrize("name", ["paxos3.ubsc", "paxos_multi.ubsc", "paxos5.ubsc",
                                  "heartbeat_gather.ubsc", "paxos_recover.ubsc",
                                  "drop_connections.ubsc"])
def test_searches_match_oracle(name, monkeypatch):
    network = load_program(name).network
    searches = [s for seed in (0, 1) for s in _searches(_reached_states(network, seed, 60))]
    assert searches
    _assert_same_schedules(monkeypatch, searches)


def test_searches_match_oracle_on_generated_programs(monkeypatch):
    searches = []
    for gseed in range(8):
        network = parse(generate_program(gseed)).network
        searches += _searches([eng.RunState.from_network(eng.encode_network(network))]
                              + _reached_states(network, 0, 25))
    assert searches
    _assert_same_schedules(monkeypatch, searches)


def test_capped_searches_match_oracle(monkeypatch):
    """With a small state cap the searches stop early at the same point;
    some of them find a schedule only without the cap."""
    searches = _searches(_reached_states(load_program("paxos5.ubsc").network, 0, 60))
    capped = {}
    for cap in (3, 10):
        capped[cap] = _schedules(monkeypatch, lambda *a: SLEEP_BFS(*a, cap=cap), searches)
        assert capped[cap] == _schedules(
            monkeypatch, lambda *a: safety_oracle._bfs(*a, cap=cap), searches)
    full = _schedules(monkeypatch, safety_oracle._bfs, searches)
    assert any(c is None and f is not None for c, f in zip(capped[3], full))


def _footprint_pairs(state):
    enabled = eng.enabled_redexes(state)
    for a, b in combinations(enabled, 2):
        if not eng.redex_footprint(state, a) & eng.redex_footprint(state, b):
            yield a, b


@pytest.mark.parametrize("name", ["paxos3.ubsc", "paxos5.ubsc"])
def test_disjoint_footprints_commute(name):
    """Two redexes with disjoint footprints stay enabled with equal fields
    after each other, and both orders reach one state."""
    pairs = 0
    for state in _reached_states(load_program(name).network, 0, 40)[::2]:
        for a, b in _footprint_pairs(state):
            after_a, after_b = eng.apply_redex(state, a), eng.apply_redex(state, b)
            assert b in eng.enabled_redexes(after_a)
            assert a in eng.enabled_redexes(after_b)
            ab, ba = eng.apply_redex(after_a, b), eng.apply_redex(after_b, a)
            assert ab == ba and ab.digest() == ba.digest()
            pairs += 1
    assert pairs > 0


def test_conn_footprint_is_every_node():
    state = eng.RunState.from_network(eng.encode_network(load_program("paxos3.ubsc").network))
    conns = [r for r in eng.enabled_redexes(state) if r.rule == "Conn"]
    assert conns
    for r in conns:
        assert eng.redex_footprint(state, r) == (1 << len(state.nodes)) - 1


def _allowed(fn):
    """The rules ``fn`` lets its search apply, as in ``safety``."""
    if fn is sf.session_progress_search:
        return lambda r: r.rule not in eng.RECOVERY_RULES
    return lambda r: r.rule in ("Rec", "BRec", "Loss", "True", "False", "Rcv", "Bra")


@pytest.mark.parametrize("name", ["paxos3.ubsc", "paxos5.ubsc"])
def test_pruned_successors_are_already_seen(name, monkeypatch):
    """Every allowed redex a search enumerates but does not apply leads to a
    state the search had already reached when it passed over the redex."""
    searches = _searches(_reached_states(load_program(name).network, 0, 60))
    enumerate_, apply = eng.enabled_redexes, eng.apply_redex
    events: list = []

    def applying(st, r):
        events.append(("apply", r))
        events.append(("reach", apply(st, r)))
        return events[-1][1]

    monkeypatch.setattr(eng, "enabled_redexes",
                        lambda st: events.append(("enum", st, enumerate_(st))) or events[-1][2])
    monkeypatch.setattr(eng, "apply_redex", applying)
    pruned = 0
    for fn, st, sess, c in searches:
        events.clear()
        found = fn(st, sess, c)
        allowed, seen, cur, todo = _allowed(fn), set(), None, []

        def check_pruned_before(r):
            nonlocal pruned
            while todo and todo[0] != r:
                skipped = todo.pop(0)
                assert apply(cur, skipped) in seen
                pruned += 1
            if todo:
                todo.pop(0)

        for ev in events:
            if ev[0] == "enum":
                check_pruned_before(None)
                cur, todo = ev[1], [r for r in ev[2] if allowed(r)]
                seen.add(cur)
            elif ev[0] == "apply":
                check_pruned_before(ev[1])
            else:
                seen.add(ev[1])
        if found is None:  # else the last state's remaining redexes were never reached
            check_pruned_before(None)
    assert pruned > 0


def test_searches_make_no_digest(monkeypatch):
    """The searches key their states on the states themselves: every search
    of a paxos5 run runs with digesting made to raise."""
    searches = _searches(_reached_states(load_program("paxos5.ubsc").network, 0, 60))
    assert searches

    def no_digest(*_):
        raise AssertionError("a search made a digest")

    monkeypatch.setattr(eng.RunState, "digest", no_digest)
    monkeypatch.setattr(eng, "digest", no_digest)
    assert any(fn(st, sess, c) is not None for fn, st, sess, c in searches)


def test_sleep_sets_prune_applications(monkeypatch):
    """Over the searches of one paxos5 run the sleep sets apply at most 80%
    of the redexes the search without them applies."""
    searches = _searches(_reached_states(load_program("paxos5.ubsc").network, 0, 60))
    apply, counts = eng.apply_redex, {}
    for label, bfs in (("new", SLEEP_BFS), ("old", safety_oracle._bfs)):
        calls = []
        monkeypatch.setattr(eng, "apply_redex", lambda st, r: calls.append(r) or apply(st, r))
        _schedules(monkeypatch, bfs, searches)
        counts[label] = len(calls)
    assert counts["new"] <= 0.8 * counts["old"], counts


def test_searches_reuse_sender_nodes(monkeypatch):
    """Over the searches of one paxos5 run, the sender nodes ``apply_redex``
    gives for non-Conn redexes are at most half as many objects as its
    calls: a node's repeated step gives back the successor it made before.
    Every result is held while counting, so no object's id is reused."""
    searches = _searches(_reached_states(load_program("paxos5.ubsc").network, 0, 60))
    apply, senders = eng.apply_redex, []

    def applying(st, r):
        nxt = apply(st, r)
        if r.rule != "Conn":
            senders.append(nxt.nodes[r.sender])
        return nxt

    monkeypatch.setattr(eng, "apply_redex", applying)
    for fn, st, sess, c in searches:
        fn(st, sess, c)
    distinct = len(set(map(id, senders)))
    assert senders
    assert distinct <= len(senders) / 2, (distinct, len(senders))
