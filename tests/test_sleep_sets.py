"""The progress and recovery searches against the search as it was before
it keyed on the run states (``safety_oracle._bfs``): equal schedules, with
and without a small state cap, over corpus and generated programs.  The
schedules of every search over seeded corpus runs hash as recorded before
the search dropped its sleep sets.  The searches make no digest and reuse
the successors a node has already made."""

import hashlib
import os

import pytest

import safety_oracle
from conftest import generate_program
from ubsc import engine as eng
from ubsc import safety as sf
from ubsc.corpus import corpus_dir, load_program
from ubsc.syntax import parse

BFS = sf._bfs
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
    new = _schedules(monkeypatch, BFS, searches)
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
        capped[cap] = _schedules(monkeypatch, lambda *a: BFS(*a, cap=cap), searches)
        assert capped[cap] == _schedules(
            monkeypatch, lambda *a: safety_oracle._bfs(*a, cap=cap), searches)
    full = _schedules(monkeypatch, safety_oracle._bfs, searches)
    assert any(c is None and f is not None for c, f in zip(capped[3], full))


def test_corpus_search_schedules_match_golden():
    """Every progress and recovery search from every state of seeded
    100-step runs of each corpus program returns the schedule it returned
    when the search still used sleep sets: the redex keys of all 761
    schedules hash as recorded then."""
    h, count = hashlib.sha256(), 0
    for name in sorted(f for f in os.listdir(corpus_dir()) if f.endswith(".ubsc")):
        network = load_program(name).network
        for seed in (0, 1, 2):
            for fn, st, sess, c in _searches(_reached_states(network, seed, 100)):
                s = fn(st, sess, c)
                h.update(repr(None if s is None else [r.key() for r in s]).encode())
                count += 1
    assert count == 761
    assert h.hexdigest() == "cf1b23f7f6581f78be483f67a9e1db98a9f8ee926d015e0d0ae34a0ec0aa9441"


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
