"""The relations over stated contexts against their verbatim copies from
before the entry tests were stated once (``tests/context_oracle.py``), on
the full contexts the checker gives the states of criterion 4's runs
(``test_type_memo.FAMILIES``).  Each relation compares, both ways round,
each pair of consecutive contexts of a run, and each context with each of
its ``context_advance`` successors and with itself one state later.
``well_formed`` also reads each context with the other's plain entries,
which a step can leave out of duality."""

import pytest

import context_oracle as oracle
from test_type_memo import FAMILIES, _runs
from ubsc import checker as ck
from ubsc import corpus as cp
from ubsc import sestypes as st

RELATIONS = ("contexts_equal", "synchronize", "advances_to")


def _outcome(fn, *args):
    """What ``fn`` gives on ``args``: its value, or the class of its error."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the oracle's error is the answer
        return type(e)


def _agree(a: dict, b: dict, seen: dict):
    """Compare every relation on (a, b) and (b, a), and ``well_formed`` on
    each and on each with the other's plain entries; adds each answer to
    ``seen`` under its relation."""
    for x, y in ((a, b), (b, a)):
        for name in RELATIONS:
            got = _outcome(getattr(st, name), x, y)
            assert got == _outcome(getattr(oracle, name), x, y), (name, x, y)
            seen[name].add(got)
        for ctx in (x, {**x, **{ep: e for ep, e in y.items() if not ep.aggr}}):
            got = _outcome(st.well_formed, ctx)
            assert got == _outcome(oracle.well_formed, ctx), ctx
            seen["well_formed"].add(got)


def _contexts(family):
    """The full context of every state each seeded run of ``family``
    reaches that types, one list per run."""
    fname, seeds, steps, loss, bias, protocol_of = family
    prog = cp.load_program(fname)
    g = ck.Gamma(shared=prog.shared_types())
    for seed in seeds:
        run = []
        for state in _runs(prog, [seed], steps, loss, bias):
            res = ck.type_network(g, state.to_network(), protocols=protocol_of(state))
            if res.ok:
                run.append(dict(res.full_context))
        yield run


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
def test_context_relations_match_oracle(family):
    seen = {name: set() for name in RELATIONS + ("well_formed",)}
    for run in _contexts(family):
        for a, b in zip(run, run[1:]):
            _agree(a, b, seen)
        for a in run:
            for succ in st.context_advance(a):
                _agree(a, succ, seen)
            _agree(a, {ep: (c + 1, ty) for ep, (c, ty) in a.items()}, seen)
    # the inputs reach both answers of every relation, and no error
    assert all(answers == {True, False} for answers in seen.values()), seen
