import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ubsc import sestypes as st
from ubsc import values as v
from ubsc.syntax import parse_type
from ubsc.terms import Endpoint


def session_types(depth=3):
    base = hs.sampled_from([v.INT_T, v.STR_T, v.BOOL_T])
    leaf = hs.just(st.END)

    def extend(children):
        return hs.one_of(
            hs.tuples(base, children).map(lambda p: st.Out(*p)),
            hs.tuples(base, children).map(lambda p: st.In(*p)),
            hs.tuples(children, children).map(
                lambda p: st.SelT(st.mkarms([("a", p[0]), ("b", p[1])]))),
            hs.tuples(children, children).map(
                lambda p: st.BraT(st.mkarms([("a", p[0]), ("b", p[1])]))),
        )

    return hs.recursive(leaf, extend, max_leaves=8)


def test_dual_examples():
    assert st.dual(parse_type("!int.end")) == parse_type("?int.end")
    assert st.dual(parse_type("+{accept: !(int, int).end, restart: end}")) == \
        parse_type("&{accept: ?(int, int).end, restart: end}")
    assert st.dual(parse_type("rec t.!int.t")) == parse_type("rec t.?int.t")


@settings(max_examples=200)
@given(session_types())
def test_dual_involution(ty):
    assert st.dual(st.dual(ty)) == ty


def test_combine_examples():
    ty = parse_type("?int.?int.end")
    assert st.combine(ty, ()) == ty
    out = st.combine(ty, (st.OutItem(v.INT_T), st.OutItem(v.INT_T)))
    assert out == st.END
    # head mismatch is a first-class undefined outcome
    assert st.combine(parse_type("!int.end"), (st.OutItem(v.INT_T),)) is None


def test_combine_labels_and_rec():
    bra = parse_type("&{go: ?int.end, stop: end}")
    assert st.combine(bra, (st.SelItem("go"), st.OutItem(v.INT_T))) == st.END
    assert st.combine(bra, (st.SelItem("nope"),)) is None
    rec = parse_type("rec t.?int.t")
    assert st.types_equal(st.combine(rec, (st.OutItem(v.INT_T),)), rec)


def test_advance_examples():
    ty = parse_type("?int.end")
    assert st.advance(ty, 1) == {st.END}
    assert st.advance(ty, 0) == {ty}
    assert st.advance(parse_type("!int.end"), 1) == {st.END}
    sel = parse_type("+{a: !int.end, b: end}")
    assert st.advance(sel, 1) == {parse_type("!int.end"), st.END}
    assert st.advance(st.END, 1) == set()


def test_advance_composes():
    ty = parse_type("!int.?str.+{a: end, b: !bool.end}")
    for a, b in [(1, 1), (1, 2), (2, 1), (0, 3)]:
        direct = st.advance(ty, a + b)
        composed = set()
        for u in st.advance(ty, a):
            composed |= st.advance(u, b)
        assert direct == composed


def test_output_advance():
    assert st.output_advance(parse_type("!int.end"), 1) == {st.END}
    assert st.output_advance(parse_type("?int.end"), 1) == set()
    assert st.output_advance(parse_type("+{a: end}"), 1) == set()


def test_synchronize_examples():
    s = Endpoint("s", False)
    T = parse_type("!str.end")
    assert st.synchronize({s: (1, T)}, {s: (2, st.END)})
    assert st.synchronize({}, {})
    # output reconstruction: a later counter synchronises backwards
    assert st.synchronize({s: (1, st.END)}, {s: (0, parse_type("!int.end"))})
    # a defaulted input reconstructs too (receive recovery)
    assert st.synchronize({s: (1, st.END)}, {s: (0, parse_type("?int.end"))})
    # branch positions cannot be crossed autonomously
    assert not st.synchronize({s: (1, st.END)}, {s: (0, parse_type("&{a: end}"))})
    # the domains must match
    assert not st.synchronize({s: (0, st.END)}, {})
    assert not st.synchronize({}, {s: (0, st.END)})


def test_synchronize_reflexive():
    s = Endpoint("s", False)
    for ty in [st.END, parse_type("!int.end"), parse_type("&{a: end}")]:
        assert st.synchronize({s: (3, ty)}, {s: (3, ty)})


def test_synchronize_aggregator_entries_fixed():
    ag = Endpoint("s", True)
    assert st.synchronize({ag: (1, st.END)}, {ag: (1, st.END)})
    assert not st.synchronize({ag: (0, parse_type("!int.end"))}, {ag: (1, st.END)})


def test_well_formed():
    ag, pl = Endpoint("s", True), Endpoint("s", False)
    T = parse_type("?str.end")
    assert st.well_formed({ag: (2, T), pl: (2, st.dual(T))})
    assert st.well_formed({ag: (0, T)})
    assert not st.well_formed({ag: (1, T), pl: (0, st.dual(T))})
    assert not st.well_formed({ag: (1, T), pl: (1, T)})


def well_formed_oracle(ctx):
    # direct restatement of the definition's clauses
    for ep, (c, ty) in ctx.items():
        if ep.aggr:
            pl = Endpoint(ep.session, False)
            if pl in ctx:
                cp, tp = ctx[pl]
                if not (cp == c and st.types_equal(tp, st.dual(ty))):
                    return False
    return True


@settings(max_examples=150)
@given(session_types(), hs.integers(0, 3), hs.integers(0, 3), hs.booleans())
def test_well_formed_matches_oracle(ty, ca, cp, use_dual):
    ag, pl = Endpoint("s", True), Endpoint("s", False)
    ctx = {ag: (ca, ty), pl: (cp, st.dual(ty) if use_dual else ty)}
    assert st.well_formed(ctx) == well_formed_oracle(ctx)


def test_context_advance_clauses():
    ag, pl = Endpoint("s", True), Endpoint("s", False)
    T1, T2 = parse_type("end"), parse_type("end")
    start = {ag: (0, st.Out(v.INT_T, T1)), pl: (0, st.In(v.INT_T, T2))}
    succ = st.context_advance(start)
    stepped = {ag: (1, T1), pl: (1, T2)}
    assert any(st.contexts_equal(d, stepped) for d in succ)
    # dropping a plain entry
    only_plain = {pl: (2, st.END)}
    assert any(st.contexts_equal(d, {}) for d in st.context_advance(only_plain))
    # reflexive via the empty drop
    assert any(st.contexts_equal(d, start) for d in succ)


def test_no_dual_step_across_unequal_states():
    ag, pl = Endpoint("s", True), Endpoint("s", False)
    ty = parse_type("!int.end")
    assert list(st._dual_steps({ag: (1, ty), pl: (0, st.dual(ty))}, "s")) == []


def test_context_advance_drops_nothing_past_twelve_plain_entries():
    """Past 12 plain entries the drops are not enumerated: the context
    itself is its only successor when no session steps."""
    ctx = {Endpoint(f"s{i}", False): (0, parse_type("!int.end")) for i in range(13)}
    assert st.context_advance(ctx) == [ctx]


def test_advances_to_matches_enumeration():
    ag, pl = Endpoint("s", True), Endpoint("s", False)
    u = Endpoint("u", False)
    start = {ag: (0, parse_type("+{a: end, b: !int.end}")),
             pl: (0, parse_type("&{a: end, b: ?int.end}")),
             u: (1, st.END)}
    succ = st.context_advance(start)
    for d in succ:
        assert st.advances_to(start, d), d
    # something unreachable
    bad = dict(start)
    bad[ag] = (2, st.END)
    assert not st.advances_to(start, bad)


def test_advances_to_fresh_session_extension():
    before = {}
    ag, pl = Endpoint("s", True), Endpoint("s", False)
    T = parse_type("?int.end")
    assert st.advances_to(before, {ag: (0, T), pl: (0, st.dual(T))})
    assert not st.advances_to(before, {ag: (1, T), pl: (1, st.dual(T))})
    # a created session is new, starts at state 0 and has its aggregator
    assert not st.advances_to({pl: (0, st.dual(T))}, {pl: (0, st.dual(T)), ag: (0, T)})
    assert not st.advances_to({}, {ag: (1, T)})
    assert not st.advances_to({}, {pl: (0, st.dual(T))})
    assert st.advances_to({}, {ag: (0, T)})
