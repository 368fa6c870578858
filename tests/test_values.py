import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import in_fresh_process

from ubsc import values as v
from ubsc.render import render_expr
from ubsc.syntax import parse_expr, parse_value


def ints():
    return hs.one_of(hs.just(v.EPS), hs.integers(-20, 20).map(v.IntV))


def strs():
    return hs.text(alphabet="abcxyz", max_size=4).map(v.StrV)


def sets_of_pairs():
    pair = hs.tuples(hs.integers(0, 9), hs.integers(0, 9)).map(
        lambda p: v.PairV(v.IntV(p[0]), v.IntV(p[1]))
    )
    return hs.frozensets(pair, max_size=5).map(v.SetV)


def value_of_instance(name):
    return {"int": ints(), "str": strs(),
            "bool": hs.booleans().map(v.BoolV), "set": sets_of_pairs()}[name]


@pytest.mark.parametrize("instance", ["int", "str", "bool", "set"])
def test_aggregate_unit_identity(instance):
    sample = {
        "int": v.IntV(7), "str": v.StrV("hbt"), "bool": v.FALSE,
        "set": v.mkset([v.PairV(v.IntV(1), v.IntV(2))]),
    }[instance]
    assert v.aggregate(sample, v.UNIT) == sample
    assert v.aggregate(v.UNIT, sample) == sample


@pytest.mark.parametrize("instance", ["int", "str", "bool", "set"])
@settings(max_examples=300)
@given(data=hs.data())
def test_aggregate_assoc_comm(instance, data):
    a = data.draw(value_of_instance(instance))
    b = data.draw(value_of_instance(instance))
    c = data.draw(value_of_instance(instance))
    assert v.aggregate(a, b) == v.aggregate(b, a)
    assert v.aggregate(v.aggregate(a, b), c) == v.aggregate(a, v.aggregate(b, c))


def test_aggregate_permutation_oracle():
    # folding in any order gives the same result
    vals = [v.StrV("hbt2"), v.StrV("hbt1"), v.StrV("aaa")]
    results = set()
    for perm in itertools.permutations(vals):
        out = v.UNIT
        for x in perm:
            out = v.aggregate(out, x)
        results.add(out)
    assert results == {v.StrV("hbt2")}


def test_aggregate_set_union():
    a = v.mkset([v.PairV(v.IntV(0), v.IntV(5))])
    b = v.mkset([v.PairV(v.IntV(1), v.IntV(9))])
    assert v.aggregate(a, b) == v.mkset(
        [v.PairV(v.IntV(0), v.IntV(5)), v.PairV(v.IntV(1), v.IntV(9))]
    )


def test_aggregate_mixed_types_rejected():
    with pytest.raises(v.AggregationError):
        v.aggregate(v.IntV(1), v.StrV("x"))


def test_eps_is_bottom():
    assert v.eval_expr(v.BinOp(">", v.Lit(v.IntV(3)), v.Lit(v.EPS)), {}) == v.TRUE
    assert v.eval_expr(v.BinOp(">", v.Lit(v.EPS), v.Lit(v.EPS)), {}) == v.FALSE
    assert v.aggregate(v.EPS, v.IntV(4)) == v.IntV(4)


def test_eval_examples():
    env = {"x": v.IntV(4)}
    assert v.eval_expr(v.BinOp("+", v.Var("x"), v.Lit(v.IntV(1))), env) == v.IntV(5)
    union = v.BinOp("union",
                    v.SetE((v.TupleE(v.Lit(v.IntV(1)), v.Lit(v.IntV(7))),)),
                    v.SetE((v.TupleE(v.Lit(v.IntV(2)), v.Lit(v.IntV(9))),)))
    assert v.eval_expr(union, {}) == v.mkset(
        [v.PairV(v.IntV(1), v.IntV(7)), v.PairV(v.IntV(2), v.IntV(9))]
    )
    with pytest.raises(v.EvalError):
        v.eval_expr(v.Var("zz"), {})


def test_truth():
    assert v.truth(v.BinOp(">", v.Var("id2"), v.Var("id1")),
                   {"id1": v.IntV(3), "id2": v.IntV(7)})
    assert v.truth(v.BinOp(">", v.Builtin("size", (v.Var("I"),)), v.Lit(v.IntV(2))),
                   {"I": v.mkset([v.IntV(1), v.IntV(2), v.IntV(3)])})
    assert v.truth(v.Lit(v.TRUE), {})
    with pytest.raises(v.EvalError):
        v.truth(v.Lit(v.IntV(1)), {})


def test_choose_val_examples():
    eps_pair = v.mkset([v.PairV(v.EPS, v.EPS)])
    assert v.choose_val(eps_pair, v.IntV(42)) == v.IntV(42)
    s = v.mkset([
        v.PairV(v.IntV(1), v.IntV(10)),
        v.PairV(v.IntV(3), v.IntV(20)),
        v.PairV(v.IntV(2), v.IntV(30)),
    ])
    assert v.choose_val(s, v.IntV(42)) == v.IntV(20)
    assert v.choose_val(v.mkset([]), v.IntV(7)) == v.IntV(7)
    assert v.choose_val(v.UNIT, v.IntV(7)) == v.IntV(7)


def test_choose_val_nested_metadata():
    s = v.mkset([
        v.PairV(v.IntV(1), v.PairV(v.IntV(10), v.IntV(101))),
        v.PairV(v.IntV(2), v.PairV(v.IntV(30), v.IntV(102))),
    ])
    assert v.choose_val(s, v.IntV(0)) == v.IntV(30)


@settings(max_examples=300)
@given(sets_of_pairs(), hs.integers(0, 9).map(v.IntV))
def test_choose_val_membership(s, default):
    out = v.choose_val(s, default)
    candidates = {p.second for p in s.items if not isinstance(p.first, v.EpsV)}
    assert out in candidates | {default}


def test_type_expr():
    assert v.type_expr({"hbt": v.STR_T}, v.Var("hbt")) == v.STR_T
    assert v.type_expr({}, v.BinOp("+", v.Lit(v.IntV(1)), v.Lit(v.IntV(2)))) == v.INT_T
    t = v.type_expr({}, v.SetE((v.TupleE(v.Lit(v.IntV(1)), v.Lit(v.IntV(2))),)))
    assert t == v.SetT(v.PairT(v.INT_T, v.INT_T))
    # the recovery idiom: payload compared against the unit
    assert v.type_expr({"w": v.INT_T},
                       v.BinOp("!=", v.Var("w"), v.Lit(v.UNIT))) == v.BOOL_T
    with pytest.raises(v.ExprTypeError):
        v.type_expr({}, v.BinOp("+", v.Lit(v.TRUE), v.Lit(v.IntV(1))))
    one, ints = v.Lit(v.IntV(1)), v.SetE((v.Lit(v.IntV(1)),))
    assert v.type_expr({}, v.BinOp("and", v.Lit(v.TRUE), v.Lit(v.FALSE))) == v.BOOL_T
    assert v.type_expr({}, v.BinOp("union", ints, v.Lit(v.UNIT))) == v.SetT(v.INT_T)
    with pytest.raises(v.ExprTypeError, match="^boolean over int, bool$"):
        v.type_expr({}, v.BinOp("and", one, v.Lit(v.TRUE)))
    with pytest.raises(v.ExprTypeError, match="^union over "):
        v.type_expr({}, v.BinOp("union", ints, v.Lit(v.IntV(2))))
    with pytest.raises(v.ExprTypeError, match="^union of mismatched sets "):
        v.type_expr({}, v.BinOp("union", ints, v.SetE((v.Lit(v.StrV("a")),))))


@pytest.mark.parametrize("text, value", [
    ("3 - 5", v.IntV(-2)),
    ("1 = 1", v.TRUE),
    ("false or true", v.TRUE),
    ('"a" < "b"', v.TRUE),
    ("false < true", v.TRUE),
    ("(1, 2) < (1, 3)", v.TRUE),
])
def test_eval_operators(text, value):
    assert v.eval_expr(parse_expr(text), {}) == value


# two operands of each kind of binary operator, as text
OPERANDS = {"arithmetic": ("2", "1"), "ordering": ("2", "1"), "equality": ("2", "1"),
            "boolean": ("true", "false"), "union": ("{2}", "{1}")}


def test_operator_tables_agree():
    """The operators the parser and the printer know (``OP_LEVEL``) are
    exactly those that evaluation and typing know (``_OPS``): each one
    parses, prints back, and evaluates to a value of the type it has."""
    assert set(v.OP_LEVEL) == set(v._OPS)
    for op, (kind, _) in v._OPS.items():
        left, right = OPERANDS[kind]
        e = parse_expr(f"{left} {op} {right}")
        assert type(e) is v.BinOp and e.op == op
        assert render_expr(e) == f"{left} {op} {right}"
        assert v.type_of_value(v.eval_expr(e, {})) == v.type_expr({}, e)


def test_aggregate_pairs_keeps_the_larger():
    assert v.aggregate(parse_value('(1, "a")'), parse_value('(2, "b")')) == parse_value('(2, "b")')


@pytest.mark.parametrize("text, message", [
    ("size(3)", "size: expected a set, got IntV(n=3)"),
    ("chooseVal(3, 0)", "chooseVal: expected a set, got IntV(n=3)"),
    ("chooseVal({(true, 1)}, 0)", "chooseVal: malformed round BoolV(b=True)"),
    ("chooseVal({1}, 0)", "chooseVal: malformed element IntV(n=1)"),
    ("snd(3)", "snd: expected pair, got IntV(n=3)"),
    ("{1} union 2", "union: expected a set, got IntV(n=2)"),
    ("1 and true", "expected bool, got IntV(n=1)"),
    ("true + 1", "+: expected int, got BoolV(b=True)"),
    ("size(1, 2)", "cannot evaluate Builtin(name='size', "
                   "args=(Lit(value=IntV(n=1)), Lit(value=IntV(n=2))))"),
])
def test_eval_rejects(text, message):
    with pytest.raises(v.EvalError) as exc:
        v.eval_expr(parse_expr(text), {})
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    ("1 < true", "ordering over int, bool"),
    ('1 = "a"', "equality over int, str"),
    ("{1, true}", "mixed set element types: int vs bool"),
    ("chooseVal(1, 0)", "chooseVal over int"),
    ("chooseVal({(1, 2)}, true)", "chooseVal default must be int, got bool"),
    ("fst(1)", "fst over non-pair int"),
    ("snd(1)", "snd over non-pair int"),
    ("size(1, 2)", "cannot type Builtin(name='size', "
                   "args=(Lit(value=IntV(n=1)), Lit(value=IntV(n=2))))"),
])
def test_type_rejects(text, message):
    with pytest.raises(v.ExprTypeError) as exc:
        v.type_expr({}, parse_expr(text))
    assert str(exc.value) == message


def _sum_of_ones(n: int) -> v.Expr:
    """``0 + 1 + ... + 1`` with ``n`` additions, left-nested, built afresh."""
    e = v.Lit(v.IntV(0))
    for _ in range(n):
        e = v.BinOp("+", e, v.Lit(v.IntV(1)))
    return e


def test_deep_closed_expression_evaluates_types_and_prints():
    """A closed expression 20,000 operators deep is evaluated, typed and
    printed without recursion: each memo fills its parts in a loop."""
    e = _sum_of_ones(20000)
    assert v.eval_expr(e, {}) == v.IntV(20000)
    assert v.type_expr({}, e) is v.INT_T
    text = render_expr(e)
    assert text.startswith("0 + 1 + 1") and text.count("+") == 20000


@pytest.mark.parametrize("text, error, message", [
    ('(1 + true) + ("a" * 2)', v.EvalError, "+: expected int, got BoolV(b=True)"),
    ('(1 + true) + ("a" * 2)', v.ExprTypeError, "arithmetic over int, bool"),
    ('((1 + 2) + (true - 1)) + fst(3)', v.EvalError, "-: expected int, got BoolV(b=True)"),
    ('((1 + 2) + (true - 1)) + fst(3)', v.ExprTypeError, "arithmetic over bool, int"),
    ('1 and (2 < true)', v.EvalError, "cannot order IntV(n=2) and BoolV(b=True)"),
    ('1 and (2 < true)', v.ExprTypeError, "ordering over int, bool"),
])
def test_first_failing_operand_reports_its_error(text, error, message):
    """With two failing operands, a closed expression reports the left
    one's error, as a left-to-right recursion would: parts are filled in
    left-to-right postorder.  A failing right operand is reported before
    the operator's own check of a left operand that evaluated."""
    e = parse_expr(text)
    with pytest.raises(error) as exc:
        if error is v.EvalError:
            v.eval_expr(e, {})
        else:
            v.type_expr({}, e)
    assert str(exc.value) == message


def _set_reprs() -> list:
    """How a set of twenty ints made largest first, and the empty set,
    print."""
    return [repr(v.mkset([v.IntV(n) for n in range(19, -1, -1)])), repr(v.mkset([]))]


def test_set_prints_in_value_order():
    """Values hash by identity, so a frozenset of them iterates in the order
    of their addresses, which a new process need not repeat.  A set prints
    its items in value order instead."""
    items = ", ".join(f"IntV(n={n})" for n in range(20))
    assert in_fresh_process("test_values", "_set_reprs()") == [
        f"SetV(items=frozenset({{{items}}}))", "SetV(items=frozenset())"]
    with pytest.raises(v.EvalError) as exc:
        v.type_of_value(parse_value('{1, true, "a"}'))
    assert str(exc.value) == ("mixed element types in set: "
                              "SetV(items=frozenset({BoolV(b=True), IntV(n=1), StrV(s='a')}))")
