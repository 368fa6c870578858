"""Runtime values, base types, and the expression language.

Values are immutable; sets are frozensets with a total order on elements so
rendering is deterministic.  The aggregation operator is type-indexed (set
union, integer max, boolean or, string max, pointwise pairs) with the unit
value as identity for every instance.  The bottom element ``eps`` is an
integer-typed value ordered below every integer.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Union


class EvalError(Exception):
    """Raised on evaluation of an ill-formed expression (unbound variable,
    operand mismatch).  Well-typed programs never trigger it."""


class Interned(type):
    """The metaclass of the term classes, which hash-cons them (Filliâtre &
    Conchon, "Type-Safe Modular Hash-Consing", ML 2006): building a term
    gives back the live term of the same class and fields when there is
    one.  Equal terms are then one object, so ``==`` and hash are object
    identity, checked in C, and stay stack-safe however deep a term is.

    Every class it makes with a base, which is every term class, is a
    frozen dataclass without field equality, so no class can get the
    structural ``==`` that recurses once per level by leaving out a flag.

    A term is keyed on its class and its fields, whose child terms compare
    by identity.  A class with an ``int`` or ``bool`` field is keyed on the
    types of its fields as well, as ``True == 1``.  The table holds its
    terms weakly, and a term's entry goes when the term does."""

    def __init__(cls, name, bases, ns):
        super().__init__(name, bases, ns)
        if bases:
            dataclass(frozen=True, eq=False)(cls)
        cls._typed = not {"int", "bool", int, bool}.isdisjoint(
            ns.get("__annotations__", {}).values())

    def __call__(cls, *fields):
        key = (cls, *fields, *map(type, fields)) if cls._typed else (cls, *fields)
        ref = _TABLE.get(key)
        if ref is not None and (term := ref()) is not None:
            return term
        return enter(key, type.__call__(cls, *fields))


_TABLE: dict = {}


def interned(key):
    """The live term entered in the table under ``key``, or None."""
    return (ref := _TABLE.get(key)) and ref()


def enter(key, term):
    """``term``, entered in the table under ``key``."""
    ref = _TABLE[key] = _Ref(term, _drop)
    ref.key = key
    return term


class _Ref(weakref.ref):
    """A table entry's weak reference to its term, knowing its key."""

    __slots__ = ("key",)


def _drop(ref: _Ref) -> None:
    """Drop a dead term's entry, unless a newer term has taken its key."""
    other = _TABLE.pop(ref.key, ref)
    if other is not ref:
        _TABLE[ref.key] = other


class Term(metaclass=Interned):
    """Base of the interned term classes: a copy of a term is the term."""

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def memo_on_term(fn=None, *, kids=None):
    """Memoise a function of one term on the term itself.  The value lives
    exactly as long as the term, and a lookup reads an attribute.  With
    ``kids``, giving a term's direct parts as a sequence, ``fn`` is a fold
    (Meijer, Fokkinga & Paterson, FPCA 1991): a miss first fills every part
    not memoised yet, in left-to-right postorder and in one loop, so ``fn``
    reads its parts' values as hits and no depth recurses.  A part whose
    ``fn`` raises stops the fill with its error, as a recursion would."""
    if fn is None:
        return lambda f: memo_on_term(f, kids=kids)
    attr = "_" + fn.__name__.lstrip("_")

    def memo(term):
        out = getattr(term, attr, memo)  # the function itself marks a miss
        if out is not memo:
            return out
        # the parts to fill first; a part is pushed as (part,) once its own are
        stack = [k for k in reversed(kids(term)) if not hasattr(k, attr)] if kids else ()
        while stack:
            x = stack.pop()
            if type(x) is tuple:
                object.__setattr__(x[0], attr, fn(x[0]))
            elif not hasattr(x, attr):
                stack.append((x,))
                stack += [k for k in reversed(kids(x)) if not hasattr(k, attr)]
        out = fn(term)
        object.__setattr__(term, attr, out)
        return out

    memo.__name__, memo.__doc__, memo.__wrapped__ = fn.__name__, fn.__doc__, fn
    return memo


def universe(term, kids):
    """``term`` and every part below it, in preorder, parts left to right:
    Uniplate's ``universe`` (Mitchell & Runciman, Haskell 2007), from one
    explicit-stack loop, so no depth recurses."""
    stack = [term]
    while stack:
        x = stack.pop()
        yield x
        stack += reversed(kids(x))


class AggregationError(EvalError):
    """Aggregation of incompatible values."""


# ---------------------------------------------------------------- values

class UnitV(Term):
    def __repr__(self):
        return "unit"


class EpsV(Term):
    def __repr__(self):
        return "eps"


class IntV(Term):
    n: int


class BoolV(Term):
    b: bool


class StrV(Term):
    s: str


class PairV(Term):
    first: "Value"
    second: "Value"


class SetV(Term):
    items: frozenset

    def sorted_items(self):
        return sorted(self.items, key=value_key)

    def __repr__(self):  # the frozenset's own order follows addresses
        body = "{" + ", ".join(map(repr, self.sorted_items())) + "}" if self.items else ""
        return f"SetV(items=frozenset({body}))"


Value = Union[UnitV, EpsV, IntV, BoolV, StrV, PairV, SetV]

UNIT = UnitV()
EPS = EpsV()
TRUE = BoolV(True)
FALSE = BoolV(False)


def value_key(v: Value):
    """Total order over all values; used for set rendering and tie-breaks."""
    match v:
        case UnitV():
            return (0,)
        case EpsV():
            return (1,)
        case BoolV(b):
            return (2, b)
        case IntV(n):
            return (3, n)
        case StrV(s):
            return (4, s)
        case PairV(a, b):
            return (5, value_key(a), value_key(b))
        case SetV():
            return (6, tuple(value_key(x) for x in v.sorted_items()))
    raise EvalError(f"not a value: {v!r}")


def mkset(items) -> SetV:
    return SetV(frozenset(items))


# ---------------------------------------------------------------- base types

class UnitT(Term):
    def __repr__(self):
        return "unit"


class IntT(Term):
    def __repr__(self):
        return "int"


class BoolT(Term):
    def __repr__(self):
        return "bool"


class StrT(Term):
    def __repr__(self):
        return "str"


class PairT(Term):
    first: "BaseType"
    second: "BaseType"


class SetT(Term):
    elem: "BaseType"


class AnyT(Term):
    """Wildcard produced when a payload type is unconstrained (e.g. a receive
    binder that the continuation never inspects)."""

    def __repr__(self):
        return "any"


BaseType = Union[UnitT, IntT, BoolT, StrT, PairT, SetT, AnyT]

UNIT_T = UnitT()
INT_T = IntT()
BOOL_T = BoolT()
STR_T = StrT()
ANY_T = AnyT()


def type_of_value(v: Value) -> BaseType:
    match v:
        case UnitV():
            return UNIT_T
        case EpsV():
            return INT_T
        case IntV():
            return INT_T
        case BoolV():
            return BOOL_T
        case StrV():
            return STR_T
        case PairV(a, b):
            return PairT(type_of_value(a), type_of_value(b))
        case SetV():
            return _set_type([type_of_value(x) for x in v.sorted_items()],
                            lambda m, t: EvalError(f"mixed element types in set: {v!r}"))
    raise EvalError(f"not a value: {v!r}")


def _set_type(elems, error) -> BaseType:
    """The set type over the join of ``elems``, from the wildcard, left to
    right.  Raises ``error(join so far, t)`` at the first ``t`` off it."""
    merged = ANY_T
    for t in elems:
        r = refine_base(merged, t)
        if r is None:
            raise error(merged, t)
        merged = r
    return SetT(merged)


def refine_base(a: BaseType, b: BaseType):
    """Most specific common instance of two base types, or None.

    The wildcard matches anything; the unit type inhabits every instance
    (the unit value is the aggregation identity at every type).
    """
    if isinstance(a, AnyT):
        return b
    if isinstance(b, AnyT):
        return a
    if isinstance(a, UnitT):
        return b
    if isinstance(b, UnitT):
        return a
    if type(a) is not type(b):
        return None
    match a, b:
        case (PairT(a1, a2), PairT(b1, b2)):
            f = refine_base(a1, b1)
            s = refine_base(a2, b2)
            return PairT(f, s) if f is not None and s is not None else None
        case (SetT(ae), SetT(be)):
            e = refine_base(ae, be)
            return SetT(e) if e is not None else None
    return a


def base_compatible(expected: BaseType, actual: BaseType) -> bool:
    return refine_base(expected, actual) is not None


# ---------------------------------------------------------------- expressions

class Lit(Term):
    value: Value


class Var(Term):
    name: str


class BinOp(Term):
    op: str  # + - * > < >= <= = != and or union
    left: "Expr"
    right: "Expr"


class TupleE(Term):
    first: "Expr"
    second: "Expr"


class SetE(Term):
    items: tuple


class Builtin(Term):
    name: str  # chooseVal size fst snd
    args: tuple


Expr = Union[Lit, Var, BinOp, TupleE, SetE, Builtin]

# The binary operators and their precedence levels, higher binding tighter;
# every level is left-associative.  The parser and the printer both read it.
OP_LEVEL = {"or": 0, "and": 1, "=": 2, "!=": 2, "<": 2, ">": 2, "<=": 2, ">=": 2,
            "+": 3, "-": 3, "union": 3, "*": 4}
BUILTINS = {"chooseVal", "size", "fst", "snd"}


# ---------------------------------------------------------------- one layer
# ``subexprs`` and ``rebuild_expr`` are the one generic view of an expression
# constructor, as :func:`terms.layer` and :func:`terms.rebuild` are of a
# process; evaluation, typing and printing stay written per constructor.

def subexprs(e: Expr) -> tuple:
    """The expressions ``e`` holds directly."""
    if type(e) is BinOp:
        return e.left, e.right
    if type(e) is TupleE:
        return e.first, e.second
    if type(e) is SetE:
        return e.items
    if type(e) is Builtin:
        return e.args
    if type(e) is Lit or type(e) is Var:
        return ()
    raise EvalError(f"not an expression: {e!r}")


def rebuild_expr(e: Expr, kids) -> Expr:
    """``e``'s constructor over new subexpressions in :func:`subexprs` order."""
    if type(e) is BinOp:
        return BinOp(e.op, *kids)
    if type(e) is TupleE:
        return TupleE(*kids)
    if type(e) is SetE:
        return SetE(tuple(kids))
    return Builtin(e.name, tuple(kids)) if type(e) is Builtin else e


@memo_on_term(kids=subexprs)
def fv_expr(e: Expr) -> frozenset:
    """Free variables of an expression.  Memoised per term: a run's
    expressions grow by wrapping earlier ones (a ballot gains ``+ 1`` per
    round), so a new term costs one step over its memoised parts."""
    if type(e) is Var:
        return frozenset((e.name,))
    return frozenset().union(*map(fv_expr, subexprs(e)))


def map_vars(e: Expr, names, var_of) -> Expr:
    """``e`` with ``var_of(x)`` for every free variable ``x`` in ``names`` (a
    set, or a dict's keys); ``e`` itself when none of them occurs."""
    if names.isdisjoint(fv_expr(e)):
        return e
    if type(e) is Var:
        return var_of(e.name)
    return rebuild_expr(e, [map_vars(k, names, var_of) for k in subexprs(e)])


# ---------------------------------------------------------------- evaluation

def _as_int(v: Value, ctx: str) -> int:
    """Integer view used by arithmetic; the bottom element coerces to 0 so
    round counters may start from eps."""
    match v:
        case IntV(n):
            return n
        case EpsV():
            return 0
    raise EvalError(f"{ctx}: expected int, got {v!r}")


def compare_values(a: Value, b: Value) -> int:
    """Three-way comparison for the ordered operators; eps sits below every
    integer, strings compare lexicographically, pairs pointwise."""
    match a, b:
        case (EpsV(), EpsV()):
            return 0
        case (EpsV(), IntV()):
            return -1
        case (IntV(), EpsV()):
            return 1
        case (IntV(x), IntV(y)):
            return (x > y) - (x < y)
        case (StrV(x), StrV(y)):
            return (x > y) - (x < y)
        case (BoolV(x), BoolV(y)):
            return (x > y) - (x < y)
        case (PairV(a1, a2), PairV(b1, b2)):
            c = compare_values(a1, b1)
            return c if c != 0 else compare_values(a2, b2)
    raise EvalError(f"cannot order {a!r} and {b!r}")


def aggregate(a: Value, b: Value) -> Value:
    """The binary aggregation operator: associative, commutative, with the
    unit value as identity for every type instance."""
    if isinstance(a, UnitV):
        return b
    if isinstance(b, UnitV):
        return a
    match a, b:
        case (SetV(x), SetV(y)):
            return SetV(x | y)
        case (EpsV(), (IntV() | EpsV())):
            return b
        case (IntV(), EpsV()):
            return a
        case (IntV(x), IntV(y)):
            return IntV(max(x, y))
        case (BoolV(x), BoolV(y)):
            return BoolV(x or y)
        case (StrV(x), StrV(y)):
            return StrV(max(x, y))
        case (PairV(a1, a2), PairV(b1, b2)):
            return PairV(aggregate(a1, b1), aggregate(a2, b2))
    raise AggregationError(f"cannot aggregate {a!r} with {b!r}")


def size_val(v: Value) -> Value:
    match v:
        case SetV(items):
            return IntV(len(items))
        case UnitV():
            return IntV(0)
    raise EvalError(f"size: expected a set, got {v!r}")


def _choose_components(p: Value, ctx: str):
    """Split a promise element into (round, value).  Elements are pairs whose
    second component may itself carry metadata as a nested pair, in which case
    the value is its first component."""
    if not isinstance(p, PairV):
        raise EvalError(f"{ctx}: malformed element {p!r}")
    r = p.first
    v = p.second
    if isinstance(v, PairV):
        v = v.first
    return r, v


def choose_val(s: Value, default: Value) -> Value:
    """Value carried by a maximal non-bottom round in ``s``; ``default`` when
    the set is empty or every round is bottom.  Round ties break toward the
    larger value so the result is stable under set reordering."""
    if isinstance(s, UnitV):
        return default
    if not isinstance(s, SetV):
        raise EvalError(f"chooseVal: expected a set, got {s!r}")
    best = None
    for p in s.sorted_items():
        r, v = _choose_components(p, "chooseVal")
        if isinstance(r, EpsV):
            continue
        if not isinstance(r, IntV):
            raise EvalError(f"chooseVal: malformed round {r!r}")
        if best is None or (r.n, value_key(v)) > (best[0], value_key(best[1])):
            best = (r.n, v)
    return default if best is None else best[1]


def eval_expr(e: Expr, env: dict) -> Value:
    if not env:
        return _closed_value(e)
    return _eval(e, env)


@memo_on_term(kids=subexprs)
def _closed_value(e: Expr) -> Value:
    """Value of an expression under no bindings, memoised per term: a
    ballot carried round after round is evaluated once per ``+ 1``."""
    return _eval(e, {})


def _eval(e: Expr, env: dict) -> Value:
    match e:
        case Lit(v):
            return v
        case Var(x):
            if x not in env:
                raise EvalError(f"unbound variable {x}")
            return env[x]
        case TupleE(a, b):
            return PairV(eval_expr(a, env), eval_expr(b, env))
        case SetE(items):
            return mkset(eval_expr(i, env) for i in items)
        case Builtin("size", (a,)):
            return size_val(eval_expr(a, env))
        case Builtin("chooseVal", (a, d)):
            return choose_val(eval_expr(a, env), eval_expr(d, env))
        case Builtin("fst" | "snd" as f, (a,)):
            v = eval_expr(a, env)
            if not isinstance(v, PairV):
                raise EvalError(f"{f}: expected pair, got {v!r}")
            return v.first if f == "fst" else v.second
        case BinOp(op, le, re_):
            l, r = eval_expr(le, env), eval_expr(re_, env)
            if op in _OPS:
                return _OPS[op][1](l, r)
    raise EvalError(f"cannot evaluate {e!r}")


def _as_bool(v: Value) -> bool:
    if not isinstance(v, BoolV):
        raise EvalError(f"expected bool, got {v!r}")
    return v.b


def _as_setlike(v: Value) -> Value:
    if isinstance(v, (SetV, UnitV)):
        return v
    raise EvalError(f"union: expected a set, got {v!r}")


# Each binary operator of :data:`OP_LEVEL`: its kind, which picks its typing
# rule, and its value from the two operand values.  ``and`` and ``or`` check
# their right operand only when the left one does not decide.
_OPS = {
    "+": ("arithmetic", lambda l, r: IntV(_as_int(l, "+") + _as_int(r, "+"))),
    "-": ("arithmetic", lambda l, r: IntV(_as_int(l, "-") - _as_int(r, "-"))),
    "*": ("arithmetic", lambda l, r: IntV(_as_int(l, "*") * _as_int(r, "*"))),
    ">": ("ordering", lambda l, r: BoolV(compare_values(l, r) > 0)),
    "<": ("ordering", lambda l, r: BoolV(compare_values(l, r) < 0)),
    ">=": ("ordering", lambda l, r: BoolV(compare_values(l, r) >= 0)),
    "<=": ("ordering", lambda l, r: BoolV(compare_values(l, r) <= 0)),
    "=": ("equality", lambda l, r: BoolV(l == r)),
    "!=": ("equality", lambda l, r: BoolV(l != r)),
    "and": ("boolean", lambda l, r: BoolV(_as_bool(l) and _as_bool(r))),
    "or": ("boolean", lambda l, r: BoolV(_as_bool(l) or _as_bool(r))),
    "union": ("union", lambda l, r: aggregate(_as_setlike(l), _as_setlike(r))),
}
# The type both operands of a kind refine; ordering and equality ask that they agree
_OPERAND_TYPE = {"arithmetic": INT_T, "boolean": BOOL_T, "union": SetT(ANY_T)}


def truth(e: Expr, env: dict) -> bool:
    """The truth predicate over conditions."""
    v = eval_expr(e, env)
    if not isinstance(v, BoolV):
        raise EvalError(f"guard is not boolean: {v!r}")
    return v.b


# ---------------------------------------------------------------- expression typing

class ExprTypeError(Exception):
    pass


def type_expr(vars_ctx: dict, e: Expr) -> BaseType:
    """Principal base type of ``e`` under a variable context.  A closed
    expression reads no variable, so it is typed once per term."""
    if fv_expr(e):
        return _type_expr(vars_ctx, e)
    ok, out = _closed_type(e)
    if not ok:
        raise ExprTypeError(out)
    return out


@memo_on_term(kids=subexprs)
def _closed_type(e: Expr) -> tuple:
    """(True, type) or (False, error message) of a closed expression:
    ballots grow by ``+ 1`` per round, as for :func:`_closed_value`."""
    try:
        return True, _type_expr({}, e)
    except ExprTypeError as exc:
        return False, str(exc)


def _type_expr(vars_ctx: dict, e: Expr) -> BaseType:
    match e:
        case Lit(v):
            return type_of_value(v)
        case Var(x):
            if x not in vars_ctx:
                raise ExprTypeError(f"unbound variable {x}")
            return vars_ctx[x]
        case TupleE(a, b):
            return PairT(type_expr(vars_ctx, a), type_expr(vars_ctx, b))
        case SetE(items):
            return _set_type((type_expr(vars_ctx, i) for i in items), lambda m, t:
                            ExprTypeError(f"mixed set element types: {m!r} vs {t!r}"))
        case Builtin("size", (a,)):
            t = type_expr(vars_ctx, a)
            if not base_compatible(SetT(ANY_T), t):
                raise ExprTypeError(f"size over non-set {t!r}")
            return INT_T
        case Builtin("chooseVal", (a, d)):
            t = type_expr(vars_ctx, a)
            if not base_compatible(SetT(PairT(INT_T, ANY_T)), t):
                raise ExprTypeError(f"chooseVal over {t!r}")
            td = type_expr(vars_ctx, d)
            if not base_compatible(INT_T, td):
                raise ExprTypeError(f"chooseVal default must be int, got {td!r}")
            return INT_T
        case Builtin("fst" | "snd" as f, (a,)):
            t = type_expr(vars_ctx, a)
            r = refine_base(PairT(ANY_T, ANY_T), t)
            if r is None:
                raise ExprTypeError(f"{f} over non-pair {t!r}")
            return r.first if f == "fst" else r.second  # ``r`` is a pair type
        case BinOp(op, l, r):
            tl, tr = type_expr(vars_ctx, l), type_expr(vars_ctx, r)
            kind = _OPS[op][0] if op in _OPS else None
            if kind in _OPERAND_TYPE:
                r1 = refine_base(_OPERAND_TYPE[kind], tl)
                r2 = refine_base(_OPERAND_TYPE[kind], tr)
                if r1 is not None and r2 is not None:
                    m = r1 if r1 is r2 else refine_base(r1, r2)  # two sets may not agree
                    if m is None:
                        raise ExprTypeError(f"union of mismatched sets {tl!r}, {tr!r}")
                    return m
            elif kind and refine_base(tl, tr) is not None:
                return BOOL_T
            if kind:
                raise ExprTypeError(f"{kind} over {tl!r}, {tr!r}")
    raise ExprTypeError(f"cannot type {e!r}")
