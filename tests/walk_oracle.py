"""The structural walks over expressions and session types as they were
written before both trees got one generic view (``values.subexprs`` /
``rebuild_expr`` and ``sestypes.conts`` / ``rebuild_type``): each walk
lists every constructor.  Kept verbatim as the differential oracle for the
walks that now go through those views.

One change from the originals: ``fv_expr`` is not memoised, because a memo
on the term would share its slot with the memo of the function it is
compared against.  The copies call one another, and ``types_equal`` and
``_advance`` this module's verbatim copy of ``unfold``, so that no new code
takes part in them.  ``_canon_expr`` builds terms from the expression classes directly,
which ``render`` reached as ``v.Var`` and so on.  ``render_network``, the
recursive printer the network printer's loop replaced, prints each node with
``render.render_node``.  ``term_eq`` is the ``==`` terms had before they were
interned.

The substitution on processes is kept as it was before it walked a chain of
prefixes in a loop: ``_subst_free`` recursed once per subprocess through
``terms.layer``/``rebuild``, and ``subst_procvar`` found the calls to
unfold by one more such walk.

``Defs.names``, which ``subst_procvar`` read, is spelled out: the package
dropped it once none of its modules called it.

``alternatives`` is kept as it was before a sum's alternatives were listed
by ``terms.sum_alternatives``: it recursed once per ``Sum`` on the spine.
It is not memoised, for the reason ``fv_expr`` is not."""

from __future__ import annotations

from dataclasses import fields
from operator import is_
from typing import Callable

from ubsc import terms as t
from ubsc.engine import _MAX_UNFOLD
from ubsc.render import render_node
from ubsc.sestypes import BraT, End, In, Out, Rec, SelT, TVar, TypeSyntaxError
from ubsc.terms import Call, ChanVar, Defs, Endpoint, SubstError, layer, rebuild
from ubsc.values import (Builtin, BinOp, EvalError, Lit, SetE, Term, TupleE, Var,
                         base_compatible, map_vars, refine_base)


# ---------------------------------------------------------------- values.py

def fv_expr(e: Expr) -> frozenset:
    """Free variables of an expression.  Memoised per term: a run's
    expressions grow by wrapping earlier ones (a ballot gains ``+ 1`` per
    round), so a new term costs one step over its memoised parts."""
    match e:
        case Lit():
            return frozenset()
        case Var(x):
            return frozenset((x,))
        case BinOp(_, l, r):
            return fv_expr(l) | fv_expr(r)
        case TupleE(a, b):
            return fv_expr(a) | fv_expr(b)
        case SetE(items) | Builtin(_, items):
            return frozenset().union(*map(fv_expr, items))
    raise EvalError(f"not an expression: {e!r}")


def subst_expr_var(e: Expr, name: str, repl: Expr) -> Expr:
    """``e`` with ``repl`` for the variable ``name``; ``e`` itself when the
    variable does not occur, so unchanged terms stay shared."""
    if name not in fv_expr(e):
        return e
    match e:
        case Lit():
            return e
        case Var(x):
            return repl if x == name else e
        case BinOp(op, l, r):
            l2, r2 = subst_expr_var(l, name, repl), subst_expr_var(r, name, repl)
            return e if l2 is l and r2 is r else BinOp(op, l2, r2)
        case TupleE(a, b):
            a2, b2 = subst_expr_var(a, name, repl), subst_expr_var(b, name, repl)
            return e if a2 is a and b2 is b else TupleE(a2, b2)
        case SetE(items) | Builtin(_, items):
            new = tuple(subst_expr_var(i, name, repl) for i in items)
            if all(map(is_, new, items)):
                return e
            return SetE(new) if isinstance(e, SetE) else Builtin(e.name, new)
    raise EvalError(f"not an expression: {e!r}")


# ---------------------------------------------------------------- render.py

def _canon_expr(e: Expr, env: dict) -> Expr:
    if not env or env.keys().isdisjoint(fv_expr(e)):
        return e  # closed under env: shared, not rebuilt
    match e:
        case Var(x):
            return Var(env.get(x, x))
        case BinOp(op, l, r):
            return BinOp(op, _canon_expr(l, env), _canon_expr(r, env))
        case TupleE(a, b):
            return TupleE(_canon_expr(a, env), _canon_expr(b, env))
        case SetE(items):
            return SetE(tuple(_canon_expr(i, env) for i in items))
        case Builtin(f, args):
            return Builtin(f, tuple(_canon_expr(a, env) for a in args))
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------- sestypes.py

def dual(t: SessionType) -> SessionType:
    match t:
        case End():
            return t
        case TVar():
            return t
        case Out(b, c):
            return In(b, dual(c))
        case In(b, c):
            return Out(b, dual(c))
        case SelT(arms):
            return BraT(tuple((l, dual(x)) for l, x in arms))
        case BraT(arms):
            return SelT(tuple((l, dual(x)) for l, x in arms))
        case Rec(n, b):
            return Rec(n, dual(b))
    raise TypeSyntaxError(f"not a session type: {t!r}")


def _subst_tvar(t: SessionType, name: str, repl: SessionType) -> SessionType:
    match t:
        case End():
            return t
        case TVar(n):
            return repl if n == name else t
        case Out(b, c):
            return Out(b, _subst_tvar(c, name, repl))
        case In(b, c):
            return In(b, _subst_tvar(c, name, repl))
        case SelT(arms):
            return SelT(tuple((l, _subst_tvar(x, name, repl)) for l, x in arms))
        case BraT(arms):
            return BraT(tuple((l, _subst_tvar(x, name, repl)) for l, x in arms))
        case Rec(n, b):
            return t if n == name else Rec(n, _subst_tvar(b, name, repl))
    raise TypeSyntaxError(f"not a session type: {t!r}")


def unfold(t: SessionType) -> SessionType:
    """Expose a non-Rec head (recursion bodies are contractive)."""
    seen = 0
    while isinstance(t, Rec):
        t = _subst_tvar(t.body, t.name, t)
        seen += 1
        if seen > 64:
            raise TypeSyntaxError("non-contractive recursive type")
    return t


def contractive(t: SessionType, bound=frozenset(), guarded=True) -> bool:
    match t:
        case End():
            return True
        case TVar(n):
            return guarded or n not in bound
        case Out(_, c) | In(_, c):
            return contractive(c, bound, True)
        case SelT(arms) | BraT(arms):
            return all(contractive(x, bound, True) for _, x in arms)
        case Rec(n, b):
            return contractive(b, bound | {n}, False)
    return False


def types_equal(a: SessionType, b: SessionType, assumed=None) -> bool:
    """Equality up to unfolding of recursion, with wildcard payload types
    matching anything.  The relation is reflexive, so a type is equal to
    itself at once."""
    if a is b:
        return True
    if assumed is None:
        assumed = set()
    key = (a, b)
    if key in assumed:
        return True
    if isinstance(a, Rec) or isinstance(b, Rec):
        assumed = assumed | {key}
        return types_equal(unfold(a), unfold(b), assumed)
    match a, b:
        case (End(), End()):
            return True
        case (TVar(x), TVar(y)):
            return x == y
        case (Out(b1, c1), Out(b2, c2)) | (In(b1, c1), In(b2, c2)):
            return base_compatible(b1, b2) and types_equal(c1, c2, assumed)
        case (SelT(a1), SelT(a2)) | (BraT(a1), BraT(a2)):
            if [l for l, _ in a1] != [l for l, _ in a2]:
                return False
            return all(types_equal(x, y, assumed) for (_, x), (_, y) in zip(a1, a2))
    return False


def refine_session(a: SessionType, b: SessionType) -> Optional[SessionType]:
    """Merge two session types that are equal up to payload wildcards,
    preferring the more specific payload types.  None on shape mismatch."""
    if isinstance(a, Rec) or isinstance(b, Rec):
        return a if types_equal(a, b) else None
    match a, b:
        case (End(), End()):
            return a
        case (TVar(x), TVar(y)):
            return a if x == y else None
        case (Out(b1, c1), Out(b2, c2)):
            beta = refine_base(b1, b2)
            cont = refine_session(c1, c2)
            return Out(beta, cont) if beta is not None and cont is not None else None
        case (In(b1, c1), In(b2, c2)):
            beta = refine_base(b1, b2)
            cont = refine_session(c1, c2)
            return In(beta, cont) if beta is not None and cont is not None else None
        case (SelT(a1), SelT(a2)) | (BraT(a1), BraT(a2)):
            if [l for l, _ in a1] != [l for l, _ in a2]:
                return None
            arms = []
            for (l, x), (_, y) in zip(a1, a2):
                m = refine_session(x, y)
                if m is None:
                    return None
                arms.append((l, m))
            return SelT(tuple(arms)) if isinstance(a, SelT) else BraT(tuple(arms))
    return None


def _advance(t: SessionType, n: int, kinds: tuple) -> set:
    """All types reachable by consuming exactly ``n`` prefixes, each of one
    of ``kinds``; selection and branching may take any arm."""
    frontier = {t}
    for _ in range(n):
        nxt = set()
        for u in map(unfold, frontier):
            if isinstance(u, kinds):
                nxt.update((u.cont,) if isinstance(u, (Out, In)) else (c for _, c in u.arms))
        frontier = nxt
    return frontier


def advance(t: SessionType, n: int) -> set:
    """All types reachable by consuming exactly ``n`` prefixes; selection and
    branching may take any arm."""
    return _advance(t, n, (Out, In, SelT, BraT))


# ---------------------------------------------------------------- render.py

def render_network(n: t.Network) -> str:
    match n:
        case t.NetworkNode():
            return render_node(n)
        case t.Par(parts):
            return " || ".join(render_network(part) for part in parts)
        case t.Restrict(names, body):
            inner = render_network(body)
            if isinstance(body, t.Par):
                inner = f"({inner})"
            return "".join(f"new {name}. " for name in names) + inner
    raise TypeError(f"not a network: {n!r}")


# ---------------------------------------------------------------- terms.py

def _subst_free(p: Process, sub: dict) -> Process:
    """``p`` with every free occurrence of each name ``x`` of ``sub``
    replaced at once: ``sub[x](ch)`` for a channel-variable occurrence
    ``ch``, ``sub[x](None)`` for an occurrence in an expression.  A subterm
    under binders of every name of ``sub`` is kept as it is."""
    if not sub:
        return p
    chans, exprs, kids = layer(p)
    return rebuild(p, [sub[c.name](c) if type(c) is ChanVar and c.name in sub else c
                       for c in chans],
                   [map_vars(e, sub.keys(), lambda x: sub[x](None)) for e in exprs],
                   [_subst_free(k, {x: f for x, f in sub.items() if x not in b} if b else sub)
                    for b, k in kids])


def subst_channel(p: Process, name: str, ep: Endpoint) -> Process:
    """Replace free channel-variable occurrences of ``name`` with an endpoint
    of the session ``ep`` names.  The occurrence's polarity mark must match
    the endpoint's polarity."""

    def put(ch: Optional[ChanVar]) -> Chan:
        if ch is None:
            raise SubstError(f"channel variable {name} used as an expression")
        if ch.aggr != ep.aggr:
            raise SubstError(f"polarity mismatch substituting {ep!r} for {ch!r}")
        return ep

    return _subst_free(p, {name: put})


def subst_value(p: Process, name: str, value: Value) -> Process:
    """Substitute a closed value for an expression variable."""
    repl = Lit(value)

    def put(ch: Optional[ChanVar]) -> Expr:
        if ch is not None:
            raise SubstError(f"value substituted for channel position {ch!r}")
        return repl

    return _subst_free(p, {name: put})


def _arg_put(name: str, arg):
    """How a call argument replaces the parameter ``name`` (see
    :func:`_subst_free`).  Variables rename both worlds; endpoints go to
    channel positions (keeping each occurrence's polarity mark); other
    expressions go to expression positions."""

    def put(ch: Optional[ChanVar]):
        if isinstance(arg, (ChanVar, Var)):
            return Var(arg.name) if ch is None else ChanVar(arg.name, ch.aggr)
        if isinstance(arg, Endpoint):
            if ch is None:
                raise SubstError(f"endpoint argument used in expression position: {name}")
            return Endpoint(arg.session, ch.aggr)
        if ch is not None:
            raise SubstError(f"expression argument used in channel position: {name}")
        return arg

    return put


def subst_ident(p: Process, name: str, arg) -> Process:
    """Substitute a call argument for a definition parameter."""
    return _subst_free(p, {name: _arg_put(name, arg)})


def subst_procvar(p: Process, name: str, params: tuple, body: Process) -> Process:
    """Unfold one level of the named definition inside ``p``: every
    ``Call(name, args)`` becomes ``body`` with the arguments substituted for
    the parameters, all at once.  Other calls, and definitions that rebind
    ``name``, are untouched."""

    def go(p: Process) -> Process:
        if type(p) is Call and p.name == name:
            if len(p.args) != len(params):
                raise SubstError(
                    f"{name} expects {len(params)} arguments, got {len(p.args)}"
                )
            return _subst_free(body, {prm: _arg_put(prm, a) for prm, a in zip(params, p.args)})
        if type(p) is Defs and name in [n for n, _, _ in p.defs]:
            return p
        chans, exprs, kids = layer(p)
        return rebuild(p, chans, exprs, [go(k) for _, k in kids])

    return go(p)


# ---------------------------------------------------------------- engine.py

def alternatives(p: t.Process) -> tuple:
    """Head alternatives of a process: (head, rebuild) pairs where rebuild
    reinstates the surrounding definition context around a reduced head.
    Sum alternatives discard the other summands; calls unfold through their
    definition context.  A call that does not unfold (an unbound name, or
    past ``_MAX_UNFOLD`` unfoldings) is a head of its own that fires
    nothing, so a process has one alternative only when no sum lies on its
    unfolded path."""
    out: list = []

    def go(p: t.Process, defs_env: tuple, rebuild: Callable, depth: int):
        match p:
            case t.Sum(l, r):
                go(l, defs_env, rebuild, depth)
                go(r, defs_env, rebuild, depth)
            case t.Defs(defs, body):
                env2 = defs_env + (defs,)

                def rb(nb, _rebuild=rebuild, _defs=defs):
                    return _rebuild(t.Defs(_defs, nb))

                go(body, env2, rb, depth)
            case t.Call() if depth < _MAX_UNFOLD and (
                    unfolded := t.unfold_call(p, defs_env)) is not None:
                go(unfolded, defs_env, rebuild, depth + 1)
            case _:
                out.append((p, rebuild))

    go(p, (), lambda x: x, 0)
    return tuple(out)


# ---------------------------------------------------------------- term ==
# Every term class had the dataclass-generated ``__eq__``
#
#     def __eq__(self, other):
#         if other.__class__ is self.__class__:
#             return (self.f1, self.f2, ...) == (other.f1, other.f2, ...)
#         return NotImplemented
#
# and ``terms._composite_eq`` walked BinOp chains in a loop.  Here the field
# tuples compare the terms in them with ``term_eq``, as their own ``==`` is
# now identity.

def fields_of(x) -> tuple:
    """The fields the generated ``__eq__`` compared, in order."""
    return tuple(getattr(x, f.name) for f in fields(x) if f.compare)


def term_eq(a, b) -> bool:
    """``==`` of two terms before interning."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        while x is not y:
            if type(x) is not type(y):
                return False
            if type(x) is BinOp:
                if x.op != y.op:
                    return False
                stack.append((x.right, y.right))
                x, y = x.left, y.left
            else:
                if not _generated_eq(x, y):
                    return False
                break
    return True


def _generated_eq(self, other) -> bool:
    if other.__class__ is self.__class__:
        return _field_eq(fields_of(self), fields_of(other))
    return self is other  # NotImplemented both ways: Python falls back to identity


def _field_eq(u, w) -> bool:
    """``u == w`` of two field values, parts compared as a tuple, a
    frozenset and a term compared them."""
    if u is w:
        return True
    if isinstance(u, Term) and isinstance(w, Term):
        return term_eq(u, w)
    if type(u) is tuple and type(w) is tuple:
        return len(u) == len(w) and all(map(_field_eq, u, w))
    if type(u) is frozenset and type(w) is frozenset:
        return len(u) == len(w) and all(any(_field_eq(x, y) for y in w) for x in u)
    return u == w
