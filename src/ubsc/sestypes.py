"""Session types, buffer types, duality, type advancement and the
linear-context synchronisation relation.

Linear contexts at network level map concrete endpoints to (state, type)
pairs.  Advancement bounds every search by the counter difference, so all
relations here are decidable by bounded unfolding.
"""

from __future__ import annotations

from typing import Optional, Union

from .terms import Endpoint
from .values import BaseType, Term, base_compatible, refine_base


class TypeSyntaxError(Exception):
    pass


# ---------------------------------------------------------------- syntax

class Out(Term):
    beta: BaseType
    cont: "SessionType"


class In(Term):
    beta: BaseType
    cont: "SessionType"


class SelT(Term):
    arms: tuple  # ((label, SessionType), ...) sorted by label


class BraT(Term):
    arms: tuple


class End(Term):
    def __repr__(self):
        return "end"


class TVar(Term):
    name: str


class Rec(Term):
    name: str
    body: "SessionType"


SessionType = Union[Out, In, SelT, BraT, End, TVar, Rec]

END = End()


def mkarms(pairs) -> tuple:
    pairs = sorted(pairs, key=lambda kv: kv[0])
    labels = [l for l, _ in pairs]
    if len(set(labels)) != len(labels):
        raise TypeSyntaxError(f"duplicate branch labels {labels}")
    if not labels:
        raise TypeSyntaxError("empty label set")
    return tuple(pairs)


# ---------------------------------------------------------------- buffer types

class OutItem(Term):
    beta: BaseType


class SelItem(Term):
    label: str


class PadItem(Term):
    """A state the aggregator buffer folds through without any message: a
    vacuous broadcast or an empty gather, depending on the protocol's
    direction at that position."""


BufferType = tuple  # ordered sequence of OutItem | SelItem; () is the empty type


# ---------------------------------------------------------------- one layer
# ``conts`` and ``rebuild_type`` are the one generic view of a session type
# constructor, as :func:`terms.layer` and :func:`terms.rebuild` are of a
# process; unfolding, rendering and buffer consumption stay per constructor.

_DUAL = {End: End, TVar: TVar, Out: In, In: Out, SelT: BraT, BraT: SelT, Rec: Rec}


def conts(t: SessionType):
    """The continuations ``t`` holds directly, arms in label order."""
    if type(t) is Out or type(t) is In:
        return (t.cont,)
    if type(t) is SelT or type(t) is BraT:
        return [x for _, x in t.arms]
    if type(t) is Rec:
        return (t.body,)
    if type(t) is End or type(t) is TVar:
        return ()
    raise TypeSyntaxError(f"not a session type: {t!r}")


def rebuild_type(t: SessionType, kids, flip: bool = False) -> SessionType:
    """``t``'s constructor, or with ``flip`` its dual's, over new
    continuations in :func:`conts` order."""
    cls = _DUAL[type(t)] if flip else type(t)
    if cls is Out or cls is In:
        return cls(t.beta, kids[0])
    if cls is Rec:
        return Rec(t.name, kids[0])
    if cls is SelT or cls is BraT:
        return cls(tuple((l, k) for (l, _), k in zip(t.arms, kids)))
    return t


def _tag(t: SessionType):
    """A type variable's name, or the labels of a type's arms."""
    if type(t) is SelT or type(t) is BraT:
        return [l for l, _ in t.arms]
    return t.name if type(t) is TVar else None


# ---------------------------------------------------------------- operations

def dual(t: SessionType) -> SessionType:
    return rebuild_type(t, [dual(k) for k in conts(t)], flip=True)


def _subst_tvar(t: SessionType, name: str, repl: SessionType) -> SessionType:
    if type(t) is TVar:
        return repl if t.name == name else t
    if type(t) is Rec and t.name == name:
        return t
    return rebuild_type(t, [_subst_tvar(k, name, repl) for k in conts(t)])


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
    if type(t) is TVar:
        return guarded or t.name not in bound
    if type(t) is Rec:
        return contractive(t.body, bound | {t.name}, False)
    return type(t) in _DUAL and all(contractive(k, bound, True) for k in conts(t))


def types_equal(a: SessionType, b: SessionType) -> bool:
    """Equality up to unfolding of recursion, with wildcard payload types
    matching anything: the two types merge.  A type equals itself at once."""
    return a is b or refine_session(a, b, frozenset()) is not None


def refine_session(a: SessionType, b: SessionType, assumed=None) -> Optional[SessionType]:
    """Merge two session types equal up to unfolding and payload wildcards,
    preferring the more specific payload types; None on shape mismatch.  A
    pair of recursive types is assumed equal while their unfoldings are
    compared (Amadio & Cardelli, TOPLAS 1993), and merges as ``a``.  With
    ``assumed`` None the walk builds a merge, walking a continuation before
    its payload, so it raises on one that does not unfold.  Deciding
    equality, it stops at unequal payloads and at a type paired with itself."""
    if assumed is not None and (a is b or (a, b) in assumed):
        return a
    if isinstance(a, Rec) or isinstance(b, Rec):
        pairs = (assumed or frozenset()) | {(a, b)}
        return a if a is b or refine_session(unfold(a), unfold(b), pairs) is not None else None
    if type(a) is not type(b) or type(a) not in _DUAL or _tag(a) != _tag(b):
        return None
    if type(a) is Out or type(a) is In:
        beta = refine_base(a.beta, b.beta)
        if beta is None and assumed is not None:
            return None
        cont = refine_session(a.cont, b.cont, assumed)
        return None if beta is None or cont is None else type(a)(beta, cont)
    kids = []
    for x, y in zip(conts(a), conts(b)):
        kids.append(refine_session(x, y, assumed))
        if kids[-1] is None:
            return None
    return rebuild_type(a, kids)


def combine(t: SessionType, m: BufferType) -> Optional[SessionType]:
    """Consume a buffer type against a session type; None when undefined.
    Pads cross one input or output position without constraining it."""
    for item in m:
        t = unfold(t)
        match item, t:
            case (OutItem(beta), In(b2, cont)):
                if not base_compatible(b2, beta):
                    return None
                t = cont
            case (SelItem(label), BraT(arms)):
                d = dict(arms)
                if label not in d:
                    return None
                t = d[label]
            case (PadItem(), (In(_, cont) | Out(_, cont))):
                t = cont
            case _:
                return None
    return t


def _advance(t: SessionType, n: int, kinds: tuple) -> set:
    """All types reachable by consuming exactly ``n`` prefixes, each of one
    of ``kinds``; selection and branching may take any arm."""
    frontier = {t}
    for _ in range(n):
        nxt = set()
        for u in map(unfold, frontier):
            if isinstance(u, kinds):
                nxt.update(conts(u))
        frontier = nxt
    return frontier


def advance(t: SessionType, n: int) -> set:
    """All types reachable by consuming exactly ``n`` prefixes; selection and
    branching may take any arm."""
    return _advance(t, n, (Out, In, SelT, BraT))


def output_advance(t: SessionType, n: int) -> set:
    """As :func:`advance` but only output prefixes may be consumed."""
    return _advance(t, n, (Out,))


def autonomous_advance(t: SessionType, n: int) -> set:
    """Advancement restricted to the steps a plain endpoint can take on its
    own: dropping an output (loss) or defaulting an input (receive
    recovery).  Branch positions cannot be crossed autonomously while
    keeping the endpoint."""
    return _advance(t, n, (Out, In))


def entry_synchronizes(c_from: int, t_from: SessionType, c_to: int,
                       t_to: SessionType) -> bool:
    """One plain-endpoint entry of the synchronisation relation: either the
    type advances forward across the counter gap, or the target type
    reconstructs the entry by the autonomous steps recovery permits."""
    if c_from <= c_to:
        return any(types_equal(u, t_to) for u in advance(t_from, c_to - c_from))
    return any(types_equal(u, t_from)
               for u in autonomous_advance(t_to, c_from - c_to))


def entries_equal(a: tuple, b: tuple, flip: bool = False) -> bool:
    """Two stated (state, type) entries hold the same state and equal types;
    with ``flip``, ``a``'s type equals the dual of ``b``'s, built only when
    the states agree."""
    return a[0] == b[0] and types_equal(a[1], dual(b[1]) if flip else b[1])


def synchronizes(ep: Endpoint, entry: tuple, target: tuple) -> bool:
    """``ep``'s stated entry synchronises to ``target``: an aggregator entry
    only to an equal one, a plain entry by :func:`entry_synchronizes`."""
    return entries_equal(entry, target) if ep.aggr else entry_synchronizes(*entry, *target)


def synchronize(from_ctx: dict, to_ctx: dict) -> bool:
    """Linear context synchronisation over stated contexts
    (Endpoint -> (state, type)).  Only plain endpoints may move; aggregator
    entries and the domain must match exactly."""
    return set(from_ctx) == set(to_ctx) and all(
        synchronizes(ep, entry, to_ctx[ep]) for ep, entry in from_ctx.items())


def well_formed(ctx: dict) -> bool:
    """Every aggregator entry is matched by a same-state dual plain entry, or
    the plain endpoint is absent."""
    return all(not ep.aggr or (pl := Endpoint(ep.session, False)) not in ctx
               or entries_equal(ctx[pl], entry, flip=True) for ep, entry in ctx.items())


# ---------------------------------------------------------------- context advancement

def _dual_steps(ctx: dict, session: str):
    """Successor contexts from one communication step on ``session``.  An
    aggregator whose plain endpoints were all dropped steps alone; the
    residual context hides this under restriction."""
    ag, pl = Endpoint(session, True), Endpoint(session, False)
    if ag not in ctx:
        return
    ca, ta = ctx[ag]
    if pl not in ctx:
        for cont in sorted(advance(ta, 1), key=repr):
            yield {**ctx, ag: (ca + 1, cont)}
        return
    cp, tp = ctx[pl]
    if ca != cp:
        return
    ua, up = unfold(ta), unfold(tp)
    # broadcast (aggregator outputs, plain inputs) or gather (the reverse)
    if {type(ua), type(up)} == {Out, In} and base_compatible(ua.beta, up.beta):
        yield {**ctx, ag: (ca + 1, ua.cont), pl: (cp + 1, up.cont)}
    # selection
    if isinstance(ua, SelT) and isinstance(up, BraT):
        da, dp = dict(ua.arms), dict(up.arms)
        for l in da:
            if l in dp:
                yield {**ctx, ag: (ca + 1, da[l]), pl: (cp + 1, dp[l])}


def context_advance(ctx: dict) -> list:
    """One-step successors of a linear context: communication steps per
    session plus dropping any subset of plain entries (the empty drop gives
    reflexivity).  Exponential in the number of plain entries; intended for
    the small contexts of tests and harnesses."""
    out = []
    seen = set()

    def emit(d: dict):
        key = frozenset(d.items())
        if key not in seen:
            seen.add(key)
            out.append(d)

    sessions = {ep.session for ep in ctx}
    for s in sorted(sessions):
        for d in _dual_steps(ctx, s):
            emit(d)
    plains = sorted([ep for ep in ctx if not ep.aggr], key=lambda e: e.session)
    if len(plains) <= 12:
        for mask in range(len(plains) and (1 << len(plains)) or 1):
            dropped = {plains[i] for i in range(len(plains)) if mask & (1 << i)}
            emit({ep: v for ep, v in ctx.items() if ep not in dropped})
    else:
        emit(dict(ctx))
    return out


def contexts_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(entries_equal(a[ep], b[ep]) for ep in a)


def advances_to(before: dict, after: dict) -> bool:
    """Decision procedure for single-step context advancement, extended (for
    the preservation harness) with session creation: ``after`` may add a
    fresh dual endpoint pair at state 0."""
    extra = set(after) - set(before)
    if extra:
        extra_sessions = {ep.session for ep in extra}
        if any(ep.session in extra_sessions for ep in before):
            return False
        for s in extra_sessions:
            ag, pl = Endpoint(s, True), Endpoint(s, False)
            members = {ep for ep in extra if ep.session == s}
            if members == {ag, pl}:
                if not (after[ag][0] == 0 and entries_equal(after[pl], after[ag], flip=True)):
                    return False
            elif members == {ag}:
                if after[ag][0] != 0:
                    return False
            else:
                return False
        after = {ep: v for ep, v in after.items() if ep not in extra}
    # equal, or with plain entries dropped only
    dropped = set(before) - set(after)
    if not any(ep.aggr for ep in dropped) and contexts_equal(
            {ep: v for ep, v in before.items() if ep not in dropped}, after):
        return True
    # one communication step on a single session
    if not dropped:
        diff = [ep for ep in before if not entries_equal(before[ep], after[ep])]
        sessions = {ep.session for ep in diff}
        if len(sessions) == 1:
            return any(contexts_equal(d, after) for d in _dual_steps(before, sessions.pop()))
    return False
