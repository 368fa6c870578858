"""Pretty-printing for every syntax category.

A process is written by one walk, :func:`_canon_text`: as written by
:func:`render_process`, canonically by :func:`canon_process`, and over a
process's shape as the template that :func:`process_template` fills for
digests.  A printed process or expression parses back to the same term,
with its sums right-nested and its binary operators left-nested at the
levels of :data:`values.OP_LEVEL`, so printing the parse of a printed text
gives that text again.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import accumulate
from typing import Optional

from . import sestypes as st
from . import terms as t
from . import values as v


def render_value(val: v.Value) -> str:
    match val:
        case v.UnitV():
            return "unit"
        case v.EpsV():
            return "eps"
        case v.IntV(n):
            return str(n)
        case v.BoolV(b):
            return "true" if b else "false"
        case v.StrV(s):
            return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'
        case v.PairV(a, b):
            return f"({render_value(a)}, {render_value(b)})"
        case v.SetV():
            return "{" + ", ".join(render_value(x) for x in val.sorted_items()) + "}"
    raise TypeError(f"not a value: {val!r}")


def render_expr(e: v.Expr, level: int = 0) -> str:
    """``e`` as text, in parentheses when it binds more loosely than
    ``level`` of :data:`values.OP_LEVEL`."""
    s = _expr_text(e)
    if type(e) is v.BinOp and v.OP_LEVEL[e.op] < level:
        return f"({s})"
    return s


_OPERAND = v.OP_LEVEL["+"]  # the level a send's payload and a receive's default sit at


@v.memo_on_term(kids=v.subexprs)
def _expr_text(e: v.Expr) -> str:
    """``e`` as text without outer parentheses; memoised per term, for the
    same reason as :func:`values.fv_expr`."""
    match e:
        case v.Lit(val):
            return render_value(val)
        case v.Var(x):
            return x
        case v.TupleE(a, b):
            return f"({render_expr(a)}, {render_expr(b)})"
        case v.SetE(items):
            return "{" + ", ".join(render_expr(i) for i in items) + "}"
        case v.Builtin(name, args):
            return f"{name}(" + ", ".join(render_expr(a) for a in args) + ")"
        case v.BinOp(op, l, r):
            if l is _HOLE_VAR and r is _HOLE_VAR:  # a closed expression's placeholder
                return _HOLE
            # left-associative: left operand may sit at the same level
            lvl = v.OP_LEVEL[op]
            return f"{render_expr(l, lvl)} {op} {render_expr(r, lvl + 1)}"
    raise TypeError(f"not an expression: {e!r}")


@v.memo_on_term
def render_base(b: v.BaseType) -> str:
    """``b`` as text; memoised per term, like :func:`render_type`."""
    match b:
        case v.UnitT():
            return "unit"
        case v.IntT():
            return "int"
        case v.BoolT():
            return "bool"
        case v.StrT():
            return "str"
        case v.AnyT():
            return "any"
        case v.PairT(a, c):
            return f"({render_base(a)}, {render_base(c)})"
        case v.SetT(e):
            return f"set({render_base(e)})"
    raise TypeError(f"not a base type: {b!r}")


@v.memo_on_term
def render_type(ty: st.SessionType) -> str:
    """``ty`` as text; memoised per term: candidate and merge sort keys and
    every typing judgment render the same few protocol types again."""
    match ty:
        case st.End():
            return "end"
        case st.TVar(n):
            return n
        case st.Out(b, c):
            return f"!{render_base(b)}.{render_type(c)}"
        case st.In(b, c):
            return f"?{render_base(b)}.{render_type(c)}"
        case st.SelT(arms):
            inner = ", ".join(f"{l}: {render_type(x)}" for l, x in arms)
            return "+{" + inner + "}"
        case st.BraT(arms):
            inner = ", ".join(f"{l}: {render_type(x)}" for l, x in arms)
            return "&{" + inner + "}"
        case st.Rec(n, b):
            return f"rec {n}.{render_type(b)}"
    raise TypeError(f"not a session type: {ty!r}")


def render_chan(ch: t.Chan) -> str:
    name = ch.session if isinstance(ch, t.Endpoint) else ch.name
    return ("*" if ch.aggr else "") + name


_CANON_BASE = 10_000  # throwaway numbering base for order keys
_HOLE = "\x00"  # a hole in a template, where a name or a closed expression is filled in
_HOLE_VAR = v.Var(_HOLE)  # a closed expression's placeholder in a shape
# per level of values.OP_LEVEL, the placeholder of a closed binary expression:
# written as one hole, in the parentheses its level takes where it stands
_PLACES = {lvl: v.BinOp(op, _HOLE_VAR, _HOLE_VAR) for op, lvl in v.OP_LEVEL.items()}
_UNIT = v.Lit(v.UNIT)  # a receive's default that its text leaves out
_ERASED = (t.Endpoint("", False), t.Endpoint("", True))  # an endpoint in a shape, by polarity
_NO_BINDERS: dict = {}  # the binder map at the top of a process; never mutated
_NO_REN: dict = {}  # names written as they are; never mutated


class _NameOrder(Exception):
    """A sum's alternative order depends on what fills its holes."""


class _Holes:
    """The holes a walk into a template writes, each as one :data:`_HOLE`:
    ``refs`` holds, in text order, the term-order index of each hole's fill
    (see :func:`_fills`), and ``next`` the index of the next fill in term
    order."""

    __slots__ = ("next", "refs")

    def __init__(self):
        self.next, self.refs = 0, []

    def take(self, k: int) -> None:
        """Record ``k`` holes written in term order."""
        self.refs += range(self.next, self.next + k)
        self.next += k


def _fixed_order(a: str, b: str) -> bool:
    """Keys ``a`` and ``b`` compare the same whatever fills their holes:
    they differ before either reaches a hole, or are equal and hold none."""
    i = len(os.path.commonprefix((a, b)))
    return _HOLE not in a[:i + 1] and _HOLE not in b[:i + 1]


def _name(name: str, names) -> str:
    """Session or shared ``name`` renamed by ``names``, or a hole taken in
    ``names`` when it is a template's :class:`_Holes`."""
    if type(names) is _Holes:
        names.take(1)
        return _HOLE
    return names.get(name, name)


def _chan_text(ch: t.Chan, env: dict, names) -> str:
    if type(ch) is t.ChanVar:
        name = env.get(ch.name, ch.name)
    else:
        name = _name(ch.session, names)
    return "*" + name if ch.aggr else name


def _canon_expr(e: v.Expr, env: dict) -> v.Expr:
    return v.map_vars(e, env.keys(), lambda x: v.Var(env[x]))


def _expr_part(e: v.Expr, env: dict, names, level: int = 0) -> str:
    """``e`` under the binder map ``env`` at ``level``; in a template its
    placeholders are holes, taken in ``names``."""
    s = render_expr(_canon_expr(e, env), level)
    if type(names) is _Holes:
        names.take(s.count(_HOLE))
    return s


def _bind(name: str, env: dict, counter: Optional[list], prefix: str = "v") -> tuple:
    """The text of binder ``name`` and the binder map under it: the next
    canonical name, or ``name`` as written when there is no ``counter``."""
    if counter is None:
        return name, env
    new = f"{prefix}{counter[0]}"
    counter[0] += 1
    return new, {**env, name: new}


def _canon_text(p: t.Process, env: dict, counter: Optional[list], names) -> str:
    """``p`` as text, in one walk, with its session and shared names renamed
    by the map ``names``.  Without a ``counter`` binders keep their names
    and sum alternatives their order.  With one the text is canonical:
    binders renamed to sequential canonical names, sum alternatives sorted
    by an alpha-invariant key.  When ``names`` is a :class:`_Holes`, ``p``
    is a shape (see :func:`_shape_tree`): every name and placeholder is written
    as a hole, and a sum whose order could depend on what fills the holes
    raises :class:`_NameOrder`."""
    match p:
        case t.Inact():
            return "0"
        case t.Request(a, x, body):
            nx, env2 = _bind(x, env, counter)
            return f"req {_name(a, names)}(*{nx}). {_canon_body(body, env2, counter, names)}"
        case t.Accept(a, x, body):
            nx, env2 = _bind(x, env, counter)
            return f"acc {_name(a, names)}({nx}). {_canon_body(body, env2, counter, names)}"
        case t.Send(ch, e, body):
            return (f"{_chan_text(ch, env, names)}!<{_expr_part(e, env, names, _OPERAND)}>. "
                    f"{_canon_body(body, env, counter, names)}")
        case t.Recv(ch, x, d, body):
            chan = _chan_text(ch, env, names)
            dflt = "" if d is _UNIT else f" def {_expr_part(d, env, names, _OPERAND)}"
            nx, env2 = _bind(x, env, counter)
            return f"{chan}?({nx}){dflt}. {_canon_body(body, env2, counter, names)}"
        case t.Select(ch, l, body):
            return f"{_chan_text(ch, env, names)}<<{l}. {_canon_body(body, env, counter, names)}"
        case t.Branch(ch, arms, df):
            chan = _chan_text(ch, env, names)
            inner = ", ".join([f"{l}: {_canon_text(ap, env, counter, names)}" for l, ap in arms]
                              + [f"df: {_canon_text(df, env, counter, names)}"])
            return f"{chan}>>{{{inner}}}"
        case t.Sum():
            alts, starts = t.sum_alternatives(p), None
            order = range(len(alts))
            if counter is not None:
                holes = type(names) is _Holes  # a key's holes are not the text's
                keys = [_canon_text(alt, env, [_CANON_BASE], _Holes() if holes else names)
                        for alt in alts]
                order = sorted(order, key=keys.__getitem__)
                if holes:
                    ranked = [keys[i] for i in order]
                    if not all(map(_fixed_order, ranked, ranked[1:])):
                        raise _NameOrder
                    # the alternatives' fills, in term order, start at these indices
                    starts = list(accumulate([k.count(_HOLE) for k in keys], initial=names.next))
            texts = []
            for i in order:
                if starts:
                    names.next = starts[i]
                s = _canon_text(alts[i], env, counter, names)
                texts.append(f"({s})" if type(alts[i]) is t.Recover else s)
            if starts:
                names.next = starts[-1]
            res = f"{texts[-2]} + {texts[-1]}"  # right-nested as Sum(a1, Sum(a2, ...))
            for s in reversed(texts[:-2]):
                res = f"{s} + ({res})"
            return res
        case t.Cond(g, a, b):
            guard = _expr_part(g, env, names)
            then = _canon_body(a, env, counter, names)
            return f"if {guard} then {then} else {_canon_body(b, env, counter, names)}"
        case t.Defs(defs, body):
            head, env2 = _canon_defs(defs, env, counter, names)
            return head + _canon_body(body, env2, counter, names)
        case t.Call(name, args):
            parts = (_chan_text(a, env, names) if isinstance(a, (t.Endpoint, t.ChanVar))
                     else _expr_part(a, env, names) for a in args)
            return f"{env.get(name, name)}(" + ", ".join(parts) + ")"
        case t.Recover(b, h):
            bs = _canon_text(b, env, counter, names)
            hs = _canon_text(h, env, counter, names)
            bs = f"({bs})" if type(b) is t.Sum else bs
            hs = f"({hs})" if type(h) in (t.Sum, t.Recover) else hs
            return f"{bs} >r {hs}"
    raise TypeError(f"not a process: {p!r}")


def _canon_body(p: t.Process, env: dict, counter: Optional[list], names) -> str:
    """:func:`_canon_text` in a prefix's body position: a sum or a recovery
    term in parentheses."""
    s = _canon_text(p, env, counter, names)
    return f"({s})" if type(p) is t.Sum or type(p) is t.Recover else s


def _canon_defs(defs: tuple, env: dict, counter: Optional[list], names) -> tuple:
    """Text ``def ... in `` of a ``Defs`` block's definitions, and the
    binder map its body is walked under."""
    new_names = []
    for n, _, _ in defs:
        nn, env = _bind(n, env, counter, "d")
        new_names.append(nn)
    texts = []
    for (_, params, dbody), nn in zip(defs, new_names):
        env3, new_params = env, []
        for prm in params:
            nprm, env3 = _bind(prm, env3, counter)
            new_params.append(nprm)
        texts.append(f"{nn}({', '.join(new_params)}) = "
                     f"{_canon_text(dbody, env3, counter, names)}")
    return f"def {', '.join(texts)} in ", env


def render_process(p: t.Process) -> str:
    """``p`` as written: its binders' names and its sum order kept."""
    return _canon_text(p, _NO_BINDERS, None, _NO_REN)


def canon_process(p: t.Process) -> str:
    """Canonical text of a process: equal exactly for alpha-equivalent
    processes."""
    return _canon_text(p, {}, [0], _NO_REN)


# A process's template is its canonical text with a hole for each session
# and shared name and each maximal closed expression.  It is made once per
# *shape* of the process (Maziarz et al., "Hashing Modulo Alpha-Equivalence",
# PLDI 2021): the text depends on the term's structure, and names and closed
# expressions enter only through the fill.  Terms are hash-consed, so a
# shape is an interned term and keys a cache by identity.

def _closed_place(e: v.Expr) -> v.Expr:
    """The placeholder of a closed expression: it keeps its top operator's
    level."""
    return _PLACES[v.OP_LEVEL[e.op]] if type(e) is v.BinOp else _HOLE_VAR


def _place(e: v.Expr, fills: list) -> v.Expr:
    """The shape of an expression, its maximal closed parts appended to
    ``fills`` in order: a closed one's placeholder, else its open shape."""
    if not v.fv_expr(e):
        fills.append(e)
        return _closed_place(e)
    shape, closed = _open_shape(e)
    fills += closed
    return shape


@v.memo_on_term(kids=lambda e: [x for x in v.subexprs(e) if v.fv_expr(x)])
def _open_shape(e: v.Expr) -> tuple:
    """An open expression over the shapes of its parts, and its maximal
    closed parts in order; memoised per term."""
    parts = [_open_shape(x) if v.fv_expr(x) else (_closed_place(x), (x,))
             for x in v.subexprs(e)]
    return v.rebuild_expr(e, [s for s, _ in parts]), sum((c for _, c in parts), ())


def _erase(c: t.Chan, fills: list) -> t.Chan:
    """A channel's shape, an endpoint's session appended to ``fills``."""
    if type(c) is t.ChanVar:
        return c
    fills.append(c.session)
    return _ERASED[c.aggr]


@v.memo_on_term(kids=t.subprocesses)
def _shape_tree(q: t.Process) -> tuple:
    """The shape of a process and its fill tree, as one tuple: (the shape,
    the fills of the term's own fields, then its subprocesses' trees).
    Made from the fields and the subprocesses' memos, so a new node costs
    one step per new subterm.

    The shape is ``q`` with every endpoint's session and every shared name
    erased, and every expression but a receive's unit default replaced by
    its shape (:func:`_place`).  A tree shares its subtrees, so a prefix
    chain costs linear memory, and :func:`_fills` flattens it."""
    tq, own = type(q), []
    if tq is t.Call:  # its arguments' fills in order, channels and expressions mixed
        return t.Call(q.name, tuple(_erase(a, own) if isinstance(a, (t.Endpoint, t.ChanVar))
                                    else _place(a, own) for a in q.args)), tuple(own)
    chans, exprs, kids = t.layer(q)
    chans = [_erase(c, own) for c in chans]
    exprs = [e if e is _UNIT and tq is t.Recv else _place(e, own) for e in exprs]
    kids = [_shape_tree(k) for _, k in kids]
    if tq is t.Request or tq is t.Accept:
        return tq("", q.bind, kids[0][0]), (q.shared,), *kids
    return t.rebuild(q, chans, exprs, [k[0] for k in kids]), tuple(own), *kids


def _shape(p: t.Process) -> t.Process:
    """The shape of a process (see :func:`_shape_tree`)."""
    return _shape_tree(p)[0]


def _fills(p: t.Process) -> list:
    """What fills the holes of the shape of ``p``, in term order (the order
    the canonical walk writes them in when it sorts no sum): its fill tree
    flattened."""
    out, stack = [], [_shape_tree(p)]
    while stack:
        tree = stack.pop()
        out += tree[1]
        stack += tree[:1:-1]
    return out


def _filled(tpl: tuple, fills: list) -> list:
    """The template ``tpl`` of a shape with ``fills`` written in: its text
    parts, the closed expressions' text merged into them, with the names at
    the odd indices.  A hole whose ref is a name, not an index, is one of
    the definitions block's."""
    texts, refs = tpl
    out = [texts[0]]
    for ref, text in zip(refs, texts[1:]):
        x = fills[ref] if type(ref) is int else ref
        if type(x) is str:
            out += (x, text)
        else:
            out[-1] += _expr_text(x) + text
    return out


@lru_cache(maxsize=256)
def _defs_block(defs: tuple) -> Optional[tuple]:
    """The canonical ``def ... in `` text of a top-level definitions block
    as parts with its names at the odd indices, and the binder map and
    counter it hands to the body; None when it has no exact template."""
    holes, counter = _Holes(), [0]
    try:
        text, env = _canon_defs(tuple((n, params, _shape(body)) for n, params, body in defs),
                                {}, counter, holes)
    except _NameOrder:
        return None
    fills = [x for _, _, body in defs for x in _fills(body)]
    return _filled((text.split(_HOLE), holes.refs), fills), env, counter[0]


@lru_cache(maxsize=512)
def _shape_template(defs: Optional[tuple], shape: t.Process) -> Optional[tuple]:
    """Template of the canonical text of a process whose body has ``shape``
    under the top-level definitions ``defs`` (none when None): its text
    split at the holes, and per hole its ref: the term-order index of the
    body's fill, or the definitions block's name.  None when a sum's order
    depends on a hole."""
    head, env, n, canon = [""], _NO_BINDERS, 0, _canon_text
    if defs is not None:
        if (block := _defs_block(defs)) is None:
            return None
        (head, env, n), canon = block, _canon_body
    holes = _Holes()
    try:
        texts = canon(shape, env, [n], holes).split(_HOLE)
    except _NameOrder:
        return None
    return ((*head[0:-1:2], head[-1] + texts[0], *texts[1:]),
            (*head[1::2], *holes.refs))


@lru_cache(maxsize=2048)
def process_template(p: t.Process) -> Optional[tuple]:
    """Template of the canonical rendering of ``p``, as text parts with its
    names at the odd indices: the template of its body's shape under its
    definitions block, filled.  None when ``p`` has no exact template: a
    sum's order depends on a hole."""
    defs, body = (p.defs, p.body) if type(p) is t.Defs else (None, p)
    if (tpl := _shape_template(defs, _shape(body))) is None:
        return None
    return tuple(_filled(tpl, _fills(body)))


def canon_renamed(p: t.Process, ren: dict) -> str:
    """Canonical text of ``p`` with its names renamed by ``ren``, by one
    canonical walk: the text its template, when it has one, fills to."""
    return _canon_text(p, {}, [0], ren)


def render_msg(m) -> str:
    match m:
        case t.ValMsg(val):
            return render_value(val)
        case t.LabMsg(l):
            return f"#{l}"
        case t.TaggedMsg(tag, val):
            return f"({tag}, {render_value(val)})"
    raise TypeError(f"not a message: {m!r}")


def render_buffer(b: t.Buffer) -> str:
    q = ", ".join(render_msg(m) for m in b.queue)
    return f"{render_chan(b.ep)}~{b.state}:[{q}]"


def render_node(n: t.NetworkNode) -> str:
    parts = [render_process(n.process)] + [render_buffer(b) for b in n.buffers]
    return "[ " + " | ".join(parts) + " ]"


def render_network(n: t.Network) -> str:
    match n:
        case t.NetworkNode():
            return render_node(n)
        case t.Par(parts):
            return " || ".join(map(render_network, parts))
        case t.Restrict(names, body):
            inner = render_network(body)
            return "".join(f"new {x}. " for x in names) + (
                f"({inner})" if type(body) is t.Par else inner)
    raise TypeError(f"not a network: {n!r}")


def render_stated_context(ctx: dict) -> str:
    """Linear contexts with state counters, deterministically ordered."""
    items = sorted(ctx.items(), key=lambda kv: (kv[0].session, not kv[0].aggr))
    return ", ".join(
        f"{render_chan(ep)}: ({c}, {render_type(ty)})" for ep, (c, ty) in items
    )
