"""Pretty-printing for every syntax category.

A process is written by one walk, :func:`_canon_text`: as written by
:func:`render_process`, canonically by :func:`canon_process`, and as the
templates of :func:`process_template` that digests fill.  A printed
process or expression parses back to the same term, with its sums
right-nested and its binary operators left-nested at the levels of
:data:`values.OP_LEVEL`, so printing the parse of a printed text gives that
text again.
"""

from __future__ import annotations

import os
from functools import lru_cache
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


def render_operand(e: v.Expr) -> str:
    """An expression where a send's payload or a receive's default sits."""
    return render_expr(e, v.OP_LEVEL["+"])


@v.memo_on_term
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
_HOLE = "\x00"  # delimits a name hole in a template: "\x00name\x00"
_NO_BINDERS: dict = {}  # the binder map at the top of a process; never mutated


class _NameOrder(Exception):
    """A sum's alternative order depends on the names filling its holes."""


class _Holes:
    """The holes a canonicalisation into a template makes: their ``count``,
    and the ``top`` binder map (a definitions block's) under which body
    texts are memoised, see :func:`_canon_body`."""

    __slots__ = ("count", "top")

    def __init__(self, top: Optional[dict] = None):
        self.count = 0
        self.top = top


def _fixed_order(a: str, b: str) -> bool:
    """``a`` and ``b`` compare the same whatever names fill their holes:
    they are equal, or differ before either reaches a hole."""
    if a == b:
        return True
    i = len(os.path.commonprefix((a, b)))
    return _HOLE not in a[:i + 1] and _HOLE not in b[:i + 1]


def _chan_text(ch: t.Chan, env: dict, holes: Optional[_Holes]) -> str:
    if type(ch) is t.ChanVar:
        name = env.get(ch.name, ch.name)
    else:
        name = _hole(ch.session, holes)
    return "*" + name if ch.aggr else name


def _hole(name: str, holes: Optional[_Holes]) -> str:
    """``name`` as a hole, counted in ``holes``; as is without ``holes``."""
    if holes is None:
        return name
    holes.count += 1
    return _HOLE + name + _HOLE


def _canon_expr(e: v.Expr, env: dict) -> v.Expr:
    return v.map_vars(e, env.keys(), lambda x: v.Var(env[x]))


def _bind(name: str, env: dict, counter: Optional[list], prefix: str = "v") -> tuple:
    """The text of binder ``name`` and the binder map under it: the next
    canonical name, or ``name`` as written when there is no ``counter``."""
    if counter is None:
        return name, env
    new = f"{prefix}{counter[0]}"
    counter[0] += 1
    return new, {**env, name: new}


def _canon_text(p: t.Process, env: dict, counter: Optional[list],
                holes: Optional[_Holes] = None) -> str:
    """``p`` as text, in one walk.  Without a ``counter`` binders keep their
    names and sum alternatives their order.  With one the text is
    canonical: binders renamed to sequential canonical names, sum
    alternatives sorted by an alpha-invariant key.  With ``holes`` every
    endpoint session and shared name becomes a hole, and a sum whose order
    would depend on how the holes are filled raises :class:`_NameOrder`."""
    match p:
        case t.Inact():
            return "0"
        case t.Request(a, x, body):
            nx, env2 = _bind(x, env, counter)
            return f"req {_hole(a, holes)}(*{nx}). {_canon_body(body, env2, counter, holes)}"
        case t.Accept(a, x, body):
            nx, env2 = _bind(x, env, counter)
            return f"acc {_hole(a, holes)}({nx}). {_canon_body(body, env2, counter, holes)}"
        case t.Send(ch, e, body):
            return (f"{_chan_text(ch, env, holes)}!<{render_operand(_canon_expr(e, env))}>. "
                    f"{_canon_body(body, env, counter, holes)}")
        case t.Recv(ch, x, d, body):
            d2 = _canon_expr(d, env)
            dflt = "" if d2 == v.Lit(v.UNIT) else f" def {render_operand(d2)}"
            nx, env2 = _bind(x, env, counter)
            return (f"{_chan_text(ch, env, holes)}?({nx}){dflt}. "
                    f"{_canon_body(body, env2, counter, holes)}")
        case t.Select(ch, l, body):
            return f"{_chan_text(ch, env, holes)}<<{l}. {_canon_body(body, env, counter, holes)}"
        case t.Branch(ch, arms, df):
            chan = _chan_text(ch, env, holes)
            inner = ", ".join([f"{l}: {_canon_text(ap, env, counter, holes)}" for l, ap in arms]
                              + [f"df: {_canon_text(df, env, counter, holes)}"])
            return f"{chan}>>{{{inner}}}"
        case t.Sum():
            alts = _flatten_sum(p)
            if counter is not None:
                key_holes = None if holes is None else _Holes()  # keys are not part of the text
                keyed = [(_canon_text(alt, env, [_CANON_BASE], key_holes), alt) for alt in alts]
                keyed.sort(key=lambda kv: kv[0])
                if holes is not None and not all(_fixed_order(a, b) for (a, _), (b, _)
                                                 in zip(keyed, keyed[1:])):
                    raise _NameOrder
                alts = [alt for _, alt in keyed]
            texts = [_canon_text(alt, env, counter, holes) for alt in alts]
            texts = [f"({s})" if type(alt) is t.Recover else s for alt, s in zip(alts, texts)]
            res = f"{texts[-2]} + {texts[-1]}"  # right-nested as Sum(a1, Sum(a2, ...))
            for s in reversed(texts[:-2]):
                res = f"{s} + ({res})"
            return res
        case t.Cond(g, a, b):
            guard = render_expr(_canon_expr(g, env))
            then = _canon_body(a, env, counter, holes)
            return f"if {guard} then {then} else {_canon_body(b, env, counter, holes)}"
        case t.Defs(defs, body):
            head, env2 = _canon_defs(defs, env, counter, holes)
            return head + _canon_body(body, env2, counter, holes)
        case t.Call(name, args):
            parts = (_chan_text(a, env, holes) if isinstance(a, (t.Endpoint, t.ChanVar))
                     else render_expr(_canon_expr(a, env)) for a in args)
            return f"{env.get(name, name)}(" + ", ".join(parts) + ")"
        case t.Recover(b, h):
            bs = _canon_text(b, env, counter, holes)
            hs = _canon_text(h, env, counter, holes)
            bs = f"({bs})" if type(b) is t.Sum else bs
            hs = f"({hs})" if type(h) in (t.Sum, t.Recover) else hs
            return f"{bs} >r {hs}"
    raise TypeError(f"not a process: {p!r}")


def _canon_body(p: t.Process, env: dict, counter: Optional[list],
                holes: Optional[_Holes]) -> str:
    """:func:`_canon_text` in a prefix's body position: a sum or a recovery
    term in parentheses.

    Under the ``top`` binder map of ``holes`` the text is memoised on ``p``
    with the counter it starts and ends at.  A continuation reached without
    a binder (after a send, a select, or a branch of a binder-free test)
    starts at the same counter when it becomes the body of the node's next
    process, so its template is then read back, not made again."""
    memo_here = holes is not None and env is holes.top
    if memo_here:
        memo = p.__dict__.get("_canon_memo")
        if memo is not None and memo[0] is env and memo[1] == counter[0]:
            counter[0] = memo[2]
            holes.count += memo[3]
            return memo[4]
        start, made = counter[0], holes.count
    s = _canon_text(p, env, counter, holes)
    if type(p) is t.Sum or type(p) is t.Recover:
        s = f"({s})"
    if memo_here:
        object.__setattr__(p, "_canon_memo", (env, start, counter[0], holes.count - made, s))
    return s


def _canon_defs(defs: tuple, env: dict, counter: Optional[list],
                holes: Optional[_Holes]) -> tuple:
    """Text ``def ... in `` of a ``Defs`` block's definitions, and the
    binder map its body is walked under."""
    names = []
    for n, _, _ in defs:
        nn, env = _bind(n, env, counter, "d")
        names.append(nn)
    texts = []
    for (_, params, dbody), nn in zip(defs, names):
        env3, new_params = env, []
        for prm in params:
            nprm, env3 = _bind(prm, env3, counter)
            new_params.append(nprm)
        texts.append(f"{nn}({', '.join(new_params)}) = "
                     f"{_canon_text(dbody, env3, counter, holes)}")
    return f"def {', '.join(texts)} in ", env


def _flatten_sum(p: t.Process) -> list:
    if isinstance(p, t.Sum):
        return _flatten_sum(p.left) + _flatten_sum(p.right)
    return [p]


def render_process(p: t.Process) -> str:
    """``p`` as written: its binders' names and its sum order kept."""
    return _canon_text(p, _NO_BINDERS, None)


def canon_process(p: t.Process) -> str:
    """Canonical text of a process: equal exactly for alpha-equivalent
    processes."""
    return _canon_text(p, {}, [0])


# A process's template is its canonical text with every name ``n`` written
# as the hole ``\0n\0``, filled under a renaming of its names.  The memo
# keys follow Maziarz et al., "Hashing Modulo Alpha-Equivalence" (PLDI
# 2021): a term's template depends on its structure, and names enter only
# through the fill.

def _checked(text: str, holes: _Holes) -> Optional[str]:
    """``text`` when it holds exactly the hole marks its holes made; None
    when it holds more (a string value holding one)."""
    return text if text.count(_HOLE) == 2 * holes.count else None


@lru_cache(maxsize=256)
def _defs_block(defs: tuple) -> Optional[tuple]:
    """Template of the canonical ``def ... in `` text of a top-level
    definitions block, with the binder map and counter it hands to the body;
    None when it has no exact template."""
    holes, counter = _Holes(), [0]
    try:
        text, env = _canon_defs(defs, {}, counter, holes)
    except _NameOrder:
        return None
    text = _checked(text, holes)
    return None if text is None else (text, env, counter[0])


@lru_cache(maxsize=2048)
def process_template(p: t.Process) -> Optional[tuple]:
    """Template of the canonical rendering of ``p``, split at the holes (the
    names at the odd indices), and its names; the definitions block's part
    is made once per block.  None when ``p`` has no exact template: a sum's
    order depends on its names, or a string value holds a hole mark."""
    if type(p) is t.Defs:
        block = _defs_block(p.defs)
        if block is None:
            return None
        head, env, n = block
        canon, body = _canon_body, p.body
    else:
        head, env, n, canon, body = "", _NO_BINDERS, 0, _canon_text, p
    holes = _Holes(env)
    try:
        text = _checked(canon(body, env, [n], holes), holes)
    except _NameOrder:
        return None
    if text is None:
        return None
    parts = tuple((head + text).split(_HOLE))
    return parts, frozenset(parts[1::2])


def canon_renamed(p: t.Process, ren: dict) -> str:
    """Canonical text of ``p`` with its names renamed by ``ren``: its
    template filled, or, without one, ``p`` renamed and canonicalised."""
    if (tpl := process_template(p)) is None:
        return canon_process(t.rename_node_sessions(t.NetworkNode(p, ()), ren).process)
    parts = list(tpl[0])
    parts[1::2] = map(ren.get, parts[1::2], parts[1::2])
    return "".join(parts)


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
