"""Pretty-printing for every syntax category.

The output of every render function reparses to an alpha-equivalent term;
the canonicaliser relies on this being deterministic.
"""

from __future__ import annotations

from . import sestypes as st
from . import terms as t
from . import values as v

# expression precedence levels (higher binds tighter)
_LVL_OR, _LVL_AND, _LVL_CMP, _LVL_ADD, _LVL_MUL, _LVL_ATOM = range(6)
_OP_LEVEL = {
    "or": _LVL_OR,
    "and": _LVL_AND,
    "=": _LVL_CMP, "!=": _LVL_CMP, "<": _LVL_CMP, ">": _LVL_CMP,
    "<=": _LVL_CMP, ">=": _LVL_CMP,
    "+": _LVL_ADD, "-": _LVL_ADD, "union": _LVL_ADD,
    "*": _LVL_MUL,
}


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


def render_expr(e: v.Expr, level: int = _LVL_OR) -> str:
    """``e`` as text, in parentheses when it binds more loosely than
    ``level``."""
    s = _expr_text(e)
    if type(e) is v.BinOp and _OP_LEVEL[e.op] < level:
        return f"({s})"
    return s


def render_operand(e: v.Expr) -> str:
    """An expression where a send's payload or a receive's default sits."""
    return render_expr(e, _LVL_ADD)


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
            lvl = _OP_LEVEL[op]
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


def _body(p: t.Process) -> str:
    s = render_process(p)
    if isinstance(p, (t.Sum, t.Recover)):
        return f"({s})"
    return s


def render_process(p: t.Process) -> str:
    match p:
        case t.Inact():
            return "0"
        case t.Request(a, x, body):
            return f"req {a}(*{x}). {_body(body)}"
        case t.Accept(a, x, body):
            return f"acc {a}({x}). {_body(body)}"
        case t.Send(ch, e, body):
            return f"{render_chan(ch)}!<{render_operand(e)}>. {_body(body)}"
        case t.Recv(ch, x, d, body):
            dflt = "" if d == v.Lit(v.UNIT) else f" def {render_operand(d)}"
            return f"{render_chan(ch)}?({x}){dflt}. {_body(body)}"
        case t.Select(ch, l, body):
            return f"{render_chan(ch)}<<{l}. {_body(body)}"
        case t.Branch(ch, arms, default_arm):
            inner = ", ".join(f"{l}: {render_process(ap)}" for l, ap in arms)
            return f"{render_chan(ch)}>>{{{inner}, df: {render_process(default_arm)}}}"
        case t.Sum(l, r):
            ls = render_process(l)
            if isinstance(l, t.Recover):
                ls = f"({ls})"
            rs = render_process(r)
            if isinstance(r, (t.Sum, t.Recover)):
                rs = f"({rs})"
            return f"{ls} + {rs}"
        case t.Cond(g, tp, ep):
            return f"if {render_expr(g)} then {_body(tp)} else {_body(ep)}"
        case t.Defs(defs, body):
            ds = ", ".join(
                f"{n}({', '.join(params)}) = {render_process(b)}" for n, params, b in defs
            )
            return f"def {ds} in {_body(body)}"
        case t.Call(name, args):
            parts = []
            for a in args:
                if isinstance(a, (t.Endpoint, t.ChanVar)):
                    parts.append(render_chan(a))
                else:
                    parts.append(render_expr(a))
            return f"{name}(" + ", ".join(parts) + ")"
        case t.Recover(body, handler):
            bs = render_process(body)
            if isinstance(body, t.Sum):
                bs = f"({bs})"
            hs = render_process(handler)
            if isinstance(handler, (t.Sum, t.Recover)):
                hs = f"({hs})"
            return f"{bs} >r {hs}"
    raise TypeError(f"not a process: {p!r}")


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
        case t.Par(l, r):
            return f"{render_network(l)} || {render_network(r)}"
        case t.Restrict(name, body):
            inner = render_network(body)
            if isinstance(body, t.Par):
                inner = f"({inner})"
            return f"new {name}. {inner}"
    raise TypeError(f"not a network: {n!r}")


def render_stated_context(ctx: dict) -> str:
    """Linear contexts with state counters, deterministically ordered."""
    items = sorted(ctx.items(), key=lambda kv: (kv[0].session, not kv[0].aggr))
    return ", ".join(
        f"{render_chan(ep)}: ({c}, {render_type(ty)})" for ep, (c, ty) in items
    )
