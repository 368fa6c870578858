"""The process printer as it was before it became the canonical walk run
with binders and sum order as written, kept verbatim as a differential
oracle: ``render_process`` and ``_body`` write each constructor by hand,
and ``render_node`` and ``render_network`` are built on them.  Only the
imports are new, and a payload or default printed at the level of ``+``
by ``render_expr``, which ``render.render_operand`` once wrapped."""

from __future__ import annotations

from ubsc import terms as t
from ubsc import values as v
from ubsc.render import render_buffer, render_chan, render_expr


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
            return f"{render_chan(ch)}!<{render_expr(e, v.OP_LEVEL['+'])}>. {_body(body)}"
        case t.Recv(ch, x, d, body):
            dflt = "" if d == v.Lit(v.UNIT) else f" def {render_expr(d, v.OP_LEVEL['+'])}"
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


def render_node(n: t.NetworkNode) -> str:
    parts = [render_process(n.process)] + [render_buffer(b) for b in n.buffers]
    return "[ " + " | ".join(parts) + " ]"


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
