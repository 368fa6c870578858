"""Small-step reduction engine.

The working representation of a run keeps the node list in a fixed order so
node indices are stable identities for traces and replay scripts; congruence
normalisation and digests are computed on demand from the assembled term.

Structural congruence is realised by :func:`normalize` (flatten, hoist
restrictions, drop unit nodes, sort deterministically) together with
alpha-canonicalisation for digest comparison.  Sum alternatives and
definition unfolding are resolved at redex discovery.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from . import terms as t
from . import values as v
from .render import render_msg, render_network, render_process, render_value


class EngineError(Exception):
    pass


# ------------------------------------------------------------- gather/residual

def gather_values(queue, c: int) -> v.Value:
    """Aggregation of all payloads tagged with state ``c``, in queue order,
    seeded with the unit value."""
    out: v.Value = v.UNIT
    for m in queue:
        if m.tag == c:
            out = v.aggregate(out, m.value)
    return out


def residual(queue, c: int):
    """The queue with every state-``c`` entry removed, order preserved."""
    return tuple(m for m in queue if m.tag != c)


# ------------------------------------------------------------- recovery encoding

def encode_recovery(p: t.Process, handler: Optional[t.Process] = None) -> t.Process:
    """Eliminate recovery terms: receives gain the unit test, branches gain
    the handler as default arm, definitions are wrapped inside and out, and
    the inactive process and calls erase the handler."""
    match p:
        case t.Recover(body, h):
            return encode_recovery(body, encode_recovery(h, handler))
        case t.Recv(ch, x, d, body) if handler is not None:
            inner = encode_recovery(body, handler)
            guard = v.BinOp("!=", v.Var(x), v.Lit(v.UNIT))
            return t.Recv(ch, x, d, t.Cond(guard, inner, handler))
        case t.Branch(ch, arms, _) if handler is not None:
            return t.Branch(
                ch,
                tuple((l, encode_recovery(ap, handler)) for l, ap in arms),
                handler,
            )
    chans, exprs, kids = t.layer(p)
    return t.rebuild(p, chans, exprs, [encode_recovery(k, handler) for _, k in kids])


def encode_network(n: t.Network) -> t.Network:
    return t.map_nodes(n, lambda nd: t.NetworkNode(encode_recovery(nd.process),
                                                   nd.buffers, pos=nd.pos))


def has_recover(p: t.Process) -> bool:
    return type(p) is t.Recover or any(has_recover(k) for _, k in t.layer(p)[2])


# ------------------------------------------------------------- canonical form

_CANON_BASE = 10_000  # throwaway numbering base for order keys


def _canon_process(p: t.Process, env: dict, counter: list) -> t.Process:
    """Rename binders to sequential canonical names; sort sum alternatives by
    an alpha-invariant key."""

    def bind(name: str, env: dict) -> tuple:
        idx = counter[0]
        counter[0] += 1
        new = f"v{idx}"
        env2 = dict(env)
        env2[name] = new
        return new, env2

    def on_chan(ch: t.Chan, env: dict) -> t.Chan:
        if isinstance(ch, t.ChanVar) and ch.name in env:
            return t.ChanVar(env[ch.name], ch.aggr)
        return ch

    def on_expr(e: v.Expr, env: dict) -> v.Expr:
        match e:
            case v.Var(x):
                return v.Var(env.get(x, x))
            case v.Lit():
                return e
            case v.BinOp(op, l, r):
                return v.BinOp(op, on_expr(l, env), on_expr(r, env))
            case v.TupleE(a, b):
                return v.TupleE(on_expr(a, env), on_expr(b, env))
            case v.SetE(items):
                return v.SetE(tuple(on_expr(i, env) for i in items))
            case v.Builtin(f, args):
                return v.Builtin(f, tuple(on_expr(a, env) for a in args))
        raise TypeError(f"not an expression: {e!r}")

    match p:
        case t.Inact():
            return p
        case t.Request(a, x, body):
            nx, env2 = bind(x, env)
            return t.Request(a, nx, _canon_process(body, env2, counter))
        case t.Accept(a, x, body):
            nx, env2 = bind(x, env)
            return t.Accept(a, nx, _canon_process(body, env2, counter))
        case t.Send(ch, e, body):
            return t.Send(on_chan(ch, env), on_expr(e, env),
                          _canon_process(body, env, counter))
        case t.Recv(ch, x, d, body):
            d2 = on_expr(d, env)
            nx, env2 = bind(x, env)
            return t.Recv(on_chan(ch, env), nx, d2, _canon_process(body, env2, counter))
        case t.Select(ch, l, body):
            return t.Select(on_chan(ch, env), l, _canon_process(body, env, counter))
        case t.Branch(ch, arms, df):
            return t.Branch(
                on_chan(ch, env),
                tuple((l, _canon_process(ap, env, counter)) for l, ap in arms),
                _canon_process(df, env, counter),
            )
        case t.Sum():
            alts = _flatten_sum(p)
            keyed = []
            for alt in alts:
                key = render_process(_canon_process(alt, env, [_CANON_BASE]))
                keyed.append((key, alt))
            keyed.sort(key=lambda kv: kv[0])
            out = [_canon_process(alt, env, counter) for _, alt in keyed]
            res = out[-1]
            for q in reversed(out[:-1]):
                res = t.Sum(q, res)
            return res
        case t.Cond(g, a, b):
            return t.Cond(on_expr(g, env), _canon_process(a, env, counter),
                          _canon_process(b, env, counter))
        case t.Defs(defs, body):
            env2 = dict(env)
            names = []
            for n, _, _ in defs:
                idx = counter[0]
                counter[0] += 1
                env2[n] = f"d{idx}"
                names.append(env2[n])
            new_defs = []
            for (n, params, dbody), nn in zip(defs, names):
                env3 = dict(env2)
                new_params = []
                for prm in params:
                    idx = counter[0]
                    counter[0] += 1
                    env3[prm] = f"v{idx}"
                    new_params.append(env3[prm])
                new_defs.append((nn, tuple(new_params), _canon_process(dbody, env3, counter)))
            return t.Defs(tuple(new_defs), _canon_process(body, env2, counter))
        case t.Call(name, args):
            new_args = tuple(
                on_chan(a, env) if isinstance(a, (t.Endpoint, t.ChanVar)) else on_expr(a, env)
                for a in args
            )
            return t.Call(env.get(name, name), new_args)
        case t.Recover(b, h):
            return t.Recover(_canon_process(b, env, counter),
                             _canon_process(h, env, counter))
    raise TypeError(f"not a process: {p!r}")


def _flatten_sum(p: t.Process) -> list:
    if isinstance(p, t.Sum):
        return _flatten_sum(p.left) + _flatten_sum(p.right)
    return [p]


def canon_process(p: t.Process) -> t.Process:
    return _canon_process(p, {}, [0])


def _canon_node(n: t.NetworkNode) -> t.NetworkNode:
    bufs = sorted(n.buffers, key=lambda b: (b.ep.session, b.ep.aggr))
    return t.NetworkNode(canon_process(n.process), tuple(bufs))


@lru_cache(maxsize=65536)
def _node_names(node: t.NetworkNode) -> frozenset:
    sessions, shared, _ = t.process_facts(node.process)
    return sessions.union(shared, (b.ep.session for b in node.buffers))


@lru_cache(maxsize=65536)
def _node_render(node: t.NetworkNode, ren_items: tuple) -> str:
    nd = t.rename_node_sessions(node, dict(ren_items))
    return render_network(_canon_node(nd))


def _rel(node: t.NetworkNode, mapping: dict) -> tuple:
    names = _node_names(node)
    return tuple(sorted((k, v) for k, v in mapping.items() if k in names))


def normalize(n: t.Network) -> t.Network:
    """Congruence normal form: restrictions hoisted, parallel flattened and
    deterministically sorted, unit nodes and dead restrictions dropped,
    buffers and sums ordered."""
    restricted, nodes = t.flatten_nodes(n)
    kept = [nd for nd in nodes if not (isinstance(nd.process, t.Inact) and not nd.buffers)]
    if not kept:
        kept = [t.NetworkNode(t.Inact(), ())]
    keyed = sorted(kept, key=lambda nd: _node_render(nd, ()))
    live = set()
    for nd in keyed:
        live |= _node_names(nd)
    names = [r for r in restricted if r in live]
    return t.restrict_all(names, t.par_all(keyed))


def canonical_text(restricted, nodes) -> str:
    """Alpha-canonical rendering of a flattened network: unit nodes and dead
    restrictions dropped, nodes sorted by a name-insensitive key, restricted
    names assigned canonically by first appearance (iterated to a fixpoint so
    the result does not depend on the input naming)."""
    kept = [nd for nd in nodes
            if not (isinstance(nd.process, t.Inact) and not nd.buffers)]
    if not kept:
        kept = [t.NetworkNode(t.Inact(), ())]
    live = frozenset().union(*[_node_names(nd) for nd in kept])
    rset = frozenset(restricted) & live
    mask = {s: "?" for s in rset}
    order = sorted(kept, key=lambda nd: (_node_render(nd, _rel(nd, mask)),
                                         _node_render(nd, ())))
    texts: list = []
    assigned: dict = {}
    for _ in range(4):
        assigned = {}
        for nd in order:
            for b in sorted(nd.buffers, key=lambda b: (b.ep.session, b.ep.aggr)):
                if b.ep.session in rset and b.ep.session not in assigned:
                    assigned[b.ep.session] = f"r{len(assigned)}"
            for s in sorted(_node_names(nd)):
                if s in rset and s not in assigned:
                    assigned[s] = f"r{len(assigned)}"
        texts = [_node_render(nd, _rel(nd, assigned)) for nd in order]
        perm = sorted(range(len(order)), key=lambda i: texts[i])
        if perm == list(range(len(order))):
            break
        order = [order[i] for i in perm]
    texts.sort()
    body = " || ".join(texts)
    names = sorted(assigned.values(), key=lambda s: int(s[1:]))
    if names and len(texts) > 1:
        body = f"({body})"
    for nm in reversed(names):
        body = f"new {nm}. {body}"
    return body


def canonical_render(n: t.Network) -> str:
    restricted, nodes = t.flatten_nodes(n)
    return canonical_text(restricted, nodes)


def digest(n: t.Network) -> str:
    return hashlib.sha256(canonical_render(n).encode("utf-8")).hexdigest()[:16]


def networks_equivalent(a: t.Network, b: t.Network) -> bool:
    return canonical_render(a) == canonical_render(b)


# ------------------------------------------------------------- run state

@dataclass(frozen=True)
class RunState:
    restricted: tuple
    nodes: tuple
    fresh: int = 0

    def to_network(self) -> t.Network:
        return t.restrict_all(self.restricted, t.par_all(self.nodes))

    def digest(self) -> str:
        text = canonical_text(self.restricted, self.nodes)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    @staticmethod
    def from_network(n: t.Network) -> "RunState":
        restricted, nodes = t.flatten_nodes(n)
        return RunState(tuple(restricted), tuple(nodes), 0)


# ------------------------------------------------------------- alternatives

_MAX_UNFOLD = 16


@lru_cache(maxsize=65536)
def alternatives(p: t.Process) -> tuple:
    return tuple(_alternatives(p))


def _alternatives(p: t.Process) -> list:
    """Head alternatives of a process: (head, rebuild) pairs where rebuild
    reinstates the surrounding definition context around a reduced head.
    Sum alternatives discard the other summands; calls unfold through their
    definition context."""
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
            case t.Call():
                if depth >= _MAX_UNFOLD:
                    return
                unfolded = t.unfold_call(p, defs_env)
                if unfolded is not None:  # else a stuck call
                    go(unfolded, defs_env, rebuild, depth + 1)
            case _:
                out.append((p, rebuild))

    go(p, (), lambda x: x, 0)
    return out


# ------------------------------------------------------------- redexes

RECOVERY_RULES = ("Rec", "BRec", "Loss")
BROADCAST_RULES = ("Conn", "Bcast", "Sel")


@dataclass(frozen=True)
class Redex:
    rule: str
    session: str  # session name, or shared name for Conn
    sender: int  # acting node index
    receivers: tuple = ()  # eligible receiver node indices (Conn/Bcast/Sel)
    alt: int = 0  # alternative index within the acting node
    detail: tuple = ()  # rule-specific payload

    def key(self):
        return (self.rule, self.session, self.sender, self.alt, self.detail, self.receivers)


def _buffer_map(node: t.NetworkNode) -> dict:
    return {b.ep: b for b in node.buffers}


def _node_alternatives(state: RunState, i: int) -> list:
    return alternatives(state.nodes[i].process)


def enabled_redexes(state: RunState) -> list:
    """Complete enumeration of enabled redexes, deterministically ordered.
    Requires a recovery-free (encoded) network."""
    out: list = []
    nodes = state.nodes
    node_alts = [(i, _node_alternatives(state, i)) for i in range(len(nodes))]
    buf_maps = [_buffer_map(nd) for nd in nodes]

    # accept alternatives per node per shared name
    accepts: dict = {}
    for i, alts in node_alts:
        for ai, (head, _) in enumerate(alts):
            if isinstance(head, t.Accept):
                accepts.setdefault(head.shared, {}).setdefault(i, []).append(ai)

    for i, alts in node_alts:
        bufs = buf_maps[i]
        for ai, (head, _) in enumerate(alts):
            match head:
                case t.Request(a, _, _):
                    eligible = tuple(sorted(j for j in accepts.get(a, {}) if j != i))
                    out.append(Redex("Conn", a, i, eligible, ai))
                case t.Send(t.Endpoint(s, True) as ep, _, _):
                    if ep in bufs:
                        c = bufs[ep].state
                        rec = tuple(
                            j for j in range(len(nodes))
                            if j != i and buf_maps[j].get(t.Endpoint(s, False), None) is not None
                            and buf_maps[j][t.Endpoint(s, False)].state == c
                        )
                        out.append(Redex("Bcast", s, i, rec, ai))
                case t.Send(t.Endpoint(s, False) as ep, _, _):
                    if ep in bufs:
                        c1 = bufs[ep].state
                        for j in range(len(nodes)):
                            if j == i:
                                continue
                            ab = buf_maps[j].get(t.Endpoint(s, True))
                            if ab is not None and c1 >= ab.state:
                                out.append(Redex("Ucast", s, i, (j,), ai))
                        out.append(Redex("Loss", s, i, (), ai))
                case t.Recv(t.Endpoint(s, False) as ep, _, _, _):
                    if ep in bufs:
                        q = bufs[ep].queue
                        if q and isinstance(q[0], t.ValMsg):
                            out.append(Redex("Rcv", s, i, (), ai))
                        elif not q:
                            out.append(Redex("Rec", s, i, (), ai))
                case t.Recv(t.Endpoint(s, True) as ep, _, _, _):
                    if ep in bufs:
                        out.append(Redex("Gthr", s, i, (), ai))
                case t.Select(t.Endpoint(s, True) as ep, label, _):
                    if ep in bufs:
                        c = bufs[ep].state
                        rec = tuple(
                            j for j in range(len(nodes))
                            if j != i and buf_maps[j].get(t.Endpoint(s, False)) is not None
                            and buf_maps[j][t.Endpoint(s, False)].state == c
                        )
                        out.append(Redex("Sel", s, i, rec, ai, (label,)))
                case t.Branch(t.Endpoint(s, False) as ep, arms, _):
                    if ep in bufs:
                        q = bufs[ep].queue
                        labels = dict(arms)
                        if q and isinstance(q[0], t.LabMsg) and q[0].label in labels:
                            out.append(Redex("Bra", s, i, (), ai, (q[0].label,)))
                        elif not q:
                            df = head.default_arm
                            needed = t.process_sessions(df)
                            have = {b.ep.session for b in nodes[i].buffers if b.ep != ep}
                            if needed <= have:
                                out.append(Redex("BRec", s, i, (), ai))
                case t.Cond(g, tp, ep_):
                    try:
                        taken = tp if v.truth(g, {}) else ep_
                        rule = "True" if taken is tp else "False"
                    except v.EvalError:
                        continue
                    needed = t.process_sessions(taken)
                    have = {b.ep.session for b in nodes[i].buffers}
                    if needed <= have:
                        out.append(Redex(rule, "-", i, (), ai))
                case _:
                    pass
    out.sort(key=Redex.key)
    return out


# ------------------------------------------------------------- rule application

def _replace_node(nodes: tuple, i: int, node: t.NetworkNode) -> tuple:
    lst = list(nodes)
    lst[i] = node
    return tuple(lst)


def _set_buffer(node: t.NetworkNode, buf: t.Buffer) -> t.NetworkNode:
    bufs = tuple(b if b.ep != buf.ep else buf for b in node.buffers)
    return t.NetworkNode(node.process, bufs, pos=node.pos)


def _add_buffer(node: t.NetworkNode, buf: t.Buffer) -> t.NetworkNode:
    return t.NetworkNode(node.process, node.buffers + (buf,), pos=node.pos)


def _drop_buffers(node: t.NetworkNode, keep_sessions: set) -> t.NetworkNode:
    """Drop plain buffers whose session the continuation no longer uses.
    Aggregator buffers are always retained: typed processes may only discard
    plain endpoints, and keeping the unique aggregator side preserves typing
    of the surrounding restriction."""
    bufs = tuple(b for b in node.buffers if b.ep.aggr or b.ep.session in keep_sessions)
    return t.NetworkNode(node.process, bufs, pos=node.pos)


def apply_redex(state: RunState, r: Redex, chosen: Optional[tuple] = None,
                accept_choice: Optional[dict] = None) -> RunState:
    """Apply ``r`` with the chosen receiver subset (defaults to the full
    eligible family).  ``accept_choice`` optionally picks an accept
    alternative per receiver node for Conn."""
    nodes = state.nodes
    chosen = tuple(sorted(r.receivers if chosen is None else chosen))
    if not set(chosen) <= set(r.receivers):
        raise EngineError("chosen receivers outside the eligible family")
    alts = _node_alternatives(state, r.sender)
    if r.alt >= len(alts):
        raise EngineError("stale alternative index")
    head, rebuild = alts[r.alt]
    node = nodes[r.sender]
    bufs = _buffer_map(node)

    if r.rule == "Conn":
        assert isinstance(head, t.Request)
        sname = f"s#{state.fresh}"
        new_nodes = list(nodes)
        body = t.subst_channel(head.body, head.bind, t.Endpoint(sname, True))
        new_nodes[r.sender] = _add_buffer(
            t.NetworkNode(rebuild(body), node.buffers, pos=node.pos),
            t.Buffer(t.Endpoint(sname, True), 0, ()),
        )
        for j in chosen:
            j_alts = _node_alternatives(state, j)
            cand = [ai for ai, (h, _) in enumerate(j_alts)
                    if isinstance(h, t.Accept) and h.shared == head.shared]
            if not cand:
                raise EngineError(f"node {j} has no accept alternative on {head.shared}")
            ai = (accept_choice or {}).get(j, cand[0])
            h, rb = j_alts[ai]
            jbody = t.subst_channel(h.body, h.bind, t.Endpoint(sname, False))
            jnode = nodes[j]
            new_nodes[j] = _add_buffer(
                t.NetworkNode(rb(jbody), jnode.buffers, pos=jnode.pos),
                t.Buffer(t.Endpoint(sname, False), 0, ()),
            )
        return RunState(state.restricted + (sname,), tuple(new_nodes), state.fresh + 1)

    if r.rule == "Bcast":
        assert isinstance(head, t.Send)
        ep = head.chan
        own = bufs[ep]
        payload = v.eval_expr(head.expr, {})
        new_nodes = list(nodes)
        new_nodes[r.sender] = _set_buffer(
            t.NetworkNode(rebuild(head.body), node.buffers, pos=node.pos),
            t.Buffer(ep, own.state + 1, own.queue),
        )
        for j in chosen:
            jb = _buffer_map(nodes[j])[t.Endpoint(r.session, False)]
            new_nodes[j] = _set_buffer(
                nodes[j], t.Buffer(jb.ep, jb.state + 1, jb.queue + (t.ValMsg(payload),))
            )
        return RunState(state.restricted, tuple(new_nodes), state.fresh)

    if r.rule == "Sel":
        assert isinstance(head, t.Select)
        ep = head.chan
        own = bufs[ep]
        new_nodes = list(nodes)
        new_nodes[r.sender] = _set_buffer(
            t.NetworkNode(rebuild(head.body), node.buffers, pos=node.pos),
            t.Buffer(ep, own.state + 1, own.queue),
        )
        for j in chosen:
            jb = _buffer_map(nodes[j])[t.Endpoint(r.session, False)]
            new_nodes[j] = _set_buffer(
                nodes[j], t.Buffer(jb.ep, jb.state + 1, jb.queue + (t.LabMsg(head.label),))
            )
        return RunState(state.restricted, tuple(new_nodes), state.fresh)

    if r.rule == "Ucast":
        assert isinstance(head, t.Send)
        ep = head.chan
        own = bufs[ep]
        (j,) = r.receivers
        payload = v.eval_expr(head.expr, {})
        new_nodes = list(nodes)
        new_nodes[r.sender] = _set_buffer(
            t.NetworkNode(rebuild(head.body), node.buffers, pos=node.pos),
            t.Buffer(ep, own.state + 1, own.queue),
        )
        jb = _buffer_map(nodes[j])[t.Endpoint(r.session, True)]
        new_nodes[j] = _set_buffer(
            nodes[j],
            t.Buffer(jb.ep, jb.state, jb.queue + (t.TaggedMsg(own.state, payload),)),
        )
        return RunState(state.restricted, tuple(new_nodes), state.fresh)

    if r.rule == "Rcv":
        assert isinstance(head, t.Recv)
        own = bufs[head.chan]
        msg = own.queue[0]
        assert isinstance(msg, t.ValMsg)
        body = t.subst_value(head.body, head.bind, msg.value)
        new_node = _set_buffer(
            t.NetworkNode(rebuild(body), node.buffers, pos=node.pos),
            t.Buffer(own.ep, own.state, own.queue[1:]),
        )
        return RunState(state.restricted, _replace_node(nodes, r.sender, new_node), state.fresh)

    if r.rule == "Gthr":
        assert isinstance(head, t.Recv)
        own = bufs[head.chan]
        value = gather_values(own.queue, own.state)
        body = t.subst_value(head.body, head.bind, value)
        new_node = _set_buffer(
            t.NetworkNode(rebuild(body), node.buffers, pos=node.pos),
            t.Buffer(own.ep, own.state + 1, residual(own.queue, own.state)),
        )
        return RunState(state.restricted, _replace_node(nodes, r.sender, new_node), state.fresh)

    if r.rule == "Bra":
        assert isinstance(head, t.Branch)
        own = bufs[head.chan]
        msg = own.queue[0]
        assert isinstance(msg, t.LabMsg)
        body = dict(head.arms)[msg.label]
        new_node = _set_buffer(
            t.NetworkNode(rebuild(body), node.buffers, pos=node.pos),
            t.Buffer(own.ep, own.state, own.queue[1:]),
        )
        return RunState(state.restricted, _replace_node(nodes, r.sender, new_node), state.fresh)

    if r.rule == "Rec":
        assert isinstance(head, t.Recv)
        own = bufs[head.chan]
        value = v.eval_expr(head.default, {})
        body = t.subst_value(head.body, head.bind, value)
        new_node = _set_buffer(
            t.NetworkNode(rebuild(body), node.buffers, pos=node.pos),
            t.Buffer(own.ep, own.state + 1, ()),
        )
        return RunState(state.restricted, _replace_node(nodes, r.sender, new_node), state.fresh)

    if r.rule == "BRec":
        assert isinstance(head, t.Branch)
        own = bufs[head.chan]
        body = rebuild(head.default_arm)
        keep = t.process_sessions(body)
        new_node = _drop_buffers(
            t.NetworkNode(body, tuple(b for b in node.buffers if b.ep != own.ep),
                          pos=node.pos),
            keep,
        )
        return RunState(state.restricted, _replace_node(nodes, r.sender, new_node), state.fresh)

    if r.rule == "Loss":
        assert isinstance(head, t.Send)
        own = bufs[head.chan]
        new_node = _set_buffer(
            t.NetworkNode(rebuild(head.body), node.buffers, pos=node.pos),
            t.Buffer(own.ep, own.state + 1, own.queue),
        )
        return RunState(state.restricted, _replace_node(nodes, r.sender, new_node), state.fresh)

    if r.rule in ("True", "False"):
        assert isinstance(head, t.Cond)
        taken = head.then_p if r.rule == "True" else head.else_p
        body = rebuild(taken)
        keep = t.process_sessions(body)
        new_node = _drop_buffers(
            t.NetworkNode(body, node.buffers, pos=node.pos), keep
        )
        return RunState(state.restricted, _replace_node(nodes, r.sender, new_node), state.fresh)

    raise EngineError(f"unknown rule {r.rule}")


def redex_payload(state: RunState, r: Redex) -> Optional[str]:
    """Rendered payload carried by the step (for traces)."""
    alts = _node_alternatives(state, r.sender)
    head, _ = alts[r.alt]
    node = state.nodes[r.sender]
    bufs = _buffer_map(node)
    match r.rule:
        case "Bcast" | "Ucast":
            return render_value(v.eval_expr(head.expr, {}))
        case "Sel" | "Bra":
            return r.detail[0]
        case "Rcv":
            return render_msg(bufs[head.chan].queue[0])
        case "Gthr":
            b = bufs[head.chan]
            return render_value(gather_values(b.queue, b.state))
        case "Rec":
            return render_value(v.eval_expr(head.default, {}))
    return None


# ------------------------------------------------------------- scheduler

@dataclass(frozen=True)
class SchedulerConfig:
    seed: int = 0
    loss_rate: float = 0.1
    recovery_bias: float = 0.2
    max_steps: int = 1000

    def __post_init__(self):
        if not (0.0 <= self.loss_rate <= 1.0 and 0.0 <= self.recovery_bias <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class TraceStep:
    index: int
    rule: str
    session: str
    sender: int
    receivers: tuple
    payload: Optional[str]
    digest: str
    network: Optional[str] = None

    def to_json(self) -> dict:
        out = {
            "kind": "step",
            "step": self.index,
            "rule": self.rule,
            "session": self.session,
            "sender": self.sender,
            "receivers": list(self.receivers),
            "payload": self.payload,
            "digest": self.digest,
        }
        if self.network is not None:
            out["network"] = self.network
        return out


@dataclass
class Trace:
    config: SchedulerConfig
    initial_digest: str
    steps: list = field(default_factory=list)
    final: Optional[RunState] = None

    def header_json(self) -> dict:
        return {
            "kind": "header",
            "seed": self.config.seed,
            "loss_rate": self.config.loss_rate,
            "recovery_bias": self.config.recovery_bias,
            "max_steps": self.config.max_steps,
            "initial_digest": self.initial_digest,
        }

    def to_jsonl(self) -> str:
        lines = [json.dumps(self.header_json(), sort_keys=True)]
        lines.extend(json.dumps(s.to_json(), sort_keys=True) for s in self.steps)
        return "\n".join(lines) + "\n"


def resolve_script_step(state: RunState, spec: dict) -> tuple:
    """Match a schedule-script entry against the enabled redexes.  Matching
    fields: rule (required), sender, session, label.  ``receivers`` limits
    the chosen subset (defaults to the full eligible family)."""
    cands = []
    for r in enabled_redexes(state):
        if r.rule != spec["rule"]:
            continue
        if "sender" in spec and r.sender != spec["sender"]:
            continue
        if "session" in spec and r.session != spec["session"]:
            continue
        if "label" in spec and (not r.detail or r.detail[0] != spec["label"]):
            continue
        cands.append(r)
    if not cands:
        raise EngineError(f"no enabled redex matches {spec}")
    if len(cands) > 1 and "index" not in spec:
        raise EngineError(f"ambiguous script step {spec}: {len(cands)} matches")
    r = cands[spec.get("index", 0)]
    chosen = tuple(spec["receivers"]) if "receivers" in spec else r.receivers
    return r, chosen


def run_script(network: t.Network, steps: list, encode: bool = True) -> tuple:
    """Apply an explicit schedule; returns (final state, digest per step)."""
    net = encode_network(network) if encode else network
    state = RunState.from_network(net)
    digests = []
    for spec in steps:
        r, chosen = resolve_script_step(state, spec)
        state = apply_redex(state, r, chosen)
        digests.append(state.digest())
    return state, digests


def pick_redex(redexes: list, rng: random.Random, loss_rate: float,
               recovery_bias: float) -> tuple:
    """The scheduler's pick policy; returns (redex, chosen receivers).  The
    enabled redexes are partitioned into recovery and communication
    families; the family is picked by the recovery bias when both are
    non-empty, the member uniformly, and each eligible broadcast receiver
    joins independently with probability 1 - loss_rate."""
    recov = [r for r in redexes if r.rule in RECOVERY_RULES]
    other = [r for r in redexes if r.rule not in RECOVERY_RULES]
    if recov and other:
        pool = recov if rng.random() < recovery_bias else other
    else:
        pool = recov or other
    r = pool[rng.randrange(len(pool))]
    if r.rule in BROADCAST_RULES:
        return r, tuple(j for j in r.receivers if rng.random() >= loss_rate)
    return r, r.receivers


def run_scheduler(network: t.Network, cfg: SchedulerConfig,
                  on_step: Optional[Callable] = None,
                  digests: bool = True, networks: bool = False) -> Trace:
    """Deterministic seeded run, each step drawn by :func:`pick_redex`.
    ``digests=False`` skips digest computation (the schedule is unaffected);
    used for fast seed sweeps."""
    state = RunState.from_network(encode_network(network))
    rng = random.Random(cfg.seed)
    trace = Trace(cfg, state.digest() if digests else "")
    for i in range(cfg.max_steps):
        redexes = enabled_redexes(state)
        if not redexes:
            break
        r, chosen = pick_redex(redexes, rng, cfg.loss_rate, cfg.recovery_bias)
        payload = redex_payload(state, r)
        state = apply_redex(state, r, chosen)
        step = TraceStep(i, r.rule, r.session, r.sender, chosen, payload,
                         state.digest() if digests else "",
                         render_network(normalize(state.to_network()))
                         if networks else None)
        trace.steps.append(step)
        if on_step is not None:
            on_step(state, step)
    trace.final = state
    return trace
