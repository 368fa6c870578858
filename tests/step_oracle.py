"""``enabled_redexes``, ``apply_redex`` and ``redex_payload`` as they were
before each node's redex facts were cached, kept verbatim as a differential
oracle: they rebuild every node's alternatives and buffer map on every call.
Only the imports are new; ``alternatives``, ``Redex``, ``RunState`` and the
gather helpers come from the package."""

from __future__ import annotations

from typing import Optional

from ubsc import terms as t
from ubsc import values as v
from ubsc.engine import (EngineError, Redex, RunState, alternatives, gather_values,
                         residual)
from ubsc.render import render_msg, render_value


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
