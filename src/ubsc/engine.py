"""Small-step reduction engine.

The working representation of a run keeps its restricted names and its node
list in a fixed order so node indices are stable identities for traces and
replay scripts; its network is one restriction over one parallel
composition, carrying those parts, and digests are computed on demand from
the parts.

Structural congruence is realised by :func:`normalize` (flatten, hoist
restrictions, drop unit nodes, sort deterministically, and carry the parts
on the result) together with alpha-canonicalisation for digest comparison.
Sum alternatives and definition unfolding are resolved at redex discovery.
"""

from __future__ import annotations

import hashlib
import json
import random
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _esc  # the escaper of json.dumps
from operator import add, attrgetter, itemgetter, not_
from typing import Callable, NamedTuple, Optional

from . import terms as t
from . import values as v
from .render import canon_renamed, process_template, render_buffer, render_network, render_value
from .terms import gather_values, residual


class EngineError(Exception):
    pass


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


# ------------------------------------------------------------- canonical form

# A node's canonical rendering under a renaming of its names is assembled
# from parts kept across node versions: its process's template, filled in
# place on the node's record; its finished buffers, one block shared by every
# version, filled column by column when the renaming changes; and its few
# live buffers, rendered one at a time.

@v.memo_on_term
def _buffer_tail(b: t.Buffer) -> str:
    """A buffer's rendering after its channel name."""
    return render_buffer(b)[b.ep.aggr + len(b.ep.session):]


_SESSION, _AGGR, _TEXT = attrgetter("ep.session"), attrgetter("ep.aggr"), itemgetter(4)


class _Block:
    """A node's finished buffers (of sessions its process no longer names)
    in node order, with their ``sorted`` names and, per slot of
    :func:`_renamed`, their sort entries.  Shared by the node's versions."""

    __slots__ = ("bufs", "sessions", "marks", "tails", "sorted", "outs")

    def __init__(self, bufs: tuple):
        self.bufs = bufs
        self.sessions = tuple(map(_SESSION, bufs))
        self.marks = tuple(map(("", "*").__getitem__, map(_AGGR, bufs)))
        self.tails = tuple(map(_buffer_tail, bufs))
        self.sorted = tuple(sorted(set(self.sessions)))
        self.outs = [(None, None), (None, None)]

    def fill(self, ren: dict) -> list:
        """The sorted (renamed session, mark, j, 0, text) of each j-th buffer."""
        names = list(map(ren.get, self.sessions, self.sessions))
        return sorted(zip(names, self.marks, range(len(names)), repeat(0),
                          map(add, map(add, self.marks, names), self.tails)))


_NO_BLOCK = _Block(())


def _block(bufs: tuple, live: tuple) -> _Block:
    """The block of the node buffers ``bufs`` not ``live``: the one kept on
    the first if it holds them, else made."""
    fin = tuple(compress(bufs, map(not_, live)))
    old = getattr(fin[0], "_block", None) if fin else _NO_BLOCK
    if old is None or old.bufs != fin:
        old = _Block(fin)
        object.__setattr__(fin[0], "_block", old)
    return old


class _NodeDigest:
    """What digesting reads from a node: its ``process``, its template's
    ``parts`` with the ``holes`` names at the odd indices (None without
    one), and its ``named`` names; its ``block``; each ``live`` buffer's
    (session, mark, r, i + 1, tail), the i-th after the block's r-th; its
    names in the order the assignment ``meets`` them; per slot of
    :func:`_renamed`, the ``last`` (map, image, text)."""

    __slots__ = ("process", "parts", "holes", "named", "block", "live", "meets", "last")


@v.memo_on_term
def _node_digest(node: t.NetworkNode) -> _NodeDigest:
    f, bufs, tpl = _NodeDigest(), node.buffers, process_template(node.process)
    f.process, f.parts, f.holes = node.process, tpl and list(tpl), tpl and tpl[1::2]
    # the template's names, or, without one, its process's free sessions and shared names
    f.named = frozenset(f.holes) if tpl else frozenset().union(*t.process_facts(f.process)[:2])
    flags = tuple(map(f.named.__contains__, map(_SESSION, bufs)))
    f.block, f.last = _block(bufs, flags), [(None, None, None), (None, None, None)]
    f.live = [(b.ep.session, "*" if b.ep.aggr else "", i - k - 1, i + 1, _buffer_tail(b))
              for k, (i, b) in enumerate(zip(compress(range(len(bufs)), flags),
                                             compress(bufs, flags)))]
    on = [p[0] for p in f.live]
    f.meets = (*sorted(chain(f.block.sorted, on)), *sorted(f.named.difference(on)))
    return f


def _render(f: _NodeDigest, ren: dict, ents: list) -> str:
    """Canonical text under ``ren`` of the node of record ``f``: its
    process's, then its sorted buffers: ``ents`` merged with the record's
    live parts, rendered here one at a time."""
    bufs = ents + [((nm := ren.get(s, s)), m, r, i, m + nm + tail) for s, m, r, i, tail in f.live]
    bufs.sort()
    if f.parts:
        f.parts[1::2] = map(ren.get, f.holes, f.holes)
    proc = "".join(f.parts) if f.parts else canon_renamed(f.process, ren)
    return "[ " + " | ".join([proc, *map(_TEXT, bufs)]) + " ]"


def _renamed(f: _NodeDigest, ren: dict, slot: int) -> str:
    """The node's text under ``ren`` (slot 0 the mask, 1 the assignment),
    kept in the slot by what ``ren`` makes of the node's ``meets``, as the
    block keeps its entries by what it makes of the block's names."""
    key, blk = tuple(map(ren.get, f.meets)), f.block
    text = f.last[slot][2]
    if f.last[slot][1] != key:
        if blk.outs[slot][0] != (bkey := tuple(map(ren.get, blk.sorted))):
            blk.outs[slot] = bkey, blk.fill(ren)
        text = _render(f, ren, blk.outs[slot][1])
    f.last[slot] = ren, key, text
    return text


@lru_cache(maxsize=2048)  # with _node_render, bounds how long old nodes and their facts live
def _node_names(node: t.NetworkNode) -> frozenset:
    """Session and shared names of a node: its process's and its buffers'."""
    return frozenset(_node_digest(node).meets)


@lru_cache(maxsize=4096)
def _node_render(node: t.NetworkNode, ren_items: tuple) -> str:
    """Canonical text of ``node`` renamed by ``ren_items``, made from its
    digest record; it orders :func:`normal_nodes`."""
    f, ren = _node_digest(node), dict(ren_items)
    return _render(f, ren, f.block.fill(ren))


def normal_nodes(nodes, key: Callable = lambda nd: _node_render(nd, ())) -> list:
    """``nodes`` without unit nodes (the unit node alone when none is left),
    sorted by ``key``: by default by their canonical text, which is
    congruence normal order."""
    kept = [nd for nd in nodes if not (isinstance(nd.process, t.Inact) and not nd.buffers)]
    return sorted(kept or [t.NetworkNode(t.Inact(), ())], key=key)


def normalize(n: t.Network) -> t.Network:
    """Congruence normal form: restrictions hoisted, parallel flattened,
    unit nodes and dead restrictions dropped, and the nodes in normal order.
    The nodes are the input's own objects: their buffers and sums stay in
    the order written.  The network carries its parts, so ``flatten_nodes``
    reads them back without a walk."""
    restricted, nodes = t.flatten_nodes(n)
    keyed = normal_nodes(nodes)
    live = frozenset().union(*map(_node_names, keyed))
    return t.assemble(tuple(r for r in restricted if r in live), tuple(keyed))


def canonical_text(restricted, nodes) -> str:
    """Alpha-canonical rendering of a flattened network: unit nodes and dead
    restrictions dropped, nodes sorted by a name-insensitive key, restricted
    names assigned canonically by first appearance (iterated to a fixpoint so
    the result does not depend on the input naming)."""
    rset, mask = _restricted(tuple(restricted))
    masks: dict = {}

    def masked(nd: t.NetworkNode) -> str:  # the node's text with "?" for each restricted name
        if (text := masks.get(id(nd))) is None:
            f = _node_digest(nd)
            text = masks[id(nd)] = f.last[0][2] if f.last[0][0] is mask else _renamed(f, mask, 0)
        return text

    kept = normal_nodes(nodes, masked)
    if len(set(map(masked, kept))) < len(kept):  # ties under the mask keep normal order
        kept = sorted(normal_nodes(nodes), key=masked)
    order = list(map(_node_digest, kept))
    for _ in range(4):
        assigned, binders = _assignment(rset, tuple(f.meets for f in order))
        texts = [f.last[1][2] if f.last[1][0] is assigned else _renamed(f, assigned, 1)
                 for f in order]
        if (ranked := sorted(texts)) == texts:
            break
        order = [order[i] for i in sorted(range(len(order)), key=texts.__getitem__)]
    body = " || ".join(ranked)
    return binders + (f"({body})" if binders and len(ranked) > 1 else body)


@lru_cache(maxsize=8)
def _restricted(restricted: tuple) -> tuple:
    """The restricted names as a set, and the mask writing each as ``?``."""
    rset = frozenset(restricted)
    return rset, dict.fromkeys(rset, "?")


@lru_cache(maxsize=8)
def _assignment(rset: frozenset, meets: tuple) -> tuple:
    """The canonical names r0 ... of the names of ``rset`` in the order the
    nodes' ``meets`` meet them, and their binders as text."""
    met = tuple(filter(rset.__contains__, dict.fromkeys(chain.from_iterable(meets))))
    names = [f"r{i}" for i in range(len(met))]
    return dict(zip(met, names)), "".join(f"new {nm}. " for nm in names)


def digest(n: t.Network) -> str:
    return RunState.from_network(n).digest()


def networks_equivalent(a: t.Network, b: t.Network) -> bool:
    return canonical_text(*t.flatten_nodes(a)) == canonical_text(*t.flatten_nodes(b))


# ------------------------------------------------------------- run state

@dataclass(frozen=True)
class RunState:
    restricted: tuple
    nodes: tuple
    fresh: int = 0

    @v.memo_on_term
    def to_network(self) -> t.Network:
        """The state as one network, built once per state.  It carries the
        state's parts, so flattening it again walks nothing."""
        return t.assemble(self.restricted, self.nodes)

    @v.memo_on_term
    def digest(self) -> str:
        """Made once per state: replay matches a successor's, then reads it."""
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
            case t.Sum():
                for alt in t.sum_alternatives(p):
                    go(alt, defs_env, rebuild, depth)
            case t.Defs(defs, body):
                go(body, defs_env + (defs,), _rewrap(rebuild, defs), depth)
            case t.Call() if depth < _MAX_UNFOLD and (
                    unfolded := t.unfold_call(p, defs_env)) is not None:
                go(unfolded, defs_env, rebuild, depth + 1)
            case _:
                out.append((p, rebuild))

    go(p, (), _identity, 0)
    return tuple(out)


def _identity(p: t.Process) -> t.Process:
    return p


@lru_cache(maxsize=256)
def _rewrap(rebuild: Callable, defs: tuple) -> Callable:
    """``rebuild`` around the definitions block ``defs``: one function per
    pair, so every process under one block shares its rebuild, and the
    alternatives memo keeps no function per process."""
    return lambda body: rebuild(t.Defs(defs, body))


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


class _NodeFacts(NamedTuple):
    """What enumeration and application read from one node alone.

    ``local`` holds the (rule, session, alt, detail) parts of the redexes
    the node fires from its head and its own buffers.  ``heads`` holds the
    heads that join other nodes' buffers, as (rule, session, alt, state,
    endpoint looked up in the other nodes, detail); ``accepts`` maps a
    shared name to the node's accept alternatives on it.

    ``steps`` memoises the acting node's half of a step, keyed on (rule,
    alt): a weak reference to the node's successor and the value the step
    moves.  Nodes are hash-consed, so equal nodes, in sibling states or on
    other interleavings of a search, share one memo; a hit gives back the
    successor node, whose own facts are then already made.  Conn is left
    out, as its successor depends on ``state.fresh`` and on the acceptors;
    so are the receivers, as memoising them sped up deep early-state
    searches far more than late ones.  The reference is weak so that a
    held node does not keep everything explored from it alive."""
    alts: tuple
    bufs: dict
    local: tuple
    heads: tuple
    accepts: dict
    at: dict  # node index -> the local redexes instantiated there
    steps: dict  # (rule, alt) -> (weakref to the successor node, moved value)


@v.memo_on_term
def node_facts(node: t.NetworkNode) -> _NodeFacts:
    """The node's facts, worked out once per node and kept on it, and read
    by enumeration, application and the safety check: a step makes one to
    five new nodes, and the others are read back.  No fact depends on
    ``node.pos``.  Kept on the node, not in an lru: an lru hashes every new
    node and holds the facts of old ones, and both made runs slower."""
    alts = alternatives(node.process)
    bufs = {b.ep: b for b in node.buffers}
    local: list = []
    heads: list = []
    accepts: dict = {}
    for ai, (head, _) in enumerate(alts):
        match head:
            case t.Accept(a, _, _):
                accepts.setdefault(a, []).append(ai)
            case t.Request(a, _, _):
                heads.append(("Conn", a, ai, 0, None, ()))
            case t.Send(t.Endpoint(s, True) as ep, _, _):
                if ep in bufs:
                    heads.append(("Bcast", s, ai, bufs[ep].state, t.Endpoint(s, False), ()))
            case t.Send(t.Endpoint(s, False) as ep, _, _):
                if ep in bufs:
                    heads.append(("Ucast", s, ai, bufs[ep].state, t.Endpoint(s, True), ()))
                    local.append(("Loss", s, ai, ()))
            case t.Recv(t.Endpoint(s, False) as ep, _, _, _):
                if ep in bufs:
                    q = bufs[ep].queue
                    if q and isinstance(q[0], t.ValMsg):
                        local.append(("Rcv", s, ai, ()))
                    elif not q:
                        local.append(("Rec", s, ai, ()))
            case t.Recv(t.Endpoint(s, True) as ep, _, _, _):
                if ep in bufs:
                    local.append(("Gthr", s, ai, ()))
            case t.Select(t.Endpoint(s, True) as ep, label, _):
                if ep in bufs:
                    heads.append(("Sel", s, ai, bufs[ep].state, t.Endpoint(s, False), (label,)))
            case t.Branch(t.Endpoint(s, False) as ep, arms, _):
                if ep in bufs:
                    q = bufs[ep].queue
                    if q and isinstance(q[0], t.LabMsg) and q[0].label in dict(arms):
                        local.append(("Bra", s, ai, (q[0].label,)))
                    elif not q:
                        have = {b.ep.session for b in node.buffers if b.ep != ep}
                        if t.process_sessions(head.default_arm) <= have:
                            local.append(("BRec", s, ai, ()))
            case t.Cond(g, tp, ep_):
                try:
                    taken = tp if v.truth(g, {}) else ep_
                except v.EvalError:
                    continue
                if t.process_sessions(taken) <= {b.ep.session for b in node.buffers}:
                    local.append(("True" if taken is tp else "False", "-", ai, ()))
    return _NodeFacts(alts, bufs, tuple(local), tuple(heads), accepts, {}, {})


def enabled_redexes(state: RunState) -> list:
    """Complete enumeration of enabled redexes, deterministically ordered.
    Requires a recovery-free (encoded) network."""
    facts = [node_facts(nd) for nd in state.nodes]
    out: list = []
    for i, f in enumerate(facts):
        local = f.at.get(i)
        if local is None:
            local = f.at[i] = [Redex(rule, s, i, (), ai, detail)
                               for rule, s, ai, detail in f.local]
        out += local
        for rule, s, ai, c, ep, detail in f.heads:
            if rule == "Conn":
                eligible = tuple(j for j, g in enumerate(facts) if j != i and s in g.accepts)
                out.append(Redex("Conn", s, i, eligible, ai))
            elif rule == "Ucast":  # to each aggregator at or behind the sender's state
                out.extend(Redex("Ucast", s, i, (j,), ai) for j, g in enumerate(facts)
                           if j != i and (b := g.bufs.get(ep)) is not None and c >= b.state)
            else:  # Bcast, Sel: to each plain buffer at the sender's state
                rec = tuple(j for j, g in enumerate(facts)
                            if j != i and (b := g.bufs.get(ep)) is not None and b.state == c)
                out.append(Redex(rule, s, i, rec, ai, detail))
    out.sort(key=Redex.key)
    return out


# ------------------------------------------------------------- rule application

# Keyed on (continuation, binder, value).  A node's ``_NodeFacts.steps``
# serves a repeat on an equal node while its successor lives; this lru, a
# repeat whose successor has died, as in a later search.  A scheduler run
# rarely repeats one, and a larger memo made its steps slower.  Conn's
# channel substitutions are not memoised: that sped up early-state
# searches far more than late ones.
_subst_value = lru_cache(maxsize=64)(t.subst_value)

_HEAD_TYPES = {"Conn": t.Request, "Bcast": t.Send, "Sel": t.Select, "Ucast": t.Send,
               "Rcv": t.Recv, "Gthr": t.Recv, "Bra": t.Branch, "Rec": t.Recv,
               "BRec": t.Branch, "Loss": t.Send, "True": t.Cond, "False": t.Cond}


def _set_buffer(node: t.NetworkNode, buf: t.Buffer,
                process: Optional[t.Process] = None) -> t.NetworkNode:
    """``node`` with ``buf`` in place of its buffer on the same endpoint, and
    with ``process`` in place of its own when given."""
    bufs = tuple(buf if b.ep is buf.ep else b for b in node.buffers)
    return t.NetworkNode(node.process if process is None else process, bufs, pos=node.pos)


def _moved_value(rule: str, head: t.Process, bufs: dict) -> Optional[v.Value]:
    """The value a step moves: the payload sent (Bcast, Ucast), received
    (Rcv), gathered (Gthr) or defaulted (Rec); None for the other rules."""
    match rule:
        case "Bcast" | "Ucast":
            return v.eval_expr(head.expr, {})
        case "Rcv":
            msg = bufs[head.chan].queue[0]
            assert isinstance(msg, t.ValMsg)
            return msg.value
        case "Gthr":
            own = bufs[head.chan]
            return gather_values(own.queue, own.state)
        case "Rec":
            return v.eval_expr(head.default, {})
    return None


def _sender_step(node: t.NetworkNode, facts: _NodeFacts, rule: str, head: t.Process,
                 rebuild: Callable) -> tuple:
    """The acting node after a step by any rule but Conn from ``head``, and
    the value the step moves (None for the rules that move none)."""
    if rule in ("True", "False", "BRec"):
        # Rebuild the taken arm and drop the plain buffers it no longer uses.
        # Aggregator buffers stay: typed processes may only discard plain
        # endpoints, and the restriction's typing needs the aggregator side.
        if rule == "BRec":  # the branch's own buffer goes too
            body = rebuild(head.default_arm)
            keep = t.process_sessions(body) - {facts.bufs[head.chan].ep.session}
        else:
            body = rebuild(head.then_p if rule == "True" else head.else_p)
            keep = t.process_sessions(body)
        bufs = tuple(b for b in node.buffers if b.ep.aggr or b.ep.session in keep)
        return t.NetworkNode(body, bufs, pos=node.pos), None
    own = facts.bufs[head.chan]
    value = _moved_value(rule, head, facts.bufs)
    if type(head) is t.Recv:  # Rcv, Gthr, Rec bind the moved value
        body = _subst_value(head.body, head.bind, value)
    elif rule == "Bra":
        msg = own.queue[0]
        assert isinstance(msg, t.LabMsg)
        body = dict(head.arms)[msg.label]
    else:
        body = head.body
    match rule:  # the own buffer's next (state, queue)
        case "Rcv" | "Bra":
            after = own.state, own.queue[1:]
        case "Gthr":
            after = own.state + 1, residual(own.queue, own.state)
        case "Rec":
            after = own.state + 1, ()
        case _:  # Bcast, Sel, Ucast, Loss
            after = own.state + 1, own.queue
    return _set_buffer(node, t.Buffer(own.ep, *after), rebuild(body)), value


def apply_redex(state: RunState, r: Redex, chosen: Optional[tuple] = None) -> RunState:
    """Apply ``r`` with the chosen receiver subset (defaults to the full
    eligible family).  A Conn receiver opens the session with its first
    accept alternative on the shared name.  Every rule has one shape: the
    acting node replaces its head with a continuation and updates its own
    buffer, and the receivers' buffers gain the message.  The acting node's
    half of any rule but Conn is read from its ``steps`` memo while the
    successor it made last is alive."""
    nodes = state.nodes
    chosen = tuple(sorted(r.receivers if chosen is None else chosen))
    if not set(chosen) <= set(r.receivers):
        raise EngineError("chosen receivers outside the eligible family")
    node = nodes[r.sender]
    facts = node_facts(node)
    if r.alt >= len(facts.alts):
        raise EngineError("stale alternative index")
    head, rebuild = facts.alts[r.alt]
    if r.rule not in _HEAD_TYPES:
        raise EngineError(f"unknown rule {r.rule}")
    assert isinstance(head, _HEAD_TYPES[r.rule])
    new_nodes = list(nodes)

    if r.rule == "Conn":  # the sender and each chosen acceptor open the fresh session
        sname = f"s#{state.fresh}"
        for k, j in enumerate((r.sender,) + chosen):
            h, rb = head, rebuild
            if k:
                j_facts = node_facts(nodes[j])
                cand = j_facts.accepts.get(head.shared)
                if not cand:
                    raise EngineError(f"node {j} has no accept alternative on {head.shared}")
                h, rb = j_facts.alts[cand[0]]
            ep = t.Endpoint(sname, not k)
            body = rb(t.subst_channel(h.body, h.bind, ep))
            new_nodes[j] = t.NetworkNode(body, nodes[j].buffers + (t.Buffer(ep, 0, ()),),
                                         pos=nodes[j].pos)
        return RunState(state.restricted + (sname,), tuple(new_nodes), state.fresh + 1)

    kept = facts.steps.get(key := (r.rule, r.alt))
    if kept is None or (succ := kept[0]()) is None:
        succ, value = _sender_step(node, facts, r.rule, head, rebuild)
        facts.steps[key] = weakref.ref(succ), value
    else:
        value = kept[1]
    new_nodes[r.sender] = succ
    if r.rule == "Ucast":  # tagged with the sender's state; ``chosen`` is not read
        (j,) = r.receivers
        jb = node_facts(nodes[j]).bufs[t.Endpoint(r.session, True)]
        new_nodes[j] = _set_buffer(nodes[j], t.Buffer(
            jb.ep, jb.state, jb.queue + (t.TaggedMsg(facts.bufs[head.chan].state, value),)))
    elif r.rule in ("Bcast", "Sel"):  # each chosen plain buffer advances
        msg = t.ValMsg(value) if r.rule == "Bcast" else t.LabMsg(head.label)
        for j in chosen:
            jb = node_facts(nodes[j]).bufs[t.Endpoint(r.session, False)]
            new_nodes[j] = _set_buffer(nodes[j], t.Buffer(
                jb.ep, jb.state + 1, jb.queue + (msg,)))
    return RunState(state.restricted, tuple(new_nodes), state.fresh)


def redex_payload(state: RunState, r: Redex) -> Optional[str]:
    """Rendered payload carried by the step (for traces)."""
    if r.rule in ("Sel", "Bra"):
        return r.detail[0]
    facts = node_facts(state.nodes[r.sender])
    value = _moved_value(r.rule, facts.alts[r.alt][0], facts.bufs)
    return None if value is None else render_value(value)


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


_STEP_LINE = ('{"digest": %s, "kind": "step", %s"payload": %s, "receivers": [%s], '
              '"rule": %s, "sender": %d, "session": %s, "step": %d}')


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
        """The header line, then each step's: ``json.dumps`` of its
        ``to_json()`` with sorted keys, written here without the dict."""
        lines = [json.dumps(self.header_json(), sort_keys=True)]
        lines.extend(_STEP_LINE % (
            _esc(s.digest), "" if s.network is None else f'"network": {_esc(s.network)}, ',
            "null" if s.payload is None else _esc(s.payload), ", ".join(map(str, s.receivers)),
            _esc(s.rule), s.sender, _esc(s.session), s.index) for s in self.steps)
        return "\n".join(lines) + "\n"


def resolve_script_step(state: RunState, spec: dict) -> tuple:
    """Match a script entry or trace step against the enabled redexes and
    apply it; returns (redex, chosen receivers, successor).  Fields: rule
    (required), sender, session, ``receivers`` (the chosen subset, by default
    the full family), ``digest`` (the successor's: the first match that has
    it is taken) and ``index``, which picks among matches without a digest.
    A receiver listed twice is refused."""
    receivers = spec.get("receivers", ())
    if len(set(receivers)) < len(receivers):
        raise EngineError(f"receiver listed twice in {list(receivers)}")
    cands = []
    for r in enabled_redexes(state):
        if r.rule != spec["rule"]:
            continue
        if "sender" in spec and r.sender != spec["sender"]:
            continue
        if "session" in spec and r.session != spec["session"]:
            continue
        cands.append(r)
    if "digest" not in spec:
        if len(cands) > 1 and "index" not in spec:
            raise EngineError(f"{len(cands)} {spec['rule']} redexes match; no index picks one")
        if not 0 <= (i := spec.get("index", 0)) < len(cands):
            raise EngineError(f"{len(cands)} {spec['rule']} redexes match; index {i} outside "
                              f"[0, {len(cands)})")
        cands = [cands[i]]
    for r in cands:
        chosen = tuple(spec["receivers"]) if "receivers" in spec else r.receivers
        succ = apply_redex(state, r, chosen)
        if "digest" not in spec or succ.digest() == spec["digest"]:
            return r, chosen, succ
    raise EngineError(f"no enabled {spec['rule']} redex reaches digest {spec['digest']}")


def run_script(state: RunState, steps: list) -> tuple:
    """Replay script entries or trace steps by :func:`resolve_script_step`;
    returns (final state, digest per step).  A step's error names its index."""
    digests = []
    for i, spec in enumerate(steps):
        try:
            _, _, state = resolve_script_step(state, spec)
        except EngineError as e:
            raise EngineError(f"step {i}: {e}") from None
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
