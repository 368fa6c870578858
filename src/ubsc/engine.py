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
import os
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from typing import Callable, Optional

from . import terms as t
from . import values as v
from .render import (render_buffer, render_expr, render_msg, render_network,
                     render_operand, render_value)


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
    if not env or env.keys().isdisjoint(v.fv_expr(e)):
        return e  # closed under env: shared, not rebuilt
    match e:
        case v.Var(x):
            return v.Var(env.get(x, x))
        case v.BinOp(op, l, r):
            return v.BinOp(op, _canon_expr(l, env), _canon_expr(r, env))
        case v.TupleE(a, b):
            return v.TupleE(_canon_expr(a, env), _canon_expr(b, env))
        case v.SetE(items):
            return v.SetE(tuple(_canon_expr(i, env) for i in items))
        case v.Builtin(f, args):
            return v.Builtin(f, tuple(_canon_expr(a, env) for a in args))
    raise TypeError(f"not an expression: {e!r}")


def _bind(name: str, env: dict, counter: list) -> tuple:
    new = f"v{counter[0]}"
    counter[0] += 1
    return new, {**env, name: new}


def _canon_text(p: t.Process, env: dict, counter: list,
                holes: Optional[_Holes] = None) -> str:
    """``render_process`` of ``p`` canonicalised: binders renamed to
    sequential canonical names, sum alternatives sorted by an alpha-invariant
    key.  Built in one walk, without the canonical term.  With ``holes``
    every endpoint session and shared name becomes a hole, and a sum whose
    order would depend on how the holes are filled raises
    :class:`_NameOrder`."""
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
            inner = ", ".join(f"{l}: {_canon_text(ap, env, counter, holes)}" for l, ap in arms)
            return f"{chan}>>{{{inner}, df: {_canon_text(df, env, counter, holes)}}}"
        case t.Sum():
            key_holes = None if holes is None else _Holes()  # keys are not part of the text
            keyed = [(_canon_text(alt, env, [_CANON_BASE], key_holes), alt)
                     for alt in _flatten_sum(p)]
            keyed.sort(key=lambda kv: kv[0])
            if holes is not None and not all(_fixed_order(a, b) for (a, _), (b, _)
                                             in zip(keyed, keyed[1:])):
                raise _NameOrder
            alts = [alt for _, alt in keyed]
            texts = [_canon_text(alt, env, counter, holes) for alt in alts]
            # right-nested as Sum(a1, Sum(a2, ...)), rendered as render_process does
            res = f"({texts[-1]})" if type(alts[-1]) is t.Recover else texts[-1]
            for i in range(len(alts) - 2, -1, -1):
                left = f"({texts[i]})" if type(alts[i]) is t.Recover else texts[i]
                res = f"{left} + {res if i == len(alts) - 2 else f'({res})'}"
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


def _canon_body(p: t.Process, env: dict, counter: list, holes: Optional[_Holes]) -> str:
    """:func:`_canon_text` in a prefix's body position, as ``render._body``.

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


def _canon_defs(defs: tuple, env: dict, counter: list, holes: Optional[_Holes]) -> tuple:
    """Canonical text ``def ... in `` of a ``Defs`` block's definitions, and
    the binder map its body is canonicalised under."""
    env2 = dict(env)
    names = []
    for n, _, _ in defs:
        idx = counter[0]
        counter[0] += 1
        env2[n] = f"d{idx}"
        names.append(env2[n])
    texts = []
    for (n, params, dbody), nn in zip(defs, names):
        env3 = dict(env2)
        new_params = []
        for prm in params:
            idx = counter[0]
            counter[0] += 1
            env3[prm] = f"v{idx}"
            new_params.append(env3[prm])
        texts.append(f"{nn}({', '.join(new_params)}) = "
                     f"{_canon_text(dbody, env3, counter, holes)}")
    return f"def {', '.join(texts)} in ", env2


def _flatten_sum(p: t.Process) -> list:
    if isinstance(p, t.Sum):
        return _flatten_sum(p.left) + _flatten_sum(p.right)
    return [p]


def canon_process(p: t.Process) -> str:
    """Canonical text of a process: equal exactly for alpha-equivalent
    processes."""
    return _canon_text(p, {}, [0])


# A node's canonical rendering under a renaming of its session and shared
# names is computed once, as a template: the canonical text with every name
# ``n`` written as the hole ``\0n\0``.  Rendering under a renaming then fills
# the holes and sorts the buffers by their renamed sessions.  Holes are keyed
# by the name, so a process, a definitions block or a buffer keeps its
# template across node versions.  The memo keys follow Maziarz et al.,
# "Hashing Modulo Alpha-Equivalence" (PLDI 2021): a term's template depends
# on its structure, and names enter only through the fill.

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
def _process_template(p: t.Process) -> Optional[tuple]:
    """Template of the canonical rendering of ``p`` as two texts with holes:
    the definitions block's, shared by every process under it, and the
    rest's.  None when ``p`` has no exact template: a sum's order depends
    on its names, or a string value holds a hole mark."""
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
    return None if text is None else (head, text)


@v.memo_on_term
def _buffer_tail(b: t.Buffer) -> str:
    """A buffer's rendering after its channel name."""
    return render_buffer(b)[b.ep.aggr + len(b.ep.session):]


@lru_cache(maxsize=512)
def _buffer_parts(node: t.NetworkNode) -> tuple:
    """The node's buffers in node order as (sessions, polarity marks, texts
    after the name)."""
    bufs = node.buffers
    return (tuple(b.ep.session for b in bufs), tuple("*" if b.ep.aggr else "" for b in bufs),
            tuple(map(_buffer_tail, bufs)))


@lru_cache(maxsize=65536)
def _node_names(node: t.NetworkNode) -> frozenset:
    """Session and shared names of a node: its process's, read off the
    process template's holes when there is one, and its buffers'."""
    tpl = _process_template(node.process)
    if tpl is None:
        sessions, shared, _ = t.process_facts(node.process)
        names = sessions | shared
    else:
        names = frozenset(tpl[0].split(_HOLE)[1::2]).union(tpl[1].split(_HOLE)[1::2])
    return names.union(_buffer_parts(node)[0])


@lru_cache(maxsize=2048)
def _name_orders(node: t.NetworkNode) -> tuple:
    """The node's names sorted, and in the order the canonical assignment of
    restricted names meets them: its buffers' sessions sorted, then the
    rest sorted."""
    names = sorted(_node_names(node))
    return tuple(names), tuple(dict.fromkeys(sorted(set(_buffer_parts(node)[0])) + names))


def _fill(text: str, ren: dict) -> str:
    """A template text with each hole filled by its name renamed by
    ``ren``."""
    parts = text.split(_HOLE)  # names at the odd indices
    parts[1::2] = [ren.get(n, n) for n in parts[1::2]]
    return "".join(parts)


@lru_cache(maxsize=4096)
def _node_render(node: t.NetworkNode, ren_items: tuple) -> str:
    """Canonical rendering of ``node`` with its names renamed by
    ``ren_items``: a fill of the process template, or the renamed node
    canonicalised and rendered when the process has no template."""
    tpl = _process_template(node.process)
    ren = dict(ren_items)
    if tpl is None:
        proc = canon_process(t.rename_node_sessions(node, ren).process)
    else:
        proc = _fill(tpl[0], ren) + _fill(tpl[1], ren)
    sessions, marks, tails = _buffer_parts(node)
    names = [ren.get(s, s) for s in sessions] if ren else sessions
    # by (renamed session, polarity); the index keeps ties in node order
    bufs = sorted(zip(names, marks, range(len(names)), tails))
    texts = [proc] + [m + s + tail for s, m, _, tail in bufs]
    return "[ " + " | ".join(texts) + " ]"


def normalize(n: t.Network) -> t.Network:
    """Congruence normal form: restrictions hoisted, parallel flattened and
    deterministically sorted, unit nodes and dead restrictions dropped,
    buffers and sums ordered."""
    names, nodes = normal_parts(n)
    return t.restrict_all(names, t.par_all(nodes))


def normal_parts(n: t.Network) -> tuple:
    """The live restricted names and the sorted nodes of ``normalize(n)``,
    as ``flatten_nodes`` would read them back, without building it."""
    restricted, nodes = t.flatten_nodes(n)
    kept = [nd for nd in nodes if not (isinstance(nd.process, t.Inact) and not nd.buffers)]
    if not kept:
        kept = [t.NetworkNode(t.Inact(), ())]
    keyed = sorted(kept, key=lambda nd: _node_render(nd, ()))
    live = set()
    for nd in keyed:
        live |= _node_names(nd)
    return tuple(r for r in restricted if r in live), tuple(keyed)


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
    # each node with its restricted names, sorted: what both renamings touch
    named = [(nd, [s for s in _name_orders(nd)[0] if s in rset]) for nd in kept]
    keys = [_node_render(nd, tuple(zip(rn, repeat("?")))) for nd, rn in named]
    if len(set(keys)) < len(keys):  # ties under the mask fall to the plain text
        keys = [(k, _node_render(nd, ())) for k, (nd, _) in zip(keys, named)]
    order = [ndr for _, ndr in sorted(zip(keys, named), key=lambda kn: kn[0])]
    texts: list = []
    for _ in range(4):
        met = dict.fromkeys(chain.from_iterable(_name_orders(nd)[1] for nd, _ in order))
        met = [s for s in met if s in rset]
        rnames, binders = _r_names(len(met))
        assigned = dict(zip(met, rnames))
        texts = [_node_render(nd, tuple([(s, assigned[s]) for s in rn])) for nd, rn in order]
        perm = sorted(range(len(order)), key=lambda i: texts[i])
        if perm == list(range(len(order))):
            break
        order = [order[i] for i in perm]
    texts.sort()
    body = " || ".join(texts)
    if binders and len(texts) > 1:
        body = f"({body})"
    return binders + body


@lru_cache(maxsize=8)
def _r_names(n: int) -> tuple:
    """The canonical restricted names r0 ... r<n-1>, and their binders as
    text.  Successive states mostly restrict as many names."""
    names = tuple(f"r{i}" for i in range(n))
    return names, "".join(f"new {nm}. " for nm in names)


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
