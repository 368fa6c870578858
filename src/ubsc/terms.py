"""Term language: processes, buffers, network nodes and networks.

All terms are immutable trees.  Channel references are either concrete
endpoints (a session name plus a polarity: the unique aggregator side or the
shared plain side) or variables carrying the polarity mark they were written
with.  Structural equality of raw terms is name-sensitive; alpha-insensitive
comparison goes through :func:`canon_process` / the network canonicaliser in
the engine module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Optional, Union

from .values import (UNIT, Expr, Lit, Term, Value, Var, aggregate, enter, fv_expr, interned,
                     map_vars, memo_on_term, universe)


class SubstError(Exception):
    pass


# ---------------------------------------------------------------- channels

class Endpoint(Term):
    session: str
    aggr: bool

    def __repr__(self):
        return ("*" if self.aggr else "") + self.session


class ChanVar(Term):
    name: str
    aggr: bool

    def __repr__(self):
        return ("*" if self.aggr else "") + self.name


Chan = Union[Endpoint, ChanVar]


# ---------------------------------------------------------------- processes

class Inact(Term):
    pass


class Request(Term):
    shared: str
    bind: str  # bound aggregator-polarity variable
    body: "Process"


class Accept(Term):
    shared: str
    bind: str  # bound plain-polarity variable
    body: "Process"


class Send(Term):
    chan: Chan
    expr: Expr
    body: "Process"


class Recv(Term):
    chan: Chan
    bind: str
    default: Expr
    body: "Process"


class Select(Term):
    chan: Chan
    label: str
    body: "Process"


class Branch(Term):
    chan: Chan
    arms: tuple  # ((label, Process), ...) labels pairwise distinct
    default_arm: "Process"


class Sum(Term):
    left: "Process"
    right: "Process"


class Cond(Term):
    guard: Expr
    then_p: "Process"
    else_p: "Process"


class Defs(Term):
    defs: tuple  # ((name, (param, ...), Process), ...)
    body: "Process"


class Call(Term):
    name: str
    args: tuple  # Expr | Chan


class Recover(Term):
    body: "Process"
    handler: "Process"


Process = Union[
    Inact, Request, Accept, Send, Recv, Select, Branch, Sum, Cond, Defs, Call, Recover
]


# ---------------------------------------------------------------- buffers

class ValMsg(Term):
    value: Value


class LabMsg(Term):
    label: str


class TaggedMsg(Term):
    tag: int
    value: Value


class Buffer(Term):
    ep: Endpoint
    state: int
    queue: tuple  # ValMsg/LabMsg for plain endpoints, TaggedMsg for aggregators

    def __post_init__(self):
        for m in self.queue:
            if self.ep.aggr and not isinstance(m, TaggedMsg):
                raise ValueError(f"aggregator buffer holds untagged message {m!r}")
            if not self.ep.aggr and isinstance(m, TaggedMsg):
                raise ValueError(f"plain buffer holds tagged message {m!r}")
        if self.state < 0:
            raise ValueError("negative session state")


def gather_values(queue, c: int) -> Value:
    """Aggregation of all payloads tagged with state ``c``, in queue order,
    seeded with the unit value."""
    out: Value = UNIT
    for m in queue:
        if m.tag == c:
            out = aggregate(out, m.value)
    return out


def residual(queue, c: int):
    """The queue with every state-``c`` entry removed, order preserved."""
    return tuple(m for m in queue if m.tag != c)


# ---------------------------------------------------------------- networks

@dataclass(frozen=True, init=False)
class NetworkNode:
    """A process with its buffers, written at line ``pos``, hash-consed on all
    three in the terms' table.  Equality and the hash, made once, ignore the
    line, so a cache keyed on a node serves equal nodes of other lines."""

    process: Process
    buffers: tuple = ()
    pos: Optional[int] = field(default=None, compare=False, repr=False)

    def __new__(cls, process: Process, buffers: tuple = (), pos: Optional[int] = None):
        key = (cls, process, buffers, pos)
        if (node := interned(key)) is not None:
            return node
        node, put = object.__new__(cls), object.__setattr__  # as the frozen __init__ would
        put(node, "process", process)
        put(node, "buffers", buffers)
        put(node, "pos", pos)
        put(node, "_hash", hash((process, buffers)))
        return enter(key, node)

    def __hash__(self):
        return self._hash

    __copy__, __deepcopy__ = Term.__copy__, Term.__deepcopy__  # a copy of it is it


@dataclass(frozen=True)
class Par:
    parts: tuple  # two or more networks, left to right


@dataclass(frozen=True)
class Restrict:
    names: tuple  # one or more restricted names, outermost first
    body: "Network"


Network = Union[NetworkNode, Par, Restrict]


# ---------------------------------------------------------------- one layer
# ``layer`` is the one generic view of a process constructor and ``rebuild``
# its inverse, in the style of Mitchell & Runciman, "Uniform Boilerplate and
# List Processing" (Haskell 2007).  Every walk that is not about what one
# constructor means goes through this pair.  A call's arguments split into
# its channel and its expression fields and are put back by position.

_CHAN_TYPES = (Endpoint, ChanVar)


def _defs_layer(p: Defs) -> tuple:
    names = tuple(n for n, _, _ in p.defs)
    kids = tuple((names + params, body) for _, params, body in p.defs)
    return (), (), kids + ((names, p.body),)


def _call_layer(p: Call) -> tuple:
    return (tuple(a for a in p.args if isinstance(a, _CHAN_TYPES)),
            tuple(a for a in p.args if not isinstance(a, _CHAN_TYPES)), ())


def _call_rebuild(p: Call, chans, exprs, kids) -> Call:
    chans, exprs = iter(chans), iter(exprs)
    return Call(p.name, tuple(next(chans) if isinstance(a, _CHAN_TYPES) else next(exprs)
                              for a in p.args))


_LAYER = {
    Inact: lambda p: ((), (), ()),
    Request: lambda p: ((), (), (((p.bind,), p.body),)),
    Accept: lambda p: ((), (), (((p.bind,), p.body),)),
    Send: lambda p: ((p.chan,), (p.expr,), (((), p.body),)),
    Recv: lambda p: ((p.chan,), (p.default,), (((p.bind,), p.body),)),
    Select: lambda p: ((p.chan,), (), (((), p.body),)),
    Branch: lambda p: ((p.chan,), (),
                       tuple(((), q) for _, q in p.arms) + (((), p.default_arm),)),
    Sum: lambda p: ((), (), (((), p.left), ((), p.right))),
    Cond: lambda p: ((), (p.guard,), (((), p.then_p), ((), p.else_p))),
    Defs: _defs_layer,
    Call: _call_layer,
    Recover: lambda p: ((), (), (((), p.body), ((), p.handler))),
}

_REBUILD = {
    Inact: lambda p, c, e, k: p,
    Request: lambda p, c, e, k: Request(p.shared, p.bind, k[0]),
    Accept: lambda p, c, e, k: Accept(p.shared, p.bind, k[0]),
    Send: lambda p, c, e, k: Send(c[0], e[0], k[0]),
    Recv: lambda p, c, e, k: Recv(c[0], p.bind, e[0], k[0]),
    Select: lambda p, c, e, k: Select(c[0], p.label, k[0]),
    Branch: lambda p, c, e, k: Branch(c[0], tuple((l, q) for (l, _), q in zip(p.arms, k)),
                                      k[-1]),
    Sum: lambda p, c, e, k: Sum(k[0], k[1]),
    Cond: lambda p, c, e, k: Cond(e[0], k[0], k[1]),
    Defs: lambda p, c, e, k: Defs(tuple((n, params, q) for (n, params, _), q
                                        in zip(p.defs, k)), k[-1]),
    Call: _call_rebuild,
    Recover: lambda p, c, e, k: Recover(k[0], k[1]),
}


def layer(p: Process) -> tuple:
    """One constructor of ``p`` as (channel fields, expression fields,
    ((names p binds for it, subprocess), ...))."""
    try:
        return _LAYER[type(p)](p)
    except KeyError:
        raise TypeError(f"not a process: {p!r}") from None


def rebuild(p: Process, chans, exprs, kids) -> Process:
    """``p``'s constructor applied to new fields given in ``layer`` order,
    subprocesses without their bound names."""
    return _REBUILD[type(p)](p, chans, exprs, kids)


def subprocesses(p: Process) -> tuple:
    """The processes ``p`` holds directly, in :func:`layer` order."""
    tp = type(p)
    if tp is Send or tp is Recv or tp is Select or tp is Request or tp is Accept:
        return (p.body,)
    if tp is Cond:
        return p.then_p, p.else_p
    return () if tp is Call else [k for _, k in layer(p)[2]]


def sum_alternatives(p: Process) -> list:
    """The alternatives of a sum, left to right; ``[p]`` for any other
    process."""
    return [q for q in universe(p, lambda q: (q.left, q.right) if type(q) is Sum else ())
            if type(q) is not Sum]


# ---------------------------------------------------------------- free names

_NO_FACTS = (frozenset(),) * 4


def _join(a: frozenset, b) -> frozenset:
    """``a`` and the names ``b`` joined: whichever holds the other, when one
    does, so a node that adds nothing shares its part's frozenset."""
    return a if a.issuperset(b) else frozenset(b) if a.issubset(b) else a.union(b)


def _bound_join(kids, out: tuple = _NO_FACTS) -> tuple:
    """``out`` joined with the facts of each (names bound, subprocess) of
    ``kids``, less the names bound for it."""
    for bound, k in kids:
        f = _facts(k)
        if bound and not f[2].isdisjoint(bound):  # a bound channel is a bound name
            gone = [c for c in f[3] if type(c) is ChanVar and c.name in bound]
            f = (f[0], f[1], f[2].difference(bound), f[3].difference(gone) if gone else f[3])
        out = f if out is _NO_FACTS else tuple(map(_join, out, f))
    return out


@lru_cache(maxsize=256)
def _defs_facts(defs: tuple) -> tuple:
    """The facts of a definitions block's bodies less the names it binds,
    and those names: joined once, as a run's node versions share them."""
    names = tuple(n for n, _, _ in defs)
    return _bound_join((names + params, body) for _, params, body in defs), names


@memo_on_term(kids=subprocesses)
def _facts(p: Process) -> tuple:
    """Free (sessions, shared names, variables, channel references) of a
    process: its subprocesses' facts, each less the names ``p`` binds for
    it, joined with its own fields'.  A new subterm costs one step."""
    if type(p) is Defs:
        out, names = _defs_facts(p.defs)
        return _bound_join(((names, p.body),), out)
    chans, exprs, kids = layer(p)
    sessions, shared, names, refs = out = _bound_join(kids)
    if not refs.issuperset(chans):  # a channel variable's name is a variable too
        refs = refs.union(chans)
        sessions = _join(sessions, [c.session for c in chans if type(c) is Endpoint])
        names = _join(names, [c.name for c in chans if type(c) is ChanVar])
    for e in exprs:
        names = _join(names, fv_expr(e))
    if type(p) is Call:
        names = _join(names, (p.name,))
    elif type(p) is Request or type(p) is Accept:
        shared = _join(shared, (p.shared,))
    new = (sessions, shared, names, refs)
    return out if new == out else new


def free_chans(p: Process) -> frozenset:
    """Free channel references (endpoints and channel variables) of a process.
    This is the ``fs`` function used by the drop side conditions."""
    return _facts(p)[3]


def process_facts(p: Process) -> tuple:
    """Free (sessions, shared names, variables) of a process, as frozensets."""
    return _facts(p)[:3]


def free_names(term) -> set:
    """Free session, shared and variable names of a process, node or network.
    Restriction binds both session and shared names."""
    if not isinstance(term, (NetworkNode, Par, Restrict)):
        return set().union(*process_facts(term))
    out: set = set()
    bound: dict = {}  # name -> how many restrictions on the path bind it
    stack = [term]
    while stack:
        n = stack.pop()
        if type(n) is tuple:  # leaving the restriction of these names
            for x in n:
                bound[x] -= 1
        elif type(n) is Par:
            stack += n.parts
        elif type(n) is Restrict:
            for x in n.names:
                bound[x] = bound.get(x, 0) + 1
            stack += [n.names, n.body]
        elif type(n) is NetworkNode:
            sessions, shared, varnames = process_facts(n.process)
            out.update(x for x in sessions.union(shared, (b.ep.session for b in n.buffers))
                       if not bound.get(x))
            out.update(varnames)
        else:
            raise TypeError(f"not a network: {n!r}")
    return out


def process_sessions(p: Process) -> frozenset:
    return _facts(p)[0]


# ---------------------------------------------------------------- substitution

def _subst_expr(e: Expr, sub: dict) -> Expr:
    """``e`` with the expression replacements of :func:`_subst_free`."""
    if sub.keys().isdisjoint(fv_expr(e)):
        return e
    return map_vars(e, sub.keys(), lambda x: sub[x](None))


def _subst_free(p: Process, sub: dict) -> Process:
    """``p`` with every free occurrence of each name ``x`` of ``sub``
    replaced at once: ``sub[x](ch)`` for a channel-variable occurrence
    ``ch``, ``sub[x](None)`` for an occurrence in an expression.  A subterm
    under binders of every name of ``sub`` is kept as it is.

    A chain of prefixes is walked down in a loop and rebuilt from its end;
    only a constructor with two or more subprocesses recurses.  Each
    prefix's channel and expression are substituted on the way down, so a
    misuse raises the same ``SubstError`` as a walk of ``layer``'s fields
    in order: channels before expressions before subprocesses."""
    down = []  # (prefix, its new channel, its new expression), outermost first
    while sub:
        tp = type(p)
        if tp is Send or tp is Recv or tp is Select:
            c = p.chan
            if type(c) is ChanVar and c.name in sub:
                c = sub[c.name](c)
            e = p.expr if tp is Send else p.default if tp is Recv else None
            down.append((p, c, e if e is None else _subst_expr(e, sub)))
        elif tp is Request or tp is Accept:
            down.append((p, None, None))
        else:
            p = _subst_end(p, sub)
            break
        if tp is not Send and tp is not Select and p.bind in sub:
            sub = {x: f for x, f in sub.items() if x != p.bind}
        p = p.body
    for q, c, e in reversed(down):
        tq = type(q)
        p = (Send(c, e, p) if tq is Send else Recv(c, q.bind, e, p) if tq is Recv
             else Select(c, q.label, p) if tq is Select else tq(q.shared, q.bind, p))
    return p


def _subst_end(p: Process, sub: dict) -> Process:
    """:func:`_subst_free` on a process that is no prefix, ``sub`` not
    empty."""
    tp = type(p)
    if tp is Cond:
        g = _subst_expr(p.guard, sub)
        then_p, else_p = _subst_free(p.then_p, sub), _subst_free(p.else_p, sub)
        return Cond(g, then_p, else_p)
    if tp is Call:
        args = [sub[a.name](a) if type(a) is ChanVar and a.name in sub else a
                for a in p.args]
        for i, a in enumerate(p.args):
            if not isinstance(a, _CHAN_TYPES):
                args[i] = _subst_expr(a, sub)
        return Call(p.name, tuple(args))
    if tp is Inact:
        return p
    chans, exprs, kids = layer(p)
    return rebuild(p, [sub[c.name](c) if type(c) is ChanVar and c.name in sub else c
                       for c in chans],
                   [_subst_expr(e, sub) for e in exprs],
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


def subst_procvar(call: Call, name: str, params: tuple, body: Process) -> Process:
    """Unfold ``call`` by the definition ``name(params) = body``: ``body``
    with the call's arguments substituted for the parameters, all at once.
    A call of another name is returned as it is."""
    if call.name != name:
        return call
    if len(call.args) != len(params):
        raise SubstError(f"{name} expects {len(params)} arguments, got {len(call.args)}")
    return _subst_free(body, {prm: _arg_put(prm, a) for prm, a in zip(params, call.args)})


def unfold_call(call: Call, frames) -> Optional[Process]:
    """Unfold ``call`` by the innermost of the definition frames (tuples of
    ``Defs.defs``, outermost first) that defines its name; None when none
    does."""
    for frame in reversed(frames):
        for n, params, body in frame:
            if n == call.name:
                return subst_procvar(call, n, params, body)
    return None


# ---------------------------------------------------------------- networks utils

def map_nodes(n: Network, f) -> Network:
    """``n`` with ``f`` applied to every node; restrictions and parallel
    composition keep their shape."""
    if type(n) is NetworkNode:
        return f(n)
    if type(n) is Par:
        return Par(tuple(map_nodes(part, f) for part in n.parts))
    if type(n) is Restrict:
        return Restrict(n.names, map_nodes(n.body, f))
    raise TypeError(f"not a network: {n!r}")


def flatten_nodes(n: Network) -> tuple:
    """Hoist restrictions and flatten parallel composition, renaming
    restricted names that would clash.  Returns (restricted names, nodes):
    the parts ``n`` carries when :func:`assemble` built it, else a walk."""
    carried = getattr(n, "_flat", None)
    if carried is not None:
        return carried
    restricted: list = []
    nodes: list = []
    free_everywhere = free_names(n)
    used = set(free_everywhere)

    def fresh(base: str) -> str:
        c = 1
        cand = f"{base}#h{c}"
        while cand in used:
            c += 1
            cand = f"{base}#h{c}"
        used.add(cand)
        return cand

    stack = [(n, {})]
    while stack:
        n, ren = stack.pop()
        match n:
            case NetworkNode():
                nodes.append(rename_node_sessions(n, ren))
            case Par(parts):
                stack += [(part, ren) for part in reversed(parts)]
            case Restrict(names, body):
                for name in names:
                    if name in used or name in ren:
                        ren = {**ren, name: fresh(name)}
                        restricted.append(ren[name])
                    else:
                        used.add(name)
                        restricted.append(name)
                stack.append((body, ren))
            case _:
                raise TypeError(f"not a network: {n!r}")
    return tuple(restricted), tuple(nodes)


def rename_node_sessions(node: NetworkNode, ren: dict) -> NetworkNode:
    """Rename session names (endpoints and buffers) and shared names of a
    node by ``ren``."""
    if not ren:
        return node

    def go(p: Process) -> Process:
        chans, exprs, kids = layer(p)
        p = rebuild(p, [Endpoint(ren[c.session], c.aggr)
                        if type(c) is Endpoint and c.session in ren else c
                        for c in chans], exprs, [go(k) for _, k in kids])
        if (type(p) is Request or type(p) is Accept) and p.shared in ren:
            return type(p)(ren[p.shared], p.bind, p.body)
        return p

    bufs = tuple(
        Buffer(Endpoint(ren.get(b.ep.session, b.ep.session), b.ep.aggr), b.state, b.queue)
        for b in node.buffers
    )
    return NetworkNode(go(node.process), bufs, pos=node.pos)


def par_all(parts) -> Network:
    """The parallel composition of ``parts``: the inactive node when there
    are none, the part itself when there is one."""
    parts = tuple(parts)
    if len(parts) > 1:
        return Par(parts)
    return parts[0] if parts else NetworkNode(Inact(), ())


def restrict_all(names, body: Network) -> Network:
    """``names``, outermost first, restricted over ``body``; ``body`` itself
    when there are none."""
    names = tuple(names)
    return Restrict(names, body) if names else body


def assemble(restricted: tuple, nodes: tuple) -> Network:
    """``restrict_all(restricted, par_all(nodes))``, carrying the parts for
    :func:`flatten_nodes` when its walk would give them back unchanged:
    there are nodes, and the restricted names are distinct and none is a
    free variable of a node, so the walk renames nothing."""
    net = restrict_all(restricted, par_all(nodes))
    if (nodes and len(set(restricted)) == len(restricted)
            and set(restricted).isdisjoint(
                chain.from_iterable(process_facts(nd.process)[2] for nd in nodes))):
        object.__setattr__(net, "_flat", (tuple(restricted), tuple(nodes)))
    return net
