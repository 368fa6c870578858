"""The digest canonicaliser as it was before node templates, kept verbatim
as a differential oracle: ``canonical_text``, ``normalize`` and their
helpers re-canonicalise and re-render every node under every renaming.
Only the imports and ``canonical_render`` below the copied code are new.
At the end, ``engine.normal_parts`` as it was before ``normalize`` carried
its parts on the network it returns, kept the same way."""

from __future__ import annotations

from functools import lru_cache

from render_oracle import render_network, render_process
from ubsc import engine as eng
from ubsc import terms as t
from ubsc import values as v


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


# ------------------------------------------------------------- engine.normal_parts
# Verbatim but for the ``eng.`` on the engine's two lrus, which this module
# has older copies of.

def normal_parts(n: t.Network) -> tuple:
    """The live restricted names and the sorted nodes of ``normalize(n)``,
    as ``flatten_nodes`` would read them back, without building it."""
    restricted, nodes = t.flatten_nodes(n)
    kept = [nd for nd in nodes if not (isinstance(nd.process, t.Inact) and not nd.buffers)]
    keyed = sorted(kept or [t.NetworkNode(t.Inact(), ())],
                   key=lambda nd: eng._node_render(nd, ()))
    live = frozenset().union(*map(eng._node_names, keyed))
    return tuple(r for r in restricted if r in live), tuple(keyed)
