"""The parser's call-argument resolution and the substitutions behind a
call's unfolding as they were before one scoped walk and one simultaneous
substitution replaced them, kept verbatim as differential oracles:

- ``_collect_defs``, ``_param_kinds`` and ``_resolve_call_args`` gather the
  definitions of a whole network into one table keyed by name, mark
  channel parameters by a fixpoint over that table, and then rewrite the
  arguments;
- ``map_process`` and ``_subst_free`` substitute one name per full walk,
  and ``subst_procvar`` unfolds a call by one such walk per parameter.

Only this docstring and the imports are new, with two copies of what the
package dropped once none of its modules called it: ``subst_expr_var``,
over ``values.map_vars``, and ``Defs.names``, spelled out where it was
read."""

from __future__ import annotations

from ubsc import terms as t
from ubsc import values as v
from ubsc.terms import (Call, ChanVar, Chan, Defs, Endpoint, Process, SubstError, layer,
                        rebuild)
from ubsc.values import Expr, Var, fv_expr, map_vars


def subst_expr_var(e: Expr, name: str, repl: Expr) -> Expr:
    """``e`` with ``repl`` for the variable ``name``; ``e`` itself when the
    variable does not occur."""
    return map_vars(e, {name}, lambda x: repl)


# ---------------------------------------------------------------- syntax.py

def _collect_defs(p: t.Process, acc: dict):
    if type(p) is t.Defs:
        for n, params, b in p.defs:
            acc[n] = (params, b)
            _collect_defs(b, acc)
        _collect_defs(p.body, acc)
        return
    for _, k in t.layer(p)[2]:
        _collect_defs(k, acc)


def _param_kinds(defs: dict) -> dict:
    """Fixpoint inference of which definition parameters are channels and
    their polarity marks."""
    kinds = {n: [None] * len(params) for n, (params, _) in defs.items()}

    def scan(name):
        params, body = defs[name]
        index = {p: i for i, p in enumerate(params)}
        changed = False

        def mark(i, aggr):
            nonlocal changed
            cur = kinds[name][i]
            new = ("chan", aggr)
            if cur != new:
                kinds[name][i] = new
                changed = True

        def walk(p):
            if type(p) is t.Call:
                if p.name in kinds:
                    for i, a in enumerate(p.args):
                        if i < len(kinds[p.name]) and kinds[p.name][i] and \
                                isinstance(a, v.Var) and a.name in index:
                            mark(index[a.name], kinds[p.name][i][1])
                return
            if type(p) is t.Defs:  # nested definition bodies are scanned on their own
                walk(p.body)
                return
            chans, _, kids = t.layer(p)
            for ch in chans:
                if isinstance(ch, t.ChanVar) and ch.name in index:
                    mark(index[ch.name], ch.aggr)
            for _, k in kids:
                walk(k)

        walk(body)
        return changed

    for _ in range(len(defs) + 2):
        if not any(scan(n) for n in defs):
            break
    return kinds


def _resolve_call_args(net: t.Network) -> t.Network:
    defs: dict = {}

    def collect(node):
        _collect_defs(node.process, defs)
        return node

    t.map_nodes(net, collect)
    if not defs:
        return net
    kinds = _param_kinds(defs)

    def fix_process(p, bound):
        if type(p) is t.Call:
            if p.name not in kinds:
                return p
            new_args = []
            for i, a in enumerate(p.args):
                k = kinds[p.name][i] if i < len(kinds[p.name]) else None
                if k and isinstance(a, v.Var):
                    if a.name in bound:
                        new_args.append(t.ChanVar(a.name, k[1]))
                    else:
                        new_args.append(t.Endpoint(a.name, k[1]))
                else:
                    new_args.append(a)
            return t.Call(p.name, tuple(new_args))
        if type(p) is t.Defs:  # parameters are bound, definition names are not
            return t.Defs(
                tuple((n, prms, fix_process(db, bound | set(prms))) for n, prms, db in p.defs),
                fix_process(p.body, bound),
            )
        chans, exprs, kids = t.layer(p)
        return t.rebuild(p, chans, exprs, [fix_process(k, bound | set(b)) for b, k in kids])

    return t.map_nodes(net, lambda nd: t.NetworkNode(fix_process(nd.process, set()),
                                                     nd.buffers, pos=nd.pos))


# ---------------------------------------------------------------- terms.py

def map_process(p: Process, on_chan, on_expr, bound: frozenset = frozenset()) -> Process:
    """Capture-aware structural map over channel references and expressions.
    ``on_chan``/``on_expr`` receive the set of variables bound at the field."""
    chans, exprs, kids = layer(p)
    return rebuild(p, [on_chan(c, bound) for c in chans],
                   [on_expr(e, bound) for e in exprs],
                   [map_process(k, on_chan, on_expr, bound.union(b) if b else bound)
                    for b, k in kids])


def _subst_free(p: Process, name: str, chan_of, expr_of) -> Process:
    """``p`` with ``chan_of(ch)`` for every free channel-variable occurrence
    ``ch`` of ``name`` and ``expr_of(e)`` for every expression ``e`` in
    which ``name`` is not bound."""

    def on_chan(ch: Chan, bound) -> Chan:
        if type(ch) is ChanVar and ch.name == name and name not in bound:
            return chan_of(ch)
        return ch

    return map_process(p, on_chan, lambda e, bound: e if name in bound else expr_of(e))



def subst_ident(p: Process, name: str, arg) -> Process:
    """Substitute a call argument for a definition parameter.  Variables
    rename both worlds; endpoints go to channel positions (keeping each
    occurrence's polarity mark); other expressions go to expression
    positions."""
    if isinstance(arg, (ChanVar, Var)):
        return _subst_free(p, name, lambda ch: ChanVar(arg.name, ch.aggr),
                           lambda e: subst_expr_var(e, name, Var(arg.name)))
    if isinstance(arg, Endpoint):
        def expr_of(e: Expr) -> Expr:
            if name in fv_expr(e):
                raise SubstError(f"endpoint argument used in expression position: {name}")
            return e

        return _subst_free(p, name, lambda ch: Endpoint(arg.session, ch.aggr), expr_of)

    def chan_of(ch: ChanVar) -> Chan:
        raise SubstError(f"expression argument used in channel position: {name}")

    return _subst_free(p, name, chan_of, lambda e: subst_expr_var(e, name, arg))


def subst_procvar(p: Process, name: str, params: tuple, body: Process) -> Process:
    """Unfold one level of the named definition inside ``p``: every
    ``Call(name, args)`` becomes ``body`` with the arguments substituted for
    the parameters.  Other calls, and definitions that rebind ``name``, are
    untouched."""

    def go(p: Process) -> Process:
        if type(p) is Call and p.name == name:
            if len(p.args) != len(params):
                raise SubstError(
                    f"{name} expects {len(params)} arguments, got {len(p.args)}"
                )
            out = body
            for prm, a in zip(params, p.args):
                out = subst_ident(out, prm, a)
            return out
        if type(p) is Defs and name in [n for n, _, _ in p.defs]:
            return p
        chans, exprs, kids = layer(p)
        return rebuild(p, chans, exprs, [go(k) for _, k in kids])

    return go(p)
