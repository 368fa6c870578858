"""Algorithmic typing for expressions, buffers, processes and networks.

The checker is checking-mode for processes (the session type of every used
channel is given), with a synthesis fallback used for runtime networks whose
node processes are definition-free.  Endpoint synchronisation is applied in
exactly two places: when merging sibling contexts at parallel composition and
when matching the final residual context against a declared one.  Weakening
is handled eagerly: entries not free in the process under scrutiny must be
end-typed and are shed before any prefix rule fires, so the recorded linear
context of every prefix application is the live one.

Definition signatures are not written in the source; they are seeded from the
first call site and then enforced everywhere, which is enough for
monomorphic recursive definitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from . import sestypes as st
from . import terms as t
from . import values as v
from .render import (render_chan, render_process, render_stated_context,
                     render_type)

PREFIX_RULES = ("TReq", "TAcc", "TSnd", "TRcv", "TSel", "TBr")


class TypeFail(Exception):
    def __init__(self, rule: str, reason: str, where: str = ""):
        self.rule, self.reason, self.where = rule, reason, where
        super().__init__(f"{rule}: {reason}" + (f" (at {where})" if where else ""))


@dataclass(frozen=True)
class RuleApp:
    rule: str
    subject: str
    delta_size: Optional[int] = None
    judgment: Optional[str] = None


@dataclass
class TypingResult:
    ok: bool
    residual: Optional[dict] = None  # Endpoint -> (c, T) for free sessions
    full_context: Optional[dict] = None  # incl. restricted sessions, pre-TSRes
    trace: list = field(default_factory=list)
    error: Optional[TypeFail] = None

    def render(self) -> str:
        if self.ok:
            res = render_stated_context(self.residual) if self.residual else "(empty)"
            return f"Ok, residual: {res}"
        return f"Fail {self.error.rule}: {self.error.reason}" + (
            f" (at {self.error.where})" if self.error.where else ""
        )


class _DefEntry:
    __slots__ = ("name", "params", "body", "env", "sig", "checked")

    def __init__(self, name, params, body, env):
        self.name, self.params, self.body, self.env = name, params, body, env
        self.sig = None  # list of ("expr", BaseType) | ("chan", aggr, SessionType)
        self.checked = False


@dataclass
class Gamma:
    """Shared context: value variables, shared channels, named protocols."""
    vars: dict = field(default_factory=dict)
    shared: dict = field(default_factory=dict)

    def with_var(self, name, beta) -> "Gamma":
        nv = dict(self.vars)
        nv[name] = beta
        return Gamma(nv, self.shared)

    def with_shared(self, name, ty) -> "Gamma":
        ns = dict(self.shared)
        ns[name] = ty
        return Gamma(self.vars, ns)


def _lookup_def(env: tuple, name: str) -> Optional[_DefEntry]:
    for frame in reversed(env):
        if name in frame and name != "__defs__":
            return frame[name]
    return None


_free_chans = lru_cache(maxsize=65536)(lambda p: frozenset(t.free_chans(p)))

# definition bodies recur unchanged across the states of a run; their checks
# (trace segment or failure) are memoised on (body, params, signature, vars)
_DEF_MEMO: dict = {}


def _sig_key(sig) -> tuple:
    return tuple(
        (k[0], k[1]) if k[0] == "expr" else (k[0], k[1], k[2]) for k in sig
    )


def _is_end(ty: st.SessionType) -> bool:
    return isinstance(st.unfold(ty), st.End)


def type_expr(gamma: Gamma, e) -> v.BaseType:
    """Principal base type of an expression under the shared context."""
    return v.type_expr(gamma.vars, e)


# ===================================================================== buffers

def type_buffer(gamma: Gamma, b: t.Buffer):
    """(endpoint, counter, buffer type) of one session buffer.

    Plain buffers list their message types in order at the buffer's own
    counter.  Aggregator buffers replay the gather typing rule until the
    queue is exhausted: each state from the buffer counter upward contributes
    the type of its aggregated value, and the resulting counter advances by
    the number of applications."""
    if not b.ep.aggr:
        items = []
        for m in b.queue:
            if isinstance(m, t.ValMsg):
                try:
                    items.append(st.OutItem(v.type_of_value(m.value)))
                except v.EvalError as e:
                    raise TypeFail("SExp", str(e), render_chan(b.ep))
            else:
                items.append(st.SelItem(m.label))
        return b.ep, b.state, tuple(items)
    from .engine import gather_values, residual  # local import to avoid cycle
    c = b.state
    q = b.queue
    items = []
    while q:
        if all(m.tag < c for m in q):
            raise TypeFail("LExp", f"stale message tags below state {c}",
                           render_chan(b.ep))
        if not any(m.tag == c for m in q):
            items.append(st.PadItem())
        else:
            try:
                beta = v.type_of_value(gather_values(q, c))
            except v.EvalError as e:
                raise TypeFail("LExp", str(e), render_chan(b.ep))
            items.append(st.OutItem(beta))
        q = residual(q, c)
        c += 1
    return b.ep, c, tuple(items)


# ===================================================================== processes

class _ProcessChecker:
    def __init__(self, gamma: Gamma, trace: list):
        self.gamma = gamma
        self.trace = trace
        self.fresh = itertools.count()

    # -- helpers ---------------------------------------------------------
    def _shed_end(self, delta: dict, p: t.Process) -> dict:
        live = _free_chans(p)
        kept = {}
        for k, ty in delta.items():
            if k in live:
                kept[k] = ty
            elif _is_end(ty):
                self.trace.append(RuleApp("SWk", render_chan(k)))
            else:
                raise TypeFail("SWk", f"unused channel {render_chan(k)} has type "
                                      f"{render_type(ty)}, not end")
        return kept

    def _take(self, delta: dict, ch: t.Chan, rule: str) -> st.SessionType:
        if ch not in delta:
            raise TypeFail(rule, f"channel {render_chan(ch)} not in the linear context")
        return st.unfold(delta[ch])

    def _rebind(self, body: t.Process, bind: str, aggr: bool, delta: dict):
        """Alpha-rename a channel binder that clashes with the context."""
        if any(isinstance(k, t.ChanVar) and k.name == bind for k in delta):
            fresh = f"{bind}%{next(self.fresh)}"
            return t.subst_ident(body, bind, t.ChanVar(fresh, aggr)), fresh
        return body, bind

    # -- main ------------------------------------------------------------
    def check(self, vars_ctx: dict, defenv: tuple, delta: dict, p: t.Process):
        delta = self._shed_end(delta, p)

        def expr_type(e):
            try:
                return v.type_expr(vars_ctx, e)
            except v.ExprTypeError as exc:
                raise TypeFail("TExpr", str(exc), render_process(p))

        def expr_check(e, beta):
            try:
                v_ty = v.type_expr(vars_ctx, e)
            except v.ExprTypeError as exc:
                raise TypeFail("TExpr", str(exc), render_process(p))
            if not v.base_compatible(beta, v_ty):
                raise TypeFail("TExpr", f"expected payload type {beta!r}, "
                                        f"got {v_ty!r}", render_process(p))

        match p:
            case t.Inact():
                self.trace.append(RuleApp("TInact", "0", len(delta)))
                if delta:
                    raise TypeFail("TInact", "leftover non-end channels "
                                   + ", ".join(render_chan(k) for k in delta))
                return
            case t.Request(a, x, body):
                if a not in self.gamma.shared:
                    raise TypeFail("TReq", f"undeclared shared channel {a}")
                self.trace.append(RuleApp("TReq", a, len(delta)))
                body, x = self._rebind(body, x, True, delta)
                d2 = dict(delta)
                d2[t.ChanVar(x, True)] = st.dual(self.gamma.shared[a])
                return self.check(vars_ctx, defenv, d2, body)
            case t.Accept(a, x, body):
                if a not in self.gamma.shared:
                    raise TypeFail("TAcc", f"undeclared shared channel {a}")
                self.trace.append(RuleApp("TAcc", a, len(delta)))
                body, x = self._rebind(body, x, False, delta)
                d2 = dict(delta)
                d2[t.ChanVar(x, False)] = self.gamma.shared[a]
                return self.check(vars_ctx, defenv, d2, body)
            case t.Send(ch, e, body):
                ty = self._take(delta, ch, "TSnd")
                if not isinstance(ty, st.Out):
                    raise TypeFail("TSnd", f"{render_chan(ch)} has type "
                                           f"{render_type(ty)}, cannot send")
                expr_check(e, ty.beta)
                self.trace.append(RuleApp("TSnd", render_chan(ch), len(delta)))
                d2 = dict(delta)
                d2[ch] = ty.cont
                return self.check(vars_ctx, defenv, d2, body)
            case t.Recv(ch, x, d, body):
                ty = self._take(delta, ch, "TRcv")
                if not isinstance(ty, st.In):
                    raise TypeFail("TRcv", f"{render_chan(ch)} has type "
                                           f"{render_type(ty)}, cannot receive")
                expr_check(d, ty.beta)
                self.trace.append(RuleApp("TRcv", render_chan(ch), len(delta)))
                d2 = dict(delta)
                d2[ch] = ty.cont
                v2 = dict(vars_ctx)
                v2[x] = ty.beta
                return self.check(v2, defenv, d2, body)
            case t.Select(ch, label, body):
                if not ch.aggr:
                    raise TypeFail("TSel", f"select on plain endpoint "
                                           f"{render_chan(ch)}")
                ty = self._take(delta, ch, "TSel")
                if not isinstance(ty, st.SelT):
                    raise TypeFail("TSel", f"{render_chan(ch)} has type "
                                           f"{render_type(ty)}, cannot select")
                arms = st.arms_dict(ty.arms)
                if label not in arms:
                    raise TypeFail("TSel", f"label {label} not offered by "
                                           f"{render_type(ty)}")
                self.trace.append(RuleApp("TSel", render_chan(ch), len(delta)))
                d2 = dict(delta)
                d2[ch] = arms[label]
                return self.check(vars_ctx, defenv, d2, body)
            case t.Branch(ch, arms, default_arm):
                if ch.aggr:
                    raise TypeFail("TBr", f"branch on aggregator endpoint "
                                          f"{render_chan(ch)}")
                ty = self._take(delta, ch, "TBr")
                if not isinstance(ty, st.BraT):
                    raise TypeFail("TBr", f"{render_chan(ch)} has type "
                                          f"{render_type(ty)}, cannot branch")
                tarms = st.arms_dict(ty.arms)
                plabels = [l for l, _ in arms]
                if set(plabels) != set(tarms):
                    raise TypeFail("TBr", f"branch labels {sorted(plabels)} do not "
                                          f"match type labels {sorted(tarms)}")
                self.trace.append(RuleApp("TBr", render_chan(ch), len(delta)))
                for l, ap in arms:
                    d2 = dict(delta)
                    d2[ch] = tarms[l]
                    self.check(dict(vars_ctx), defenv, d2, ap)
                rest = {k: ty2 for k, ty2 in delta.items() if k != ch}
                keep = _free_chans(default_arm)
                dropped = [k for k in rest if k not in keep and k.aggr]
                if dropped:
                    raise TypeFail("TBr", "recovery arm drops aggregator endpoint "
                                   + ", ".join(render_chan(k) for k in dropped))
                d_r = {k: ty2 for k, ty2 in rest.items() if k in keep or k.aggr}
                self.check(dict(vars_ctx), defenv, d_r, default_arm)
                return
            case t.Sum(l, r):
                self.trace.append(RuleApp("TSum", "+", len(delta)))
                self.check(dict(vars_ctx), defenv, dict(delta), l)
                self.check(dict(vars_ctx), defenv, dict(delta), r)
                return
            case t.Cond(g, tp, ep):
                gt = expr_type(g)
                if not v.base_compatible(v.BOOL_T, gt):
                    raise TypeFail("TCond", f"guard has type {gt!r}")
                fc_t = _free_chans(tp)
                fc_e = _free_chans(ep)
                d_then, d_else = {}, {}
                for k, ty in delta.items():
                    in_t, in_e = k in fc_t, k in fc_e
                    if in_t and not in_e:
                        if k.aggr:
                            raise TypeFail("TCond", "aggregator endpoint "
                                           f"{render_chan(k)} dropped by else-branch")
                        d_then[k] = ty
                    elif in_e and not in_t:
                        if k.aggr:
                            raise TypeFail("TCond", "aggregator endpoint "
                                           f"{render_chan(k)} dropped by then-branch")
                        d_else[k] = ty
                    else:
                        d_then[k] = ty
                        d_else[k] = ty
                self.trace.append(RuleApp("TCond", "if", len(delta)))
                self.check(dict(vars_ctx), defenv, d_then, tp)
                self.check(dict(vars_ctx), defenv, d_else, ep)
                return
            case t.Defs(defs, body):
                frame = {"__defs__": defs}
                env2 = defenv + (frame,)
                for name, params, dbody in defs:
                    frame[name] = _DefEntry(name, params, dbody, env2)
                self.trace.append(RuleApp("TRec", ",".join(n for n, _, _ in defs),
                                          len(delta)))
                return self.check(vars_ctx, env2, delta, body)
            case t.Call(name, args):
                entry = _lookup_def(defenv, name)
                if entry is None:
                    raise TypeFail("TVar", f"unbound definition {name}")
                if len(args) != len(entry.params):
                    raise TypeFail("TVar", f"{name} expects {len(entry.params)} "
                                           f"arguments, got {len(args)}")
                if entry.sig is None:
                    sig = []
                    for a in args:
                        if isinstance(a, (t.Endpoint, t.ChanVar)):
                            if a not in delta:
                                raise TypeFail("TVar", f"channel argument "
                                               f"{render_chan(a)} not in context")
                            sig.append(("chan", a.aggr, delta[a]))
                        else:
                            sig.append(("expr", expr_type(a)))
                    entry.sig = sig
                self.trace.append(RuleApp("TVar", name, len(delta)))
                used = dict(delta)
                for a, s in zip(args, entry.sig):
                    if s[0] == "chan":
                        if not isinstance(a, (t.Endpoint, t.ChanVar)):
                            raise TypeFail("TVar", f"{name}: expected a channel "
                                                   f"argument, got expression")
                        if a.aggr != s[1]:
                            raise TypeFail("TVar", f"{name}: channel argument "
                                           f"{render_chan(a)} has wrong polarity")
                        if a not in used:
                            raise TypeFail("TVar", f"channel argument "
                                           f"{render_chan(a)} not in context")
                        if not st.types_equal(used.pop(a), s[2]):
                            raise TypeFail("TVar", f"{name}: channel argument "
                                           f"{render_chan(a)} type mismatch")
                    else:
                        if isinstance(a, (t.Endpoint, t.ChanVar)):
                            raise TypeFail("TVar", f"{name}: expected an expression "
                                                   f"argument, got channel")
                        at = expr_type(a)
                        if v.refine_base(s[1], at) is None:
                            raise TypeFail("TVar", f"{name}: argument type {at!r} "
                                           f"does not match {s[1]!r}")
                leftover = [k for k, ty in used.items() if not _is_end(ty)]
                if leftover:
                    raise TypeFail("TVar", "call leaves live channels "
                                   + ", ".join(render_chan(k) for k in leftover))
                if not entry.checked:
                    entry.checked = True
                    self._check_def_body(entry)
                return
            case t.Recover():
                raise TypeFail("TRec", "recovery term must be encoded before "
                                       "typechecking")
        raise TypeFail("T?", f"unhandled process form {render_process(p)}")

    def _check_def_body(self, entry: _DefEntry):
        scope = tuple(fr["__defs__"] for fr in entry.env if "__defs__" in fr)
        key = (entry.body, entry.params, _sig_key(entry.sig), scope,
               tuple(sorted(self.gamma.vars.items(), key=lambda kv: kv[0])))
        hit = _DEF_MEMO.get(key)
        if hit is not None:
            ok, payload = hit
            if ok:
                self.trace.extend(payload)
                return
            raise TypeFail(payload.rule, payload.reason, payload.where)
        vars_ctx = dict(self.gamma.vars)
        delta = {}
        for prm, s in zip(entry.params, entry.sig):
            if s[0] == "expr":
                vars_ctx[prm] = s[1]
            else:
                delta[t.ChanVar(prm, s[1])] = s[2]
        mark = len(self.trace)
        try:
            self.check(vars_ctx, entry.env, delta, entry.body)
        except TypeFail as e:
            _DEF_MEMO[key] = (False, e)
            raise
        _DEF_MEMO[key] = (True, tuple(self.trace[mark:]))


def type_process(gamma: Gamma, delta: dict, p: t.Process,
                 trace: Optional[list] = None) -> TypingResult:
    """Check ``p`` against a counter-free linear context (Chan -> type)."""
    tr = trace if trace is not None else []
    checker = _ProcessChecker(gamma, tr)
    try:
        checker.check(dict(gamma.vars), (), dict(delta), p)
        return TypingResult(True, residual={}, trace=tr)
    except TypeFail as e:
        return TypingResult(False, trace=tr, error=e)


# ===================================================================== synthesis

class _SynthFail(Exception):
    pass


def synth_process(gamma: Gamma, p: t.Process) -> dict:
    """Synthesise the session types a definition-free runtime process assigns
    to its endpoints.  Receive payloads synthesise as wildcards; selects
    synthesise the single chosen arm."""
    vars_ctx = dict(gamma.vars)

    def go(p: t.Process, vars_ctx: dict) -> dict:
        match p:
            case t.Inact():
                return {}
            case t.Send(ch, e, body):
                d = go(body, vars_ctx)
                try:
                    beta = v.type_expr(vars_ctx, e)
                except v.ExprTypeError as exc:
                    raise _SynthFail(str(exc))
                d[ch] = st.Out(beta, d.get(ch, st.END))
                return d
            case t.Recv(ch, x, _, body):
                v2 = dict(vars_ctx)
                v2[x] = v.ANY_T
                d = go(body, v2)
                d[ch] = st.In(v.ANY_T, d.get(ch, st.END))
                return d
            case t.Select(ch, label, body):
                d = go(body, vars_ctx)
                d[ch] = st.SelT(((label, d.get(ch, st.END)),))
                return d
            case t.Branch(ch, arms, default_arm):
                conts = {}
                merged: dict = {}
                for l, ap in arms:
                    d = go(ap, dict(vars_ctx))
                    conts[l] = d.pop(ch, st.END)
                    merged = _merge_branch_ctx(merged, d) if merged else d
                dd = go(default_arm, dict(vars_ctx))
                dd.pop(ch, None)
                merged = _merge_branch_ctx(merged, dd) if merged else dd
                merged[ch] = st.BraT(st.mkarms(conts.items()))
                return merged
            case t.Cond(_, a, b):
                da = go(a, dict(vars_ctx))
                db = go(b, dict(vars_ctx))
                return _merge_branch_ctx(da, db)
            case t.Sum(l, r):
                dl = go(l, dict(vars_ctx))
                dr = go(r, dict(vars_ctx))
                out = dict(dl)
                for k, ty in dr.items():
                    if k in out:
                        m = st.refine_session(out[k], ty)
                        if m is None:
                            raise _SynthFail(f"sum alternatives disagree on "
                                             f"{render_chan(k)}")
                        out[k] = m
                    else:
                        out[k] = ty
                return out
            case t.Request() | t.Accept() | t.Defs() | t.Call() | t.Recover():
                raise _SynthFail(f"cannot synthesise a type for "
                                 f"{type(p).__name__}; a protocol declaration "
                                 f"is required")
        raise _SynthFail(f"unhandled form {render_process(p)}")

    def _merge_branch_ctx(a: dict, b: dict) -> dict:
        out = dict(a)
        for k, ty in b.items():
            if k in out:
                m = st.refine_session(out[k], ty)
                if m is None:
                    raise _SynthFail(f"branches disagree on {render_chan(k)}")
                out[k] = m
            else:
                out[k] = ty
        return out

    return go(p, vars_ctx)


# ===================================================================== networks

def _node_theta(gamma: Gamma, node: t.NetworkNode, idx: int) -> dict:
    theta = {}
    for b in node.buffers:
        if b.ep in theta:
            raise TypeFail("TNode", f"duplicate buffer for {render_chan(b.ep)}",
                           f"node#{idx}")
        theta[b.ep] = type_buffer(gamma, b)
    return theta


def _candidate_start_types(ep: t.Endpoint, pos: int, protocols: dict,
                           declared: dict, derived: dict):
    """Possible session types of a node process on ``ep`` at protocol
    position ``pos``: from a protocol hint, from the plain-side view derived
    off a sibling aggregator node, or (backwards, by output reconstruction)
    from a declared target entry.  None means unknown."""
    if protocols and ep.session in protocols:
        base = protocols[ep.session]
        side = st.dual(base) if ep.aggr else base
        return sorted(st.advance(side, pos), key=render_type)
    if derived and not ep.aggr and ep.session in derived:
        c_d, plain_at_cd = derived[ep.session]
        if pos >= c_d:
            return sorted(st.advance(plain_at_cd, pos - c_d), key=render_type)
    if declared and ep in declared:
        c_t, t_t = declared[ep]
        if pos >= c_t:
            return sorted(st.output_advance(t_t, pos - c_t), key=render_type)
    return None


def type_network(gamma: Gamma, net: t.Network, declared: Optional[dict] = None,
                 protocols: Optional[dict] = None,
                 pin: Optional[dict] = None) -> TypingResult:
    """Type a network.

    ``declared`` maps free endpoints to stated entries (state, type) the
    residual context must synchronise to; None reports the residual as-is.
    ``protocols`` maps session names to the plain-side protocol from state 0
    (and restricted shared names to their declared type), used to seed
    checking of runtime nodes whose processes contain definitions.
    ``pin`` forces the merged entry per endpoint (used by harnesses checking
    a specific context rather than the checker's canonical choice).
    """
    trace: list = []
    declared = dict(declared or {})
    protocols = dict(protocols or {})
    pin = dict(pin or {})
    try:
        restricted, nodes = t.flatten_nodes(net)

        # classify restricted names; extend gamma for restricted shared names
        restricted_sessions = []
        g = gamma
        for name in restricted:
            kind = _restricted_kind(nodes, name)
            if kind == "shared":
                if name in protocols:
                    g = g.with_shared(name, protocols[name])
                    trace.append(RuleApp("TCRes", name))
                else:
                    raise TypeFail("TCRes", f"no protocol for restricted shared "
                                            f"name {name}")
            else:
                restricted_sessions.append(name)

        node_ctxs: list = [None] * len(nodes)
        deferred = []
        first_error = None
        for i, node in enumerate(nodes):
            try:
                node_ctxs[i] = _type_node(g, node, i, declared, protocols, {},
                                          trace)
            except TypeFail as e:
                deferred.append(i)
                first_error = first_error or e
        if deferred:
            # a sibling aggregator entry pins the plain-side view of its
            # session; retry the failed nodes with the derived candidates
            derived = {}
            for ctx in node_ctxs:
                if ctx:
                    for ep, (c, ty) in ctx.items():
                        if ep.aggr:
                            derived[ep.session] = (c, st.dual(ty))
            for i in deferred:
                try:
                    node_ctxs[i] = _type_node(g, nodes[i], i, declared,
                                              protocols, derived, trace)
                except TypeFail:
                    raise first_error

        merged = _merge_contexts(node_ctxs, declared, pin, trace)

        # TSRes: consume restricted sessions
        full_context = dict(merged)
        for s in restricted_sessions:
            ag, pl = t.Endpoint(s, True), t.Endpoint(s, False)
            has_ag, has_pl = ag in merged, pl in merged
            if not has_ag and not has_pl:
                trace.append(RuleApp("TSRes", s, judgment="(vacuous)"))
                continue
            if not has_ag:
                raise TypeFail("TSRes", f"restricted session {s} has no "
                                        f"aggregator endpoint in context")
            ca, ta = merged.pop(ag)
            if has_pl:
                cp, tp = merged.pop(pl)
                if cp != ca or not st.types_equal(tp, st.dual(ta)):
                    raise TypeFail(
                        "TSRes",
                        f"endpoints of {s} are not dual at a common state: "
                        f"*{s}: ({ca}, {render_type(ta)}) vs {s}: "
                        f"({cp}, {render_type(tp)})",
                    )
            trace.append(RuleApp(
                "TSRes", s,
                judgment=f"*{s}: ({ca}, {render_type(ta)})"
                + (f", {s}: dual at {ca}" if has_pl else ", plain side absent"),
            ))

        residual = dict(merged)
        if declared:
            _match_declared(residual, declared, trace)
            residual = dict(declared)
        return TypingResult(True, residual=residual, full_context=full_context,
                            trace=trace)
    except TypeFail as e:
        return TypingResult(False, trace=trace, error=e)


def _restricted_kind(nodes, name: str) -> str:
    if any(name in t.process_facts(node.process)[1] for node in nodes):
        return "shared"
    return "session"


def _type_node(gamma: Gamma, node: t.NetworkNode, idx: int, declared: dict,
               protocols: dict, derived: dict, trace: list) -> dict:
    """Type one node, appending its derivation to ``trace``, and return its
    stated context.  The work is memoised by :func:`_node_typing` on the
    slice of the inputs the node can read: a scheduler step changes a few
    nodes, and the others are typed again under the same slice."""
    sessions = dict.fromkeys(b.ep.session for b in node.buffers)
    shared = t.process_facts(node.process)[1]
    ok, payload = _node_typing(
        node, node.pos, idx, tuple(gamma.vars.items()),
        tuple((a, gamma.shared[a]) for a in sorted(shared) if a in gamma.shared),
        tuple((s, protocols[s]) for s in sessions if s in protocols),
        tuple((s, derived[s]) for s in sessions if s in derived),
        tuple((b.ep, declared[b.ep]) for b in node.buffers if b.ep in declared))
    if not ok:
        raise TypeFail(payload.rule, payload.reason, payload.where)
    ctx_items, segment = payload
    trace.extend(segment)
    return dict(ctx_items)


@lru_cache(maxsize=128)
def _node_typing(node: t.NetworkNode, pos, idx: int, vars_items: tuple,
                 shared_items: tuple, protocols: tuple, derived: tuple,
                 declared: tuple) -> tuple:
    """(True, (context items, trace segment)) or (False, TypeFail) for one
    node, from its arguments alone: the node, its line, its index, the
    value variables, and the shared, protocol, derived and declared entries
    of the names the node holds.  ``pos`` is a separate argument because a
    node's line takes no part in its equality."""
    gamma = Gamma(dict(vars_items), dict(shared_items))
    where = f"node#{idx}" + (f" (line {pos})" if pos else "")
    trace: list = []
    try:
        ctx = _type_node_body(gamma, node, idx, where, dict(declared),
                              dict(protocols), dict(derived), trace)
    except TypeFail as e:
        return False, e
    return True, (tuple(ctx.items()), tuple(trace))


def _type_node_body(gamma: Gamma, node: t.NetworkNode, idx: int, where: str,
                    declared: dict, protocols: dict, derived: dict,
                    trace: list) -> dict:
    theta = _node_theta(gamma, node, idx)
    fchans = _free_chans(node.process)
    for ch in fchans:
        if isinstance(ch, t.ChanVar):
            raise TypeFail("TNode", f"free channel variable {render_chan(ch)}",
                           where)
    missing = {ch for ch in fchans if ch not in theta}
    if missing:
        raise TypeFail("TNode", "process uses sessions without buffers: "
                       + ", ".join(sorted(render_chan(c) for c in missing)), where)

    # per-endpoint candidate process types
    cand_lists = []
    eps = sorted(theta, key=lambda e: (e.session, e.aggr))
    synth_needed = []
    for ep in eps:
        _, c_comb, m = theta[ep]
        pos = max(c_comb - len(m), 0)
        cands = _candidate_start_types(ep, pos, protocols, declared, derived)
        if cands is None:
            synth_needed.append(ep)
            cand_lists.append(None)
        else:
            if not cands:
                raise TypeFail("TNode", f"no protocol position {pos} for "
                                        f"{render_chan(ep)}", where)
            cand_lists.append(cands)

    synth_ctx = None
    if synth_needed:
        try:
            synth_ctx = synth_process(gamma, node.process)
        except _SynthFail as e:
            raise TypeFail("TNode", str(e), where)
        for ch in synth_ctx:
            if isinstance(ch, t.ChanVar):
                raise TypeFail("TNode", f"free channel variable {render_chan(ch)}",
                               where)
    for i, ep in enumerate(eps):
        if cand_lists[i] is None:
            cand_lists[i] = [synth_ctx.get(ep, st.END)]

    last_err = None
    for combo in itertools.product(*cand_lists) if eps else [()]:
        delta_p = {ep: ty for ep, ty in zip(eps, combo)}
        sub_trace: list = []
        res = type_process(gamma, delta_p, node.process, sub_trace)
        if not res.ok:
            last_err = res.error
            continue
        ctx = {}
        ok = True
        for ep in eps:
            _, c_comb, m = theta[ep]
            combined = st.combine(delta_p[ep], m)
            if combined is None:
                ok = False
                last_err = TypeFail(
                    "TNode",
                    f"buffer of {render_chan(ep)} does not match "
                    f"{render_type(delta_p[ep])}", where)
                break
            ctx[ep] = (c_comb, combined)
        if not ok:
            continue
        trace.extend(sub_trace)
        trace.append(RuleApp("TNode", where,
                             judgment=render_stated_context(ctx)))
        return ctx
    if last_err is not None:
        raise TypeFail(last_err.rule, last_err.reason, last_err.where or where)
    raise TypeFail("TNode", "no admissible typing", where)


def _merge_contexts(node_ctxs: list, declared: dict, pin: dict,
                    trace: list) -> dict:
    merged: dict = {}
    owners: dict = {}
    plain_entries: dict = {}
    for i, ctx in enumerate(node_ctxs):
        for ep, (c, ty) in ctx.items():
            if ep.aggr:
                if ep in merged:
                    raise TypeFail("TPar", f"aggregator endpoint "
                                           f"{render_chan(ep)} appears in nodes "
                                           f"#{owners[ep]} and #{i}")
                merged[ep] = (c, ty)
                owners[ep] = i
            else:
                plain_entries.setdefault(ep, []).append((i, c, ty))

    # pinned aggregator entries: present the aggregator at exactly the pinned
    # state (reachable by pads) before plain merging
    for ag in sorted([e for e in pin if e.aggr], key=lambda e: e.session):
        if ag not in merged:
            raise TypeFail("TSynch", f"pinned entry {render_chan(ag)} absent")
        ca, ta = merged[ag]
        cp, tp = pin[ag]
        if cp < ca:
            raise TypeFail("TSynch", f"pinned state {cp} behind {render_chan(ag)}")
        ok_pad = any(st.types_equal(p, tp)
                     for p in st.autonomous_advance(ta, cp - ca))
        if not ok_pad:
            raise TypeFail("TSynch", f"{render_chan(ag)} cannot present as "
                                     f"({cp}, {render_type(tp)})")
        merged[ag] = (cp, tp)

    for ep, entries in sorted(plain_entries.items(), key=lambda kv: kv[0].session):
        ag = t.Endpoint(ep.session, True)
        if ep in pin or ag in pin:
            if ep not in pin:
                raise TypeFail("TSynch", f"pinned context drops {render_chan(ep)} "
                                         f"while nodes still hold it")
            ct, tt = pin[ep]
            if not all(st.entry_synchronizes(c, ty, ct, tt) for _, c, ty in entries):
                raise TypeFail("TSynch", f"siblings of {render_chan(ep)} do not "
                                         f"synchronise to the pinned entry")
            merged[ep] = (ct, tt)
            continue
        targets = []
        if ag in merged:
            # the aggregator entry may present itself padded forward by
            # gathers of nothing, but only as far as a plain sibling proves
            # the session advanced
            ca, ta = merged[ag]
            max_plain = max(c for _, c, _ in entries)
            for k in range(max(0, max_plain - ca), -1, -1):
                for padded in sorted(st.autonomous_advance(ta, k), key=render_type):
                    targets.append((ca + k, st.dual(padded), (ag, ca + k, padded)))
        if ep in declared:
            targets.append(declared[ep] + (None,))
        for _, c, ty in sorted(entries, key=lambda e: -e[1]):
            targets.append((c, ty, None))
        chosen = None
        for (ct, tt, repad) in targets:
            if all(st.entry_synchronizes(c, ty, ct, tt) for _, c, ty in entries):
                chosen = (ct, tt)
                if repad is not None:
                    merged[repad[0]] = (repad[1], repad[2])
                break
        if chosen is None:
            raise TypeFail(
                "TSynch",
                f"sibling entries for {render_chan(ep)} cannot be synchronised: "
                + "; ".join(f"node#{i}: ({c}, {render_type(ty)})"
                            for i, c, ty in entries),
            )
        for i, c, ty in entries:
            if (c, ty) != chosen:
                trace.append(RuleApp(
                    "TSynch", f"node#{i}",
                    judgment=f"{render_chan(ep)}: ({c}, {render_type(ty)}) => "
                             f"({chosen[0]}, {render_type(chosen[1])})",
                ))
        merged[ep] = chosen
    trace.append(RuleApp("TPar", "merge", judgment=render_stated_context(merged)))
    return merged


def _match_declared(residual: dict, declared: dict, trace: list):
    for ep, (cd, td) in declared.items():
        if ep not in residual:
            raise TypeFail("TSynch", f"declared entry {render_chan(ep)} has no "
                                     f"counterpart in the residual context")
        c, ty = residual[ep]
        if ep.aggr:
            if c != cd or not st.types_equal(ty, td):
                raise TypeFail("TSynch", f"aggregator entry {render_chan(ep)} is "
                               f"({c}, {render_type(ty)}), declared "
                               f"({cd}, {render_type(td)})")
        else:
            if not st.entry_synchronizes(c, ty, cd, td):
                raise TypeFail("TSynch", f"{render_chan(ep)}: ({c}, "
                               f"{render_type(ty)}) does not synchronise to "
                               f"({cd}, {render_type(td)})")
            if (c, ty) != (cd, td):
                trace.append(RuleApp(
                    "TSynch", "residual",
                    judgment=f"{render_chan(ep)}: ({c}, {render_type(ty)}) => "
                             f"({cd}, {render_type(td)})",
                ))
    extra = [ep for ep in residual if ep not in declared]
    if extra:
        raise TypeFail("TPar", "residual context has undeclared entries: "
                       + ", ".join(render_chan(e) for e in sorted(
                           extra, key=lambda e: (e.session, e.aggr))))


def recheck(result: TypingResult, gamma: Gamma, net: t.Network,
            declared: Optional[dict] = None,
            protocols: Optional[dict] = None) -> bool:
    """Derivations are certificates: replaying the check reproduces the same
    trace and verdict."""
    again = type_network(gamma, net, declared, protocols)
    return again.ok == result.ok and again.trace == result.trace
