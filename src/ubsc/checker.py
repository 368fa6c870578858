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


class RuleApp:
    """One rule application of a derivation.  A judgment given as
    ``source``, a formatter and its arguments, is formatted the first time
    ``judgment`` is read and then kept: a checked step reads none.
    Equality, hash and repr read the text."""

    __slots__ = ("rule", "subject", "delta_size", "_judgment", "_source")

    def __init__(self, rule: str, subject: str, delta_size: Optional[int] = None,
                 judgment: Optional[str] = None, source: Optional[tuple] = None):
        self.rule, self.subject, self.delta_size = rule, subject, delta_size
        self._judgment, self._source = judgment, source

    @property
    def judgment(self) -> Optional[str]:
        if self._source is not None:
            fmt, *args = self._source
            self._judgment, self._source = fmt(*args), None
        return self._judgment

    def _key(self) -> tuple:
        return self.rule, self.subject, self.delta_size, self.judgment

    def __eq__(self, other):
        if other.__class__ is not RuleApp:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"RuleApp(rule={self.rule!r}, subject={self.subject!r}, "
                f"delta_size={self.delta_size!r}, judgment={self.judgment!r})")


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
    __slots__ = ("params", "body", "env", "sig", "checked")

    def __init__(self, params, body, env):
        self.params, self.body, self.env = params, body, env
        self.sig = None  # tuple of ("expr", BaseType) | ("chan", aggr, SessionType)
        self.checked = False


@dataclass
class Gamma:
    """Shared context: value variables, shared channels, named protocols."""
    vars: dict = field(default_factory=dict)
    shared: dict = field(default_factory=dict)


def _lookup_def(env: tuple, name: str) -> Optional[_DefEntry]:
    """The innermost entry for ``name`` in ``env``'s (defs, entries) frames."""
    for _, entries in reversed(env):
        if name in entries:
            return entries[name]
    return None


_free_chans = lru_cache(maxsize=65536)(t.free_chans)


@lru_cache(maxsize=256)
def _def_slot(key: tuple) -> list:
    """The slot of one definition check, keyed on (body, params, signature,
    scope, vars, shared channels, and the signature and checked flag of each
    definition in scope): empty until the check has run, then holding its
    failure, or its trace segment and those signatures and flags after it.
    Definition bodies recur unchanged across the states of a run."""
    return []


def _is_end(ty: st.SessionType) -> bool:
    return isinstance(st.unfold(ty), st.End)


# ===================================================================== buffers

def type_buffer(gamma: Gamma, b: t.Buffer):
    """(endpoint, counter, buffer type) of one session buffer.

    Plain buffers list their message types in order at the buffer's own
    counter.  Aggregator buffers replay the gather typing rule until the
    queue is exhausted: each state from the buffer counter upward contributes
    the type of its aggregated value, and the resulting counter advances by
    the number of applications.  The typing reads nothing from ``gamma``, so
    it is worked out once per buffer term."""
    ok, out = _buffer_typing(b)
    if not ok:
        raise TypeFail(out.rule, out.reason, out.where)
    return out


@v.memo_on_term
def _buffer_typing(b: t.Buffer) -> tuple:
    """(True, typing) or (False, TypeFail) for :func:`type_buffer`."""
    try:
        return True, _type_buffer_body(b)
    except TypeFail as e:
        return False, e


def _type_buffer_body(b: t.Buffer) -> tuple:
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
                beta = v.type_of_value(t.gather_values(q, c))
            except v.EvalError as e:
                raise TypeFail("LExp", str(e), render_chan(b.ep))
            items.append(st.OutItem(beta))
        q = t.residual(q, c)
        c += 1
    return b.ep, c, tuple(items)


# ===================================================================== processes

class _SynthFail(Exception):
    pass


def _synth_send(p: t.Send, gamma: Gamma, conts: list) -> st.SessionType:
    try:
        beta = v.type_expr(gamma.vars, p.expr)
    except v.ExprTypeError as exc:
        raise _SynthFail(str(exc))
    return st.Out(beta, conts[0])


# Each prefix's rule, the session type its channel must unfold to, the verb
# of its errors, the polarity its channel must have (None for either), and
# the builder of its synthesised type from its continuations' types there in
# ``layer`` order (a branch's recovery arm, last, takes no part).
_PREFIX = {
    t.Send: ("TSnd", st.Out, "send", None, _synth_send),
    t.Recv: ("TRcv", st.In, "receive", None,
             lambda p, gamma, conts: st.In(v.ANY_T, conts[0])),
    t.Select: ("TSel", st.SelT, "select", True,
               lambda p, gamma, conts: st.SelT(((p.label, conts[0]),))),
    t.Branch: ("TBr", st.BraT, "branch", False, lambda p, gamma, conts: st.BraT(
        st.mkarms(zip((l for l, _ in p.arms), conts)))),
}


class _ProcessChecker:
    def __init__(self, gamma: Gamma, trace: list):
        self.gamma = gamma
        self.trace = trace

    # -- helpers ---------------------------------------------------------
    def _shed_end(self, delta: dict, p: t.Process) -> dict:
        """``delta`` cut to the channels ``p`` uses; an unused one must be
        ``end`` (SWk).  So ``0`` is checked under an empty context, and a
        call under its channel arguments only."""
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

    @staticmethod
    def _cut(delta: dict, keep, rule: str, why) -> dict:
        """``delta`` cut to the channels in ``keep``.  A branch may drop a
        plain endpoint but never an aggregator: the dropped aggregators, in
        context order, fail ``rule`` with the reason ``why`` words for them."""
        dropped = [k for k in delta if k.aggr and k not in keep]
        if dropped:
            raise TypeFail(rule, why(dropped))
        return {k: ty for k, ty in delta.items() if k in keep}

    def _take(self, delta: dict, p: t.Process) -> tuple:
        """The rule of the prefix ``p`` and the unfolded type of its channel,
        which must have the polarity and the shape :data:`_PREFIX` names."""
        rule, shape, verb, aggr, _ = _PREFIX[type(p)]
        ch = p.chan
        if aggr is not None and ch.aggr != aggr:
            raise TypeFail(rule, f"{verb} on {'aggregator' if ch.aggr else 'plain'} "
                                 f"endpoint {render_chan(ch)}")
        if ch not in delta:
            raise TypeFail(rule, f"channel {render_chan(ch)} not in the linear context")
        ty = st.unfold(delta[ch])
        if not isinstance(ty, shape):
            raise TypeFail(rule, f"{render_chan(ch)} has type {render_type(ty)}, "
                                 f"cannot {verb}")
        return rule, ty

    # -- main ------------------------------------------------------------
    def check(self, vars_ctx: dict, defenv: tuple, delta: dict, p: t.Process):
        delta = self._shed_end(delta, p)

        def expr_type(e):
            try:
                return v.type_expr(vars_ctx, e)
            except v.ExprTypeError as exc:
                raise TypeFail("TExpr", str(exc), render_process(p))

        def expr_check(e, beta):
            v_ty = expr_type(e)
            if not v.base_compatible(beta, v_ty):
                raise TypeFail("TExpr", f"expected payload type {beta!r}, "
                                        f"got {v_ty!r}", render_process(p))

        match p:
            case t.Inact():
                self.trace.append(RuleApp("TInact", "0", len(delta)))
                return
            case t.Request(a, x, body) | t.Accept(a, x, body):
                # the requester binds the aggregator end, of the dual type
                aggr = type(p) is t.Request
                rule = "TReq" if aggr else "TAcc"
                if a not in self.gamma.shared:
                    raise TypeFail(rule, f"undeclared shared channel {a}")
                self.trace.append(RuleApp(rule, a, len(delta)))
                ty = self.gamma.shared[a]
                ty = st.dual(ty) if aggr else ty
                return self.check(vars_ctx, defenv, {**delta, t.ChanVar(x, aggr): ty}, body)
            case t.Send(ch, e, body) | t.Recv(ch, _, e, body) | t.Select(ch, e, body):
                # ``e`` is the payload, the receive's default or the label
                rule, ty = self._take(delta, p)
                if rule == "TSel":
                    cont = dict(ty.arms).get(e)
                    if cont is None:
                        raise TypeFail(rule, f"label {e} not offered by {render_type(ty)}")
                else:
                    expr_check(e, ty.beta)
                    cont = ty.cont
                self.trace.append(RuleApp(rule, render_chan(ch), len(delta)))
                if rule == "TRcv":
                    vars_ctx = {**vars_ctx, p.bind: ty.beta}
                return self.check(vars_ctx, defenv, {**delta, ch: cont}, body)
            case t.Branch(ch, arms, default_arm):
                _, ty = self._take(delta, p)
                tarms = dict(ty.arms)
                plabels = [l for l, _ in arms]
                if set(plabels) != set(tarms):
                    raise TypeFail("TBr", f"branch labels {sorted(plabels)} do not "
                                          f"match type labels {sorted(tarms)}")
                self.trace.append(RuleApp("TBr", render_chan(ch), len(delta)))
                for l, ap in arms:
                    self.check(vars_ctx, defenv, {**delta, ch: tarms[l]}, ap)
                d_r = self._cut(delta, _free_chans(default_arm) - {ch}, "TBr", lambda ks:
                                "recovery arm drops aggregator endpoint "
                                + ", ".join(map(render_chan, ks)))
                return self.check(vars_ctx, defenv, d_r, default_arm)
            case t.Sum(l, r):
                self.trace.append(RuleApp("TSum", "+", len(delta)))
                self.check(vars_ctx, defenv, delta, l)
                return self.check(vars_ctx, defenv, delta, r)
            case t.Cond(g, tp, ep):
                gt = expr_type(g)
                if not v.base_compatible(v.BOOL_T, gt):
                    raise TypeFail("TCond", f"guard has type {gt!r}")
                # a branch may drop a plain endpoint the other uses, and keeps the rest
                fc_t, fc_e = _free_chans(tp), _free_chans(ep)
                both = self._cut(delta, delta.keys() - (fc_t ^ fc_e), "TCond", lambda ks:
                                 f"aggregator endpoint {render_chan(ks[0])} dropped by "
                                 f"{'else' if ks[0] in fc_t else 'then'}-branch")
                self.trace.append(RuleApp("TCond", "if", len(delta)))
                for kid, fc in ((tp, fc_t), (ep, fc_e)):
                    self.check(vars_ctx, defenv,
                               {k: ty for k, ty in delta.items() if k in both or k in fc}, kid)
                return
            case t.Defs(defs, body):
                entries = {}
                env2 = defenv + ((defs, entries),)
                for name, params, dbody in defs:
                    entries[name] = _DefEntry(params, dbody, env2)
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
                # the first call seeds the signature; later ones are checked against it
                self.trace.append(RuleApp("TVar", name, len(delta)))
                used, seed = dict(delta), []
                for a, s in zip(args, entry.sig or itertools.repeat(None)):
                    chan = isinstance(a, (t.Endpoint, t.ChanVar))
                    if s is not None and chan != (s[0] == "chan"):
                        raise TypeFail("TVar", f"{name}: expected " + (
                            "an expression argument, got channel" if chan
                            else "a channel argument, got expression"))
                    if not chan:
                        at = expr_type(a)
                        if s is not None and v.refine_base(s[1], at) is None:
                            raise TypeFail("TVar", f"{name}: argument type {at!r} "
                                           f"does not match {s[1]!r}")
                        seed.append(("expr", at))
                        continue
                    if s is not None and a.aggr != s[1]:
                        raise TypeFail("TVar", f"{name}: channel argument "
                                       f"{render_chan(a)} has wrong polarity")
                    if a not in used:
                        raise TypeFail("TVar", f"channel argument "
                                       f"{render_chan(a)} not in context")
                    ty = used.pop(a)
                    if s is not None and not st.types_equal(ty, s[2]):
                        raise TypeFail("TVar", f"{name}: channel argument "
                                       f"{render_chan(a)} type mismatch")
                    seed.append(("chan", a.aggr, ty))
                entry.sig = entry.sig or tuple(seed)
                if not entry.checked:
                    entry.checked = True
                    self._check_def_body(entry)
                return
            case t.Recover():
                raise TypeFail("TRec", "recovery term must be encoded before "
                                       "typechecking")

    def _check_def_body(self, entry: _DefEntry):
        scope = tuple(defs for defs, _ in entry.env)
        entries = [e for _, frame in entry.env for e in frame.values()]
        key = (entry.body, entry.params, entry.sig, scope,
               tuple(sorted(self.gamma.vars.items(), key=lambda kv: kv[0])),
               tuple(sorted(self.gamma.shared.items(), key=lambda kv: kv[0])),
               tuple((e.sig, e.checked) for e in entries))
        slot = _def_slot(key)
        if slot:
            ok, payload, seeded = slot[0]
            if not ok:
                raise TypeFail(payload.rule, payload.reason, payload.where)
            self.trace.extend(payload)
            for e, (sig, checked) in zip(entries, seeded):
                e.sig, e.checked = sig, checked
            return
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
            slot.append((False, e, None))
            raise
        slot.append((True, tuple(self.trace[mark:]),
                     tuple((e.sig, e.checked) for e in entries)))


def type_process(gamma: Gamma, delta: dict, p: t.Process,
                 trace: Optional[list] = None) -> TypingResult:
    """Check ``p`` against a counter-free linear context (Chan -> type)."""
    tr = trace if trace is not None else []
    checker = _ProcessChecker(gamma, tr)
    try:
        checker.check(gamma.vars, (), delta, p)
        return TypingResult(True, residual={}, trace=tr)
    except TypeFail as e:
        return TypingResult(False, trace=tr, error=e)


# ===================================================================== synthesis

def synth_process(gamma: Gamma, p: t.Process) -> dict:
    """Synthesise the session types a definition-free runtime process assigns
    to its endpoints.  Receive payloads synthesise as wildcards; selects
    synthesise the single chosen arm.

    One walk over ``terms.layer``: the kids are synthesised in order and
    their contexts merged as they come, each less its type on a prefix's
    channel, from which :data:`_PREFIX`'s builder makes the prefix's."""
    if isinstance(p, (t.Request, t.Accept, t.Defs, t.Call, t.Recover)):
        raise _SynthFail(f"cannot synthesise a type for {type(p).__name__}; "
                         f"a protocol declaration is required")
    chans, _, kids = t.layer(p)
    noun = "sum alternatives" if type(p) is t.Sum else "branches"
    merged: dict = {}
    conts = []
    for bound, kid in kids:
        # only a receive binds a name here: its payload, typed as a wildcard
        g = Gamma({**gamma.vars, **dict.fromkeys(bound, v.ANY_T)}) if bound else gamma
        d = synth_process(g, kid)
        if chans:
            conts.append(d.pop(chans[0], st.END))
        for k, ty in d.items():
            if k in merged:
                m = st.refine_session(merged[k], ty)
                if m is None:
                    raise _SynthFail(f"{noun} disagree on {render_chan(k)}")
                merged[k] = m
            else:
                merged[k] = ty
    if chans:
        merged[chans[0]] = _PREFIX[type(p)][4](p, gamma, conts)
    return merged


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
        return list(_protocol_candidates(protocols[ep.session], ep.aggr, pos))
    if derived and not ep.aggr and ep.session in derived:
        c_d, plain_at_cd = derived[ep.session]
        if pos >= c_d:
            return sorted(st.advance(plain_at_cd, pos - c_d), key=render_type)
    if declared and ep in declared:
        c_t, t_t = declared[ep]
        if pos >= c_t:
            return sorted(st.output_advance(t_t, pos - c_t), key=render_type)
    return None


@lru_cache(maxsize=4096)
def _protocol_candidates(base: st.SessionType, aggr: bool, pos: int) -> tuple:
    """The protocol branch of :func:`_candidate_start_types`, by protocol,
    polarity and position: every node of every state of a run asks again."""
    return tuple(sorted(st.advance(st.dual(base) if aggr else base, pos), key=render_type))


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
        # a declared plain entry must be one its aggregator's dual reaches
        for ep, (ca, ta) in declared.items():
            pl = t.Endpoint(ep.session, False)
            if ep.aggr and pl in declared and not st.entry_synchronizes(
                    ca, st.dual(ta), *declared[pl]):
                raise TypeFail("TSynch", "declared entries " + " and ".join(
                    render_stated_context({e: declared[e]}) for e in (ep, pl))
                    + " do not synchronise")
        restricted, nodes = t.flatten_nodes(net)

        # classify restricted names; extend gamma for restricted shared names
        restricted_sessions = []
        g = gamma
        shared_names = frozenset().union(*(t.process_facts(nd.process)[1] for nd in nodes))
        for name in restricted:
            if name in shared_names:
                if name in protocols:
                    g = Gamma(g.vars, {**g.shared, name: protocols[name]})
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

        full_context, residual = _merge_contexts(node_ctxs, declared, pin,
                                                 restricted_sessions, trace)
        if declared:
            _match_declared(residual, declared, trace)
            residual = dict(declared)
        return TypingResult(True, residual=residual, full_context=full_context,
                            trace=trace)
    except TypeFail as e:
        return TypingResult(False, trace=trace, error=e)


def _type_node(gamma: Gamma, node: t.NetworkNode, idx: int, declared: dict,
               protocols: dict, derived: dict, trace: list) -> dict:
    """Type one node, appending its derivation to ``trace``, and return its
    stated context.  The work is memoised by :func:`_node_typing` on the
    slice of the inputs the node can read: a scheduler step changes a few
    nodes, and the others are typed again under the same slice."""
    sessions, eps, shared = _node_slice(node)
    ok, payload = _node_typing(
        node, node.pos, idx, tuple(gamma.vars.items()),
        tuple((a, gamma.shared[a]) for a in shared if a in gamma.shared),
        tuple((s, protocols[s]) for s in sessions if s in protocols),
        tuple((s, derived[s]) for s in sessions if s in derived),
        tuple((ep, declared[ep]) for ep in eps if ep in declared))
    if not ok:
        raise TypeFail(payload.rule, payload.reason, payload.where)
    ctx_items, segment = payload
    trace.extend(segment)
    return dict(ctx_items)


@v.memo_on_term
def _node_slice(node: t.NetworkNode) -> tuple:
    """The names :func:`_type_node` slices its inputs by: the node's buffer
    sessions, its buffer endpoints, and its process's shared names, sorted."""
    return (tuple(dict.fromkeys(b.ep.session for b in node.buffers)),
            tuple(b.ep for b in node.buffers),
            tuple(sorted(t.process_facts(node.process)[1])))


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

    # per-endpoint candidate process types; None asks for synthesis
    eps = sorted(theta, key=lambda e: (e.session, e.aggr))
    cand_lists = []
    for ep in eps:
        _, c_comb, m = theta[ep]
        pos = max(c_comb - len(m), 0)
        cands = _candidate_start_types(ep, pos, protocols, declared, derived)
        if cands == []:
            raise TypeFail("TNode", f"no protocol position {pos} for "
                                    f"{render_chan(ep)}", where)
        cand_lists.append(cands)

    if None in cand_lists:
        try:
            synth_ctx = synth_process(gamma, node.process)
        except _SynthFail as e:
            raise TypeFail("TNode", str(e), where)
        cand_lists = [c or [synth_ctx.get(ep, st.END)] for ep, c in zip(eps, cand_lists)]
    # An endpoint's buffer check reads it alone, and SWk admits only end for
    # an endpoint the process does not use: filter each list on its own, so
    # that the product ranges over the used endpoints only.
    kept = []
    for ep, cands in zip(eps, cand_lists):
        fits = [ty for ty in cands if st.combine(ty, theta[ep][2]) is not None]
        kept.append(fits if ep in fchans else [ty for ty in fits if _is_end(ty)][:1])
    for combo in itertools.product(*kept):
        delta_p = dict(zip(eps, combo))
        sub_trace: list = []
        if type_process(gamma, delta_p, node.process, sub_trace).ok:
            ctx = {ep: (theta[ep][1], st.combine(ty, theta[ep][2]))
                   for ep, ty in delta_p.items()}
            trace.extend(sub_trace)
            trace.append(RuleApp("TNode", where, source=(render_stated_context, ctx)))
            return ctx
    # no tuple is admissible: report why the last tuple of the whole product fails
    last = {ep: cands[-1] for ep, cands in zip(eps, cand_lists)}
    err = type_process(gamma, last, node.process).error
    if err is None:
        ep = next(ep for ep in eps if st.combine(last[ep], theta[ep][2]) is None)
        err = TypeFail("TNode", f"buffer of {render_chan(ep)} does not match "
                                f"{render_type(last[ep])}")
    raise TypeFail(err.rule, err.reason, err.where or where)


def _synch_app(subject: str, ep: t.Endpoint, entry: tuple, target: tuple) -> RuleApp:
    """The TSynch step of ``ep`` from its (c, T) entry to the (c', T') one."""
    return RuleApp("TSynch", subject, source=(_synch_text, ep, entry, target))


def _synch_text(ep: t.Endpoint, entry: tuple, target: tuple) -> str:
    (c, ty), (ct, tt) = entry, target
    return f"{render_chan(ep)}: ({c}, {render_type(ty)}) => ({ct}, {render_type(tt)})"


def _merge_contexts(node_ctxs: list, declared: dict, pin: dict, restricted: list,
                    trace: list) -> tuple:
    """Merge the nodes' stated contexts (TSynch, TPar), then consume the
    restricted sessions (TSRes); returns the merged context and the residual
    one.  A session's outcome comes from its own entries alone
    (:func:`_session_merge`), so the sessions no changed node holds are
    looked up.  The trace keeps its order: TSynch by session, TPar, then
    TSRes in restriction order."""
    aggrs: dict = {}  # session -> (aggregator endpoint, node, entry), in node order
    plains: dict = {}  # session -> (plain endpoint, [(node, c, T), ...])
    for i, ctx in enumerate(node_ctxs):
        for ep, entry in ctx.items():
            if not ep.aggr:
                plains.setdefault(ep.session, (ep, []))[1].append((i, *entry))
            elif ep.session in aggrs:
                raise TypeFail("TPar", f"aggregator endpoint {render_chan(ep)} appears "
                                       f"in nodes #{aggrs[ep.session][1]} and #{i}")
            else:
                aggrs[ep.session] = (ep, i, entry)
    pins: dict = {}  # session -> [pinned aggregator entry, pinned plain entry]
    for ep, entry in pin.items():
        pins.setdefault(ep.session, [None, None])[not ep.aggr] = entry
    decl = {ep.session: entry for ep, entry in declared.items() if not ep.aggr}
    rset = frozenset(restricted)
    outcomes = {}
    for s in sorted(aggrs.keys() | plains.keys() | pins.keys() | rset):
        ag, pl = aggrs.get(s), plains.get(s)
        outcomes[s] = _session_merge(s, ag and ag[2], tuple(pl[1]) if pl else (),
                                     decl.get(s), *pins.get(s, (None, None)), s in rset)
    # the pinned aggregators are all checked before any plain merge
    for phase in (0, 1):
        for synch, _, _, failed in outcomes.values():
            if failed and failed[0] == phase:
                raise TypeFail(*failed[1:])
            if phase:
                trace.extend(synch)
    merged, residual = {}, {}
    for s, (ep, _, _) in aggrs.items():
        merged[ep] = outcomes[s][1][0]
    for s in sorted(plains):
        merged[plains[s][0]] = outcomes[s][1][1]
    for ep, entry in merged.items():
        if ep.session not in rset:
            residual[ep] = entry
    trace.append(RuleApp("TPar", "merge", source=(render_stated_context, merged)))
    for s in restricted:
        _, _, tsres, failed = outcomes[s]
        if failed:
            raise TypeFail(*failed[1:])
        trace.append(tsres)
    return dict(merged), residual


@lru_cache(maxsize=1024)
def _session_merge(s: str, ag: Optional[tuple], plains: tuple, decl: Optional[tuple],
                   pin_ag: Optional[tuple], pin_pl: Optional[tuple],
                   restricted: bool) -> tuple:
    """One session's part of the merge and of TSRes, from its aggregator's
    (c, T) entry, its plain entries as (node, c, T), its declared plain entry
    and its pinned entries, each None when absent.  Returns (TSynch steps,
    (aggregator entry, plain entry), TSRes step, failure).  The failure is
    None or (phase, rule, reason, where): phase 0 for a pinned aggregator,
    1 for the plain merge, 2 for TSRes, which still gives the merge."""
    ag_ep, pl_ep = t.Endpoint(s, True), t.Endpoint(s, False)
    synch = tsres = chosen = None
    phase = 0
    try:
        if pin_ag is not None:
            # present the aggregator at exactly the pinned state (reachable
            # by pads) before plain merging
            if ag is None:
                raise TypeFail("TSynch", f"pinned entry {render_chan(ag_ep)} absent")
            (ca, ta), (cp, tp) = ag, pin_ag
            if cp < ca:
                raise TypeFail("TSynch", f"pinned state {cp} behind {render_chan(ag_ep)}")
            if not any(st.types_equal(p, tp) for p in st.autonomous_advance(ta, cp - ca)):
                raise TypeFail("TSynch", f"{render_chan(ag_ep)} cannot present as "
                                         f"({cp}, {render_type(tp)})")
            ag = pin_ag
        phase = 1
        if plains and (pin_pl is not None or pin_ag is not None):
            if pin_pl is None:
                raise TypeFail("TSynch", f"pinned context drops {render_chan(pl_ep)} "
                                         f"while nodes still hold it")
            ct, tt = pin_pl
            if not all(st.entry_synchronizes(c, ty, ct, tt) for _, c, ty in plains):
                raise TypeFail("TSynch", f"siblings of {render_chan(pl_ep)} do not "
                                         f"synchronise to the pinned entry")
            chosen = (ct, tt)
        elif plains:
            targets = []
            if ag is not None:
                # the aggregator entry may present itself padded forward by
                # gathers of nothing, but only as far as a plain sibling proves
                # the session advanced
                ca, ta = ag
                max_plain = max(c for _, c, _ in plains)
                for k in range(max(0, max_plain - ca), -1, -1):
                    for padded in sorted(st.autonomous_advance(ta, k), key=render_type):
                        targets.append((ca + k, st.dual(padded), (ca + k, padded)))
            if decl is not None:
                targets.append(decl + (None,))
            for _, c, ty in sorted(plains, key=lambda e: -e[1]):
                targets.append((c, ty, None))
            for (ct, tt, repad) in targets:
                if all(st.entry_synchronizes(c, ty, ct, tt) for _, c, ty in plains):
                    chosen = (ct, tt)
                    ag = repad or ag
                    break
            if chosen is None:
                raise TypeFail(
                    "TSynch",
                    f"sibling entries for {render_chan(pl_ep)} cannot be synchronised: "
                    + "; ".join(f"node#{i}: ({c}, {render_type(ty)})"
                                for i, c, ty in plains),
                )
            synch = tuple(_synch_app(f"node#{i}", pl_ep, (c, ty), chosen)
                          for i, c, ty in plains if (c, ty) != chosen)
        phase = 2
        if restricted:
            if ag is None and chosen is None:
                tsres = RuleApp("TSRes", s, judgment="(vacuous)")
            elif ag is None:
                raise TypeFail("TSRes", f"restricted session {s} has no "
                                        f"aggregator endpoint in context")
            else:
                ca, ta = ag
                if chosen is not None and not st.entries_equal(chosen, ag, flip=True):
                    cp, tp = chosen
                    raise TypeFail("TSRes", f"endpoints of {s} are not dual at a common "
                                   f"state: *{s}: ({ca}, {render_type(ta)}) vs {s}: "
                                   f"({cp}, {render_type(tp)})")
                tsres = RuleApp("TSRes", s, source=(_tsres_text, s, ca, ta,
                                                    chosen is not None))
    except TypeFail as e:
        return synch or (), (ag, chosen), None, (phase, e.rule, e.reason, e.where)
    return synch or (), (ag, chosen), tsres, None


def _tsres_text(s: str, ca: int, ta: st.SessionType, has_pl: bool) -> str:
    return (f"*{s}: ({ca}, {render_type(ta)})"
            + (f", {s}: dual at {ca}" if has_pl else ", plain side absent"))


def _match_declared(residual: dict, declared: dict, trace: list):
    """:func:`sestypes.synchronize` from the residual context to the declared
    one, failing on the first entry that does not synchronise."""
    for ep, (cd, td) in declared.items():
        if ep not in residual:
            raise TypeFail("TSynch", f"declared entry {render_chan(ep)} has no "
                                     f"counterpart in the residual context")
        c, ty = residual[ep]
        if not st.synchronizes(ep, (c, ty), (cd, td)):
            raise TypeFail("TSynch", f"aggregator entry {render_chan(ep)} is ({c}, "
                           f"{render_type(ty)}), declared ({cd}, {render_type(td)})"
                           if ep.aggr else f"{render_chan(ep)}: ({c}, {render_type(ty)}) "
                           f"does not synchronise to ({cd}, {render_type(td)})")
        if not ep.aggr and (c, ty) != (cd, td):
            trace.append(_synch_app("residual", ep, (c, ty), (cd, td)))
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
