"""``checker._type_node_body`` as it was before each endpoint's candidate
was chosen on its own, kept verbatim as a differential oracle: it runs
``type_process`` over the whole Cartesian product of the candidate lists
and checks every endpoint's buffer after each success.  It synthesises
through ``synth_process`` as it was before synthesis became one walk over
``terms.layer``, also kept verbatim: one ``match`` case per constructor.

``type_network`` with ``_merge_contexts``, ``_synch_app`` and
``_match_declared`` are kept verbatim from before each session was merged
from its own entries and judgments were formatted on read: one merge over
every entry, a TSRes loop that pops the merged context, and every TSynch,
TPar and TSRes judgment an eager string.  The nodes are typed by the
package's ``_type_node``.  Only the imports are new."""

from __future__ import annotations

import itertools
from typing import Optional

from ubsc import sestypes as st
from ubsc import terms as t
from ubsc import values as v
from ubsc.checker import (Gamma, RuleApp, TypeFail, TypingResult, _SynthFail,
                          _candidate_start_types, _free_chans, _node_theta, _type_node,
                          type_process)
from ubsc.render import render_chan, render_process, render_stated_context, render_type


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
                return _merge_branch_ctx(dl, dr, "sum alternatives")
            case t.Request() | t.Accept() | t.Defs() | t.Call() | t.Recover():
                raise _SynthFail(f"cannot synthesise a type for "
                                 f"{type(p).__name__}; a protocol declaration "
                                 f"is required")
        raise _SynthFail(f"unhandled form {render_process(p)}")

    def _merge_branch_ctx(a: dict, b: dict, noun: str = "branches") -> dict:
        out = dict(a)
        for k, ty in b.items():
            if k in out:
                m = st.refine_session(out[k], ty)
                if m is None:
                    raise _SynthFail(f"{noun} disagree on {render_chan(k)}")
                out[k] = m
            else:
                out[k] = ty
        return out

    return go(p, vars_ctx)


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


def _synch_app(subject: str, ep: t.Endpoint, entry: tuple, target: tuple) -> RuleApp:
    """The TSynch step of ``ep`` from its (c, T) entry to the (c', T') one."""
    (c, ty), (ct, tt) = entry, target
    judgment = f"{render_chan(ep)}: ({c}, {render_type(ty)}) => ({ct}, {render_type(tt)})"
    return RuleApp("TSynch", subject, judgment=judgment)


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
                trace.append(_synch_app(f"node#{i}", ep, (c, ty), chosen))
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
                trace.append(_synch_app("residual", ep, (c, ty), (cd, td)))
    extra = [ep for ep in residual if ep not in declared]
    if extra:
        raise TypeFail("TPar", "residual context has undeclared entries: "
                       + ", ".join(render_chan(e) for e in sorted(
                           extra, key=lambda e: (e.session, e.aggr))))

