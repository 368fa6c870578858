"""``checker._type_node_body`` as it was before each endpoint's candidate
was chosen on its own, kept verbatim as a differential oracle: it runs
``type_process`` over the whole Cartesian product of the candidate lists
and checks every endpoint's buffer after each success.  It synthesises
through ``synth_process`` as it was before synthesis became one walk over
``terms.layer``, also kept verbatim: one ``match`` case per constructor.
Only the imports are new."""

from __future__ import annotations

import itertools

from ubsc import sestypes as st
from ubsc import terms as t
from ubsc import values as v
from ubsc.checker import (Gamma, RuleApp, TypeFail, _SynthFail, _candidate_start_types,
                          _free_chans, _node_theta, type_process)
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
