"""``checker._type_node_body`` as it was before each endpoint's candidate
was chosen on its own, kept verbatim as a differential oracle: it runs
``type_process`` over the whole Cartesian product of the candidate lists
and checks every endpoint's buffer after each success.  Only the imports
are new."""

from __future__ import annotations

import itertools

from ubsc import sestypes as st
from ubsc import terms as t
from ubsc.checker import (Gamma, RuleApp, TypeFail, _SynthFail, _candidate_start_types,
                          _free_chans, _node_theta, synth_process, type_process)
from ubsc.render import render_chan, render_stated_context, render_type


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
