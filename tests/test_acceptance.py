"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.
"""

import random
import time

import pytest

from conftest import generate_program
from golden_cases import corpus_programs, run_case
from ubsc import checker as ck
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import safety as sf
from ubsc import sestypes as st
from ubsc import terms as t
from ubsc import values as v
from ubsc.cli import parse_declared
from ubsc.syntax import parse, parse_type

G0 = ck.Gamma()


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


# =====================================================================
# 1. Worked-example fidelity
# =====================================================================

def test_criterion_1_worked_examples():
    t0 = time.time()
    cases = corpus_programs()
    assert {c.name for c in cases} >= {
        "beacon_subset_deliver", "beacon_lagging_recovery",
        "gather_chain", "drop_connections",
    }
    checked = 0
    for case in cases:
        digests, mismatches = run_case(case)
        assert mismatches == [], (case.name, mismatches)
        assert digests == case.digests, case.name
        checked += len(case.expected)
    gather = [c for c in cases if c.name == "gather_chain"][0]
    prog = cp.load_program(gather.program)
    state = eng.RunState.from_network(eng.encode_network(prog.network))
    for spec in gather.schedule[:4]:
        _, _, state = eng.resolve_script_step(state, spec)
    agg = [b for nd in state.nodes for b in nd.buffers if b.ep.aggr][0]
    assert agg.queue == (t.TaggedMsg(0, v.StrV("hbt2")),
                         t.TaggedMsg(1, v.StrV("hbt2")),
                         t.TaggedMsg(0, v.StrV("hbt1")))
    for spec in gather.schedule[4:6]:
        _, _, state = eng.resolve_script_step(state, spec)
    agg = [b for nd in state.nodes for b in nd.buffers if b.ep.aggr][0]
    assert agg.state == 2 and agg.queue == ()
    dt = time.time() - t0
    assert dt < 1.0, f"worked examples took {dt:.2f}s"
    report(1, f"{checked} displayed intermediate networks reproduced by digest "
              f"in {dt * 1000:.0f} ms")


# =====================================================================
# 2. Typing fidelity
# =====================================================================

def test_criterion_2_typing_fidelity():
    # runtime gather state: types to the empty residual, with both endpoints
    # at state 2 recoverable from the derivation trace
    prog = cp.load_program("heartbeat_runtime1.ubsc")
    res = ck.type_network(G0, prog.network)
    assert res.ok and res.residual == {}
    tpar = [a for a in res.trace if a.rule == "TPar"]
    assert any("*s: (2, end), s: (2, end)" in (a.judgment or "") for a in tpar)

    # runtime beacon state at the declared synchronised context
    prog = cp.load_program("heartbeat_runtime.ubsc")
    declared = parse_declared("*s:(1, end), s:(1, end)")
    res2 = ck.type_network(G0, prog.network, declared=declared)
    assert res2.ok
    assert any(a.rule == "TSynch" for a in res2.trace)

    # the consensus network: shared channel at its named protocol, empty
    # residual
    prog = cp.load_program("paxos5.ubsc")
    g = ck.Gamma(shared=prog.shared_types())
    res3 = ck.type_network(g, eng.encode_network(prog.network))
    assert res3.ok and res3.residual == {}
    assert ck.recheck(res3, g, eng.encode_network(prog.network))
    report(2, "runtime gather judgment, synchronised beacon judgment and the "
              "consensus network all typecheck exactly")


# =====================================================================
# 3. Error rejection
# =====================================================================

def _tried_contexts():
    protos = ["!int.end", "?int.end", "!int.?int.end",
              "+{a: end, b: end}", "&{a: end, b: end}", "end"]
    out = []
    for p in protos:
        ty = parse_type(p)
        for c in (0, 1):
            ctx = {t.Endpoint("s", True): (c, ty),
                   t.Endpoint("s", False): (c, st.dual(ty))}
            out.append(ctx)
    out.append({t.Endpoint("s", True): (2, st.END),
                t.Endpoint("s", False): (2, st.END)})
    return [c for c in out if st.well_formed(c)]


def test_criterion_3_error_rejection():
    brc_bra = cp.load_program("error_brc_bra.ubsc").network
    brc_brc = cp.load_program("error_brc_brc.ubsc").network
    assert sf.is_error_network(brc_bra).verdict == "error-network"
    assert sf.is_error_network(brc_brc).verdict == "error-network"
    tried = _tried_contexts()
    assert len(tried) >= 10
    for ctx in tried:
        assert not ck.type_network(G0, brc_bra, declared=ctx).ok
        assert not ck.type_network(G0, brc_brc, declared=ctx).ok

    rcv_uni = cp.load_program("ok_rcv_uni.ubsc").network
    assert sf.is_error_network(rcv_uni).verdict == "ok"
    ok = ck.type_network(G0, rcv_uni,
                         declared={t.Endpoint("s", False): (1, st.END)})
    assert ok.ok

    from ubsc.syntax import parse_network
    n1 = parse_network('[ *s!<1>. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ] || '
                       '[ s!<1>. 0 | s~0:[] ]')
    n2 = parse_network('[ *s?(x). 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ] || '
                       '[ s!<1>. 0 | s~0:[] ]')
    for n in (n1, n2):
        assert all(not ck.type_network(G0, n, declared=ctx).ok for ctx in tried)
    report(3, f"invalid pairs flagged and rejected under {len(tried)} "
              f"well-formed declared contexts; the receive/unicast pair "
              f"types at s:(1, end)")


# =====================================================================
# 4. Preservation and safety property suite
# =====================================================================

def _run_preservation(prog_text, seeds, max_steps, loss, bias, protocol_of):
    """Run seeded schedules; typecheck every post-step network, require a
    single-step context advancement and no error network.  Returns steps."""
    prog = parse(prog_text)
    g = ck.Gamma(shared=prog.shared_types())
    base = eng.encode_network(prog.network)
    total = 0
    for seed in seeds:
        state = eng.RunState.from_network(base)
        protocols = protocol_of(state)
        prev = ck.type_network(g, state.to_network(), protocols=protocols)
        assert prev.ok, prev.render()
        rng = random.Random(seed)
        for _ in range(max_steps):
            redexes = eng.enabled_redexes(state)
            if not redexes:
                break
            r, chosen = eng.pick_redex(redexes, rng, loss, bias)
            state = eng.apply_redex(state, r, chosen)
            total += 1
            cur = ck.type_network(g, state.to_network(),
                                  protocols=protocol_of(state))
            assert cur.ok, (seed, total, r.rule, cur.render())
            if not st.advances_to(prev.full_context, cur.full_context):
                # the property is existential: some one-step-advanced context
                # types the result, even when the canonical choice differs
                witness = None
                for cand in [dict(prev.full_context)] + \
                        st.context_advance(prev.full_context):
                    try:
                        again = ck.type_network(g, state.to_network(),
                                                protocols=protocol_of(state),
                                                pin=cand)
                    except Exception:
                        continue
                    if again.ok:
                        witness = again
                        break
                assert witness is not None, (seed, total, r.rule)
                cur = witness
            rep = sf.is_error_network(state.to_network())
            assert rep.verdict == "ok", (seed, total, r.rule, rep.render())
            prev = cur
    return total


def test_criterion_4_preservation_and_safety():
    t0 = time.time()
    total_steps = 0
    total_seeds = 0

    def fixed(protocol_text, extra=None):
        T = parse_type(protocol_text)

        def f(state):
            protos = {s: T for s in state.restricted}
            if extra:
                protos.update(extra)
            protos["a"] = T
            return protos

        return f

    # corpus programs
    jobs = []
    hb = open(f"{cp.corpus_dir()}/heartbeat_simple.ubsc").read()
    jobs.append((hb, range(60), 12, 0.3, 0.3, fixed("?str.end")))
    gather = open(f"{cp.corpus_dir()}/heartbeat_gather.ubsc").read()
    jobs.append((gather, range(110), 25, 0.3, 0.25, fixed("!str.!str.end")))
    drop = open(f"{cp.corpus_dir()}/drop_connections.ubsc").read()
    drop_T = parse_type("?int.?int.end")

    def drop_protocols(state):
        protos = {s: drop_T for s in state.restricted}
        protos["s"] = parse_type("?int.!int.end")
        protos["a"] = drop_T
        return protos

    jobs.append((drop, range(70), 25, 0.3, 0.25, drop_protocols))
    paxos3 = open(f"{cp.corpus_dir()}/paxos3.ubsc").read()
    p3_T = "?int. !set((int, (int, int))). &{accept: ?(int, int).end, restart: end}"
    jobs.append((paxos3, range(185), 50, 0.3, 0.2, fixed(p3_T)))
    paxos5 = open(f"{cp.corpus_dir()}/paxos5.ubsc").read()
    jobs.append((paxos5, range(26), 50, 0.3, 0.2, fixed(p3_T)))

    for text, seeds, steps, loss, bias, protos in jobs:
        total_steps += _run_preservation(text, seeds, steps, loss, bias, protos)
        total_seeds += len(seeds)

    # generated well-typed networks
    gen_programs = 0
    for gseed in range(30):
        text = generate_program(gseed)
        prog = parse(text)
        g = ck.Gamma(shared=prog.shared_types())
        res = ck.type_network(g, eng.encode_network(prog.network))
        assert res.ok, (gseed, res.render(), text)
        gen_programs += 1
        T = prog.shared_types()["a"]
        total_steps += _run_preservation(
            text, range(4), 25, 0.3, 0.25,
            lambda state, T=T: {**{s: T for s in state.restricted}, "a": T})
        total_seeds += 4
    dt = time.time() - t0
    assert total_steps >= 10000, total_steps
    assert total_seeds >= 200, total_seeds
    assert dt <= 60, f"property suite took {dt:.1f}s"
    report(4, f"{total_steps} randomized steps across {total_seeds} seeds "
              f"({gen_programs} generated programs): every post-step network "
              f"typechecks with a one-step-advanced context and none is an "
              f"error network ({dt:.1f}s)")


# =====================================================================
# 5. Progress and recovery harnesses
# =====================================================================

def test_criterion_5_progress_and_recovery():
    checked_p = checked_r = 0

    def scan(state):
        nonlocal checked_p, checked_r
        for sess, c in sf.progress_shape_sessions(state):
            sched = sf.session_progress_search(state, sess, c)
            assert sched is not None, (sess, c)
            assert all(r.rule not in eng.RECOVERY_RULES for r in sched)
            checked_p += 1
        for sess, c in sf.recovery_shape_sessions(state):
            sched = sf.session_recovery_search(state, sess, c)
            assert sched is not None, (sess, c)
            checked_r += 1

    # scripted gather chain: scan every intermediate state
    case = [c for c in corpus_programs() if c.name == "gather_chain"][0]
    prog = cp.load_program(case.program)
    state = eng.RunState.from_network(eng.encode_network(prog.network))
    scan(state)
    for spec in case.schedule:
        _, _, state = eng.resolve_script_step(state, spec)
        scan(state)

    # scheduler runs over the beacon and gather corpus
    for name, proto in (("heartbeat_simple.ubsc", None),
                        ("heartbeat_gather.ubsc", None)):
        progm = cp.load_program(name)
        for seed in range(8):
            st_ = eng.RunState.from_network(eng.encode_network(progm.network))
            rng = random.Random(seed)
            for _ in range(15):
                rs = eng.enabled_redexes(st_)
                if not rs:
                    break
                r = rs[rng.randrange(len(rs))]
                chosen = tuple(j for j in r.receivers if rng.random() >= 0.4)
                st_ = eng.apply_redex(st_, r, chosen)
                scan(st_)

    # early consensus states
    progm = cp.load_program("paxos3.ubsc")
    for seed in range(4):
        st_ = eng.RunState.from_network(eng.encode_network(progm.network))
        rng = random.Random(seed)
        for _ in range(10):
            rs = eng.enabled_redexes(st_)
            if not rs:
                break
            r = rs[rng.randrange(len(rs))]
            chosen = tuple(j for j in r.receivers if rng.random() >= 0.3)
            st_ = eng.apply_redex(st_, r, chosen)
            scan(st_)

    assert checked_p > 10 and checked_r > 3, (checked_p, checked_r)
    report(5, f"{checked_p} progress shapes advanced recovery-free and "
              f"{checked_r} lagging shapes re-synchronised within the step "
              f"bound; zero search failures")


# =====================================================================
# 6. Oracle equivalence
# =====================================================================

def test_criterion_6_oracles():
    rng = random.Random(0xACCE)
    kinds = [lambda: v.IntV(rng.randrange(10)),
             lambda: v.StrV(rng.choice("abc")),
             lambda: v.mkset([v.PairV(v.IntV(rng.randrange(3)),
                                      v.IntV(rng.randrange(3)))])]
    for _ in range(1000):
        kind = rng.choice(kinds)
        q = tuple(t.TaggedMsg(rng.randrange(4), kind())
                  for _ in range(rng.randrange(8)))
        c = rng.randrange(4)
        ref_gather = v.UNIT
        for m in q:
            if m.tag == c:
                ref_gather = v.aggregate(ref_gather, m.value)
        assert eng.gather_values(q, c) == ref_gather
        assert eng.residual(q, c) == tuple(m for m in q if m.tag != c)

    gens = {
        "int": lambda: rng.choice([v.EPS, v.IntV(rng.randrange(-5, 10))]),
        "str": lambda: v.StrV(rng.choice(["", "a", "hbt1", "hbt2", "zz"])),
        "bool": lambda: v.BoolV(rng.random() < 0.5),
        "set": lambda: v.mkset(v.PairV(v.IntV(rng.randrange(4)),
                                       v.IntV(rng.randrange(4)))
                               for _ in range(rng.randrange(4))),
    }
    for name, gen in gens.items():
        for _ in range(1000):
            a, b, c3 = gen(), gen(), gen()
            assert v.aggregate(a, v.UNIT) == a
            assert v.aggregate(v.UNIT, a) == a
            assert v.aggregate(a, b) == v.aggregate(b, a)
            assert v.aggregate(v.aggregate(a, b), c3) == \
                v.aggregate(a, v.aggregate(b, c3))
    report(6, "gather/residual match the filter-and-fold reference on 1000 "
              "random queues; aggregation laws hold on 1000 random "
              "pairs/triples per instance")


# =====================================================================
# 7. Consensus behaviour
# =====================================================================

def test_criterion_7_consensus():
    seeds = cp.load_witness_seeds()
    assert len(seeds) >= 5
    prog = cp.load_program("paxos5.ubsc")
    agreed = 0
    for seed in seeds:
        cfg = eng.SchedulerConfig(seed=seed, loss_rate=0.3, recovery_bias=0.2,
                                  max_steps=500)
        tr = eng.run_scheduler(prog.network, cfg, digests=False)
        rep = cp.check_consensus_trace(tr, 5)
        assert rep.agreed, seed
        assert not rep.violations, (seed, rep.violations)
        agreed += 1
    # sweep: instrumentation reports zero violations whether or not a value
    # was chosen
    sweep_violations = []
    for seed in list(range(10)) + seeds[:2]:
        cfg = eng.SchedulerConfig(seed=seed, loss_rate=0.3, recovery_bias=0.2,
                                  max_steps=500)
        tr = eng.run_scheduler(prog.network, cfg, digests=False)
        rep = cp.check_consensus_trace(tr, 5)
        sweep_violations.extend(rep.violations)
    assert sweep_violations == []
    report(7, f"{agreed} recorded witness seeds reach majority agreement "
              f"within 500 steps; sweep instrumentation reports zero "
              f"violations")


# =====================================================================
# 8. Determinism and replay
# =====================================================================

def test_criterion_8_determinism_replay():
    prog = cp.load_program("heartbeat_gather.ubsc")
    cfg = eng.SchedulerConfig(seed=11, loss_rate=0.35, recovery_bias=0.25,
                              max_steps=60)
    a = eng.run_scheduler(prog.network, cfg).to_jsonl()
    b = eng.run_scheduler(prog.network, cfg).to_jsonl()
    assert a.encode() == b.encode()

    paxos = cp.load_program("paxos3.ubsc")
    cfg = eng.SchedulerConfig(seed=4, loss_rate=0.3, recovery_bias=0.2,
                              max_steps=80)
    assert eng.run_scheduler(paxos.network, cfg).to_jsonl() == \
        eng.run_scheduler(paxos.network, cfg).to_jsonl()

    replayed = 0
    for case in corpus_programs():
        digests, _ = run_case(case)
        assert digests == case.digests, case.name
        replayed += 1
    report(8, f"byte-identical traces for identical configurations; "
              f"{replayed} golden replay scripts reproduce their pinned "
              f"digests")
