import json
import shutil

import pytest

from conftest import has_recover
from golden_cases import corpus_programs, run_case, write_golden
from ubsc import checker as ck
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import values as v
from ubsc.syntax import parse_declared

CASES = {c.name: c for c in corpus_programs()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_replays_bit_identical(name):
    case = CASES[name]
    assert case.digests, "golden file missing; run golden_cases.write_golden(corpus_dir())"
    digests, mismatches = run_case(case)
    assert mismatches == []
    assert digests == case.digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_program_types_under_its_declared_context(name):
    """A case's recovery-encoded program types under the declared context
    its golden file records, or under no context when it records none."""
    case = CASES[name]
    with open(case.golden_path(), encoding="utf-8") as fh:
        assert json.load(fh)["declared"] == case.declared
    prog = cp.load_program(case.program)
    declared = parse_declared(case.declared, prog.type_decls) if case.declared else None
    res = ck.type_network(ck.Gamma(shared=prog.shared_types()),
                          eng.encode_network(prog.network), declared=declared)
    assert res.ok, res.render()


def test_schedules_reproduce_displayed_networks():
    # run_case checks digest equality against every pinned intermediate
    for case in CASES.values():
        _, mismatches = run_case(case)
        assert not mismatches, (case.name, mismatches)


def test_mismatches_follow_the_schedule():
    """``run_case`` reports each wrong expected network once, in step order,
    whatever order the case lists them in; the last entry for a step wins."""
    from dataclasses import replace

    from ubsc.syntax import parse
    case = CASES["beacon_subset_deliver"]
    wrong = [(1, "[ 0 ]"), (0, "[ 0 | s~0:[] ]"), (5, "[ 0 ]"), (1, "[ 0 | *s~0:[] ]")]
    digests, mismatches = run_case(replace(case, expected=wrong))
    assert digests == case.digests
    assert mismatches == [(0, eng.digest(parse("[ 0 | s~0:[] ]").network), digests[0]),
                          (1, eng.digest(parse("[ 0 | *s~0:[] ]").network), digests[1])]


def test_gather_chain_matches_tagged_queue():
    case = CASES["gather_chain"]
    prog = cp.load_program(case.program)
    state = eng.RunState.from_network(eng.encode_network(prog.network))
    for spec in case.schedule[:4]:
        _, _, state = eng.resolve_script_step(state, spec)
    agg = [b for nd in state.nodes for b in nd.buffers if b.ep.aggr][0]
    from ubsc import terms as t
    assert agg.queue == (t.TaggedMsg(0, v.StrV("hbt2")), t.TaggedMsg(1, v.StrV("hbt2")),
                         t.TaggedMsg(0, v.StrV("hbt1")))
    # two gather steps empty the queue at state 2
    for spec in case.schedule[4:6]:
        _, _, state = eng.resolve_script_step(state, spec)
    agg = [b for nd in state.nodes for b in nd.buffers if b.ep.aggr][0]
    assert agg.state == 2 and agg.queue == ()


def test_drop_connections_ends_with_false_split():
    case = CASES["drop_connections"]
    prog = cp.load_program(case.program)
    state = eng.RunState.from_network(eng.encode_network(prog.network))
    rules = []
    for spec in case.schedule:
        r, _, state = eng.resolve_script_step(state, spec)
        rules.append(r.rule)
    assert rules[-1] == "False"
    # the conditional node kept only the younger session's buffer
    cond_node = state.nodes[2]
    assert [b.ep.session for b in cond_node.buffers] == [state.restricted[-1]]


def test_paxos_recover_variant_encodes_and_types():
    prog = cp.load_program("paxos_recover.ubsc")
    assert any(has_recover(nd.process)
               for nd in eng.t.flatten_nodes(prog.network)[1])
    encoded = eng.encode_network(prog.network)
    assert not any(has_recover(nd.process)
                   for nd in eng.t.flatten_nodes(encoded)[1])
    g = ck.Gamma(shared=prog.shared_types())
    assert ck.type_network(g, encoded).ok


def test_consensus_instrumentation_unit():
    # build a fake trace with three distinct acceptors of the same pair
    steps = [
        eng.TraceStep(0, "Rcv", "s#0", 1, (), "(1, 4)", ""),
        eng.TraceStep(1, "Rcv", "s#0", 2, (), "(1, 4)", ""),
        eng.TraceStep(2, "Rcv", "s#0", 3, (), "(1, 4)", ""),
        eng.TraceStep(3, "Rcv", "s#0", 3, (), "7", ""),  # plain int ignored
    ]
    trace = eng.Trace(eng.SchedulerConfig(), "", steps)
    rep = cp.check_consensus_trace(trace, 5)
    assert rep.agreed and not rep.violations
    assert rep.chosen_values == {v.IntV(4)}
    # two different values chosen in the same round is a violation
    steps += [
        eng.TraceStep(4, "Rcv", "s#1", 0, (), "(1, 5)", ""),
        eng.TraceStep(5, "Rcv", "s#1", 2, (), "(1, 5)", ""),
        eng.TraceStep(6, "Rcv", "s#1", 4, (), "(1, 5)", ""),
    ]
    rep = cp.check_consensus_trace(eng.Trace(eng.SchedulerConfig(), "", steps), 5)
    assert rep.violations


def test_consensus_on_a_value_never_proposed():
    """A majority that accepts a value outside the participants' ids 1 to
    ``m`` chose a value no one proposed."""
    steps = [eng.TraceStep(i, "Rcv", "s#0", i, (), "(1, 9)", "") for i in range(3)]
    rep = cp.check_consensus_trace(eng.Trace(eng.SchedulerConfig(), "", steps), 5)
    assert rep.chosen_values == {v.IntV(9)}
    assert rep.violations == ["chosen value 9 was never proposed"]


def test_consensus_on_two_values():
    """Two values each accepted by a majority are both listed, in value
    order and as the source writes them, and the one outside 1 to ``m``
    is also named as never proposed."""
    steps = [eng.TraceStep(i, "Rcv", "s#0", i, (), val, "")
             for val in ("(2, 9)", "(1, 4)") for i in range(3)]
    rep = cp.check_consensus_trace(eng.Trace(eng.SchedulerConfig(), "", steps), 5)
    assert rep.chosen_values == {v.IntV(4), v.IntV(9)}
    assert rep.violations == ["multiple chosen values: 4, 9",
                              "chosen value 9 was never proposed"]


def test_witness_seeds_recorded():
    seeds = cp.load_witness_seeds()
    assert len(seeds) >= 5
    assert len(set(seeds)) == len(seeds)


def test_write_golden_rewrites_every_file_byte_for_byte(tmp_path):
    """``write_golden``, given a copy of the corpus, writes every golden and
    script file as it is checked in.  The copies are emptied first, so a
    file the function skips does not pass."""
    checked_in = cp.corpus_dir()
    copy = tmp_path / "corpus"
    shutil.copytree(checked_in, copy)
    written = sorted(p for p in copy.iterdir()
                     if p.name.endswith((".golden.json", ".script.json")))
    assert len(written) == 2 * len(CASES)
    for p in written:
        p.write_bytes(b"")
    write_golden(str(copy))
    for p in written:
        with open(f"{checked_in}/{p.name}", "rb") as fh:
            assert p.read_bytes() == fh.read(), p.name
