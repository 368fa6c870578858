"""The template digest against the canonicaliser it replaced.

``canon_oracle`` holds the earlier ``canonical_text``, ``_canon_process``,
``_node_render`` and ``normalize`` verbatim.  Every check here compares the
engine with it on scheduler-reached states: the canonical text (so the
SHA-256 digest), the congruence normal form including node order, and
``networks_equivalent`` on alpha-renamed and on different states."""

import functools
import glob
import itertools
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import canon_oracle as oracle
from conftest import generate_program, in_fresh_process
from test_subst_oracle import processes
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import render, safety as sf, terms as t, values as v
from ubsc.syntax import parse, parse_network

CORPUS = sorted(os.path.basename(f) for f in glob.glob(os.path.join(cp.corpus_dir(), "*.ubsc")))
GENERATED = [f"gen:{s}" for s in range(40)]


@functools.lru_cache(maxsize=None)
def _network(name: str) -> t.Network:
    if name.startswith("gen:"):
        return parse(generate_program(int(name[4:]))).network
    return cp.load_program(name).network


def _reached(name: str, seed: int, steps: int, loss: float = 0.3) -> list:
    cfg = eng.SchedulerConfig(seed=seed, loss_rate=loss, recovery_bias=0.2, max_steps=steps)
    states = []
    eng.run_scheduler(_network(name), cfg, digests=False,
                      on_step=lambda state, step: states.append(state))
    return states


def _alpha_variant(state: eng.RunState, rng: random.Random) -> t.Network:
    """The state's network with its restricted names renamed to fresh ones
    and its nodes in another order."""
    ren = {s: f"k{rng.randrange(10**6)}_{i}" for i, s in enumerate(state.restricted)}
    nodes = [t.rename_node_sessions(nd, ren) for nd in state.nodes]
    rng.shuffle(nodes)
    names = [ren[s] for s in state.restricted]
    rng.shuffle(names)
    return t.restrict_all(names, t.par_all(nodes))


def _assert_matches_oracle(state: eng.RunState) -> None:
    assert (eng.canonical_text(state.restricted, state.nodes)
            == oracle.canonical_text(state.restricted, state.nodes))
    net = state.to_network()
    assert eng.normalize(net) == oracle.normalize(net)


def test_corpus_covers_every_family():
    assert "paxos_multi.ubsc" in CORPUS and "paxos5.ubsc" in CORPUS
    assert len(CORPUS) >= 10


@pytest.mark.parametrize("name", CORPUS)
def test_every_corpus_program_matches_oracle(name):
    for seed in (0, 1):
        for state in _reached(name, seed, 60):
            _assert_matches_oracle(state)


@settings(max_examples=60, deadline=None)
@given(name=hs.sampled_from(CORPUS + GENERATED), seed=hs.integers(0, 2**16),
       steps=hs.integers(1, 80), loss=hs.sampled_from([0.0, 0.3, 0.7]))
def test_reached_states_match_oracle(name, seed, steps, loss):
    states = _reached(name, seed, steps, loss)
    for state in states[-10:]:
        _assert_matches_oracle(state)


@settings(max_examples=40, deadline=None)
@given(name=hs.sampled_from(CORPUS + GENERATED), seed=hs.integers(0, 2**16),
       steps=hs.integers(1, 60), shuffle=hs.integers(0, 2**16))
def test_networks_equivalent_matches_oracle(name, seed, steps, shuffle):
    states = _reached(name, seed, steps)
    if not states:
        return
    rng = random.Random(shuffle)
    a = states[-1].to_network()
    b = _alpha_variant(states[-1], rng)
    c = states[rng.randrange(len(states))].to_network()
    for x, y in ((a, b), (a, c), (b, c)):
        want = oracle.canonical_render(x) == oracle.canonical_render(y)
        assert eng.networks_equivalent(x, y) == want


def test_long_paxos_run_matches_oracle():
    """Late states carry long ballot expressions and dozens of buffers per
    node; check a stretch of them state by state."""
    states = _reached("paxos5.ubsc", 26508, 400)
    for state in states[::7]:
        _assert_matches_oracle(state)


@pytest.mark.parametrize("name", ["paxos3.ubsc", "paxos5.ubsc"])
def test_bfs_visited_states_match_oracle(name, monkeypatch):
    """Every state the progress and recovery searches reach, from states
    the scheduler reaches, digested in reach order: the text made with the
    node records left by the states digested before it is the oracle's."""
    starts = _reached(name, 0, 60) + _reached(name, 1, 60)
    sf._expansions.cache_clear()  # an expansion kept by an earlier search applies nothing
    made = []
    apply = eng.apply_redex
    monkeypatch.setattr(eng, "apply_redex", lambda st, r: made.append(apply(st, r)) or made[-1])
    for state in starts:
        made.append(state)
        for sess, c in sf.progress_shape_sessions(state):
            sf.session_progress_search(state, sess, c)
        for sess, c in sf.recovery_shape_sessions(state):
            sf.session_recovery_search(state, sess, c)
    assert len(made) > 500
    for state in made:
        text = eng.canonical_text(state.restricted, state.nodes)
        assert text == oracle.canonical_text(state.restricted, state.nodes)


def test_node_records_follow_the_restricted_set():
    """The same node objects digested under two restricted sets, with other
    states digested in between: each text is the oracle's, so a record's
    masked and renamed texts are not reused once what they were rendered
    under has changed."""
    states = _reached("paxos5.ubsc", 4, 120)
    state, other = states[-1], states[-3]
    live = [r for r in state.restricted if any(r in eng._node_names(nd) for nd in state.nodes)]
    fewer = tuple(live[1::2])
    shared = set(map(id, state.nodes)) & set(map(id, other.nodes))
    assert len(live) >= 4 and shared
    # the node order under the mask picks which of two stable assignments
    # the fixpoint keeps: restricting u alone puts b first, s and u a first
    a = parse_network("[ s!<1>. u!<2>. 0 | s~0:[] ]")
    b = parse_network("[ u!<1>. s!<3>. 0 | u~0:[] ]")
    for restricted in (("u",), ("s", "u"), ("s",), ("s", "u")):
        assert (eng.canonical_text(restricted, (a, b))
                == oracle.canonical_text(restricted, (a, b)))
    for restricted, nodes in [(state.restricted, state.nodes), (fewer, state.nodes),
                              (other.restricted, other.nodes), (state.restricted, state.nodes),
                              (other.restricted, other.nodes), (fewer, state.nodes),
                              (fewer, other.nodes), (state.restricted, state.nodes)]:
        assert (eng.canonical_text(restricted, nodes)
                == oracle.canonical_text(restricted, nodes))


def test_redigest_renders_no_node():
    """Digesting a state again under the same assignment reuses every
    node's text: no ``_node_render`` lookup, hit or miss."""
    for name in ("paxos3.ubsc", "paxos5.ubsc"):
        for state in _reached(name, 2, 80):
            first = state.digest()
            info = eng._node_render.cache_info()
            assert state.digest() == first
            again = eng._node_render.cache_info()
            assert again.hits + again.misses == info.hits + info.misses


def _fresh_caches():
    for fn in (render.process_template, render._defs_block, render._shape_template,
               eng._node_render):
        fn.cache_clear()


def _assert_node_texts_match_oracle(node: t.NetworkNode) -> None:
    """``_node_render`` against the oracle under no renaming, under the mask
    and under an ``r<i>`` assignment of the node's names."""
    names = sorted(oracle._node_names(node))
    for ren in ((), tuple((s, "?") for s in names),
                tuple((s, f"r{i}") for i, s in enumerate(reversed(names)))):
        assert eng._node_render(node, ren) == oracle._node_render(node, ren)


def test_name_ordered_sum_falls_back():
    """Alternatives that differ only in which session they use sort by the
    names filling the holes: no template, but the same text as the oracle
    under every naming."""
    _fresh_caches()
    node = parse_network("[ s!<1>. 0 + u!<1>. 0 | s~0:[] | u~0:[] ]")
    assert render.process_template(node.process) is None
    for names in (("s", "u"), ("u", "s")):
        nodes = (node,)
        assert eng.canonical_text(names, nodes) == oracle.canonical_text(names, nodes)
        for ren in ((("s", "z"),), (("u", "a"),), (("s", "?"), ("u", "?"))):
            assert eng._node_render(node, ren) == oracle._node_render(node, ren)


def test_definition_with_a_name_ordered_sum_falls_back():
    """A definition body whose sum sorts by the names filling its holes has
    no block template, so its process has none; the node text is still the
    oracle's."""
    _fresh_caches()
    node = parse_network("[ def D(x) = s!<1>. 0 + u!<1>. 0 in D(1) | s~0:[] | u~0:[] ]")
    assert render._defs_block(node.process.defs) is None
    assert render.process_template(node.process) is None
    _assert_node_texts_match_oracle(node)


def test_sum_ordered_by_text_before_holes_keeps_template():
    node = parse_network("[ def D(x) = 0, E(y) = 0 in (E(u) + D(s)) | s~0:[] | u~0:[] ]")
    assert render.process_template(node.process) is not None
    for ren in ((), (("s", "z"),), (("s", "?"), ("u", "?")), (("s", "r1"), ("u", "r0"))):
        assert eng._node_render(node, ren) == oracle._node_render(node, ren)


def test_hole_mark_in_string_value_falls_back():
    node = parse_network('[ s!<"a\x00s\x00b">. 0 | s~0:[] ]')
    texts, _ = render._shape_template(None, render._shape(node.process))
    assert not any("\x00" in part for part in texts)
    assert eng.canonical_text(("s",), (node,)) == oracle.canonical_text(("s",), (node,))
    assert "\x00" in eng._node_render(node, (("s", "r0"),))


def test_bodies_differing_in_closed_expressions_share_a_template():
    """Two bodies that differ only in the closed expressions inside a sum
    whose order the text before its holes fixes: one shape, one template."""
    _fresh_caches()
    src = "[ def D(x, k) = k!<x>. 0, E(y) = 0 in (E({}) + D({}, s)) | s~0:[] | *s~1:[] ]"
    a, b = parse_network(src.format(2, "eps + 1")), parse_network(src.format(12, "eps + 1 + 1"))
    assert a.process is not b.process
    assert render._shape(a.process.body) is render._shape(b.process.body)
    for node in (a, b):
        assert render.process_template(node.process) is not None
        _assert_node_texts_match_oracle(node)
    assert render._shape_template.cache_info().misses == 1


def test_sum_ordered_by_a_closed_expression_falls_back():
    """Alternatives that differ only in a closed expression sort by its
    text: no template, but the oracle's text."""
    node = parse_network("[ def D(x) = 0 in (D(2) + D(10)) | s~0:[] ]")
    assert render.process_template(node.process) is None
    _assert_node_texts_match_oracle(node)


def test_closed_payloads_keep_their_parentheses():
    """A closed payload's placeholder keeps its operator's level, so the
    template holds the parentheses its position gives it."""
    low, high = (parse_network(f"[ s!<{e}>. 0 | s~0:[] ]") for e in ("(1 < 2)", "1 + 2"))
    assert render._shape(low.process) is not render._shape(high.process)
    assert "!<(1 < 2)>" in "".join(render.process_template(low.process))
    assert "!<1 + 2>" in "".join(render.process_template(high.process))
    for node in (low, high):
        _assert_node_texts_match_oracle(node)


def test_string_with_hole_mark_fills_a_template():
    """A string holding the hole mark is a fill like any closed expression,
    in a definition body and in the body it calls from."""
    node = parse_network('[ def D(x) = s!<"\x00">. 0 in D("a\x00b") | s~0:[] ]')
    assert render.process_template(node.process) is not None
    _assert_node_texts_match_oracle(node)


def _wide_sum(n: int) -> t.NetworkNode:
    """A node whose process is a sum of ``n`` alternatives ``s!<i>. 0``."""
    s = t.Endpoint("s", False)
    p = t.Send(s, v.Lit(v.IntV(n - 1)), t.Inact())
    for i in reversed(range(n - 1)):
        p = t.Sum(t.Send(s, v.Lit(v.IntV(i)), t.Inact()), p)
    return t.NetworkNode(p, (t.Buffer(s, 0, ()),))


def test_wide_sums_digest_in_one_walk():
    """A wide sum has no template (its alternatives share one shape) and is
    digested by one canonical walk, without renaming the node first; 2,000
    alternatives print and digest without ``RecursionError``."""
    node = _wide_sum(200)
    assert render.process_template(node.process) is None
    assert eng.canonical_text(("s",), (node,)) == oracle.canonical_text(("s",), (node,))
    _assert_node_texts_match_oracle(node)
    wide = _wide_sum(2000)
    assert render.render_process(wide.process).count("!<") == 2000
    text = eng.canonical_text(("s",), (wide,))
    assert text.startswith("new r0. [ r0!<0>. 0 + (r0!<1000>. 0 + ") and text.count("!<") == 2000


def _templates_made() -> tuple:
    """(templates made, processes filled) over a 300-step paxos5 run with
    digests, from empty caches."""
    _fresh_caches()
    cfg = eng.SchedulerConfig(seed=26508, loss_rate=0.3, recovery_bias=0.2, max_steps=300)
    eng.run_scheduler(_network("paxos5.ubsc"), cfg)
    return (render._shape_template.cache_info().misses,
            render.process_template.cache_info().misses)


def test_paxos_run_makes_few_templates():
    """Templates are made per body shape, not per new process: a 300-step
    paxos5 run with digests makes fewer than 100 of them, and fills them for
    over three times as many processes.  The run is made in a process of its
    own: nodes another test still holds would come back with their records."""
    made, filled = in_fresh_process("test_digest", "_templates_made()")
    assert 0 < made < 100
    assert 3 * made < filled


def test_node_names_are_its_template_names():
    """A node's digest record takes its process's names from the process
    template, the names the template is filled with, and from the process
    facts (its free sessions and shared names) when there is no template.
    On every node process the corpus programs reach (seeds 0-2, 300 steps
    each) the two agree."""
    procs = {nd.process for name in CORPUS for seed in range(3)
             for state in _reached(name, seed, 300) for nd in state.nodes}
    checked = 0
    for p in procs:
        if (parts := render.process_template(p)) is not None:
            sessions, shared, _ = t.process_facts(p)
            assert frozenset(parts[1::2]) == sessions | shared, p
            checked += 1
    assert checked > 2000


def _facts_memoised(digests: bool, steps: int = 300) -> int:
    """How many distinct terms hold memoised process facts after a paxos5
    run (seed 26508, ``steps`` steps) with or without digests, while every
    state of the run is still held."""
    states = []
    cfg = eng.SchedulerConfig(seed=26508, loss_rate=0.3, recovery_bias=0.2, max_steps=steps)
    eng.run_scheduler(_network("paxos5.ubsc"), cfg, digests=digests,
                      on_step=lambda state, step: states.append(state))
    return sum(hasattr(ref(), "_facts") for ref in list(v._TABLE.values()))


def test_digests_fold_no_process_facts():
    """A node's record takes its names from its process's template, so a
    digested run memoises process facts on no more processes than the same
    run undigested.  Each run is made in a process of its own, from empty
    caches and no interned terms."""
    undigested = in_fresh_process("test_digest", "_facts_memoised(False)")
    digested = in_fresh_process("test_digest", "_facts_memoised(True)")
    assert 0 < digested <= undigested, (digested, undigested)


def test_untemplated_node_takes_names_from_facts():
    """A node whose process has no template (a sum under its definitions
    ordered by a hole) takes its names from the process facts: the sessions
    of the definition body and of the body's own endpoint.  Its texts are
    the oracle's, under each restricted set."""
    node = parse_network("[ def D(x) = s!<1>. 0 + u!<1>. 0 in w!<2>. D(1) "
                         "| s~0:[] | u~0:[] | w~0:[] | z~1:[] ]")
    f = eng._node_digest(node)
    sessions, shared, _ = t.process_facts(node.process)
    assert f.parts is None and f.named == sessions | shared == {"s", "u", "w"}
    assert f.block.bufs == node.buffers[3:]
    _assert_node_texts_match_oracle(node)
    other = parse_network("[ w?(y). 0 | w~0:[] | s~2:[] ]")
    for restricted in (("s", "u", "w", "z"), ("w",), ("z", "u"), ("s", "u", "w", "z")):
        nodes = (node, other)
        assert eng.canonical_text(restricted, nodes) == oracle.canonical_text(restricted, nodes)


@settings(max_examples=300, deadline=None)
@given(processes())
def test_record_names_are_the_process_facts(p):
    """On generated processes, which nest sums under definitions and calls,
    a node's record names its process's free sessions and shared names,
    whether they come from a template or, without one, from the facts."""
    s, z = t.Endpoint("s", False), t.Endpoint("z", True)
    node = t.NetworkNode(p, (t.Buffer(s, 0, ()), t.Buffer(z, 1, ())))
    f = eng._node_digest(node)
    sessions, shared, _ = t.process_facts(p)
    assert f.named == sessions | shared
    assert (f.parts is None) == (render.process_template(p) is None)
    assert eng._node_names(node) == oracle._node_names(node)


def _chain_state(k: int) -> tuple:
    """A state of ``k`` nodes, the i-th sending i on its own restricted
    session ``s<i>``."""
    eps = [t.Endpoint(f"s{i}", False) for i in range(k)]
    nodes = tuple(t.NetworkNode(t.Send(ep, v.Lit(v.IntV(i)), t.Inact()), (t.Buffer(ep, 0, ()),))
                  for i, ep in enumerate(eps))
    return tuple(ep.session for ep in eps), nodes


def test_canonical_names_follow_the_name_count():
    """Digest states of 300, 5, 300 again and then 302 restricted names,
    each assignment made afresh: each text is the oracle's and begins with
    the binders of exactly its names."""
    states = {k: _chain_state(k) for k in (300, 5, 302)}
    for k in (300, 5, 300, 302):
        eng._assignment.cache_clear()
        restricted, nodes = states[k]
        text = eng.canonical_text(restricted, nodes)
        assert text == oracle.canonical_text(restricted, nodes)
        binders = "".join(f"new r{i}. " for i in range(k))
        assert text.startswith(binders) and text[len(binders):].startswith("([ "), k


def test_nodes_tied_under_the_mask_digest_as_the_oracle():
    """Two unit-process nodes whose texts tie once the restricted names are
    masked keep their normal (plain-text) order: in every input order the
    canonical text is the oracle's."""
    nodes = (parse_network("[ a!<2>. 0 | a~1:[] | *d~1:[] | *b~1:[] ]"),
             parse_network("[ 0 | *b~0:[] ]"), parse_network("[ 0 | *a~0:[] ]"))
    restricted = ("d", "c", "a", "b")
    want = oracle.canonical_text(restricted, nodes)
    for order in itertools.permutations(nodes):
        assert eng.canonical_text(restricted, order) == want, order


def test_masked_buffer_ties_keep_node_order():
    node = parse_network("[ 0 | u~1:[] | s~0:[] | *s~2:[] | *u~0:[] ]")
    mask = (("s", "?"), ("u", "?"))
    assert eng._node_render(node, mask) == oracle._node_render(node, mask)
    assert eng._node_render(node, ()) == oracle._node_render(node, ())


def _defs_blocks_used() -> tuple:
    """(definitions blocks cached, hits) over digesting every state of a
    120-step paxos5 run, from empty caches."""
    _fresh_caches()
    states = _reached("paxos5.ubsc", 3, 120)
    for state in states:
        eng.canonical_text(state.restricted, state.nodes)
    info = render._defs_block.cache_info()
    return info.currsize, info.hits


def test_definition_block_shared_across_processes():
    """Nodes of one program share one cached definitions block.  The run is
    made in a process of its own, as nodes another test still holds would
    come back with their records."""
    currsize, hits = in_fresh_process("test_digest", "_defs_blocks_used()")
    assert currsize <= 5 < hits


def test_closed_expressions_are_not_rebuilt():
    e = v.BinOp("+", v.BinOp("+", v.Lit(v.IntV(1)), v.Lit(v.IntV(1))), v.Lit(v.IntV(1)))
    assert render._canon_expr(e, {"x": "v0"}) is e
    open_e = v.BinOp("+", e, v.Var("x"))
    assert render._canon_expr(open_e, {"x": "v0"}) == v.BinOp("+", e, v.Var("v0"))


@pytest.mark.parametrize("module", [eng, v, render, t])
def test_caches_are_bounded(module):
    for obj in vars(module).values():
        if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__:
            assert obj.cache_parameters()["maxsize"] is not None, obj


class _LongRun:
    """A 3000-step paxos5 run (seed 26508), digested step by step as the
    scheduler digests it, with two work counts per step: buffers rendered
    one at a time (the live ones, in ``_render``) and block fills.  It keeps
    every ``KEEP``-th state, the states just after the fresh counter reaches
    ``s#10`` and ``s#100``, and the states around a True/False/BRec step
    that shrinks the acting node's block."""

    STEPS, KEEP = 3000, 100

    def __init__(self):
        self.rendered, self.fills = [0], [0]
        self.kept, self.crossings, self.shrinks = [], [], []
        render, fill = eng._render, eng._Block.fill

        def counted_render(record, ren, ents):
            self.rendered[-1] += len(record.live)
            return render(record, ren, ents)

        def counted_fill(blk, ren):
            self.fills[-1] += 1
            return fill(blk, ren)

        prev = [None]

        def on_step(state, step):
            i, before = step.index, prev[0]
            if i % self.KEEP == 0:
                self.kept.append(state)
            if before is not None and (before.fresh, state.fresh) in ((10, 11), (100, 101)):
                self.crossings.append(state)
            if step.rule in ("True", "False", "BRec") and not self.shrinks:
                old = eng._node_digest(before.nodes[step.sender]).block.bufs
                if len(eng._node_digest(state.nodes[step.sender]).block.bufs) < len(old):
                    self.shrinks += [before, state]
            prev[0] = state
            self.rendered.append(0)
            self.fills.append(0)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eng, "_render", counted_render)
            mp.setattr(eng._Block, "fill", counted_fill)
            cfg = eng.SchedulerConfig(seed=26508, loss_rate=0.3, recovery_bias=0.2,
                                      max_steps=self.STEPS)
            eng.run_scheduler(_network("paxos5.ubsc"), cfg, on_step=on_step)
        # the initial digest counts with step 0; the entry after the last step is empty
        self.rendered, self.fills = self.rendered[:self.STEPS], self.fills[:self.STEPS]

    @staticmethod
    def per_step(counts: list, lo: int, hi: int) -> float:
        return sum(counts[lo:hi]) / (hi - lo)


@pytest.fixture(scope="module")
def long_run():
    return _LongRun()


def _long_run_work() -> tuple:
    """The long run's per-step counts: buffers rendered one at a time, and
    block fills."""
    run = _LongRun()
    return run.rendered, run.fills


def test_long_run_digest_work_stays_flat():
    """Buffers rendered one at a time per digested step, and block fills per
    step, in the last 500 steps of the run stay within 1.2x of the first
    500: finished buffers are never rendered one at a time, and a block is
    filled only when it forms or a map renames one of its names.  The run is
    made in a process of its own, as nodes another test still holds would
    come back with their records."""
    rendered, fills = in_fresh_process("test_digest", "_long_run_work()")
    assert len(rendered) == _LongRun.STEPS
    for counts in (rendered, fills):
        early, late = _LongRun.per_step(counts, 0, 500), _LongRun.per_step(counts, 2500, 3000)
        assert 0 < late <= 1.2 * early, (early, late)


def test_long_run_states_match_oracle(long_run):
    """The kept states of the long run against the oracle: canonical text,
    normal form, and equivalence with an alpha-variant, which is made for
    every fifth kept state and each special one.  The oracle canonicalises
    and renders every node of a state again, so states are kept 100 steps
    apart to bound this test's time.  A variant is not always equivalent to
    its state: within a node, restricted names are met in the order of
    their names, so both canonicalisers can assign them differently."""
    assert len(long_run.kept) == _LongRun.STEPS // _LongRun.KEEP
    assert [s.fresh for s in long_run.crossings] == [11, 101]
    assert len(long_run.shrinks) == 2
    rng = random.Random(7)
    for k, state in enumerate(long_run.kept + long_run.crossings + long_run.shrinks):
        net = state.to_network()
        variant = k % 5 == 0 or k >= len(long_run.kept)
        nets = (net, _alpha_variant(state, rng)) if variant else (net,)
        texts = list(map(oracle.canonical_render, nets))
        for n, text in zip(nets, texts):
            assert eng.canonical_text(*t.flatten_nodes(n)) == text
            _assert_normal_form_matches_oracle(n)
        if variant:
            assert eng.networks_equivalent(*nets) == (texts[0] == texts[1])


def test_long_run_node_texts_match_oracle(long_run):
    """``_node_render`` and ``_node_names``, made from each node's digest
    record, against the oracle on every node of the kept states: under no
    renaming, the mask, and the state's canonical ``r<i>`` assignment.  Most
    of these nodes hold finished and live buffers of one polarity, which tie
    under the mask, so the record's sort entries must keep node order on
    ties.  In these states a node's live buffers follow its finished ones;
    the last node here has them in between."""
    mixed = 0
    for state in long_run.kept:
        eng.canonical_text(state.restricted, state.nodes)
        assigned = eng._node_digest(state.nodes[0]).last[1][0]
        mask = tuple((s, "?") for s in state.restricted)
        for nd in state.nodes:
            f = eng._node_digest(nd)
            mixed += bool(f.live and f.block.bufs)
            assert eng._node_names(nd) == oracle._node_names(nd)
            for ren in ((), mask, tuple(assigned.items())):
                assert eng._node_render(nd, ren) == oracle._node_render(nd, ren)
    assert mixed > len(long_run.kept)
    node = parse_network("[ s!<1>. 0 | s~0:[] | u~0:[] | *s~0:[] | *u~1:[] ]")
    assert [r for _, _, r, _, _ in eng._node_digest(node).live] == [-1, 0]
    for ren in ((), (("s", "?"), ("u", "?")), (("s", "r1"), ("u", "r0"))):
        assert eng._node_render(node, ren) == oracle._node_render(node, ren)


def _assert_normal_form_matches_oracle(net: t.Network) -> None:
    """``normalize``'s parts against the oracle's normal form, node by node:
    each node is the same object in both."""
    names, nodes = t.flatten_nodes(eng.normalize(net))
    want_names, want_nodes = t.flatten_nodes(oracle.normalize(net))
    assert names == tuple(want_names) and len(nodes) == len(want_nodes)
    assert all(a is b for a, b in zip(nodes, want_nodes))
