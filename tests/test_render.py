"""The process printer against the hand-written printer it replaced.

``render_process`` is the canonical walk of ``canon_process`` and the digest
templates, run with binders and sum order as written.  ``render_oracle``
holds the earlier printer verbatim.  The two agree on every subterm of the
corpus programs (raw and recovery-encoded), of the generated programs and
of scheduler-reached states, except on left-nested sums: the oracle writes
``Sum(Sum(a, b), c)`` as ``a + b + c``, which parses as ``a + (b + c)``, and
the walk writes the right-nested text, so a printed text is stable."""

import functools
import glob
import os

import pytest

import render_oracle as oracle
from conftest import generate_program
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import terms as t
from ubsc.render import canon_process, render_network, render_process
from ubsc.syntax import parse, parse_network, parse_process, pretty_print

CORPUS = sorted(os.path.basename(f) for f in glob.glob(os.path.join(cp.corpus_dir(), "*.ubsc")))
LEFT_NESTED = "(s!<1>. 0 + s!<2>. 0) + s!<3>. 0"
SUMS = [LEFT_NESTED, "s!<1>. 0 + (s!<2>. 0 + s!<3>. 0)",
        "((a!<1>. 0 + b!<2>. 0) >r 0) + (c!<3>. 0 + (d!<4>. 0 >r 0))",
        "(if true then s!<1>. 0 else s!<2>. 0) + s!<3>. 0", "(def D() = 0 in D()) >r 0"]


def _subterms(p: t.Process, seen: set) -> None:
    """Every subterm of ``p`` not in ``seen``, added to it."""
    stack = [p]
    while stack:
        q = stack.pop()
        if q not in seen:
            seen.add(q)
            stack.extend(k for _, k in t.layer(q)[2])


def _right_nested(p: t.Process) -> t.Process:
    """``p`` with every sum re-associated to the right."""
    while type(p) is t.Sum and type(p.left) is t.Sum:
        p = t.Sum(p.left.left, t.Sum(p.left.right, p.right))
    chans, exprs, kids = t.layer(p)
    return t.rebuild(p, chans, exprs, [_right_nested(k) for _, k in kids])


@functools.lru_cache(maxsize=None)
def _inputs() -> tuple:
    seen: set = set()
    nets = [cp.load_program(name).network for name in CORPUS]
    nets += [eng.encode_network(n) for n in nets]
    nets += [parse(generate_program(s)).network for s in range(40)]
    for net in nets:
        for nd in t.flatten_nodes(net)[1]:
            _subterms(nd.process, seen)
    for name in CORPUS:
        for seed in range(3):
            cfg = eng.SchedulerConfig(seed=seed, loss_rate=0.3, recovery_bias=0.2,
                                      max_steps=150)
            eng.run_scheduler(cp.load_program(name).network, cfg, digests=False,
                              on_step=lambda state, _: [_subterms(nd.process, seen)
                                                        for nd in state.nodes])
    for text in SUMS:
        _subterms(parse_process(text), seen)
    return tuple(seen)


def test_inputs_cover_every_constructor():
    kinds = {type(p) for p in _inputs()}
    assert kinds == {t.Inact, t.Request, t.Accept, t.Send, t.Recv, t.Select, t.Branch,
                     t.Sum, t.Cond, t.Defs, t.Call, t.Recover}


def test_printer_matches_oracle():
    """Byte-identical on every subterm; a left-nested sum prints as the
    oracle prints its right-nested form."""
    left_nested = 0
    for p in _inputs():
        q = _right_nested(p)
        left_nested += q is not p
        assert render_process(p) == oracle.render_process(q), p
    assert left_nested >= 1


def test_node_and_network_printers_match_oracle():
    for name in CORPUS:
        net = cp.load_program(name).network
        for n in (net, eng.encode_network(net)):
            assert render_network(n) == oracle.render_network(n)


@pytest.mark.parametrize("text", SUMS)
def test_printed_sum_is_stable(text):
    p = parse_process(text)
    once = render_process(p)
    assert render_process(parse_process(once)) == once
    assert parse_process(once) == _right_nested(p)
    assert canon_process(parse_process(once)) == canon_process(p)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_prints_stable(name):
    prog = cp.load_program(name)
    for nd in t.flatten_nodes(prog.network)[1]:
        once = render_process(nd.process)
        assert render_process(parse_process(once)) == once
    once = pretty_print(prog)
    assert pretty_print(parse(once)) == once


def test_pretty_print_of_left_nested_sum_is_stable():
    prog = parse(f"[ {LEFT_NESTED} | s~0:[] ]")
    once = pretty_print(prog)
    assert pretty_print(parse(once)) == once


def _shapes():
    """Small networks of every nesting of restriction and parallel
    composition, and the normal forms of scheduler-reached states."""
    a, b = parse_network("[ s!<1>. 0 | s~0:[] ]"), parse_network("[ 0 | *s~1:[(1, 2)] ]")
    yield from (t.Par((t.Par((a, b)), a)), t.Par((a, t.Par((b, a)))), t.Par((a, b, a)),
                t.Restrict(("s",), t.Par((a, b))), t.Restrict(("s", "u"), t.Par((a, b, a))),
                t.Par((t.Restrict(("s",), a),
                       t.Restrict(("u",), t.Par((b, t.Restrict(("v",), a)))))),
                t.Restrict(("s",), t.Restrict(("u",), t.Par((t.Restrict(("v", "w"), a), b)))))
    for name in ("paxos5.ubsc", "drop_connections.ubsc"):
        cfg = eng.SchedulerConfig(seed=1, loss_rate=0.3, recovery_bias=0.2, max_steps=200)
        states = []
        eng.run_scheduler(cp.load_program(name).network, cfg, digests=False,
                          on_step=lambda state, step: states.append(state))
        for state in states[::20]:
            yield eng.normalize(state.to_network())
            yield state.to_network()


def test_network_printer_matches_the_recursive_printer():
    """The network printer reads the parts of a parallel composition and
    the names of a restriction; its text is the printer of binary
    compositions and single restrictions, byte for byte."""
    import walk_oracle
    shapes = list(_shapes())
    assert len(shapes) > 10
    for n in shapes:
        assert render_network(n) == walk_oracle.render_network(n)


def test_long_restriction_chain_renders():
    """A long run holds over a thousand restricted names, all in one
    restriction, so 3,000 of them print without recursing."""
    node = parse_network("[ s0!<0>. 0 | s0~0:[] ]")
    names = [f"s{i}" for i in range(3000)]
    text = render_network(t.restrict_all(names, t.par_all([node, node])))
    one = render_network(node)
    assert text == "".join(f"new {n}. " for n in names) + f"({one} || {one})"
    assert render_network(t.restrict_all(names, t.par_all([node] * 3000))) == (
        "".join(f"new {n}. " for n in names) + "(" + " || ".join([one] * 3000) + ")")
