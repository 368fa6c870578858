"""The parser against the expression ladder and list loops it replaced.

``syntax._Parser.expr`` climbs the levels of ``values.OP_LEVEL``, the table
the printer writes with, and every comma list goes through ``_Parser.seq``.
``parse_oracle`` holds the earlier parsing verbatim.  The two return equal
terms on every corpus program (raw and recovery-encoded), on the generated
programs and on every printed process subterm ``test_render`` collects.  A
printed expression parses back to the same term, nested comparisons
included, which the oracle rejects."""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import parse_oracle as oracle
from conftest import generate_program
from test_render import CORPUS, _inputs
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import values as v
from ubsc.render import render_expr, render_process
from ubsc.syntax import UBSCSyntaxError, parse, parse_expr, parse_process, pretty_print


def _program_text(kind: str, arg) -> str:
    if kind == "generated":
        return generate_program(arg)
    if kind == "corpus":
        with open(os.path.join(cp.corpus_dir(), arg), encoding="utf-8") as fh:
            return fh.read()
    prog = cp.load_program(arg)
    prog.network = eng.encode_network(prog.network)
    return pretty_print(prog)


@pytest.mark.parametrize("kind, arg", [("corpus", name) for name in CORPUS]
                         + [("encoded", name) for name in CORPUS]
                         + [("generated", seed) for seed in range(40)])
def test_programs_parse_as_oracle(kind, arg):
    text = _program_text(kind, arg)
    assert parse(text) == oracle.parse(text)


def test_printed_subterms_parse_as_oracle():
    """Fresh names ``s#k`` are written with ``#``, which lexes as an
    operator; written ``s_k`` every subterm parses."""
    for p in _inputs():
        text = render_process(p).replace("#", "_")
        assert parse_process(text) == oracle.parse_process(text), text


LEAVES = hs.sampled_from([v.Var("a"), v.Var("b"), v.Lit(v.IntV(-1)), v.Lit(v.IntV(2)),
                          v.Lit(v.TRUE), v.Lit(v.EPS)])
EXPRS = hs.recursive(LEAVES, lambda kids: hs.builds(v.BinOp, hs.sampled_from(sorted(v.OP_LEVEL)),
                                                   kids, kids), max_leaves=16)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(EXPRS)
@example(v.BinOp("=", v.BinOp("<", v.Var("a"), v.Var("b")), v.Lit(v.TRUE)))
def test_printed_expression_parses_back(e):
    assert parse_expr(render_expr(e)) == e


def test_oracle_rejects_nested_comparison():
    with pytest.raises(UBSCSyntaxError, match="trailing input '='"):
        oracle.parse_expr("a < b = true")
    assert parse_expr("a < b = true") == parse_expr("(a < b) = true")
