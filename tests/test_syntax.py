import os
import re

import pytest

from ubsc import engine as eng
from ubsc import sestypes as st
from ubsc import terms as t
from ubsc import values as v
from ubsc.corpus import corpus_dir
from ubsc.render import render_network, render_process, render_type
from ubsc.syntax import (UBSCSyntaxError, parse, parse_declared, parse_expr,
                         parse_network, parse_process, parse_type, pretty_print)


def test_parse_two_node_beacon():
    net = parse_network('[ *s!<"hbt">. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ]')
    _, nodes = t.flatten_nodes(net)
    assert len(nodes) == 2
    assert isinstance(nodes[0].process, t.Send)
    assert nodes[0].process.chan == t.Endpoint("s", True)


def test_parse_inactive_node():
    net = parse_network("[0]")
    assert net == t.NetworkNode(t.Inact(), ())


def test_parse_tagged_queue():
    net = parse_network('[ 0 | *s~0:[(0, "hbt2"), (1, "hbt2"), (0, "hbt1")] ]')
    buf = net.buffers[0]
    assert buf.ep == t.Endpoint("s", True)
    assert buf.queue == (
        t.TaggedMsg(0, v.StrV("hbt2")),
        t.TaggedMsg(1, v.StrV("hbt2")),
        t.TaggedMsg(0, v.StrV("hbt1")),
    )


def test_tagged_message_rejected_in_plain_buffer():
    with pytest.raises(UBSCSyntaxError):
        # a plain buffer parses (0, 1) as a pair value, so force a label-tag mix
        parse_network("[ 0 | *s~0:[#foo] ]")


def test_duplicate_branch_labels_rejected():
    with pytest.raises(UBSCSyntaxError):
        parse_process("s>>{a: 0, a: 0, df: 0}")


def test_positioned_error():
    with pytest.raises(UBSCSyntaxError) as exc:
        parse("[ s!< ]")
    assert exc.value.line == 1


def test_every_production_reachable():
    """Every term constructor is reachable from the grammar."""
    text = """
type T = !int. ?str. +{go: end, stop: rec t. !bool. t}
shared a : T

new u. (
  [ req a(*x). *x?(y). *x!<"r">. *x<<go. 0
  | u~0:[1, #lab, (2, 3)] ]
  || [ acc a(w). w!<1 + 2>. w?(z) def eps. w>>{go: 0, stop: 0, df: 0}
     | *u~1:[(0, {(1, 2)})] ]
  || [ def D(p) = if p > 0 then D(p - 1) else 0 in (D(3) + 0) >r 0 ]
)
"""
    prog = parse(text)
    again = parse(pretty_print(prog))
    assert eng.networks_equivalent(prog.network, again.network)
    assert prog.type_decls.keys() == again.type_decls.keys()

    seen = set()

    def walk_p(p):
        seen.add(type(p))
        match p:
            case t.Request(_, _, b) | t.Accept(_, _, b) | t.Send(_, _, b) | \
                 t.Select(_, _, b):
                walk_p(b)
            case t.Recv(_, _, _, b):
                walk_p(b)
            case t.Branch(_, arms, df):
                for _, ap in arms:
                    walk_p(ap)
                walk_p(df)
            case t.Sum(l, r) | t.Cond(_, l, r) | t.Recover(l, r):
                walk_p(l)
                walk_p(r)
            case t.Defs(defs, b):
                for _, _, db in defs:
                    walk_p(db)
                walk_p(b)
            case _:
                pass

    def walk_n(n):
        seen.add(type(n))
        match n:
            case t.NetworkNode(p, bufs):
                walk_p(p)
                for b in bufs:
                    for m in b.queue:
                        seen.add(type(m))
            case t.Par(parts):
                for part in parts:
                    walk_n(part)
            case t.Restrict(_, b):
                walk_n(b)

    walk_n(prog.network)
    required = {t.Inact, t.Request, t.Accept, t.Send, t.Recv, t.Select,
                t.Branch, t.Sum, t.Cond, t.Defs, t.Call, t.Recover,
                t.NetworkNode, t.Par, t.Restrict,
                t.ValMsg, t.LabMsg, t.TaggedMsg}
    assert required <= seen, required - seen


CORPUS_FILES = sorted(f for f in os.listdir(corpus_dir()) if f.endswith(".ubsc"))


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_round_trip_corpus(name):
    with open(os.path.join(corpus_dir(), name), encoding="utf-8") as fh:
        prog = parse(fh.read())
    again = parse(pretty_print(prog))
    assert eng.networks_equivalent(prog.network, again.network)
    # and pretty-printing is stable modulo one round
    assert pretty_print(again) == pretty_print(parse(pretty_print(again)))


def test_pretty_renders_counters_exactly():
    net = parse_network("[ 0 | s~2:[] ]")
    assert "s~2:[]" in render_network(net)


def test_type_round_trip():
    for text in ["!int.end", "?(int, int).end", "+{a: end, b: !str.end}",
                 "&{a: ?int.end, b: end}", "rec t.!int.t",
                 "!set((int, (int, int))).end"]:
        ty = parse_type(text)
        assert parse_type(render_type(ty)) == ty


def test_expr_parse_precedence():
    e = parse_expr("1 + 2 * 3 > 4 and true")
    assert v.eval_expr(e, {}) == v.TRUE
    assert v.eval_expr(parse_expr("{(1, 2)} union {(3, 4)}"), {}) == v.mkset(
        [v.PairV(v.IntV(1), v.IntV(2)), v.PairV(v.IntV(3), v.IntV(4))]
    )


@pytest.mark.parametrize("text", ["s>>{df: 0}", "if (x < 1) = true then 0 else 0"])
def test_printed_process_parses_back(text):
    """A branch with only its default arm, and a comparison nested in a
    comparison, print as text that parses back to the same term."""
    p = parse_process(text)
    assert parse_process(render_process(p)) == p


@pytest.mark.parametrize("text, message", [
    ("s>>{a: 0, df: 0, df: s!<1>. 0}", "duplicate branch labels ['a', 'df', 'df']"),
    ("s>>{}", "empty branch"),
    ("s>>{a: 0,}", "expected a name, found '}'"),
    ("def X(a b) = 0 in X(1, 2)", "expected ')', found 'b'"),
])
def test_malformed_list_fails(text, message):
    with pytest.raises(UBSCSyntaxError, match=re.escape(message)):
        parse_process(text)


def test_parameter_rebound_before_its_channel_use_is_no_channel():
    """``c``'s only channel use is under ``acc a(c)``, which binds a new
    ``c``, so ``A``'s parameter is no channel and ``A(y)`` keeps ``y`` as an
    expression."""
    p = parse_process("s?(y). def A(c) = acc a(c). c?(z). 0 in A(y)")
    assert p.body.body == t.Call("A", (v.Var("y"),))


def test_channel_parameters_pass_through_nested_blocks():
    """Thirty nested blocks, each passing its channel parameter to the next
    one's definition, resolve in a few walks of the node: each call passes
    a channel variable, the outermost an endpoint."""
    d = 30
    text = ("".join(f"def A{i}(c{i}) = " for i in range(1, d + 1)) + f"c{d}!<1>. 0"
            + "".join(f" in A{i}(c{i - 1})" for i in range(d, 1, -1)) + " in A1(s)")
    p, args = parse_process(text), []
    while type(p) is t.Defs:
        args += p.body.args
        p = p.defs[0][2]
    assert args == [t.Endpoint("s", False)] + [t.ChanVar(f"c{i}", False) for i in range(1, d)]


def test_recv_default_sugar():
    p = parse_process("s?(x). 0")
    assert p.default == v.Lit(v.UNIT)


def test_comments_ignored():
    prog = parse("-- a comment\n[0] -- trailing\n")
    assert prog.network == t.NetworkNode(t.Inact(), ())


@pytest.mark.parametrize("parser, text, message", [
    (parse, "[ 0 ] $", "<input>:1:7: unexpected character '$'"),
    (parse, "type T = +{l: end, l: end}\n[ 0 ]",
     "<input>:1:10: duplicate branch labels ['l', 'l']"),
    (parse, "type T = &{}\n[ 0 ]", "<input>:1:10: empty label set"),
    (parse, "type T = rec X.X\n[ 0 ]", "<input>:1:10: non-contractive recursive type rec X"),
    (parse, "type T = ?int.U\n[ 0 ]", "<input>:1:15: unknown type name U"),
    (parse, "type T = 3\n[ 0 ]", "<input>:1:10: expected a session type, found '3'"),
    (parse, "type T = !foo.end\n[ 0 ]", "<input>:1:11: expected a base type, found 'foo'"),
    (parse, "shared a : T\n[ 0 ]", "<input>:1:12: undeclared protocol type T"),
    (parse, "[ 0 | s~x:[] ]", "<input>:1:9: expected a state counter"),
    (parse, "[ 0 | *s~0:[(x, 1)] ]", "<input>:1:14: expected a message tag"),
    (parse, "[ 0 | s~0:[x] ]",
     "<input>:1:12: buffer message must be a closed value (unbound variable x)"),
    (parse, "[ s. 0 ]", "<input>:1:4: expected a session prefix after s"),
    (parse_declared, "s:(x, end)", "<input>:1:4: expected a state counter"),
], ids=lambda x: x.__name__ if callable(x) else None)
def test_error_names_its_position(parser, text, message):
    """Each failure reports the whole message at the token it is about."""
    with pytest.raises(UBSCSyntaxError) as exc:
        parser(text)
    assert str(exc.value) == message


def test_unit_payload_and_an_earlier_declared_type():
    prog = parse("type U = !unit.end\ntype T = ?int.U\n[ 0 ]")
    assert prog.type_decls["U"] == st.Out(v.UNIT_T, st.END)
    assert prog.type_decls["T"] == st.In(v.INT_T, prog.type_decls["U"])
