"""Surface syntax: lexer, recursive-descent parser, and program files.

Files are UTF-8 with ``--`` line comments.  A program is a sequence of named
protocol declarations, shared-channel declarations, and one network.  The
pretty-printer lives in :mod:`ubsc.render`; ``parse(render(x))`` is
alpha-equivalent to ``x``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, count, repeat

from . import sestypes as st
from . import terms as t
from . import values as v
from .render import render_chan, render_network, render_type


class UBSCSyntaxError(Exception):
    def __init__(self, msg, line=None, col=None, filename=None):
        self.line, self.col, self.filename = line, col, filename
        where = f"{filename or '<input>'}:{line}:{col}: " if line else ""
        super().__init__(where + msg)


KEYWORDS = {
    "type", "shared", "new", "req", "acc", "def", "in", "if", "then", "else",
    "rec", "end", "true", "false", "unit", "eps", "and", "or", "union", "df",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<recov>>r(?![A-Za-z0-9_]))
  | (?P<op>\|\||>>|<<|>=|<=|!=|[()\[\]{}<>~:,.|!?*+\-=#&])
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # op, int, string, name, kw, eof
    text: str
    line: int
    col: int


def lex(src: str, filename=None) -> list:
    toks = []
    i, line, col = 0, 1, 1
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if not m:
            raise UBSCSyntaxError(f"unexpected character {src[i]!r}", line, col, filename)
        text = m.group(0)
        kind = m.lastgroup
        if kind != "ws":
            if kind == "recov":
                toks.append(Token("op", ">r", line, col))
            elif kind == "name":
                toks.append(Token("kw" if text in KEYWORDS else "name", text, line, col))
            else:
                toks.append(Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        i = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


@dataclass
class SourceProgram:
    type_decls: dict  # name -> SessionType
    shared_decls: dict  # shared name -> type name
    network: t.Network

    def shared_types(self) -> dict:
        return {a: self.type_decls[tn] for a, tn in self.shared_decls.items()}


class _Parser:
    def __init__(self, toks, filename=None):
        self.toks = toks
        self.i = 0
        self.filename = filename
        self.type_decls: dict = {}

    # -- token helpers -------------------------------------------------
    def peek(self, ahead=0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def at(self, text, ahead=0) -> bool:
        tok = self.peek(ahead)
        return tok.text == text and tok.kind in ("op", "kw", "int")

    def accept(self, text) -> bool:
        """Consume the next token if it is ``text``; say whether it was."""
        if self.at(text):
            self.i += 1
            return True
        return False

    def expect(self, text) -> Token:
        tok = self.next()
        if tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise UBSCSyntaxError(msg, tok.line, tok.col, self.filename)

    def name(self) -> str:
        tok = self.next()
        if tok.kind != "name":
            self.fail(f"expected a name, found {tok.text!r}", tok)
        return tok.text

    def seq(self, item, close, *args) -> list:
        """``item(*args)`` separated by commas, then ``close``; none when
        ``close`` comes first."""
        items = []
        if not self.at(close):
            items.append(item(*args))
            while self.accept(","):
                items.append(item(*args))
        self.expect(close)
        return items

    def whole(self, result):
        """``result``, once the input has been read to its end."""
        if self.peek().kind != "eof":
            self.fail(f"trailing input {self.peek().text!r}")
        return result

    # -- program -------------------------------------------------------
    def program(self) -> SourceProgram:
        shared = {}
        while self.accept("type"):
            n = self.name()
            self.expect("=")
            self.type_decls[n] = self.stype(frozenset())
        while self.accept("shared"):
            a = self.name()
            self.expect(":")
            tok = self.peek()
            tn = self.name()
            if tn not in self.type_decls:
                self.fail(f"undeclared protocol type {tn}", tok)
            shared[a] = tn
        net = _resolve_call_args(self.whole(self.network()))
        return SourceProgram(self.type_decls, shared, net)

    # -- session types ---------------------------------------------------
    def stype(self, bound: frozenset) -> st.SessionType:
        tok = self.peek()
        if self.accept("!") or self.accept("?"):
            b = self.btype()
            self.expect(".")
            cont = self.stype(bound)
            return st.Out(b, cont) if tok.text == "!" else st.In(b, cont)
        if self.accept("+") or self.accept("&"):
            self.expect("{")
            arms = self.seq(self.type_arm, "}", bound)
            try:
                arms_t = st.mkarms(arms)
            except st.TypeSyntaxError as e:
                self.fail(str(e), tok)
            return st.SelT(arms_t) if tok.text == "+" else st.BraT(arms_t)
        if self.accept("end"):
            return st.END
        if self.accept("rec"):
            n = self.name()
            self.expect(".")
            body = self.stype(bound | {n})
            rec = st.Rec(n, body)
            if not st.contractive(rec):
                self.fail(f"non-contractive recursive type rec {n}", tok)
            return rec
        if tok.kind == "name":
            n = self.name()
            if n in bound:
                return st.TVar(n)
            if n in self.type_decls:
                return self.type_decls[n]
            self.fail(f"unknown type name {n}", tok)
        self.fail(f"expected a session type, found {tok.text!r}", tok)

    def type_arm(self, bound: frozenset) -> tuple:
        l = self.name()
        self.expect(":")
        return l, self.stype(bound)

    def btype(self) -> v.BaseType:
        tok = self.peek()
        simple = {"int": v.INT_T, "bool": v.BOOL_T, "str": v.STR_T, "any": v.ANY_T}
        if tok.kind == "name" and tok.text in simple:
            self.next()
            return simple[tok.text]
        if self.accept("unit"):
            return v.UNIT_T
        if tok.kind == "name" and tok.text == "set":
            self.next()
            self.expect("(")
            e = self.btype()
            self.expect(")")
            return v.SetT(e)
        if self.accept("("):
            a = self.btype()
            self.expect(",")
            b = self.btype()
            self.expect(")")
            return v.PairT(a, b)
        self.fail(f"expected a base type, found {tok.text!r}", tok)

    # -- networks --------------------------------------------------------
    def network(self) -> t.Network:
        parts = [self.atom_network()]
        while self.accept("||"):
            parts.append(self.atom_network())
        return t.par_all(parts)

    def atom_network(self) -> t.Network:
        names = []
        while self.accept("new"):
            names.append(self.name())
            self.expect(".")
        if self.accept("("):
            inner = self.network()
            self.expect(")")
        else:
            inner = self.node()
        return t.restrict_all(names, inner)

    def node(self) -> t.NetworkNode:
        tok = self.expect("[")
        p = self.process(frozenset())
        bufs = []
        while self.accept("|"):
            bufs.append(self.buffer())
        self.expect("]")
        return t.NetworkNode(p, tuple(bufs), pos=tok.line)

    def buffer(self) -> t.Buffer:
        aggr = self.accept("*")
        sess = self.name()
        self.expect("~")
        tok = self.next()
        if tok.kind != "int":
            self.fail("expected a state counter", tok)
        state = int(tok.text)
        self.expect(":")
        self.expect("[")
        queue = self.seq(self.msg, "]", aggr)
        return t.Buffer(t.Endpoint(sess, aggr), state, tuple(queue))

    def msg(self, aggr: bool):
        tok = self.peek()
        if aggr:
            self.expect("(")
            ctok = self.next()
            if ctok.kind != "int":
                self.fail("expected a message tag", ctok)
            self.expect(",")
            e = self.expr(frozenset())
            self.expect(")")
            return t.TaggedMsg(int(ctok.text), self._closed_value(e, tok))
        if self.accept("#"):
            return t.LabMsg(self.name())
        e = self.expr(frozenset())
        return t.ValMsg(self._closed_value(e, tok))

    def _closed_value(self, e: v.Expr, tok) -> v.Value:
        try:
            return v.eval_expr(e, {})
        except v.EvalError as exc:
            self.fail(f"buffer message must be a closed value ({exc})", tok)

    # -- processes ---------------------------------------------------------
    def process(self, chanvars: frozenset) -> t.Process:
        left = self.recov(chanvars)
        if self.accept("+"):
            right = self.process(chanvars)  # sums right-associate
            return t.Sum(left, right)
        return left

    def recov(self, chanvars: frozenset) -> t.Process:
        left = self.prefixterm(chanvars)
        while self.accept(">r"):
            handler = self.prefixterm(chanvars)
            left = t.Recover(left, handler)
        return left

    def prefixterm(self, chanvars: frozenset) -> t.Process:
        tok = self.peek()
        if self.accept("0"):
            return t.Inact()
        if self.accept("("):
            p = self.process(chanvars)
            self.expect(")")
            return p
        if self.accept("req") or self.accept("acc"):
            a = self.name()
            self.expect("(")
            if tok.text == "req":  # the requester binds the aggregator side
                self.expect("*")
            x = self.name()
            self.expect(")")
            self.expect(".")
            return (t.Request if tok.text == "req" else t.Accept)(
                a, x, self.prefixterm(chanvars | {x}))
        if self.accept("if"):
            g = self.expr(chanvars)
            self.expect("then")
            tp = self.prefixterm(chanvars)
            self.expect("else")
            ep = self.prefixterm(chanvars)
            return t.Cond(g, tp, ep)
        if self.accept("def"):
            defs = []
            while True:
                dn = self.name()
                self.expect("(")
                params = self.seq(self.name, ")")
                self.expect("=")
                body = self.process(chanvars | frozenset(params))
                defs.append((dn, tuple(params), body))
                if self.at(",") and self.peek(1).kind == "name" and self.at("(", 2):
                    self.next()
                    continue
                break
            self.expect("in")
            return t.Defs(tuple(defs), self.prefixterm(chanvars))
        # call or channel prefix
        if tok.kind == "name" and self.at("(", 1):
            self.next()
            self.expect("(")
            return t.Call(tok.text, tuple(self.seq(self.callarg, ")", chanvars)))
        ch = self.chanref(chanvars)
        return self.chantail(ch, chanvars)

    def chanref(self, chanvars: frozenset) -> t.Chan:
        aggr = self.accept("*")
        n = self.name()
        if n in chanvars:
            return t.ChanVar(n, aggr)
        return t.Endpoint(n, aggr)

    def chantail(self, ch: t.Chan, chanvars: frozenset) -> t.Process:
        if self.accept("!"):
            self.expect("<")
            e = self.expr(chanvars, v.OP_LEVEL["+"])  # so that ">" closes the payload
            self.expect(">")
            self.expect(".")
            return t.Send(ch, e, self.prefixterm(chanvars))
        if self.accept("?"):
            self.expect("(")
            x = self.name()
            self.expect(")")
            default = v.Lit(v.UNIT)
            if self.accept("def"):
                default = self.expr(chanvars, v.OP_LEVEL["+"])
            self.expect(".")
            return t.Recv(ch, x, default, self.prefixterm(chanvars))
        if self.accept("<<"):
            l = self.name()
            self.expect(".")
            return t.Select(ch, l, self.prefixterm(chanvars))
        if self.accept(">>"):
            self.expect("{")
            arms = self.seq(self.branch_arm, "}", chanvars)
            labels = [l for l, _ in arms]
            if len(set(labels)) != len(labels):
                self.fail(f"duplicate branch labels {labels}")
            if not arms:
                self.fail("empty branch")
            default = dict(arms).get("df", t.Inact())
            return t.Branch(ch, tuple(a for a in arms if a[0] != "df"), default)
        self.fail(f"expected a session prefix after {render_chan(ch)}")

    def branch_arm(self, chanvars: frozenset) -> tuple:
        """``label: process``, where the default arm's label is ``df``."""
        l = self.next().text if self.at("df") else self.name()
        self.expect(":")
        return l, self.process(chanvars)

    def callarg(self, chanvars: frozenset):
        return self.chanref(chanvars) if self.at("*") else self.expr(chanvars)

    # -- expressions -------------------------------------------------------
    def expr(self, chanvars: frozenset, level: int = 0) -> v.Expr:
        """An expression whose binary operators all bind at ``level`` of
        :data:`values.OP_LEVEL` or tighter, each level left-associative."""
        left = self.atom(chanvars)
        while v.OP_LEVEL.get(self.peek().text, -1) >= level:
            op = self.next().text
            left = v.BinOp(op, left, self.expr(chanvars, v.OP_LEVEL[op] + 1))
        return left

    def atom(self, chanvars: frozenset) -> v.Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return v.Lit(v.IntV(int(tok.text)))
        if self.at("-") and self.peek(1).kind == "int":
            self.next()
            n = self.next()
            return v.Lit(v.IntV(-int(n.text)))
        if tok.kind == "string":
            self.next()
            body = tok.text[1:-1]
            body = body.replace('\\"', '"').replace("\\\\", "\\")
            return v.Lit(v.StrV(body))
        for kw, val in (("true", v.TRUE), ("false", v.FALSE), ("unit", v.UNIT),
                        ("eps", v.EPS)):
            if self.accept(kw):
                return v.Lit(val)
        if self.accept("("):
            e = self.expr(chanvars)
            if self.accept(","):
                e2 = self.expr(chanvars)
                self.expect(")")
                return v.TupleE(e, e2)
            self.expect(")")
            return e
        if self.accept("{"):
            return v.SetE(tuple(self.seq(self.expr, "}", chanvars)))
        if tok.kind == "name":
            self.next()
            if tok.text in v.BUILTINS:
                self.expect("(")
                return v.Builtin(tok.text, tuple(self.seq(self.expr, ")", chanvars)))
            return v.Var(tok.text)
        self.fail(f"expected an expression, found {tok.text!r}", tok)


# ------------------------------------------------------------------ call-arg
# A bare name in call-argument position parses as an expression variable.
# A parameter is a channel when its body uses it as one, or passes it where
# a definition in scope takes a channel; bare names passed in channel
# positions are then rewritten to channel references.  A node's marks are
# found by walking it again until none changes: one pass per nesting level
# inside another level's fixpoint would multiply with the depth.

def _resolve(p: t.Process, scope: dict, defs: dict, blocks: list, order) -> t.Process:
    """One walk of ``p`` that marks and rewrites.  ``scope`` maps each name a
    binder in scope binds to its parameter's (marks, position), or None for
    other binders; ``defs`` maps each definition in scope to its
    parameters' channel marks, None for one not (yet) known as a channel;
    ``blocks`` keeps the marks of each ``def`` block's definitions, in walk
    ``order``, from one walk to the next."""
    if type(p) is t.Defs:
        if (i := next(order)) == len(blocks):
            blocks.append([[None] * len(prms) for _, prms, _ in p.defs])
        defs = {**defs, **{n: ms for (n, _, _), ms in zip(p.defs, blocks[i])}}
        arms = []
        for (n, prms, q), ms in zip(p.defs, blocks[i]):
            inner = {**scope, **{x: (ms, j) for j, x in enumerate(prms)}}
            arms.append((n, prms, _resolve(q, inner, defs, blocks, order)))
        return t.Defs(tuple(arms), _resolve(p.body, scope, defs, blocks, order))
    chans, exprs, kids = t.layer(p)
    for ch in chans:
        if type(ch) is t.ChanVar:
            _mark(scope.get(ch.name), ch.aggr)
    if type(p) is t.Call and p.name in defs:
        args = []
        for a, k in zip(p.args, chain(defs[p.name], repeat(None))):
            if k is not None and isinstance(a, v.Var):
                _mark(scope.get(a.name), k)
                a = (t.ChanVar if a.name in scope else t.Endpoint)(a.name, k)
            args.append(a)
        return t.Call(p.name, tuple(args))
    return t.rebuild(p, chans, exprs, [_resolve(k, {**scope, **dict.fromkeys(b)} if b else scope,
                                                defs, blocks, order) for b, k in kids])


def _mark(param, aggr: bool):
    """Mark a parameter, given as (marks, position), a channel, unless it is
    marked already."""
    if param is not None and param[0][param[1]] is None:
        param[0][param[1]] = aggr


def _marked(blocks: list) -> int:
    """How many parameters ``blocks`` marks as channels."""
    return sum(m is not None for block in blocks for marks in block for m in marks)


def _resolve_call_args(net: t.Network) -> t.Network:
    def node(nd: t.NetworkNode) -> t.NetworkNode:
        blocks: list = []
        while True:
            before = _marked(blocks)
            p = _resolve(nd.process, {}, {}, blocks, count())
            if _marked(blocks) == before:
                return t.NetworkNode(p, nd.buffers, pos=nd.pos)

    return t.map_nodes(net, node)


# ------------------------------------------------------------------ entry points

def parse(text: str, filename=None) -> SourceProgram:
    return _Parser(lex(text, filename), filename).program()


def parse_network(text: str, filename=None) -> t.Network:
    return parse(text, filename).network


def parse_process(text: str) -> t.Process:
    p = _Parser(lex(text))
    return _resolve_call_args(t.NetworkNode(p.whole(p.process(frozenset())), ())).process


def parse_expr(text: str) -> v.Expr:
    p = _Parser(lex(text))
    return p.whole(p.expr(frozenset()))


def parse_value(text: str) -> v.Value:
    return v.eval_expr(parse_expr(text), {})


def parse_type(text: str, decls=None) -> st.SessionType:
    p = _Parser(lex(text))
    p.type_decls = dict(decls or {})
    return p.whole(p.stype(frozenset()))


def parse_declared(text: str, type_decls=None) -> dict:
    """Parse a declared linear context: ``*s:(1, end), s:(1, !int.end)``."""
    p = _Parser(lex(text))
    p.type_decls = dict(type_decls or {})
    out = {}
    while True:
        start = p.peek()
        aggr = p.accept("*")
        name = p.name()
        ep = t.Endpoint(name, aggr)
        if ep in out:
            p.fail(f"endpoint {'*' if aggr else ''}{name} declared twice", start)
        p.expect(":")
        p.expect("(")
        ctok = p.next()
        if ctok.kind != "int":
            p.fail("expected a state counter", ctok)
        p.expect(",")
        ty = p.stype(frozenset())
        p.expect(")")
        out[ep] = (int(ctok.text), ty)
        if not p.accept(","):
            return p.whole(out)


def pretty_print(prog: SourceProgram) -> str:
    lines = []
    for n, ty in prog.type_decls.items():
        lines.append(f"type {n} = {render_type(ty)}")
    for a, tn in prog.shared_decls.items():
        lines.append(f"shared {a} : {tn}")
    if lines:
        lines.append("")
    lines.append(render_network(prog.network))
    return "\n".join(lines) + "\n"
