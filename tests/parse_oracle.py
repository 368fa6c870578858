"""The expression and list parsing of :class:`ubsc.syntax._Parser` as it
was before precedence climbing over ``values.OP_LEVEL`` and the one comma
list helper, kept verbatim as a differential oracle: a five-method ladder
for expressions, non-associative comparisons, and list loops, most of
which accept a missing or a trailing comma.  Only the imports, the class line and the entry
points at the end are new."""

from __future__ import annotations

from ubsc import sestypes as st
from ubsc import terms as t
from ubsc import values as v
from ubsc.render import render_chan
from ubsc.syntax import _Parser, _resolve_call_args, lex


class OracleParser(_Parser):
    def stype(self, bound: frozenset) -> st.SessionType:
        tok = self.peek()
        if self.at("!") or self.at("?"):
            self.next()
            b = self.btype()
            self.expect(".")
            cont = self.stype(bound)
            return st.Out(b, cont) if tok.text == "!" else st.In(b, cont)
        if self.at("+") or self.at("&"):
            self.next()
            self.expect("{")
            arms = []
            while True:
                l = self.name()
                self.expect(":")
                arms.append((l, self.stype(bound)))
                if self.at(","):
                    self.next()
                    continue
                break
            self.expect("}")
            try:
                arms_t = st.mkarms(arms)
            except st.TypeSyntaxError as e:
                self.fail(str(e), tok)
            return st.SelT(arms_t) if tok.text == "+" else st.BraT(arms_t)
        if self.at("end"):
            self.next()
            return st.END
        if self.at("rec"):
            self.next()
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

    def buffer(self) -> t.Buffer:
        aggr = False
        if self.at("*"):
            self.next()
            aggr = True
        sess = self.name()
        self.expect("~")
        tok = self.next()
        if tok.kind != "int":
            self.fail("expected a state counter", tok)
        state = int(tok.text)
        self.expect(":")
        self.expect("[")
        queue = []
        while not self.at("]"):
            queue.append(self.msg(aggr))
            if self.at(","):
                self.next()
            else:
                break
        self.expect("]")
        try:
            return t.Buffer(t.Endpoint(sess, aggr), state, tuple(queue))
        except ValueError as e:
            self.fail(str(e), tok)

    def prefixterm(self, chanvars: frozenset) -> t.Process:
        tok = self.peek()
        if self.at("0"):
            self.next()
            return t.Inact()
        if self.at("("):
            self.next()
            p = self.process(chanvars)
            self.expect(")")
            return p
        if self.at("req"):
            self.next()
            a = self.name()
            self.expect("(")
            self.expect("*")
            x = self.name()
            self.expect(")")
            self.expect(".")
            return t.Request(a, x, self.prefixterm(chanvars | {x}))
        if self.at("acc"):
            self.next()
            a = self.name()
            self.expect("(")
            x = self.name()
            self.expect(")")
            self.expect(".")
            return t.Accept(a, x, self.prefixterm(chanvars | {x}))
        if self.at("if"):
            self.next()
            g = self.expr(chanvars)
            self.expect("then")
            tp = self.prefixterm(chanvars)
            self.expect("else")
            ep = self.prefixterm(chanvars)
            return t.Cond(g, tp, ep)
        if self.at("def"):
            self.next()
            defs = []
            while True:
                dn = self.name()
                self.expect("(")
                params = []
                while not self.at(")"):
                    params.append(self.name())
                    if self.at(","):
                        self.next()
                self.expect(")")
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
            args = []
            while not self.at(")"):
                args.append(self.callarg(chanvars))
                if self.at(","):
                    self.next()
            self.expect(")")
            return t.Call(tok.text, tuple(args))
        ch = self.chanref(chanvars)
        return self.chantail(ch, chanvars)

    def chantail(self, ch: t.Chan, chanvars: frozenset) -> t.Process:
        if self.at("!"):
            self.next()
            self.expect("<")
            e = self.addexpr(chanvars)
            self.expect(">")
            self.expect(".")
            return t.Send(ch, e, self.prefixterm(chanvars))
        if self.at("?"):
            self.next()
            self.expect("(")
            x = self.name()
            self.expect(")")
            default = v.Lit(v.UNIT)
            if self.at("def"):
                self.next()
                default = self.addexpr(chanvars)
            self.expect(".")
            return t.Recv(ch, x, default, self.prefixterm(chanvars))
        if self.at("<<"):
            self.next()
            l = self.name()
            self.expect(".")
            return t.Select(ch, l, self.prefixterm(chanvars))
        if self.at(">>"):
            self.next()
            self.expect("{")
            arms = []
            default_arm = t.Inact()
            saw_default = False
            while True:
                if self.at("df"):
                    self.next()
                    self.expect(":")
                    default_arm = self.process(chanvars)
                    saw_default = True
                else:
                    l = self.name()
                    self.expect(":")
                    arms.append((l, self.process(chanvars)))
                if self.at(","):
                    self.next()
                    continue
                break
            self.expect("}")
            labels = [l for l, _ in arms]
            if len(set(labels)) != len(labels):
                self.fail(f"duplicate branch labels {labels}")
            if not arms and not saw_default:
                self.fail("empty branch")
            return t.Branch(ch, tuple(arms), default_arm)
        self.fail(f"expected a session prefix after {render_chan(ch)}")

    def expr(self, chanvars: frozenset) -> v.Expr:
        left = self.andexpr(chanvars)
        while self.at("or"):
            self.next()
            left = v.BinOp("or", left, self.andexpr(chanvars))
        return left

    def andexpr(self, chanvars: frozenset) -> v.Expr:
        left = self.cmpexpr(chanvars)
        while self.at("and"):
            self.next()
            left = v.BinOp("and", left, self.cmpexpr(chanvars))
        return left

    def cmpexpr(self, chanvars: frozenset) -> v.Expr:
        left = self.addexpr(chanvars)
        for op in ("<=", ">=", "!=", "=", "<", ">"):
            if self.at(op):
                self.next()
                return v.BinOp(op, left, self.addexpr(chanvars))
        return left

    def addexpr(self, chanvars: frozenset) -> v.Expr:
        left = self.mulexpr(chanvars)
        while self.at("+") or self.at("-") or self.at("union"):
            op = self.next().text
            left = v.BinOp(op, left, self.mulexpr(chanvars))
        return left

    def mulexpr(self, chanvars: frozenset) -> v.Expr:
        left = self.atom(chanvars)
        while self.at("*"):
            self.next()
            left = v.BinOp("*", left, self.atom(chanvars))
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
            if self.at(kw):
                self.next()
                return v.Lit(val)
        if self.at("("):
            self.next()
            e = self.expr(chanvars)
            if self.at(","):
                self.next()
                e2 = self.expr(chanvars)
                self.expect(")")
                return v.TupleE(e, e2)
            self.expect(")")
            return e
        if self.at("{"):
            self.next()
            items = []
            while not self.at("}"):
                items.append(self.expr(chanvars))
                if self.at(","):
                    self.next()
            self.expect("}")
            return v.SetE(tuple(items))
        if tok.kind == "name":
            self.next()
            if tok.text in v.BUILTINS:
                self.expect("(")
                args = []
                while not self.at(")"):
                    args.append(self.expr(chanvars))
                    if self.at(","):
                        self.next()
                self.expect(")")
                return v.Builtin(tok.text, tuple(args))
            return v.Var(tok.text)
        self.fail(f"expected an expression, found {tok.text!r}", tok)


def parse(text: str):
    return OracleParser(lex(text)).program()


def parse_process(text: str) -> t.Process:
    p = OracleParser(lex(text))
    return _resolve_call_args(t.NetworkNode(p.whole(p.process(frozenset())), ())).process


def parse_expr(text: str) -> v.Expr:
    p = OracleParser(lex(text))
    return p.whole(p.expr(frozenset()))
