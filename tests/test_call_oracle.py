"""Call-argument resolution and call unfolding against the code they
replaced, kept verbatim in ``call_oracle``: the parser's one scoped walk
against the network-wide definition table, and one simultaneous
substitution of a call's arguments against one walk per parameter.

The old resolver differs from the new one on three kinds of program, each
pinned by its own test in ``test_cli`` or ``test_syntax``: a definition
name reused with another parameter kind in another node, a channel
parameter used only inside a nested definition, and a parameter whose only
channel use is under an inner binder of its name.  None of the programs
here is of those kinds; one more program on which they differ, a call
outside the scope of its definition, is pinned here."""

import glob
import os
from unittest import mock

import pytest

import call_oracle as oracle
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import syntax
from ubsc import terms as t
from ubsc import values as v

CORPUS = sorted(os.path.basename(f) for f in glob.glob(os.path.join(cp.corpus_dir(), "*.ubsc")))

# programs heavy in definitions, on which the two resolvers agree
DEF_HEAVY = {
    "mutual recursion passes a channel on":
        "[ def A(c, n) = c!<n>. B(c, n + 1), B(d, m) = if m < 3 then A(d, m) else 0 "
        "in A(s, 0) | s~0:[] ] || [ def G(k) = *k?(y). G(k) in G(s) | *s~0:[] ]",
    "a passer defined before its callee":
        "[ def B(d) = A(d), A(c) = c!<1>. 0 in B(s) | s~0:[] ]",
    "starred and bare arguments":
        "[ def A(c) = *c?(x). 0 in (A(*s) + A(s)) | *s~0:[] ]",
    "a nested block calls an outer definition":
        "[ def A(c) = c!<1>. 0 in def B(d) = A(d) in B(s) | s~0:[] ]",
    "bound names become channel variables":
        "[ req a(*x). def A(c) = *c!<1>. 0 in A(x) ] || "
        "[ acc a(y). def B(d, n) = d?(z). B(d, n) in B(y, 0) ]",
    "a channel parameter beside expression parameters":
        "[ def A(n) = 0, P(m, c, n) = c!<n + m>. A(m) + P(m, c, n + 1) in P(1, s, 0) "
        "| s~0:[] ]",
    "a starred parameter passed on bare":
        "[ def F(c) = H(c), H(e) = *e?(x). F(e) in F(s) | *s~0:[] ]",
    "an inner block shadows an outer definition":
        "[ def A(n) = 0 in (A(5) + def A(c) = c!<1>. 0 in A(s)) | s~0:[] ]",
}


def _raw_network(text: str):
    """The network of ``text`` as the parser reads it, before call
    arguments are resolved."""
    with mock.patch.object(syntax, "_resolve_call_args", lambda net: net):
        return syntax.parse(text).network


def _source(name: str) -> str:
    with open(os.path.join(cp.corpus_dir(), name), encoding="utf-8") as f:
        return f.read()


def test_a_call_outside_its_definition_keeps_its_bare_argument():
    """The one program found on which the resolvers differ outside the
    three pinned kinds: ``A(s)`` after ``+`` lies outside the block that
    defines ``A``, so it names no definition and its argument stays an
    expression, where the network-wide table made it an endpoint.  Neither
    unfolds the call."""
    raw = _raw_network("[ def A(c) = *c?(x). 0 in A(*s) + A(s) | *s~0:[] ]")
    assert syntax._resolve_call_args(raw).process.right.args == (v.Var("s"),)
    assert oracle._resolve_call_args(raw).process.right.args == (t.Endpoint("s", True),)


@pytest.mark.parametrize("text", [_source(n) for n in CORPUS] + list(DEF_HEAVY.values()),
                         ids=CORPUS + list(DEF_HEAVY))
def test_resolvers_agree(text):
    raw = _raw_network(text)
    new = syntax._resolve_call_args(raw)
    assert new == oracle._resolve_call_args(raw)
    assert new == syntax.parse(text).network


def test_def_heavy_programs_resolve_channels():
    """The hand-written programs do exercise resolution: every one of them
    has an argument the resolvers rewrite."""
    for name, text in DEF_HEAVY.items():
        assert syntax.parse(text).network != _raw_network(text), name


def _outcome(f, *args):
    try:
        return f(*args)
    except t.SubstError as e:
        return str(e)


def test_unfoldings_match_oracle():
    """Every call ``engine.alternatives`` unfolds in scheduler runs of every
    corpus program unfolds to the same process both ways."""
    calls = set()

    def record(p, name, params, body):
        calls.add((p, name, params, body))
        return real(p, name, params, body)

    real = t.subst_procvar
    eng.alternatives.cache_clear()
    with mock.patch.object(t, "subst_procvar", record):
        for name in CORPUS:
            for seed in range(3):
                eng.run_scheduler(cp.load_program(name).network,
                                  eng.SchedulerConfig(seed=seed, max_steps=100),
                                  digests=False)
    eng.alternatives.cache_clear()
    assert len(calls) > 100
    for args in calls:
        assert _outcome(t.subst_procvar, *args) == _outcome(oracle.subst_procvar, *args), args


@pytest.mark.parametrize("text", list(DEF_HEAVY.values()), ids=list(DEF_HEAVY))
def test_def_heavy_unfoldings_match_oracle(text):
    """Each call of the hand-written programs, unfolded by its definition
    block, gives the same process both ways."""
    seen = 0
    stack = [(nd.process, ()) for nd in t.flatten_nodes(syntax.parse(text).network)[1]]
    while stack:
        p, frames = stack.pop()
        if type(p) is t.Call:
            for frame in reversed(frames):
                if (d := next((d for d in frame if d[0] == p.name), None)) is not None:
                    args = (p, *d)
                    assert _outcome(t.subst_procvar, *args) == \
                        _outcome(oracle.subst_procvar, *args), args
                    seen += 1
                    break
        if type(p) is t.Defs:
            frames = frames + (p.defs,)
        stack += [(k, frames) for _, k in t.layer(p)[2]]
    assert seen
