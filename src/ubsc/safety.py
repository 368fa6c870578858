"""Semantic classification of networks: error networks, deadlock, simple
networks, and the bounded progress/recovery searches.

Error detection is syntactic on the congruence normal form, peeking through
definition wrappers (one bounded unfolding) so prefix shapes hidden under a
definition are found.  Sum-headed processes match no prefix shape.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from . import engine as eng
from . import terms as t
from .checker import PREFIX_RULES, TypingResult

_AGGR_KINDS = ("Brc", "Gth", "Sel")

# invalid combinations: aggregator pairs at any states, mixed pairs at equal
# states (unordered)
_INVALID_ANY = {frozenset(p) for p in (
    ("Brc", "Brc"), ("Gth", "Gth"), ("Sel", "Sel"),
    ("Brc", "Gth"), ("Brc", "Sel"), ("Gth", "Sel"),
)}
_INVALID_SAME_STATE = {frozenset(p) for p in (
    ("Brc", "Uni"), ("Brc", "Bra"), ("Gth", "Rcv"),
    ("Gth", "Bra"), ("Sel", "Rcv"), ("Sel", "Uni"),
)}


@dataclass
class SafetyReport:
    verdict: str  # ok | error-network | deadlocked
    witness: Optional[tuple] = None
    classification: dict = field(default_factory=dict)  # (node, session) -> (kind, c)
    send_queue_violations: list = field(default_factory=list)

    def render(self) -> str:
        if self.verdict == "ok":
            out = "ok"
        elif self.verdict == "error-network":
            s, (i, ki, ci), (j, kj, cj) = self.witness
            out = (f"error network on session {s}: node#{i} {ki}^{ci} with "
                   f"node#{j} {kj}^{cj}")
        else:
            out = "deadlocked: every summand is an accept prefix"
        for node, sess, c in self.send_queue_violations:
            out += (f"\n  note: node#{node} sends on {sess} with a non-empty "
                    f"own queue (unreachable for well-typed networks)")
        return out


def _peel(p: t.Process, depth: int = 4):
    """Strip definition wrappers and unfold calls a bounded number of times,
    returning the stable head."""
    env: tuple = ()
    for _ in range(depth):
        match p:
            case t.Defs(defs, body):
                env = env + (defs,)
                p = body
            case t.Call():
                unfolded = t.unfold_call(p, env)
                if unfolded is None:
                    return p
                p = unfolded
            case _:
                return p
    return p


def classify_prefix(node: t.NetworkNode, session: str):
    """Match a node against the six session-prefix shapes; None otherwise.
    Broadcast, unicast-send and select shapes require an empty own queue."""
    return _classify(_peel(node.process), {b.ep: b for b in node.buffers}, session)


def _classify(head: t.Process, bufs: dict, session: str):
    """:func:`classify_prefix` of a node with peeled head ``head`` and
    buffers ``bufs`` (by endpoint)."""
    ag = t.Endpoint(session, True)
    pl = t.Endpoint(session, False)
    match head:
        case t.Send(ch, _, _) if ch == ag and ag in bufs and not bufs[ag].queue:
            return ("Brc", bufs[ag].state)
        case t.Recv(ch, _, _, _) if ch == ag and ag in bufs:
            return ("Gth", bufs[ag].state)
        case t.Select(ch, _, _) if ch == ag and ag in bufs and not bufs[ag].queue:
            return ("Sel", bufs[ag].state)
        case t.Send(ch, _, _) if ch == pl and pl in bufs and not bufs[pl].queue:
            return ("Uni", bufs[pl].state)
        case t.Recv(ch, _, _, _) if ch == pl and pl in bufs:
            return ("Rcv", bufs[pl].state)
        case t.Branch(ch, _, _) if ch == pl and pl in bufs:
            return ("Bra", bufs[pl].state)
    return None


def _send_queue_violation(head: t.Process, bufs: dict) -> bool:
    """The head sends or selects on an endpoint whose own queue is not
    empty."""
    match head:
        case t.Send(ch, _, _) | t.Select(ch, _, _) if ch in bufs and bufs[ch].queue:
            return True
    return False


def is_error_network(n: t.Network) -> SafetyReport:
    """Search all node pairs per session for an invalid pair.  A node can
    only take part on the session of its head's endpoint, so each node is
    peeled once and visited under that session alone."""
    _, nodes = eng.normal_parts(n)
    sessions = set()
    acting: dict = {}  # session -> [(node index, head, buffers)], by index
    for i, nd in enumerate(nodes):
        sessions |= {b.ep.session for b in nd.buffers}
        head = _peel(nd.process)
        ch = getattr(head, "chan", None)
        if type(ch) is t.Endpoint:
            acting.setdefault(ch.session, []).append((i, head, {b.ep: b for b in nd.buffers}))
    classification = {}
    violations = []
    witness = None
    for s in sorted(sessions):
        kinds = []
        for i, head, bufs in acting.get(s, ()):
            k = _classify(head, bufs, s)
            if k:
                classification[(i, s)] = k
                pl = t.Endpoint(s, False)
                waiting = pl not in bufs or not bufs[pl].queue
                kinds.append((i, k[0], k[1], waiting))
            if _send_queue_violation(head, bufs):
                violations.append((i, s, bufs[head.chan].state))
        for a in range(len(kinds)):
            for b in range(a + 1, len(kinds)):
                (i, ki, ci, wi), (j, kj, cj, wj) = kinds[a], kinds[b]
                pair = frozenset((ki, kj)) if ki != kj else frozenset((ki,))
                bad = pair in _INVALID_ANY
                if not bad and ci == cj and pair in _INVALID_SAME_STATE:
                    # a buffered plain input can still serve itself; only a
                    # waiting one forms an unservable pair
                    plain_ok = all(w for (k, w) in ((ki, wi), (kj, wj))
                                   if k in ("Rcv", "Bra"))
                    bad = plain_ok
                if ki == kj and ki in _AGGR_KINDS:
                    bad = True
                if bad and witness is None:
                    witness = (s, (i, ki, ci), (j, kj, cj))
    if witness:
        return SafetyReport("error-network", witness, classification, violations)
    return SafetyReport("ok", None, classification, violations)


def _summands(p: t.Process) -> list:
    head = _peel(p)
    if isinstance(head, t.Sum):
        return _summands(head.left) + _summands(head.right)
    return [head]


def is_deadlocked(n: t.Network) -> bool:
    """True iff the network is a parallel composition of nodes whose processes
    are sums of accept-prefixed processes only.  A terminal network (every
    process inactive) is not deadlocked."""
    _, nodes = eng.normal_parts(n)
    if all(isinstance(nd.process, t.Inact) for nd in nodes):
        return False
    for nd in nodes:
        if isinstance(nd.process, t.Inact):
            continue  # vacuous summand set
        for s in _summands(nd.process):
            if not isinstance(s, t.Accept):
                return False
    return True


def is_simple(result: TypingResult) -> bool:
    """A network is simple when every prefix rule in its derivation carries a
    linear context of at most one entry."""
    if not result.ok:
        raise ValueError("is_simple requires an Ok typing result")
    return all(app.delta_size <= 1 for app in result.trace
               if app.rule in PREFIX_RULES)


# ------------------------------------------------------------------ progress

def _session_positions(state: eng.RunState, session: str):
    ag_nodes, pl_nodes = [], []
    for i, nd in enumerate(state.nodes):
        for b in nd.buffers:
            if b.ep.session == session:
                (ag_nodes if b.ep.aggr else pl_nodes).append((i, b.state))
    return ag_nodes, pl_nodes


def progress_shape_sessions(state: eng.RunState) -> list:
    """Sessions in the progress-eligible shape: the aggregator
    node still uses the session, and every plain node holds it at the same
    state as the aggregator and still uses it."""
    out = []
    sessions = {b.ep.session for nd in state.nodes for b in nd.buffers}
    for s in sorted(sessions):
        ag_nodes, pl_nodes = _session_positions(state, s)
        if len(ag_nodes) != 1 or not pl_nodes:
            continue
        (ai, c) = ag_nodes[0]
        if s not in t.process_sessions(state.nodes[ai].process):
            continue
        if all(cp == c and s in t.process_sessions(state.nodes[pi].process)
               for pi, cp in pl_nodes):
            out.append((s, c))
    return out


def recovery_shape_sessions(state: eng.RunState) -> list:
    """Sessions where every plain endpoint lags behind the aggregator."""
    out = []
    sessions = {b.ep.session for nd in state.nodes for b in nd.buffers}
    for s in sorted(sessions):
        ag_nodes, pl_nodes = _session_positions(state, s)
        if len(ag_nodes) != 1 or not pl_nodes:
            continue
        (_, c) = ag_nodes[0]
        if all(cp < c for _, cp in pl_nodes):
            out.append((s, c))
    return out


def _bfs(state: eng.RunState, allowed, target, bound: int, cap: int = 20000):
    """Breadth-first search over full-delivery reductions restricted to
    ``allowed`` rules; returns the schedule reaching ``target`` or None.
    ``cap`` bounds the number of explored states."""
    start = state.digest()
    seen = {start}
    queue = deque([(state, [])])
    while queue:
        if len(seen) > cap:
            return None
        cur, path = queue.popleft()
        if len(path) >= bound:
            continue
        for r in eng.enabled_redexes(cur):
            if not allowed(r):
                continue
            try:
                nxt = eng.apply_redex(cur, r)
            except eng.EngineError:
                continue
            d = nxt.digest()
            if d in seen:
                continue
            seen.add(d)
            npath = path + [r]
            if target(nxt):
                return npath
            queue.append((nxt, npath))
    return None


def session_progress_search(state: eng.RunState, session: str, c: int,
                            bound: Optional[int] = None):
    """Find a recovery-free schedule advancing the session state by one:
    the aggregator buffer reaches c+1 and every surviving plain buffer
    reaches c+1."""
    bound = bound if bound is not None else 4 * len(state.nodes)

    def allowed(r: eng.Redex) -> bool:
        return r.rule not in eng.RECOVERY_RULES

    def target(st: eng.RunState) -> bool:
        ag_nodes, pl_nodes = _session_positions(st, session)
        if len(ag_nodes) != 1 or ag_nodes[0][1] != c + 1:
            return False
        return all(cp == c + 1 for _, cp in pl_nodes)

    return _bfs(state, allowed, target, bound)


def session_recovery_search(state: eng.RunState, session: str, c: int,
                            bound: Optional[int] = None):
    """Find a recovery-only schedule (plus conditional drops) after which
    every surviving plain buffer matches the aggregator state."""
    bound = bound if bound is not None else 4 * len(state.nodes)

    def allowed(r: eng.Redex) -> bool:
        # autonomous moves: recovery, conditional drops, and consuming
        # already-buffered messages; nothing that advances the aggregator
        return r.rule in ("Rec", "BRec", "Loss", "True", "False", "Rcv", "Bra")

    def target(st: eng.RunState) -> bool:
        ag_nodes, pl_nodes = _session_positions(st, session)
        if len(ag_nodes) != 1 or ag_nodes[0][1] != c:
            return False
        return all(cp == c for _, cp in pl_nodes)

    return _bfs(state, allowed, target, bound)
