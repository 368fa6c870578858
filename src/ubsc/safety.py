"""Semantic classification of networks: error networks, deadlock, simple
networks, and the bounded progress/recovery searches.

Error detection is syntactic: decided on the flattened nodes, and reported
with the nodes numbered in the congruence normal form.  A node's heads
and buffers are read from the engine's node record
(:func:`engine.node_facts`), so the checks see the prefixes the reduction
rules fire from, behind definitions and calls up to the engine's one
unfolding bound.  A node with more than one alternative (a sum on its
unfolded path) matches no prefix shape.

The progress and recovery searches share one breadth-first search, keyed on
the run states themselves and capped on the states it reaches.  The searches
of one kind share a bounded memo of each state's allowed successors.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Optional

from . import engine as eng
from . import terms as t
from .checker import PREFIX_RULES, TypingResult

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


class SafetyReport:
    """The verdict on one network.  ``classification`` maps (node, session)
    to (kind, c), nodes numbered in normal order.  An ok report found in
    state order holds the flattened nodes instead and numbers them the first
    time ``classification`` is read."""

    def __init__(self, verdict: str, witness: Optional[tuple] = None,
                 classification: Optional[dict] = None,
                 send_queue_violations: Optional[list] = None, *, nodes: tuple = ()):
        self.verdict = verdict  # ok | error-network
        self.witness = witness
        self.send_queue_violations = send_queue_violations or []
        self._classification, self._nodes = classification, nodes

    @property
    def classification(self) -> dict:
        if self._classification is None:
            self._classification = _scan(eng.normal_nodes(self._nodes))[0]
        return self._classification

    def _key(self) -> tuple:
        return self.verdict, self.witness, self.classification, self.send_queue_violations

    def __eq__(self, other):
        if other.__class__ is not SafetyReport:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self):
        return (f"SafetyReport(verdict={self.verdict!r}, witness={self.witness!r}, "
                f"classification={self.classification!r}, "
                f"send_queue_violations={self.send_queue_violations!r})")

    def render(self) -> str:
        if self.verdict == "ok":
            out = "ok"
        else:
            s, (i, ki, ci), (j, kj, cj) = self.witness
            out = (f"error network on session {s}: node#{i} {ki}^{ci} with "
                   f"node#{j} {kj}^{cj}")
        for node, sess, c in self.send_queue_violations:
            out += f"\n  note: node#{node} sends on {sess} with a non-empty own queue"
        return out


# a head alternative's prefix kind, by its constructor and whether it acts
# on the aggregator endpoint; the sending kinds also need an empty own queue
_KINDS = {(t.Send, True): "Brc", (t.Recv, True): "Gth", (t.Select, True): "Sel",
          (t.Send, False): "Uni", (t.Recv, False): "Rcv", (t.Branch, False): "Bra"}


def _shape(node: t.NetworkNode):
    """(session, (kind, state) or None, waiting, send-queue state or None) of
    a node whose one head alternative acts on an endpoint, read from its
    record; None for any other node.  A node waits when its plain endpoint
    of the session has no message; a head that sends or selects with a
    non-empty own queue gives the endpoint's state as a send-queue state."""
    f = eng.node_facts(node)
    head = f.alts[0][0] if len(f.alts) == 1 else None
    ch = getattr(head, "chan", None)
    if type(ch) is not t.Endpoint:
        return None
    b = f.bufs.get(ch)
    pl = f.bufs.get(t.Endpoint(ch.session, False))
    blocked = type(head) in (t.Send, t.Select) and b is not None and bool(b.queue)
    kind = _KINDS.get((type(head), ch.aggr))
    shape = (kind, b.state) if kind and b is not None and not blocked else None
    return ch.session, shape, pl is None or not pl.queue, b.state if blocked else None


def classify_prefix(node: t.NetworkNode, session: str):
    """Match a node against the six session-prefix shapes; None otherwise.
    Broadcast, unicast-send and select shapes require an empty own queue."""
    sh = _shape(node)
    return sh[1] if sh is not None and sh[0] == session else None


def is_error_network(n: t.Network) -> SafetyReport:
    """Search all node pairs per session for an invalid pair.  Whether one
    exists does not depend on how the nodes are numbered, so the nodes are
    first searched in state order; only a network with a witness or a
    send-queue violation is searched again in normal order, whose node
    numbers the report shows."""
    nodes = t.flatten_nodes(n)[1]
    _, violations, witness = _scan(nodes)
    if witness is None and not violations:
        return SafetyReport("ok", nodes=nodes)
    classification, violations, witness = _scan(eng.normal_nodes(nodes))
    return SafetyReport("error-network" if witness else "ok", witness, classification,
                        violations)


def _scan(nodes) -> tuple:
    """(classification, send-queue violations, first witness) of ``nodes``
    numbered in order.  A node can only take part on the session of its
    head's endpoint, so each node's shape is read once and visited under
    that session alone, and only sessions some head acts on are visited."""
    acting: dict = {}  # session -> [(node index, shape, waiting, send-queue state)]
    for i, nd in enumerate(nodes):
        sh = _shape(nd)
        if sh is not None:
            acting.setdefault(sh[0], []).append((i, *sh[1:]))
    classification = {}
    violations = []
    witness = None
    for s in sorted(acting):
        kinds = []
        for i, k, waiting, c in acting[s]:
            if k:
                classification[(i, s)] = k
                kinds.append((i, k[0], k[1], waiting))
            if c is not None:
                violations.append((i, s, c))
        for a in range(len(kinds)):
            for b in range(a + 1, len(kinds)):
                (i, ki, ci, wi), (j, kj, cj, wj) = kinds[a], kinds[b]
                pair = frozenset((ki, kj))
                bad = pair in _INVALID_ANY
                if not bad and ci == cj and pair in _INVALID_SAME_STATE:
                    # a buffered plain input can still serve itself; only a
                    # waiting one forms an unservable pair
                    bad = all(w for (k, w) in ((ki, wi), (kj, wj)) if k in ("Rcv", "Bra"))
                if bad and witness is None:
                    witness = (s, (i, ki, ci), (j, kj, cj))
    return classification, violations, witness


def is_deadlocked(n: t.Network) -> bool:
    """True iff the network is a parallel composition of nodes whose processes
    are sums of accept-prefixed processes only: every head alternative of a
    non-inactive node is an accept.  A terminal network (every process
    inactive) is not deadlocked; neither node order nor unit nodes matter."""
    nodes = t.flatten_nodes(n)[1]
    live = [nd.process for nd in nodes if not isinstance(nd.process, t.Inact)]
    return bool(live) and all(isinstance(head, t.Accept)
                              for p in live for head, _ in eng.alternatives(p))


def is_simple(result: TypingResult) -> bool:
    """A network is simple when every prefix rule in its derivation carries a
    linear context of at most one entry."""
    if not result.ok:
        raise ValueError("is_simple requires an Ok typing result")
    return all(app.delta_size <= 1 for app in result.trace
               if app.rule in PREFIX_RULES)


# ------------------------------------------------------------------ progress

def _shapes(state: eng.RunState):
    """Each session with exactly one aggregator and some plain endpoint, in
    name order, as (session, (aggregator node, state), [(plain node,
    state)]), from one pass over the buffers."""
    positions: dict = {}  # session -> (aggregator positions, plain positions)
    for i, nd in enumerate(state.nodes):
        for b in nd.buffers:
            positions.setdefault(b.ep.session, ([], []))[not b.ep.aggr].append((i, b.state))
    for s in sorted(positions):
        ag_nodes, pl_nodes = positions[s]
        if len(ag_nodes) == 1 and pl_nodes:
            yield s, ag_nodes[0], pl_nodes


def progress_shape_sessions(state: eng.RunState) -> list:
    """Sessions in the progress-eligible shape: the aggregator
    node still uses the session, and every plain node holds it at the same
    state as the aggregator and still uses it."""
    def uses(i, s):
        return s in t.process_sessions(state.nodes[i].process)

    return [(s, c) for s, (ai, c), pl_nodes in _shapes(state)
            if uses(ai, s) and all(cp == c and uses(pi, s) for pi, cp in pl_nodes)]


def recovery_shape_sessions(state: eng.RunState) -> list:
    """Sessions where every plain endpoint lags behind the aggregator."""
    return [(s, c) for s, (_, c), pl_nodes in _shapes(state)
            if all(cp < c for _, cp in pl_nodes)]


@lru_cache(maxsize=1024)
def _expansions(state: eng.RunState, allowed) -> tuple:
    """(redex, full-delivery successor) for each enabled redex of ``state``
    that ``allowed`` accepts, in :func:`engine.enabled_redexes` order.

    Consecutive searches of one kind from the states of one run expand the
    same states again, so the expansions are kept.  Run-state equality
    ignores node lines, so an entry may hold successors whose nodes sit at
    another equal state's lines; schedules are lists of redexes, which carry
    no line, so what a search returns does not change.  At 1024 entries the
    searches of a scheduler run enumerate and apply as often as at 8192,
    while 256 loses part of the saving."""
    return tuple((r, eng.apply_redex(state, r)) for r in eng.enabled_redexes(state)
                 if allowed(r))


def _bfs(state: eng.RunState, allowed, target, bound: int, cap: int = 20000):
    """Breadth-first search over full-delivery reductions restricted to
    ``allowed`` rules; returns the schedule reaching ``target`` or None.
    ``cap`` bounds the number of states reached.  A state is its own key:
    equal run states hold the same interned processes, buffers and nodes.
    ``allowed`` keys the expansion memo, so searches share entries only
    when they pass the same predicate object."""
    seen = {state}
    queue = deque([(state, [])])
    while queue:
        if len(seen) > cap:
            return None
        cur, path = queue.popleft()
        if len(path) >= bound:
            continue
        for r, nxt in _expansions(cur, allowed):
            if nxt in seen:
                continue
            seen.add(nxt)
            npath = path + [r]
            if target(nxt):
                return npath
            queue.append((nxt, npath))
    return None


def _all_at(session: str, c: int):
    """Search target: the one aggregator and every plain endpoint of
    ``session`` are at state ``c``.  A node's part, its aggregator buffers of
    ``session`` or -1 if a buffer of it is not at ``c``, is read once."""
    met: dict = {}

    def target(st: eng.RunState) -> bool:
        aggregators = 0
        for nd in st.nodes:
            if (part := met.get(nd)) is None:
                part = 0
                for b in nd.buffers:
                    if b.ep.session == session:
                        part = part + b.ep.aggr if part >= 0 and b.state == c else -1
                met[nd] = part
            if part < 0:
                return False
            aggregators += part
        return aggregators == 1
    return target


def _progress_move(r: eng.Redex) -> bool:
    return r.rule not in eng.RECOVERY_RULES


def session_progress_search(state: eng.RunState, session: str, c: int):
    """Find a recovery-free schedule advancing the session state by one:
    the aggregator buffer reaches c+1 and every surviving plain buffer
    reaches c+1."""
    return _bfs(state, _progress_move,
                _all_at(session, c + 1), 4 * len(state.nodes))


# autonomous moves: recovery, conditional drops, and consuming already-buffered
# messages; nothing that advances the aggregator
_AUTONOMOUS_RULES = ("Rec", "BRec", "Loss", "True", "False", "Rcv", "Bra")


def _recovery_move(r: eng.Redex) -> bool:
    return r.rule in _AUTONOMOUS_RULES


def session_recovery_search(state: eng.RunState, session: str, c: int):
    """Find a recovery-only schedule (plus conditional drops) after which
    every surviving plain buffer matches the aggregator state."""
    return _bfs(state, _recovery_move,
                _all_at(session, c), 4 * len(state.nodes))
