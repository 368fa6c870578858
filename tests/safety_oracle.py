"""``is_error_network`` as it was before each node was peeled once per call,
kept verbatim as a differential oracle: it peels every node once per
session.  ``_peel``, ``_summands`` and ``is_deadlocked`` are the safety
checks' own head view as it was before they read ``engine.alternatives``,
kept verbatim: at most four unfoldings, and a sum split without the
definitions in scope.  ``progress_shape_sessions`` and
``recovery_shape_sessions`` are kept verbatim from before they shared one
pass over the buffers: they walk every node once per session.  Only the
imports and ``_AGGR_KINDS``, the aggregator kinds the package no longer
names, are new; the pair tables and ``SafetyReport`` come from the
package.  ``_session_positions`` is kept verbatim from the package, which
no longer reads it: the search target works out each node's part once.

``_bfs`` is the progress and recovery search as it was before sleep sets,
kept verbatim as a differential oracle: it applies and digests every
allowed successor.  Only the imports are new."""

from __future__ import annotations

from collections import deque

from ubsc import engine as eng
from ubsc import terms as t
from ubsc.safety import _INVALID_ANY, _INVALID_SAME_STATE, SafetyReport

_AGGR_KINDS = ("Brc", "Gth", "Sel")


def _session_positions(state: eng.RunState, session: str):
    ag_nodes, pl_nodes = [], []
    for i, nd in enumerate(state.nodes):
        for b in nd.buffers:
            if b.ep.session == session:
                (ag_nodes if b.ep.aggr else pl_nodes).append((i, b.state))
    return ag_nodes, pl_nodes


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
    head = _peel(node.process)
    bufs = {b.ep: b for b in node.buffers}
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


def _send_queue_violation(node: t.NetworkNode, session: str):
    head = _peel(node.process)
    bufs = {b.ep: b for b in node.buffers}
    match head:
        case t.Send(ch, _, _) | t.Select(ch, _, _) if isinstance(ch, t.Endpoint) \
                and ch.session == session and ch in bufs and bufs[ch].queue:
            return True
    return False


def is_error_network(n: t.Network) -> SafetyReport:
    """Search all node pairs per session for an invalid pair."""
    _, nodes = t.flatten_nodes(eng.normalize(n))
    sessions = set()
    for nd in nodes:
        sessions |= {b.ep.session for b in nd.buffers}
    classification = {}
    violations = []
    witness = None
    for s in sorted(sessions):
        kinds = []
        for i, nd in enumerate(nodes):
            k = classify_prefix(nd, s)
            if k:
                classification[(i, s)] = k
                own = {b.ep: b for b in nd.buffers}
                pl = t.Endpoint(s, False)
                waiting = pl not in own or not own[pl].queue
                kinds.append((i, k[0], k[1], waiting))
            if _send_queue_violation(nd, s):
                head = _peel(nd.process)
                violations.append((i, s, {b.ep: b for b in nd.buffers}[head.chan].state))
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
    _, nodes = t.flatten_nodes(eng.normalize(n))
    if all(isinstance(nd.process, t.Inact) for nd in nodes):
        return False
    for nd in nodes:
        if isinstance(nd.process, t.Inact):
            continue  # vacuous summand set
        for s in _summands(nd.process):
            if not isinstance(s, t.Accept):
                return False
    return True


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
