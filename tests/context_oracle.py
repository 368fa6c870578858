"""The relations over stated contexts as they were before the entry tests
were stated once (``sestypes.entries_equal`` and ``synchronizes``): each
relation writes out "same state and equal type", the duality of a plain
entry to its aggregator, and the per-entry synchronisation rule itself.
``contexts_equal``, ``synchronize``, ``well_formed`` and ``advances_to`` are
kept verbatim as a differential oracle.  They call the package's
``types_equal``, ``dual``, ``entry_synchronizes`` and ``_dual_steps``,
which the entry helpers call too; only the imports are new."""

from ubsc.sestypes import _dual_steps, dual, entry_synchronizes, types_equal
from ubsc.terms import Endpoint


def synchronize(from_ctx: dict, to_ctx: dict) -> bool:
    """Linear context synchronisation over stated contexts
    (Endpoint -> (state, type)).  Only plain endpoints may move; aggregator
    entries and the domain must match exactly."""
    if set(from_ctx) != set(to_ctx):
        return False
    for ep, (cf, tf) in from_ctx.items():
        ct, tt = to_ctx[ep]
        if ep.aggr:
            if cf != ct or not types_equal(tf, tt):
                return False
        else:
            if not entry_synchronizes(cf, tf, ct, tt):
                return False
    return True


def well_formed(ctx: dict) -> bool:
    """Every aggregator entry is matched by a same-state dual plain entry, or
    the plain endpoint is absent."""
    for ep, (c, t) in ctx.items():
        if not ep.aggr:
            continue
        plain = Endpoint(ep.session, False)
        if plain in ctx:
            cp, tp = ctx[plain]
            if cp != c or not types_equal(tp, dual(t)):
                return False
    return True


def contexts_equal(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    return all(a[ep][0] == b[ep][0] and types_equal(a[ep][1], b[ep][1]) for ep in a)


def advances_to(before: dict, after: dict) -> bool:
    """Decision procedure for single-step context advancement, extended (for
    the preservation harness) with session creation: ``after`` may add a
    fresh dual endpoint pair at state 0."""
    extra = set(after) - set(before)
    if extra:
        extra_sessions = {ep.session for ep in extra}
        if any(ep.session in extra_sessions for ep in before):
            return False
        for s in extra_sessions:
            ag, pl = Endpoint(s, True), Endpoint(s, False)
            members = {ep for ep in extra if ep.session == s}
            if members == {ag, pl}:
                ca, ta = after[ag]
                cp, tp = after[pl]
                if not (ca == cp == 0 and types_equal(tp, dual(ta))):
                    return False
            elif members == {ag}:
                if after[ag][0] != 0:
                    return False
            else:
                return False
        after = {ep: v for ep, v in after.items() if ep not in extra}
    if contexts_equal(before, after):
        return True
    # dropped plain entries only
    if set(after) < set(before):
        dropped = set(before) - set(after)
        if all(not ep.aggr for ep in dropped) and contexts_equal(
            {ep: v for ep, v in before.items() if ep not in dropped}, after
        ):
            return True
    # one communication step on a single session
    if set(after) == set(before):
        diff = [ep for ep in before if not (
            before[ep][0] == after[ep][0] and types_equal(before[ep][1], after[ep][1])
        )]
        sessions = {ep.session for ep in diff}
        if len(sessions) == 1:
            return any(contexts_equal(d, after) for d in _dual_steps(before, sessions.pop()))
    return False
