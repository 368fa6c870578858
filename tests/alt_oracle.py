"""``engine.alternatives`` as it was before the rebuild around a definitions
block became one function shared per block, kept verbatim as a
differential oracle: it makes a closure per definitions block per process.
Only the imports are new."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from ubsc import terms as t

_MAX_UNFOLD = 16


@lru_cache(maxsize=65536)
def alternatives(p: t.Process) -> tuple:
    """Head alternatives of a process: (head, rebuild) pairs where rebuild
    reinstates the surrounding definition context around a reduced head.
    Sum alternatives discard the other summands; calls unfold through their
    definition context.  A call that does not unfold (an unbound name, or
    past ``_MAX_UNFOLD`` unfoldings) is a head of its own that fires
    nothing, so a process has one alternative only when no sum lies on its
    unfolded path."""
    out: list = []

    def go(p: t.Process, defs_env: tuple, rebuild: Callable, depth: int):
        match p:
            case t.Sum():
                for alt in t.sum_alternatives(p):
                    go(alt, defs_env, rebuild, depth)
            case t.Defs(defs, body):
                env2 = defs_env + (defs,)

                def rb(nb, _rebuild=rebuild, _defs=defs):
                    return _rebuild(t.Defs(_defs, nb))

                go(body, env2, rb, depth)
            case t.Call() if depth < _MAX_UNFOLD and (
                    unfolded := t.unfold_call(p, defs_env)) is not None:
                go(unfolded, defs_env, rebuild, depth + 1)
            case _:
                out.append((p, rebuild))

    go(p, (), lambda x: x, 0)
    return tuple(out)
