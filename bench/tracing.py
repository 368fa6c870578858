"""Span tracing for the benchmark's traced run.

The tracer wraps public ubsc functions from outside the package: each wrapped
call records one span (name, parent span, start, end) in memory.  Self time is
a span's duration minus the durations of its direct children; spans are
written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import statistics
import sys
from array import array
from time import perf_counter

from ubsc import checker, corpus, engine, render, safety, sestypes, syntax, terms
from workloads import CLEARED_COUNTS

# (owner, attribute, span name).  A module-level function is replaced in every
# loaded module that binds it, so ``engine.render_network`` is traced as well
# as ``render.render_network``; a method is replaced on its class.
LAYERS = (
    (engine.RunState, "digest", "engine.digest"),
    (engine, "digest", "engine.digest"),
    (render, "render_network", "render.render_network"),
    (engine, "enabled_redexes", "engine.enabled_redexes"),
    (engine, "apply_redex", "engine.apply_redex"),
    (engine, "redex_payload", "engine.redex_payload"),
    (checker, "type_network", "checker.type_network"),
    (terms, "flatten_nodes", "terms.flatten_nodes"),
    (engine.RunState, "to_network", "engine.to_network"),
    (engine, "normalize", "engine.normalize"),
    (safety, "is_error_network", "safety.is_error_network"),
    (sestypes, "advances_to", "sestypes.advances_to"),
    (sestypes, "context_advance", "sestypes.context_advance"),
    (safety, "session_progress_search", "safety.progress_search"),
    (safety, "session_recovery_search", "safety.recovery_search"),
    (syntax, "parse", "syntax.parse"),
    (engine, "encode_network", "engine.encode_network"),
    (corpus, "check_consensus_trace", "corpus.check_consensus_trace"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in LAYERS))

# lru caches whose hit ratio is reported, read through ``cache_info()``
CACHES = (
    ("engine.node_render", engine._node_render),
    ("engine.node_names", engine._node_names),
    ("engine.alternatives", engine.alternatives),
    ("checker.free_chans", checker._free_chans),
)

SEARCH_SPANS = ("safety.progress_search", "safety.recovery_search")


class Tracer:
    """Records spans for the functions in :data:`LAYERS` while installed."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.parent = array("l")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._undo: list = []
        self._cache_base: dict = {}

    def _wrap(self, fn, name: str):
        idx = self.names.index(name)
        parent, names, start, end = self.parent, self.name, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            # a direct recursive call stays inside its caller's span
            if stack and names[stack[-1]] == idx:
                return fn(*args, **kwargs)
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(idx)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "ubsc" or k.startswith("ubsc."))]
        for owner, attr, name in LAYERS:
            orig = owner.__dict__[attr]
            wrapped = self._wrap(orig, name)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, orig))
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        self.clear_caches()

    def clear_caches(self) -> None:
        """Empty the reported caches and count hit ratios from here on."""
        for _, cache in CACHES:
            cache.cache_clear()
        self._cache_base = {k: c.cache_info() for k, c in CACHES}
        self._cleared_base = {k: list(CLEARED_COUNTS.get(id(c), (0, 0))) for k, c in CACHES}

    def uninstall(self) -> None:
        self.cache_ratios = self._cache_ratios()
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _cache_ratios(self) -> dict:
        out = {}
        for key, cache in CACHES:
            now, base = cache.cache_info(), self._cache_base[key]
            # counts of the workload's own clears since ours (search clears
            # the caches between scheduler runs)
            cleared = CLEARED_COUNTS.get(id(cache), (0, 0))
            hits = now.hits - base.hits + cleared[0] - self._cleared_base[key][0]
            misses = now.misses - base.misses + cleared[1] - self._cleared_base[key][1]
            out[key] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def layer_metrics(self) -> dict:
        """Per span name: calls, self time (s) and median duration (us);
        hit ratios of the caches; digests made under a search span."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        by_name: dict = {name: [] for name in self.names}
        self_s: dict = {name: 0.0 for name in self.names}
        for i in range(n):
            name = self.names[self.name[i]]
            by_name[name].append(dur[i])
            self_s[name] += dur[i] - child[i]
        out = {}
        for name in self.names:
            ds = by_name[name]
            out[f"{name}.calls"] = (len(ds), "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.p50_us"] = (statistics.median(ds) * 1e6 if ds else 0.0, "us")
        for key, ratio in self.cache_ratios.items():
            out[f"{key}.hit_ratio"] = (ratio, "ratio")

        search_idx = {self.names.index(s) for s in SEARCH_SPANS}
        digest_idx = self.names.index("engine.digest")
        under = bytearray(n)  # parents are recorded before their children
        states = 0
        search_s = 0.0
        for i in range(n):
            p = self.parent[i]
            under[i] = p >= 0 and (under[p] or self.name[p] in search_idx)
            if under[i] and self.name[i] == digest_idx:
                states += 1
            if self.name[i] in search_idx and not under[i]:
                search_s += dur[i]
        out["safety.search.states"] = (states, "count")
        out["safety.search.states_per_s"] = (states / search_s if search_s else 0.0, "1/s")
        return out

    def write(self, path: str) -> None:
        """Spans as TSV: id, parent id, name, start and duration in us."""
        base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_us\tdur_us\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{(self.start[i] - base) * 1e6:.1f}\t"
                         f"{(self.end[i] - self.start[i]) * 1e6:.1f}\n")
