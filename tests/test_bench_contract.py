"""The benchmark's tracer reaches into ubsc by attribute name: it wraps the
functions it lists and reads ``cache_info()`` of the lru caches it lists.
Importing it here makes a renamed or un-cached attribute fail the tests,
not a later benchmark run."""

import gc
import importlib
import os
import pkgutil
import sys
import weakref

import pytest

import ubsc
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import render, terms as t, values as v

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("tracing")


def test_traced_functions_exist(tracing):
    for owner, attr, _ in tracing.LAYERS:
        assert callable(owner.__dict__[attr]), attr


def test_reported_caches_are_lru_caches(tracing):
    for key, cache in tracing.CACHES:
        info = cache.cache_info()
        assert info.maxsize is not None, key
        assert callable(cache.cache_clear), key


def test_every_lru_cache_is_bounded():
    """Every lru cache of the ubsc modules, found as ``workloads.clear_caches``
    finds them, has a finite ``maxsize``: run state must not grow without
    bound over a long run."""
    for mod in pkgutil.iter_modules(ubsc.__path__, "ubsc."):
        importlib.import_module(mod.name)
    found = set()
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "ubsc" or name.startswith("ubsc.")):
            for attr, obj in vars(mod).items():
                if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                    found.add(f"{name}.{attr}")
                    assert obj.cache_info().maxsize is not None, f"{name}.{attr}"
    assert {"ubsc.engine.alternatives", "ubsc.engine._subst_value",
            "ubsc.checker._def_slot",
            "ubsc.checker._protocol_candidates"} <= found


def test_term_memos_live_as_long_as_their_term():
    """The free-name facts and the shape of a process are memoised on the
    process and its parts, so they hold nothing alive: once the process is
    dropped it is collected, with its memos."""
    p = t.Send(t.Endpoint("memo_probe", True), v.BinOp("+", v.Var("memo_x"), v.Lit(v.IntV(1))),
               t.Recv(t.ChanVar("memo_c", False), "memo_y", v.Lit(v.UNIT),
                      t.Call("MemoProbe", (v.Var("memo_y"),))))
    assert t.process_facts(p)[0] == {"memo_probe"}
    assert render._shape(p) is not p
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None


def test_tracer_round_trip(tracing):
    """Install the tracer, run a short traced scheduler run, uninstall: the
    digest layer is seen, the hit ratio of a cache the run reads is
    reported, and every wrapped function is restored.  The run's digests
    read node records and look up no lru keyed on a node, so the
    node-render and node-name ratios the tracer reports read 0 on it."""
    before = {(id(o), a): o.__dict__[a] for o, a, _ in tracing.LAYERS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        net = cp.load_program("paxos3.ubsc").network
        eng.run_scheduler(net, eng.SchedulerConfig(seed=1, loss_rate=0.3, max_steps=20))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["engine.digest.calls"][0] == 21
    assert metrics["engine.alternatives.hit_ratio"][0] > 0
    assert metrics["engine.node_render.hit_ratio"][0] == 0
    assert metrics["engine.node_names.hit_ratio"][0] == 0
    assert {(id(o), a): o.__dict__[a] for o, a, _ in tracing.LAYERS} == before
