"""The benchmark's tracer reaches into ubsc by attribute name: it wraps the
functions it lists and reads ``cache_info()`` of the lru caches it lists.
Importing it here makes a renamed or un-cached attribute fail the tests,
not a later benchmark run."""

import importlib
import os

import pytest

from ubsc import corpus as cp
from ubsc import engine as eng

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


def test_tracer_round_trip(tracing):
    """Install the tracer, run a short traced scheduler run, uninstall: the
    digest layer and the node-render cache are seen, and every wrapped
    function is restored."""
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
    assert metrics["engine.node_render.hit_ratio"][0] > 0
    assert {(id(o), a): o.__dict__[a] for o, a, _ in tracing.LAYERS} == before
