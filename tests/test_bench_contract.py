"""The benchmark's tracer reaches into ubsc by attribute name: it wraps the
functions it lists and reads ``cache_info()`` of the lru caches it lists.
Importing it here makes a renamed or un-cached attribute fail the tests,
not a later benchmark run."""

import gc
import importlib
import os
import pkgutil
import subprocess
import sys
import weakref

import pytest

import ubsc
from conftest import in_fresh_process
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import render, terms as t, values as v

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


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


def _traced_run() -> tuple:
    """Install the tracer, run a short traced scheduler run, uninstall:
    the metrics the round trip reads, and whether every wrapped function
    was restored."""
    sys.path.insert(0, BENCH)
    tracing = importlib.import_module("tracing")
    before = {(id(o), a): o.__dict__[a] for o, a, _ in tracing.LAYERS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        net = cp.load_program("paxos3.ubsc").network
        eng.run_scheduler(net, eng.SchedulerConfig(seed=1, loss_rate=0.3, max_steps=20))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    restored = {(id(o), a): o.__dict__[a] for o, a, _ in tracing.LAYERS} == before
    return tuple(metrics[k][0] for k in (
        "engine.digest.calls", "engine.alternatives.hit_ratio",
        "engine.node_render.hit_ratio", "engine.node_names.hit_ratio")) + (restored,)


def test_tracer_round_trip():
    """Install the tracer, run a short traced scheduler run, uninstall: the
    digest layer is seen, the hit ratio of a cache the run reads is
    reported, and every wrapped function is restored.  The run's digests
    read node records and look up no lru keyed on a node, so the
    node-render and node-name ratios the tracer reports read 0 on it.  The
    run is made in a process of its own: nodes that other tests' caches
    keep alive carry their records, so the run would read no alternatives."""
    digests, alternatives, node_render, node_names, restored = in_fresh_process(
        "test_bench_contract", "_traced_run()")
    assert digests == 21
    assert alternatives > 0
    assert node_render == 0
    assert node_names == 0
    assert restored


# Run in a fresh interpreter: the modules that importing conftest adds to
# those the interpreter started with (site's .pth files load some).
_CONFTEST_IMPORTS = """
import sys
before = set(sys.modules)
sys.path[:0] = [{tests!r}, {src!r}]
import conftest
print(*sorted({{m.partition(".")[0] for m in set(sys.modules) - before}}))
"""


def test_conftest_imports_only_the_standard_library_and_ubsc():
    """``bench/workloads.py`` imports conftest for its program generator, so
    every module conftest pulls in is charged to the benchmark's set-up
    time and memory: conftest imports pytest, hypothesis or a test helper
    only while pytest runs."""
    code = _CONFTEST_IMPORTS.format(tests=os.path.join(ROOT, "tests"),
                                    src=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, check=True)
    added = set(out.stdout.split())
    assert added - set(sys.stdlib_module_names) == {"conftest", "ubsc"}
