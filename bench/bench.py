"""Benchmark for ubsc: four workloads, end-to-end metrics from untraced runs,
per-layer metrics from a separate traced run.

    python3 bench/bench.py --workload trace --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  Any failed output
check makes the exit code 1.  See README.md in this directory for the
workloads and metrics, and BENCHMARK.json at the repository root for the
list of metrics.

    python3 bench/bench.py --record bench/ref --size full

re-records the reference outcomes the output checks compare against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7  # cold processes whose set-up time gives setup_s


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "ubsc")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "commit": commit, "src_sha256": src.hexdigest()[:16]}


def _tail(samples: list) -> tuple:
    """p99 when at least ten samples lie beyond it, else p90.  Returns
    (value, percentile).  p99.9 is not used: on sweep it falls among
    garbage-collector pauses whose placement moves with the seed."""
    xs = sorted(samples)
    pct = 99.0 if len(xs) >= 1000 else 90.0
    return xs[min(len(xs) - 1, int(len(xs) * pct / 100.0))], pct


def _gauges(state) -> dict:
    from ubsc import terms as t
    if state is None:
        return {"restricted": 0, "buffers_max": 0, "live_sessions": 0}
    live = set()
    for nd in state.nodes:
        live |= t.process_sessions(nd.process)
    return {"restricted": len(state.restricted),
            "buffers_max": max((len(nd.buffers) for nd in state.nodes), default=0),
            "live_sessions": len(live)}


def _load_refs(refs_dir: str, workload: str) -> dict:
    with open(os.path.join(refs_dir, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _timed_phase(wl, items: int):
    """Run the first ``items`` items, with calibration slices between ops;
    returns the op log, whose ``clock`` times the phase."""
    from hostclock import HostClock
    from workloads import OpLog
    log = OpLog(HostClock())
    log.clock.calibrate()
    for item in wl.items[:items]:
        wl.run(item, log)
        log.tick(perf_counter())
    log.clock.calibrate()
    return log


def _setup_samples(args) -> list:
    """Set-up time of fresh processes: spawn to the first op being ready.
    These times are not scaled to the reference host speed: much of a
    set-up is process start and imports, which did not follow the
    calibration unit.  Over two sets of ten seeds, scaled setup_s medians
    moved by 10 to 15% while the raw ones moved by 0 to 12%."""
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed), "--refs", args.refs],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up in a fresh process failed")
        out.append(t1 - t0)
    return out


def _end_to_end(wl, log, setup) -> tuple:
    """Op timings are scaled to the reference host speed (see
    hostclock.py); the raw ones go on the info line."""
    attempted, clock = len(log.latencies), log.clock
    lat = log.scaled()
    tail, pct = _tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (attempted / clock.scaled_work_s(), "1/s"),
        "op_us_p50": (statistics.median(lat) * 1e6, "us"),
        "op_us_tail": (tail * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "growth_ratio": (wl.growth(log), "ratio"),
    }
    raw = {"ops_per_s": attempted / clock.work_s(),
           "op_us_p50": statistics.median(log.latencies) * 1e6,
           "op_us_tail": _tail(log.latencies)[0] * 1e6}
    info = {"tail_percentile": pct, "samples": attempted,
            "fail_ratio": log.failed / attempted, "setup_samples_s": setup,
            "timed_s": clock.slices[-1][1] - clock.slices[0][0],
            "host_speed": clock.host_speed(), "calibration_slices": len(clock.slices),
            "raw": raw}
    return metrics, info


def _per_layer(args, wl, tracer, traced_log, items: int) -> tuple:
    metrics = tracer.layer_metrics()
    for key, value in _gauges(traced_log.last_state).items():
        metrics[f"engine.state.{key}"] = (value, "count")
    metrics["safety.search.found_ratio"] = (
        traced_log.found / traced_log.searches if traced_log.searches else 0.0, "ratio")
    tracer.clear_caches()
    plain = _timed_phase(wl, items).clock
    traced = traced_log.clock
    metrics["trace_overhead_ratio"] = (traced.scaled_work_s() / plain.scaled_work_s(),
                                       "ratio")
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.tsv.gz")
    tracer.write(spans)
    info = {"spans": len(tracer.start), "spans_file": os.path.relpath(spans, ROOT),
            "traced_items": items, "untraced_s": plain.work_s(), "traced_s": traced.work_s()}
    return metrics, info


def _record(args) -> int:
    from workloads import SIZES, WORKLOADS
    os.makedirs(args.record, exist_ok=True)
    for name in ([args.workload] if args.workload else WORKLOADS):
        size = SIZES[args.size][name]
        wl = WORKLOADS[name](size, {}, 0)
        outcomes = {}
        for item in wl.items:
            outcomes[wl.key(item)] = wl.outcome(item)
            if outcomes[wl.key(item)] is None:
                raise RuntimeError(f"{name}: {wl.key(item)} raised")
        entries = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}"
                              for k, v in sorted(outcomes.items()))
        with open(os.path.join(args.record, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(f'{{"machine": {json.dumps(_machine(), sort_keys=True)},\n'
                     f'"size": {json.dumps(size, sort_keys=True)},\n'
                     f'"outcomes": {{\n{entries}\n}}}}\n')
        print(f"recorded {name}: {len(outcomes)} outcomes", flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("trace", "sweep", "verify", "search"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", default=os.path.join(HERE, "ref"),
                    help="directory of recorded reference outcomes")
    ap.add_argument("--record", metavar="DIR",
                    help="record reference outcomes into DIR and exit")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes to record references at")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ubsc", "__init__.py")):
        print(f"bench: no ubsc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.record:
        return _record(args)
    if not args.workload:
        ap.error("--workload is required")

    from workloads import WORKLOADS
    refs = _load_refs(args.refs, args.workload)
    factory = WORKLOADS[args.workload]
    if args.setup_only:
        factory(refs["size"], refs["outcomes"], args.seed)
        print("ready", flush=True)
        return 0

    machine = _machine()
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        wl = factory(refs["size"], refs["outcomes"], args.seed)
        # both the traced phase and its untraced rerun start from cold caches
        tracer.clear_caches()
        items = wl.items_for(args.seconds / 2)
        log = _timed_phase(wl, items)
        tracer.uninstall()
        metrics, info = _per_layer(args, wl, tracer, log, items)
    else:
        setup = _setup_samples(args)
        wl = factory(refs["size"], refs["outcomes"], args.seed)
        log = _timed_phase(wl, wl.items_for(args.seconds))
        metrics, info = _end_to_end(wl, log, setup)

    attempted = len(log.latencies)
    result = {"correct": log.failed == 0, "attempted": attempted, "failed": log.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine, **info, **result}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print("info: " + json.dumps(info, sort_keys=True))
    for k, (v, u) in metrics.items():
        print(f"{k:40s} {v:14.6g} {u}")
    print(json.dumps(result, sort_keys=True))
    return 0 if log.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
