"""Smoke test of the benchmark at tiny sizes.

    python3 bench/smoke_test.py

Records tiny references, runs every workload untraced and traced, and checks
that each emits exactly the metrics BENCHMARK.json lists with no failed op.
Then checks that a corrupted reference is reported as a failure, and that the
benchmark refuses to run without the ubsc sources.  HostClockTest checks the
host-speed scaling arithmetic of hostclock.py on made-up slices.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "out", "smoke")
REFS = os.path.join(SCRATCH, "ref")


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "bench.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def run(workload, trace, refs=REFS):
    return bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--refs", refs)


class HostClockTest(unittest.TestCase):
    def test_scaling(self):
        sys.path.insert(0, HERE)
        from hostclock import PERIOD_S, REF_UNIT_S, HostClock
        unit = REF_UNIT_S
        clock = HostClock()
        # slices at the reference speed and at half of it, around 1 s of work
        clock.slices = [(0.0, unit), (1.0 + unit, 1.0 + 3 * unit)]
        self.assertAlmostEqual(clock.work_s(), 1.0)
        self.assertAlmostEqual(clock.scale(1), 2 / 3)
        self.assertAlmostEqual(clock.scaled_work_s(), 2 / 3)
        now = 1.0 + 3 * unit + PERIOD_S / 2
        self.assertEqual(clock.tick(now), now)  # no slice before a period of work
        self.assertEqual(clock.segment, 2)
        clock.tick(1.0 + 3 * unit + 2 * PERIOD_S)
        self.assertEqual(clock.segment, 3)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        rc, lines, err = bench("--record", REFS, "--size", "tiny")
        assert rc == 0, err
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def test_every_metric_emitted(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for w in self.spec["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    rc, lines, err = run(w["name"], trace)
                    self.assertEqual(rc, 0, err)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: m["unit"] for k, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()),
                                        result["metrics"])

    def test_corrupted_reference_fails(self):
        bad = os.path.join(SCRATCH, "ref-bad")
        shutil.copytree(REFS, bad)
        for workload in ("trace", "search"):
            path = os.path.join(bad, f"{workload}.json")
            with open(path, encoding="utf-8") as fh:
                refs = json.load(fh)
            for key, good in refs["outcomes"].items():  # corrupt every outcome
                refs["outcomes"][key] = good[::-1] if workload == "trace" \
                    else [not good[0], good[1] + 1]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(refs, fh)
            with self.subTest(workload=workload):
                rc, lines, _ = run(workload, 0, refs=bad)
                self.assertNotEqual(rc, 0)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])

    def test_refuses_without_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        rc, lines, _ = bench("--workload", "trace", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare,
                             script=os.path.join(bare, "bench", "bench.py"))
        self.assertNotEqual(rc, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
