"""The four benchmark workloads.

Each workload builds its inputs during set-up from the workload seed, then
runs items (a scheduler run, a verified scheduler run, or one search) one at
a time.  An item appends one latency per op to an :class:`OpLog` and checks
its own outputs; a failed check marks the item's ops failed.

Reference outcomes recorded from a trusted commit live in ``ref/<name>.json``
together with the sizes they were recorded at, so a run always uses the
sizes its references describe.
"""

from __future__ import annotations

import hashlib
import os
import random
import statistics
import sys
from time import perf_counter

from hostclock import HostClock
from ubsc import checker as ck
from ubsc import corpus as cp
from ubsc import engine as eng
from ubsc import safety as sf
from ubsc import sestypes as st
from ubsc import syntax as sx

TESTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
LOSS, BIAS = 0.3, 0.2  # the consensus configuration of criterion 7
DEFAULT_TRACE_SEED = 26508

# Input sizes per workload.  ``window`` is the number of steps at each end of
# a run that growth_ratio compares.
SIZES = {
    "full": {
        "trace": {"steps": 1100, "window": 250},
        "sweep": {"steps": 500, "seeds": 120, "window": 250},
        "verify": {"seed_cap": None, "seed_share": 3, "generated": 24, "window": 10},
        "search": {"seeds": 8, "steps": 60, "window": 15},
    },
    "tiny": {
        "trace": {"steps": 60, "window": 10},
        "sweep": {"steps": 500, "seeds": 4, "window": 250},
        "verify": {"seed_cap": 2, "seed_share": 1, "generated": 3, "window": 5},
        "search": {"seeds": 1, "steps": 15, "window": 5},
    },
}


class OpLog:
    """Per-op latencies and outcomes of a timed phase.

    With a :class:`HostClock`, calibration slices run between ops and each
    op records the clock segment it ended in; :meth:`scaled` then gives the
    latencies at the reference host speed."""

    def __init__(self, clock: HostClock | None = None):
        self.clock = clock
        self.latencies: list = []  # raw seconds, one per op
        self.segments: list = []  # clock segment of each op
        self.runs: list = []  # (first, end) latency indices of each scheduler run
        self.steps: list = []  # per search: the step that reached its state
        self.failed = 0
        self.searches = 0
        self.found = 0
        self.last_state = None

    def add(self, latency: float) -> None:
        self.latencies.append(latency)
        self.segments.append(self.clock.segment if self.clock else 0)

    def tick(self, now: float) -> float:
        """At an op boundary; returns the time the next op starts."""
        return self.clock.tick(now) if self.clock else now

    def scaled(self) -> list:
        """Latencies at the reference host speed (raw without a clock)."""
        if self.clock is None:
            return list(self.latencies)
        scale = {k: self.clock.scale(k) for k in set(self.segments)}
        return [x * scale[k] for x, k in zip(self.latencies, self.segments)]

    def fail_from(self, first: int) -> None:
        """Mark every op since index ``first`` failed."""
        self.failed += len(self.latencies) - first


def stratified(groups: list, rng: random.Random) -> list:
    """Interleave shuffled groups so every prefix holds each group in
    proportion to its size: a timed phase cut at any point sees the same mix
    of inputs whatever the seed."""
    keyed = []
    for items in groups:
        items = list(items)
        rng.shuffle(items)
        n = len(items)
        keyed.extend(((k + rng.random()) / n, item) for k, item in enumerate(items))
    keyed.sort(key=lambda kv: kv[0])
    return [item for _, item in keyed]


# id of an lru-cached function -> [hits, misses] it had counted when
# clear_caches emptied it (cache_clear also resets the counts)
CLEARED_COUNTS: dict = {}


def clear_caches() -> None:
    """Empty every lru cache of the loaded ubsc modules, keeping their hit
    and miss counts in CLEARED_COUNTS."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "ubsc" or name.startswith("ubsc.")):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                    info = obj.cache_info()
                    counts = CLEARED_COUNTS.setdefault(id(obj), [0, 0])
                    counts[0] += info.hits
                    counts[1] += info.misses
                    obj.cache_clear()


def _ratio_of_medians(a: list, b: list) -> float:
    return statistics.median(a) / statistics.median(b) if a and b else 0.0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _scheduled_run(network, cfg, log: OpLog, digests: bool, check=None):
    """One ``run_scheduler`` run; an op's latency is the time between
    successive ``on_step`` calls (after ``check``, when given, has run),
    less any calibration slice run in between."""
    first = len(log.latencies)
    prev = [perf_counter()]

    def on_step(state, step):
        if check is not None:
            check(state, step)
        now = perf_counter()
        log.add(now - prev[0])
        log.last_state = state
        prev[0] = log.tick(now)

    try:
        return eng.run_scheduler(network, cfg, on_step=on_step, digests=digests)
    except Exception:
        log.add(perf_counter() - prev[0])
        log.fail_from(first)
        return None
    finally:
        log.runs.append((first, len(log.latencies)))


class Workload:
    name = ""
    item_s = 1.0  # seconds one item takes at the seed commit on a 2-core Xeon

    def __init__(self, size: dict, outcomes: dict, seed: int):
        self.size = size
        self.outcomes = outcomes
        self.rng = random.Random(seed)
        self.items = self.build()

    def build(self) -> list:
        raise NotImplementedError

    def items_for(self, seconds: float) -> int:
        """How many items make a timed phase of about ``seconds`` at the seed
        commit.  The count, not the clock, ends the phase, so every commit
        runs the same inputs for a seed."""
        return min(len(self.items), max(1, round(seconds / self.item_s)))

    def run(self, item, log: OpLog) -> None:
        raise NotImplementedError

    def outcome(self, item):
        """The outcome of ``item`` that a reference records; None when the
        item raised."""
        raise NotImplementedError

    def key(self, item) -> str:
        return str(item)

    def growth(self, log: OpLog) -> float:
        """Median op latency over the last ``window`` steps of the runs
        divided by the median over their first ``window`` steps, pooled over
        every run long enough to hold both windows.  Medians, because a
        garbage-collector pause is as long as a whole window of fast steps."""
        w, lat = self.size["window"], log.scaled()
        first, last = [], []
        for a, b in log.runs:
            if b - a >= 2 * w:
                first += lat[a:a + w]
                last += lat[b - w:b]
        return _ratio_of_medians(last, first)

    def _check(self, item, got, log: OpLog, first: int) -> None:
        if got is None or got != self.outcomes.get(self.key(item)):
            log.fail_from(first)


class TraceWorkload(Workload):
    """Traced paxos5 runs, digests on, each trace serialised to JSONL and
    compared by SHA-256.  The default seed runs first, then the other
    witness seeds in an order drawn from the workload seed."""

    name = "trace"
    item_s = 5.0

    def build(self):
        self.network = cp.load_program("paxos5.ubsc").network
        rest = [s for s in cp.load_witness_seeds() if s != DEFAULT_TRACE_SEED]
        self.rng.shuffle(rest)
        return [DEFAULT_TRACE_SEED] + rest

    def _trace(self, seed, log):
        cfg = eng.SchedulerConfig(seed=seed, loss_rate=LOSS, recovery_bias=BIAS,
                                  max_steps=self.size["steps"])
        tr = _scheduled_run(self.network, cfg, log, digests=True)
        return None if tr is None else _sha(tr.to_jsonl())

    def run(self, seed, log):
        first = len(log.latencies)
        self._check(seed, self._trace(seed, log), log, first)

    def outcome(self, seed):
        return self._trace(seed, OpLog())


class SweepWorkload(Workload):
    """Untraced paxos5 runs over witness and sweep seeds, each followed by
    the consensus instrumentation."""

    name = "sweep"
    item_s = 0.2

    def build(self):
        self.network = cp.load_program("paxos5.ubsc").network
        self.witness = set(cp.load_witness_seeds())
        sweep = [s for s in range(self.size["seeds"]) if s not in self.witness]
        return stratified([sorted(self.witness), sweep], self.rng)

    def _sweep(self, seed, log):
        cfg = eng.SchedulerConfig(seed=seed, loss_rate=LOSS, recovery_bias=BIAS,
                                  max_steps=self.size["steps"])
        tr = _scheduled_run(self.network, cfg, log, digests=False)
        if tr is None:
            return None, None
        return _sha(tr.to_jsonl()), cp.check_consensus_trace(tr, 5)

    def run(self, seed, log):
        first = len(log.latencies)
        sha, rep = self._sweep(seed, log)
        if rep is not None and (rep.violations or (seed in self.witness and not rep.agreed)):
            log.fail_from(first)
        else:
            self._check(seed, sha, log, first)

    def outcome(self, seed):
        return self._sweep(seed, OpLog())[0]


class VerifyWorkload(Workload):
    """Criterion 4's per-step loop: after every scheduler step the network
    must typecheck with a one-step-advanced context and be error free.  Each
    job's schedule is also compared with its reference.

    The pool holds the first ``1 / seed_share`` of each family's scheduler
    seeds.  paxos3 and paxos5 jobs take nine tenths of the time and their
    cost varies with the seed, so a seed-drawn subset of the jobs spread
    ops_per_s by 0.09 over five seeds: a full-length run takes the whole
    pool, and the seed sets the order.  Jobs are stratified by family and by
    the quartile of their reference final state size (buffers over all
    nodes), so a shorter run sees the same mix."""

    name = "verify"
    item_s = 0.1

    P3_T = "?int. !set((int, (int, int))). &{accept: ?(int, int).end, restart: end}"

    def build(self):
        def fixed(text):
            T = sx.parse_type(text)
            return lambda state: {**{s: T for s in state.restricted}, "a": T}

        drop_T = sx.parse_type("?int.?int.end")
        drop_s = sx.parse_type("?int.!int.end")

        def drop_protocols(state):
            return {**{s: drop_T for s in state.restricted}, "s": drop_s, "a": drop_T}

        specs = [  # file, seeds, steps, loss, bias, protocols: as in criterion 4
            ("heartbeat_simple.ubsc", 60, 12, 0.3, 0.3, fixed("?str.end")),
            ("heartbeat_gather.ubsc", 110, 25, 0.3, 0.25, fixed("!str.!str.end")),
            ("drop_connections.ubsc", 70, 25, 0.3, 0.25, drop_protocols),
            ("paxos3.ubsc", 185, 50, 0.3, 0.2, fixed(self.P3_T)),
            ("paxos5.ubsc", 26, 50, 0.3, 0.2, fixed(self.P3_T)),
        ]
        families = []
        for fname, nseeds, steps, loss, bias, protos in specs:
            prog = cp.load_program(fname)
            families.append(self._jobs(fname, prog, nseeds, steps, loss, bias, protos))

        if TESTS_DIR not in sys.path:
            sys.path.insert(0, TESTS_DIR)
        from conftest import generate_program
        generated = []
        for gseed in range(self.size["generated"]):
            prog = sx.parse(generate_program(gseed))
            T = prog.shared_types()["a"]
            protos = (lambda state, T=T: {**{s: T for s in state.restricted}, "a": T})
            generated += self._jobs(f"generated{gseed}", prog, 4, 25, 0.3, 0.25, protos)
        families.append(generated)

        groups = []
        for jobs in families:
            jobs.sort(key=lambda job: (self.outcomes.get(job[0], ("", 0))[1], job[0]))
            groups += [jobs[q * len(jobs) // 4:(q + 1) * len(jobs) // 4] for q in range(4)]
        return stratified([g for g in groups if g], self.rng)

    def _jobs(self, family, prog, nseeds, steps, loss, bias, protos):
        gamma = ck.Gamma(shared=prog.shared_types())
        initial = eng.RunState.from_network(eng.encode_network(prog.network))
        cap, share = self.size["seed_cap"], self.size["seed_share"]
        n = nseeds if cap is None else min(nseeds, cap)
        return [(f"{family}:{s}", prog, gamma, initial, protos,
                 eng.SchedulerConfig(seed=s, loss_rate=loss, recovery_bias=bias,
                                     max_steps=steps))
                for s in range(-(-n // share))]

    def key(self, job):
        return job[0]

    def _verify(self, job, log):
        """Run the job checking every step; returns the schedule's SHA-256
        and final state size, or None when the run raised."""
        _, prog, g, initial, protocol_of, cfg = job
        prev = [ck.type_network(g, initial.to_network(), protocols=protocol_of(initial))]

        def check(state, step):
            ok = prev[0].ok
            cur = ck.type_network(g, state.to_network(), protocols=protocol_of(state))
            ok = ok and cur.ok
            if ok and not st.advances_to(prev[0].full_context, cur.full_context):
                # the property is existential: some one-step-advanced context
                # types the result, even when the canonical choice differs
                witness = None
                for cand in [dict(prev[0].full_context)] + \
                        st.context_advance(prev[0].full_context):
                    try:
                        again = ck.type_network(g, state.to_network(),
                                                protocols=protocol_of(state), pin=cand)
                    except Exception:
                        continue
                    if again.ok:
                        witness = again
                        break
                ok = witness is not None
                cur = witness or cur
            ok = ok and sf.is_error_network(state.to_network()).verdict == "ok"
            if not ok:
                log.failed += 1
            prev[0] = cur

        tr = _scheduled_run(prog.network, cfg, log, digests=False, check=check)
        if tr is None:
            return None
        return [_sha(tr.to_jsonl()), sum(len(nd.buffers) for nd in tr.final.nodes)]

    def run(self, job, log):
        first, failed = len(log.latencies), log.failed
        got = self._verify(job, log)
        if got is None or got != self.outcomes.get(job[0]):
            log.failed = failed  # every op of the job fails, each counted once
            log.fail_from(first)

    def outcome(self, job):
        log = OpLog()
        got = self._verify(job, log)
        if log.failed:
            raise RuntimeError(f"{job[0]}: {log.failed} steps failed verification")
        return got


class SearchWorkload(Workload):
    """Progress and recovery searches from every eligible session shape of
    scheduler-reached paxos states; the states are built during set-up.

    Search cost grows steeply with the depth of the schedule found: a
    handful of deep searches take a third of the pool's time, and a
    seed-drawn subset of them would swing ops_per_s by tens of percent.  So
    a full-length run takes the whole pool.  The order alone still moved
    ops_per_s by 0.11 over five seeds (one seed run four times: 0.01),
    through the work the searches shared in ubsc's caches.  So the searches
    of one scheduler run stay together, in step order, and start from empty
    caches, as in a fresh process checking that run; the seed shuffles the
    runs."""

    name = "search"
    item_s = 0.02
    PROGRAMS = ("paxos3.ubsc", "paxos_multi.ubsc", "paxos5.ubsc")

    def build(self):
        blocks = []
        for fname in self.PROGRAMS:
            network = cp.load_program(fname).network
            for seed in range(self.size["seeds"]):
                states, block = [], []
                cfg = eng.SchedulerConfig(seed=seed, loss_rate=LOSS, recovery_bias=BIAS,
                                          max_steps=self.size["steps"])
                eng.run_scheduler(network, cfg, digests=False,
                                  on_step=lambda state, step: states.append(state))
                for i, state in enumerate(states):
                    for kind, shapes in (("progress", sf.progress_shape_sessions),
                                         ("recovery", sf.recovery_shape_sessions)):
                        for sess, c in shapes(state):
                            block.append((f"{fname}:{seed}:{i}:{kind}:{sess}:{c}", state))
                blocks.append(block)
        self.rng.shuffle(blocks)
        self.block_starts = {block[0][0] for block in blocks if block}
        return [task for block in blocks for task in block]

    def key(self, task):
        return task[0]

    def _search(self, task, log):
        key, state = task
        _, _, step, kind, sess, c = key.split(":")
        fn = sf.session_progress_search if kind == "progress" else sf.session_recovery_search
        t0 = perf_counter()
        try:
            sched = fn(state, sess, int(c))
        except Exception:
            return None
        finally:
            log.add(perf_counter() - t0)
            log.steps.append(int(step))
            log.last_state = state
        log.searches += 1
        log.found += sched is not None
        return [sched is not None, len(sched or ())]

    def run(self, task, log):
        if task[0] in self.block_starts:
            clear_caches()
        first = len(log.latencies)
        self._check(task, self._search(task, log), log, first)

    def outcome(self, task):
        return self._search(task, OpLog())

    def growth(self, log):
        """Searches have no run of their own: compare the mean latency of
        searches from states in the last ``window`` steps of their scheduler
        run with those from states in its first ``window`` steps.  Means,
        because the median falls where search latency climbs steeply, so
        the order of the searches moved it by a tenth between seeds."""
        w, n = self.size["window"], self.size["steps"]
        lat = log.scaled()
        early = [x for x, i in zip(lat, log.steps) if i < w]
        late = [x for x, i in zip(lat, log.steps) if i >= n - w]
        if not early or not late:
            return 0.0
        return statistics.fmean(late) / statistics.fmean(early)


WORKLOADS = {w.name: w for w in (TraceWorkload, SweepWorkload, VerifyWorkload, SearchWorkload)}
