"""``ubsc replay`` replays a trace from its own step records, without the
scheduler, and agrees with the old replay that re-ran the scheduler
(``tests/replay_oracle.py``) on genuine, changed-digest, cut and extended
traces of every corpus program."""

import json
import os
import re

import pytest

from replay_oracle import replay_trace
from ubsc import engine as eng
from ubsc.cli import main
from ubsc.corpus import corpus_dir, load_program

PROGRAMS = sorted(f for f in os.listdir(corpus_dir()) if f.endswith(".ubsc"))
MAX_STEPS = 150


def _no_scheduler(*args, **kwargs):
    raise AssertionError("replay re-ran the scheduler")


def _replay(path, prog, records, capsys, monkeypatch):
    """The outcome of ``ubsc replay`` on ``records``, in the oracle's terms,
    with ``run_scheduler`` patched to raise."""
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    with monkeypatch.context() as m:
        m.setattr(eng, "run_scheduler", _no_scheduler)
        rc = main(["replay", prog, str(path)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1, lines
    if rc == 0:
        assert lines[0].startswith("replay ok")
        return None
    assert rc == 1 and lines[0].startswith("replay failed: "), lines
    if "length mismatch" in lines[0]:
        return "length"
    return int(re.match(r"replay failed: step (\d+): ", lines[0])[1])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", PROGRAMS)
def test_trace_replays_from_its_records_like_the_oracle(name, seed, tmp_path, capsys,
                                                        monkeypatch):
    prog = os.path.join(corpus_dir(), name)
    trace = tmp_path / "t.jsonl"
    assert main(["run", prog, "--seed", str(seed), "--loss-rate", "0.3",
                 "--recovery-bias", "0.2", "--max-steps", str(MAX_STEPS),
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    records = [json.loads(l) for l in trace.read_text().splitlines()]
    n = len(records) - 1
    changed = [dict(r) for r in records]
    changed[1 + n // 2]["digest"] = "0" * 16
    extended = [dict(records[0], max_steps=n - 1)] + records[1:]
    network = load_program(name).network
    cut = records[:max(1, n - 2)]  # the header and all but the last three steps
    expected = [(records, None), (changed, n // 2), (cut, "length"), (extended, "length")]
    for recs, want in expected:
        assert replay_trace(network, recs) == want
        assert _replay(tmp_path / "r.jsonl", prog, recs, capsys, monkeypatch) == want


def test_replay_digests_each_successor_once(monkeypatch):
    """Replay digests a successor to match its recorded digest, and
    ``run_script`` reads that digest again: a paxos5 trace replays with no
    more ``canonical_text`` calls than ``apply_redex`` calls."""
    network = load_program("paxos5.ubsc").network
    trace = eng.run_scheduler(network, eng.SchedulerConfig(
        seed=26508, loss_rate=0.3, recovery_bias=0.2, max_steps=200))
    calls = {"canonical_text": 0, "apply_redex": 0}

    def counted(name):
        real = getattr(eng, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(eng, name, counted(name))
    state = eng.RunState.from_network(eng.encode_network(network))
    _, digests = eng.run_script(state, [s.to_json() for s in trace.steps])
    assert digests == [s.digest for s in trace.steps]
    assert 200 <= calls["canonical_text"] <= calls["apply_redex"]


def test_replay_encodes_the_program_once(tmp_path, capsys, monkeypatch):
    """``ubsc replay`` encodes the program once: its initial state gives the
    digest the trace header is checked against and starts the replay."""
    prog, trace = os.path.join(corpus_dir(), "paxos3.ubsc"), tmp_path / "t.jsonl"
    assert main(["run", prog, "--max-steps", "20", "--trace", str(trace)]) == 0
    calls, encode = [], eng.encode_network
    monkeypatch.setattr(eng, "encode_network", lambda n: calls.append(n) or encode(n))
    capsys.readouterr()
    assert main(["replay", prog, str(trace)]) == 0
    assert capsys.readouterr().out.startswith("replay ok: 20 steps") and len(calls) == 1
