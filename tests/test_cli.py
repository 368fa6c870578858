import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import ubsc
from ubsc import cli
from ubsc import terms as t
from ubsc import values as v
from ubsc.cli import main, parse_declared
from ubsc.corpus import corpus_dir
from ubsc.syntax import parse_network
from ubsc.terms import Endpoint, flatten_nodes


def corpus(name):
    return os.path.join(corpus_dir(), name)


def run_cli(args, stdin_text=None, capsys=None):
    return main(args)


def test_parse_declared():
    d = parse_declared("*s:(1, end), s:(1, !int.end)")
    assert Endpoint("s", True) in d and d[Endpoint("s", True)][0] == 1


def test_check_ok(capsys):
    rc = main(["check", corpus("heartbeat_runtime1.ubsc")])
    out = capsys.readouterr().out
    assert rc == 0 and "Ok" in out


def test_check_with_context(capsys):
    rc = main(["check", corpus("heartbeat_runtime.ubsc"),
               "--context", "*s:(1, end), s:(1, end)"])
    assert rc == 0
    rc = main(["check", corpus("ok_rcv_uni.ubsc"), "--context", "s:(1, end)"])
    assert rc == 0


def test_check_error_network_fails(capsys):
    rc = main(["check", corpus("error_brc_bra.ubsc"),
               "--context", "*s:(0, !int.end), s:(0, ?int.end)"])
    out = capsys.readouterr().out
    assert rc == 1 and "Fail" in out


def test_check_derivation_dump(capsys):
    rc = main(["check", corpus("heartbeat_runtime1.ubsc"), "--derivation"])
    out = capsys.readouterr().out
    assert rc == 0 and "TSynch" in out and "TSRes" in out


def test_check_warns_of_a_unit_send(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UBSC_COLOR", raising=False)
    f = tmp_path / "unit.ubsc"
    f.write_text("[ *s!<unit>. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ]")
    rc = main(["check", str(f)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("warning: unit value sent on *s; recovery tests cannot "
                          "distinguish it from a default\nOk")


def test_unit_send_lint_on_a_long_send_chain():
    """One unit send at the bottom of 3,000 sends is found, in a loop."""
    s = Endpoint("s", False)
    p = t.Send(s, v.Lit(v.UNIT), t.Inact())
    for _ in range(3_000):
        p = t.Send(s, v.Lit(v.IntV(1)), p)
    assert cli._lint_unit_sends(t.NetworkNode(p, (t.Buffer(s, 0, ()),))) == [s]


def test_unit_send_lint_reports_in_preorder():
    net = parse_network("[ *a!<unit>. (b!<1>. 0 + b!<unit>. 0) | *a~0:[] | b~0:[] ] "
                        "|| [ if true then c!<unit>. 0 else 0 | c~0:[] ]")
    assert cli._lint_unit_sends(net) == [Endpoint("a", True), Endpoint("b", False),
                                         Endpoint("c", False)]


def test_check_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.ubsc"
    f.write_text("[ s!< ]")
    rc = main(["check", str(f)])
    assert rc == 2


def test_run_deterministic_traces(tmp_path, capsys):
    t1 = tmp_path / "a.jsonl"
    t2 = tmp_path / "b.jsonl"
    for t in (t1, t2):
        rc = main(["run", corpus("heartbeat_gather.ubsc"), "--seed", "5",
                   "--loss-rate", "0.2", "--recovery-bias", "0.1",
                   "--max-steps", "40", "--trace", str(t)])
        assert rc == 0
    assert t1.read_bytes() == t2.read_bytes()
    capsys.readouterr()


def test_run_with_check_and_safety(capsys):
    rc = main(["run", corpus("heartbeat_gather.ubsc"), "--seed", "1",
               "--loss-rate", "0", "--recovery-bias", "0", "--max-steps", "30",
               "--check", "--safety"])
    out = capsys.readouterr().out
    assert rc == 0 and "safety: ok" in out


def test_run_check_rejects_an_ill_typed_program(tmp_path, capsys, monkeypatch):
    """``run --check`` types the program before running it: an ill-typed
    one prints its one ``Fail`` line, takes no step and exits 1."""
    monkeypatch.delenv("UBSC_COLOR", raising=False)
    f = tmp_path / "ill.ubsc"
    f.write_text("[ *s!<1 + true>. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ]")
    rc = main(["run", str(f), "--check"])
    assert rc == 1
    assert capsys.readouterr().out == "Fail TNode: arithmetic over int, bool (at node#0 (line 1))\n"


def test_run_safety_checks_the_initial_state(capsys):
    """A program that starts as an error network fails ``--safety``, though
    no step reaches another one."""
    rc = main(["run", corpus("error_brc_brc.ubsc"), "--safety", "--max-steps", "5"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 1 and "safety: 1 error-network states" in lines
    assert lines[-1] == ("safety violation at the initial state: error network on "
                         "session s: node#0 Brc^0 with node#1 Brc^0")


def test_closed_stdout_exits_1_quietly():
    """A reader that stops early, as in ``ubsc run ... | head -1``, ends the
    command with exit 1 and nothing on standard error."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = _run_module("ubsc", ["run", corpus("paxos5.ubsc"), "--max-steps", "150"],
                          stdout=write_end)
    finally:
        os.close(write_end)
    assert out.returncode == 1 and out.stderr == ""


def test_run_sweep(capsys):
    rc = main(["run", corpus("heartbeat_simple.ubsc"), "--sweep", "0..2",
               "--max-steps", "10"])
    out = capsys.readouterr().out
    assert rc == 0 and "[seed 2]" in out


def test_encode_recovery_roundtrip(capsys):
    rc = main(["encode-recovery", corpus("paxos_recover.ubsc")])
    out = capsys.readouterr().out
    assert rc == 0 and ">r" not in out
    # idempotent: encoding the encoded output changes nothing
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".ubsc", delete=False) as fh:
        fh.write(out)
        path = fh.name
    rc = main(["encode-recovery", path])
    out2 = capsys.readouterr().out
    assert rc == 0 and out2 == out
    os.unlink(path)


def test_replay_golden_script(capsys):
    from ubsc import corpus as cp
    case = [c for c in cp.corpus_programs() if c.name == "gather_chain"][0]
    rc = main(["replay", corpus(case.program), case.script_path()])
    out = capsys.readouterr().out
    assert rc == 0
    for i, d in enumerate(case.digests):
        assert f"step {i}: {d}" in out


def test_replay_trace_file(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    rc = main(["run", corpus("heartbeat_gather.ubsc"), "--seed", "9",
               "--max-steps", "25", "--trace", str(trace)])
    capsys.readouterr()
    rc = main(["replay", corpus("heartbeat_gather.ubsc"), str(trace)])
    out = capsys.readouterr().out
    assert rc == 0 and "replay ok" in out


def test_replay_script_checks_digests(tmp_path, capsys):
    """A script step's digest is checked: the steps of a trace, made a JSON
    array with one digest changed, fail the replay at that step in one line."""
    trace = tmp_path / "t.jsonl"
    main(["run", corpus("paxos3.ubsc"), "--seed", "1", "--loss-rate", "0.3",
          "--max-steps", "60", "--trace", str(trace)])
    steps = [json.loads(l) for l in trace.read_text().splitlines()[1:]]
    steps[40]["digest"] = "0" * 16
    script = tmp_path / "script.json"
    script.write_text(json.dumps(steps))
    capsys.readouterr()
    rc = main(["replay", corpus("paxos3.ubsc"), str(script)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 1 and len(lines) == 1
    assert lines[0].startswith("replay failed: step 40: ") and "{" not in lines[0]


@pytest.mark.parametrize("case", ["other program", "digest changed", "digest removed"])
def test_replay_checks_the_initial_digest(case, tmp_path, capsys, monkeypatch):
    """A trace replays only from the network whose digest its header
    records: another program's trace, or a 3-step trace whose recorded
    digest was changed, fails the replay in one line, and a header without
    the digest is malformed."""
    monkeypatch.delenv("UBSC_COLOR", raising=False)
    trace = tmp_path / "t.jsonl"
    steps = "0" if case == "other program" else "3"
    assert main(["run", corpus("heartbeat_simple.ubsc"), "--max-steps", steps,
                 "--trace", str(trace)]) == 0
    records = [json.loads(l) for l in trace.read_text().splitlines()]
    assert len(records) == 1 + int(steps)
    if case == "digest changed":
        records[0]["initial_digest"] = "0" * 16
    elif case == "digest removed":
        del records[0]["initial_digest"]
    trace.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    prog = "paxos5.ubsc" if case == "other program" else "heartbeat_simple.ubsc"
    rc = main(["replay", corpus(prog), str(trace)])
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).strip().splitlines()
    assert len(lines) == 1
    if case == "digest removed":
        assert rc == 2 and lines[0].endswith("lacks a well-formed 'initial_digest'")
    else:
        assert rc == 1 and lines[0].startswith("replay failed: initial digest ")


def test_stepper_drives_and_records(tmp_path, capsys, monkeypatch):
    script = tmp_path / "script.json"
    # choose the broadcast, deliver to node 1 only, then receive, then quit
    inputs = iter(["0", "1", "1", "q"])
    monkeypatch.setattr("builtins.input", lambda *a: next(inputs))
    rc = main(["step", corpus("heartbeat_simple.ubsc"), "--script", str(script)])
    out = capsys.readouterr().out
    assert rc == 0 and "Bcast" in out
    saved = json.loads(script.read_text())
    assert saved[0]["rule"] == "Bcast" and saved[0]["receivers"] == [1]
    # the saved script replays to the same digests
    rc = main(["replay", corpus("heartbeat_simple.ubsc"), str(script)])
    out2 = capsys.readouterr().out
    assert rc == 0


def test_stepper_undo(capsys, monkeypatch):
    """Each undo shows the state before the last step again, an undo with no
    step left says so, and a step taken again reaches the same digest."""
    inputs = iter(["0", "all", "0", "u", "u", "u", "0", "all", "q"])
    monkeypatch.setattr("builtins.input", lambda *a: next(inputs))
    rc = main(["step", corpus("heartbeat_simple.ubsc")])
    assert rc == 0
    out = capsys.readouterr().out
    nets = [line for line in out.splitlines() if line.startswith("[")]
    assert len(set(nets)) == 3
    assert nets == [nets[i] for i in (0, 1, 2, 1, 0, 0, 1)]
    assert out.count("nothing to undo") == 1
    applied = [line for line in out.splitlines() if line.startswith("applied")]
    assert len(applied) == 3 and applied[0] == applied[2]


def _run_module(module, args, stdin_text=None, stdout=subprocess.PIPE, timeout=None,
                **env_vars):
    """``python -m module args`` in a child process, which finds the
    package where this process did, installed or not, with ``env_vars``
    added to its environment.  A child still running after ``timeout``
    seconds is killed and the call raises."""
    src = os.path.dirname(os.path.dirname(ubsc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **env_vars)
    return subprocess.run([sys.executable, "-m", module, *args], input=stdin_text,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                          timeout=timeout)


def test_console_entry_point():
    out = _run_module("ubsc.cli", ["check", corpus("heartbeat_runtime1.ubsc")])
    assert out.returncode == 0
    # ``python -m ubsc`` runs the same command line
    out = _run_module("ubsc", ["check", corpus("heartbeat_simple.ubsc")])
    assert out.returncode == 0 and "Ok" in out.stdout


def test_run_output_does_not_follow_hash_order(tmp_path):
    """Terms hash by identity, so a set of terms iterates in the order of
    their addresses, and a set of names in that of the string hash seed.  A
    traced, safety-checked paxos5 run writes the same bytes to stdout and
    to its trace under two string hash seeds."""
    outs = []
    for seed in ("0", "1"):
        trace = tmp_path / f"trace{seed}.jsonl"
        out = _run_module("ubsc", ["run", corpus("paxos5.ubsc"), "--seed", "26508",
                                   "--max-steps", "300", "--trace", str(trace),
                                   "--trace-networks", "--safety"], PYTHONHASHSEED=seed)
        assert out.returncode == 0, out.stderr
        outs.append((out.stdout, trace.read_bytes()))
    assert outs[0] == outs[1]


def test_stepper_asks_again_on_bad_input():
    """A negative choice, and a receivers line that is not all, none or ids
    or names a node outside the eligible family, get one line and the
    prompt again."""
    out = _run_module("ubsc", ["step", corpus("heartbeat_simple.ubsc")],
                      "-1\n0\nabc\n7\n1\nq\n")
    assert out.returncode == 0 and "Traceback" not in out.stderr
    assert "invalid index" in out.stdout and "applied Rec" not in out.stdout
    assert "not all, none or ids of receivers [1, 2]: abc" in out.stdout
    assert "not all, none or ids of receivers [1, 2]: 7" in out.stdout
    assert out.stdout.count("(all/none/ids)>") == 3
    assert "applied Bcast" in out.stdout and 's~1:["hbt"]' in out.stdout


@pytest.mark.parametrize("index", [5, -1])
def test_replay_script_index_out_of_range(index, tmp_path, capsys):
    """A script step's ``index`` outside the matches fails the replay with
    one line; -1 does not pick the last match."""
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"rule": "Bcast", "index": index}]))
    rc = main(["replay", corpus("heartbeat_simple.ubsc"), str(script)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 1 and len(lines) == 1
    assert "replay failed" in lines[0] and f"index {index} outside [0, 1)" in lines[0]


REPLAY_INPUTS = {
    "empty trace": "",
    "trace header without fields": "{}\n",
    "trace loss rate above 1":
        '{"seed": 0, "loss_rate": 3, "recovery_bias": 0.2, "max_steps": 5,'
        ' "initial_digest": "0511401473a7efe8"}\n',
    "script step without rule": '[{"sender": 0}]',
    "script step not an object": "[1]",
    "trace step without rule":
        '{"seed": 0, "loss_rate": 0.3, "recovery_bias": 0.2, "max_steps": 5,'
        ' "initial_digest": "0511401473a7efe8"}\n'
        '{"session": "s#0", "sender": 0, "receivers": [1], "digest": "0"}\n',
    "trace step receivers not ints":
        '{"seed": 0, "loss_rate": 0.3, "recovery_bias": 0.2, "max_steps": 5,'
        ' "initial_digest": "0511401473a7efe8"}\n'
        '{"rule": "Bcast", "session": "s#0", "sender": 0, "receivers": ["1"], "digest": "0"}\n',
}

PROGRAM_INPUTS = {
    "call args without comma": "[ def X(a, b) = 0 in X(1 2) ]",
    "trailing comma in a buffer": "[ 0 | s~0:[1,] ]",
    "set without comma": "[ if size({1 2}) = 2 then 0 else 0 ]",
}


@pytest.mark.parametrize("case", ["missing file", "empty trace", "sweep without range",
                                  "sweep bound not a number", "loss rate above 1",
                                  "trace header without fields", "trace loss rate above 1",
                                  "script step without rule", "script step not an object",
                                  "trace step without rule", "trace step receivers not ints",
                                  "negative max steps", "empty sweep range",
                                  "trace in a missing directory",
                                  "script in a missing directory",
                                  "context endpoint declared twice",
                                  *PROGRAM_INPUTS])
def test_malformed_input_exits_2_with_one_line(case, tmp_path, capsys, monkeypatch):
    replay_input = tmp_path / "replay.json"
    replay_input.write_text(REPLAY_INPUTS.get(case, ""))
    program_input = tmp_path / "program.ubsc"
    program_input.write_text(PROGRAM_INPUTS.get(case, ""))
    prog = corpus("heartbeat_simple.ubsc")
    missing = tmp_path / "missing"
    argv = {
        "missing file": ["check", str(tmp_path / "missing.ubsc")],
        "sweep without range": ["run", prog, "--sweep", "5"],
        "sweep bound not a number": ["run", prog, "--sweep", "5..x"],
        "loss rate above 1": ["run", prog, "--loss-rate", "2"],
        "negative max steps": ["run", prog, "--max-steps", "-3"],
        "empty sweep range": ["run", prog, "--sweep", "5..3"],
        "trace in a missing directory": ["run", prog, "--trace", str(missing / "x")],
        "script in a missing directory": ["step", prog, "--script", str(missing / "s.json")],
        "context endpoint declared twice": ["check", prog, "--context", "s:(1, end), s:(2, end)"],
        **{c: ["check", str(program_input)] for c in PROGRAM_INPUTS},
    }.get(case, ["replay", prog, str(replay_input)])
    monkeypatch.setattr(sys, "stdin", io.StringIO("0\n\nq\n"))  # one step, then quit
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert len((captured.out + captured.err).strip().splitlines()) == 1


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("args, golden, code", [
    (["check", "--derivation", "heartbeat_runtime1.ubsc"],
     "check_derivation_heartbeat_runtime1.txt", 0),
    (["check", "--derivation", "paxos5.ubsc"], "check_derivation_paxos5.txt", 0),
    (["run", "error_brc_bra.ubsc", "--safety", "--seed", "1", "--max-steps", "20"],
     "run_safety_error_brc_bra.txt", 1),
])
def test_output_matches_golden(args, golden, code, capsys, monkeypatch):
    """Derivations and a safety witness with node numbers print byte for
    byte as recorded before judgments were formatted on read and before
    the safety check decided in state order."""
    monkeypatch.delenv("UBSC_COLOR", raising=False)
    args = [corpus(a) if a.endswith(".ubsc") else a for a in args]
    assert main(args) == code
    with open(os.path.join(GOLDEN, golden), encoding="utf-8", newline="") as fh:
        assert capsys.readouterr().out == fh.read()


CORPUS_FILES = sorted(f for f in os.listdir(corpus_dir()) if f.endswith(".ubsc"))


def _sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode("utf-8")).hexdigest()


def test_printed_networks_match_golden(tmp_path, capsys, monkeypatch):
    """The printed networks of every corpus program, as ``encode-recovery``
    writes them and as a traced, safety-checked run writes them to stdout
    and to its trace, hash as recorded when parallel composition was binary
    and restriction bound one name."""
    monkeypatch.delenv("UBSC_COLOR", raising=False)
    with open(os.path.join(GOLDEN, "printed_networks.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(golden) == CORPUS_FILES
    for name in CORPUS_FILES:
        trace = tmp_path / f"{name}.jsonl"
        assert main(["encode-recovery", corpus(name)]) == 0
        encoded = capsys.readouterr().out
        code = main(["run", corpus(name), "--seed", "3", "--loss-rate", "0.3",
                     "--recovery-bias", "0.2", "--max-steps", "200", "--trace", str(trace),
                     "--trace-networks", "--safety"])
        assert {"encode_recovery": _sha256(encoded), "run_exit": code,
                "run_stdout": _sha256(capsys.readouterr().out),
                "trace": _sha256(trace.read_bytes())} == golden[name], name


DEEP_SOURCES = {
    "restrictions": "".join(f"new s{i}. " for i in range(1, 3001))
                    + "[ *s1!<1>. *s1!<2>. 0 | *s1~0:[] ]",
    "parallel": " || ".join(["[ *s!<1>. *s!<2>. 0 | *s~0:[] ]"]
                            + ["[ s?(x). s?(y). 0 | s~0:[] ]"] * 2999),
}


@pytest.mark.parametrize("case", list(DEEP_SOURCES))
def test_long_sources_check_run_and_replay(case, tmp_path):
    """3,000 ``new`` binders in a row parse into one restriction, and 3,000
    nodes joined by ``||`` into one composition, so ``check``, a traced
    ``run`` and its ``replay`` exit 0 on them.  Each runs in a child with a
    timeout: pytest can take minutes to format a ``RecursionError``."""
    prog, trace = tmp_path / f"{case}.ubsc", tmp_path / "trace.jsonl"
    prog.write_text(DEEP_SOURCES[case] + "\n", encoding="utf-8")
    for args in (["check", str(prog)],
                 ["run", str(prog), "--max-steps", "50", "--trace", str(trace)],
                 ["replay", str(prog), str(trace)]):
        out = _run_module("ubsc", args, timeout=60)
        assert out.returncode == 0, (args[0], out.stderr[-2000:])


@pytest.mark.parametrize("cmd", ["check", "run"])
def test_too_deep_a_program_fails_in_one_line(cmd, tmp_path):
    """A 1,000-prefix send chain is still walked recursively (ROADMAP item
    2): the command ends with one line naming it and exit code 2, not a
    ``RecursionError`` traceback."""
    prog = tmp_path / "deep.ubsc"
    prog.write_text("[ " + "s!<1>. " * 1000 + "0 | s~0:[] ]\n", encoding="utf-8")
    out = _run_module("ubsc", [cmd, str(prog)], timeout=60, UBSC_COLOR="0")
    assert out.returncode == 2 and "Traceback" not in out.stderr, out.stderr[-2000:]
    assert out.stdout.splitlines() == [f"{cmd}: program nested too deeply"]


EVAL_ERRORS = {
    "fst of an int": ("[ *s!<fst(1)>. 0 | *s~0:[] ] || [ s?(x). 0 | s~0:[] ]",
                      {"rule": "Bcast", "session": "s", "sender": 0, "receivers": [1]},
                      "fst: expected pair"),
    "int and str gathered": ('[ *s?(x). 0 | *s~0:[(0, 1), (0, "a")] ]',
                             {"rule": "Gthr", "session": "s", "sender": 0},
                             "cannot aggregate"),
}


@pytest.mark.parametrize("case", list(EVAL_ERRORS))
@pytest.mark.parametrize("cmd", [["run"], ["run", "--safety"], ["replay"]],
                         ids=["run", "run-safety", "replay"])
def test_evaluation_error_exits_2_with_one_line(case, cmd, tmp_path, capsys, monkeypatch):
    """A step whose payload has no value (``redex_payload``) or whose
    gathered values do not aggregate (``gather_values``) ends ``run`` and
    ``replay`` with one line naming the command, and exit code 2."""
    monkeypatch.delenv("UBSC_COLOR", raising=False)
    text, step, why = EVAL_ERRORS[case]
    prog, script = tmp_path / "p.ubsc", tmp_path / "s.json"
    prog.write_text(text + "\n", encoding="utf-8")
    script.write_text(json.dumps([step]), encoding="utf-8")
    argv = [cmd[0], str(prog), *cmd[1:]] + ([str(script)] if cmd[0] == "replay" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{cmd[0]}: ") and why in lines[0]


CALL_ERRORS = {
    "arity": ("[ def X(a) = 0 in X(1, 2) ]", "X expects 1 arguments, got 2"),
    "expression as channel": ("[ def X(c) = c!<1>. 0 in X(5) | s~0:[] ]",
                              "expression argument used in channel position: c"),
}


@pytest.mark.parametrize("case", list(CALL_ERRORS))
@pytest.mark.parametrize("cmd", ["run", "step", "replay"])
def test_malformed_call_exits_2_with_one_line(case, cmd, tmp_path, capsys, monkeypatch):
    """A call whose arguments do not fit its definition fails when it is
    unfolded: ``run``, ``replay`` and the stepper (after printing the
    network) end with one line naming the command, and exit code 2."""
    monkeypatch.delenv("UBSC_COLOR", raising=False)
    monkeypatch.setattr("builtins.input", lambda *a: "q")
    text, why = CALL_ERRORS[case]
    prog, script = tmp_path / "p.ubsc", tmp_path / "s.json"
    prog.write_text(text + "\n", encoding="utf-8")
    script.write_text(json.dumps([{"rule": "Ucast", "session": "s", "sender": 0}]),
                      encoding="utf-8")
    assert main([cmd, str(prog)] + ([str(script)] if cmd == "replay" else [])) == 2
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).strip().splitlines()
    assert lines[-1] == f"{cmd}: {why}" and len(lines) == (2 if cmd == "step" else 1)


CALLER, RECEIVER, OTHER_X = ("[ def X(c) = c!<1>. 0 in X(s) | s~0:[] ]",
                             "[ *s?(y). 0 | *s~0:[] ]", "[ def X(v) = 0 in X(5) ]")


def test_calls_resolve_by_the_definition_in_scope(tmp_path, capsys):
    """Another node's ``X``, whose parameter is no channel, does not decide
    how ``X(s)`` parses, whether it comes after or before: in both node
    orders ``s`` is an endpoint, the network checks, and a lossless run
    fires the send."""
    prog = tmp_path / "p.ubsc"
    for nodes in (CALLER, RECEIVER, OTHER_X), (OTHER_X, CALLER, RECEIVER):
        prog.write_text(" || ".join(nodes) + "\n", encoding="utf-8")
        caller = flatten_nodes(parse_network(" || ".join(nodes)))[1][nodes.index(CALLER)]
        assert caller.process.body.args == (Endpoint("s", False),), nodes
        assert main(["check", str(prog)]) == 0
        assert capsys.readouterr().out.strip() == \
            "Ok, residual: *s: (0, ?any.end), s: (0, !any.end)"
        assert main(["run", str(prog), "--loss-rate", "0", "--max-steps", "5"]) == 0
        assert "rules: Gthr=1, Ucast=1" in capsys.readouterr().out.splitlines(), nodes


def test_channel_parameter_used_in_a_nested_definition(tmp_path, capsys):
    """``c`` is a channel of ``A`` though only ``B``'s body, nested in
    ``A``'s, sends on it: ``A(s)`` passes the endpoint, and the send fires."""
    text = ("[ def A(c) = def B(x) = c!<x>. 0 in B(1) in A(s) | s~0:[] ] || "
            "[ *s?(y). 0 | *s~0:[] ]")
    prog = tmp_path / "p.ubsc"
    prog.write_text(text + "\n", encoding="utf-8")
    assert flatten_nodes(parse_network(text))[1][0].process.body.args == \
        (Endpoint("s", False),)
    assert main(["run", str(prog), "--loss-rate", "0"]) == 0
    assert "rules: Gthr=1, Ucast=1" in capsys.readouterr().out.splitlines()
