"""Command line interface: check, run, step, encode-recovery, replay.

Exit code is 0 iff no error network was encountered and, when typing was
requested, it succeeded.  Malformed input (an unreadable or unparsable file,
a replay record of the wrong shape, an out-of-range option) exits 2 with a
one-line message.  ``UBSC_COLOR`` toggles ANSI colour.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from itertools import chain, repeat
from typing import Optional

from . import checker as ck
from . import engine as eng
from . import safety as sf
from . import terms as t
from . import values as v
from .render import render_network
from .syntax import UBSCSyntaxError, parse, parse_declared, pretty_print


def _color(s: str, code: str) -> str:
    if os.environ.get("UBSC_COLOR", "").lower() in ("0", "no", "off", "false"):
        return s
    if not sys.stdout.isatty() and "UBSC_COLOR" not in os.environ:
        return s
    return f"\033[{code}m{s}\033[0m"


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read(), filename=path)


def _fail(msg: str) -> int:
    print(_color(msg, "31"))
    return 2


def _unwritable(path: str) -> Optional[str]:
    """Why ``path`` cannot be written, or None; an existing file keeps its content."""
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as e:
        return f"cannot write {path}: {e.strerror}"


def _gamma(prog) -> ck.Gamma:
    return ck.Gamma(shared=prog.shared_types())


def _lint_unit_sends(net: t.Network):
    """The recovery encoding assumes senders never send the unit value; warn
    when a payload is literally unit."""
    unit = v.Lit(v.UNIT)
    return [p.chan for nd in t.flatten_nodes(net)[1]
            for p in v.universe(nd.process, t.subprocesses)
            if type(p) is t.Send and p.expr == unit]


def cmd_check(args, prog) -> int:
    declared = None
    if args.context:
        declared = parse_declared(args.context, prog.type_decls)
    for ch in _lint_unit_sends(prog.network):
        print(_color(f"warning: unit value sent on {ch!r}; recovery tests "
                     f"cannot distinguish it from a default", "33"))
    net = eng.encode_network(prog.network)
    result = ck.type_network(_gamma(prog), net, declared=declared)
    if result.ok:
        print(_color(result.render(), "32"))
        if args.derivation:
            for app in result.trace:
                size = "" if app.delta_size is None else f" |D|={app.delta_size}"
                extra = f"  {app.judgment}" if app.judgment else ""
                print(f"  {app.rule:<8} {app.subject}{size}{extra}")
        return 0
    print(_color(result.render(), "31"))
    return 1


def cmd_encode_recovery(args, prog) -> int:
    prog.network = eng.encode_network(prog.network)
    sys.stdout.write(pretty_print(prog))
    return 0


def cmd_run(args, prog) -> int:
    if args.max_steps < 0:
        return _fail(f"run: --max-steps must not be negative, got {args.max_steps}")
    seeds = [args.seed]
    if args.sweep:
        m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", args.sweep)
        if m is None:
            return _fail(f"run: --sweep expects a seed range a..b, got {args.sweep!r}")
        seeds = list(range(int(m[1]), int(m[2]) + 1))
        if not seeds:
            return _fail(f"run: --sweep range {args.sweep!r} is empty")
    try:
        cfgs = [eng.SchedulerConfig(seed=seed, loss_rate=args.loss_rate,
                                    recovery_bias=args.recovery_bias,
                                    max_steps=args.max_steps) for seed in seeds]
    except ValueError:
        return _fail("run: --loss-rate and --recovery-bias must lie in [0, 1]")
    # every output file is tried before any run, so that no run is lost to it
    paths = [args.trace and (f"{args.trace}.{c.seed}" if len(cfgs) > 1 else args.trace)
             for c in cfgs]
    for path in filter(None, paths):
        if err := _unwritable(path):
            return _fail(f"run: {err}")
    exit_code = 0
    for cfg, path in zip(cfgs, paths):
        code = _run_one(prog, args, cfg, path, sweeping=len(cfgs) > 1)
        exit_code = exit_code or code
    return exit_code


def _run_one(prog, args, cfg: eng.SchedulerConfig, path, sweeping: bool) -> int:
    net = prog.network
    gamma = _gamma(prog)
    if args.check:
        result = ck.type_network(gamma, eng.encode_network(net))
        if not result.ok:
            print(_color(result.render(), "31"))
            return 1
    safety_failures = []

    def check_safety(net, where):
        rep = sf.is_error_network(net)
        if rep.verdict != "ok":
            safety_failures.append((where, rep))

    if args.safety:
        check_safety(eng.encode_network(net), "the initial state")

    def on_step(state, step):
        if args.safety:
            check_safety(state.to_network(), f"step {step.index}")

    trace = eng.run_scheduler(net, cfg, on_step=on_step,
                              networks=args.trace_networks)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(trace.to_jsonl())
    hist = Counter(s.rule for s in trace.steps)
    tag = f"[seed {cfg.seed}] " if sweeping else ""
    print(f"{tag}steps: {len(trace.steps)}")
    print(f"{tag}rules: " + ", ".join(f"{k}={v}" for k, v in sorted(hist.items())))
    if args.safety:
        verdict = ("ok" if not safety_failures
                   else f"{len(safety_failures)} error-network states")
        print(f"{tag}safety: {verdict}")
    if not sweeping or args.verbose:
        print(f"{tag}final network:")
        print(render_network(eng.normalize(trace.final.to_network())))
    if safety_failures:
        where, rep = safety_failures[0]
        print(_color(f"safety violation at {where}: {rep.render()}", "31"))
        return 1
    return 0


# The fields of replay records and their JSON types.  A script step needs a
# rule; a trace step the rule, session, sender, receivers and digest; a header all.
_STEP = {"rule": str, "sender": int, "session": str, "receivers": list, "digest": str,
         "index": int}
_HEADER = {"seed": int, "loss_rate": (int, float), "recovery_bias": (int, float),
           "max_steps": int, "initial_digest": str}


def _shape_error(records: list, shapes) -> Optional[str]:
    """Why a record of ``records`` does not have its shape in ``shapes``;
    None when every one has."""
    for i, (rec, (fields, required)) in enumerate(zip(records, shapes)):
        if not isinstance(rec, dict):
            return f"record {i} is not a JSON object"
        for k, ty in fields.items():
            if (k in required or k in rec) and not isinstance(rec.get(k), ty):
                return f"record {i} lacks a well-formed {k!r}"
        if not all(isinstance(j, int) for j in rec.get("receivers", ())):
            return f"record {i} lacks a well-formed 'receivers'"
    return None


def cmd_replay(args, prog) -> int:
    try:
        with open(args.script, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
        records = (json.loads(text) if text.startswith("[") else
                   [json.loads(l) for l in text.splitlines() if l.strip()])
    except (OSError, ValueError) as e:
        return _fail(f"replay: cannot read {args.script}: {e}")
    is_script = text.startswith("[")
    if not is_script and not records:
        return _fail(f"replay: trace file {args.script} is empty")
    required = {"rule"} if is_script else {"rule", "session", "sender", "receivers", "digest"}
    shapes = chain([] if is_script else [(_HEADER, _HEADER)], repeat((_STEP, required)))
    if bad := _shape_error(records, shapes):
        return _fail(f"replay: {args.script}: {bad}")
    steps = records if is_script else records[1:]
    if not is_script:
        cfg = {k: records[0][k] for k in _HEADER}
        recorded = cfg.pop("initial_digest")
        try:
            max_steps = eng.SchedulerConfig(**cfg).max_steps
        except ValueError:
            return _fail(f"replay: {args.script}: loss_rate and recovery_bias must lie in [0, 1]")
    try:
        state = eng.RunState.from_network(eng.encode_network(prog.network))
        if not is_script and (found := state.digest()) != recorded:
            raise eng.EngineError(f"initial digest {found} differs from the recorded {recorded}")
        state, digests = eng.run_script(state, steps)
        if not is_script and (len(steps) > max_steps or
                              len(steps) < max_steps and eng.enabled_redexes(state)):
            raise eng.EngineError(f"length mismatch: {len(steps)} steps recorded, but a run "
                                  f"stops at max_steps {max_steps} or with no redex enabled")
    except eng.EngineError as e:
        print(_color(f"replay failed: {e}", "31"))
        return 1
    if not is_script:
        print(f"replay ok: {len(steps)} steps reproduce recorded digests")
        return 0
    for i, d in enumerate(digests):
        print(f"step {i}: {d}")
    print("final:")
    print(render_network(eng.normalize(state.to_network())))
    return 0


def _ask_receivers(r: eng.Redex) -> tuple:
    """The receivers of ``r`` chosen at the prompt, asked again after a line
    that is not all, none or ids of the eligible family."""
    while True:
        try:
            sub = input(f"receivers {list(r.receivers)} (all/none/ids)> ").strip()
        except EOFError:
            return r.receivers
        if sub in ("", "all", "none"):
            return () if sub == "none" else r.receivers
        try:
            chosen = tuple(int(x) for x in sub.replace(",", " ").split())
        except ValueError:
            chosen = None
        if chosen is not None and set(chosen) <= set(r.receivers):
            return chosen
        print(f"not all, none or ids of receivers {list(r.receivers)}: {sub}")


def cmd_step(args, prog) -> int:
    if args.script and (err := _unwritable(args.script)):
        return _fail(f"step: {err}")
    states = [eng.RunState.from_network(eng.encode_network(prog.network))]
    script = []
    while True:
        state = states[-1]
        print()
        print(render_network(eng.normalize(state.to_network())))
        redexes = eng.enabled_redexes(state)
        if not redexes:
            print("no enabled redexes; terminal state")
        for i, r in enumerate(redexes):
            fam = " (recovery)" if r.rule in eng.RECOVERY_RULES else ""
            recv = f" receivers={list(r.receivers)}" if r.receivers else ""
            lab = f" label={r.detail[0]}" if r.detail else ""
            print(f"  [{i}] {r.rule} on {r.session} at node#{r.sender}{recv}{lab}{fam}")
        try:
            line = input("choice (index, u=undo, q=quit)> ").strip()
        except EOFError:
            line = "q"
        if line == "q":
            break
        if line == "u":
            if script:
                script.pop()
                states.pop()
            else:
                print("nothing to undo")
            continue
        try:
            idx = int(line)
            if idx < 0:
                raise IndexError(idx)
            r = redexes[idx]
        except (ValueError, IndexError):
            print("invalid index")
            continue
        chosen = r.receivers
        if r.rule in eng.BROADCAST_RULES and r.receivers:
            chosen = _ask_receivers(r)
        payload = eng.redex_payload(state, r)
        states.append(eng.apply_redex(state, r, chosen))
        script.append(eng.TraceStep(len(script), r.rule, r.session, r.sender, chosen,
                                    payload, states[-1].digest()).to_json())
        print(f"applied {r.rule}; digest {script[-1]['digest']}")
    if args.script and script:
        with open(args.script, "w", encoding="utf-8") as fh:
            json.dump(script, fh, indent=1)
        print(f"script with {len(script)} steps written to {args.script}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="ubsc",
        description="Toolchain for session-typed unreliable broadcast "
                    "networks: typecheck, simulate, explore and replay.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="typecheck a program")
    p.add_argument("file")
    p.add_argument("--context", help="declared linear context, e.g. "
                                     "'*s:(1, end), s:(1, end)'")
    p.add_argument("--derivation", action="store_true",
                   help="dump the derivation trace")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("run", help="run the seeded scheduler")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loss-rate", type=float, default=0.1)
    p.add_argument("--recovery-bias", type=float, default=0.2)
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--trace", help="write a JSONL trace here")
    p.add_argument("--trace-networks", action="store_true",
                   help="include the pretty-printed network in each record")
    p.add_argument("--check", action="store_true", help="typecheck first")
    p.add_argument("--safety", action="store_true",
                   help="verify no error network is reached")
    p.add_argument("--sweep", help="seed range a..b")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("step", help="interactive stepper")
    p.add_argument("file")
    p.add_argument("--script", help="write accepted choices to this file")
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("encode-recovery",
                       help="print the recovery-free encoding of a program")
    p.add_argument("file")
    p.set_defaults(func=cmd_encode_recovery)

    p = sub.add_parser("replay", help="replay a schedule script or trace file")
    p.add_argument("file")
    p.add_argument("script")
    p.set_defaults(func=cmd_replay)

    args = ap.parse_args(argv)
    try:
        prog = _load(args.file)
    except (OSError, UBSCSyntaxError, UnicodeDecodeError) as e:
        return _fail(str(e))
    except RecursionError:  # until every walk runs in a loop (ROADMAP item 2)
        return _fail(f"{args.cmd}: program nested too deeply")
    try:
        code = args.func(args, prog)
        sys.stdout.flush()  # a closed reader shows here, not in the exit-time flush
        return code
    except UBSCSyntaxError as e:  # a malformed --context
        return _fail(str(e))
    except (v.EvalError, t.SubstError) as e:  # an expression with no value, a malformed call
        return _fail(f"{args.cmd}: {e}")
    except RecursionError:
        return _fail(f"{args.cmd}: program nested too deeply")
    except BrokenPipeError:  # the reader closed standard output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiets the exit flush
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
