"""The worked examples as golden cases: each scripted schedule with the
intermediate networks it displays, replayed against the digests pinned in
``corpus/<name>.golden.json``.  ``write_golden(directory)`` writes those
golden files and the ``<name>.script.json`` schedules, which the CLI
``replay`` command takes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from ubsc import engine as eng
from ubsc.corpus import corpus_dir, load_program
from ubsc.syntax import parse


@dataclass
class GoldenCase:
    name: str
    program: str  # corpus file name
    schedule: list  # script steps
    expected: list  # (step index, network text) pairs
    declared: Optional[str] = None  # declared-context text for checking
    digests: list = field(default_factory=list)  # pinned digest per step

    def golden_path(self, directory: Optional[str] = None) -> str:
        return os.path.join(directory or corpus_dir(), f"{self.name}.golden.json")

    def script_path(self, directory: Optional[str] = None) -> str:
        return os.path.join(directory or corpus_dir(), f"{self.name}.script.json")


# The worked examples: each schedule reproduces the displayed reduction chain
# step for step; ``expected`` pins every displayed intermediate network.

_CASES = [
    GoldenCase(
        name="beacon_subset_deliver",
        program="heartbeat_simple.ubsc",
        schedule=[
            {"rule": "Bcast", "sender": 0, "receivers": [1]},
            {"rule": "Rcv", "sender": 1},
        ],
        expected=[
            (0, '[ 0 | *s~1:[] ] || [ s?(x). 0 | s~1:["hbt"] ] || [ s?(x). 0 | s~0:[] ]'),
            (1, '[ 0 | *s~1:[] ] || [ 0 | s~1:[] ] || [ s?(x). 0 | s~0:[] ]'),
        ],
        declared="*s:(0, !str.end), s:(0, ?str.end)",
    ),
    GoldenCase(
        name="beacon_lagging_recovery",
        program="heartbeat_simple.ubsc",
        schedule=[
            {"rule": "Bcast", "sender": 0, "receivers": [1]},
            {"rule": "Rec", "sender": 2},
        ],
        expected=[
            (0, '[ 0 | *s~1:[] ] || [ s?(x). 0 | s~1:["hbt"] ] || [ s?(x). 0 | s~0:[] ]'),
            (1, '[ 0 | *s~1:[] ] || [ s?(x). 0 | s~1:["hbt"] ] || [ 0 | s~1:[] ]'),
        ],
        declared="*s:(0, !str.end), s:(0, ?str.end)",
    ),
    GoldenCase(
        name="gather_chain",
        program="heartbeat_gather.ubsc",
        schedule=[
            {"rule": "Conn", "sender": 0, "receivers": [1, 2]},
            {"rule": "Ucast", "sender": 2},
            {"rule": "Ucast", "sender": 2},
            {"rule": "Ucast", "sender": 1},
            {"rule": "Gthr", "sender": 0},
            {"rule": "Gthr", "sender": 0},
            {"rule": "Loss", "sender": 1},
        ],
        expected=[
            (0, 'new s. ([ *s?(x). *s?(x). 0 | *s~0:[] ] || '
                '[ s!<"hbt1">. s!<"hbt1">. 0 | s~0:[] ] || '
                '[ s!<"hbt2">. s!<"hbt2">. 0 | s~0:[] ])'),
            (1, 'new s. ([ *s?(x). *s?(x). 0 | *s~0:[(0, "hbt2")] ] || '
                '[ s!<"hbt1">. s!<"hbt1">. 0 | s~0:[] ] || '
                '[ s!<"hbt2">. 0 | s~1:[] ])'),
            (2, 'new s. ([ *s?(x). *s?(x). 0 | *s~0:[(0, "hbt2"), (1, "hbt2")] ] || '
                '[ s!<"hbt1">. s!<"hbt1">. 0 | s~0:[] ] || [ 0 | s~2:[] ])'),
            (3, 'new s. ([ *s?(x). *s?(x). 0 | *s~0:[(0, "hbt2"), (1, "hbt2"), (0, "hbt1")] ] || '
                '[ s!<"hbt1">. 0 | s~1:[] ] || [ 0 | s~2:[] ])'),
            (4, 'new s. ([ *s?(x). 0 | *s~1:[(1, "hbt2")] ] || '
                '[ s!<"hbt1">. 0 | s~1:[] ] || [ 0 | s~2:[] ])'),
            (5, 'new s. ([ 0 | *s~2:[] ] || [ s!<"hbt1">. 0 | s~1:[] ] || [ 0 | s~2:[] ])'),
            (6, 'new s. ([ 0 | *s~2:[] ] || [ 0 | s~2:[] ] || [ 0 | s~2:[] ])'),
        ],
    ),
    GoldenCase(
        name="drop_connections",
        program="drop_connections.ubsc",
        schedule=[
            {"rule": "Bcast", "sender": 1, "receivers": [2]},
            {"rule": "Rcv", "sender": 2},
            {"rule": "Conn", "sender": 0, "receivers": [2]},
            {"rule": "Bcast", "sender": 0, "receivers": [2]},
            {"rule": "Rcv", "sender": 2},
            {"rule": "False", "sender": 2},
        ],
        expected=[
            (1, '[ req a(*w). *w!<2>. *w!<0>. 0 ] || '
                'new s. ([ *s?(p). 0 | *s~1:[] ] || '
                '[ s!<9>. 0 + acc a(w). w?(y). if 1 > y then s!<9>. 0 else w?(z2). 0 | s~1:[] ])'),
            (2, 'new s. new t. ([ *t!<2>. *t!<0>. 0 | *t~0:[] ] || '
                '[ *s?(p). 0 | *s~1:[] ] || '
                '[ t?(y). if 1 > y then s!<9>. 0 else t?(z2). 0 | s~1:[] | t~0:[] ])'),
            (4, 'new s. new t. ([ *t!<0>. 0 | *t~1:[] ] || [ *s?(p). 0 | *s~1:[] ] || '
                '[ if 1 > 2 then s!<9>. 0 else t?(z2). 0 | s~1:[] | t~1:[] ])'),
            (5, 'new s. new t. ([ *t!<0>. 0 | *t~1:[] ] || [ *s?(p). 0 | *s~1:[] ] || '
                '[ t?(z2). 0 | t~1:[] ])'),
        ],
    ),
]


def corpus_programs() -> list:
    """All golden cases with their pinned digests loaded (when generated)."""
    out = []
    for case in _CASES:
        path = case.golden_path()
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            case.digests = data["digests"]
        out.append(case)
    return out


def run_case(case: GoldenCase) -> tuple:
    """Replay a case; returns (digests, mismatches) where mismatches pairs
    each expected intermediate network against the script's actual digest."""
    network = eng.encode_network(load_program(case.program).network)
    _, digests = eng.run_script(eng.RunState.from_network(network), case.schedule)
    expected = dict(case.expected)
    mismatches = [(i, want, d) for i, d in enumerate(digests) if i in expected
                  and (want := eng.digest(parse(expected[i]).network)) != d]
    return digests, mismatches


def write_golden(directory: str):
    """Regenerate the golden digest and script files for every case in
    ``directory``, the corpus directory or a copy of it."""
    for case in _CASES:
        digests, mismatches = run_case(case)
        if mismatches:
            raise RuntimeError(f"{case.name}: expected networks diverge: {mismatches}")
        with open(case.golden_path(directory), "w", encoding="utf-8") as fh:
            json.dump({"program": case.program, "digests": digests,
                       "declared": case.declared}, fh, indent=1)
        with open(case.script_path(directory), "w", encoding="utf-8") as fh:
            json.dump(case.schedule, fh, indent=1)
