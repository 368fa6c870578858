"""Corpus access and consensus instrumentation: the example programs and
witness seeds under ``corpus/`` at the repository root, and the check that a
paxos trace chose one proposed value."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from . import engine as eng
from . import values as v
from .render import render_value
from .syntax import parse, parse_value


def corpus_dir() -> str:
    cand = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                         "..", "..", "corpus"))
    if os.path.isdir(cand):
        return cand
    raise FileNotFoundError(f"corpus directory not found at {cand}")


def load_program(name: str):
    path = os.path.join(corpus_dir(), name)
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read(), filename=path)


# ------------------------------------------------------------- consensus checks


def load_witness_seeds() -> list:
    path = os.path.join(corpus_dir(), "paxos_witness_seeds.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class ConsensusReport:
    chosen: dict  # (round value render) -> set of accepting nodes
    chosen_values: set
    violations: list

    @property
    def agreed(self) -> bool:
        return bool(self.chosen)


def check_consensus_trace(trace: eng.Trace, m: int) -> ConsensusReport:
    """Post-process a trace: a value counts as chosen when a strict majority
    of distinct nodes received the same (round, value) acceptance; the chosen
    set must be a single value that is some participant's id, 1 to ``m``."""
    events: dict = {}
    for s in trace.steps:
        if s.rule == "Rcv" and s.payload and s.payload.startswith("("):
            val = parse_value(s.payload)
            if isinstance(val, v.PairV):
                events.setdefault((val.first, val.second), set()).add(s.sender)
    chosen = {rv: nodes for rv, nodes in events.items() if len(nodes) > m // 2}
    values = {rv[1] for rv in chosen}
    ordered = sorted(values, key=v.value_key)
    violations = []
    if len(values) > 1:
        violations.append(f"multiple chosen values: {', '.join(map(render_value, ordered))}")
    for val in ordered:
        if not (isinstance(val, v.IntV) and val.n in range(1, m + 1)):
            violations.append(f"chosen value {render_value(val)} was never proposed")
    return ConsensusReport(chosen, values, violations)
