"""Correctness accounting for the benchmark's operations.

An operation fails when it raises, when a corpus verdict differs from
the pinned table, when the analysis reports a violated implication
between its own verdicts, when a verdict flips between HoldsCertified
and Fails relative to the reference table, or when the solve divergence
flag or the facial-reduction dimension omega differs from it.  Moves
between HoldsSampled, Undetermined and a certified status are not
failures; they show in ``certified_frac``.

Reference tables live in ``reference/<workload>.json`` and are keyed by
instance id.  A run's seed only orders the instances, so one table
serves every seed.  A table also records the lattice warnings seen when
it was written; they still count as failures but do not make a run
incorrect.  Regenerate the tables with
``python3 perfbench/worker.py --write-reference``.
"""
from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

CERTIFIED = ("HoldsCertified", "Fails")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> Optional[Dict[str, dict]]:
    path = reference_path(workload)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def certified_flip(got: str, want: str) -> bool:
    return got in CERTIFIED and want in CERTIFIED and got != want


def analyze_problems(verdicts: Dict[str, str], warnings: List[str],
                     expected: Optional[Dict[str, str]],
                     reference: Optional[dict]) -> List[str]:
    """Why an analyze result fails, empty when it passes.

    ``expected`` is a pinned corpus table (exact match), ``reference`` a
    reference record (only certified flips count).
    """
    out = [f"lattice: {w}" for w in warnings]
    if expected is not None:
        for name, want in expected.items():
            if verdicts.get(name) != want:
                out.append(f"{name} is {verdicts.get(name)}, "
                           f"pinned {want}")
    if reference is not None:
        for name, want in reference["verdicts"].items():
            got = verdicts.get(name)
            if got is None or certified_flip(got, want):
                out.append(f"{name} is {got}, reference {want}")
    return out


def recorded_failure(op: str, problems: List[str],
                     reference: Optional[dict]) -> bool:
    """True when the only problems are the lattice warnings the reference
    table records for this instance: a known failure, not a new one."""
    return (op == "analyze" and reference is not None
            and problems == [f"lattice: {w}" for w in reference["warnings"]])


def solve_problems(divergent: bool, reference: Optional[dict]) -> List[str]:
    if reference is not None and divergent != reference["divergence_suspected"]:
        return [f"divergence_suspected is {divergent}, reference "
                f"{reference['divergence_suspected']}"]
    return []


def reduce_problems(omega: int, reference: Optional[dict]) -> List[str]:
    if reference is not None and omega != reference["omega"]:
        return [f"omega is {omega}, reference {reference['omega']}"]
    return []
