"""Analysis reports: run every checker at a point and merge the verdicts.

The report carries one verdict per condition plus the witnesses, the
spectral data of G at the point, and per-checker timing.  Two self-audit
passes run on the merged verdicts: the implication structure between the
conditions (a holds-verdict upstream of a failure downstream indicates a
numerics problem) and the open relation between the Robinson condition
and its sequence-based variant, where any observed separation is worth
reporting loudly.
"""
from __future__ import annotations

import datetime as _dt
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .cqcheck import (
    CqVerdict,
    check_nondegeneracy,
    check_robinson,
    feasibility_data,
)
from .model import NsdpProblem
from .penalty import (
    PenaltyConfig,
    default_trace_family,
    probe_weak_ndg,
    probe_weak_robinson,
)
from .sparse import check_forsgren, check_sparse_ndg
from .symmat import TAU_RANK

CHECKER_ORDER = ("nondegeneracy", "robinson", "sparse_ndg", "forsgren",
                 "weak_ndg_probe", "weak_robinson_probe")

# one-way implications between the conditions; a holds-verdict on the
# left with a failure on the right cannot happen for exact arithmetic
IMPLICATIONS = (
    ("nondegeneracy", "weak_ndg_probe"),
    ("nondegeneracy", "forsgren"),
    ("nondegeneracy", "sparse_ndg"),
    ("sparse_ndg", "robinson"),
    ("forsgren", "robinson"),
    ("robinson", "weak_robinson_probe"),
    ("weak_ndg_probe", "weak_robinson_probe"),
)


@dataclass(frozen=True)
class AnalysisOptions:
    tol_rank: float = TAU_RANK
    bases: int = 50
    traces: int = 8
    rotations: int = 100
    seed: int = 0
    timestamp: bool = True


@dataclass
class AnalysisReport:
    problem: str
    point: List[float]
    rank: int
    eigenvalues: List[float]
    verdicts: Dict[str, CqVerdict]
    seed: int
    timing: Optional[Dict[str, float]] = None
    timestamp: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    def witnesses(self) -> Dict[str, object]:
        out = {}
        for name, v in self.verdicts.items():
            j = v.to_json()
            if "witness" in j:
                out[name] = j["witness"]
        return out

    def to_json(self) -> dict:
        obj = {
            "problem": self.problem,
            "point": self.point,
            "rank": self.rank,
            "eigenvalues": self.eigenvalues,
            "verdicts": {k: v.to_json() for k, v in self.verdicts.items()},
            "witnesses": self.witnesses(),
            "seed": self.seed,
            "timing": self.timing,
        }
        if self.timestamp is not None:
            obj["timestamp"] = self.timestamp
        return obj

    def render_text(self) -> str:
        lines = [f"problem {self.problem} at point "
                 f"({', '.join(f'{v:g}' for v in self.point)})"]
        ev = ", ".join(f"{v:.6g}" for v in self.eigenvalues)
        lines.append(f"  eigenvalues of G: [{ev}]  rank {self.rank}")
        for name in CHECKER_ORDER:
            v = self.verdicts[name]
            extra = f"  ({v.reason})" if v.reason else ""
            tag = f" over {v.samples} samples" if v.samples else ""
            lines.append(f"  {name:<22s} {v.status.value}{tag}{extra}")
        for note in self.notes:
            lines.append(f"  ! {note}")
        return "\n".join(lines)


def lattice_warnings(verdicts: Dict[str, CqVerdict]) -> List[str]:
    """Violated implications between the merged verdicts."""
    out = []
    for a, b in IMPLICATIONS:
        va, vb = verdicts.get(a), verdicts.get(b)
        if va is None or vb is None:
            continue
        if va.holds and vb.status.value == "Fails":
            out.append(f"{a} holds but {b} fails; the implication between "
                       "them is violated, check the tolerances")
    return out


def separation_notes(verdicts: Dict[str, CqVerdict]) -> List[str]:
    """Flag observed gaps between the Robinson condition and its
    sequence-based variant, whose equivalence is unsettled."""
    rob = verdicts.get("robinson")
    weak = verdicts.get("weak_robinson_probe")
    out = []
    if rob is None or weak is None:
        return out
    if rob.status.value == "Fails" and weak.holds:
        out.append("weak Robinson holds while Robinson fails: no such "
                   "separation is currently known, inspect this instance")
    return out


def analyze_problem(P: NsdpProblem, point,
                    opts: AnalysisOptions = AnalysisOptions()
                    ) -> AnalysisReport:
    """Run every checker on one shared point data, with a shared seed."""
    x = np.asarray(point, dtype=float)
    pd = feasibility_data(P, x, opts.tol_rank)
    cfg = PenaltyConfig(anchor=x, seed=opts.seed)
    t0 = time.perf_counter()
    traces = default_trace_family(P, cfg, opts.traces)
    trace_time = time.perf_counter() - t0

    def run(name: str):
        start = time.perf_counter()
        if name == "nondegeneracy":
            v = check_nondegeneracy(pd)
        elif name == "robinson":
            v = check_robinson(pd)
        elif name == "sparse_ndg":
            v = check_sparse_ndg(pd, bases=opts.bases, seed=opts.seed)
        elif name == "forsgren":
            v = check_forsgren(pd)
        elif name == "weak_ndg_probe":
            _, v = probe_weak_ndg(pd, traces, rotations=opts.rotations,
                                  seed=opts.seed)
        else:
            v = probe_weak_robinson(pd, traces, rotations=opts.rotations,
                                    seed=opts.seed)
        return name, v, time.perf_counter() - start

    results = [run(name) for name in CHECKER_ORDER]
    verdicts = {name: v for name, v, _ in results}
    timing = {name: round(dt, 6) for name, _, dt in results}
    timing["traces"] = round(trace_time, 6)
    notes = lattice_warnings(verdicts) + separation_notes(verdicts)
    stamp = _dt.datetime.now(_dt.timezone.utc).isoformat() \
        if opts.timestamp else None
    return AnalysisReport(
        problem=P.name,
        point=[float(v) for v in x],
        rank=pd.rank,
        eigenvalues=[float(v) for v in pd.eigenvalues],
        verdicts=verdicts,
        seed=opts.seed,
        timing=timing if opts.timestamp else None,
        timestamp=stamp,
        notes=notes)


def report_json_text(report: AnalysisReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
