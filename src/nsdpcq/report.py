"""Analysis reports: run every checker at a point and merge the verdicts.

The report carries one verdict per condition plus the witnesses, the
spectral data of G at the point, and per-checker timing.

Nondegeneracy and Robinson are decided first.  Each weak probe then
tries its exact routes (trivial kernel, dimension bound, diagonal
constraint); where none applies, a certified upstream condition decides
it: nondegeneracy holds iff the diagonal gradient family is independent
for every kernel basis, weak nondegeneracy asks it only for the bases
that arise as sequence limits, and Robinson relates to weak Robinson in
the same way with positive independence.  Such an implied verdict is
HoldsCertified and its witness names the upstream checker and carries
that checker's witness, so it replays from the report alone.  Only
certified holds propagate, and only along these two edges.  The
sequence family is built once, and only when a probe is still open
after that.  Two self-audit
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
    CqStatus,
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
    weak_ndg_exact,
    weak_robinson_exact,
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


def implied_verdict(upstream: str, v: CqVerdict) -> Optional[CqVerdict]:
    """HoldsCertified for the weak form of a certified upstream condition,
    None when the upstream verdict certifies nothing."""
    if v.status is not CqStatus.HOLDS_CERTIFIED:
        return None
    return CqVerdict(CqStatus.HOLDS_CERTIFIED,
                     reason=f"implied by {upstream}: {v.reason}",
                     witness={"implied_by": upstream, "upstream": v.witness})


def analyze_problem(P: NsdpProblem, point,
                    opts: AnalysisOptions = AnalysisOptions()
                    ) -> AnalysisReport:
    """Run every checker on one shared point data, with a shared seed.

    The checkers run in CHECKER_ORDER, so nondegeneracy and Robinson are
    decided before the probes.  A probe left open by its exact routes is
    HoldsCertified when its upstream condition is certified; otherwise
    it runs on the trace family, which is built on first use and at most
    once.  ``timing["traces"]`` is that build's time, 0.0 without one,
    and no checker's timing includes it.
    """
    x = np.asarray(point, dtype=float)
    pd = feasibility_data(P, x, opts.tol_rank)
    verdicts: Dict[str, CqVerdict] = {}
    timing = {"traces": 0.0}
    family = []

    def traces():
        if not family:
            t0 = time.perf_counter()
            family.append(default_trace_family(
                P, PenaltyConfig(anchor=x, seed=opts.seed), opts.traces))
            timing["traces"] = time.perf_counter() - t0
        return family[0]

    def run(name: str) -> CqVerdict:
        if name == "nondegeneracy":
            return check_nondegeneracy(pd)
        if name == "robinson":
            return check_robinson(pd)
        if name == "sparse_ndg":
            return check_sparse_ndg(pd)
        if name == "forsgren":
            return check_forsgren(pd)
        if name == "weak_ndg_probe":
            return (weak_ndg_exact(pd)
                    or implied_verdict("nondegeneracy",
                                       verdicts["nondegeneracy"])
                    or probe_weak_ndg(pd, traces(), rotations=opts.rotations,
                                      seed=opts.seed)[1])
        return (weak_robinson_exact(pd)
                or implied_verdict("robinson", verdicts["robinson"])
                or probe_weak_robinson(pd, traces(), rotations=opts.rotations,
                                       seed=opts.seed))

    for name in CHECKER_ORDER:
        start, built = time.perf_counter(), timing["traces"]
        verdicts[name] = run(name)
        timing[name] = round(time.perf_counter() - start
                             - (timing["traces"] - built), 6)
    timing["traces"] = round(timing.pop("traces"), 6)
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
