"""Analysis reports: run every checker at a point and merge the verdicts.

The report carries one verdict per condition plus the witnesses, the
spectral data of G at the point, per-checker timing and the notes of the
two self-audit passes below; its JSON form always has ``notes``.

Nondegeneracy and Robinson are decided first, each by its own checker.
Every later condition first tries the exact routes every condition
shares (cqcheck.exact_verdict: dependent equality gradients, trivial
kernel, dimension bound, diagonal constraint); where none applies, the
implication lattice IMPLICATIONS decides it when it can, before any
search or solve.  A certified hold flows down every edge: a condition
directly downstream of a HoldsCertified one is HoldsCertified, its
reason names the upstream checker and its witness
``{"implied_by", "upstream"}`` carries that checker's witness, so it
replays from the report alone.  Nondegeneracy so settles sparse
nondegeneracy, Forsgren's condition and weak nondegeneracy, and Robinson
weak Robinson.  A certified Fails flows up: a condition directly upstream
of a Fails one fails and carries that witness, which is how a Robinson
Fails settles sparse nondegeneracy and Forsgren's condition.  When both
apply, the hold wins and the lattice audit below reports the conflict.
Sampled evidence propagates nothing.  Only what the lattice leaves open
reaches its checker.  The sequence family is made once, and only when a
probe is still open after that.  It builds each path trace the first
time a probe reaches it, and a probe stops at its first refuting
sequence, so a path trace after that one is never built, and a
numerical failure it would raise never surfaces.  Two self-audit passes
run on the merged verdicts: the implication structure between the
conditions (a holds-verdict upstream of a failure downstream indicates a
numerics problem; it cannot fire along an edge whose downstream verdict
was propagated from its upstream one) and the open relation between the
Robinson condition and its sequence-based variant, where any observed
separation is worth reporting loudly.
"""
from __future__ import annotations

import datetime as _dt
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .cqcheck import (
    CONDITIONS,
    CqStatus,
    CqVerdict,
    check_nondegeneracy,
    check_robinson,
    exact_verdict,
    feasibility_data,
    refuted_verdict,
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
            "notes": list(self.notes),
        }
        if self.timestamp is not None:
            obj["timestamp"] = self.timestamp
        return obj

    def render_text(self) -> str:
        lines = [f"problem {self.problem} at point "
                 f"({', '.join(f'{v:g}' for v in self.point)})"]
        ev = ", ".join(f"{v:.6g}" for v in self.eigenvalues)
        lines.append(f"  eigenvalues of G: [{ev}]  rank {self.rank}")
        for name in CONDITIONS:
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


def lattice_verdict(name: str, verdicts: Dict[str, CqVerdict]
                    ) -> Optional[CqVerdict]:
    """The verdict IMPLICATIONS fixes for condition ``name`` from the
    verdicts already decided, None when it fixes none.

    HoldsCertified when a condition directly upstream of ``name`` is
    HoldsCertified (the first such edge in IMPLICATIONS names it);
    otherwise Fails, with that verdict's witness, when a condition
    directly downstream of ``name`` fails.
    """
    for up, down in IMPLICATIONS:
        v = verdicts.get(up)
        if down == name and v is not None \
                and v.status is CqStatus.HOLDS_CERTIFIED:
            return CqVerdict(CqStatus.HOLDS_CERTIFIED,
                             reason=f"implied by {up}: {v.reason}",
                             witness={"implied_by": up, "upstream": v.witness})
    for up, down in IMPLICATIONS:
        v = verdicts.get(down)
        if up == name and v is not None and v.status is CqStatus.FAILS:
            return refuted_verdict(name, down, v)
    return None


def analyze_problem(P: NsdpProblem, point,
                    opts: AnalysisOptions = AnalysisOptions()
                    ) -> AnalysisReport:
    """Run every checker on one shared point data, with a shared seed.

    The conditions are decided in CONDITIONS order, so nondegeneracy and
    Robinson come before the conditions the lattice relates them to.
    Each later condition takes the shared exact routes, then
    :func:`lattice_verdict`, and only then its checker; a probe left
    open runs on the trace family, which is made on first use and at
    most once, and whose path traces are built as a probe reaches them.
    ``timing["traces"]`` is the family's whole build time, its path
    traces included, 0.0 without one, and no checker's timing includes
    it.
    """
    x = np.asarray(point, dtype=float)
    pd = feasibility_data(P, x, opts.tol_rank)
    verdicts: Dict[str, CqVerdict] = {}
    timing = {}
    family = []

    def traces():
        if not family:
            family.append(default_trace_family(
                P, PenaltyConfig(anchor=x), opts.traces, opts.seed))
        return family[0]

    def built() -> float:
        return family[0].seconds if family else 0.0

    def run(name: str) -> CqVerdict:
        if name == "nondegeneracy":
            return check_nondegeneracy(pd)
        if name == "robinson":
            return check_robinson(pd)
        decided = exact_verdict(pd, name) or lattice_verdict(name, verdicts)
        if decided is not None:
            return decided
        if name == "sparse_ndg":
            return check_sparse_ndg(pd, verdicts["robinson"])
        if name == "forsgren":
            return check_forsgren(pd)
        if name == "weak_ndg_probe":
            return probe_weak_ndg(pd, traces(), seed=opts.seed)[1]
        return probe_weak_robinson(pd, traces())

    for name in CONDITIONS:
        start, before = time.perf_counter(), built()
        verdicts[name] = run(name)
        timing[name] = round(time.perf_counter() - start
                             - (built() - before), 6)
    timing["traces"] = round(built(), 6)
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
