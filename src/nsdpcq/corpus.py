"""Built-in example problems with frozen reference verdicts.

Each entry records the problem, the evaluation point, and the expected
status of every checker at that point.  The entries cover the small
geometries where the conditions separate: diagonal constraints where
everything reduces to gradient tests on active entries, a rank-deficient
constraint with an identically zero diagonal entry that defeats every
condition, an off-diagonal coupling that defeats the fixed-basis checks
but not the basis-search ones, and regular instances where everything
holds.
"""
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .cqcheck import CqStatus
from .model import MatrixPoly, NsdpProblem, Poly


def _x(n: int, i: int) -> Poly:
    return Poly.var(n, i)


def _diag3() -> NsdpProblem:
    f = _x(3, 0) + _x(3, 1) + _x(3, 2)
    G = MatrixPoly.diagonal([_x(3, 0), _x(3, 1), _x(3, 2)])
    return NsdpProblem(3, f, G, name="diag3")


def _facial() -> NsdpProblem:
    G = MatrixPoly(2, 2, {(0, 0): _x(2, 0), (0, 1): _x(2, 1)})
    return NsdpProblem(2, _x(2, 1), G, name="facial")


def _scalar2() -> NsdpProblem:
    G = MatrixPoly.diagonal([_x(1, 0), _x(1, 0)])
    return NsdpProblem(1, _x(1, 0), G, name="scalar2")


def _offdiag() -> NsdpProblem:
    G = MatrixPoly(2, 2, {(0, 0): _x(2, 0), (0, 1): _x(2, 1),
                          (1, 1): _x(2, 0)})
    return NsdpProblem(2, _x(2, 0), G, name="offdiag")


def _interior() -> NsdpProblem:
    one = Poly.const(2, 1.0)
    G = MatrixPoly(2, 2, {(0, 0): one + _x(2, 0), (0, 1): _x(2, 1),
                          (1, 1): one - _x(2, 0)})
    f = Poly(2, [(1.0, (2, 0)), (1.0, (0, 2))])
    return NsdpProblem(2, f, G, name="interior")


def _fullmat() -> NsdpProblem:
    G = MatrixPoly(2, 3, {(0, 0): _x(3, 0), (0, 1): _x(3, 1),
                          (1, 1): _x(3, 2)})
    return NsdpProblem(3, _x(3, 0) + _x(3, 2), G, name="fullmat")


def _block2() -> NsdpProblem:
    top = MatrixPoly(2, 3, {(0, 0): _x(3, 0), (0, 1): _x(3, 1),
                            (1, 1): _x(3, 0)})
    bot = MatrixPoly(1, 3, {(0, 0): _x(3, 2)})
    G = MatrixPoly.block_diag([top, bot])
    return NsdpProblem(3, _x(3, 0) + _x(3, 2), G, name="block2")


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    problem: NsdpProblem
    point: Tuple[float, ...]
    expected: Dict[str, CqStatus]
    source: str


_HC = CqStatus.HOLDS_CERTIFIED
_HS = CqStatus.HOLDS_SAMPLED
_F = CqStatus.FAILS


def entries() -> List[CorpusEntry]:
    return [
        CorpusEntry(
            id="diag3",
            problem=_diag3(),
            point=(0.0, 0.0, 0.0),
            expected={"nondegeneracy": _F, "robinson": _HC,
                      "sparse_ndg": _HC, "forsgren": _HC,
                      "weak_ndg_probe": _HS, "weak_robinson_probe": _HC},
            source="separable diagonal constraint, all entries active; "
                   "full-basis independence is impossible with three "
                   "kernel directions in R^3, diagonal tests pass"),
        CorpusEntry(
            id="facial",
            problem=_facial(),
            point=(0.0, 0.0),
            expected={"nondegeneracy": _F, "robinson": _F,
                      "sparse_ndg": _F, "forsgren": _F,
                      "weak_ndg_probe": _F, "weak_robinson_probe": _F},
            source="(2,2) entry identically zero, the feasible set is a "
                   "proper face; every condition fails and penalty "
                   "multipliers diverge"),
        CorpusEntry(
            id="scalar2",
            problem=_scalar2(),
            point=(0.0,),
            expected={"nondegeneracy": _F, "robinson": _HC,
                      "sparse_ndg": _F, "forsgren": _F,
                      "weak_ndg_probe": _F, "weak_robinson_probe": _HC},
            source="one variable duplicated on a 2x2 diagonal; positive "
                   "independence holds, plain independence cannot"),
        CorpusEntry(
            id="offdiag",
            problem=_offdiag(),
            point=(0.0, 0.0),
            expected={"nondegeneracy": _F, "robinson": _HC,
                      "sparse_ndg": _HC, "forsgren": _F,
                      "weak_ndg_probe": _HS, "weak_robinson_probe": _HC},
            source="x1 on the diagonal, x2 off it; fixed-basis checks "
                   "fail, the mixing eigenbasis diagonalizes the "
                   "constraint to x1 -+ x2"),
        CorpusEntry(
            id="interior",
            problem=_interior(),
            point=(0.0, 0.0),
            expected={"nondegeneracy": _HC, "robinson": _HC,
                      "sparse_ndg": _HC, "forsgren": _HC,
                      "weak_ndg_probe": _HC, "weak_robinson_probe": _HC},
            source="strictly feasible point, trivial kernel"),
        CorpusEntry(
            id="fullmat",
            problem=_fullmat(),
            point=(0.0, 0.0, 0.0),
            expected={"nondegeneracy": _HC, "robinson": _HC,
                      "sparse_ndg": _HC, "forsgren": _HC,
                      "weak_ndg_probe": _HC, "weak_robinson_probe": _HC},
            source="dense upper triangle with one variable per entry, "
                   "the regular case"),
        CorpusEntry(
            id="block2",
            problem=_block2(),
            point=(0.0, 0.0, 0.0),
            expected={"nondegeneracy": _F, "robinson": _HC,
                      "sparse_ndg": _HC, "forsgren": _F,
                      "weak_ndg_probe": _HS, "weak_robinson_probe": _HC},
            source="two diagonal blocks sharing a variable; per-block "
                   "bases assemble a certificate the full-basis test "
                   "cannot"),
    ]


def names() -> List[str]:
    return [e.id for e in entries()]


def get_entry(name: str) -> CorpusEntry:
    for e in entries():
        if e.id == name:
            return e
    raise KeyError(f"no corpus entry named {name!r}, "
                   f"known: {', '.join(names())}")
