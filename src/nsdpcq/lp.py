"""Phase-one simplex for small equality-form feasibility problems.

Decides whether {z : A z = b, z >= 0} is nonempty by minimizing the sum
of artificial variables with a dense tableau.  Pivoting follows Bland's
rule (lowest eligible index enters, lowest-index basic variable leaves on
ratio ties), which rules out cycling, so the pivot cap below only guards
against bugs.  Problem sizes here are tiny (tens of rows), so no effort
is spent on sparsity or revised-simplex bookkeeping.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .symmat import LI_TOL

_PIVOT_TOL = 1e-11
_MAX_PIVOTS = 20_000


@dataclass(frozen=True)
class PhaseOneResult:
    feasible: bool
    optimum: float          # minimal artificial mass, 0 iff feasible
    z: np.ndarray           # a feasible point when feasible, else zeros


def phase_one(A: np.ndarray, b: np.ndarray) -> PhaseOneResult:
    """Feasibility of A z = b, z >= 0 via a phase-one tableau: feasible
    when the minimal artificial mass is at most LI_TOL * (1 + max|b|)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    mrows, ncols = A.shape
    if b.shape[0] != mrows:
        raise ValueError("A and b shapes disagree")
    # flip rows so the right-hand side is nonnegative
    flip = b < 0.0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)

    # tableau columns: structural variables, artificials, rhs
    T = np.zeros((mrows + 1, ncols + mrows + 1))
    T[:mrows, :ncols] = A
    T[:mrows, ncols:ncols + mrows] = np.eye(mrows)
    T[:mrows, -1] = b
    # phase-one objective row: cost 1 on artificials, reduced against the
    # starting basis of artificials
    T[mrows, :ncols] = -np.sum(A, axis=0)
    T[mrows, -1] = -np.sum(b)
    basis = list(range(ncols, ncols + mrows))

    for _ in range(_MAX_PIVOTS):
        # Bland: entering column is the lowest index with negative reduced cost
        enter = -1
        for j in range(ncols + mrows):
            if T[mrows, j] < -_PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            break
        # ratio test; ties resolved toward the lowest-index basic variable
        leave = -1
        best = np.inf
        for i in range(mrows):
            a = T[i, enter]
            if a > _PIVOT_TOL:
                ratio = T[i, -1] / a
                if ratio < best - _PIVOT_TOL or (
                        abs(ratio - best) <= _PIVOT_TOL
                        and (leave < 0 or basis[i] < basis[leave])):
                    best = ratio
                    leave = i
        if leave < 0:
            # unbounded phase-one cannot happen with artificials; bail safely
            break
        piv = T[leave, enter]
        T[leave, :] /= piv
        for i in range(mrows + 1):
            if i != leave and T[i, enter] != 0.0:
                T[i, :] -= T[i, enter] * T[leave, :]
        basis[leave] = enter
    else:
        # Bland's rule makes the cap unreachable; it turns a bug into a
        # clean error instead of a hang
        raise NumericalFailure("phase-one simplex exceeded its pivot budget")

    optimum = -float(T[mrows, -1])
    if optimum < 0.0:
        optimum = 0.0
    z = np.zeros(ncols)
    for i, var in enumerate(basis):
        if var < ncols:
            z[var] = max(T[i, -1], 0.0)
    feasible = optimum <= LI_TOL * (1.0 + float(np.abs(b).max(initial=0.0)))
    return PhaseOneResult(feasible=feasible, optimum=optimum,
                          z=z if feasible else np.zeros(ncols))
