"""External penalty method and sequence-based probes for the weak conditions.

The regularized penalty function at level rho is

    phi(x) = f(x) + ||x - anchor||^2 / 2
           + (rho/2) (||proj_psd(-G(x))||_F^2 + sum_i h_i(x)^2)

and its minimizers x^k along rho_k -> infinity carry multiplier estimates
Y^k = rho_k proj_psd(-G(x^k)).  The trace of (x^k, Y^k) with the spectral
data of G(x^k) is the raw material for the weak-nondegeneracy and
weak-Robinson probes: both conditions quantify over sequences x^k -> x_bar
and ask for kernel bases, assembled from eigenvectors of G(x^k), whose
diagonal gradient family is (positively) independent.  A sequence allows
its limit basis rotated within its persistent eigenvalue clusters.  Weak
Robinson decides each sequence exactly, by one positive-independence
test of the cluster sums of the diagonal family; weak nondegeneracy
scores the limit basis and, with cluster freedom left, one Haar rotation
within the clusters.  The universal quantifier over sequences is
approximated by a finite family of traces, and the verdict semantics say
so: a passing probe reports HoldsSampled, never a certificate, while
Fails comes from one sequence the test decided.  One such sequence
refutes the condition, so a probe tests the traces in order and stops
at the first that fails with no basis freedom left.  Both probes first
try the routes that need no sequence, cqcheck.exact_verdict; an
analysis tries those, and a certified upstream condition, before it
builds any trace: report.py certifies a probe whose nondegeneracy or
Robinson counterpart is certified and calls default_trace_family only
for a probe left open.  The family runs the penalty solve at once but
builds each path trace the first time a probe reaches it, so a path
trace after a refuting one is never built, and a numerical failure it
would raise never surfaces.

Each level is solved to a gradient tolerance that grows with rho up to a
cap, but never below the gradient's own rounding error at the level's
warm start, eps * rho * max|lambda(G)| * ||DG||_F: at rho >= 1e11 that
error exceeds the cap, and a level asked for less cannot converge.  A
level is solved by semismooth Newton on phi, which is SC^1: its
generalized Hessian comes from the second derivatives of f, G and h at
the point and the generalized Jacobian of the PSD projection, read off
the eigendecomposition of G the value already holds.  Each step starts
at t = 1, and a rejected trial interpolates rather than halves; a
step that fails falls back once to steepest descent scaled by
1 / (1 + rho ||DG||_F^2), the penalty's curvature scale.  Multiplier
growth counts as divergence only above the rounding floor
rho * eps * max|lambda(G)| * sqrt(m) of ||Y||_F, and above
tol / ||DG||_F, the smallest Y whose adjoint the last level's gradient
tolerance tol resolves.

Each point is evaluated once, by one model Evaluation (NsdpProblem.at)
that keeps f, h, the eigenpairs of G and the Jacobian, none of it
depending on rho; a path trace evaluates G at all its points from one
stacked table and decomposes them with one stacked eigh.  A point's
Evaluation goes from the line-search trial that accepted it through its
gradient and Hessian to the next level, which recomputes only the
rho-dependent value, gradient, multiplier and noise floor.  The first
level starts from the feasibility gate's Evaluation of the anchor.  A
level whose line search finds no finite step, as on a penalty unbounded
below, ends stalled, and so does every level after it.

On these problems (n and m of a few units) a Newton step costs more in
numpy's per-call overhead than in LAPACK, so each step keeps its fixed
cost down.  A point's f, G and h are one monomial product with one
finiteness test, and its grad f, partials of G and Dh slices of one
Jacobian (model.Evaluation).  Each point gets one LAPACK eigensolve,
and the penalty reads its pairs as LAPACK returns them, eigenvalues
ascending: the value, the multiplier, whose active block, the
eigenvectors of the negative eigenvalues, is a leading slice, the noise
and gradient floors, and the projection weights and Hessian, filled
block by block.  A level's record keeps them too, and sorts and
sign-fixes them only when its spectrum is first read
(PenaltyIterate.from_pairs), so a solve whose records nobody reads
sorts nothing.  An accepted trial hands its value's pieces
(_penalty_value) to the gradient, and its gradient norm to the next
iteration, instead of recomputing them.  The Cholesky factor is taken
of H itself unless H needs a diagonal shift, and after a failed
factorization the shifts at which Cholesky's backward error rules out
success are passed over unfactored (_newton_direction).  The
factorization, both triangular solves and that eigvalsh call the
LAPACK gufuncs behind numpy.linalg directly, so that a failed
factorization costs one LAPACK call and no raised LinAlgError, under
one errstate that inner_minimize enters per level.  The multiplier is
symmetrized in place and frozen with no copy, a point where G(x) is PSD
gets its zero multiplier with no product, and a problem without
equalities skips their terms.
"""
from __future__ import annotations

import json
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

from .cqcheck import (
    CqStatus,
    CqVerdict,
    PliResult,
    PointData,
    compress,
    exact_verdict,
    feasibility_data,
    li_test,
    pli_test,
)
from .errors import NumericalFailure
from .model import Evaluation, NsdpProblem
from .symmat import (
    SymMat,
    eigh,
    frobenius,
    orthonormalize,
    random_rotation,
    spectral_order,
)

ARMIJO_C = 1e-4
INNER_TOL_CAP = 1e-5         # upper cap of the per-level tolerance schedule
INNER_MAX_ITERS = 400        # Newton iterations allowed per penalty level
# relative float resolution of the penalty value, applied to the sizes of
# its terms (see _penalty_parts), not to the value itself
VALUE_NOISE = 1e-14
EPS = float(np.finfo(float).eps)
TAU_CLUSTER = 1e-6
# 26 halvings from 1e-2 end 3e-10 from the limit, close enough for the
# rank of G at the limit to be read off the final iterate directly
PATH_STEPS = 26
PATH_SCALE = 1e-2
PATH_DECAY = 0.5
# the gufuncs behind np.linalg.cholesky, np.linalg.solve with a 1-D
# right-hand side and np.linalg.eigvalsh: on n of a few units their
# dispatch costs several times the LAPACK call (see _newton_direction)
_cholesky_lo = _umath_linalg.cholesky_lo
_solve1 = _umath_linalg.solve1
_eigvalsh_lo = _umath_linalg.eigvalsh_lo


@dataclass(frozen=True)
class PenaltyConfig:
    """Schedule of a penalty run: outer_iters levels rho0 * rho_mult^k
    from the anchor, each solved to inner_tolerance within
    INNER_MAX_ITERS Newton iterations.

    rho0 and rho_mult must be finite, and so must the last level, which
    is formed by the run's own repeated products: a level that overflows
    would give a non-finite multiplier.
    """

    anchor: np.ndarray
    rho0: float = 1.0
    rho_mult: float = 10.0
    outer_iters: int = 12
    inner_tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "anchor",
                           np.asarray(self.anchor, dtype=float))
        if not 0.0 < self.rho0 < math.inf:
            raise ValueError("rho0 must be positive and finite")
        if not 1.0 < self.rho_mult < math.inf:
            raise ValueError("rho_mult must be finite and exceed 1")
        if not 0.0 < self.inner_tol < math.inf:
            raise ValueError("inner_tol must be positive and finite")
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be positive")
        rho = self.rho0
        for _ in range(self.outer_iters - 1):
            rho *= self.rho_mult
            if rho == math.inf:
                raise ValueError("the last penalty level rho0 * rho_mult^"
                                 f"{self.outer_iters - 1} overflows")


@dataclass
class PenaltyIterate:
    """One outer iterate; field names match the JSON trace format.

    A run_penalty level record is built by from_pairs, which keeps
    LAPACK's ascending eigenpairs of G(x) and fills eigenvalues and
    eigenvectors from them on the first read of either, through
    symmat.spectral_order, so they are read-only and bit for bit
    symmat.eigh(G(x)); a solve whose records nobody reads sorts nothing.
    """

    k: int
    rho: float
    x: np.ndarray
    multiplier: SymMat
    eigenvalues: np.ndarray       # of G(x), non-increasing
    eigenvectors: np.ndarray
    stationarity_residual: float
    multiplier_norm: float
    inner_converged: bool = True
    inner_iterations: int = 0

    @classmethod
    def from_pairs(cls, pairs: Tuple[np.ndarray, np.ndarray],
                   **fields) -> "PenaltyIterate":
        """A record whose spectrum is the raw pairs (w, U) of
        symmat.eigh_raw, put in eigh's order when first read."""
        rec = cls(eigenvalues=None, eigenvectors=None, **fields)
        del rec.eigenvalues, rec.eigenvectors
        rec._pairs = pairs
        return rec

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks, as the
        # spectrum of a from_pairs record is before its first read
        pairs = self.__dict__.get("_pairs")
        if pairs is None or name not in ("eigenvalues", "eigenvectors"):
            raise AttributeError(name)
        spec = spectral_order(*pairs)
        del self._pairs
        self.eigenvalues, self.eigenvectors = spec.values, spec.vectors
        return getattr(self, name)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "rho": self.rho,
            "x": [float(v) for v in self.x],
            "multiplier": [[float(v) for v in row]
                           for row in self.multiplier.a],
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "eigenvectors": [[float(v) for v in row]
                             for row in self.eigenvectors],
            "stationarity_residual": float(self.stationarity_residual),
            "multiplier_norm": float(self.multiplier_norm),
        }


@dataclass
class PenaltyTrace:
    problem: str
    iterates: List[PenaltyIterate]
    kind: str = "penalty"            # or "path" for synthetic sequences
    trace_id: str = "penalty"
    divergence_suspected: bool = False
    notes: List[str] = field(default_factory=list)

    @property
    def converged_point(self) -> np.ndarray:
        if not self.iterates:
            raise ValueError("empty trace has no converged point")
        return self.iterates[-1].x

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(rec.to_json(), sort_keys=True)
                         for rec in self.iterates)


@dataclass(frozen=True)
class InnerResult:
    """An inner solve's last point with its gradient norm, multiplier
    Y = rho * proj_psd(-G(x)) and the point's Evaluation, from which the
    next level starts."""

    x: np.ndarray
    grad_norm: float
    converged: bool
    iterations: int
    multiplier: SymMat
    ev: Evaluation


@dataclass
class SequenceProbeResult:
    """Per-trace evidence for one weak condition.

    limit_basis is the kernel basis (an m x k array) obtained from the
    eigenvector sequence, snapped onto Ker G(x_bar), and clusters are the
    persistent eigenvalue clusters that leave it rotation freedom.
    sigma_min is the test's score: the smallest singular value of the
    nondegeneracy family, or the phase-one margin of the cluster sums.
    exhaustive means the test decided the sequence, so a failing one
    refutes the condition; cone holds the weak-Robinson test with its
    multipliers.
    """

    trace_id: str
    limit_basis: np.ndarray
    clusters: List[List[int]]
    sigma_min: float
    passed: bool
    exhaustive: bool
    cone: Optional[PliResult] = None
    log: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# penalty function and inner solver


def _penalty_value(anchor: np.ndarray, rho: float, x: np.ndarray,
                   ev: Evaluation):
    """Value of phi at x, from ev, the model evaluation at x, with the
    pieces its gradient reuses: (val, dx, neg, reg, pen), neg the
    eigenvalues of proj(-G(x)) in the order of ev.eigenpairs(), the
    positive ones leading, and reg and pen the regularization and
    penalty terms."""
    dx = x - anchor
    neg = np.maximum(-ev.eigenpairs()[0], 0.0)
    reg = 0.5 * float(dx @ dx)
    # without equalities the sum of squares is 0.0, and adding it keeps
    # every bit of neg @ neg, which is never -0.0
    sq = float(neg @ neg)
    if ev.problem.equalities:
        hvals = ev.equality_values()
        sq += float(hvals @ hvals)
    pen = 0.5 * rho * sq
    return ev.objective_value() + reg + pen, dx, neg, reg, pen


def _penalty_parts(anchor: np.ndarray, rho: float, x: np.ndarray,
                   ev: Evaluation, value=None):
    """Value of phi at x, its gradient, the multiplier and the value's
    noise floor, from ev, the model evaluation at x.

    value is _penalty_value's result at x, which a line-search trial
    hands on when it is accepted; it is computed when not given.  The
    value reads f(x), h(x) and the eigenpairs of G(x) off ev, and the
    gradient its Jacobian, none of them depending on rho, so a caller
    that holds ev, from a value trial at x or from the level that ended
    at x, evaluates no point twice.  The eigenpairs are LAPACK's,
    ascending, so the active block of the multiplier, the eigenvectors
    of the negative eigenvalues, is their leading slice.

    The noise floor bounds the rounding error of phi near x: VALUE_NOISE
    times the sizes of its terms, which can cancel, plus the eigenvalue
    roundoff (of order eps * max|lambda|) that the penalty term
    amplifies by rho * sum(neg).  It must not be clamped to an absolute
    size: near a feasible anchor with f = 0, phi is of order 1e-9 and
    resolves to about 1e-22, and an absolute floor there would switch
    the Armijo test off.
    """
    val, dx, neg, reg, pen = value or _penalty_value(anchor, rho, x, ev)
    w, U = ev.eigenpairs()
    k = int(w.searchsorted(0.0))        # the eigenvalues below zero
    if k:
        V = U[:, :k]
        Ymat = rho * (V * neg[:k]) @ V.T
        # (Y + Y^T) / 2 in place, entrywise the average from_symmetric
        # takes, and exactly symmetric
        Ymat += Ymat.T
        Ymat /= 2.0
    else:                   # G(x) PSD: a zero multiplier, with no product
        Ymat = np.zeros((ev.problem.m, ev.problem.m))
    Y = SymMat._frozen(Ymat)
    grad = ev.objective_gradient() + dx - ev.adjoint(Ymat)
    if ev.problem.equalities:
        hvals = ev.equality_values()
        grad = grad + rho * (ev.equality_gradients().T @ hvals)
    noise = VALUE_NOISE * (abs(ev.objective_value()) + reg + pen
                           + rho * _lam_abs(w) * float(neg.sum()))
    return val, grad, Y, noise


def _gradient_floor(rho: float, values: np.ndarray, dg_norm: float) -> float:
    """Float resolution of the penalty gradient at a point, from the
    eigenvalues of G, sorted either way, and ||DG||_F there.

    Y = rho * proj(-G) carries the eigenvalues' absolute roundoff, about
    eps * max|lambda(G)|, amplified by rho, and DG* maps it into the
    gradient with gain at most ||DG||_F, the Frobenius norm of the stack
    of partials.
    """
    return EPS * rho * _lam_abs(values) * dg_norm


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D array, numpy's own formula for one without
    the dispatch of np.linalg.norm."""
    return math.sqrt(float(v @ v))


def _lam_abs(values: np.ndarray) -> float:
    """max|lambda| of a sorted spectrum, ascending or descending."""
    return max(abs(float(values[0])), abs(float(values[-1])))


def inner_tolerance(cfg: PenaltyConfig, rho: float) -> float:
    """Gradient threshold at level rho: scales with rho, capped above."""
    return min(cfg.inner_tol * (1.0 + rho), INNER_TOL_CAP)


def inner_stop(converged: bool, iterations: int) -> str:
    """How an inner solve ended: "ok", "budget" when it spent
    INNER_MAX_ITERS, "stalled" when the line search found no step
    before that, or, in a run, when an earlier level stalled."""
    if converged:
        return "ok"
    return "budget" if iterations >= INNER_MAX_ITERS else "stalled"


def _penalty_hessian(rho: float, ev: Evaluation, Y: SymMat) -> np.ndarray:
    """Generalized Hessian of phi at the point of ev, Y its multiplier.

    It is Hess f + I - Hess <G, Y> + rho (Dh^T Dh + sum_k h_k Hess h_k)
    + rho DG* dPi DG, where dPi is the generalized Jacobian of the PSD
    projection at -G = Q diag(mu) Q^T, dPi(H) = Q (Omega o Q^T H Q) Q^T
    with Omega_ij = (mu_i^+ - mu_j^+) / (mu_i - mu_j) (Sun & Sun 2002):
    1 at an exact tie of positive eigenvalues, 0 at one of non-positive
    ones.  With B_l = Q^T D_l G Q the projection term is
    rho B (Omega o B)^T over the flattened B_l.  Q and mu = -w are
    ev.eigenpairs() as LAPACK returns them.
    """
    eqs, (w, Q) = ev.problem.equalities, ev.eigenpairs()
    # without equalities the Lagrangian Hessian reads no weights
    H = ev.lagrangian_hessian(Y, rho * ev.equality_values() if eqs else ())
    n = H.shape[0]
    H.ravel()[::n + 1] += 1.0
    if w[0] < 0.0:
        B = compress(ev.constraint_partials(), Q).reshape(n, -1)
        BW = B * _projection_weights(-w).ravel()
        BW *= rho
        H += BW @ B.T
    if eqs:
        Dh = ev.equality_gradients()
        H += rho * (Dh.T @ Dh)
    return H


def _projection_weights(mu: np.ndarray) -> np.ndarray:
    """Omega of the generalized Jacobian of the PSD projection at
    Q diag(mu) Q^T (see _penalty_hessian), for mu non-increasing.

    The first k entries of mu are positive and the rest non-positive, so
    Omega is 1 on the leading k x k block, 0 on the trailing one, and
    mu_i / (mu_i - mu_j) on the cross blocks, which are each other's
    transpose bit for bit.  Only the sign of a zero can differ from the
    entrywise formula, and no sum in the Hessian keeps it.
    """
    k = mu.size - int(mu[::-1].searchsorted(0.0, side="right"))
    W = np.zeros((mu.size, mu.size))
    W[:k, :k] = 1.0
    pos = mu[:k, None]
    W[:k, k:] = cross = pos / (pos - mu[k:])
    W[k:, :k] = cross.T
    return W


def _newton_direction(H: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """-(H + tau I)^-1 grad for the smallest tau of the doubling sequence
    that makes H + tau I positive definite: Cholesky with added multiple
    of the identity (Nocedal & Wright, Numerical Optimization, Alg. 3.3,
    beta = 1e-3).  Zero, which the caller rejects as no descent
    direction, when 200 doublings do not suffice; a non-finite H gives a
    non-finite or zero direction, which the caller rejects too.

    After the first failed factorization, one LAPACK eigvalsh of H gives
    lam_min and max|lam|, and every tau of the sequence with
    lam_min + tau < -n (n + 1) eps (max|lam| + tau) is passed over
    without a factorization, as Cholesky cannot succeed there.  A
    factorization that completes on A = fl(H + tau I) gives
    L L^T = A + dA with |dA_ij| <= gamma_{n+1} sqrt(a_ii a_jj),
    gamma_{n+1} ~ (n + 1) eps / 2 (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10), so lam_min(A) >= -||dA||_2
    >= -gamma_{n+1} tr(A), and tr(A) <= n (max|lam| + tau) up to
    rounding: half the margin.  The other half covers the rounding of
    A's diagonal and the eigensolver's error, a modest multiple of
    eps ||H||_2.  From the first tau the test leaves, the search
    factors at every tau as before, and a non-finite H skips nothing.

    The factor and the two solves come from the LAPACK gufuncs that
    np.linalg.cholesky and np.linalg.solve dispatch to, called on the
    same arrays (the identity built once, at the first shift), so the
    accepted tau and every byte of the direction are those of the
    numpy.linalg route that factors at every tau.  The gufunc reports a
    failed factorization by an all-NaN factor, where a factor it returns
    has zeros above the diagonal, so the top right entry tells them
    apart without a LinAlgError (for n = 1 a NaN H also counts as
    failed).  The caller sets the errstate numpy.linalg sets, less the
    LinAlgError it raises on the invalid flag, as inner_minimize does
    once for its whole solve; a triangular solve that numpy.linalg would
    refuse as singular gives a NaN direction instead.
    """
    beta = 1e-3
    n = len(H)
    diag = float(H.diagonal().min())
    tau = 0.0 if diag > 0.0 else beta - diag
    eye = np.eye(n) if tau > 0.0 else None
    margin = n * (n + 1) * EPS
    lo = None                       # lam_min(H), read at the first failure
    for _ in range(200):
        # lo is inf for a non-finite H and NaN where eigvalsh failed, and
        # either fails the test, so nothing is skipped
        if lo is None or not lo + tau < -margin * (top + tau):
            L = _cholesky_lo(H + tau * eye if tau > 0.0 else H)
            if L[0, -1] == L[0, -1]:    # not NaN: the factorization held
                return -_solve1(L.T, _solve1(L, grad))
            if lo is None:
                if eye is None:
                    eye = np.eye(n)
                lo, top = math.inf, 0.0
                if np.isfinite(H).all():
                    w = _eigvalsh_lo(H, signature="d->d")
                    lo, top = float(w[0]), _lam_abs(w)
        tau = max(2.0 * tau, beta)
    return np.zeros_like(grad)


def _line_search(P: NsdpProblem, anchor: np.ndarray, rho: float,
                 x: np.ndarray, val: float, gnorm: float, noise: float,
                 d: np.ndarray, gd: float):
    """Armijo backtracking from t = 1 along d, gd = grad . d < 0.

    A rejected trial moves t to the minimizer of the quadratic through
    phi(0), phi'(0) and phi(t), kept within [0.1 t, 0.5 t] (Nocedal &
    Wright 3.5).  Where the requested decrease is below noise, the float
    resolution of phi, the value test carries no information: such a
    trial is accepted on strict gradient decrease, and otherwise t is
    halved.  A trial whose f, h or G overflows has the value inf, and one
    whose gradient norm overflows is rejected like any other.  An
    accepted trial hands its value's pieces on to the gradient.  Returns
    the accepted point with its value, gradient and its norm, multiplier,
    Evaluation and noise floor, or None after 60 trials.
    """
    t = 1.0
    for _ in range(60):
        cand = x + t * d
        ev = P.at(cand)
        value = _penalty_value(anchor, rho, cand, ev) if ev.finite() else None
        fc = value[0] if value else math.inf
        armijo = abs(t * gd) > noise
        if fc <= val + (ARMIJO_C * t * gd if armijo else noise):
            _, gc, Yc, noise_c = _penalty_parts(anchor, rho, cand, ev, value)
            gnorm_c = _norm(gc)
            if math.isfinite(gnorm_c) and (armijo or gnorm_c < gnorm):
                return cand, fc, gc, gnorm_c, Yc, ev, noise_c
        if armijo:
            curv = fc - val - gd * t
            t = max(0.1 * t, min(0.5 * t, -gd * (t * t) / (2.0 * curv)))
        else:
            t *= 0.5
    return None


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def inner_minimize(P: NsdpProblem, cfg: PenaltyConfig, rho: float,
                   x_start, ev: Optional[Evaluation] = None) -> InnerResult:
    """Semismooth Newton with Armijo backtracking on the regularized
    penalty.

    phi is SC^1: its gradient is semismooth, and the projection onto the
    PSD cone has an explicit generalized Jacobian, so each iteration
    steps along the Newton direction of the generalized Hessian
    (_penalty_hessian), made positive definite by a diagonal shift,
    from t = 1 (Qi & Sun 2006 use the same Jacobian in their Newton
    method for the nearest correlation matrix).  When the line search
    finds no step along it, the iteration retries once along
    -grad / (1 + rho ||DG||_F^2), with ||DG||_F taken at the warm start:
    rho ||DG||_F^2 bounds the Gauss-Newton curvature of the penalty
    term, so that step does not overshoot by that factor.
    At very stiff levels the Armijo decrease drops below the float
    resolution of phi; such steps are accepted on strict gradient
    decrease (see _line_search).  The resolution is the noise floor of
    the accepted point.
    The gradient threshold is inner_tolerance(cfg, rho), raised to the
    gradient's own float resolution at the warm start
    (_gradient_floor, once per level): at rho >= 1e11 the rounding
    error of rho * proj(-G) alone exceeds the capped schedule, and a
    level asked for less than that can only spend its budget.
    ev, when given, is the Evaluation of x_start (InnerResult.ev of the
    level before), so the warm start is not evaluated again.  Iterates
    sent far out by a penalty unbounded below overflow silently, and
    every non-finite direction and trial is rejected.  Returns the best point, with its gradient, multiplier and
    Evaluation, flagged not-converged when the iteration budget runs out
    or neither direction gives a step; iterations tells the two apart.
    """
    anchor = cfg.anchor
    x = np.asarray(x_start, dtype=float).copy()
    if ev is None:
        ev = P.at(x)
    val, grad, Y, noise = _penalty_parts(anchor, rho, x, ev)
    dg_norm = _norm(ev.constraint_partials().ravel())
    tol = max(inner_tolerance(cfg, rho),
              _gradient_floor(rho, ev.eigenpairs()[0], dg_norm))
    gamma = 1.0 / (1.0 + rho * dg_norm * dg_norm)
    gnorm = _norm(grad)
    for it in range(INNER_MAX_ITERS):
        if gnorm <= tol:
            return InnerResult(x, gnorm, True, it, Y, ev)
        d = _newton_direction(_penalty_hessian(rho, ev, Y), grad)
        gd = float(grad @ d)
        step = None
        if gd < -1e-14 * max(1.0, gnorm) * _norm(d):
            step = _line_search(P, anchor, rho, x, val, gnorm, noise, d, gd)
        if step is None:
            step = _line_search(P, anchor, rho, x, val, gnorm, noise,
                                -gamma * grad, -gamma * gnorm * gnorm)
        if step is None:
            return InnerResult(x, gnorm, False, it, Y, ev)
        x, val, grad, gnorm, Y, ev, noise = step
    return InnerResult(x, gnorm, gnorm <= tol, INNER_MAX_ITERS, Y, ev)


# ---------------------------------------------------------------------------
# outer loop


def run_penalty(P: NsdpProblem, cfg: PenaltyConfig) -> PenaltyTrace:
    """Outer penalty loop with warm starts and multiplier records.

    The anchor must be feasible.  Divergence of the multiplier estimates
    (factor >= 2 growth over the last three outer iterations at a
    stationary inner solution, to a norm above both the rounding floor
    rho * eps * max|lambda(G)| * sqrt(m) and inner_tolerance / ||DG||_F
    of the last iterate) is flagged
    on the trace; by the boundedness argument under Robinson's
    condition, sustained growth signals that no KKT multiplier exists at
    the limit.  Once a level stalls, no later level counts as converged,
    and only the stall is noted: a later level starts where the stall
    left the iterate, and on a penalty unbounded below its gradient
    floor there exceeds the gradient, so it stops at once.  No point of
    the run is evaluated twice (see the module docstring).
    """
    x = cfg.anchor.copy()
    ev = feasibility_data(P, x).ev
    rho = cfg.rho0
    iterates: List[PenaltyIterate] = []
    notes: List[str] = []
    stalled = False
    for k in range(cfg.outer_iters):
        res = inner_minimize(P, cfg, rho, x, ev)
        x, ev = res.x, res.ev
        Y = res.multiplier
        iterates.append(PenaltyIterate.from_pairs(
            ev.eigenpairs(), k=k, rho=rho, x=x.copy(), multiplier=Y,
            stationarity_residual=res.grad_norm,
            multiplier_norm=float(np.sqrt(frobenius(Y.a, Y.a))),
            inner_converged=res.converged and not stalled,
            inner_iterations=res.iterations))
        if not res.converged:
            if inner_stop(res.converged, res.iterations) == "budget":
                how = f"spent its {res.iterations}-iteration budget"
            else:
                stalled = True
                how = (f"stalled after {res.iterations} iterations "
                       "(line search found no step)")
            notes.append(f"inner solve at rho={rho:.1e} {how} at gradient "
                         f"norm {res.grad_norm:.2e}")
        rho *= cfg.rho_mult
    divergent = False
    if len(iterates) >= 4:
        last = iterates[-1]
        ref = iterates[-4]
        # rho * proj(-G) carries each eigenvalue's roundoff, about
        # eps * max|lambda(G)|, amplified by rho; a norm within that
        # floor is rounding growing with rho, not a multiplier.  Nor is
        # a Y whose adjoint, at most ||DG||_F ||Y||_F, stays below the
        # level's gradient tolerance: the inner solve cannot resolve it
        floor = (last.rho * EPS
                 * _lam_abs(ev.eigenpairs()[0]) * np.sqrt(P.m))
        dg_norm = _norm(ev.constraint_partials().ravel())
        if (last.inner_converged and ref.multiplier_norm > 0.0
                and last.multiplier_norm >= 2.0 * ref.multiplier_norm
                and last.multiplier_norm > floor
                and last.multiplier_norm * dg_norm
                > inner_tolerance(cfg, last.rho)):
            divergent = True
            notes.append("multiplier divergence suspected: ||Y|| grew by "
                         f"{last.multiplier_norm / ref.multiplier_norm:.1f}x "
                         "over the last three outer iterations")
    return PenaltyTrace(problem=P.name, iterates=iterates,
                        divergence_suspected=divergent, notes=notes)


def make_path_trace(P: NsdpProblem, x_bar, direction,
                    trace_id: str = "path") -> PenaltyTrace:
    """Synthetic sequence x_bar + PATH_SCALE * PATH_DECAY^j * d,
    j < PATH_STEPS, packaged as a trace.

    The weak conditions quantify over arbitrary sequences, feasible or
    not, so the path records carry zero penalty level and multiplier.
    G is evaluated at all the points from one stacked power table and
    decomposed by one stacked eigh.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    d = np.asarray(direction, dtype=float)
    nrm = float(np.linalg.norm(d))
    if nrm < 1e-12:
        raise ValueError("path direction must be nonzero")
    d = d / nrm
    t = np.array([PATH_SCALE * (PATH_DECAY ** j) for j in range(PATH_STEPS)])
    X = x_bar + t[:, None] * d
    spec = eigh(P.at(X).constraint_value())
    values, vectors = spec.values.copy(), spec.vectors.copy()
    zero = SymMat.zero(P.m)
    iterates = [PenaltyIterate(
        k=j, rho=0.0, x=X[j], multiplier=zero, eigenvalues=values[j],
        eigenvectors=vectors[j], stationarity_residual=0.0,
        multiplier_norm=0.0) for j in range(PATH_STEPS)]
    return PenaltyTrace(problem=P.name, iterates=iterates, kind="path",
                        trace_id=trace_id)


class TraceFamily(Sequence):
    """The traces of default_trace_family, in order; a path trace is
    built the first time it is accessed, and kept.

    slots hold a built trace or the (trace_id, direction) of a path
    trace still to build.  seconds is the time spent building traces,
    the penalty run and the path traces built on access included.
    """

    def __init__(self, P: NsdpProblem, x_bar: np.ndarray, slots: list,
                 seconds: float):
        self._P, self._x_bar, self._slots = P, x_bar, slots
        self.seconds = seconds

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, i: int) -> PenaltyTrace:
        slot = self._slots[i]
        if isinstance(slot, PenaltyTrace):
            return slot
        t0 = time.perf_counter()
        trace_id, d = slot
        trace = self._slots[i] = make_path_trace(self._P, self._x_bar, d,
                                                 trace_id=trace_id)
        self.seconds += time.perf_counter() - t0
        return trace


def default_trace_family(P: NsdpProblem, cfg: PenaltyConfig,
                         count: int = 8, seed: int = 0) -> TraceFamily:
    """One penalty trace plus axis and random-direction paths to x_bar.

    seed, a non-negative integer, draws the random directions, which
    are used once the axis paths are spent.  The penalty run happens
    here; each path trace is built on first access (see TraceFamily), so
    a probe that stops early never builds the paths after its stop.

    The penalty trace is dropped when its final iterate stays further
    than 1e-6 from the anchor; on degenerate problems the outer loop
    converges like a fractional power of 1/rho and the truncated run
    would violate the probes' proximity requirement.
    """
    if count < 1:
        raise ValueError("at least one trace is required")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    t0 = time.perf_counter()
    x_bar = cfg.anchor
    slots: list = []
    pen = run_penalty(P, cfg)
    if float(np.linalg.norm(pen.converged_point - x_bar)) <= 1e-6:
        slots.append(pen)
    axis_dirs = []
    for i in range(P.n):
        e = np.zeros(P.n)
        e[i] = 1.0
        axis_dirs += [e.copy(), -e]
    for idx, d in enumerate(axis_dirs):
        if len(slots) >= count:
            break
        slots.append((f"axis{idx}", d))
    rng = np.random.default_rng(seed)
    ray = 0
    while len(slots) < count:
        g = rng.standard_normal(P.n)
        nrm = float(np.linalg.norm(g))
        if nrm < 1e-12:
            continue
        slots.append((f"ray{ray}", g / nrm))
        ray += 1
    return TraceFamily(P, x_bar, slots, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# weak-condition probes


def _usable_records(values: np.ndarray, rank: int,
                    tol_rank: float) -> np.ndarray:
    """Indices of the iterates, rows of their stacked spectra values,
    whose range/kernel split at rank is unambiguous; NumericalFailure
    when fewer than 3 are left."""
    if rank > 0:
        scale = np.maximum(1.0, np.max(np.abs(values), axis=1, initial=0.0))
        out = np.flatnonzero(~(values[:, rank - 1] <= 2.0 * tol_rank * scale))
    else:
        out = np.arange(values.shape[0])
    if out.size < 3:
        raise NumericalFailure(
            f"only {out.size} usable iterates in the trace tail, need 3")
    return out


def _snap_to_kernel(E: np.ndarray, K: np.ndarray) -> Optional[np.ndarray]:
    """Project columns onto span(K) and orthonormalize them in order;
    None when the projections are dependent."""
    return orthonormalize(K @ (K.T @ E))


def _persistent_clusters(values: np.ndarray, rank: int) -> List[List[int]]:
    """Kernel eigenvalue clusters that persist along the whole tail, the
    rows of values being the usable iterates' spectra.

    Two consecutive kernel eigenvalues are merged only when they stay
    within the cluster tolerance at every usable iterate.  Eigenvalues
    that separate anywhere along the tail pin their eigenvectors there,
    so the limit basis has no rotation freedom between them; treating
    them as degenerate would invent freedom the sequence does not have.
    """
    k = values.shape[1] - rank
    tau = TAU_CLUSTER * (1.0 + np.max(np.abs(values), axis=1, initial=0.0))
    gaps = np.abs(values[:, rank:-1] - values[:, rank + 1:])
    merged = ~np.any(gaps >= tau[:, None], axis=0)
    clusters: List[List[int]] = [[0]] if k else []
    for i in range(1, k):
        if merged[i - 1]:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _block_rotation(clusters: List[List[int]], k: int,
                    rng: np.random.Generator) -> np.ndarray:
    C = np.eye(k)
    for cl in clusters:
        if len(cl) > 1:
            R = random_rotation(len(cl), rng)
            idx = np.ix_(cl, cl)
            C[idx] = R
    return C


def _probe_traces(pd: PointData, traces: Sequence[PenaltyTrace],
                  seed: int, positive: bool):
    """Shared trace loop for both weak probes: _probe_trace on each trace
    in order, up to the first that refutes the condition, a failure that
    leaves no basis freedom.  Returns the results, which end at that
    trace, and that trace's result, None when no trace refutes.  The
    traces after it are never accessed, so a TraceFamily never builds
    them."""
    results: List[SequenceProbeResult] = []
    for t_idx, trace in enumerate(traces):
        res = _probe_trace(pd, trace, seed, t_idx, positive)
        results.append(res)
        if not res.passed and res.exhaustive:
            return results, res
    return results, None


def _probe_trace(pd: PointData, trace: PenaltyTrace, seed: int, t_idx: int,
                 positive: bool) -> SequenceProbeResult:
    """One trace tested for either weak probe, t_idx its place in the
    family.

    A trace gives a limit basis E and its persistent clusters; the bases
    the sequence allows are E C with C orthogonal within each cluster.
    positive selects the test.

    Weak Robinson tests the cluster sums w_c = sum_{i in c} v_ii(E) for
    positive independence, equality gradients free, and so decides
    every E C at once.  A rotation within the clusters keeps the trace
    of each cluster block of E^T DG[d] E, which is w_c^T d.  By
    Gordan-Motzkin a family is positively independent iff some d
    orthogonal to the equality gradients is positive on every member.
    Such a d for the family at any E C is positive on every w_c, the
    sum of a block's diagonal.  Conversely, a d positive on every w_c
    gives each block a positive trace, and Schur-Horn rotates the block
    to a constant, hence positive, diagonal.

    Weak nondegeneracy tests linear independence of the diagonal family
    plus the equality gradients at E and, when that fails with cluster
    freedom left, at one Haar draw E C from default_rng([seed, t_idx]).
    Its Gram determinant is a polynomial in C, nonzero for almost every
    rotation or for none, but a failing draw still refutes nothing.
    """
    rank = pd.rank
    eq_rows = list(pd.Heq)

    def diagonal(cols: np.ndarray) -> np.ndarray:
        return np.diagonal(compress(pd.W, cols), axis1=1, axis2=2).T

    dist = float(np.linalg.norm(trace.converged_point - pd.x))
    if dist > 1e-6:
        raise ValueError(
            f"trace {trace.trace_id} converges {dist:.2e} away from the "
            "queried point")
    values = np.stack([rec.eigenvalues for rec in trace.iterates])
    usable = _usable_records(values, rank, pd.tol_rank)
    E = _snap_to_kernel(
        trace.iterates[usable[-1]].eigenvectors[:, rank:], pd.E)
    log = []
    if E is None:
        E = pd.E.copy()
        log.append("sequence limit defective, kernel basis substituted")
    clusters = _persistent_clusters(values[usable], rank)
    free = any(len(cl) > 1 for cl in clusters)
    cone = None
    if positive:
        vmat = diagonal(E)
        cone = pli_test([vmat[cl].sum(axis=0) for cl in clusters],
                        free_vectors=eq_rows)
        score, ok, exhaustive = cone.margin, cone.pos_independent, True
    else:
        li = li_test(list(diagonal(E)) + eq_rows)
        if not li.independent and free:
            E = E @ _block_rotation(clusters, E.shape[1],
                                    np.random.default_rng([seed, t_idx]))
            li = li_test(list(diagonal(E)) + eq_rows)
        score, ok, exhaustive = li.sigma_min, li.independent, not free
    return SequenceProbeResult(
        trace_id=trace.trace_id,
        limit_basis=E, clusters=clusters, sigma_min=score, passed=ok,
        exhaustive=exhaustive, cone=cone, log=log)


def probe_weak_ndg(pd: PointData, traces: Sequence[PenaltyTrace],
                   seed: int = 0
                   ) -> Tuple[List[SequenceProbeResult], CqVerdict]:
    """Weak nondegeneracy probed along a family of sequences.

    Every trace must admit a kernel basis, assembled from its eigenvector
    tail and rotated within eigenvalue clusters, whose diagonal gradient
    family is independent.  Each trace scores its limit basis and, when
    that fails with cluster freedom left, one Haar rotation within the
    clusters drawn from seed.  All traces passing gives HoldsSampled; the
    first failing trace with no cluster freedom is a genuine witness and
    gives Fails, and the probe stops there, so the results end at that
    trace.  The shared routes of :func:`exact_verdict` come first: among
    them the dimension bound.
    """
    exact = exact_verdict(pd, "weak_ndg_probe")
    if exact is not None:
        return [], exact
    if not traces:
        return [], CqVerdict(CqStatus.UNDETERMINED,
                             reason="no admissible traces supplied")
    results, bad = _probe_traces(pd, traces, seed, positive=False)
    if bad is not None:
        return results, CqVerdict(
            CqStatus.FAILS,
            reason=f"trace {bad.trace_id} leaves no basis freedom and its "
                   "diagonal gradient family is dependent",
            witness={"trace": bad.trace_id,
                     "basis": bad.limit_basis,
                     "sigma_min": bad.sigma_min})
    if all(r.passed for r in results):
        return results, CqVerdict(CqStatus.HOLDS_SAMPLED,
                                  samples=len(results),
                                  reason="all sampled sequences admit an "
                                         "independent diagonal family")
    return results, CqVerdict(
        CqStatus.UNDETERMINED,
        reason="some sequence failed the test with rotation freedom left, "
               "which neither certifies nor refutes the condition")


def probe_weak_robinson(pd: PointData,
                        traces: Sequence[PenaltyTrace]) -> CqVerdict:
    """Weak Robinson condition probed along sequences.

    Each trace is decided exactly by one positive-independence test of
    its cluster sums (see _probe_trace): a trace that fails refutes the
    condition whatever rotation freedom its clusters leave, so the probe
    stops at the first, and its witness carries the limit basis, the
    clusters and the cone multipliers, so it replays from the report.
    All traces passing gives HoldsSampled.  The shared routes of
    :func:`exact_verdict` come first: among them the diagonal reduction
    to MFCQ, positive independence of the active diagonal gradients.
    """
    exact = exact_verdict(pd, "weak_robinson_probe")
    if exact is not None:
        return exact
    if not traces:
        return CqVerdict(CqStatus.UNDETERMINED,
                         reason="no admissible traces supplied")
    results, bad = _probe_traces(pd, traces, 0, positive=True)
    if bad is not None:
        return CqVerdict(
            CqStatus.FAILS,
            reason=f"trace {bad.trace_id}: the cluster sums of its diagonal "
                   "family are positively dependent, so no basis the "
                   "sequence allows is positively independent",
            witness={"trace": bad.trace_id,
                     "basis": bad.limit_basis,
                     "clusters": bad.clusters,
                     "alpha": bad.cone.alpha,
                     "free_coeffs": bad.cone.free_coeffs})
    return CqVerdict(CqStatus.HOLDS_SAMPLED, samples=len(results),
                     reason="all sampled sequences admit a positively "
                            "independent diagonal family")
