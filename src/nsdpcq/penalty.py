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
that keeps f, h, eigh(G) and the derivative stacks, none of it
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
cost down without changing a bit of its result: an accepted trial hands
its value's pieces (_penalty_value) to the gradient instead of
recomputing them, the projection weights are filled block by block off
the sorted spectrum, the Cholesky factor is taken of H itself unless H
needs a diagonal shift, the factorization and both triangular solves
call the LAPACK gufuncs behind numpy.linalg directly, so that a failed
factorization costs one LAPACK call and no raised LinAlgError, the
derivatives of an affine f, G or h (a linear objective, say) and the
empty values of absent equalities are built once per problem (see
model.Compiled), and the eigendecomposition of one matrix takes
symmat.eigh's single-matrix path.
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
)

ARMIJO_C = 1e-4
INNER_TOL_CAP = 1e-5         # upper cap of the per-level tolerance schedule
# relative float resolution of the penalty value, applied to the sizes of
# its terms (see _penalty_parts), not to the value itself
VALUE_NOISE = 1e-14
TAU_CLUSTER = 1e-6
# 26 halvings from 1e-2 end 3e-10 from the limit, close enough for the
# rank of G at the limit to be read off the final iterate directly
PATH_STEPS = 26
PATH_SCALE = 1e-2
PATH_DECAY = 0.5
# the gufuncs behind np.linalg.cholesky and np.linalg.solve with a 1-D
# right-hand side: on n of a few units their dispatch costs several times
# the LAPACK call (see _newton_direction)
_cholesky_lo = _umath_linalg.cholesky_lo
_solve1 = _umath_linalg.solve1


@dataclass(frozen=True)
class PenaltyConfig:
    anchor: np.ndarray
    rho0: float = 1.0
    rho_mult: float = 10.0
    outer_iters: int = 12
    inner_tol: float = 1e-8
    inner_max_iters: int = 400

    def __post_init__(self):
        object.__setattr__(self, "anchor",
                           np.asarray(self.anchor, dtype=float))
        if not self.rho0 > 0.0:
            raise ValueError("rho0 must be positive")
        if not self.rho_mult > 1.0:
            raise ValueError("rho_mult must exceed 1")
        if not self.inner_tol > 0.0:
            raise ValueError("inner_tol must be positive")
        if self.outer_iters < 1 or self.inner_max_iters < 1:
            raise ValueError("iteration counts must be positive")


@dataclass
class PenaltyIterate:
    """One outer iterate; field names match the JSON trace format."""

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
    eigenvalues of proj(-G(x)) and reg and pen the regularization and
    penalty terms."""
    hvals = ev.equality_values()
    dx = x - anchor
    neg = np.maximum(-ev.spectrum().values, 0.0)
    reg = 0.5 * float(dx @ dx)
    pen = 0.5 * rho * (float(neg @ neg) + float(hvals @ hvals))
    return ev.objective_value() + reg + pen, dx, neg, reg, pen


def _penalty_parts(anchor: np.ndarray, rho: float, x: np.ndarray,
                   ev: Evaluation, value=None):
    """Value of phi at x, its gradient, the multiplier and the value's
    noise floor, from ev, the model evaluation at x.

    value is _penalty_value's result at x, which a line-search trial
    hands on when it is accepted; it is computed when not given.  The
    value reads f(x), h(x) and the constraint spectrum off ev, and the
    gradient its derivative stacks, none of them depending on rho, so a
    caller that holds ev, from a value trial at x or from the level that
    ended at x, evaluates no point twice.

    The noise floor bounds the rounding error of phi near x: VALUE_NOISE
    times the sizes of its terms, which can cancel, plus the eigenvalue
    roundoff (of order eps * max|lambda|) that the penalty term
    amplifies by rho * sum(neg).  It must not be clamped to an absolute
    size: near a feasible anchor with f = 0, phi is of order 1e-9 and
    resolves to about 1e-22, and an absolute floor there would switch
    the Armijo test off.
    """
    val, dx, neg, reg, pen = value or _penalty_value(anchor, rho, x, ev)
    fx, hvals, spec = ev.objective_value(), ev.equality_values(), ev.spectrum()
    act = neg > 0.0
    if act.any():
        V = spec.vectors[:, act]
        Ymat = rho * (V * neg[act]) @ V.T
    else:
        Ymat = np.zeros((ev.problem.m, ev.problem.m))
    Y = SymMat.from_symmetric(Ymat)
    grad = ev.objective_gradient() + dx - ev.adjoint(Y.a)
    if hvals.shape[0]:
        grad = grad + rho * (ev.equality_gradients().T @ hvals)
    noise = VALUE_NOISE * (abs(fx) + reg + pen
                           + rho * _lam_abs(spec.values) * float(neg.sum()))
    return val, grad, Y, noise


def _gradient_floor(rho: float, spec, dg_norm: float) -> float:
    """Float resolution of the penalty gradient at a point, from the
    spectrum of G and ||DG||_F there.

    Y = rho * proj(-G) carries the eigenvalues' absolute roundoff, about
    eps * max|lambda(G)|, amplified by rho, and DG* maps it into the
    gradient with gain at most ||DG||_F, the Frobenius norm of the stack
    of partials.
    """
    return float(np.finfo(float).eps) * rho * _lam_abs(spec.values) * dg_norm


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D array, numpy's own formula for one without
    the dispatch of np.linalg.norm."""
    return math.sqrt(float(v @ v))


def _lam_abs(values: np.ndarray) -> float:
    """max|lambda| of a non-increasing spectrum."""
    return max(abs(float(values[0])), abs(float(values[-1])))


def inner_tolerance(cfg: PenaltyConfig, rho: float) -> float:
    """Gradient threshold at level rho: scales with rho, capped above."""
    return min(cfg.inner_tol * (1.0 + rho), INNER_TOL_CAP)


def inner_stop(converged: bool, iterations: int, cfg: PenaltyConfig) -> str:
    """How an inner solve ended: "ok", "budget" when it spent
    cfg.inner_max_iters, "stalled" when the line search found no step
    before that, or, in a run, when an earlier level stalled."""
    if converged:
        return "ok"
    return "budget" if iterations >= cfg.inner_max_iters else "stalled"


def _penalty_hessian(rho: float, ev: Evaluation, Y: SymMat) -> np.ndarray:
    """Generalized Hessian of phi at the point of ev, Y its multiplier.

    It is Hess f + I - Hess <G, Y> + rho (Dh^T Dh + sum_k h_k Hess h_k)
    + rho DG* dPi DG, where dPi is the generalized Jacobian of the PSD
    projection at -G = Q diag(mu) Q^T, dPi(H) = Q (Omega o Q^T H Q) Q^T
    with Omega_ij = (mu_i^+ - mu_j^+) / (mu_i - mu_j) (Sun & Sun 2002):
    1 at an exact tie of positive eigenvalues, 0 at one of non-positive
    ones.  With B_l = Q^T D_l G Q the projection term is
    rho B (Omega o B)^T over the flattened B_l.
    """
    hvals, spec = ev.equality_values(), ev.spectrum()
    H = ev.lagrangian_hessian(Y, rho * hvals)
    n = H.shape[0]
    H.flat[::n + 1] += 1.0
    if spec.values[-1] < 0.0:
        Q = spec.vectors
        B = compress(ev.constraint_partials(), Q).reshape(n, -1)
        BW = B * _projection_weights(-spec.values).ravel()
        BW *= rho
        H += BW @ B.T
    if hvals.shape[0]:
        Dh = ev.equality_gradients()
        H += rho * (Dh.T @ Dh)
    return H


def _projection_weights(mu: np.ndarray) -> np.ndarray:
    """Omega of the generalized Jacobian of the PSD projection at
    Q diag(mu) Q^T (see _penalty_hessian), for mu non-decreasing.

    The first k entries of mu are non-positive and the rest positive, so
    Omega is 0 on the leading k x k block, 1 on the trailing one, and
    mu_i / (mu_i - mu_j) on the cross blocks, which are each other's
    transpose bit for bit.  Only the sign of a zero can differ from the
    entrywise formula, and no sum in the Hessian keeps it.
    """
    k = int(mu.searchsorted(0.0, side="right"))
    W = np.ones((mu.size, mu.size))
    W[:k, :k] = 0.0
    pos = mu[k:, None]
    W[k:, :k] = pos / (pos - mu[:k])
    W[:k, k:] = W[k:, :k].T
    return W


@np.errstate(invalid="ignore", over="ignore", divide="ignore")
def _newton_direction(H: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """-(H + tau I)^-1 grad for the smallest tau of the doubling sequence
    that makes H + tau I positive definite: Cholesky with added multiple
    of the identity (Nocedal & Wright, Numerical Optimization, Alg. 3.3,
    beta = 1e-3).  Zero, which the caller rejects as no descent
    direction, when 200 doublings do not suffice; a non-finite H gives a
    non-finite or zero direction, which the caller rejects too.

    The factor and the two solves come from the LAPACK gufuncs that
    np.linalg.cholesky and np.linalg.solve dispatch to, called on the
    same arrays (the identity built once, at the first shift), so every
    tau, every factorization attempt and every byte of the direction are
    those of the numpy.linalg route.  The gufunc reports a failed
    factorization by an all-NaN factor, where a factor it returns has
    zeros above the diagonal, so the top right entry tells them apart
    without a LinAlgError (for n = 1 a NaN H also counts as failed).
    The errstate is the one numpy.linalg sets, less the LinAlgError it
    raises on the invalid flag; a triangular solve that numpy.linalg
    would refuse as singular gives a NaN direction instead.
    """
    beta = 1e-3
    diag = float(H.diagonal().min())
    tau = 0.0 if diag > 0.0 else beta - diag
    eye = np.eye(len(H)) if tau > 0.0 else None
    for _ in range(200):
        L = _cholesky_lo(H + tau * eye if tau > 0.0 else H)
        if L[0, -1] == L[0, -1]:        # not NaN: the factorization held
            return -_solve1(L.T, _solve1(L, grad))
        if eye is None:
            eye = np.eye(len(H))
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
    the accepted point with its value, gradient, multiplier, Evaluation
    and noise floor, or None after 60 trials.
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
                return cand, fc, gc, Yc, ev, noise_c
        if armijo:
            curv = fc - val - gd * t
            t = max(0.1 * t, min(0.5 * t, -gd * (t * t) / (2.0 * curv)))
        else:
            t *= 0.5
    return None


@np.errstate(over="ignore", invalid="ignore")
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
              _gradient_floor(rho, ev.spectrum(), dg_norm))
    gamma = 1.0 / (1.0 + rho * dg_norm * dg_norm)
    for it in range(cfg.inner_max_iters):
        gnorm = _norm(grad)
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
        x, val, grad, Y, ev, noise = step
    gnorm = _norm(grad)
    return InnerResult(x, gnorm, gnorm <= tol, cfg.inner_max_iters, Y, ev)


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
        iterates.append(PenaltyIterate(
            k=k, rho=rho, x=x.copy(), multiplier=Y,
            eigenvalues=ev.spectrum().values.copy(),
            eigenvectors=ev.spectrum().vectors.copy(),
            stationarity_residual=res.grad_norm,
            multiplier_norm=float(np.sqrt(frobenius(Y.a, Y.a))),
            inner_converged=res.converged and not stalled,
            inner_iterations=res.iterations))
        if not res.converged:
            if inner_stop(res.converged, res.iterations, cfg) == "budget":
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
        floor = (last.rho * float(np.finfo(float).eps)
                 * _lam_abs(last.eigenvalues) * np.sqrt(P.m))
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

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
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
    """Project columns onto span(K) and re-orthonormalize; None on defect."""
    out = orthonormalize(K @ (K.T @ E))
    return out if out.shape[1] == E.shape[1] else None


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
