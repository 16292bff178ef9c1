"""Constraint-qualification checks at a feasible point.

Notation, used across this module and the sparse/penalty ones: at a
feasible point x of G(x) PSD, let E be an orthonormal basis of
Ker G(x) with m - r columns (r the rank).  For kernel columns e_i, e_j
the vector

    v_ij = ( e_i^T D_1 G(x) e_j, ..., e_i^T D_n G(x) e_j )  in R^n

is the gradient of entry (i, j) of the kernel-compressed map
E^T G(.) E at x.  The checks below are statements about linear or
positive-linear independence of such families:

* nondegeneracy: {v_ij : i <= j} independent for one (any) basis,
* Robinson: {v_ii} positively independent for every basis, equivalently
  there is a direction d with G(x) + DG(x)[d] positive definite,
* with equality constraints, gradients of the h_i join every family
  (free-signed in the positive-independence tests).

Every checker reads the :class:`PointData` that :func:`feasibility_data`
builds once per point: G(x), its spectrum, the kernel threshold, E (a
read-only m x k array), the partials and their compression onto E.
Every congruence L^T S L in the package goes through :func:`compress`:
of the partials, G's coefficient stack or G(x) onto E, a rotation of
it, the range basis or a diagonalizer, and the lift E S E^T of a k x k
multiplier, with L = E^T.
Verdicts distinguish certified outcomes from sampled evidence, and a
Fails always carries a witness that reproduces the violation when
plugged back into the defining condition.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InfeasiblePointError
from .lp import phase_one
from .model import Evaluation, NsdpProblem, structurally_diagonal
from .symmat import (TAU_RANK, Spectral, SymMat, eigh, ranked_svd,
                     spectral_kernel)
DUAL_CERT_TOL = 1e-12    # relative size of a certifying bound of the saddle solve
SADDLE_ITERS = 1000      # iteration budget of the saddle-point solve
POLISH_STEPS = 60        # Gauss-Newton steps per polish rank
POLISH_STALL = 0.9       # a polish step must cut the residual by this factor


class CqStatus(str, Enum):
    HOLDS_CERTIFIED = "HoldsCertified"
    HOLDS_SAMPLED = "HoldsSampled"
    FAILS = "Fails"
    UNDETERMINED = "Undetermined"


@dataclass
class CqVerdict:
    status: CqStatus
    samples: Optional[int] = None     # for HoldsSampled: how much evidence
    reason: Optional[str] = None
    witness: Optional[dict] = None
    log: List[str] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.status in (CqStatus.HOLDS_CERTIFIED, CqStatus.HOLDS_SAMPLED)

    def to_json(self) -> dict:
        out = {"status": self.status.value}
        if self.samples is not None:
            out["samples"] = self.samples
        if self.reason:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = _jsonify(self.witness)
        if self.log:
            out["log"] = list(self.log)
        return out


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, SymMat):
        return _jsonify(obj.a.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


# ---------------------------------------------------------------------------
# feasibility and kernel data


@dataclass(frozen=True)
class PointData:
    """Everything the checkers read at one feasible point x of P.

    G = G(x) with its one eigendecomposition ``spec``, the kernel
    threshold tau = tol_rank * max(1, |lambda_1|), the kernel basis E of
    G(x), the eigenvectors in ``spec`` whose eigenvalues lie within tau
    of zero (an m x k array with orthonormal columns, so rank = m - k),
    the constraint partials W[l] = D_l G(x) (shape (n, m, m)), their
    compression Wc = compress(W, E) (shape (n, k, k), so Wc[:, i, j] is
    the gradient v_ij) and the equality gradients Heq, one row per
    equality.  ev is the model evaluation at x that G, spec, W and Heq
    come from, for whatever else a caller reads at x.  Built by
    :func:`feasibility_data`; every array is read-only.
    """

    P: NsdpProblem
    x: np.ndarray
    tol_rank: float
    tau: float
    ev: Evaluation
    G: SymMat
    spec: Spectral
    E: np.ndarray
    W: np.ndarray
    Wc: np.ndarray
    Heq: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spec.values

    @property
    def rank(self) -> int:
        return self.P.m - self.E.shape[1]


def feasibility_data(P: NsdpProblem, x, tol_rank: float = TAU_RANK) -> PointData:
    """Point data of P at x, behind a feasibility gate.

    One threshold tau = tol_rank * max(1, |lambda_1|), lambda_1 the
    largest eigenvalue of G(x), decides both feasibility and the kernel:
    x is refused with :class:`InfeasiblePointError` when G(x) has an
    eigenvalue below -tau or some |h_i(x)| exceeds tau, and otherwise
    the kernel basis E is the eigenvectors of G(x) whose eigenvalues lie
    within tau of zero.  ValueError is raised unless x is a vector of
    length P.n and 0 < tol_rank < 1: a threshold outside that range
    misreads the rank of G(x) or the feasibility of x.
    """
    if not 0.0 < tol_rank < 1.0:
        raise ValueError(f"tol_rank must lie strictly between 0 and 1, "
                         f"got {tol_rank}")
    x = np.array(x, dtype=float)
    if x.shape != (P.n,):
        raise ValueError(f"point must have length {P.n}, one entry per "
                         f"variable, got shape {x.shape}")
    ev = P.at(x)
    G = ev.constraint_value()
    spec = ev.spectrum()
    tau = tol_rank * max(1.0, abs(float(spec.values[0])))
    lam_min = float(spec.values[-1])
    if lam_min < -tau:
        raise InfeasiblePointError(
            f"point infeasible: min eigenvalue of G(x) is {lam_min:.6e} "
            f"(tolerance {-tau:.1e})",
            eigenvalues=spec.values.tolist(),
        )
    h_max = float(np.max(np.abs(ev.equality_values()), initial=0.0))
    if h_max > tau:
        raise InfeasiblePointError(
            f"point infeasible: max |h_i(x)| is {h_max:.6e} "
            f"(tolerance {tau:.1e})")
    E = spectral_kernel(spec, tau)
    W = ev.constraint_partials()
    Wc = compress(W, E)
    Heq = ev.equality_gradients()
    for arr in (x, Wc):
        arr.setflags(write=False)
    return PointData(P=P, x=x, tol_rank=tol_rank, tau=tau, ev=ev, G=G,
                     spec=spec, E=E, W=W, Wc=Wc, Heq=Heq)


def compress(S: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The congruence cols^T S cols of a matrix S (m, m), or of each
    matrix of a stack S (T, m, m), cols of shape (m, k): for the
    partials W, entry (l, i, j) is component l of the gradient v_ij for
    the basis cols.  Two matrix products, which BLAS takes in
    O(T m k (m + k)) work."""
    return cols.T @ S @ cols


# ---------------------------------------------------------------------------
# independence tests


@dataclass(frozen=True)
class LiResult:
    independent: bool
    rank: int
    sigma_min: float                 # smallest singular value of the family
    coeffs: Optional[np.ndarray]     # unit null combination when dependent


def li_test(vectors: Sequence[np.ndarray]) -> LiResult:
    """Linear independence of k vectors in R^n by the singular values of
    the family, ranked by :func:`symmat.ranked_svd`.

    A family of more than n vectors is dependent by count: only its first
    n + 1 are factored, sigma_min is 0, and the null combination of those
    n + 1, padded with zeros, is the witness.  Otherwise the rank counts
    singular values above LI_TOL * max(1, sigma_1), and a dependent
    family returns the unit left singular vector of its smallest singular
    value, which reproduces ||sum c_i v_i|| = sigma_min when checked.
    The coefficients are signed as eigh signs an eigenvector, their
    largest-magnitude entry positive.
    """
    V = np.array(vectors, dtype=float)
    k = V.shape[0]
    if k == 0:
        return LiResult(True, 0, 0.0, None)
    n = V.shape[1]
    u, sv, rank = ranked_svd(V[:n + 1], full=True)
    sigma_min = float(sv[-1]) if k <= n else 0.0
    if rank == k:
        return LiResult(True, rank, sigma_min, None)
    c = u[:, -1] * np.sign(u[np.abs(u[:, -1]).argmax(), -1])
    return LiResult(False, rank, sigma_min, np.pad(c, (0, k - len(c))))


@dataclass(frozen=True)
class PliResult:
    pos_independent: bool
    margin: float                    # phase-one optimum, > 0 when independent
    alpha: Optional[np.ndarray]      # cone coefficients when dependent
    free_coeffs: Optional[np.ndarray]


def pli_test(vectors: Sequence[np.ndarray],
             free_vectors: Sequence[np.ndarray] = ()) -> PliResult:
    """Positive linear independence via a phase-one simplex.

    The family {v_1..v_k} (plus free-signed vectors w_1..w_f, used for
    equality-constraint gradients) is positively dependent iff

        sum alpha_i v_i + sum beta_j w_j = 0,  alpha >= 0,  sum alpha = 1

    is feasible; the beta are split into positive parts.  The phase-one
    optimum doubles as an infeasibility margin for search heuristics.
    """
    V = np.array([np.asarray(v, dtype=float) for v in vectors])
    k, n = V.shape
    # positive dependence is invariant under positive rescaling of each
    # vector, so normalize for simplex conditioning (zero vectors stay zero
    # and remain detectable), which leaves every entry of the simplex's
    # equality rows within rounding of [-1, 1], so no row needs scaling;
    # coefficients are mapped back before returning
    vscale = np.ones(k)
    for i in range(k):
        s = float(np.linalg.norm(V[i]))
        if s > 1e-12:
            V[i] = V[i] / s
            vscale[i] = s
    F = np.array([np.asarray(w, dtype=float) for w in free_vectors]) \
        if len(free_vectors) else np.zeros((0, n))
    f = F.shape[0]
    fscale = np.ones(f)
    for i in range(f):
        s = float(np.linalg.norm(F[i]))
        if s > 1e-12:
            F[i] = F[i] / s
            fscale[i] = s
    # columns: alpha (k), beta+ (f), beta- (f)
    A_eq = np.zeros((n + 1, k + 2 * f))
    A_eq[:n, :k] = V.T
    if f:
        A_eq[:n, k:k + f] = F.T
        A_eq[:n, k + f:] = -F.T
    A_eq[n, :k] = 1.0
    b = np.zeros(n + 1)
    b[n] = 1.0
    res = phase_one(A_eq, b)
    if res.feasible:
        alpha = np.clip(res.z[:k], 0.0, None) / vscale
        total = float(np.sum(alpha))
        if total > 0.0:
            alpha = alpha / total
        beta = (res.z[k:k + f] - res.z[k + f:]) / fscale if f else np.zeros(0)
        if total > 0.0:
            beta = beta / total
        return PliResult(False, res.optimum, alpha, beta)
    return PliResult(True, res.optimum, None, None)


# ---------------------------------------------------------------------------
# routes every condition shares


# the six conditions, in the order an analysis decides them: each weak
# probe after the condition that can imply it
CONDITIONS = ("nondegeneracy", "robinson", "sparse_ndg", "forsgren",
              "weak_ndg_probe", "weak_robinson_probe")


def exact_verdict(pd: PointData, condition: str) -> Optional[CqVerdict]:
    """The routes that decide a condition without any search.

    In this order, with k the kernel dimension and ne the number of
    equality constraints:

    1. dependent equality gradients: every condition fails; the witness
       is a unit null combination ``equality_coeffs`` of them and their
       ``sigma_min``;
    2. trivial kernel: with the equality gradients independent, every
       condition holds;
    3. dimension bound: nondegeneracy needs k(k+1)/2 + ne independent
       vectors in R^n, sparse and weak nondegeneracy need k + ne (the
       diagonal gradients plus the equality gradients), and a larger
       family fails; the witness is the family with a unit null
       combination ``coeffs``;
    4. structurally diagonal constraint: sparse nondegeneracy reduces to
       LICQ, linear independence of the active diagonal gradients
       together with the equality gradients, and Robinson and weak
       Robinson reduce to MFCQ, their positive independence with the
       equality gradients free.  Weak nondegeneracy reduces to LICQ as
       well but is still left to its sequence probe here (ROADMAP
       item 4).

    ``condition`` is one of CONDITIONS.  Returns None when no route
    decides it; the checker then runs its own routes.
    """
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}")
    E, Heq, n = pd.E, pd.Heq, pd.P.n
    k = E.shape[1]
    log = [f"rank {pd.rank}, kernel dimension {k}"]
    eq = li_test(Heq) if Heq.shape[0] else None
    if eq is not None and not eq.independent:
        return CqVerdict(CqStatus.FAILS,
                         reason="equality-constraint gradients dependent",
                         witness={"equality_coeffs": eq.coeffs,
                                  "sigma_min": eq.sigma_min}, log=log)
    if k == 0:
        return CqVerdict(CqStatus.HOLDS_CERTIFIED,
                         reason="trivial kernel, interior point",
                         witness=None if eq is None
                         else {"sigma_min": eq.sigma_min}, log=log)

    full = condition == "nondegeneracy"
    independence = full or condition in ("sparse_ndg", "weak_ndg_probe")
    size = (k * (k + 1) // 2 if full else k) + Heq.shape[0]
    if independence and size > n:
        pairs, vectors = _gradient_family(pd, full)
        log.append(f"dimension bound: family size {size} exceeds n = {n}")
        return CqVerdict(
            CqStatus.FAILS,
            reason=f"dimension bound: a family of {size} gradients cannot "
                   f"be independent in R^{n}",
            witness=_family_witness(E, pairs, vectors,
                                    li_test(vectors).coeffs), log=log)

    if condition in ("nondegeneracy", "forsgren", "weak_ndg_probe") \
            or not structurally_diagonal(pd.P):
        return None
    if condition == "sparse_ndg":
        pairs, vectors = _gradient_family(pd, full=False)
        li = li_test(vectors)
        if li.independent:
            log.append("structurally diagonal, LICQ holds")
            return CqVerdict(
                CqStatus.HOLDS_CERTIFIED,
                reason="diagonal constraint, LICQ holds",
                witness={"basis": E, "provenance": "diagonal",
                         "pattern": pairs, "cardinality": k,
                         "sigma_min": li.sigma_min}, log=log)
        return CqVerdict(CqStatus.FAILS,
                         reason="diagonal constraint, LICQ fails",
                         witness=_family_witness(E, pairs, vectors, li.coeffs),
                         log=log)
    pli = pli_test(np.diagonal(pd.Wc, axis1=1, axis2=2).T,
                   free_vectors=list(Heq))
    if pli.pos_independent:
        log.append("structurally diagonal, MFCQ holds")
        return CqVerdict(CqStatus.HOLDS_CERTIFIED,
                         reason="diagonal constraint, MFCQ holds",
                         witness={"margin": pli.margin}, log=log)
    return CqVerdict(CqStatus.FAILS, reason="diagonal constraint, MFCQ fails",
                     witness={"basis": E, "alpha": pli.alpha,
                              "free_coeffs": pli.free_coeffs}, log=log)


# how a verdict's reason names each condition
_NAMES = {"nondegeneracy": "nondegeneracy",
          "robinson": "Robinson's condition",
          "sparse_ndg": "sparse nondegeneracy",
          "forsgren": "Forsgren's condition",
          "weak_ndg_probe": "weak nondegeneracy",
          "weak_robinson_probe": "the weak Robinson condition"}


def refuted_verdict(condition: str, down: str, v: CqVerdict) -> CqVerdict:
    """Fails for ``condition`` from the Fails verdict ``v`` of ``down``, a
    condition that ``condition`` implies; it carries v's witness, which
    replays against the definition of ``down``."""
    return CqVerdict(
        CqStatus.FAILS,
        reason=f"{_NAMES[down]} fails, which {_NAMES[condition]} would imply",
        witness=v.witness, log=[f"refuted by {down}: {v.reason}"])


def _gradient_family(pd: PointData, full: bool):
    """Kernel pairs (i, j) with their gradients v_ij, over the upper
    triangle when full, else the diagonal, then the equality gradients."""
    k = pd.E.shape[1]
    iu, ju = np.triu_indices(k) if full else (np.arange(k), np.arange(k))
    pairs = list(zip(iu.tolist(), ju.tolist()))
    return pairs, list(pd.Wc[:, iu, ju].T) + list(pd.Heq)


def _family_witness(E: np.ndarray, pairs, vectors, coeffs) -> dict:
    return {
        "basis": E,
        "provenance": "fixed",
        "pairs": list(pairs),
        "vectors": np.array(vectors) if len(vectors) else np.zeros((0,)),
        "coeffs": np.asarray(coeffs, dtype=float),
    }


# ---------------------------------------------------------------------------
# nondegeneracy


def check_nondegeneracy(pd: PointData) -> CqVerdict:
    """Linear independence of the full family {v_ij, i <= j} for one basis.

    One deterministic basis suffices: independence of the family for some
    orthonormal kernel basis is invariant under the orthogonal change
    v'_ij = sum C_ki C_lj v_kl, so the verdict is certified either way.
    Equality-constraint gradients are appended to the family.  The
    shared routes of :func:`exact_verdict` are tried first.
    """
    exact = exact_verdict(pd, "nondegeneracy")
    if exact is not None:
        return exact
    E = pd.E
    log = [f"rank {pd.rank}, kernel dimension {E.shape[1]}"]
    pairs, vectors = _gradient_family(pd, full=True)
    li = li_test(vectors)
    if li.independent:
        log.append(f"family of {len(vectors)} independent, "
                   f"sigma_min {li.sigma_min:.3e}")
        return CqVerdict(CqStatus.HOLDS_CERTIFIED,
                         reason="gradient family independent for a fixed basis",
                         witness={"sigma_min": li.sigma_min}, log=log)
    return CqVerdict(
        CqStatus.FAILS,
        reason="gradient family dependent",
        witness=_family_witness(E, pairs, vectors, li.coeffs),
        log=log,
    )


# ---------------------------------------------------------------------------
# Robinson's CQ


def _null_projector(Heq: np.ndarray, n: int) -> np.ndarray:
    """Orthogonal projector onto the complement of the equality-gradient
    span, that span as :func:`symmat.ranked_svd` ranks it."""
    u, _, rank = ranked_svd(Heq.T)
    return np.eye(n) - u[:, :rank] @ u[:, :rank].T


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    rho = int(np.max(np.nonzero(cond)[0])) + 1 if np.any(cond) else 1
    theta = css[rho - 1] / rho
    return np.clip(v - theta, 0.0, None)


@dataclass(frozen=True)
class SaddleResult:
    """Outcome of :func:`cone_saddle`.

    ``route`` names the certificate that ended the solve: "primal" when
    lambda_min(sum_l d_l Wc[l]) = ``primal`` exceeds the certificate
    tolerance for the unit direction ``d``, "dual" when the unit-trace
    PSD matrix ``S`` has ||A vec S|| = ``dual`` within it, and None when
    the budget ran out or the bounds met within it of zero.
    ``primal`` and ``dual`` are the best bounds seen, so
    primal <= optimal value <= dual.  ``rank`` is the rank of the
    polished face a dual certificate came from (None when a gradient
    iterate certified by itself).
    """

    route: Optional[str]
    d: np.ndarray
    primal: float
    S: np.ndarray
    dual: float
    rank: Optional[int]
    iterations: int

    def describe(self) -> str:
        if self.route == "primal":
            how = "decided by the primal readout"
        elif self.route == "dual" and self.rank is not None:
            how = f"decided by the dual polished at rank {self.rank}"
        elif self.route == "dual":
            how = "decided by a dual iterate"
        else:
            how = "no certificate"
        return (f"{how} at iteration {self.iterations}, primal bound "
                f"{self.primal:.6e}, dual bound {self.dual:.6e}")


def cone_saddle(Wc: np.ndarray, Qn: np.ndarray) -> SaddleResult:
    """Solve max_{|d| <= 1, d in range Qn} lambda_min(sum_l d_l Wc[l]).

    With A = Qn Wc flattened to n x k^2, Sion's minimax theorem gives the
    dual min ||A vec S|| over the spectraplex {S psd, tr S = 1}.
    Iteration 0 reads the dual at S = I / k, then the primal at the
    unit direction d = Qn d0 / |Qn d0|, d0 the least-squares solution of
    A^T d0 = vec I: where the map d -> sum_l d_l Wc[l] is onto Sym(k),
    that combination is a positive multiple of I and certifies at once.
    It cannot contradict a dual certificate, since for a unit d and a
    unit-trace S >= 0, lambda_min(sum_l d_l Wc[l]) <= <sum_l d_l Wc[l], S>
    <= ||A vec S||; a start that does not certify is dropped, so the
    bounds the iterations record are the same as without it.  Each
    later iteration takes one accelerated projected-gradient step on
    1/2 ||A vec S||^2 and reads a primal direction d = A vec S / ||A vec S||
    off the iterate, so both bounds tighten together.  The best iterate
    is polished on a low-rank face at every iteration that is a power of
    two: the early polishes catch a dual certificate that the first
    gradient steps already point at, the later, sparser ones a face the
    iterates approach slowly.  The solve stops at the first
    certificate, both measured against the one tolerance
    tol = DUAL_CERT_TOL * (1 + max|A|): primal value above tol, or dual
    residual at most tol.  Both sides scale with A, so the verdict does
    not change when G is multiplied by a positive constant.
    """
    n, k = Wc.shape[0], Wc.shape[1]
    A = np.tensordot(Qn, Wc, axes=1).reshape(n, k * k)
    tol = DUAL_CERT_TOL * (1.0 + float(np.max(np.abs(A), initial=0.0)))
    S = np.eye(k) / k
    best = {"d": np.zeros(n), "primal": -np.inf, "S": S,
            "dual": float(np.linalg.norm(A @ S.ravel()))}

    def done(route, iterations, rank=None):
        return SaddleResult(route=route, rank=rank, iterations=iterations,
                            **best)

    if best["dual"] <= tol:
        return done("dual", 0)
    # iteration 0: the direction whose combination comes closest to I
    d = Qn @ np.linalg.lstsq(A.T, np.eye(k).ravel(), rcond=None)[0]
    size = float(np.linalg.norm(d))
    if size > 0.0:
        d = d / size
        lam = float(eigh(SymMat.from_symmetric(
            np.tensordot(d, Wc, axes=1))).values[-1])
        if lam > tol:
            best.update(d=d, primal=lam)
            return done("primal", 0)
    lip = float(np.linalg.norm(A, 2)) ** 2
    Y, t = S, 1.0
    for it in range(1, SADDLE_ITERS + 1):
        step = Y - (A.T @ (A @ Y.ravel())).reshape(k, k) / lip
        spec = eigh(SymMat.from_symmetric(step))
        S_new = (spec.vectors * _project_simplex(spec.values)) @ spec.vectors.T
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        Y = S_new + ((t - 1.0) / t_new) * (S_new - S)
        S, t = S_new, t_new
        g = A @ S.ravel()
        val = float(np.linalg.norm(g))
        if val < best["dual"]:
            best.update(S=S, dual=val)
            if val <= tol:
                return done("dual", it)
        d = g / val
        lam = float(eigh(SymMat.from_symmetric(
            np.tensordot(d, Wc, axes=1))).values[-1])
        if lam > best["primal"]:
            best.update(d=d, primal=lam)
            if lam > tol:
                return done("primal", it)
        if best["dual"] - best["primal"] <= tol:
            break   # the bounds have met on a value too close to zero to certify
        if it & (it - 1) == 0:
            polished = _polish_face(A, best["S"], tol)
            if polished is not None:
                best.update(S=polished[0], dual=polished[1])
                return done("dual", it, rank=polished[2])
    return done(None, it)


def _polish_face(A: np.ndarray, S: np.ndarray, tol: float
                 ) -> Optional[Tuple[np.ndarray, float, int]]:
    """Look for a dual certificate S = R R^T / |R|^2 near S, rank by rank.

    Gauss-Newton on the residual (A vec(R R^T), |R|^2 - 1), started from
    the top r eigenpairs of S, with steps halved until the residual
    falls.  Near a regular zero-residual solution this converges
    quadratically, and linearly near a singular one, where the gradient
    iterates only creep towards the face.  A rank is abandoned once a
    step cuts the residual by less than POLISH_STALL.  Returns
    (S, residual, rank) for the first rank whose residual reaches tol.
    """
    n = A.shape[0]
    k = S.shape[0]
    Wq = A.reshape(n, k, k)

    def normalized(R):
        R = R / np.linalg.norm(R)
        return R, float(np.linalg.norm(A @ (R @ R.T).ravel()))

    spec = eigh(SymMat.from_symmetric(S))
    top = float(spec.values[0])
    for r in range(1, k + 1):
        R, val = normalized(spec.vectors[:, :r] * np.sqrt(
            np.maximum(spec.values[:r], 1e-3 * top)))
        for _ in range(POLISH_STEPS):
            if val <= tol:
                return R @ R.T, val, r
            F = np.append(A @ (R @ R.T).ravel(), 0.0)
            J = 2.0 * np.vstack([
                (Wq @ R).reshape(n, k * r),
                R.reshape(1, k * r)])
            step = np.linalg.lstsq(J, F, rcond=None)[0].reshape(k, r)
            t = 1.0
            while t >= 1e-4:
                R_new, val_new = normalized(R - t * step)
                if val_new < val:
                    break
                t *= 0.5
            if val_new > POLISH_STALL * val:
                break
            R, val = R_new, val_new
        if val <= tol:
            return R @ R.T, val, r
    return None


def _realize_primal(W: np.ndarray, d: np.ndarray, Gval: np.ndarray
                    ) -> Optional[Tuple[np.ndarray, float]]:
    """Scale d until G(x) + DG(x)[d] is positive definite, if possible."""
    DGd = np.tensordot(d, W, axes=1)
    scale = 1.0 + float(np.max(np.abs(Gval)))
    t = 1.0
    for _ in range(30):
        spec = eigh(SymMat.from_symmetric(Gval + t * DGd))
        lam_min = float(spec.values[-1])
        if lam_min > 1e-12 * scale:
            return t * d, lam_min
        t *= 0.5
    return None


def check_robinson(pd: PointData) -> CqVerdict:
    """Robinson's CQ, decided by one convex saddle-point solve.

    Robinson's condition asks for a direction d, orthogonal to the
    equality gradients, with lambda_min(E^T DG(x)[d] E) > 0.  By Sion's
    minimax theorem

        max_{|d| <= 1, d in range Qn} lambda_min(sum_l d_l Wc_l)
            = min_{S psd, tr S = 1} ||Qn DG(x)*[E S E^T]||,

    with Wc_l = E^T D_l G(x) E and Qn the projector onto the complement
    of the equality-gradient span.  :func:`cone_saddle` works both sides
    at once and stops at the first of two certificates, each measured
    against DUAL_CERT_TOL * (1 + max|Qn Wc|):

    * primal: a readout direction with compressed margin above that
      tolerance, scaled until G(x) + DG(x)[t d] is positive definite,
      certifies Holds (witness: the direction and its lambda_min);
    * dual: a unit-trace S >= 0 annihilating the projected adjoint up to
      that tolerance certifies Fails (witness: the kernel basis rotated
      to the eigenvectors of S, their weights ``alpha``, the multiplier
      Y = E S E^T and its residual, plus the equality coefficients that
      absorb DG(x)*[Y] when there are equality constraints).

    Without either certificate (the budget ran out, or the bounds met
    too close to zero) the verdict is Undetermined and the log carries
    both bounds.  The shared routes of :func:`exact_verdict` (dependent
    equality gradients, trivial kernel, diagonal constraint) come first.
    At k = 1 the spectraplex is the point S = [1], so the solve ends at
    iteration 0, by the dual or by the least-squares primal start.
    """
    exact = exact_verdict(pd, "robinson")
    if exact is not None:
        return exact
    P, E, Heq = pd.P, pd.E, pd.Heq
    log = [f"rank {pd.rank}, kernel dimension {E.shape[1]}"]
    res = cone_saddle(pd.Wc, _null_projector(Heq, P.n))
    log.append(f"saddle solve: {res.describe()}")
    if res.route == "primal":
        realized = _realize_primal(pd.W, res.d, pd.G.a)
        if realized is not None:
            d_full, lam = realized
            log.append(f"interior direction realized, lambda_min {lam:.3e}")
            return CqVerdict(CqStatus.HOLDS_CERTIFIED,
                             reason="interior direction found",
                             witness={"direction": d_full,
                                      "lambda_min": lam,
                                      "compressed_margin": res.primal},
                             log=log)
        log.append("compressed margin positive but realization scan failed")
    elif res.route == "dual":
        spec = eigh(SymMat.from_symmetric(res.S))
        alpha = np.clip(spec.values, 0.0, None)
        alpha = alpha / float(np.sum(alpha))
        Y = compress(res.S, E.T)
        witness = {"basis": E @ spec.vectors,
                   "alpha": alpha, "multiplier": Y, "residual": res.dual}
        if Heq.shape[0]:
            witness["free_coeffs"] = -np.linalg.lstsq(
                Heq.T, pd.ev.adjoint(Y), rcond=None)[0]
        return CqVerdict(
            CqStatus.FAILS,
            reason="nonzero complementary PSD multiplier annihilates the adjoint",
            witness=witness, log=log)
    return CqVerdict(
        CqStatus.UNDETERMINED,
        reason=f"no certificate: the best compressed margin lies between "
               f"the primal bound {res.primal:.2e} and the dual bound "
               f"{res.dual:.2e}",
        log=log)
