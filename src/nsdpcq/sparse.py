"""Sparsity-aware constraint qualifications.

Two reductions of the constraint map G around a feasible point drive
everything here:

* the compression Ghat(x) = E^T G(x) E onto a kernel basis E, whose
  entries are exact polynomials, and
* the Schur-complement map Gtil(x) = G(x) - G(x) P (P^T G(x) P)^{-1}
  P^T G(x) over the range basis P, which is rational and therefore only
  evaluated numerically with a sampled sparsity pattern.

A sparsity pattern of such a map is the set of entries that are not
identically zero near the point; it defines the subspace of symmetric
matrices supported on the pattern.  The checks:

* sparse nondegeneracy: a kernel basis whose pattern-restricted
  gradient family is independent while every diagonal entry of the
  compressed map stays structurally nonzero; one deterministic search
  tries the fixed kernel basis, then the basis that jointly
  diagonalizes the compressed coefficient stack by Jacobi sweeps,
* Forsgren's condition (per diagonalizing matrix U): injectivity of the
  gradient pairing on the pattern subspace of Gtil compressed to the
  kernel, plus existence of a positive definite element there,
* facial reduction: when some compressed diagonal entry is identically
  zero, the constraint is locally an equality plus a smaller semidefinite
  block, and the rewrite is performed explicitly.

A Fails verdict is only produced with a certificate; failed searches
return Undetermined.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .cqcheck import (
    CqStatus,
    CqVerdict,
    PointData,
    check_robinson,
    cone_saddle,
    feasibility_data,
    li_test,
)
from .errors import NumericalFailure
from .model import (
    MatrixPoly,
    NsdpProblem,
    Poly,
    block_partition,
    component_subproblem,
    structural_zero,
    structurally_diagonal,
)
from .symmat import (
    TAU_RANK,
    KernelBasis,
    SymMat,
    eigh,
    orthonormal_completion,
    random_rotation,
)

PATTERN_COEF_TOL = 1e-12     # coefficient threshold for congruence patterns
TILDE_SAMPLES = 32
TILDE_RADIUS = 1e-3
TILDE_TOL = 1e-9
TILDE_SEED = 20              # generator seed of the Schur-map pattern samples
JACOBI_SWEEPS = 50           # cap on the joint diagonalization's sweeps
JACOBI_ANGLE_TOL = 1e-13     # a sweep turning no pair by more has converged


# ---------------------------------------------------------------------------
# sparsity patterns and reduced maps


@dataclass(frozen=True)
class SparsityPattern:
    """Index set of structurally nonzero entries of a symmetric map.

    source is "exact" when membership was decided on polynomial
    coefficients, or "sampled" for numeric maps probed at random points.
    """

    dim: int
    index_set: frozenset
    source: str
    sample_points: Optional[int] = None
    sample_tol: Optional[float] = None

    def __post_init__(self):
        for (i, j) in self.index_set:
            if not (0 <= i <= j < self.dim):
                raise ValueError(f"pattern index ({i}, {j}) out of range")

    def has(self, i: int, j: int) -> bool:
        if i > j:
            i, j = j, i
        return (i, j) in self.index_set

    def missing_diagonal(self) -> List[int]:
        return [i for i in range(self.dim) if (i, i) not in self.index_set]

    def diagonal_complete(self) -> bool:
        return not self.missing_diagonal()

    def sorted_pairs(self) -> List[Tuple[int, int]]:
        return sorted(self.index_set)

    def cardinality(self) -> int:
        return len(self.index_set)

    def provenance(self) -> dict:
        """How membership was decided, for the witnesses resting on it."""
        if self.source != "sampled":
            return {"pattern_source": self.source}
        return {"pattern_source": self.source,
                "sample_points": self.sample_points,
                "sample_tol": self.sample_tol}


@dataclass
class ReducedMap:
    """A reduced constraint map with its sparsity pattern.

    kind "hat" holds the kernel compression (dim m - r, entries exact
    polynomials); kind "tilde" holds the Schur-complement map (dim m,
    numeric evaluator, entries only present in the r = 0 degenerate case
    where the map coincides with G itself).
    """

    kind: str
    dim: int
    n: int                                   # number of variables
    pattern: SparsityPattern
    entries: Optional[Dict[Tuple[int, int], Poly]]
    basis: Optional[KernelBasis] = None      # hat: the E used
    transform: Optional[np.ndarray] = None   # tilde: U = [P, E]
    _evaluator: Optional[Callable] = None

    def evaluate(self, x):
        """Value of the reduced map; SymMat, or a 0 x 0 array when empty."""
        x = np.asarray(x, dtype=float)
        if self.dim == 0:
            return np.zeros((0, 0))
        return self._evaluator(x)

    def entry(self, i: int, j: int) -> Poly:
        if self.entries is None:
            raise ValueError("entries are only available for exact maps")
        if i > j:
            i, j = j, i
        return self.entries.get((i, j), Poly.zero(self.n))


def _congruence_entries(G: MatrixPoly, B: np.ndarray,
                        tol: float = PATTERN_COEF_TOL) -> Dict[Tuple[int, int], Poly]:
    """Entries of B^T G(x) B as polynomials, coefficients <= tol dropped."""
    w = B.shape[1]
    out: Dict[Tuple[int, int], Poly] = {}
    for i in range(w):
        for j in range(i, w):
            acc = Poly.zero(G.n)
            for (a, b), p in G.entries.items():
                c = B[a, i] * B[b, j]
                if a != b:
                    c += B[b, i] * B[a, j]
                if c != 0.0:
                    acc = acc + p.scale(c)
            acc = acc.truncated(tol)
            if not structural_zero(acc):
                out[(i, j)] = acc
    return out


def hat_map(P: NsdpProblem, x, E: KernelBasis) -> ReducedMap:
    """Kernel compression E^T G(.) E with its exact polynomial pattern.

    The gradient of entry (i, j) at the anchor equals the family vector
    v_ij for the same basis, which is what ties the pattern to the
    independence tests downstream.
    """
    x = np.asarray(x, dtype=float)
    if E.dim != P.m:
        raise ValueError(f"basis has {E.dim} rows, constraint has {P.m}")
    Gx = P.constraint_value(x)
    resid = float(np.max(np.abs(Gx.a @ E.cols), initial=0.0))
    if resid > 1e-6 * (1.0 + Gx.norm_inf()):
        raise ValueError(
            f"basis does not span the kernel at this point (residual {resid:.3e})")
    k = E.nullity
    entries = _congruence_entries(P.constraint, E.cols)
    pattern = SparsityPattern(dim=k, index_set=frozenset(entries.keys()),
                              source="exact")
    if k == 0:
        return ReducedMap(kind="hat", dim=0, n=P.n, pattern=pattern,
                          entries={}, basis=E)
    mp = MatrixPoly(k, P.n, entries)

    def evaluator(xq):
        return SymMat.from_symmetric(mp.eval(xq))

    return ReducedMap(kind="hat", dim=k, n=P.n, pattern=pattern,
                      entries=entries, basis=E, _evaluator=evaluator)


def tilde_map(pd: PointData) -> ReducedMap:
    """Schur-complement reduction of G over the range of G(x).

    With r = rank G(x) = 0 the map degenerates to G itself and the exact
    polynomial pattern is returned.  Otherwise the map is rational; its
    pattern is decided by sampling on a small sphere around x, so entries
    flagged nonzero are certain while entries flagged zero are presumed
    structural.
    """
    P, x, r = pd.P, pd.x, pd.rank
    m = P.m
    if r == 0:
        entries = dict(P.constraint.entries)
        pattern = SparsityPattern(dim=m, index_set=frozenset(entries.keys()),
                                  source="exact")
        return ReducedMap(kind="tilde", dim=m, n=P.n, pattern=pattern,
                          entries=entries, transform=np.eye(m),
                          _evaluator=lambda xq: P.constraint_value(xq))

    Pbar = pd.spec.vectors[:, :r]
    U = np.column_stack([Pbar, pd.kernel.cols])

    def evaluate_raw(xq: np.ndarray) -> np.ndarray:
        Gq = P.constraint_value(xq).a
        B = Pbar.T @ Gq @ Pbar
        bspec = eigh(SymMat.from_symmetric(B))
        lam1 = abs(float(bspec.values[0]))
        if float(bspec.values[-1]) <= 1e-12 * max(1.0, lam1):
            raise NumericalFailure("range block singular at sample point")
        half = np.linalg.solve(B, Pbar.T @ Gq)
        return Gq - (Gq @ Pbar) @ half

    rng = np.random.default_rng(TILDE_SEED)
    hits: Set[Tuple[int, int]] = set()
    used = 0
    for _ in range(TILDE_SAMPLES):
        g = rng.standard_normal(P.n)
        nrm = float(np.linalg.norm(g))
        if nrm < 1e-12:
            continue
        xs = x + TILDE_RADIUS * g / nrm
        try:
            Gt = evaluate_raw(xs)
        except NumericalFailure:
            continue
        used += 1
        for i in range(m):
            for j in range(i, m):
                if abs(Gt[i, j]) > TILDE_TOL:
                    hits.add((i, j))
    if used == 0:
        raise NumericalFailure(
            "range block of the Schur map singular at every sample point")
    pattern = SparsityPattern(dim=m, index_set=frozenset(hits),
                              source="sampled", sample_points=used,
                              sample_tol=TILDE_TOL)
    return ReducedMap(kind="tilde", dim=m, n=P.n, pattern=pattern,
                      entries=None, transform=U,
                      _evaluator=lambda xq: SymMat.from_symmetric(evaluate_raw(xq)))


# ---------------------------------------------------------------------------
# sparse nondegeneracy: candidate scoring and basis search


class _SearchContext:
    """Scoring of candidate kernel bases at one point.

    The compressed monomial stack E^T A_t E carries the exact polynomial
    coefficients of every entry of the compressed map, so patterns are
    decided on coefficients, not on sampled values, during the search.
    """

    def __init__(self, pd: PointData):
        self.pd = pd
        self.A = pd.P._c().A                        # (T, m, m) monomial stack

    def compressed_stack(self, cols: np.ndarray) -> np.ndarray:
        if self.A.shape[0] == 0:
            return np.zeros((0, cols.shape[1], cols.shape[1]))
        return np.einsum("tab,ai,bj->tij", self.A, cols, cols)

    def pattern_pairs(self, Bs: np.ndarray) -> Set[Tuple[int, int]]:
        k = Bs.shape[1]
        pairs = set()
        if Bs.shape[0]:
            mx = np.max(np.abs(Bs), axis=0)
            for i in range(k):
                for j in range(i, k):
                    if mx[i, j] > PATTERN_COEF_TOL:
                        pairs.add((i, j))
        return pairs

    def family(self, cols: np.ndarray, pairs: Sequence[Tuple[int, int]]):
        comp = np.einsum("lab,ai,bj->lij", self.pd.W, cols, cols)
        return [comp[:, i, j] for (i, j) in sorted(pairs)] + list(self.pd.Heq)

    def score(self, cols: np.ndarray):
        """(diagonal hits, success flag, pattern, family li_test)."""
        k = cols.shape[1]
        pairs = self.pattern_pairs(self.compressed_stack(cols))
        hits = sum(1 for i in range(k) if (i, i) in pairs)
        li = li_test(self.family(cols, pairs))
        return hits, hits == k and li.independent, pairs, li


def _cs_angle(Bs: np.ndarray, p: int, q: int) -> float:
    """Closed-form Givens angle concentrating stack energy on the diagonal.

    Maximizes sum_t (B_pp - B_qq)^2 over the rotated pair, the classical
    joint-diagonalization update; for commuting stacks this zeroes the
    (p, q) coefficients to rounding level, which the pattern threshold
    then absorbs into an exact structural zero.
    """
    h1 = Bs[:, p, p] - Bs[:, q, q]
    h2 = 2.0 * Bs[:, p, q]
    gxx = float(np.dot(h1, h1))
    gxy = float(np.dot(h1, h2))
    gyy = float(np.dot(h2, h2))
    to = gxx - gyy
    x = to + np.hypot(to, 2.0 * gxy)
    y = 2.0 * gxy
    nrm = np.hypot(x, y)
    if nrm <= 1e-300:
        return 0.25 * np.pi if gyy > gxx else 0.0
    return 0.5 * np.arctan2(y / nrm, x / nrm)


def _joint_diagonalize(Bs: np.ndarray) -> Tuple[np.ndarray, int]:
    """Cyclic Jacobi sweeps jointly diagonalizing a symmetric stack.

    Every column pair is rotated by its closed-form angle (Cardoso &
    Souloumiac, SIAM J. Matrix Anal. Appl. 17(1), 1996).  Sweeps stop
    when none turns a pair by more than JACOBI_ANGLE_TOL, or after
    JACOBI_SWEEPS.  Returns the accumulated rotation C, so that C^T B_t C
    is the diagonalized stack, and the number of sweeps run; a commuting
    stack comes out diagonal to rounding level.
    """
    Bs = np.array(Bs, dtype=float)
    k = Bs.shape[1]
    C = np.eye(k)
    for sweeps in range(1, JACOBI_SWEEPS + 1):
        turned = 0.0
        for p in range(k):
            for q in range(p + 1, k):
                theta = _cs_angle(Bs, p, q)
                turned = max(turned, abs(theta))
                c, s = np.cos(theta), np.sin(theta)
                R = np.array([[c, -s], [s, c]])
                pq = [p, q]
                C[:, pq] = C[:, pq] @ R
                Bs[:, :, pq] = Bs[:, :, pq] @ R
                Bs[:, pq, :] = R.T @ Bs[:, pq, :]
        if turned <= JACOBI_ANGLE_TOL:
            break
    return C, sweeps


def _basis_search(ctx: _SearchContext, E0: KernelBasis, log: List[str]):
    """Score the fixed kernel basis, else its joint diagonalization.

    The fixed basis is kept when it succeeds.  Otherwise the compressed
    stack E0^T A_t E0 is jointly diagonalized and that one basis is
    scored.  Returns (basis, provenance, hits, success, pairs, li) of
    the basis scored last.
    """
    k = E0.nullity
    hits, success, pairs, li = ctx.score(E0.cols)
    log.append(f"fixed basis: hits {hits}/{k}, sigma_min {li.sigma_min:.3e}")
    if success:
        return E0.cols, E0.provenance.describe(), hits, success, pairs, li
    C, sweeps = _joint_diagonalize(ctx.compressed_stack(E0.cols))
    cols = E0.cols @ C
    hits, success, pairs, li = ctx.score(cols)
    log.append(f"joint diagonalization ({sweeps} sweeps): hits "
               f"{hits}/{k}, sigma_min {li.sigma_min:.3e}")
    return cols, "jacobi", hits, success, pairs, li


def _holds_verdict(E_cols, provenance: str, pairs, li, log) -> CqVerdict:
    return CqVerdict(
        CqStatus.HOLDS_CERTIFIED,
        reason="kernel basis found with independent pattern-restricted family",
        witness={
            "basis": np.array(E_cols),
            "provenance": provenance,
            "pattern": sorted(pairs),
            "cardinality": len(pairs),
            "sigma_min": li.sigma_min,
        },
        log=log,
    )


def check_sparse_ndg(pd: PointData) -> CqVerdict:
    """Deterministic search for a basis certifying sparse nondegeneracy.

    Two candidates are scored: the fixed kernel basis, and, when it
    fails, the basis that jointly diagonalizes the compressed coefficient
    stack E^T A_t E by cyclic Jacobi sweeps.  The second is exact for any
    commuting stack, as for a diagonal constraint under an orthogonal
    congruence G -> Q^T G Q.  A found witness certifies Holds.  Fails is
    certified through exact routes only: the structurally diagonal
    reduction, an identically zero diagonal entry of the constraint
    (which refutes Robinson's condition directly), the kernel-dimension
    bound, or a certified Robinson failure; anything else is
    Undetermined.
    """
    P, x = pd.P, pd.x
    E0 = pd.kernel
    k = E0.nullity
    log = [f"rank {pd.rank}, kernel dimension {k}"]
    if k == 0:
        return CqVerdict(CqStatus.HOLDS_CERTIFIED,
                         reason="trivial kernel", log=log)
    # the diagonal gradients v_ii plus the equality gradients
    diag_vecs = list(np.diagonal(pd.Wc, axis1=1, axis2=2).T) + list(pd.Heq)
    if structurally_diagonal(P):
        return _diagonal_sparse_verdict(pd.kernel, diag_vecs, log)

    family_size = len(diag_vecs)
    if P.n < family_size:
        li = li_test(diag_vecs[:P.n + 1])
        coeffs = np.zeros(family_size)
        coeffs[:li.coeffs.shape[0]] = li.coeffs
        log.append(f"dimension bound: {family_size} required vectors in R^{P.n}")
        return CqVerdict(
            CqStatus.FAILS,
            reason=f"every admissible basis needs {family_size} independent "
                   f"gradients but the space has dimension {P.n}",
            witness={"basis": E0.cols, "coeffs": coeffs,
                     "vectors": np.array(diag_vecs)},
            log=log)

    for i in range(P.m):
        if structural_zero(P.constraint.entry(i, i)):
            row = pd.G.a[:, i]
            log.append(f"diagonal entry ({i}, {i}) identically zero, "
                       f"row norm {float(np.linalg.norm(row)):.1e}")
            Y = np.zeros((P.m, P.m))
            Y[i, i] = 1.0
            return CqVerdict(
                CqStatus.FAILS,
                reason="a diagonal entry of the constraint is identically "
                       "zero, so a rank-one multiplier annihilates the "
                       "adjoint and Robinson's condition fails, which "
                       "sparse nondegeneracy would imply",
                witness={"index": i, "multiplier": Y,
                         "adjoint_norm": float(np.linalg.norm(P.adjoint(x, Y)))},
                log=log)

    cols, provenance, _, success, pairs, li = _basis_search(
        _SearchContext(pd), E0, log)
    if success:
        return _holds_verdict(cols, provenance, pairs, li, log)

    rob = check_robinson(pd)
    if rob.status == CqStatus.FAILS:
        log.append("Robinson refutation: " + (rob.reason or ""))
        return CqVerdict(
            CqStatus.FAILS,
            reason="Robinson's condition fails, which sparse nondegeneracy "
                   "would imply",
            witness=rob.witness, log=log)

    return CqVerdict(
        CqStatus.UNDETERMINED,
        reason="neither the fixed kernel basis nor its joint "
               "diagonalization gives a witness, and no refutation "
               "certificate applies",
        log=log)


def _diagonal_sparse_verdict(E0: KernelBasis, vecs: List[np.ndarray],
                             log: List[str]) -> CqVerdict:
    """Exact reduction for structurally diagonal constraints.

    Sparse nondegeneracy then coincides with independence of the active
    diagonal gradients (plus equality gradients), which is decided by one
    exact rank test; both outcomes are certified.
    """
    diag_pairs = [(i, i) for i in range(E0.nullity)]
    li = li_test(vecs)
    log.append("structurally diagonal constraint, deciding via active "
               "gradient independence")
    if li.independent:
        return _holds_verdict(E0.cols, "diagonal", diag_pairs, li, log)
    return CqVerdict(
        CqStatus.FAILS,
        reason="diagonal constraint with dependent active gradients",
        witness={"basis": E0.cols, "coeffs": li.coeffs,
                 "vectors": np.array(vecs)},
        log=log)


def check_sparse_ndg_multifold(pd: PointData) -> CqVerdict:
    """Sparse nondegeneracy through the multifold block decomposition.

    Each diagonal block runs the search of :func:`check_sparse_ndg` (its
    fixed kernel basis, else that basis jointly diagonalized) for its
    own basis; the union of the per-block pattern-restricted families,
    together with equality gradients, must be independent.  Equivalent
    to the assembled check by the block invariance of the condition;
    kept separate as a cross-check.
    """
    P, x = pd.P, pd.x
    partition = block_partition(P)
    if len(partition) == 1:
        return check_sparse_ndg(pd)
    if pd.kernel.nullity == 0:
        return CqVerdict(CqStatus.HOLDS_CERTIFIED, reason="trivial kernel")

    union_vecs = []
    basis_blocks = []
    log = [f"multifold over {len(partition)} blocks"]
    all_hit = True
    for bi, comp in enumerate(partition):
        sub = component_subproblem(P, comp, f"#block{bi}")
        spd = feasibility_data(sub, x, pd.tol_rank)
        kb = spd.kernel.nullity
        if kb == 0:
            log.append(f"block {bi}: trivial kernel")
            continue
        block_log: List[str] = []
        cols, _, hits, _, prs, _ = _basis_search(_SearchContext(spd),
                                                 spd.kernel, block_log)
        log += [f"block {bi}: {line}" for line in block_log]
        if hits < kb:
            all_hit = False
        comp_grads = np.einsum("lab,ai,bj->lij", spd.W, cols, cols)
        union_vecs += [comp_grads[:, i, j] for (i, j) in sorted(prs)]
        lifted = np.zeros((P.m, kb))
        for a, g in enumerate(comp):
            lifted[g, :] = cols[a, :]
        basis_blocks.append(lifted)
    union_vecs += list(pd.Heq)
    li = li_test(union_vecs)
    if all_hit and li.independent:
        return CqVerdict(
            CqStatus.HOLDS_CERTIFIED,
            reason="per-block bases with independent union family",
            witness={"blocks": [b for b in basis_blocks],
                     "sigma_min": li.sigma_min},
            log=log)
    assembled = check_sparse_ndg(pd)
    if assembled.status in (CqStatus.FAILS, CqStatus.HOLDS_CERTIFIED):
        assembled.log = log + ["falling back to the assembled check"] \
            + assembled.log
        return assembled
    return CqVerdict(
        CqStatus.UNDETERMINED,
        reason="multifold search found no witness and no certificate applies",
        log=log)


# ---------------------------------------------------------------------------
# Forsgren's condition


def check_forsgren(pd: PointData, U: Optional[np.ndarray] = None) -> CqVerdict:
    """Forsgren's condition for a given diagonalizing matrix U.

    U must be orthogonal with U^T G(x) U diagonal within 1e-8; by default
    the eigenvector matrix of G(x) is used.  The verdict is specific to
    the supplied U, since different diagonalizers give different variants
    of the condition.

    The pattern subspace of the Schur-complement map, compressed to the
    kernel columns of U, is spanned and orthonormalized; then

    * first condition: the pairing M -> sum_{i<=j} M_ij v_ij must be
      injective on that subspace (rank test, certified either way),
    * second condition: a positive definite element of the subspace is
      sought by the saddle-point solve of :func:`cone_saddle` over an
      orthonormal basis of it; a primal readout with lambda_min > 0
      certifies Holds, a diagonal entry vanishing identically on the
      subspace certifies Fails, and otherwise the verdict is Undetermined.

    Equality-constraint gradients join the injectivity test as rows that
    must stay independent from the family image.  Every verdict reached
    after the Schur-map pattern carries its provenance in the witness
    (``pattern_source``, plus ``sample_points`` and ``sample_tol`` when
    the pattern was sampled), so a verdict resting on sampling says so.
    """
    G = pd.G
    m = pd.P.m
    scale = 1.0 + G.norm_inf()
    U = pd.spec.vectors if U is None else np.asarray(U, dtype=float)
    if U.shape != (m, m):
        raise ValueError(f"U must be {m} x {m}, got {U.shape}")
    if float(np.max(np.abs(U.T @ U - np.eye(m)))) > 1e-8:
        raise ValueError("U is not orthogonal within 1e-8")
    D = U.T @ G.a @ U
    off = float(np.max(np.abs(D - np.diag(np.diag(D))), initial=0.0))
    if off > 1e-8 * scale:
        raise ValueError(
            f"U does not diagonalize G(x) within 1e-8 (off-diagonal {off:.3e})")

    diag = np.diag(D)
    thr = pd.tol_rank * max(1.0, float(np.max(np.abs(diag), initial=0.0)))
    kernel_idx = [i for i in range(m) if abs(diag[i]) <= thr]
    k = len(kernel_idx)
    log = [f"rank {m - k}, kernel dimension {k} (per supplied U)"]
    if k != pd.kernel.nullity:
        raise ValueError(
            f"U separates a kernel of dimension {k}, spectral data says "
            f"{pd.kernel.nullity}")
    if k == 0:
        return CqVerdict(CqStatus.HOLDS_CERTIFIED,
                         reason="trivial kernel", log=log)
    E = U[:, kernel_idx]

    tilde = tilde_map(pd)
    pat = tilde.pattern
    log.append(f"Schur map pattern: {pat.cardinality()} entries "
               f"({pat.source})")

    # span of the compressed pattern subspace
    rt = 1.0 / np.sqrt(2.0)
    raw = []
    for (a, b) in pat.sorted_pairs():
        S = np.zeros((m, m))
        if a == b:
            S[a, a] = 1.0
        else:
            S[a, b] = rt
            S[b, a] = rt
        raw.append(E.T @ S @ E)
    basis_T = _orthonormalize_syms(raw)
    dim_T = len(basis_T)
    log.append(f"compressed pattern subspace dimension {dim_T}")

    Wc = np.einsum("lab,ai,bj->lij", pd.W, E, E)
    iu = np.triu_indices(k)
    Wu = Wc[:, iu[0], iu[1]]

    images = [Wu @ Tq[iu] for Tq in basis_T]
    li = li_test(images + list(pd.Heq))
    if not li.independent:
        coeffs = li.coeffs[:dim_T]
        M = np.zeros((k, k))
        for c, Tq in zip(coeffs, basis_T):
            M += c * Tq
        nrm = float(np.sqrt(np.sum(M * M)))
        if nrm > 1e-12:
            M /= nrm
        return CqVerdict(
            CqStatus.FAILS,
            reason="pattern-restricted gradient pairing is not injective",
            witness={"matrix": M, "image_norm": float(np.linalg.norm(Wu @ M[iu])),
                     "subspace_dim": dim_T, **pat.provenance()},
            log=log)
    log.append("injectivity holds on the pattern subspace")

    if dim_T == 0 or any(
            max((abs(Tq[i, i]) for Tq in basis_T), default=0.0) <= 1e-12
            for i in range(k)):
        missing = [i for i in range(k) if
                   max((abs(Tq[i, i]) for Tq in basis_T), default=0.0) <= 1e-12]
        return CqVerdict(
            CqStatus.FAILS,
            reason="a diagonal entry vanishes identically on the pattern "
                   "subspace, so it contains no positive definite element",
            witness={"vanishing_diagonal": missing, "subspace_dim": dim_T,
                     **pat.provenance()},
            log=log)

    stack = np.array(basis_T)
    res = cone_saddle(stack, np.eye(dim_T))
    log.append(f"positive definite element: {res.describe()}")
    if res.route == "primal":
        M = np.tensordot(res.d, stack, axes=1)
        lam_min = float(eigh(SymMat.from_symmetric(M)).values[-1])
        if lam_min > 0.0:
            return CqVerdict(
                CqStatus.HOLDS_CERTIFIED,
                reason="pairing injective and positive definite element found",
                witness={"matrix": M, "lambda_min": lam_min,
                         "subspace_dim": dim_T, **pat.provenance()},
                log=log)
    return CqVerdict(
        CqStatus.UNDETERMINED,
        reason=f"injectivity holds but no positive definite element was "
               f"certified (primal bound {res.primal:.2e}, dual bound "
               f"{res.dual:.2e})",
        log=log)


def _orthonormalize_syms(mats: Sequence[np.ndarray],
                         tol: float = 1e-10) -> List[np.ndarray]:
    """Gram-Schmidt in the Frobenius geometry, near-zero residues dropped."""
    out: List[np.ndarray] = []
    for M in mats:
        R = np.array(M, dtype=float)
        for B in out:
            R = R - float(np.sum(R * B)) * B
        nrm = float(np.sqrt(np.sum(R * R)))
        if nrm > tol:
            out.append(R / nrm)
    return out


# ---------------------------------------------------------------------------
# facial reduction


@dataclass
class FacialReduction:
    """Result of the facial rewrite at a point.

    V1 and V2 are the composed orthonormal blocks over all rounds: V2
    spans the directions eliminated into equality constraints and V1 the
    remaining semidefinite block, both expressed in the original
    coordinates.  J_rounds records, per round, which diagonal indices of
    the compressed map were structurally zero.
    """

    original: NsdpProblem
    reduced_problem: NsdpProblem
    V1: np.ndarray
    V2: np.ndarray
    rounds: int
    J_rounds: Tuple[Tuple[int, ...], ...]
    added_equalities: Tuple[Poly, ...]

    @property
    def J(self) -> Tuple[int, ...]:
        return self.J_rounds[0] if self.J_rounds else ()

    @property
    def omega(self) -> int:
        return self.V2.shape[1]

    def is_identity(self) -> bool:
        return self.rounds == 0


def _poly_signature(p: Poly):
    """Canonical key identifying a polynomial up to overall sign."""
    if not p.terms:
        return ()
    lead = p.terms[0][0]
    q = p if lead > 0 else -p
    return tuple((round(c, 12), e) for c, e in q.terms)


def facial_reduce(P: NsdpProblem, x, tol_rank: float = TAU_RANK,
                  max_rounds: Optional[int] = None) -> FacialReduction:
    """Rewrite the constraint so every compressed diagonal entry is active.

    Rounds repeat while some diagonal entry of the kernel-compressed map
    is identically zero: those kernel directions span a face of the cone,
    the corresponding rows become equality constraints, and the
    semidefinite block shrinks.  Emitted equality polynomials are
    deduplicated up to sign and coefficient noise below the pattern
    threshold is dropped.
    """
    x = np.asarray(x, dtype=float)
    max_rounds = P.m if max_rounds is None else max_rounds
    cur = P
    V1_total = np.eye(P.m)
    V2_cols: List[np.ndarray] = []
    new_eqs: List[Poly] = []
    seen = {_poly_signature(h) for h in P.equalities}
    J_rounds: List[Tuple[int, ...]] = []
    rounds = 0

    for _ in range(max_rounds):
        fd = feasibility_data(cur, x, tol_rank)
        E = fd.kernel
        k = E.nullity
        if k == 0:
            break
        hat = hat_map(cur, x, E)
        J = [i for i in range(k) if not hat.pattern.has(i, i)]
        if not J:
            break
        rounds += 1
        J_rounds.append(tuple(J))
        V2r = E.cols[:, J]
        V1r = orthonormal_completion(V2r)
        for q in range(V2r.shape[1]):
            V2_cols.append(V1_total @ V2r[:, q])
        # equality rows: entries of V2^T G(x), deduplicated up to sign
        mcur = cur.m
        for q in range(V2r.shape[1]):
            for j in range(mcur):
                acc = Poly.zero(P.n)
                for a in range(mcur):
                    c = float(V2r[a, q])
                    if c != 0.0:
                        p = cur.constraint.entry(a, j)
                        if not p.is_zero():
                            acc = acc + p.scale(c)
                acc = acc.truncated(PATTERN_COEF_TOL)
                if acc.is_zero():
                    continue
                sig = _poly_signature(acc)
                if sig in seen:
                    continue
                seen.add(sig)
                new_eqs.append(acc)
        red_entries = _congruence_entries(cur.constraint, V1r)
        mred = V1r.shape[1]
        if mred == 0:
            red = MatrixPoly(1, P.n, {})
            V1_total = np.zeros((P.m, 0))
        else:
            red = MatrixPoly(mred, P.n, red_entries)
            V1_total = V1_total @ V1r
        cur = NsdpProblem(
            n=P.n, objective=P.objective, constraint=red,
            equalities=tuple(P.equalities) + tuple(new_eqs),
            name=P.name + "#reduced")
        if mred == 0:
            break

    if rounds == 0:
        return FacialReduction(
            original=P, reduced_problem=P, V1=np.eye(P.m),
            V2=np.zeros((P.m, 0)), rounds=0, J_rounds=(),
            added_equalities=())
    V2 = np.column_stack(V2_cols) if V2_cols else np.zeros((P.m, 0))
    return FacialReduction(
        original=P, reduced_problem=cur, V1=V1_total, V2=V2,
        rounds=rounds, J_rounds=tuple(J_rounds),
        added_equalities=tuple(new_eqs))


# ---------------------------------------------------------------------------
# pattern cardinality invariance


def sparse_card_invariance(pd: PointData, trials: int = 50,
                           seed: int = 0) -> dict:
    """Sample kernel bases and compare pattern cardinalities.

    Among sampled bases whose pattern-restricted family is independent,
    the pattern cardinality is a basis invariant; a violation in the
    report points at a numerics problem (threshold too loose for the
    sampled rotations), not at the mathematics.
    """
    E0 = pd.kernel
    k = E0.nullity
    if k == 0:
        return {"passing": 0, "cardinalities": [], "consistent": True,
                "violations": []}
    ctx = _SearchContext(pd)
    rng = np.random.default_rng(seed)
    records = []
    for t in range(trials + 1):
        cols = E0.cols if t == 0 else E0.cols @ random_rotation(k, rng)
        Bs = ctx.compressed_stack(cols)
        pairs = ctx.pattern_pairs(Bs)
        li = li_test(ctx.family(cols, pairs))
        if li.independent:
            records.append((t, len(pairs)))
    cards = sorted({c for _, c in records})
    violations = []
    if len(cards) > 1:
        violations = [{"trial": t, "cardinality": c} for t, c in records]
    return {
        "passing": len(records),
        "cardinalities": cards,
        "consistent": len(cards) <= 1,
        "violations": violations,
    }
