"""Sparsity-aware constraint qualifications.

Two reductions of the constraint map G around a feasible point drive
everything here:

* the compression Ghat(x) = E^T G(x) E onto a kernel basis E, whose
  entries are exact polynomials, and
* the Schur-complement map Gtil(x) = G(x) - G(x) P (P^T G(x) P)^{-1}
  P^T G(x) over the range basis P, which is rational and therefore only
  evaluated numerically with a sampled sparsity pattern.

Every reduction of G is read off G's coefficient stack A_t
(``NsdpProblem.constraint_stack``): the congruence L^T G(x) L as the
stack compress(A, L) = L^T A_t L, and the rows L^T G(x) as the
one-sided product L^T A_t, whose entries are the exact coefficients of
the monomials of ``NsdpProblem.constraint_exponents``.  A sparsity
pattern of a reduced map is the sorted list of upper-triangle pairs
(i, j) whose entry is not identically zero near the point: for Ghat, a
coefficient of the compressed stack above PATTERN_COEF_TOL
(``_pattern_pairs``), for Gtil, a sampled value above TILDE_TOL
(``tilde_map``, which also returns how the pattern was decided).  It
defines the subspace of symmetric matrices supported on the pattern.
The checks:

* sparse nondegeneracy: a kernel basis whose pattern-restricted
  gradient family is independent while every diagonal entry of the
  compressed map stays structurally nonzero; one deterministic search
  tries the fixed kernel basis, then the eigenbasis of a seeded random
  combination of the compressed coefficient stack, which diagonalizes
  a commuting stack and splits one with a common block structure,
* Forsgren's condition (per diagonalizing matrix U): injectivity of the
  gradient pairing on the pattern subspace of Gtil compressed to the
  kernel, plus existence of a positive definite element there,
* facial reduction: when some compressed diagonal entry is identically
  zero, the constraint is locally an equality plus a smaller semidefinite
  block, and the rewrite is performed explicitly, its rows V2^T G and
  its block V1^T G V1 read off the same stack.

A Fails verdict is only produced with a certificate, exact or a dual
one of the saddle solve; failed searches return Undetermined.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Tuple

import numpy as np

from .cqcheck import (
    CqStatus,
    CqVerdict,
    PointData,
    check_nondegeneracy,
    check_robinson,
    compress,
    cone_saddle,
    exact_verdict,
    feasibility_data,
    li_test,
    refuted_verdict,
)
from .errors import NumericalFailure
from .model import MatrixPoly, NsdpProblem, Poly
from .symmat import (
    TAU_RANK,
    SymMat,
    eigh,
    orthonormal_completion,
    ranked_svd,
)

PATTERN_COEF_TOL = 1e-12     # coefficient threshold for congruence patterns
TILDE_SAMPLES = 32
TILDE_RADIUS = 1e-3
TILDE_TOL = 1e-9
TILDE_SEED = 20              # generator seed of the Schur-map pattern samples
EIGENBASIS_SEED = 21         # generator seed of the eigenbasis's weights


# ---------------------------------------------------------------------------
# sparsity patterns, coefficient stacks and reduced maps


def _pattern_pairs(Bs: np.ndarray) -> List[Tuple[int, int]]:
    """Upper-triangle pairs of a square stack with a coefficient above
    PATTERN_COEF_TOL, sorted: np.nonzero reads the triangle row by row."""
    mx = np.max(np.abs(Bs), axis=0, initial=0.0)
    rows, cols = np.nonzero(np.triu(mx > PATTERN_COEF_TOL))
    return list(zip(rows.tolist(), cols.tolist()))


def _entry_poly(P: NsdpProblem, Bs: np.ndarray, i: int, j: int) -> Poly:
    """Entry (i, j) of a stack as a polynomial, coefficients at or below
    PATTERN_COEF_TOL dropped."""
    return Poly(P.n, [(c, e) for c, e in zip(Bs[:, i, j],
                                             P.constraint_exponents())
                      if abs(c) > PATTERN_COEF_TOL])


def _schur_value(pd: PointData, xs) -> np.ndarray:
    """Gtil(x) = G(x) - G(x) P (P^T G(x) P)^{-1} P^T G(x) at a point x
    of shape (n,), or at each point of a stack (N, n), P the range basis
    of G at pd's point (rank >= 1).

    The stack is evaluated, its range blocks decomposed and its systems
    solved in one call each.  A point whose range block P^T G(x) P is
    singular is left out, so a stack gives the values at its regular
    points, shape (N_regular, m, m), and a point its value (m, m);
    NumericalFailure when no point is regular.
    """
    xs = np.asarray(xs, dtype=float)
    Pbar = pd.spec.vectors[:, :pd.rank]
    Gq = pd.P.at(xs.reshape(-1, pd.P.n)).constraint_value().a
    B = compress(Gq, Pbar)
    lam = eigh(B).values
    regular = lam[:, -1] > 1e-12 * np.maximum(1.0, np.abs(lam[:, 0]))
    if not regular.any():
        raise NumericalFailure("range block of the Schur map singular at "
                               "every sample point")
    Gq = Gq[regular]
    half = np.linalg.solve(B[regular], Pbar.T @ Gq)
    Gt = Gq - (Gq @ Pbar) @ half
    return Gt if xs.ndim > 1 else Gt[0]


def tilde_map(pd: PointData) -> Tuple[List[Tuple[int, int]], dict]:
    """Pattern of the Schur-complement reduction of G over the range of
    G(x): its sorted upper-triangle pairs, and their provenance, the
    dict the witnesses resting on the pattern carry.

    With r = rank G(x) = 0 the map degenerates to G itself and the exact
    polynomial pattern is returned, ``pattern_source`` "exact".
    Otherwise the map is rational; its pattern is decided by sampling on
    a small sphere around x, so entries flagged nonzero are certain while
    entries flagged zero are presumed structural, ``pattern_source``
    "sampled" with ``sample_points`` and ``sample_tol``.  TILDE_SAMPLES
    directions are drawn from a generator seeded with TILDE_SEED, a draw
    of norm below 1e-12 skipped, and the map is taken at all of them in
    one stacked :func:`_schur_value`; samples with a singular range
    block are left out of the pattern and of ``sample_points``, and
    NumericalFailure is raised when every sample has one.
    """
    P, x = pd.P, pd.x
    m = P.m
    if pd.rank == 0:
        return sorted(P.constraint.entries), {"pattern_source": "exact"}

    rng = np.random.default_rng(TILDE_SEED)
    g = rng.standard_normal((TILDE_SAMPLES, P.n))
    # each row's norm as np.linalg.norm takes one row, by a dot product
    nrm = np.sqrt(g[:, None, :] @ g[:, :, None]).ravel()
    keep = nrm >= 1e-12
    Gt = _schur_value(pd, x + TILDE_RADIUS * g[keep] / nrm[keep, None])
    iu, ju = np.triu_indices(m)
    hit = np.any(np.abs(Gt[:, iu, ju]) > TILDE_TOL, axis=0)
    return (list(zip(iu[hit].tolist(), ju[hit].tolist())),
            {"pattern_source": "sampled", "sample_points": len(Gt),
             "sample_tol": TILDE_TOL})


# ---------------------------------------------------------------------------
# sparse nondegeneracy: candidate scoring and basis search


def _score(S: np.ndarray, Wc: np.ndarray, Heq: np.ndarray):
    """(diagonal hits, success flag, pattern, family li_test) of a basis
    from its coefficient stack S = cols^T A_t cols and its compressed
    partials Wc = compress(W, cols).

    The pattern is read off S, so it is decided on exact coefficients,
    not on sampled values.
    """
    pairs = _pattern_pairs(S)
    hits = sum(i == j for i, j in pairs)
    li = li_test([Wc[:, i, j] for (i, j) in pairs] + list(Heq))
    return hits, hits == S.shape[1] and li.independent, pairs, li


def _basis_search(pd: PointData, S0: np.ndarray, log: List[str]):
    """Score the fixed kernel basis E = pd.E, else its eigenbasis.

    The fixed basis is scored on its stack S0 = E^T A_t E and on pd.Wc,
    and kept when it succeeds.  Otherwise V, the eigenvectors of
    sum_t w_t S0_t with weights w drawn from a generator seeded with
    EIGENBASIS_SEED, rotates it: the basis E V is scored on V^T S0_t V
    and V^T Wc V, with no m x m work.  Returns (basis, provenance,
    success, pairs, li) of the basis scored last.
    """
    E = pd.E
    k = E.shape[1]
    hits, success, pairs, li = _score(S0, pd.Wc, pd.Heq)
    log.append(f"fixed basis: hits {hits}/{k}, sigma_min {li.sigma_min:.3e}")
    if success:
        return E, "fixed", success, pairs, li
    w = np.random.default_rng(EIGENBASIS_SEED).standard_normal(len(S0))
    V = eigh(np.tensordot(w, S0, axes=1)).vectors
    hits, success, pairs, li = _score(compress(S0, V), compress(pd.Wc, V),
                                      pd.Heq)
    log.append(f"eigenbasis: hits {hits}/{k}, sigma_min {li.sigma_min:.3e}")
    return E @ V, "eigenbasis", success, pairs, li


def _holds_verdict(E_cols, provenance: str, pairs, li, log) -> CqVerdict:
    return CqVerdict(
        CqStatus.HOLDS_CERTIFIED,
        reason="kernel basis found with independent pattern-restricted family",
        witness={
            "basis": np.array(E_cols),
            "provenance": provenance,
            "pattern": pairs,
            "cardinality": len(pairs),
            "sigma_min": li.sigma_min,
        },
        log=log,
    )


def check_sparse_ndg(pd: PointData,
                     robinson: Optional[CqVerdict] = None) -> CqVerdict:
    """Deterministic search for a basis certifying sparse nondegeneracy.

    The shared routes of :func:`exact_verdict` come first (dependent
    equality gradients, the dimension bound, the diagonal reduction to
    LICQ).  Robinson's verdict comes next: sparse nondegeneracy implies
    Robinson's condition, so a certified Robinson ``Fails`` refutes it
    whatever basis a search would find, and the verdict carries
    Robinson's witness (:func:`refuted_verdict`, as the analysis
    lattice gives it); an identically zero diagonal entry G_ii gives
    one, the multiplier e_i e_i^T.  Then the span route: a basis can
    only thin the compressed pattern through a symmetric k x k matrix
    orthogonal to every E^T A_t E, so when those span all of Sym(k), by
    :func:`symmat.ranked_svd` over the stack flattened to T x k^2,
    every basis sees the full pattern, and sparse nondegeneracy holds
    exactly when nondegeneracy does.  A nondegeneracy ``Fails`` then
    refutes it with nondegeneracy's family witness plus
    ``span_sigma_min``, the k(k + 1) / 2-th singular value of the
    flattened stack.  Otherwise two candidates are scored:
    the fixed kernel basis, and, when it fails, its eigenbasis, the
    eigenvectors of a random combination of the compressed coefficient
    stack E^T A_t E (:func:`_basis_search`).  Commuting symmetric
    matrices share an orthonormal eigenbasis (Horn & Johnson, *Matrix
    Analysis*, Thm 2.5.5), which a generic combination's eigenvectors
    are, so the eigenbasis diagonalizes any commuting stack, as that of
    a diagonal constraint under an orthogonal congruence G -> Q^T G Q.
    A stack with a common block structure, commuting or not, has the
    combination block diagonal too, and each eigenvector stays inside
    one block.  A found witness certifies Holds; anything else is
    Undetermined.
    robinson is Robinson's verdict on the same point data when the
    caller has it; without it :func:`check_robinson` runs, so the
    verdict is the same either way.
    """
    exact = exact_verdict(pd, "sparse_ndg")
    if exact is not None:
        return exact
    rob = check_robinson(pd) if robinson is None else robinson
    if rob.status == CqStatus.FAILS:
        return refuted_verdict("sparse_ndg", "robinson", rob)
    k = pd.E.shape[1]
    S0 = compress(pd.P.constraint_stack(), pd.E)
    _, sv, dim = ranked_svd(S0.reshape(len(S0), k * k))
    log = [f"rank {pd.rank}, kernel dimension {k}, compressed coefficient "
           f"span dimension {dim} of {k * (k + 1) // 2}"]
    ndg = check_nondegeneracy(pd) if dim == k * (k + 1) // 2 else None
    if ndg is not None and ndg.status == CqStatus.FAILS:
        return CqVerdict(
            CqStatus.FAILS, reason="the compressed coefficients span Sym(k), "
            "so every kernel basis sees the full pattern, and nondegeneracy "
            "fails", log=log + [f"nondegeneracy: {ndg.reason}"],
            witness={**ndg.witness, "span_sigma_min": float(sv[dim - 1])})
    cols, provenance, success, pairs, li = _basis_search(pd, S0, log)
    if success:
        return _holds_verdict(cols, provenance, pairs, li, log)
    return CqVerdict(
        CqStatus.UNDETERMINED,
        reason="neither the fixed kernel basis nor its joint "
               "diagonalization gives a witness, and no refutation "
               "certificate applies",
        log=log)


# ---------------------------------------------------------------------------
# Forsgren's condition


def _pattern_basis(pairs: List[Tuple[int, int]],
                   E: np.ndarray) -> np.ndarray:
    """Orthonormal basis, in the Frobenius geometry, of the subspace that
    the unit matrices of the pattern pairs span once compressed to the
    columns of E; a stack of shape (dim_T, k, k).

    The unit matrix of pair (a, b) is e_a e_a^T, or (e_a e_b^T +
    e_b e_a^T) / sqrt(2) off the diagonal, so its compression is the
    outer product of rows a and b of E, symmetrized and scaled.  The
    basis is the span of the flattened compressions as
    :func:`symmat.ranked_svd` ranks it.  Every compression lies in
    Sym(k), so dim_T is at most k(k + 1) / 2.
    """
    k = E.shape[1]
    a, b = np.array(pairs, dtype=int).reshape(-1, 2).T
    scale = np.where(a == b, 0.5, np.sqrt(0.5))[:, None, None]
    raw = E[a, :, None] * E[b, None, :]
    raw = scale * (raw + raw.swapaxes(1, 2))
    left, _, rank = ranked_svd(raw.reshape(-1, k * k).T)
    return left[:, :rank].T.reshape(-1, k, k)


def check_forsgren(pd: PointData, U: Optional[np.ndarray] = None) -> CqVerdict:
    """Forsgren's condition for a given diagonalizing matrix U.

    U must be orthogonal with U^T G(x) U diagonal within 1e-8, and its
    kernel columns are those with |u_i^T G(x) u_i| <= pd.tau, the
    threshold that split the point's kernel.  By default U is the
    eigenvector matrix of G(x), whose kernel columns are pd.E and whose
    compressed partials are pd.Wc, so nothing is recomputed.  The
    verdict is specific to the supplied U, since different
    diagonalizers give different variants of the condition.

    The pattern subspace of the Schur-complement map, compressed to the
    kernel columns of U, gets an orthonormal basis from one ranked SVD
    (:func:`_pattern_basis`), at most dim Sym(k) = k(k + 1) / 2
    matrices; then

    * first condition: the pairing M -> sum_{i<=j} M_ij v_ij must be
      injective on that subspace: :func:`li_test` of the dim_T images,
      one matrix product, followed by the equality gradients, certified
      either way.  When dim_T plus the equality count ne exceeds n it is
      not, by count, and li_test factors only the first n + 1 of these
      vectors.  The unit null combination is the witness ``matrix``
      (with ``free_coeffs`` on the equality gradients, zero past the
      factored ones, and ``image_norm`` the norm of the whole
      combination),
    * second condition: a positive definite element of the subspace is
      sought by the saddle-point solve of :func:`cone_saddle` over an
      orthonormal basis of it; a primal readout with lambda_min > 0
      certifies Holds, a dual certificate S certifies Fails with the
      multiplier Y = E S E^T, which replays as Y >= 0, tr Y = 1 and
      Y_ab = 0 on every pattern pair, and otherwise it is Undetermined.

    Equality-constraint gradients join the injectivity test as rows that
    must stay independent from the family image.  Once U is validated,
    the shared routes of :func:`exact_verdict` (dependent equality
    gradients, trivial kernel) come first.  Every verdict reached
    after the Schur-map pattern carries its provenance in the witness
    (``pattern_source``, plus ``sample_points`` and ``sample_tol`` when
    the pattern was sampled), so a verdict resting on sampling says so.
    """
    m, k = pd.P.m, pd.E.shape[1]
    if U is None:
        E, Wc = pd.E, pd.Wc
    else:
        U = np.asarray(U, dtype=float)
        if U.shape != (m, m):
            raise ValueError(f"U must be {m} x {m}, got {U.shape}")
        if float(np.max(np.abs(U.T @ U - np.eye(m)))) > 1e-8:
            raise ValueError("U is not orthogonal within 1e-8")
        D = compress(pd.G.a, U)
        off = float(np.max(np.abs(D - np.diag(np.diag(D))), initial=0.0))
        if off > 1e-8 * (1.0 + pd.G.norm_inf()):
            raise ValueError(f"U does not diagonalize G(x) within 1e-8 "
                             f"(off-diagonal {off:.3e})")
        E = U[:, np.abs(np.diag(D)) <= pd.tau]
        if E.shape[1] != k:
            raise ValueError(
                f"U separates a kernel of dimension {E.shape[1]}, spectral "
                f"data says {k}")
        Wc = compress(pd.W, E)
    log = [f"rank {m - k}, kernel dimension {k} (per supplied U)"]
    exact = exact_verdict(pd, "forsgren")
    if exact is not None:
        return exact

    pairs, provenance = tilde_map(pd)
    log.append(f"Schur map pattern: {len(pairs)} entries "
               f"({provenance['pattern_source']})")

    stack = _pattern_basis(pairs, E)
    dim_T = stack.shape[0]
    log.append(f"compressed pattern subspace dimension {dim_T}")

    iu = np.triu_indices(k)
    Wu = Wc[:, iu[0], iu[1]]
    Heq = pd.Heq
    li = li_test(np.vstack([stack[:, iu[0], iu[1]] @ Wu.T, Heq]))
    if not li.independent:
        # the null combination, scaled to a unit matrix M: the image of M
        # plus sum_i beta_i grad h_i vanishes
        M = np.tensordot(li.coeffs[:dim_T], stack, axes=1)
        nrm = float(np.sqrt(np.sum(M * M)))
        beta = li.coeffs[dim_T:]
        if nrm > 1e-12:
            M, beta = M / nrm, beta / nrm
        witness = {"matrix": M,
                   "image_norm": float(np.linalg.norm(Wu @ M[iu] + beta @ Heq)),
                   "subspace_dim": dim_T, **provenance}
        if len(Heq):
            witness["free_coeffs"] = beta
        return CqVerdict(
            CqStatus.FAILS,
            reason="pattern-restricted gradient pairing is not injective",
            witness=witness, log=log)
    log.append("injectivity holds on the pattern subspace")

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
                         "subspace_dim": dim_T, **provenance},
                log=log)
    if res.route == "dual":
        # <Y, S_ab> = <S, E^T S_ab E>, zero on every pattern pair
        return CqVerdict(
            CqStatus.FAILS,
            reason="a unit-trace PSD multiplier is orthogonal to the pattern "
                   "subspace, so it contains no positive definite element",
            witness={"multiplier": compress(res.S, E.T), "residual": res.dual,
                     "pattern": pairs, "subspace_dim": dim_T,
                     **provenance},
            log=log)
    return CqVerdict(
        CqStatus.UNDETERMINED,
        reason=f"injectivity holds but no positive definite element was "
               f"certified (primal bound {res.primal:.2e}, dual bound "
               f"{res.dual:.2e})",
        log=log)


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
    def omega(self) -> int:
        return self.V2.shape[1]


def _poly_signature(p: Poly):
    """Canonical key identifying a polynomial up to overall sign."""
    if not p.terms:
        return ()
    lead = p.terms[0][0]
    q = p if lead > 0 else -p
    return tuple((round(c, 12), e) for c, e in q.terms)


def facial_reduce(P: NsdpProblem, x,
                  tol_rank: float = TAU_RANK) -> FacialReduction:
    """Rewrite the constraint so every compressed diagonal entry is active.

    Rounds repeat while some diagonal entry of the kernel-compressed map
    is identically zero, a diagonal pair missing from the pattern of
    E^T A_t E, E the kernel basis of the one :func:`feasibility_data`
    call, and so the one evaluation, of each round: those kernel
    directions span a face of the cone,
    the corresponding rows become equality constraints, and the
    semidefinite block shrinks.  The rows V2^T G are emitted as the
    entries of V2^T G V1 and the strict upper triangle of V2^T G V2,
    whose diagonal is the identically zero J block: with [V1 V2]
    orthogonal these span the same polynomials, at most
    |J| (m - |J|) + |J| (|J| - 1) / 2 of them rather than |J| m.  They
    and the reduced block V1^T G V1 are read off G's coefficient stack,
    coefficients at or below the pattern threshold dropped; emitted
    equality polynomials are deduplicated up to sign.  Every round
    removes a direction, so there are at most m rounds.
    """
    x = np.asarray(x, dtype=float)
    cur = P
    V1_total = np.eye(P.m)
    V2_cols: List[np.ndarray] = []
    new_eqs: List[Poly] = []
    seen = {_poly_signature(h) for h in P.equalities}
    J_rounds: List[Tuple[int, ...]] = []

    for _ in range(P.m):
        E = feasibility_data(cur, x, tol_rank).E
        stack = cur.constraint_stack()
        diag = {i for i, j in _pattern_pairs(compress(stack, E)) if i == j}
        J = [i for i in range(E.shape[1]) if i not in diag]
        if not J:
            break
        J_rounds.append(tuple(J))
        V2r = E[:, J]
        V1r = orthonormal_completion(V2r)
        for q in range(V2r.shape[1]):
            V2_cols.append(V1_total @ V2r[:, q])
        V1_total = V1_total @ V1r
        # equality rows: V2^T G(x) [V1 V2] spans V2^T G(x), whose V2
        # block has the identically zero diagonal J and is symmetric, so
        # the V1 block and the V2 block's strict upper triangle suffice;
        # deduplicated up to sign
        mred, w = V1r.shape[1], V2r.shape[1]
        rows = V2r.T @ stack @ np.hstack([V1r, V2r])
        for q in range(w):
            for j in chain(range(mred), range(mred + q + 1, mred + w)):
                h = _entry_poly(cur, rows, q, j)
                sig = _poly_signature(h)
                if h.is_zero() or sig in seen:
                    continue
                seen.add(sig)
                new_eqs.append(h)
        # a full collapse leaves a 1 x 1 zero block as a placeholder
        Bs = compress(stack, V1r)
        red = MatrixPoly(max(mred, 1), P.n, {
            (i, j): _entry_poly(cur, Bs, i, j)
            for i in range(mred) for j in range(i, mred)})
        cur = NsdpProblem(
            n=P.n, objective=P.objective, constraint=red,
            equalities=tuple(P.equalities) + tuple(new_eqs),
            name=P.name + "#reduced")
        if mred == 0:
            break

    V2 = np.column_stack(V2_cols) if V2_cols else np.zeros((P.m, 0))
    return FacialReduction(
        original=P, reduced_problem=cur, V1=V1_total, V2=V2,
        rounds=len(J_rounds), J_rounds=tuple(J_rounds),
        added_equalities=tuple(new_eqs))
