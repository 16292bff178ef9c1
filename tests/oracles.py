"""Reference formulas and cross-check oracles the tests check the library
against.

Besides the adjoint formula for single entry gradients, the
congruence L^T S R of a stack as one 3-operand einsum, and the
congruence B^T G B as polynomials (to rotate a constraint), this holds the
block machinery (block detection, per-block subproblems), the multifold
sparse-nondegeneracy check built on it, the pattern-cardinality
invariance survey, the KKT residuals at a candidate multiplier and a
best-effort multiplier fit, the projection onto the PSD cone, the
term-by-term evaluation and derivatives of a polynomial that the
compiled evaluator is compared against, the stack form of
eigh's ordering and sign fix applied to a single matrix, the Lagrangian
Hessian summed over all three maps, the penalty Hessian with its
equality terms formed for every problem, the Newton direction's shift search
through numpy.linalg, the entrywise weights of the
projection Jacobian, and the per-point
references of the penalty layer: the penalty value, gradient,
multiplier and noise floor from one public model call per quantity, the
path trace that evaluates and decomposes its points one at a time, and
the probes' usable-record and persistent-cluster scans one record at a
time, the trace family built all at once with the probes' trace loop
testing every trace, and the Schur-map pattern sampled and solved one point at a
time, and the term-by-term polynomial parse that builtins now replace.
Only tests call them; they recompute what the library decides by an
independent route.
"""
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from nsdpcq.cqcheck import (
    CqStatus,
    CqVerdict,
    PointData,
    compress,
    feasibility_data,
    li_test,
    pli_test,
)
from nsdpcq.errors import NumericalFailure, ProblemFormatError
from nsdpcq.model import (
    COEF_DROP,
    MAX_DEGREE,
    MAX_VARS,
    MatrixPoly,
    NsdpProblem,
    Poly,
)
from nsdpcq.penalty import (
    PATH_DECAY,
    PATH_SCALE,
    PATH_STEPS,
    TAU_CLUSTER,
    VALUE_NOISE,
    PenaltyConfig,
    PenaltyIterate,
    PenaltyTrace,
    SequenceProbeResult,
    _block_rotation,
    _lam_abs,
    _persistent_clusters,
    _projection_weights,
    _snap_to_kernel,
    _usable_records,
    make_path_trace,
    run_penalty,
)
from nsdpcq.sparse import (
    TILDE_RADIUS,
    TILDE_SAMPLES,
    TILDE_SEED,
    TILDE_TOL,
    _basis_search,
    _entry_poly,
    _score,
    check_sparse_ndg,
)
from nsdpcq.symmat import Spectral, SymMat, eigh, frobenius, random_rotation

# largest PSD defect of a valid KKT multiplier Y, relative to 1 + max|Y_ij|
TAU_EIG = 1e-10


def entry_gradient(P, x, u, w=None):
    """v vector for a single direction pair, via the adjoint formula.

    Returns DG(x)*[(u w^T + w u^T) / 2]; with w omitted this is
    DG(x)*[u u^T], the gradient of x -> u^T G(x) u.  Agreement with the
    entrywise formula (u^T D_l G(x) w)_l is covered by a property test.
    """
    u = np.asarray(u, dtype=float)
    w = u if w is None else np.asarray(w, dtype=float)
    M = (np.outer(u, w) + np.outer(w, u)) / 2.0
    return P.adjoint(x, M)


def congruence_einsum(S: np.ndarray, L: np.ndarray,
                      R: Optional[np.ndarray] = None) -> np.ndarray:
    """The stack L^T S_t R (R = L when omitted) as one einsum over all
    five indices, the form compress's two matrix products replaced."""
    return np.einsum("tab,ai,bj->tij", S, L, L if R is None else R)


def congruence_entries(P: NsdpProblem, B: np.ndarray) -> Dict:
    """Upper entries of B^T G(x) B as polynomials, read off G's
    coefficient stack; a zero entry comes back as the zero polynomial."""
    Bs = compress(P.constraint_stack(), B)
    w = B.shape[1]
    return {(i, j): _entry_poly(P, Bs, i, j)
            for i in range(w) for j in range(i, w)}


def detect_blocks(P: NsdpProblem):
    """Finest partition of the constraint indices into decoupled blocks.

    Two indices are coupled when some off-diagonal entry joining them is
    not a structural zero; connected components of that graph give the
    finest block partition (after an implicit symmetric permutation).
    Returns the string "dense" when everything is one component, otherwise
    a list of sorted 0-based index lists.  A fully diagonal constraint
    comes back as all-singleton blocks.
    """
    m = P.m
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (i, j) in P.constraint.entries:
        if i != j:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups: Dict[int, List[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    comps = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])
    if len(comps) == 1:
        return "dense"
    return comps


def block_partition(P: NsdpProblem) -> List[List[int]]:
    """Like detect_blocks but always a list (single block when dense)."""
    comps = detect_blocks(P)
    return [list(range(P.m))] if comps == "dense" else comps


def component_subproblem(P: NsdpProblem, comp: Sequence[int],
                         name_suffix: str = "") -> NsdpProblem:
    """Restriction of the PSD constraint to a block of indices.

    Keeps the full variable space; objective and equalities are dropped
    since block machinery only needs the constraint map.
    """
    comp = list(comp)
    pos = {g: k for k, g in enumerate(comp)}
    entries = {}
    for (i, j), p in P.constraint.entries.items():
        if i in pos and j in pos:
            entries[(pos[i], pos[j])] = p
        elif (i in pos) != (j in pos):
            raise ProblemFormatError(
                f"entry ({i}, {j}) couples indices across the requested block")
    sub = MatrixPoly(len(comp), P.n, entries)
    return NsdpProblem(n=P.n, objective=Poly.zero(P.n), constraint=sub,
                       name=P.name + name_suffix)


def check_sparse_ndg_multifold(pd: PointData) -> CqVerdict:
    """Sparse nondegeneracy through the multifold block decomposition.

    Each diagonal block runs the search of :func:`check_sparse_ndg` (its
    fixed kernel basis, else that basis's eigenbasis) for its
    own basis; the union of the per-block pattern-restricted families,
    together with equality gradients, must be independent.  Equivalent
    to the assembled check by the block invariance of the condition;
    kept separate as a cross-check.
    """
    P, x = pd.P, pd.x
    partition = block_partition(P)
    if len(partition) == 1:
        return check_sparse_ndg(pd)
    if pd.E.shape[1] == 0:
        return CqVerdict(CqStatus.HOLDS_CERTIFIED, reason="trivial kernel")

    union_vecs = []
    basis_blocks = []
    log = [f"multifold over {len(partition)} blocks"]
    all_hit = True
    for bi, comp in enumerate(partition):
        sub = component_subproblem(P, comp, f"#block{bi}")
        spd = feasibility_data(sub, x, pd.tol_rank)
        kb = spd.E.shape[1]
        if kb == 0:
            log.append(f"block {bi}: trivial kernel")
            continue
        block_log: List[str] = []
        cols, _, _, prs, _ = _basis_search(
            spd, compress(sub.constraint_stack(), spd.E), block_log)
        log += [f"block {bi}: {line}" for line in block_log]
        if any((i, i) not in prs for i in range(kb)):
            all_hit = False
        comp_grads = compress(spd.W, cols)
        union_vecs += [comp_grads[:, i, j] for (i, j) in prs]
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


def sparse_card_invariance(pd: PointData, trials: int = 50,
                           seed: int = 0) -> dict:
    """Sample kernel bases and compare pattern cardinalities.

    Among sampled bases whose pattern-restricted family is independent,
    the pattern cardinality is a basis invariant; a violation in the
    report points at a numerics problem (threshold too loose for the
    sampled rotations), not at the mathematics.
    """
    E0 = pd.E
    k = E0.shape[1]
    if k == 0:
        return {"passing": 0, "cardinalities": [], "consistent": True,
                "violations": []}
    rng = np.random.default_rng(seed)
    records = []
    for t in range(trials + 1):
        cols = E0 if t == 0 else E0 @ random_rotation(k, rng)
        _, _, pairs, li = _score(compress(pd.P.constraint_stack(), cols),
                                 compress(pd.W, cols), pd.Heq)
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


def poly_eval(p: Poly, x) -> float:
    """p(x), summed term by term."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for c, e in p.terms:
        v = c
        for xi, ei in zip(x, e):
            if ei:
                v *= xi ** ei
        total += v
    return total


def poly_partial(p: Poly, i: int) -> Poly:
    """The partial derivative of p in x_i, term by term."""
    terms = []
    for c, e in p.terms:
        if e[i] > 0:
            d = list(e)
            d[i] -= 1
            terms.append((c * e[i], tuple(d)))
    return Poly(p.n, terms)


def poly_grad(p: Poly) -> Tuple[Poly, ...]:
    return tuple(poly_partial(p, i) for i in range(p.n))


def proj_psd(M) -> SymMat:
    """Projection onto the PSD cone: clamp negative eigenvalues to zero."""
    spec = eigh(M)
    lam = np.clip(spec.values, 0.0, None)
    return SymMat.from_symmetric((spec.vectors * lam) @ spec.vectors.T)


@dataclass
class KktCertificate:
    """Residuals of the KKT system at (x, Y, mu).

    stationarity is ||grad f(x) - DG(x)*[Y] - sum mu_i grad h_i(x)||_2,
    complementarity is |<G(x), Y>|, and psd_defect is the magnitude of the
    most negative eigenvalue of Y (zero for a valid multiplier).
    """

    multiplier: SymMat
    equality_multipliers: np.ndarray
    stationarity_residual: float
    complementarity_residual: float
    psd_defect: float

    def is_valid(self, tol: float = 1e-6) -> bool:
        return (self.stationarity_residual <= tol
                and self.complementarity_residual <= tol
                and self.psd_defect <= TAU_EIG * (
                    1.0 + self.multiplier.norm_inf()))


def kkt_residual(P: NsdpProblem, x, Y, mu=None) -> KktCertificate:
    x = np.asarray(x, dtype=float)
    Ym = Y if isinstance(Y, SymMat) else SymMat.from_symmetric(np.asarray(Y, dtype=float))
    mu = np.zeros(len(P.equalities)) if mu is None else np.asarray(mu, dtype=float)
    ev = P.at(x)
    grad = ev.objective_gradient() - ev.adjoint(Ym)
    Heq = ev.equality_gradients()
    if Heq.shape[0]:
        grad = grad - Heq.T @ mu
    G = ev.constraint_value()
    comp = abs(frobenius(G.a, Ym.a))
    lam_min = float(eigh(Ym).values[-1])
    return KktCertificate(
        multiplier=Ym,
        equality_multipliers=mu,
        stationarity_residual=float(np.linalg.norm(grad)),
        complementarity_residual=comp,
        psd_defect=max(0.0, -lam_min),
    )


def find_multiplier(pd: PointData, iters: int = 400) -> KktCertificate:
    """Best-effort KKT multiplier at the point.

    Complementarity is built in by parametrizing Y = E S E^T over the
    kernel basis; S is then fit by least squares and pushed onto the PSD
    cone by projected gradient on the stationarity residual.
    """
    P, x, E, Heq = pd.P, pd.x, pd.E, pd.Heq
    k = E.shape[1]
    ne = Heq.shape[0]
    g0 = P.objective_gradient(x)
    if k == 0:
        if ne:
            mu = np.linalg.lstsq(Heq.T, g0, rcond=None)[0]
            return kkt_residual(P, x, SymMat.zero(P.m), mu)
        return kkt_residual(P, x, SymMat.zero(P.m))
    # A_s vec(S) = DG(x)*[E S E^T], in matrix form over the kernel block
    As = pd.Wc.reshape(P.n, k * k)
    Ah = Heq.T
    z, *_ = np.linalg.lstsq(np.hstack([As, Ah]), g0, rcond=None)
    mu = z[k * k:]
    S = proj_psd(z[:k * k].reshape(k, k)).a
    # polish: projected gradient on || A_s vec(S) + Heq^T mu - g0 ||^2
    lip = max(float(np.linalg.norm(As, 2)) ** 2, 1e-12)
    for _ in range(iters):
        if ne:
            mu, *_ = np.linalg.lstsq(Ah, g0 - As @ S.ravel(), rcond=None)
        resid = As @ S.ravel() + (Ah @ mu if ne else 0.0) - g0
        S = proj_psd(S - (As.T @ resid).reshape(k, k) / lip).a
    Y = SymMat.from_symmetric(E @ S @ E.T)
    return kkt_residual(P, x, Y, mu if ne else None)


def eigh_stack_form(a: np.ndarray) -> Spectral:
    """symmat.eigh of one matrix by the steps its stack path takes: each
    eigenvector of LAPACK's output as a row, its sign fixed at its
    largest-magnitude component, and one offset gather ordering the
    values and rows, swapped back to columns."""
    w, u = np.linalg.eigh(a)
    m = w.shape[-1]
    rows = u.swapaxes(-1, -2).reshape(w.size, m)
    peak = rows.take(np.abs(rows).argmax(axis=1)
                     + np.arange(0, rows.size, m))
    np.negative(rows, out=rows, where=peak[:, None] < 0.0)
    order = np.argsort(-w, axis=-1, kind="stable")
    order += np.arange(0, w.size, m).reshape(w.shape[:-1] + (1,))
    values, vectors = w.take(order), rows[order].swapaxes(-1, -2)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return Spectral(values=values, vectors=vectors)


def lagrangian_hessian_three_maps(ev, Y: np.ndarray,
                                  w: np.ndarray) -> np.ndarray:
    """The Hessian of f - <G, Y> + <h, w> at ev's point as the sum of
    the three compiled maps' Hessians, the equality map's included when
    it has no second derivatives."""
    P = ev.problem
    return (P._f.hessian(ev.powers, np.ones(1))
            - P._G.hessian(ev.powers, Y)
            + P._h.hessian(ev.powers, w))


def penalty_hessian_equality_terms(rho: float, ev, Y: SymMat) -> np.ndarray:
    """penalty._penalty_hessian with its equality terms formed for every
    problem: the Lagrangian Hessian weighted by rho h(x), an empty array
    without equalities, and rho Dh^T Dh added whenever Dh has rows."""
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


def newton_direction_linalg(H: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """-(H + tau I)^-1 grad through np.linalg.cholesky and np.linalg.solve,
    a failed factorization caught as LinAlgError: the shift search of
    penalty._newton_direction, with the same tau sequence, 200 attempts
    and zero direction when they run out."""
    beta = 1e-3
    diag = float(H.diagonal().min())
    tau = 0.0 if diag > 0.0 else beta - diag
    for _ in range(200):
        try:
            L = np.linalg.cholesky(H + tau * np.eye(len(H)) if tau > 0.0
                                   else H)
        except np.linalg.LinAlgError:
            tau = max(2.0 * tau, beta)
            continue
        return -np.linalg.solve(L.T, np.linalg.solve(L, grad))
    return np.zeros_like(grad)


def projection_weights_entrywise(mu: np.ndarray) -> np.ndarray:
    """Omega_ij = (mu_i^+ - mu_j^+) / (mu_i - mu_j), 1 at a tie of
    positive entries and 0 at one of non-positive entries, computed
    entry by entry over all pairs."""
    pos = np.maximum(mu, 0.0)
    den = mu[:, None] - mu[None, :]
    tie = den == 0.0
    return np.where(tie, (pos > 0.0)[:, None] * 1.0,
                    (pos[:, None] - pos[None, :]) / np.where(tie, 1.0, den))


def penalty_parts_reference(P: NsdpProblem, anchor, rho: float, x):
    """Value, gradient, multiplier and noise floor of the regularized
    penalty at x, each model piece from its own public method call, in
    the library's order of operations (grad f + dx - DG*[Y] + rho Dh^T h),
    so the library must match it bit for bit."""
    anchor = np.asarray(anchor, dtype=float)
    x = np.asarray(x, dtype=float)
    fx, hvals = P.objective_value(x), P.equality_values(x)
    spec = eigh(P.constraint_value(x))
    dx = x - anchor
    neg = np.clip(-spec.values, 0.0, None)
    reg = 0.5 * float(dx @ dx)
    pen = 0.5 * rho * (float(neg @ neg) + float(hvals @ hvals))
    val = fx + reg + pen
    act = neg > 0.0
    if np.any(act):
        V = spec.vectors[:, act]
        Ymat = rho * (V * neg[act]) @ V.T
    else:
        Ymat = np.zeros((P.m, P.m))
    Y = SymMat.from_symmetric(Ymat)
    grad = P.objective_gradient(x) + dx - P.adjoint(x, Y.a)
    if hvals.shape[0]:
        grad = grad + rho * (P.equality_gradients(x).T @ hvals)
    noise = VALUE_NOISE * (abs(fx) + reg + pen
                           + rho * _lam_abs(spec.values) * float(np.sum(neg)))
    return val, grad, Y, noise


def path_trace_per_point(P: NsdpProblem, x_bar, direction,
                         steps: int = PATH_STEPS, scale: float = PATH_SCALE,
                         decay: float = PATH_DECAY,
                         trace_id: str = "path") -> PenaltyTrace:
    """make_path_trace one point at a time: G and its eigh per point."""
    x_bar = np.asarray(x_bar, dtype=float)
    d = np.asarray(direction, dtype=float)
    nrm = float(np.linalg.norm(d))
    if nrm < 1e-12:
        raise ValueError("path direction must be nonzero")
    d = d / nrm
    iterates = []
    zero = SymMat.zero(P.m)
    for j in range(steps):
        xj = x_bar + scale * (decay ** j) * d
        spec = eigh(P.constraint_value(xj))
        iterates.append(PenaltyIterate(
            k=j, rho=0.0, x=xj, multiplier=zero,
            eigenvalues=spec.values.copy(),
            eigenvectors=spec.vectors.copy(),
            stationarity_residual=0.0, multiplier_norm=0.0))
    return PenaltyTrace(problem=P.name, iterates=iterates, kind="path",
                        trace_id=trace_id)


def usable_records_per_record(trace: PenaltyTrace, rank: int,
                              tol_rank: float) -> List[int]:
    """Indices of the iterates whose range/kernel split at rank is
    unambiguous, one record at a time."""
    out = []
    for j, rec in enumerate(trace.iterates):
        vals = rec.eigenvalues
        scale = max(1.0, float(np.max(np.abs(vals), initial=0.0)))
        if rank > 0 and vals[rank - 1] <= 2.0 * tol_rank * scale:
            continue
        out.append(j)
    return out


def persistent_clusters_per_record(records: Sequence[PenaltyIterate],
                                   rank: int) -> List[List[int]]:
    """Kernel eigenvalue clusters that persist along every record, one
    record and one neighbouring pair at a time."""
    k = records[0].eigenvalues.shape[0] - rank
    merged = [True] * max(k - 1, 0)
    for rec in records:
        vals = rec.eigenvalues[rank:]
        tau = TAU_CLUSTER * (1.0 + float(np.max(np.abs(rec.eigenvalues),
                                                initial=0.0)))
        for i in range(k - 1):
            if abs(vals[i] - vals[i + 1]) >= tau:
                merged[i] = False
    clusters: List[List[int]] = [[0]] if k else []
    for i in range(1, k):
        if merged[i - 1]:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


# default_trace_family with every trace built at once, and the probes'
# trace loop testing every trace, also after one that refutes


def trace_family_eager(P: NsdpProblem, cfg: PenaltyConfig,
                       count: int = 8, seed: int = 0) -> List[PenaltyTrace]:
    """One penalty trace plus axis and random-direction paths to x_bar.

    seed draws the random directions, which are used once the axis
    paths are spent.

    The penalty trace is dropped when its final iterate stays further
    than 1e-6 from the anchor; on degenerate problems the outer loop
    converges like a fractional power of 1/rho and the truncated run
    would violate the probes' proximity requirement.
    """
    if count < 1:
        raise ValueError("at least one trace is required")
    x_bar = cfg.anchor
    traces = []
    pen = run_penalty(P, cfg)
    if float(np.linalg.norm(pen.converged_point - x_bar)) <= 1e-6:
        traces.append(pen)
    axis_dirs = []
    for i in range(P.n):
        e = np.zeros(P.n)
        e[i] = 1.0
        axis_dirs += [e.copy(), -e]
    for idx, d in enumerate(axis_dirs):
        if len(traces) >= count:
            break
        traces.append(make_path_trace(P, x_bar, d, trace_id=f"axis{idx}"))
    rng = np.random.default_rng(seed)
    ray = 0
    while len(traces) < count:
        g = rng.standard_normal(P.n)
        nrm = float(np.linalg.norm(g))
        if nrm < 1e-12:
            continue
        traces.append(make_path_trace(P, x_bar, g / nrm,
                                      trace_id=f"ray{ray}"))
        ray += 1
    return traces


def probe_traces_full_scan(pd: PointData, traces: Sequence[PenaltyTrace],
                           seed: int, positive: bool):
    """Shared trace loop for both weak probes.

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
    x_bar, K, rank, tol_rank = pd.x, pd.E, pd.rank, pd.tol_rank
    eq_rows = list(pd.Heq)

    def diagonal(cols: np.ndarray) -> np.ndarray:
        return np.diagonal(compress(pd.W, cols), axis1=1, axis2=2).T

    results: List[SequenceProbeResult] = []
    certified_fail: Optional[SequenceProbeResult] = None
    for t_idx, trace in enumerate(traces):
        dist = float(np.linalg.norm(trace.converged_point - x_bar))
        if dist > 1e-6:
            raise ValueError(
                f"trace {trace.trace_id} converges {dist:.2e} away from the "
                "queried point")
        values = np.stack([rec.eigenvalues for rec in trace.iterates])
        usable = _usable_records(values, rank, tol_rank)
        E = _snap_to_kernel(
            trace.iterates[usable[-1]].eigenvectors[:, rank:], K)
        log = []
        if E is None:
            E = K.copy()
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
                E = E @ _block_rotation(
                    clusters, E.shape[1],
                    np.random.default_rng([seed, t_idx]))
                li = li_test(list(diagonal(E)) + eq_rows)
            score, ok, exhaustive = li.sigma_min, li.independent, not free
        res = SequenceProbeResult(
            trace_id=trace.trace_id,
            limit_basis=E, clusters=clusters, sigma_min=score, passed=ok,
            exhaustive=exhaustive, cone=cone, log=log)
        results.append(res)
        if not ok and exhaustive and certified_fail is None:
            certified_fail = res
    return results, certified_fail


def schur_value_per_point(pd: PointData, x) -> np.ndarray:
    """The Schur map Gtil at one point, evaluated, decomposed and solved
    on its own; NumericalFailure when its range block is singular."""
    Pbar = pd.spec.vectors[:, :pd.rank]
    Gq = pd.P.constraint_value(x).a
    B = Pbar.T @ Gq @ Pbar
    bspec = eigh(SymMat.from_symmetric(B))
    lam1 = abs(float(bspec.values[0]))
    if float(bspec.values[-1]) <= 1e-12 * max(1.0, lam1):
        raise NumericalFailure("range block singular at sample point")
    half = np.linalg.solve(B, Pbar.T @ Gq)
    return Gq - (Gq @ Pbar) @ half


def tilde_map_per_sample(pd: PointData):
    """The sampled Schur-map pattern of tilde_map, one sample at a time:
    the same draws, the same skip of tiny draws and singular range
    blocks, and an entry-by-entry threshold test; (sorted pairs,
    provenance) as tilde_map returns them."""
    P, x, m = pd.P, pd.x, pd.P.m
    if pd.rank == 0:
        return sorted(P.constraint.entries), {"pattern_source": "exact"}
    rng = np.random.default_rng(TILDE_SEED)
    hits = set()
    used = 0
    for _ in range(TILDE_SAMPLES):
        g = rng.standard_normal(P.n)
        nrm = float(np.linalg.norm(g))
        if nrm < 1e-12:
            continue
        try:
            Gt = schur_value_per_point(pd, x + TILDE_RADIUS * g / nrm)
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
    return sorted(hits), {"pattern_source": "sampled",
                          "sample_points": used, "sample_tol": TILDE_TOL}


def poly_terms_per_term(n: int, terms) -> tuple:
    """Poly's canonical term tuple with each exponent converted and
    checked one element at a time in Python generators.  An exponent
    that int() changes, such as 1.5, is truncated, not refused: the
    library refuses it, after every check this one makes."""
    if not (1 <= n <= MAX_VARS):
        raise ProblemFormatError(f"variable count {n} outside [1, {MAX_VARS}]")
    acc = {}
    for coef, exps in terms:
        exps = tuple(int(e) for e in exps)
        if len(exps) != n:
            raise ProblemFormatError(
                f"exponent tuple {exps} does not have {n} entries")
        if any(e < 0 for e in exps):
            raise ProblemFormatError(f"negative exponent in {exps}")
        if sum(exps) > MAX_DEGREE:
            raise ProblemFormatError(
                f"term degree {sum(exps)} exceeds cap {MAX_DEGREE}")
        c = float(coef)
        if not np.isfinite(c):
            raise ProblemFormatError("non-finite coefficient")
        acc[exps] = acc.get(exps, 0.0) + c
    return tuple(sorted(
        ((c, e) for e, c in acc.items() if abs(c) >= COEF_DROP),
        key=lambda t: t[1]))


def poly_from_json_per_term(n: int, data, where: str = "poly") -> tuple:
    """Poly.from_json's term checks, every exponent list tested element by
    element, then poly_terms_per_term; the canonical term tuple."""
    if not isinstance(data, list):
        raise ProblemFormatError(f"{where}: expected a list of terms")
    terms = []
    for k, item in enumerate(data):
        if not isinstance(item, dict):
            raise ProblemFormatError(f"{where}[{k}]: expected an object")
        extra = set(item) - {"c", "e"}
        if extra:
            raise ProblemFormatError(
                f"{where}[{k}]: unknown keys {sorted(extra)}")
        if "c" not in item or "e" not in item:
            raise ProblemFormatError(f"{where}[{k}]: needs 'c' and 'e'")
        c = item["c"]
        e = item["e"]
        if not isinstance(c, (int, float)) or isinstance(c, bool):
            raise ProblemFormatError(f"{where}[{k}]: 'c' must be a number")
        if not isinstance(e, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in e):
            raise ProblemFormatError(
                f"{where}[{k}]: 'e' must be a list of integers")
        terms.append((float(c), tuple(e)))
    return poly_terms_per_term(n, terms)


def problem_from_json_per_term(obj: dict) -> NsdpProblem:
    """The problem of a well-formed JSON object with every polynomial's
    terms from poly_from_json_per_term, set on the Poly as they come."""
    n = obj["n"]

    def poly(data):
        p = object.__new__(Poly)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "terms", poly_from_json_per_term(n, data))
        return p

    entries = {(e["i"], e["j"]): poly(e["poly"]) for e in obj["constraint"]}
    return NsdpProblem(n, poly(obj["objective"]),
                       MatrixPoly(obj["m"], n, entries, obj.get("blocks")),
                       [poly(h) for h in obj.get("equalities", ())],
                       name=obj["name"])
