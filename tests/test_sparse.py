"""Tests for the sparsity-aware checks.

Reduced-map entries, sparsity patterns, and verdicts below were worked
out by hand for the small problem zoo and are frozen as expected values;
the property loops check the structural identities (hat-map gradients,
Schur-map feasibility equivalence, reduction soundness, pattern
cardinality invariance) on seeded random instances.
"""
import itertools
import json

import numpy as np
import pytest

from nsdpcq.cqcheck import (
    CqStatus,
    CqVerdict,
    check_robinson,
    compress,
    feasibility_data,
    li_test,
)
from nsdpcq.errors import InfeasiblePointError, NumericalFailure
from nsdpcq.model import MatrixPoly, NsdpProblem, Poly
from nsdpcq.corpus import entries
from nsdpcq.penalty import (
    PenaltyConfig,
    default_trace_family,
    probe_weak_ndg,
    probe_weak_robinson,
)
from nsdpcq.report import AnalysisOptions, analyze_problem, report_json_text
from nsdpcq import cqcheck, sparse
from nsdpcq.sparse import (
    PATTERN_COEF_TOL,
    TILDE_SAMPLES,
    TILDE_TOL,
    FacialReduction,
    check_forsgren,
    check_sparse_ndg,
    facial_reduce,
    tilde_map,
    _entry_poly,
    _pattern_pairs,
    _schur_value,
)
from nsdpcq.symmat import SymMat, eigh, random_rotation

from oracles import (
    check_sparse_ndg_multifold,
    congruence_entries,
    entry_gradient,
    find_multiplier,
    poly_eval,
    poly_grad,
    schur_value_per_point,
    sparse_card_invariance,
    tilde_map_per_sample,
)
from survey import instances as survey_instances
from inputs import shifted_problem  # on the path survey sets
from test_cqcheck import (
    RANK0_PROBLEM,
    RT2,
    replay_cone_witness,
    replay_family_witness,
    block2_problem,
    diag3_problem,
    facial_problem,
    fullmat_problem,
    interior_problem,
    offdiag_problem,
    scalar2_problem,
    xv,
)


def diag2_problem():
    # G = diag(x1, x2), partially active at (1, 0)
    G = MatrixPoly(2, 2, {(0, 0): xv(2, 0), (1, 1): xv(2, 1)})
    return NsdpProblem(n=2, objective=xv(2, 0), constraint=G, name="diag2")


def lifted_kernel(P, x):
    return feasibility_data(P, np.asarray(x, dtype=float)).E


def hat_pairs(P, E):
    """Pattern of E^T G(.) E, its sorted pairs read off the stack."""
    return _pattern_pairs(compress(P.constraint_stack(), E))


def hat_entry(P, E, i, j):
    """Entry (i, j) of E^T G(.) E as a polynomial off the stack."""
    return _entry_poly(P, compress(P.constraint_stack(), E), i, j)


def coefficient_matrices(P):
    """{exponent: A_e} built term by term from the constraint's entries,
    so that G(x) = sum_e x^e A_e without the compiled stack."""
    out = {}
    for (a, b), p in P.constraint.entries.items():
        for c, e in p.terms:
            A = out.setdefault(e, np.zeros((P.m, P.m)))
            A[a, b] += c
            if a != b:
                A[b, a] += c
    return out


class TestHatMap:
    def test_pattern_pairs_sorted_row_major(self):
        # upper-triangle pairs with a coefficient above PATTERN_COEF_TOL in
        # some matrix of the stack, row by row; the lower triangle and the
        # coefficients at the threshold are not read
        S = np.zeros((2, 3, 3))
        S[0, 2, 2] = S[1, 0, 1] = S[0, 1, 2] = 1.0
        S[1, 2, 0] = 5.0
        S[0, 0, 0] = PATTERN_COEF_TOL
        S[1, 1, 1] = -2.0 * PATTERN_COEF_TOL
        assert _pattern_pairs(S) == [(0, 1), (1, 1), (1, 2), (2, 2)]
        assert _pattern_pairs(-S) == _pattern_pairs(S)
        assert _pattern_pairs(np.zeros((0, 2, 2))) == []

    def test_facial_full_kernel_pattern(self):
        # at the origin the whole space is the kernel and the compression
        # is G itself: entries (0,0) and (0,1) present, (1,1) missing
        P = facial_problem()
        E = lifted_kernel(P, [0.0, 0.0])
        assert E.shape[1] == 2
        assert hat_pairs(P, E) == [(0, 0), (0, 1)]

    def test_facial_active_point_pattern_empty(self):
        P = facial_problem()
        E = lifted_kernel(P, [1.0, 0.0])
        assert E.shape[1] == 1
        assert hat_pairs(P, E) == []
        assert hat_entry(P, E, 0, 0).is_zero()

    def test_offdiag_rotated_basis_diagonalizes(self):
        # the 45 degree basis cancels the off-diagonal entry below the
        # coefficient threshold, leaving two structurally nonzero diagonals
        P = offdiag_problem()
        E = lifted_kernel(P, [0.0, 0.0])
        C = np.array([[RT2, -RT2], [RT2, RT2]])
        Er = E @ C
        assert hat_pairs(P, Er) == [(0, 0), (1, 1)]
        assert hat_entry(P, Er, 0, 1).is_zero()
        p00 = hat_entry(P, Er, 0, 0)
        assert abs(poly_eval(p00, np.array([0.3, 0.4])) - (0.3 + 0.4)) < 1e-12
        p11 = hat_entry(P, Er, 1, 1)
        assert abs(poly_eval(p11, np.array([0.3, 0.4])) - (0.3 - 0.4)) < 1e-12

    def test_congruence_matches_numeric_evaluation(self):
        rng = np.random.default_rng(3)
        P = fullmat_problem()
        E = lifted_kernel(P, [0.0, 0.0, 0.0])
        C = random_rotation(2, rng)
        Er = E @ C
        polys = [[hat_entry(P, Er, i, j) for j in range(2)] for i in range(2)]
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=3)
            direct = Er.T @ P.constraint_value(x).a @ Er
            got = np.array([[poly_eval(p, x) for p in row] for row in polys])
            assert np.max(np.abs(got - direct)) < 1e-10

    def test_stack_entries_match_term_by_term_congruence(self):
        # random congruences L^T G L and one-sided rows L^T G, the two
        # reductions read off the stack: every stack entry is the
        # polynomial sum_e (L^T A_e R)_ij x^e, R = L or I, and evaluates
        # to L^T G(x) R
        rng = np.random.default_rng(5)
        for P in (fullmat_problem(), block2_problem(), offdiag_problem()):
            A = coefficient_matrices(P)
            for _ in range(5):
                L = rng.standard_normal((P.m, int(rng.integers(1, P.m + 1))))
                x = rng.uniform(-1.0, 1.0, size=P.n)
                for R, Bs in ((L, compress(P.constraint_stack(), L)),
                              (np.eye(P.m), L.T @ P.constraint_stack())):
                    for i, j in np.ndindex(L.shape[1], R.shape[1]):
                        p = _entry_poly(P, Bs, i, j)
                        terms = {e: c for c, e in p.terms}
                        for e, Ae in A.items():
                            assert abs(terms.get(e, 0.0)
                                       - (L.T @ Ae @ R)[i, j]) < 2e-12
                        assert set(terms) <= set(A)
                        want = (L.T @ P.constraint_value(x).a @ R)[i, j]
                        assert abs(poly_eval(p, x) - want) < 1e-10

    def test_gradient_identity(self):
        # gradients of the compressed entries at the anchor coincide with
        # the entry-gradient family for the same basis
        rng = np.random.default_rng(11)
        for trial in range(50):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            entries = {}
            for i in range(m):
                for j in range(i, m):
                    if rng.random() < 0.6:
                        terms = [(float(rng.standard_normal()),
                                  tuple(int(e) for e in rng.multinomial(1, np.ones(n) / n)))]
                        entries[(i, j)] = Poly(n, terms)
            if not entries:
                continue
            P = NsdpProblem(n=n, objective=Poly.zero(n),
                            constraint=MatrixPoly(m, n, entries),
                            name=f"rand{trial}")
            x = np.zeros(n)
            E = lifted_kernel(P, x)
            k = E.shape[1]
            if k == 0:
                continue
            Er = E @ random_rotation(k, rng)
            for i in range(k):
                for j in range(i, k):
                    got = np.array([poly_eval(g, x) for g in
                                    poly_grad(hat_entry(P, Er, i, j))])
                    want = entry_gradient(P, x, Er[:, i], Er[:, j])
                    assert np.max(np.abs(got - want)) < 1e-10


class TestTildeMap:
    def test_partially_active_diagonal_pattern(self):
        P = diag2_problem()
        pairs, prov = tilde_map(feasibility_data(P, [1.0, 0.0]))
        assert prov == {"pattern_source": "sampled",
                        "sample_points": TILDE_SAMPLES,
                        "sample_tol": TILDE_TOL}
        assert pairs == [(1, 1)]

    def test_vanishes_at_anchor(self):
        for P, x in [(diag2_problem(), [1.0, 0.0]),
                     (facial_problem(), [1.0, 0.0])]:
            val = _schur_value(feasibility_data(P, x), np.asarray(x))
            assert np.max(np.abs(val)) < 1e-8

    def test_zero_rank_reduces_to_constraint(self):
        P = offdiag_problem()
        pairs, prov = tilde_map(feasibility_data(P, [0.0, 0.0]))
        assert prov == {"pattern_source": "exact"}
        assert pairs == [(0, 0), (0, 1), (1, 1)]

    def test_stacked_map_matches_per_sample_oracle(self):
        # the corpus at its pinned points, the benchmark instances and the
        # seeded survey draws: the stacked pass gives the pattern of the
        # one-sample-at-a-time loop, in the same order, with the same
        # sample count
        draws = 0
        for name, obj, point in survey_instances():
            pd = feasibility_data(NsdpProblem.from_json(obj), point)
            assert tilde_map(pd) == tilde_map_per_sample(pd), name
            draws += name.startswith("draw") and pd.rank >= 1
        assert draws >= 50

    def test_singular_samples_are_left_out(self):
        # G = diag(1e-7 - x1^2, x2) at 0 has rank 1, and its range block
        # turns negative wherever |x1| > 3.2e-4 on the sampled sphere of
        # radius 1e-3, so some samples are dropped and the rest decide
        P = NsdpProblem(2, xv(2, 0), MatrixPoly.diagonal(
            [Poly.const(2, 1e-7) - xv(2, 0) * xv(2, 0), xv(2, 1)]))
        pd = feasibility_data(P, [0.0, 0.0])
        assert pd.rank == 1
        pairs, prov = tilde_map(pd)
        assert 0 < prov["sample_points"] < TILDE_SAMPLES
        assert pairs == [(1, 1)]
        assert (pairs, prov) == tilde_map_per_sample(pd)
        # a stack keeps only its regular points, in order
        X = np.array([[1e-4, 0.0], [1e-3, 0.0], [0.0, 1e-3]])
        Gt = _schur_value(pd, X)
        assert Gt.shape == (2, 2, 2)
        for got, x in zip(Gt, X[[0, 2]]):
            assert got.tobytes() == schur_value_per_point(pd, x).tobytes()

    def test_every_sample_singular_raises(self):
        # G = diag(1e-7 - x1^2 - x2^2, x2): the range block is
        # 1e-7 - 1e-6 < 0 at every point of the sampled sphere
        P = NsdpProblem(2, xv(2, 0), MatrixPoly.diagonal(
            [Poly.const(2, 1e-7) - xv(2, 0) * xv(2, 0)
             - xv(2, 1) * xv(2, 1), xv(2, 1)]))
        pd = feasibility_data(P, [0.0, 0.0])
        assert pd.rank == 1
        for pattern in (tilde_map, tilde_map_per_sample):
            with pytest.raises(NumericalFailure, match="every sample"):
                pattern(pd)

    def test_feasibility_equivalence_near_anchor(self):
        # with the range block positive definite, G(x) is positive
        # semidefinite exactly when the Schur map is; the Schur map keeps
        # structural zero eigenvalues along the range directions, so its
        # sign test carries a rounding band
        rng = np.random.default_rng(7)
        for P, x in [(diag2_problem(), [1.0, 0.0]),
                     (facial_problem(), [1.0, 0.0])]:
            x = np.asarray(x, dtype=float)
            pd = feasibility_data(P, x)
            agree = 0
            for _ in range(100):
                g = rng.standard_normal(P.n)
                xs = x + 1e-3 * g / np.linalg.norm(g)
                lam_g = float(eigh(P.constraint_value(xs)).values[-1])
                if abs(lam_g) < 1e-9:
                    continue       # too close to the boundary to classify
                lam_t = float(eigh(SymMat.from_symmetric(
                    _schur_value(pd, xs))).values[-1])
                assert (lam_g > 0) == (lam_t > -1e-12), (P.name, xs)
                agree += 1
            assert agree >= 85


def replay_forsgren_dual(witness, tol=1e-7):
    """Replay a Forsgren dual witness from its multiplier and pattern.

    Y = E S E^T must be PSD with unit trace and vanish on every pattern
    pair, so no element of the pattern subspace is positive definite.
    """
    Y = np.asarray(witness["multiplier"], dtype=float)
    assert np.max(np.abs(Y - Y.T)) <= 1e-12
    assert float(np.linalg.eigvalsh(Y)[0]) >= -1e-12
    assert abs(float(np.trace(Y)) - 1.0) <= 1e-12
    assert witness["residual"] <= tol
    for a, b in witness["pattern"]:
        assert abs(Y[a, b]) <= tol


def replay_sparse_witness(P, x, witness):
    """Rebuild the certified family from a Holds witness and re-test it.

    The pattern is re-derived from the polynomial coefficients of
    E^T G(.) E, built term by term from the constraint's entries, so a
    witness claiming fewer entries than its basis has does not replay;
    every diagonal entry must be in it.
    """
    x = np.asarray(x, dtype=float)
    E = np.asarray(witness["basis"])
    k = E.shape[1]
    assert np.max(np.abs(E.T @ E - np.eye(k))) < 1e-10
    mx = np.max([np.abs(E.T @ A @ E) for A in coefficient_matrices(P).values()],
                axis=0)
    pattern = [(i, j) for i in range(k) for j in range(i, k)
               if mx[i, j] > PATTERN_COEF_TOL]
    assert [tuple(pr) for pr in witness["pattern"]] == pattern
    assert witness["cardinality"] == len(pattern)
    assert all((i, i) in pattern for i in range(k))
    vecs = [entry_gradient(P, x, E[:, i], E[:, j]) for (i, j) in pattern]
    Heq = P.equality_gradients(x)
    vecs += [Heq[i] for i in range(Heq.shape[0])]
    res = li_test(vecs)
    assert res.independent
    return res


class TestSparseNdg:
    def test_diag3_holds(self):
        P = diag3_problem()
        v = check_sparse_ndg(feasibility_data(P, [0.0, 0.0, 0.0]))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        assert v.witness["pattern"] == [(0, 0), (1, 1), (2, 2)]
        replay_sparse_witness(P, [0.0, 0.0, 0.0], v.witness)

    def test_fullmat_holds_full_pattern(self):
        P = fullmat_problem()
        v = check_sparse_ndg(feasibility_data(P, [0.0, 0.0, 0.0]))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        assert v.witness["cardinality"] == 3
        replay_sparse_witness(P, [0.0, 0.0, 0.0], v.witness)

    def test_interior_trivial(self):
        v = check_sparse_ndg(feasibility_data(interior_problem(), [0.0, 0.0]))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        assert v.witness is None

    def test_offdiag_holds_via_rotation(self):
        # nondegeneracy fails here, but the rotated basis shrinks the
        # pattern to two diagonal entries with independent gradients
        P = offdiag_problem()
        v = check_sparse_ndg(feasibility_data(P, [0.0, 0.0]))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        assert v.witness["pattern"] == [(0, 0), (1, 1)]
        replay_sparse_witness(P, [0.0, 0.0], v.witness)
        # the witness basis is the 45 degree rotation up to signs
        E = np.abs(np.asarray(v.witness["basis"]))
        assert np.max(np.abs(E - RT2)) < 1e-8

    def test_block2_holds_joint_diagonalized(self):
        P = block2_problem()
        v = check_sparse_ndg(feasibility_data(P, [0.0, 0.0, 0.0]))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        assert v.witness["provenance"] == "eigenbasis"
        assert v.witness["pattern"] == [(0, 0), (1, 1), (2, 2)]
        replay_sparse_witness(P, [0.0, 0.0, 0.0], v.witness)

    def test_tridiagonal_holds_in_the_fixed_basis(self, monkeypatch):
        # G = [[x1, x4, 0], [x4, x2, x5], [0, x5, x3]] at 0: in the fixed
        # basis, the axes, the pattern is the five structural entries,
        # whose gradients are the five unit vectors of R^5; a generic
        # rotation fills the (0, 2) entry too, and six gradients in R^5
        # are dependent, so only the fixed candidate certifies
        x = [xv(5, i) for i in range(5)]
        G = MatrixPoly(3, 5, {(0, 0): x[0], (1, 1): x[1], (2, 2): x[2],
                              (0, 1): x[3], (1, 2): x[4]})
        P = NsdpProblem(n=5, objective=x[0], constraint=G, name="tridiag")
        pd = feasibility_data(P, np.zeros(5))
        v = check_sparse_ndg(pd)
        assert v.status == CqStatus.HOLDS_CERTIFIED
        assert v.witness["provenance"] == "fixed"
        assert v.witness["sigma_min"] == pytest.approx(1.0, abs=1e-12)
        assert "fixed basis: hits 3/3, sigma_min 1.000e+00" in v.log
        replay_sparse_witness(P, np.zeros(5), v.witness)
        # with the fixed candidate scored as failing, the eigenbasis is
        # all that is left, and it decides nothing
        score = sparse._score
        calls = []

        def fixed_fails(*args):
            calls.append(args)
            hits, success, pairs, li = score(*args)
            return hits, success and len(calls) > 1, pairs, li

        monkeypatch.setattr(sparse, "_score", fixed_fails)
        v = check_sparse_ndg(pd)
        assert v.status == CqStatus.UNDETERMINED
        assert len(calls) == 2 and v.log[-1].startswith("eigenbasis:")

    def test_scalar2_fails_diagonal_route(self):
        # two diagonal gradients in R^1: the dimension bound decides it
        # before the diagonal reduction is reached
        P = scalar2_problem()
        v = check_sparse_ndg(feasibility_data(P, [0.0]))
        assert v.status == CqStatus.FAILS
        assert v.reason == ("dimension bound: a family of 2 gradients "
                            "cannot be independent in R^1")
        c = np.asarray(v.witness["coeffs"])
        V = np.asarray(v.witness["vectors"])
        assert np.linalg.norm(c @ V) < 1e-7

    def test_facial_fails_null_diagonal_route(self):
        # G_22 is identically zero, so e2 e2^T annihilates the adjoint:
        # Robinson's dual certificate, which sparse nondegeneracy excludes
        P = facial_problem()
        x = np.array([1.0, 0.0])
        v = check_sparse_ndg(feasibility_data(P, x))
        assert v.status == CqStatus.FAILS
        assert v.reason.startswith("Robinson's condition fails")
        Y = np.asarray(v.witness["multiplier"])
        # the witness multiplier annihilates the adjoint and is
        # complementary to G at the point
        assert np.allclose(Y, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)
        assert v.witness["residual"] <= 1e-12
        assert float(np.linalg.norm(P.adjoint(x, Y))) <= 1e-12
        assert abs(float(np.sum(P.constraint_value(x).a * Y))) <= 1e-12
        replay_cone_witness(P, x, v.witness)

    def test_dimension_bound_fails(self):
        # one variable cannot carry two independent diagonal gradients
        G = MatrixPoly(2, 1, {(0, 0): xv(1, 0), (0, 1): xv(1, 0),
                              (1, 1): xv(1, 0)})
        P = NsdpProblem(n=1, objective=xv(1, 0), constraint=G, name="thin")
        v = check_sparse_ndg(feasibility_data(P, [0.0]))
        assert v.status == CqStatus.FAILS
        assert "dimension" in v.reason
        c = np.asarray(v.witness["coeffs"])
        V = np.asarray(v.witness["vectors"])
        assert np.linalg.norm(c @ V) < 1e-7

    def test_robinson_backup_route(self):
        # every basis keeps a full pattern here, and the quadratic entry
        # kills the (1,1) gradient at the origin; the search cannot
        # succeed, but the Robinson refutation certifies the failure
        G = MatrixPoly(2, 2, {(0, 0): xv(2, 0), (0, 1): xv(2, 1),
                              (1, 1): Poly(2, [(1.0, (2, 0))])})
        P = NsdpProblem(n=2, objective=xv(2, 0), constraint=G, name="quadcorner")
        v = check_sparse_ndg(feasibility_data(P, [0.0, 0.0]))
        assert v.status == CqStatus.FAILS
        assert "Robinson" in v.reason
        assert v.witness is not None

    def test_analysis_reuses_robinson_verdict(self, monkeypatch):
        # degenerate00 takes the Robinson fallback of sparse_ndg; the
        # analysis hands it the verdict it already has, so Robinson's
        # saddle solve runs once
        import nsdpcq.report
        import nsdpcq.sparse
        calls = []
        for mod in (nsdpcq.report, nsdpcq.sparse):
            def counted(pd, _inner=mod.check_robinson):
                calls.append(pd)
                return _inner(pd)
            monkeypatch.setattr(mod, "check_robinson", counted)
        P = NsdpProblem.from_json(RANK0_PROBLEM)
        rep = analyze_problem(P, np.zeros(P.n),
                              AnalysisOptions(timestamp=False))
        assert rep.verdicts["sparse_ndg"].status == CqStatus.FAILS
        assert "Robinson" in rep.verdicts["sparse_ndg"].reason
        assert len(calls) == 1
        # a standalone call still decides Robinson itself
        alone = check_sparse_ndg(feasibility_data(P, np.zeros(P.n)))
        assert len(calls) == 2
        assert alone.to_json() == rep.verdicts["sparse_ndg"].to_json()

    def test_given_robinson_failure_skips_the_search(self, monkeypatch):
        # degenerate00's fixed basis fails, so a search would go on to the
        # eigenbasis; a given Robinson Fails refutes sparse
        # nondegeneracy first and hands over its witness
        import nsdpcq.sparse
        P = NsdpProblem.from_json(RANK0_PROBLEM)
        pd = feasibility_data(P, np.zeros(P.n))
        rob = check_robinson(pd)
        assert rob.status == CqStatus.FAILS
        combos = []
        real = nsdpcq.sparse.eigh
        monkeypatch.setattr(nsdpcq.sparse, "eigh",
                            lambda M: combos.append(M) or real(M))
        v = check_sparse_ndg(pd, rob)
        assert v.status == CqStatus.FAILS
        assert v.witness is rob.witness
        assert combos == []
        replay_cone_witness(P, np.zeros(P.n), v.witness)
        # a certified Robinson hold refutes nothing: the search runs on
        # to the eigenbasis of a rotated diag3, whatever the rotation and
        # the scale of G (at rank 0 nothing else in the check decomposes
        # a matrix, so each search is one eigh)
        for seed in range(3):
            Q = random_rotation(3, np.random.default_rng(seed))
            for s in (1e-3, 1.0, 1e3):
                R = NsdpProblem(3, diag3_problem().objective, MatrixPoly(
                    3, 3, {ij: p.scale(s) for ij, p in congruence_entries(
                        diag3_problem(), Q).items()}))
                pd = feasibility_data(R, np.zeros(3))
                rob = check_robinson(pd)
                assert rob.status == CqStatus.HOLDS_CERTIFIED, (seed, s)
                del combos[:]
                v = check_sparse_ndg(pd, rob)
                assert len(combos) == 1, (seed, s)
                assert v.status == CqStatus.HOLDS_CERTIFIED, (seed, s)
                assert v.witness["provenance"] == "eigenbasis"
                assert v.witness["pattern"] == [(0, 0), (1, 1), (2, 2)]
                replay_sparse_witness(R, np.zeros(3), v.witness)
                assert v.to_json() == check_sparse_ndg(pd).to_json()

    def test_noncommuting_block_stack_split_by_eigenbasis(self):
        # G = Q^T diag([[x1, x2], [x2, x3]], x4) Q: the coefficient stack
        # does not commute, but the 2 x 2 and 1 x 1 blocks are common to
        # it, and the eigenbasis recovers them: a 4-entry pattern whose
        # gradients span the four coordinates
        G = MatrixPoly.block_diag([
            MatrixPoly(2, 4, {(0, 0): xv(4, 0), (0, 1): xv(4, 1),
                              (1, 1): xv(4, 2)}),
            MatrixPoly(1, 4, {(0, 0): xv(4, 3)})])
        P = NsdpProblem(4, xv(4, 0), G, name="block21")
        for seed in range(4):
            Q = random_rotation(3, np.random.default_rng([5, seed]))
            R = NsdpProblem(4, P.objective,
                            MatrixPoly(3, 4, congruence_entries(P, Q)),
                            name="block21-rotated")
            A = R.constraint_stack()
            assert max(np.abs(a @ b - b @ a).max() for a in A for b in A) > 0.1
            v = check_sparse_ndg(feasibility_data(R, np.zeros(4)))
            assert v.status == CqStatus.HOLDS_CERTIFIED, (seed, v.log)
            assert v.witness["provenance"] == "eigenbasis"
            assert v.witness["cardinality"] == 4
            replay_sparse_witness(R, np.zeros(4), v.witness)

    def test_undetermined_when_no_route_applies(self):
        # sparse nondegeneracy genuinely fails (every basis has a full
        # pattern, three entries against two variables) while Robinson
        # holds, so no refutation certificate exists
        G = MatrixPoly(2, 2, {(0, 0): xv(2, 0), (0, 1): xv(2, 1),
                              (1, 1): xv(2, 0, 2.0)})
        P = NsdpProblem(n=2, objective=xv(2, 0), constraint=G, name="stuck")
        v = check_sparse_ndg(feasibility_data(P, [0.0, 0.0]))
        assert v.status == CqStatus.UNDETERMINED

    def test_full_coefficient_span_refutes_with_nondegeneracy(self):
        # survey draw194 at 0: kernel dimension 2, and E^T A_t E over the
        # monomials x1, x2 and x1 x2 span all of Sym(2), so every kernel
        # basis sees the full pattern and sparse nondegeneracy fails with
        # nondegeneracy (the x1 x2 entry's gradient vanishes at 0); no
        # basis search could certify that, and Robinson holds
        obj = {"name": "draw194", "n": 2, "m": 2,
               "objective": [{"c": 1.0, "e": [1, 0]}],
               "constraint": [
                   {"i": 0, "j": 0, "poly": [
                       {"c": -1.9547741908423308, "e": [1, 0]}]},
                   {"i": 0, "j": 1, "poly": [
                       {"c": 1.443597344787052, "e": [1, 1]}]},
                   {"i": 1, "j": 1, "poly": [
                       {"c": -1.626074601029064, "e": [0, 1]},
                       {"c": 0.7387617719816764, "e": [1, 0]}]}]}
        P = NsdpProblem.from_json(obj)
        x = np.zeros(2)
        pd = feasibility_data(P, x)
        assert check_robinson(pd).status == CqStatus.HOLDS_CERTIFIED
        v = check_sparse_ndg(pd)
        assert v.status == CqStatus.FAILS
        assert "every kernel basis sees the full pattern" in v.reason
        w = v.witness
        replay_family_witness(P, x, w)
        # span_sigma_min replays from the problem and the basis: the
        # third singular value of the compressed coefficients, flattened
        E = np.asarray(w["basis"])
        flat = np.array([(E.T @ A @ E).ravel()
                         for A in coefficient_matrices(P).values()])
        sv = np.linalg.svd(flat, compute_uv=False)
        assert len(sv) >= 3
        assert w["span_sigma_min"] == pytest.approx(sv[2], rel=1e-12)
        assert w["span_sigma_min"] > 1e-8 * max(1.0, sv[0])
        assert analyze_problem(P, x).verdicts["sparse_ndg"].status == \
            CqStatus.FAILS

    def test_infeasible_point_raises(self):
        with pytest.raises(InfeasiblePointError):
            check_sparse_ndg(
                feasibility_data(diag3_problem(), [-1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_diag3_holds(self, seed):
        # Q^T diag(x1, x2, x3) Q has a commuting coefficient stack, which
        # the joint diagonalization turns back into the diagonal pattern
        P = diag3_problem()
        Q = random_rotation(3, np.random.default_rng(seed))
        R = NsdpProblem(3, P.objective,
                        MatrixPoly(3, 3, congruence_entries(P, Q)),
                        name="diag3-rotated")
        v = check_sparse_ndg(feasibility_data(R, [0.0, 0.0, 0.0]))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        assert v.witness["pattern"] == [(0, 0), (1, 1), (2, 2)]
        replay_sparse_witness(R, [0.0, 0.0, 0.0], v.witness)

    def test_corpus_verdicts_independent_of_seed(self):
        # the search takes no seed, so the analysis seed cannot reach it
        for ent in entries():
            a, b = (analyze_problem(ent.problem, ent.point,
                                    AnalysisOptions(seed=seed, timestamp=False))
                    .verdicts["sparse_ndg"].to_json() for seed in (0, 1))
            assert a == b, ent.id


class TestMultifold:
    def test_block2_union_family(self):
        P = block2_problem()
        v = check_sparse_ndg_multifold(feasibility_data(P, [0.0, 0.0, 0.0]))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        assert "union" in v.reason

    def test_single_block_delegates(self):
        v = check_sparse_ndg_multifold(
            feasibility_data(offdiag_problem(), [0.0, 0.0]))
        assert v.status == CqStatus.HOLDS_CERTIFIED

    def test_agrees_with_assembled_on_random_block_diagonals(self):
        # assembled and per-block verdicts must coincide for
        # block-diagonal constraints
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(2, 5))
            parts = []
            for _ in range(2):
                mb = int(rng.integers(1, 3))
                entries = {}
                for i in range(mb):
                    var = int(rng.integers(0, n))
                    entries[(i, i)] = xv(n, var)
                parts.append(MatrixPoly(mb, n, entries))
            G = MatrixPoly.block_diag(parts)
            P = NsdpProblem(n=n, objective=Poly.zero(n), constraint=G,
                            name=f"bd{trial}")
            x = np.zeros(n)
            a = check_sparse_ndg(feasibility_data(P, x))
            b = check_sparse_ndg_multifold(feasibility_data(P, x))
            assert a.status == b.status, (trial, a.reason, b.reason)


class TestForsgren:
    def test_facial_fails_injectivity(self):
        P = facial_problem()
        v = check_forsgren(feasibility_data(P, [1.0, 0.0]))
        assert v.status == CqStatus.FAILS
        assert "injective" in v.reason
        assert v.witness["image_norm"] < 1e-10
        M = np.asarray(v.witness["matrix"])
        assert abs(abs(M[0, 0]) - 1.0) < 1e-10

    def test_sampled_pattern_named_in_witness(self):
        # rank 1 at (1, 0): the Schur map is rational, its pattern is
        # sampled, and the failure resting on it says so
        v = check_forsgren(feasibility_data(facial_problem(), [1.0, 0.0]))
        assert v.status == CqStatus.FAILS
        assert v.witness["pattern_source"] == "sampled"
        assert 0 < v.witness["sample_points"] <= TILDE_SAMPLES
        assert v.witness["sample_tol"] == TILDE_TOL

    def test_exact_pattern_named_in_witness(self):
        v = check_forsgren(feasibility_data(fullmat_problem(), [0.0, 0.0, 0.0]))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        assert v.witness["pattern_source"] == "exact"
        assert "sample_points" not in v.witness

    def test_offdiag_identity_diagonalizer_fails(self):
        # for U = I the pattern subspace is all of S^2 and the condition
        # collapses to nondegeneracy; the witness is (E11 - E22)/sqrt(2)
        P = offdiag_problem()
        v = check_forsgren(feasibility_data(P, [0.0, 0.0]), U=np.eye(2))
        assert v.status == CqStatus.FAILS
        M = np.abs(np.asarray(v.witness["matrix"]))
        want = np.array([[RT2, 0.0], [0.0, RT2]])
        assert np.max(np.abs(M - want)) < 1e-8
        assert v.witness["image_norm"] < 1e-7

    def test_diag3_holds(self):
        v = check_forsgren(feasibility_data(diag3_problem(), [0.0, 0.0, 0.0]))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        assert v.witness["lambda_min"] > 0.0

    def test_fullmat_holds(self):
        v = check_forsgren(
            feasibility_data(fullmat_problem(), [0.0, 0.0, 0.0]))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        # the search stops at the first comfortably positive element, so
        # only strict positivity of the witness is guaranteed
        assert v.witness["lambda_min"] > 0.0
        M = np.asarray(v.witness["matrix"])
        lam = np.linalg.eigvalsh((M + M.T) / 2.0)
        assert lam.min() == pytest.approx(v.witness["lambda_min"], abs=1e-10)

    def test_scalar2_fails(self):
        v = check_forsgren(feasibility_data(scalar2_problem(), [0.0]))
        assert v.status == CqStatus.FAILS

    def test_block2_fails(self):
        v = check_forsgren(feasibility_data(block2_problem(), [0.0, 0.0, 0.0]),
                           U=np.eye(3))
        assert v.status == CqStatus.FAILS

    def test_interior_trivial(self):
        v = check_forsgren(feasibility_data(interior_problem(), [0.0, 0.0]))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        assert v.reason == "trivial kernel, interior point"

    def test_structural_refutation_of_definiteness(self):
        # the Schur map keeps only an off-diagonal entry on the kernel, so
        # the pattern subspace has identically zero diagonal: injectivity
        # holds, and the identity on the kernel is orthogonal to the
        # subspace, a dual certificate that no positive definite element
        # exists
        G = MatrixPoly(3, 2, {(0, 0): xv(2, 0), (1, 2): xv(2, 1)})
        P = NsdpProblem(n=2, objective=xv(2, 0), constraint=G, name="offker")
        v = check_forsgren(feasibility_data(P, [1.0, 0.0]))
        assert v.status == CqStatus.FAILS
        assert "positive definite" in v.reason
        assert v.witness["pattern"] == [(1, 2)]
        replay_forsgren_dual(v.witness)
        Y = np.asarray(v.witness["multiplier"])
        assert np.allclose(Y, np.diag([0.0, 0.5, 0.5]), atol=1e-12)

    def test_swap_refuted_by_dual_certificate(self):
        # G = [[0, x1], [x1, 0]] at 0 under the 45 degree diagonalizer:
        # the pattern subspace is spanned by diag(1, -1) / sqrt(2), whose
        # diagonal does not vanish, and S = I / 2 is orthogonal to it
        G = MatrixPoly(2, 1, {(0, 1): xv(1, 0)})
        P = NsdpProblem(n=1, objective=xv(1, 0), constraint=G, name="swap")
        U = np.array([[RT2, -RT2], [RT2, RT2]])
        v = check_forsgren(feasibility_data(P, [0.0]), U=U)
        assert v.status == CqStatus.FAILS, v.log
        assert v.witness["pattern"] == [(0, 1)]
        replay_forsgren_dual(v.witness)

    def test_supplied_diagonalizer_is_validated(self):
        P = diag2_problem()
        with pytest.raises(ValueError):
            check_forsgren(feasibility_data(P, [1.0, 0.0]), U=np.eye(3))
        with pytest.raises(ValueError):
            check_forsgren(feasibility_data(P, [1.0, 0.0]), U=2.0 * np.eye(2))
        c, s = np.cos(0.5), np.sin(0.5)
        R = np.array([[c, -s], [s, c]])
        with pytest.raises(ValueError):
            check_forsgren(feasibility_data(P, [1.0, 0.0]), U=R)

    def test_rotation_of_degenerate_block_accepted(self):
        # rotating within the kernel block still diagonalizes G(x), and
        # the verdict is unchanged for this problem
        P = offdiag_problem()
        c, s = np.cos(0.3), np.sin(0.3)
        R = np.array([[c, -s], [s, c]])
        v = check_forsgren(feasibility_data(P, [0.0, 0.0]), U=R)
        assert v.status == CqStatus.FAILS

    def test_pattern_basis_orthonormal_in_sym_k(self, monkeypatch):
        # Forsgren's pattern-subspace basis is orthonormal, lies in Sym(k),
        # spans every compressed pattern matrix and has at most
        # k(k + 1) / 2 elements, on the survey's instances (the corpus,
        # the 14 benchmark instances and the seeded draws) and on larger
        # ones: the (24, 12, 4) and (40, 20, 5) rungs, drawn by
        # continuing the ladder's generator, and an instance at the
        # model caps
        calls = []
        real = sparse._pattern_basis

        def recording(pairs, E):
            out = real(pairs, E)
            calls.append((pairs, E, out))
            return out

        monkeypatch.setattr(sparse, "_pattern_basis", recording)
        rng = np.random.default_rng([0, 1])
        rungs = [shifted_problem(rng, n, m, k, f"ladder_n{n}")
                 for n, m, k in ((6, 4, 2), (12, 8, 3), (24, 12, 4),
                                 (40, 20, 5))][2:]
        rungs.append(shifted_problem(np.random.default_rng([0, 3]),
                                     64, 50, 6, "cap"))
        cases = list(survey_instances()) + [
            (o["name"], o, [0.0] * o["n"]) for o in rungs]
        full = set()
        for name, obj, point in cases:
            del calls[:]
            v = check_forsgren(feasibility_data(NsdpProblem.from_json(obj),
                                                point))
            for pairs, E, T in calls:
                k = E.shape[1]
                dim_T = T.shape[0]
                assert T.shape[1:] == (k, k), name
                assert dim_T <= k * (k + 1) // 2, name
                assert v.witness is None \
                    or v.witness["subspace_dim"] == dim_T, name
                flat = T.reshape(dim_T, -1)
                assert np.abs(flat @ flat.T - np.eye(dim_T)).max() < 1e-12
                assert np.abs(T - T.transpose(0, 2, 1)).max() < 1e-12, name
                # each pattern pair's unit matrix, compressed, lies in
                # the span
                for (a, b) in pairs:
                    S = np.zeros((E.shape[0],) * 2)
                    S[a, b] = S[b, a] = 1.0 if a == b else np.sqrt(0.5)
                    c = (E.T @ S @ E).ravel()
                    assert np.abs(c - flat.T @ (flat @ c)).max() < 1e-9, \
                        (name, a, b)
                if dim_T == k * (k + 1) // 2 < len(pairs):
                    full.add(name)
        # many patterns span all of Sym(k) with more pairs than its
        # dimension, the larger instances' among them
        assert len(full) >= 100
        assert {o["name"] for o in rungs} <= full

    def test_default_diagonalizer_reads_the_point_kernel(self):
        # with U omitted, Forsgren reads pd.E and pd.Wc; passing the same
        # eigenvectors as U takes the kernel columns off U's diagonal at
        # pd.tau and compresses the partials again, and the verdict is
        # the same to the byte on the corpus and the 14 bench instances
        for name, obj, point in itertools.islice(survey_instances(), 21):
            pd = feasibility_data(NsdpProblem.from_json(obj), point)
            default = check_forsgren(pd).to_json()
            explicit = check_forsgren(pd, U=pd.spec.vectors).to_json()
            assert json.dumps(default) == json.dumps(explicit), name

    @pytest.mark.parametrize("ne", [0, 1, 2])
    def test_dependent_by_count_tests_n_plus_one_vectors(self, monkeypatch,
                                                         ne):
        # G = [[x1, x2], [x2, x3]] at 0 with ne of the equalities
        # x1 + x2 + x3 = 0 and x1 - x3 = 0: the pattern subspace is all of
        # Sym(2), three images, and with the equality gradients they
        # outnumber n = 3.  li_test gets the whole family, factors only
        # its first n + 1 vectors, and pads their unit null combination
        # with zeros, so the second equality's coefficient is 0 at ne = 2
        G = MatrixPoly(2, 3, {(0, 0): xv(3, 0), (0, 1): xv(3, 1),
                              (1, 1): xv(3, 2)})
        eqs = (xv(3, 0) + xv(3, 1) + xv(3, 2), xv(3, 0) - xv(3, 2))[:ne]
        P = NsdpProblem(3, xv(3, 0), G, eqs, name="sym2")
        pd = feasibility_data(P, np.zeros(3))
        sizes, factored = [], []
        real_li, real_svd = sparse.li_test, cqcheck.ranked_svd
        monkeypatch.setattr(sparse, "li_test",
                            lambda vs: sizes.append(len(vs)) or real_li(vs))
        monkeypatch.setattr(
            cqcheck, "ranked_svd",
            lambda A, full=False: factored.append(A.shape)
            or real_svd(A, full))
        v = check_forsgren(pd)
        # the equality gradients' own test comes first, then injectivity
        assert sizes == [3 + ne]
        assert factored == [(ne, 3)] * (ne > 0) + [(min(3 + ne, 4), 3)]
        if ne == 0:
            # three images in R^3: no count route, and the pairing of a
            # nondegenerate point is injective
            assert v.status == CqStatus.HOLDS_CERTIFIED
            return
        assert v.status == CqStatus.FAILS
        assert "injective" in v.reason
        w = v.witness
        assert w["subspace_dim"] == 3 and w["image_norm"] < 1e-12
        M = np.asarray(w["matrix"])
        beta = np.asarray(w["free_coeffs"])
        assert beta.shape == (ne,)
        if ne == 2:
            assert beta[1] == 0.0
        assert abs(float(np.sum(M * M)) - 1.0) < 1e-12
        iu = np.triu_indices(2)
        image = pd.Wc[:, iu[0], iu[1]] @ M[iu] + beta @ pd.Heq
        assert float(np.linalg.norm(image)) < 1e-12

    def test_empty_schur_pattern_refuted_by_dual_certificate(self):
        # G = diag(1 + x, 0) at 0: the Schur map over the range e1 is
        # identically zero, so the pattern subspace is {0}, its basis an
        # empty stack, and every unit-trace multiplier on the kernel e2
        # is orthogonal to it
        G = MatrixPoly(2, 1, {(0, 0): Poly.const(1, 1.0) + xv(1, 0)})
        P = NsdpProblem(n=1, objective=xv(1, 0), constraint=G, name="dead")
        v = check_forsgren(feasibility_data(P, [0.0]))
        assert v.status == CqStatus.FAILS, v.log
        assert "positive definite" in v.reason
        assert v.witness["pattern"] == []
        assert v.witness["subspace_dim"] == 0
        replay_forsgren_dual(v.witness)
        assert np.allclose(v.witness["multiplier"], np.diag([0.0, 1.0]),
                           atol=1e-12)


class TestLatticeDecides:
    """Verdicts the implication lattice fixes before any search or solve."""

    @pytest.mark.parametrize("name", ["fullmat", "ladder_n6_m4_k2",
                                      "ladder_n12_m8_k3", "cap"])
    def test_certified_nondegeneracy_runs_no_search(self, monkeypatch, name):
        # nondegeneracy holds at all four, so it settles sparse_ndg and
        # forsgren, and neither the Schur-map sampling, Forsgren's checker
        # nor the basis search runs
        import nsdpcq.report
        if name == "fullmat":
            P, x = fullmat_problem(), np.zeros(3)
        elif name == "cap":
            P = NsdpProblem.from_json(shifted_problem(
                np.random.default_rng([0, 3]), 64, 50, 6, "cap"))
            x = np.zeros(P.n)
        else:
            obj = next(o for i, o, _ in survey_instances() if i == name)
            P, x = NsdpProblem.from_json(obj), np.zeros(obj["n"])
        calls = []
        for mod, fn in ((nsdpcq.report, "check_forsgren"),
                        (sparse, "tilde_map"), (sparse, "_basis_search")):
            monkeypatch.setattr(mod, fn, lambda *a, _fn=fn, **kw:
                                calls.append(_fn))
        rep = analyze_problem(P, x, AnalysisOptions(timestamp=False))
        assert calls == []
        assert rep.verdicts["nondegeneracy"].status == \
            CqStatus.HOLDS_CERTIFIED
        for cond in ("sparse_ndg", "forsgren"):
            v = rep.verdicts[cond]
            assert v.status == CqStatus.HOLDS_CERTIFIED
            assert v.witness == {
                "implied_by": "nondegeneracy",
                "upstream": rep.verdicts["nondegeneracy"].witness}

    def test_facial_forsgren_carries_robinson_witness(self, monkeypatch):
        # facial at 0: Robinson fails with a dual certificate, and
        # Forsgren's condition implies Robinson's, so forsgren fails with
        # that witness, without its checker, and replays from the JSON
        # report as a positive dependence of the diagonal gradients
        import nsdpcq.report
        calls = []
        monkeypatch.setattr(nsdpcq.report, "check_forsgren",
                            lambda *a, **kw: calls.append(a))
        P, x = facial_problem(), np.zeros(2)
        obj = json.loads(report_json_text(analyze_problem(P, x)))
        v = obj["verdicts"]["forsgren"]
        assert calls == []
        assert obj["verdicts"]["robinson"]["status"] == "Fails"
        assert v["status"] == "Fails"
        assert v["reason"] == ("Robinson's condition fails, which Forsgren's "
                               "condition would imply")
        assert v["witness"] == obj["witnesses"]["robinson"]
        replay_cone_witness(P, x, v["witness"])

    def test_lattice_cells_agree_with_the_direct_checkers(self):
        # on the corpus, the 14 bench instances and the first 100 survey
        # draws, no cell the lattice decides gets the opposite certified
        # status from its own checker on the same point data: an implied
        # hold is never a direct Fails, a refutation never a direct
        # HoldsCertified (sparse_ndg searches its bases, the Robinson
        # route withheld)
        open_rob = CqVerdict(CqStatus.UNDETERMINED)
        seen = {"implied": 0, "refuted": 0}
        for name, obj, point in itertools.islice(survey_instances(), 121):
            P = NsdpProblem.from_json(obj)
            x = np.asarray(point, dtype=float)
            pd = feasibility_data(P, x)
            rep = analyze_problem(P, x, AnalysisOptions(timestamp=False))
            family = []

            def traces():
                if not family:
                    family.append(default_trace_family(
                        P, PenaltyConfig(anchor=x)))
                return family[0]

            direct = {
                "sparse_ndg": lambda: check_sparse_ndg(pd, open_rob),
                "forsgren": lambda: check_forsgren(pd),
                "weak_ndg_probe": lambda: probe_weak_ndg(pd, traces())[1],
                "weak_robinson_probe":
                    lambda: probe_weak_robinson(pd, traces())}
            for cond, v in rep.verdicts.items():
                implied = "implied_by" in (v.witness or {})
                refuted = v.log[:1] and v.log[0].startswith("refuted by ")
                if not (implied or refuted):
                    continue
                seen["implied" if implied else "refuted"] += 1
                got = direct[cond]().status
                opposite = CqStatus.FAILS if implied \
                    else CqStatus.HOLDS_CERTIFIED
                assert got is not opposite, (name, cond, v.reason)
        assert seen["implied"] >= 140 and seen["refuted"] >= 80, seen


class TestFacialReduce:
    def test_facial_single_round(self):
        P = facial_problem()
        fr = facial_reduce(P, [1.0, 0.0])
        assert isinstance(fr, FacialReduction)
        assert fr.rounds == 1
        assert fr.J_rounds[0] == (0,)
        assert fr.omega == 1
        assert np.allclose(np.abs(fr.V1.ravel()), [1.0, 0.0])
        assert np.allclose(np.abs(fr.V2.ravel()), [0.0, 1.0])
        # the eliminated row becomes the equality x2 = 0, exactly
        assert len(fr.added_equalities) == 1
        eq = fr.added_equalities[0]
        assert eq.terms == ((1.0, (0, 1)),) or eq.terms == ((-1.0, (0, 1)),)
        red = fr.reduced_problem
        assert red.m == 1
        assert red.constraint.entries[0, 0].terms == ((1.0, (1, 0)),)

    def test_facial_reduced_kkt(self):
        # the reduced problem has an exact KKT point at the anchor
        fr = facial_reduce(facial_problem(), [1.0, 0.0])
        cert = find_multiplier(feasibility_data(fr.reduced_problem, [1.0, 0.0]))
        assert cert.stationarity_residual <= 1e-8
        assert abs(cert.equality_multipliers[0] - 1.0) < 1e-8

    def test_corner_block_no_equalities(self):
        # [[0, 0], [0, x1]]: the dead direction carries no polynomial row
        G = MatrixPoly(2, 1, {(1, 1): xv(1, 0)})
        P = NsdpProblem(n=1, objective=xv(1, 0), constraint=G, name="corner")
        fr = facial_reduce(P, [0.0])
        assert fr.rounds == 1
        assert fr.J_rounds[0] == (0,)
        assert fr.added_equalities == ()
        assert fr.reduced_problem.constraint.entries[0, 0].terms == ((1.0, (1,)),)

    def test_identity_when_diagonal_complete(self):
        fr = facial_reduce(diag3_problem(), [0.0, 0.0, 0.0])
        assert fr.rounds == 0
        assert fr.reduced_problem is fr.original

    def test_full_collapse_leaves_placeholder(self):
        # an identically zero constraint collapses entirely; the reduced
        # problem keeps a 1 x 1 zero block as a placeholder
        G = MatrixPoly(1, 1, {})
        P = NsdpProblem(n=1, objective=xv(1, 0), constraint=G, name="nullcone")
        fr = facial_reduce(P, [0.5])
        assert fr.rounds == 1
        assert fr.omega == 1
        assert fr.V1.shape == (1, 0)
        assert fr.reduced_problem.constraint.entries == {}

    def test_one_evaluation_per_round(self, monkeypatch):
        # each round evaluates its problem once, at the anchor, in
        # feasibility_data, and reads its zero diagonal off the stack:
        # one call more than the rounds when the last round finds the
        # diagonal complete, as many when the block collapses entirely
        real = NsdpProblem.at
        calls = []

        def counting(self, x):
            calls.append(self.name)
            return real(self, x)

        facial = next(e for e in entries() if e.id == "facial")
        nullcone = NsdpProblem(n=1, objective=xv(1, 0),
                               constraint=MatrixPoly(1, 1, {}), name="null")
        rng = np.random.default_rng(31)
        cases = [(facial.problem, facial.point, 1,
                  ["facial", "facial#reduced"]),
                 (nullcone, [0.5], 1, ["null"]),
                 (diag3_problem(), [0.0, 0.0, 0.0], 0, ["diag3"])]
        for trial in range(4):
            P = self.dead_rows_problem(rng, trial)
            cases.append((P, np.zeros(P.n), 1, [P.name, P.name + "#reduced"]))
        monkeypatch.setattr(NsdpProblem, "at", counting)
        for P, x, rounds, want in cases:
            del calls[:]
            assert facial_reduce(P, x).rounds == rounds, P.name
            assert calls == want, P.name

    def test_transform_blocks_orthonormal(self):
        fr = facial_reduce(facial_problem(), [1.0, 0.0])
        V = np.column_stack([fr.V1, fr.V2])
        assert np.max(np.abs(V.T @ V - np.eye(2))) < 1e-12

    def test_soundness_on_random_instances(self):
        # feasible points of the original are feasible for the reduction:
        # the reduced block stays positive semidefinite and the added
        # equalities vanish whenever G(x) is PSD with V2 in its kernel
        rng = np.random.default_rng(23)
        G = MatrixPoly(2, 2, {(0, 0): xv(2, 0), (0, 1): xv(2, 1)})
        P = NsdpProblem(n=2, objective=xv(2, 1), constraint=G, name="facial")
        fr = facial_reduce(P, [1.0, 0.0])
        checked = 0
        for _ in range(100):
            t = rng.uniform(0.2, 2.0)
            x = np.array([t, 0.0])     # the feasible ray through the anchor
            Gx = P.constraint_value(x)
            assert float(eigh(Gx).values[-1]) >= -1e-12
            red = fr.reduced_problem
            Rx = red.constraint_value(x)
            assert float(eigh(Rx).values[-1]) >= -1e-12
            for h in fr.added_equalities:
                assert abs(poly_eval(h, x)) < 1e-12
            # and the congruence identity V1^T G V1 = reduced holds
            assert np.max(np.abs(fr.V1.T @ Gx.a @ fr.V1 - Rx.a)) < 1e-12
            checked += 1
        assert checked == 100

    @staticmethod
    def dead_rows_problem(rng, trial):
        """Random sparse problem feasible at 0 with identically zero rows.

        The indices Z carry no diagonal entry and no entry inside Z x Z,
        so every basis of the kernel span(e_Z) at 0 compresses G to the
        zero map; the live indices carry a positive definite constant
        block plus random monomials of degree 1 or 2, and so does every
        live-dead entry, which makes the equality rows nonzero.  Odd
        trials rotate the problem, G -> Q^T G Q, so that the kernel and
        the blocks V1, V2 are dense.
        """
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        dead = set(rng.permutation(m)[:int(rng.integers(1, m))].tolist())
        live = [i for i in range(m) if i not in dead]
        B = rng.standard_normal((len(live), len(live)))
        D = np.zeros((m, m))
        D[np.ix_(live, live)] = B @ B.T + 0.5 * np.eye(len(live))
        entries = {}
        for i in range(m):
            for j in range(i, m):
                if i in dead and j in dead:
                    continue
                terms = [(float(D[i, j]), (0,) * n)]
                if rng.random() < 0.7:
                    for _ in range(int(rng.integers(1, 3))):
                        e = rng.multinomial(int(rng.integers(1, 3)),
                                            np.ones(n) / n)
                        terms.append((float(rng.standard_normal()),
                                      tuple(int(v) for v in e)))
                entries[(i, j)] = Poly(n, terms)
        P = NsdpProblem(n=n, objective=xv(n, 0),
                        constraint=MatrixPoly(m, n, entries),
                        name=f"dead{trial}")
        if trial % 2:
            Q = random_rotation(m, rng)
            P = NsdpProblem(n=n, objective=P.objective,
                            constraint=MatrixPoly(m, n, congruence_entries(P, Q)),
                            name=f"dead{trial}-rotated")
        return P

    def test_congruence_identities_on_random_dead_rows(self):
        # the reduced block is V1^T G V1 and each emitted equality is
        # +- an entry of V2^T G [V1 V2], checked at random points away
        # from the anchor, with [V1 V2] orthonormal; the V2 block's zero
        # diagonal and lower triangle are not emitted, so there are at
        # most w (m - w) + w (w - 1) / 2 equalities for w = |J|
        rng = np.random.default_rng(31)
        for trial in range(40):
            P = self.dead_rows_problem(rng, trial)
            x0 = np.zeros(P.n)
            fr = facial_reduce(P, x0)
            assert fr.rounds == 1, P.name
            w = fr.omega
            assert len(fr.added_equalities) <= (
                w * (P.m - w) + w * (w - 1) // 2), P.name
            V = np.column_stack([fr.V1, fr.V2])
            assert np.max(np.abs(V.T @ V - np.eye(P.m))) < 1e-12
            red = fr.reduced_problem
            assert red.m == max(fr.V1.shape[1], 1)
            assert abs(red.equality_values(x0)).max(initial=0.0) < 1e-12
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, size=P.n)
                Gx = P.constraint_value(x).a
                scale = 1.0 + np.max(np.abs(Gx))
                if fr.V1.shape[1]:
                    want = fr.V1.T @ Gx @ fr.V1
                    got = red.constraint_value(x).a
                    assert np.max(np.abs(got - want)) < 1e-10 * scale
                rows = (fr.V2.T @ Gx @ V).ravel()
                for h in fr.added_equalities:
                    v = poly_eval(h, x)
                    gap = min(np.min(np.abs(rows - v)), np.min(np.abs(rows + v)))
                    assert gap < 1e-10 * scale, (P.name, v)


class TestCardInvariance:
    def test_fullmat_consistent(self):
        rep = sparse_card_invariance(
            feasibility_data(fullmat_problem(), [0.0, 0.0, 0.0]), trials=30)
        assert rep["consistent"]
        assert rep["cardinalities"] == [3]
        assert rep["passing"] >= 25

    def test_diag3_consistent(self):
        rep = sparse_card_invariance(
            feasibility_data(diag3_problem(), [0.0, 0.0, 0.0]), trials=30)
        assert rep["consistent"]
        assert 3 in rep["cardinalities"]

    def test_trivial_kernel(self):
        rep = sparse_card_invariance(
            feasibility_data(interior_problem(), [0.0, 0.0]))
        assert rep["passing"] == 0
        assert rep["consistent"]

    def test_random_instances_consistent(self):
        rng = np.random.default_rng(29)
        for trial in range(15):
            n = int(rng.integers(3, 6))
            entries = {(0, 0): xv(n, 0), (0, 1): xv(n, 1), (1, 1): xv(n, 2)}
            P = NsdpProblem(n=n, objective=Poly.zero(n),
                            constraint=MatrixPoly(2, n, entries),
                            name=f"ci{trial}")
            rep = sparse_card_invariance(feasibility_data(P, np.zeros(n)),
                                         trials=20, seed=trial)
            assert rep["consistent"], rep
