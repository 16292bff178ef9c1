"""Tests for the constraint-qualification checks.

Expected verdicts and witness values for the hand-built examples below
were derived by hand from the defining conditions (interior directions,
dual multipliers, gradient families) and are frozen here as oracles.
Witnesses returned with a Fails verdict are always replugged into the
violated condition and must reproduce it within 1e-7.
"""
import json
import re

import numpy as np
import pytest

import nsdpcq
from nsdpcq.corpus import entries as corpus_entries
from nsdpcq.cqcheck import (
    CONDITIONS,
    CqStatus,
    CqVerdict,
    DUAL_CERT_TOL,
    check_nondegeneracy,
    check_robinson,
    compress,
    cone_saddle,
    exact_verdict,
    feasibility_data,
    kkt_residual,
    li_test,
    pli_test,
)
from nsdpcq.errors import InfeasiblePointError
from nsdpcq.lp import phase_one
from nsdpcq.model import MatrixPoly, NsdpProblem, Poly
from nsdpcq.penalty import (
    PenaltyConfig,
    default_trace_family,
    probe_weak_ndg,
    probe_weak_robinson,
    run_penalty,
)
from nsdpcq.report import analyze_problem, lattice_warnings, report_json_text
from nsdpcq.sparse import check_sparse_ndg, facial_reduce
from nsdpcq.symmat import eigh, SymMat, random_rotation
from oracles import congruence_einsum, entry_gradient, find_multiplier
from test_acceptance import shifted_problem, upper_family

RT2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# problem zoo (local copies, independent of the shipped corpus)


def xv(n, i, c=1.0):
    return Poly.var(n, i, c)


def diag3_problem():
    f = xv(3, 0) + xv(3, 1) + xv(3, 2)
    G = MatrixPoly.diagonal([xv(3, 0), xv(3, 1), xv(3, 2)])
    return NsdpProblem(3, f, G, name="diag3")


def facial_problem():
    # G = [[x1, x2], [x2, 0]], f = x2; the PSD set forces x2 = 0
    G = MatrixPoly(2, 2, {(0, 0): xv(2, 0), (0, 1): xv(2, 1)})
    return NsdpProblem(2, xv(2, 1), G, name="facial")


def scalar2_problem():
    G = MatrixPoly.diagonal([xv(1, 0), xv(1, 0)])
    return NsdpProblem(1, xv(1, 0), G, name="scalar2")


def offdiag_problem():
    G = MatrixPoly(2, 2, {(0, 0): xv(2, 0), (0, 1): xv(2, 1),
                          (1, 1): xv(2, 0)})
    return NsdpProblem(2, xv(2, 0), G, name="offdiag")


def interior_problem():
    one = Poly.const(2, 1.0)
    G = MatrixPoly(2, 2, {(0, 0): one + xv(2, 0), (0, 1): xv(2, 1),
                          (1, 1): one - xv(2, 0)})
    f = Poly(2, [(1.0, (2, 0)), (1.0, (0, 2))])
    return NsdpProblem(2, f, G, name="interior")


def fullmat_problem():
    G = MatrixPoly(2, 3, {(0, 0): xv(3, 0), (0, 1): xv(3, 1),
                          (1, 1): xv(3, 2)})
    return NsdpProblem(3, xv(3, 0) + xv(3, 2), G, name="fullmat")


def block2_problem():
    top = MatrixPoly(2, 3, {(0, 0): xv(3, 0), (0, 1): xv(3, 1),
                            (1, 1): xv(3, 0)})
    bot = MatrixPoly(1, 3, {(0, 0): xv(3, 2)})
    G = MatrixPoly.block_diag([top, bot])
    return NsdpProblem(3, xv(3, 0) + xv(3, 2), G, name="block2")


def rand_problem(rng, n, m, density=0.6):
    entries = {}
    for i in range(m):
        for j in range(i, m):
            if i == j or rng.random() < density:
                terms = []
                for _ in range(int(rng.integers(1, 4))):
                    e = [0] * n
                    for _ in range(int(rng.integers(0, 3))):
                        e[int(rng.integers(0, n))] += 1
                    terms.append((float(rng.standard_normal()), tuple(e)))
                p = Poly(n, terms)
                if not p.is_zero():
                    entries[(i, j)] = p
    if not entries:
        entries[(0, 0)] = Poly.var(n, 0)
    G = MatrixPoly(m, n, entries)
    f = Poly.var(n, 0)
    return NsdpProblem(n, f, G)


# A random instance with G(0) = 0 (rank 0), the first draw of the
# ``shifted_problem`` construction at n = 4, m = 3.  Robinson's condition
# fails there through a rank-one multiplier, but the residual of a
# first-order dual decays slowly (4.1e-4 after 800 steps), so a dual
# stopped early reads a spurious positive minimum.
# The penalty tests use it too: near the anchor phi is of order 1e-9,
# and a line search whose value noise floor does not scale down with phi
# stalls at rho = 1e10.
RANK0_PROBLEM = {
    "name": "degenerate00_n4_m3_k3", "n": 4, "m": 3,
    "objective": [{"c": 1.0, "e": [1, 0, 0, 0]}],
    "constraint": [
        {"i": 0, "j": 0, "poly": [{"c": -0.6734731116783189,
                                   "e": [0, 0, 0, 1]}]},
        {"i": 0, "j": 1, "poly": [{"c": 1.523289847933569,
                                   "e": [1, 0, 0, 0]}]},
        {"i": 0, "j": 2, "poly": [{"c": -0.056325849804638325,
                                   "e": [0, 0, 1, 0]},
                                  {"c": 1.4751406174506718,
                                   "e": [0, 1, 0, 0]}]},
        {"i": 1, "j": 1, "poly": [{"c": 1.1679728131087033,
                                   "e": [0, 2, 0, 0]},
                                  {"c": 0.7799175266708605,
                                   "e": [1, 0, 0, 1]}]},
        {"i": 1, "j": 2, "poly": [{"c": -0.7763100440354325,
                                   "e": [0, 0, 0, 2]},
                                  {"c": 0.9865155026328277,
                                   "e": [0, 0, 1, 0]}]},
        {"i": 2, "j": 2, "poly": [{"c": 0.11036679944811631,
                                   "e": [1, 0, 0, 0]}]},
    ],
}


# A second rank-0 draw, (n, m) = (3, 3), with the same trap: a rank-one
# multiplier annihilates the adjoint, while the first-order dual residual
# is still 1.0e-4 after 800 steps.
DEGENERATE08_PROBLEM = {
    "name": "degenerate08_n3_m3_k3", "n": 3, "m": 3,
    "objective": [{"c": 1.0, "e": [1, 0, 0]}],
    "constraint": [
        {"i": 0, "j": 0, "poly": [{"c": -0.8859949512550727,
                                   "e": [1, 0, 1]}]},
        {"i": 0, "j": 1, "poly": [{"c": 0.6548445925959636,
                                   "e": [1, 0, 0]}]},
        {"i": 0, "j": 2, "poly": [{"c": 0.5189344801726669,
                                   "e": [0, 1, 0]},
                                  {"c": -0.060839663129918536,
                                   "e": [1, 0, 1]}]},
        {"i": 1, "j": 1, "poly": [{"c": -0.2191854507050445,
                                   "e": [0, 0, 1]},
                                  {"c": 0.3144167802697512,
                                   "e": [0, 1, 0]}]},
        {"i": 1, "j": 2, "poly": [{"c": 0.3804014588254866,
                                   "e": [1, 0, 0]}]},
        {"i": 2, "j": 2, "poly": [{"c": 0.3933676821398368,
                                   "e": [1, 0, 0]}]},
    ],
}


# The first rung of the benchmark ladder, (n, m, nullity) = (6, 4, 2).
# Nondegeneracy and Robinson both hold at the origin.  At rho >= 1e11
# the rounding error of the gradient exceeds the capped tolerance
# schedule; without a floor at that error the 1e11 and 1e12 levels spend
# thousands of line-search evaluations and end unconverged.
LADDER_PROBLEM = {
    "name": "ladder_n6_m4_k2", "n": 6, "m": 4,
    "objective": [{"c": 1.0, "e": [1, 0, 0, 0, 0, 0]}],
    "constraint": [
        {"i": 0, "j": 0, "poly": [
            {"c": 0.6519811769520883, "e": [0, 0, 0, 0, 0, 0]},
            {"c": 0.3032969872406851, "e": [1, 0, 0, 0, 0, 0]}]},
        {"i": 0, "j": 1, "poly": [
            {"c": -0.23082718481159248, "e": [0, 0, 0, 0, 0, 0]},
            {"c": -0.5678497716419045, "e": [0, 0, 0, 0, 1, 0]}]},
        {"i": 0, "j": 2, "poly": [
            {"c": 0.36593277534623575, "e": [0, 0, 0, 0, 0, 0]},
            {"c": -1.6347398711267278, "e": [0, 0, 0, 0, 1, 0]}]},
        {"i": 0, "j": 3, "poly": [
            {"c": -0.7230416880158826, "e": [0, 0, 0, 0, 0, 0]},
            {"c": 3.0373555713667533, "e": [0, 1, 0, 0, 0, 0]}]},
        {"i": 1, "j": 1, "poly": [
            {"c": 0.1273157816502305, "e": [0, 0, 0, 0, 0, 0]},
            {"c": -0.1286408000612264, "e": [0, 0, 0, 0, 1, 0]},
            {"c": -0.21809964313540206, "e": [0, 0, 0, 1, 0, 0]}]},
        {"i": 1, "j": 2, "poly": [
            {"c": 0.08026161135516523, "e": [0, 0, 0, 0, 0, 0]},
            {"c": -1.1252810859487876, "e": [0, 0, 1, 0, 0, 0]}]},
        {"i": 1, "j": 3, "poly": [
            {"c": 0.394076742955696, "e": [0, 0, 0, 0, 0, 0]},
            {"c": 1.7072648272438213, "e": [1, 0, 0, 0, 0, 1]}]},
        {"i": 2, "j": 2, "poly": [
            {"c": 1.1709298109554265, "e": [0, 0, 0, 0, 0, 0]},
            {"c": 1.048772565797411, "e": [0, 0, 0, 1, 0, 0]}]},
        {"i": 2, "j": 3, "poly": [
            {"c": 0.22966054079912188, "e": [0, 0, 0, 0, 0, 0]},
            {"c": -2.0343424408577815, "e": [1, 0, 0, 0, 0, 0]}]},
        {"i": 3, "j": 3, "poly": [
            {"c": 1.2200884926687954, "e": [0, 0, 0, 0, 0, 0]},
            {"c": -0.6322168815768311, "e": [0, 1, 0, 0, 0, 0]}]},
    ],
}


def replay_cone_witness(P, x, witness, tol=1e-7):
    """Plug a positive-dependence witness back into its defining identity."""
    E = np.asarray(witness["basis"], dtype=float)
    alpha = np.asarray(witness["alpha"], dtype=float)
    acc = np.zeros(P.n)
    for i in range(E.shape[1]):
        acc += alpha[i] * entry_gradient(P, x, E[:, i])
    Heq = P.equality_gradients(np.asarray(x, dtype=float))
    beta = witness.get("free_coeffs")
    if beta is not None and Heq.shape[0]:
        acc += Heq.T @ np.asarray(beta, dtype=float)
    assert np.all(alpha >= -1e-12)
    assert abs(float(np.sum(alpha)) - 1.0) <= 1e-7
    assert float(np.linalg.norm(acc)) <= tol


# ---------------------------------------------------------------------------
# phase-one simplex


class TestPhaseOne:
    def test_feasible_square(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.array([2.0, 1.0])
        res = phase_one(A, b)
        assert res.feasible
        assert res.optimum <= 1e-9
        assert np.all(res.z >= -1e-12)
        assert np.allclose(A @ res.z, b, atol=1e-9)

    def test_infeasible_negative_rhs(self):
        res = phase_one(np.array([[1.0]]), np.array([-1.0]))
        assert not res.feasible
        assert res.optimum == pytest.approx(1.0, abs=1e-9)

    def test_sum_to_one_conflict(self):
        # z1 = 0, z2 = 0 but z1 + z2 = 1 has artificial mass exactly 1
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = np.array([0.0, 0.0, 1.0])
        res = phase_one(A, b)
        assert not res.feasible
        assert res.optimum == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_zero_rhs(self):
        res = phase_one(np.array([[1.0, -1.0]]), np.array([0.0]))
        assert res.feasible

    def test_redundant_rows(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        res = phase_one(A, b)
        assert res.feasible
        assert np.allclose(A @ res.z, b, atol=1e-9)

    def test_random_consistent_systems(self):
        # systems built from a known nonnegative solution must be feasible
        rng = np.random.default_rng(7)
        for _ in range(50):
            m, k = int(rng.integers(1, 5)), int(rng.integers(2, 7))
            A = rng.standard_normal((m, k))
            z0 = rng.random(k)
            b = A @ z0
            res = phase_one(A, b)
            assert res.feasible
            assert np.allclose(A @ res.z, b, atol=1e-8)


# ---------------------------------------------------------------------------
# gradient families


class TestEntryGradients:
    def test_reference_basis_values_diag3(self):
        # kernel basis (e1, (-e2+e3)/sqrt 2, (e2+e3)/sqrt 2) of the zero
        # matrix: the two rotated columns share the same entry gradient
        # (0, 1/2, 1/2), so the family is dependent for this basis
        P = diag3_problem()
        x = np.zeros(3)
        fd = feasibility_data(P, x)
        assert fd.rank == 0 and fd.E.shape == (3, 3)
        C = np.array([[1.0, 0.0, 0.0],
                      [0.0, -RT2, RT2],
                      [0.0, RT2, RT2]])
        E = fd.E @ C
        Wc = compress(fd.W, E)
        expect = np.array([0.0, 0.5, 0.5])
        assert np.allclose(Wc[:, 1, 1], expect, atol=1e-10)
        assert np.allclose(Wc[:, 2, 2], expect, atol=1e-10)
        li = li_test([Wc[:, 1, 1], Wc[:, 2, 2]])
        assert not li.independent

    def test_entrywise_vs_adjoint(self):
        # the two formulas for v: entrywise contraction of the partials
        # against (u, w), and the adjoint applied to the symmetrized outer
        # product, must agree to near machine precision
        rng = np.random.default_rng(11)
        for _ in range(60):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            P = rand_problem(rng, n, m)
            x = rng.standard_normal(n)
            u = rng.standard_normal(m)
            w = rng.standard_normal(m)
            W = P.constraint_partials(x)
            va = np.einsum("lab,a,b->l", W, u, w)
            vb = entry_gradient(P, x, u, w)
            scale = 1.0 + float(np.max(np.abs(va), initial=0.0))
            assert np.allclose(va, vb, atol=1e-10 * scale)

    def test_family_matches_single_entry_calls(self):
        P = fullmat_problem()
        x = np.zeros(3)
        fd = feasibility_data(P, x)
        E = fd.E
        for (i, j) in zip(*np.triu_indices(E.shape[1])):
            direct = entry_gradient(P, x, E[:, i], E[:, j])
            assert np.allclose(fd.Wc[:, i, j], direct, atol=1e-12)

    def test_compress_rotated_basis_matches_entry_gradients(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            k = int(rng.integers(1, m + 1))
            P = shifted_problem(rng, n, m, k)
            x = np.zeros(n)
            fd = feasibility_data(P, x)
            E = fd.E @ random_rotation(fd.E.shape[1], rng)
            Wc = compress(fd.W, E)
            assert Wc.shape == (n, k, k)
            for i in range(k):
                for j in range(k):
                    want = entry_gradient(P, x, E[:, i], E[:, j])
                    assert np.allclose(Wc[:, i, j], want, atol=1e-12)


    def test_compress_matches_the_einsum(self):
        # compress's two matrix products and the one-sided rows L^T S
        # against the 5-index einsum, on random symmetric stacks of the
        # shapes (T, m, k) of a small instance, the (78, 8, 3) survey
        # size and the cap instance
        rng = np.random.default_rng(29)
        for T, m, k in ((4, 5, 3), (78, 8, 3), (64, 50, 6)):
            g = rng.standard_normal((T, m, m))
            S = g + g.swapaxes(1, 2)
            L = rng.standard_normal((m, k))
            for got, want in ((compress(S, L), congruence_einsum(S, L)),
                              (L.T @ S, congruence_einsum(S, L, np.eye(m)))):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) \
                    <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# independence tests


class TestLiTest:
    def test_independent_axes(self):
        res = li_test([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert res.independent
        assert res.rank == 2
        assert res.sigma_min == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_vector(self):
        v = np.array([1.0, 2.0])
        res = li_test([v, v])
        assert not res.independent
        assert res.rank == 1
        combo = res.coeffs[0] * v + res.coeffs[1] * v
        assert np.linalg.norm(combo) <= 1e-8

    def test_zero_vector_dependent(self):
        res = li_test([np.zeros(3)])
        assert not res.independent
        assert res.rank == 0

    def test_shared_entry_gradient_rank(self):
        v = np.array([0.0, 0.5, 0.5])
        res = li_test([v, v])
        assert res.rank == 1

    def test_independent_implies_positively_independent(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            vecs = [rng.standard_normal(6) for _ in range(k)]
            li = li_test(vecs)
            if li.independent:
                assert pli_test(vecs).pos_independent


class TestPliTest:
    def test_axes_positively_independent(self):
        res = pli_test([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert res.pos_independent
        assert res.margin == pytest.approx(1.0, abs=1e-9)

    def test_opposite_pair(self):
        e1 = np.array([1.0, 0.0])
        res = pli_test([e1, -e1])
        assert not res.pos_independent
        assert np.allclose(res.alpha, [0.5, 0.5], atol=1e-9)

    def test_simplex_triple(self):
        vecs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                np.array([-1.0, -1.0])]
        res = pli_test(vecs)
        assert not res.pos_independent
        combo = sum(a * v for a, v in zip(res.alpha, vecs))
        assert np.linalg.norm(combo) <= 1e-9

    def test_open_halfplane_family(self):
        res = pli_test([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        assert res.pos_independent

    def test_free_vector_does_not_break_independence(self):
        res = pli_test([np.array([1.0, 1.0])],
                       free_vectors=[np.array([0.0, 1.0])])
        assert res.pos_independent

    def test_free_vector_cancels(self):
        e1 = np.array([1.0, 0.0])
        res = pli_test([e1], free_vectors=[e1])
        assert not res.pos_independent
        combo = res.alpha[0] * e1 + res.free_coeffs[0] * e1
        assert np.linalg.norm(combo) <= 1e-9

    def test_scaling_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            vecs = [rng.standard_normal(4) for _ in range(3)]
            base = pli_test(vecs).pos_independent
            scaled = [v * float(rng.uniform(0.01, 100.0)) for v in vecs]
            assert pli_test(scaled).pos_independent == base


# ---------------------------------------------------------------------------
# nondegeneracy


class TestNondegeneracy:
    def test_diag3_fails_by_dimension(self):
        v = check_nondegeneracy(feasibility_data(diag3_problem(), np.zeros(3)))
        assert v.status == CqStatus.FAILS
        assert "cannot be independent" in v.reason
        W = np.asarray(v.witness["vectors"])
        c = np.asarray(v.witness["coeffs"])
        assert np.linalg.norm(c) > 0.5
        assert np.linalg.norm(c @ W) <= 1e-7

    def test_scalar2_fails_by_dimension(self):
        v = check_nondegeneracy(
            feasibility_data(scalar2_problem(), np.zeros(1)))
        assert v.status == CqStatus.FAILS

    def test_fullmat_holds(self):
        v = check_nondegeneracy(
            feasibility_data(fullmat_problem(), np.zeros(3)))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        assert v.witness["sigma_min"] > 0.9

    def test_facial_fails_with_null_combination(self):
        v = check_nondegeneracy(
            feasibility_data(facial_problem(), np.zeros(2)))
        assert v.status == CqStatus.FAILS
        W = np.asarray(v.witness["vectors"])
        c = np.asarray(v.witness["coeffs"])
        assert np.linalg.norm(c @ W) <= 1e-7

    def test_offdiag_fails(self):
        # v_11 = v_22 = (1, 0) for the axis basis, a strict dependence
        v = check_nondegeneracy(
            feasibility_data(offdiag_problem(), np.zeros(2)))
        assert v.status == CqStatus.FAILS
        W = np.asarray(v.witness["vectors"])
        c = np.asarray(v.witness["coeffs"])
        assert np.linalg.norm(c @ W) <= 1e-7

    def test_interior_holds(self):
        v = check_nondegeneracy(
            feasibility_data(interior_problem(), np.zeros(2)))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        assert "interior" in v.reason

    def test_partially_active_diagonal(self):
        one = Poly.const(2, 1.0)
        G = MatrixPoly.diagonal([xv(2, 0), one + xv(2, 1)])
        P = NsdpProblem(2, xv(2, 0), G)
        v = check_nondegeneracy(feasibility_data(P, np.zeros(2)))
        assert v.status == CqStatus.HOLDS_CERTIFIED

    def test_equality_gradients_join_family(self):
        P = NsdpProblem(2, xv(2, 0), interior_problem().constraint,
                        equalities=[xv(2, 0), xv(2, 0, 2.0)])
        v = check_nondegeneracy(feasibility_data(P, np.zeros(2)))
        assert v.status == CqStatus.FAILS

    def test_independence_invariant_under_basis_rotation(self):
        rng = np.random.default_rng(5)
        for P, x in ((fullmat_problem(), np.zeros(3)),
                     (offdiag_problem(), np.zeros(2))):
            fd = feasibility_data(P, x)
            base = li_test(upper_family(fd)).independent
            for _ in range(20):
                cols = fd.E @ random_rotation(fd.E.shape[1], rng)
                assert li_test(upper_family(fd, cols)).independent == base


# ---------------------------------------------------------------------------
# Robinson's condition


class TestRobinson:
    def test_diag3_holds_via_mfcq(self):
        v = check_robinson(feasibility_data(diag3_problem(), np.zeros(3)))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        assert "MFCQ" in v.reason

    def test_scalar2_holds(self):
        v = check_robinson(feasibility_data(scalar2_problem(), np.zeros(1)))
        assert v.status == CqStatus.HOLDS_CERTIFIED

    def test_facial_fails_with_dual_witness(self):
        P = facial_problem()
        x = np.zeros(2)
        v = check_robinson(feasibility_data(P, x))
        assert v.status == CqStatus.FAILS
        Y = np.asarray(v.witness["multiplier"])
        # the annihilating multiplier is (up to scale) e2 e2^T
        assert np.allclose(Y, [[0.0, 0.0], [0.0, 1.0]], atol=1e-5)
        assert np.linalg.norm(P.adjoint(x, Y)) <= 1e-7
        assert float(eigh(SymMat.from_symmetric(Y)).values[-1]) >= -1e-10
        assert abs(np.trace(Y) - 1.0) <= 1e-7
        replay_cone_witness(P, x, v.witness)

    def test_offdiag_holds_with_direction(self):
        P = offdiag_problem()
        x = np.zeros(2)
        v = check_robinson(feasibility_data(P, x))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        d = np.asarray(v.witness["direction"])
        W = P.constraint_partials(x)
        shifted = P.constraint_value(x).a + np.tensordot(d, W, axes=1)
        assert float(eigh(SymMat.from_symmetric(shifted)).values[-1]) > 0.0

    @pytest.mark.parametrize("s", [1.0, 1e-3, 1e-7])
    def test_offdiag_holds_at_every_scale(self, s):
        # G -> s G leaves Robinson's condition unchanged; the compressed
        # optimum of s [[x1, x2], [x2, x1]] is exactly s, at d = e1
        G = MatrixPoly(2, 2, {(0, 0): xv(2, 0, s), (0, 1): xv(2, 1, s),
                              (1, 1): xv(2, 0, s)})
        P = NsdpProblem(2, xv(2, 0), G, name="offdiag_scaled")
        x = np.zeros(2)
        v = check_robinson(feasibility_data(P, x))
        assert v.status == CqStatus.HOLDS_CERTIFIED, v.log
        d = np.asarray(v.witness["direction"])
        shifted = P.constraint_value(x).a + np.tensordot(
            d, P.constraint_partials(x), axes=1)
        assert float(eigh(SymMat.from_symmetric(shifted)).values[-1]) > 0.0

    def test_interior_holds(self):
        v = check_robinson(feasibility_data(interior_problem(), np.zeros(2)))
        assert v.status == CqStatus.HOLDS_CERTIFIED

    def test_fullmat_holds(self):
        v = check_robinson(feasibility_data(fullmat_problem(), np.zeros(3)))
        assert v.status == CqStatus.HOLDS_CERTIFIED

    def test_block2_holds(self):
        v = check_robinson(feasibility_data(block2_problem(), np.zeros(3)))
        assert v.status == CqStatus.HOLDS_CERTIFIED

    def test_equality_compatible_direction(self):
        # h = x1 - x2 leaves the interior direction (1, 1, 1) available
        P = NsdpProblem(3, diag3_problem().objective,
                        diag3_problem().constraint,
                        equalities=[xv(3, 0) - xv(3, 1)])
        v = check_robinson(feasibility_data(P, np.zeros(3)))
        assert v.status == CqStatus.HOLDS_CERTIFIED

    def test_equality_blocks_every_direction(self):
        # h = x1 + x2 + x3 forces sum d = 0, no positive diagonal move
        P = NsdpProblem(3, diag3_problem().objective,
                        diag3_problem().constraint,
                        equalities=[xv(3, 0) + xv(3, 1) + xv(3, 2)])
        x = np.zeros(3)
        v = check_robinson(feasibility_data(P, x))
        assert v.status == CqStatus.FAILS
        replay_cone_witness(P, x, v.witness)

    def test_dependent_equality_gradients(self):
        P = NsdpProblem(2, xv(2, 0), interior_problem().constraint,
                        equalities=[xv(2, 0), xv(2, 0, 2.0)])
        v = check_robinson(feasibility_data(P, np.zeros(2)))
        assert v.status == CqStatus.FAILS
        assert "equality" in v.reason

    def test_rank_deficient_corner_holds(self):
        one = Poly.const(2, 1.0)
        G = MatrixPoly(2, 2, {(0, 0): xv(2, 0), (0, 1): xv(2, 1),
                              (1, 1): one + xv(2, 0)})
        P = NsdpProblem(2, xv(2, 0), G)
        v = check_robinson(feasibility_data(P, np.zeros(2)))
        assert v.status == CqStatus.HOLDS_CERTIFIED

    def test_one_dim_kernel_fails_by_dual_certificate(self):
        # facial at (1, 0): the kernel is span(e2) and G_22 = 0, so the
        # spectraplex point S = [1] annihilates the adjoint at iteration 0
        P = facial_problem()
        x = np.array([1.0, 0.0])
        v = check_robinson(feasibility_data(P, x))
        assert v.status == CqStatus.FAILS
        assert "dual iterate at iteration 0" in v.log[-1]
        Y = np.asarray(v.witness["multiplier"])
        assert np.allclose(Y, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)
        assert float(np.linalg.norm(P.adjoint(x, Y))) <= 1e-12
        assert v.witness["residual"] <= 1e-12
        replay_cone_witness(P, x, v.witness)

    def test_one_dim_kernel_both_ways(self):
        # G = [[1 + x1, x2], [x2, x1]] at 0 has kernel span(e2) and
        # v_11 = (1, 0): the least-squares start certifies Holds at
        # iteration 0, and h = x1 removes that direction, so the dual
        # certificate fails it with equality coefficients that replay
        one = Poly.const(2, 1.0)
        G = MatrixPoly(2, 2, {(0, 0): one + xv(2, 0), (0, 1): xv(2, 1),
                              (1, 1): xv(2, 0)})
        x = np.zeros(2)
        v = check_robinson(feasibility_data(NsdpProblem(2, xv(2, 1), G), x))
        assert v.status == CqStatus.HOLDS_CERTIFIED
        assert "primal readout at iteration 0" in v.log[-2]
        P = NsdpProblem(2, xv(2, 1), G, equalities=[xv(2, 0)])
        v = check_robinson(feasibility_data(P, x))
        assert v.status == CqStatus.FAILS
        assert v.witness["free_coeffs"] == pytest.approx([-1.0], abs=1e-12)
        replay_cone_witness(P, x, v.witness)

    def test_one_dim_kernel_killed_by_equality(self):
        G = MatrixPoly(1, 1, {(0, 0): xv(1, 0)})
        P = NsdpProblem(1, xv(1, 0), G, equalities=[xv(1, 0)])
        v = check_robinson(feasibility_data(P, np.zeros(1)))
        assert v.status == CqStatus.FAILS

    def test_infeasible_point_rejected(self):
        with pytest.raises(InfeasiblePointError) as exc:
            check_robinson(
                feasibility_data(interior_problem(), np.array([2.0, 0.0])))
        assert exc.value.eigenvalues is not None
        assert min(exc.value.eigenvalues) < -0.5

    def test_dual_witness_absorbs_equality_gradients(self):
        # G(0) = 0 with h = x1 + x3: the multiplier diag(1, 1) / 2 maps to
        # (1, 0, 1) / 2 under the adjoint, which lies in the span of grad h
        G = MatrixPoly(2, 3, {(0, 0): xv(3, 0), (0, 1): xv(3, 1),
                              (1, 1): xv(3, 2)})
        P = NsdpProblem(3, xv(3, 0), G, equalities=[xv(3, 0) + xv(3, 2)])
        x = np.zeros(3)
        v = check_robinson(feasibility_data(P, x))
        assert v.status == CqStatus.FAILS
        replay_cone_witness(P, x, v.witness)

    @pytest.mark.parametrize("spec", [RANK0_PROBLEM, DEGENERATE08_PROBLEM],
                             ids=["degenerate00", "degenerate08"])
    def test_rank_zero_trap_fails_with_replayable_witness(self, spec):
        P = NsdpProblem.from_json(spec)
        x = np.zeros(P.n)
        v = check_robinson(feasibility_data(P, x))
        assert v.status == CqStatus.FAILS
        replay_cone_witness(P, x, v.witness)

    @pytest.mark.parametrize("spec", [RANK0_PROBLEM, DEGENERATE08_PROBLEM],
                             ids=["degenerate00", "degenerate08"])
    def test_rank_zero_trap_certified_at_the_first_polish(self, spec):
        # the first gradient step already points at the rank-one face, so
        # the polish at iteration 1 certifies (the next periodic polish
        # would come at 25), and its S replays: PSD, unit trace and
        # ||A vec S|| within the solve's tolerance
        P = NsdpProblem.from_json(spec)
        pd = feasibility_data(P, np.zeros(P.n))
        res = cone_saddle(pd.Wc, np.eye(P.n))
        assert (res.route, res.iterations) == ("dual", 1)
        assert res.rank is not None
        k = pd.E.shape[1]
        A = pd.Wc.reshape(P.n, k * k)
        tol = DUAL_CERT_TOL * (1.0 + float(np.max(np.abs(A))))
        assert float(eigh(res.S).values[-1]) >= -1e-15
        assert abs(float(np.trace(res.S)) - 1.0) <= 1e-12
        assert float(np.linalg.norm(A @ res.S.ravel())) <= tol
        v = check_robinson(pd)
        assert f"rank {res.rank} at iteration 1," in v.log[-1]
        assert np.array_equal(v.witness["multiplier"], pd.E @ res.S @ pd.E.T)

    def test_rank_zero_trap_leaves_the_lattice_intact(self):
        P = NsdpProblem.from_json(RANK0_PROBLEM)
        report = analyze_problem(P, np.zeros(P.n))
        assert lattice_warnings(report.verdicts) == []

    def test_saddle_solve_certifies_random_instances(self):
        # every verdict on kernels of dimension >= 2 is certified, its
        # witness replays, and the logged bounds obey weak duality
        rng = np.random.default_rng(31)
        bounds = re.compile(r"primal bound (\S+), dual bound (\S+)")
        for case in range(40):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            P = shifted_problem(rng, n, m, int(rng.integers(2, m + 1)))
            x = np.zeros(n)
            v = check_robinson(feasibility_data(P, x))
            assert v.status in (CqStatus.HOLDS_CERTIFIED, CqStatus.FAILS), \
                (case, v.log)
            if v.status == CqStatus.FAILS:
                replay_cone_witness(P, x, v.witness)
            else:
                d = np.asarray(v.witness["direction"])
                shifted = P.constraint_value(x).a + np.tensordot(
                    d, P.constraint_partials(x), axes=1)
                assert eigh(SymMat.from_symmetric(shifted)).values[-1] > 0.0
            found = [bounds.search(line) for line in v.log]
            primal, dual = (float(b) for b in
                            next(f for f in found if f).groups())
            assert primal <= dual + 1e-12, (case, v.log)

    def test_least_squares_start_never_certifies_a_planted_dual(self):
        # each stack is made orthogonal to a planted unit-trace S >= 0, so
        # for a unit d, lambda_min(sum_l d_l Wc_l) <= <sum_l d_l Wc_l, S>
        # = 0 and no primal certificate exists, iteration 0's least-squares
        # start included, with or without equality directions projected
        # out; the same stacks before planting are onto Sym(k) when the
        # projected space has k(k + 1) / 2 dimensions, and the start
        # certifies them at iteration 0
        rng = np.random.default_rng(53)
        onto = 0
        for case in range(80):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(1, 13))
            ne = int(rng.integers(0, 3)) if n > 2 else 0
            H = rng.standard_normal((ne, n))
            Qn = np.eye(n) - (H.T @ np.linalg.pinv(H.T) if ne else 0.0)
            R = rng.standard_normal((k, int(rng.integers(1, k + 1))))
            S = R @ R.T / float(np.sum(R * R))
            Wc = rng.standard_normal((n, k, k))
            Wc = Wc + Wc.transpose(0, 2, 1)
            res = cone_saddle(Wc, Qn)
            if n - ne >= k * (k + 1) // 2:
                assert (res.route, res.iterations) == ("primal", 0), case
                onto += 1
            inner = np.tensordot(Wc, S, axes=2) / float(np.sum(S * S))
            res = cone_saddle(Wc - inner[:, None, None] * S, Qn)
            assert res.route != "primal", (case, res.describe())
            assert res.primal <= 1e-12, (case, res.describe())
        assert onto >= 20


# ---------------------------------------------------------------------------
# feasibility data


class TestFeasibility:
    def test_interior_rank(self):
        fd = feasibility_data(interior_problem(), np.zeros(2))
        assert fd.rank == 2
        assert fd.E.shape == (2, 0)
        assert np.allclose(fd.eigenvalues, [1.0, 1.0], atol=1e-12)

    def test_zero_matrix_full_kernel(self):
        fd = feasibility_data(facial_problem(), np.zeros(2))
        assert fd.rank == 0
        assert fd.E.shape == (2, 2)

    def test_point_data_reads_one_evaluation(self):
        # G, its spectrum, the partials and the equality gradients are
        # the kept values of the evaluation PointData carries
        for P in (diag3_problem(), block2_problem(), offdiag_problem()):
            pd = feasibility_data(P, np.zeros(P.n))
            assert pd.ev.constraint_value() is pd.G
            assert pd.ev.spectrum() is pd.spec
            assert pd.ev.constraint_partials() is pd.W
            assert pd.ev.equality_gradients() is pd.Heq
            assert pd.ev.powers.tobytes() == P.at(pd.x).powers.tobytes()

    def test_tiny_negative_within_tolerance(self):
        fd = feasibility_data(scalar2_problem(), np.array([-1e-10]))
        assert fd.E.shape[1] == 2

    def test_clearly_infeasible(self):
        with pytest.raises(InfeasiblePointError):
            feasibility_data(scalar2_problem(), np.array([-1.0]))

    @staticmethod
    def ones_minus_dent(c):
        # G(x) = ones(4, 4) - c v v^T + x I with v = (1, -1, 0, 0) / sqrt 2:
        # at x = 0 the spectrum is 4, 0, 0, -c, and max |G_ij| is 1 + c / 2
        dent = np.outer([1.0, -1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0]) / 2.0
        entries = {(i, j): Poly.const(1, 1.0 - c * dent[i, j])
                   + (xv(1, 0) if i == j else Poly.zero(1))
                   for i in range(4) for j in range(i, 4)}
        return NsdpProblem(1, xv(1, 0), MatrixPoly(4, 1, entries))

    def test_gate_and_kernel_read_one_threshold(self):
        # tau = 1e-8 * max(1, lambda_1) = 4e-8 both admits the eigenvalue
        # -3e-8 and puts it in the kernel; a gate on 1e-8 * (1 + max|G_ij|)
        # = 2e-8 refused the point that the kernel split would accept
        pd = feasibility_data(self.ones_minus_dent(3e-8), np.zeros(1), 1e-8)
        assert pd.rank == 1 and pd.E.shape == (4, 3)
        assert np.max(np.abs(pd.G.a @ pd.E)) <= 4e-8
        with pytest.raises(InfeasiblePointError) as exc:
            feasibility_data(self.ones_minus_dent(5e-8), np.zeros(1), 1e-8)
        assert min(exc.value.eigenvalues) < -4e-8

    def test_violated_equality_is_infeasible(self):
        # G(0, 0) = [0] is PSD, but h = x2 - 1 is -1 there: every
        # condition used to be certified at a point outside the feasible set
        P = NsdpProblem(2, xv(2, 0), MatrixPoly(1, 2, {(0, 0): xv(2, 0)}),
                        equalities=[xv(2, 1) - Poly.const(2, 1.0)])
        for call in (lambda: feasibility_data(P, np.zeros(2)),
                     lambda: analyze_problem(P, np.zeros(2)),
                     lambda: run_penalty(P, PenaltyConfig(anchor=[0.0, 0.0]))):
            with pytest.raises(InfeasiblePointError, match=r"max \|h_i"):
                call()
        # within tau = 1e-8 of h = 0 the point is feasible
        pd = feasibility_data(P, [0.0, 1.0 + 5e-9])
        assert pd.rank == 0 and pd.E.shape == (1, 1)

    def test_point_of_the_wrong_length_is_rejected(self):
        # a 4-vector at a 3-variable problem would read the power table
        # with the wrong stride; every entry point behind the gate refuses
        P = diag3_problem()
        x = [0.5, 0.2, 0.1, 7.0]
        for call in (lambda: feasibility_data(P, x),
                     lambda: analyze_problem(P, x),
                     lambda: facial_reduce(P, x),
                     lambda: run_penalty(P, PenaltyConfig(anchor=x))):
            with pytest.raises(ValueError, match=r"length 3.*\(4,\)"):
                call()
        with pytest.raises(ValueError, match=r"length 3.*\(1, 3\)"):
            feasibility_data(P, [[0.5, 0.2, 0.1]])

    def test_point_data_reads_one_evaluation(self, monkeypatch):
        # G, the partials and the equality gradients come off one power
        # table, bit for bit what three separate evaluations give
        P = NsdpProblem(3, diag3_problem().objective,
                        fullmat_problem().constraint,
                        equalities=[xv(3, 0) * xv(3, 1) - xv(3, 2)])
        x = np.zeros(3)
        want = (P.constraint_value(x).a, P.constraint_partials(x),
                P.equality_gradients(x))
        calls = count_calls(monkeypatch, NsdpProblem, "at")
        pd = feasibility_data(P, x)
        assert len(calls) == 1
        for got, ref in zip((pd.G.a, pd.W, pd.Heq), want):
            assert got.tobytes() == ref.tobytes()

    def test_point_data_is_read_only(self):
        x = np.zeros(3)
        fd = feasibility_data(fullmat_problem(), x)
        for arr in (fd.x, fd.W, fd.Wc, fd.Heq):
            assert not arr.flags.writeable
        assert x.flags.writeable

    def test_analysis_builds_point_data_once(self, monkeypatch):
        # one build is shared by the six checkers; a second one, the
        # feasibility gate of run_penalty, happens only on entries whose
        # probes need the trace family; the modules bind the function by name
        untraced = {"interior", "scalar2", "fullmat"}
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].name)
            return feasibility_data(*args, **kwargs)

        for mod in (nsdpcq.cqcheck, nsdpcq.sparse, nsdpcq.penalty,
                    nsdpcq.report):
            monkeypatch.setattr(mod, "feasibility_data", counted)
        for ent in corpus_entries():
            calls.clear()
            analyze_problem(ent.problem, np.array(ent.point))
            assert len(calls) == (1 if ent.id in untraced else 2), \
                (ent.id, calls)


# ---------------------------------------------------------------------------
# analysis routes: implied probe verdicts and the lazily built trace family


PROBE_UPSTREAM = (("weak_ndg_probe", "nondegeneracy"),
                  ("weak_robinson_probe", "robinson"))
ROBINSON_PROBLEMS = {"fullmat": fullmat_problem, "offdiag": offdiag_problem,
                     "block2": block2_problem,
                     "ladder": lambda: NsdpProblem.from_json(LADDER_PROBLEM)}


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call."""
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def implied_probes(rep):
    return [probe for probe, _ in PROBE_UPSTREAM
            if (rep.verdicts[probe].witness or {}).get("implied_by")]


class TestImpliedProbes:
    @pytest.mark.parametrize("name", ["fullmat", "ladder"])
    def test_certified_upstream_builds_no_trace(self, monkeypatch, name):
        P = ROBINSON_PROBLEMS[name]()
        penalty_runs = count_calls(monkeypatch, nsdpcq.penalty,
                                   "run_penalty")
        paths = count_calls(monkeypatch, nsdpcq.penalty, "make_path_trace")
        rep = analyze_problem(P, np.zeros(P.n))
        assert penalty_runs == [] and paths == []
        assert rep.timing["traces"] == 0.0
        for probe, upstream in PROBE_UPSTREAM:
            up, v = rep.verdicts[upstream], rep.verdicts[probe]
            assert up.status is CqStatus.HOLDS_CERTIFIED
            assert v.status is CqStatus.HOLDS_CERTIFIED
            assert v.reason == f"implied by {upstream}: {up.reason}"
            assert v.witness == {"implied_by": upstream,
                                 "upstream": up.witness}

    def test_family_built_once_for_open_probes(self, monkeypatch):
        builds = count_calls(monkeypatch, nsdpcq.report,
                             "default_trace_family")
        # diag3: nondegeneracy fails, so weak nondegeneracy needs traces;
        # weak Robinson keeps its exact diagonal route
        rep = analyze_problem(diag3_problem(), np.zeros(3))
        assert len(builds) == 1
        assert rep.verdicts["weak_ndg_probe"].status is \
            CqStatus.HOLDS_SAMPLED
        assert rep.verdicts["weak_robinson_probe"].reason.startswith(
            "diagonal constraint")
        assert rep.timing["traces"] > 0.0
        # facial: both upstream conditions fail and both probes share one
        builds.clear()
        rep = analyze_problem(facial_problem(), np.zeros(2))
        assert len(builds) == 1
        assert implied_probes(rep) == []

    @pytest.mark.parametrize("name", sorted(ROBINSON_PROBLEMS))
    def test_implied_weak_robinson_replays(self, name):
        # lambda_min(G(x) + DG(x)[d]) > 0 for the upstream direction d,
        # read from the JSON report alone
        P = ROBINSON_PROBLEMS[name]()
        x = np.zeros(P.n)
        obj = json.loads(report_json_text(analyze_problem(P, x)))
        v = obj["verdicts"]["weak_robinson_probe"]
        assert v["status"] == "HoldsCertified"
        assert v["witness"]["implied_by"] == "robinson"
        assert v["witness"]["upstream"] == obj["witnesses"]["robinson"]
        d = np.asarray(v["witness"]["upstream"]["direction"])
        shifted = P.constraint_value(x).a + np.tensordot(
            d, P.constraint_partials(x), axes=1)
        assert eigh(SymMat.from_symmetric(shifted)).values[-1] > 0.0

    def test_implied_verdicts_never_fail_on_traces(self):
        # every probe the analysis decides by implication, called directly
        # on the trace family, must not fail
        rng = np.random.default_rng(44)
        implied = 0
        for case in range(40):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 5))
            P = shifted_problem(rng, n, m, int(rng.integers(1, min(3, m) + 1)))
            x = np.zeros(n)
            rep = analyze_problem(P, x)
            probes = implied_probes(rep)
            if not probes:
                continue
            implied += len(probes)
            pd = feasibility_data(P, x)
            traces = default_trace_family(P, PenaltyConfig(anchor=x))
            direct = {"weak_ndg_probe": probe_weak_ndg(pd, traces)[1],
                      "weak_robinson_probe": probe_weak_robinson(pd, traces)}
            for probe in probes:
                assert direct[probe].status is not CqStatus.FAILS, \
                    (case, probe, direct[probe].reason)
        assert implied >= 40


# ---------------------------------------------------------------------------
# routes every condition shares


def equality_dependent_problems():
    """Three constraints at x = 0 with the dependent equalities h1 = x1,
    h2 = 2 x1: a trivial kernel, a diagonal constraint and a dense one."""
    one = lambda n: Poly.const(n, 1.0)
    eqs = lambda n: (xv(n, 0), xv(n, 0, 2.0))
    return [
        NsdpProblem(2, xv(2, 1), MatrixPoly.diagonal(
            [one(2), one(2) + xv(2, 1)]), eqs(2), name="eqdep_interior"),
        NsdpProblem(2, xv(2, 1), MatrixPoly.diagonal(
            [xv(2, 1), one(2) + xv(2, 0)]), eqs(2), name="eqdep_diagonal"),
        NsdpProblem(3, xv(3, 1), MatrixPoly(2, 3, {
            (0, 0): xv(3, 1), (0, 1): xv(3, 2), (1, 1): one(3)}),
            eqs(3), name="eqdep_dense"),
    ]


def replay_family_witness(P, x, w):
    """A Fails witness of a gradient family: rebuild every vector from the
    basis and its pair, or from the equality gradients after the pairs,
    and check that the unit combination annihilates the family."""
    E = np.asarray(w["basis"])
    V = np.asarray(w["vectors"])
    c = np.asarray(w["coeffs"])
    pairs = [tuple(p) for p in w["pairs"]]
    rebuilt = [entry_gradient(P, x, E[:, i], E[:, j]) for i, j in pairs]
    rebuilt += list(P.equality_gradients(x))
    assert np.allclose(V, np.array(rebuilt), atol=1e-12)
    assert abs(float(np.linalg.norm(c)) - 1.0) < 1e-12
    assert float(np.linalg.norm(c @ V)) < 1e-7


class TestExactRoutes:
    @pytest.mark.parametrize("idx", range(3))
    def test_dependent_equalities_fail_everywhere(self, idx):
        P = equality_dependent_problems()[idx]
        x = np.zeros(P.n)
        rep = analyze_problem(P, x)
        assert {name: v.status for name, v in rep.verdicts.items()} == \
            {name: CqStatus.FAILS for name in CONDITIONS}
        assert rep.notes == []
        Heq = P.equality_gradients(x)
        for name, v in rep.verdicts.items():
            assert v.reason == "equality-constraint gradients dependent"
            c = np.asarray(v.witness["equality_coeffs"])
            assert abs(float(np.linalg.norm(c)) - 1.0) < 1e-12
            assert float(np.linalg.norm(c @ Heq)) < 1e-12, name
            assert v.witness["sigma_min"] < 1e-7

    def test_dimension_bound_witnesses_replay(self):
        # diag(x1, x1) with h = x2: 2 + 1 diagonal and 3 + 1 full
        # gradients in R^2
        P = NsdpProblem(2, xv(2, 0), MatrixPoly.diagonal(
            [xv(2, 0), xv(2, 0)]), (xv(2, 1),), name="thin_eq")
        x = np.zeros(2)
        pd = feasibility_data(P, x)
        verdicts = {"nondegeneracy": check_nondegeneracy(pd),
                    "sparse_ndg": check_sparse_ndg(pd),
                    "weak_ndg_probe": probe_weak_ndg(pd, [])[1]}
        for name, size in (("nondegeneracy", 4), ("sparse_ndg", 3),
                           ("weak_ndg_probe", 3)):
            v = verdicts[name]
            assert v.status is CqStatus.FAILS
            assert v.reason == (f"dimension bound: a family of {size} "
                                f"gradients cannot be independent in R^2")
            assert len(v.witness["vectors"]) == size
            assert v.witness["provenance"] == "fixed"
            replay_family_witness(P, x, v.witness)

    def test_diagonal_licq_refutes_sparse_ndg(self):
        # diag(x1, x1) in R^2: two equal diagonal gradients, inside the
        # dimension bound, so the reduction to LICQ refutes sparse_ndg
        P = NsdpProblem(2, xv(2, 0), MatrixPoly.diagonal(
            [xv(2, 0), xv(2, 0)]), name="twin")
        x = np.zeros(2)
        pd = feasibility_data(P, x)
        v = check_sparse_ndg(pd)
        assert v.status is CqStatus.FAILS
        assert v.reason == "diagonal constraint, LICQ fails"
        assert v.witness["pairs"] == [(0, 0), (1, 1)]
        replay_family_witness(P, x, v.witness)
        assert exact_verdict(pd, "weak_ndg_probe") is None

    def test_diagonal_route_covers_three_conditions(self):
        # weak nondegeneracy reduces to LICQ too, but stays with its
        # sequence probe
        pd = feasibility_data(diag3_problem(), np.zeros(3))
        decided = {name: exact_verdict(pd, name) for name in CONDITIONS}
        assert decided["nondegeneracy"].reason.startswith("dimension bound")
        assert decided["forsgren"] is None
        assert decided["weak_ndg_probe"] is None
        assert decided["sparse_ndg"].status is CqStatus.HOLDS_CERTIFIED
        assert decided["sparse_ndg"].witness["provenance"] == "diagonal"
        for name in ("robinson", "weak_robinson_probe"):
            assert decided[name].reason == "diagonal constraint, MFCQ holds"

    def test_unknown_condition_rejected(self):
        pd = feasibility_data(diag3_problem(), np.zeros(3))
        with pytest.raises(ValueError):
            exact_verdict(pd, "licq")


class TestReportNotes:
    def test_json_report_carries_notes(self, monkeypatch):
        # a planted Robinson failure under a certified nondegeneracy:
        # Robinson is decided before the conditions that imply it, the
        # certified hold still flows to sparse_ndg and forsgren, and the
        # lattice violations it leaves must reach the JSON report, with
        # the separation from weak Robinson, which weak nondegeneracy
        # implies
        planted = CqVerdict(CqStatus.FAILS, reason="planted")
        monkeypatch.setattr(nsdpcq.report, "check_robinson",
                            lambda pd: planted)
        rep = analyze_problem(fullmat_problem(), np.zeros(3))
        obj = json.loads(report_json_text(rep))
        assert obj["notes"] == rep.notes
        assert obj["notes"] == [
            f"{up} holds but robinson fails; the implication between them "
            "is violated, check the tolerances"
            for up in ("sparse_ndg", "forsgren")] + [
            "weak Robinson holds while Robinson fails: no such separation "
            "is currently known, inspect this instance"]
        assert {name: v["witness"]["implied_by"]
                for name, v in obj["verdicts"].items()
                if "implied_by" in v.get("witness", {})} == {
            "sparse_ndg": "nondegeneracy", "forsgren": "nondegeneracy",
            "weak_ndg_probe": "nondegeneracy",
            "weak_robinson_probe": "weak_ndg_probe"}


# ---------------------------------------------------------------------------
# KKT residuals


class TestKkt:
    def test_facial_closed_form(self):
        # grad f - DG*[Y] = (-Y11, 1 - 2 Y12) at the origin, so the
        # stationarity residual has the closed form hypot(Y11, 1 - 2 Y12)
        P = facial_problem()
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = rng.standard_normal(3)
            cert = kkt_residual(P, np.zeros(2), [[a, b], [b, c]])
            assert cert.stationarity_residual == pytest.approx(
                np.hypot(a, 1.0 - 2.0 * b), abs=1e-12)

    def test_facial_has_no_bounded_multiplier(self):
        # PSD forces Y11 Y22 >= Y12^2; pushing the residual to zero needs
        # Y11 = 0 and Y12 = 1/2, violating that, so every PSD multiplier
        # of norm at most 10 keeps a residual above a computable bound
        P = facial_problem()
        rng = np.random.default_rng(13)
        best = np.inf
        for _ in range(2000):
            L = rng.standard_normal((2, 2))
            Y = L @ L.T
            s = float(np.max(np.abs(Y)))
            if s > 10.0:
                Y = Y * (10.0 / s)
            cert = kkt_residual(P, np.zeros(2), Y)
            if cert.psd_defect <= 1e-10:
                best = min(best, cert.stationarity_residual)
        assert best > 1e-3

    def test_complementarity_residual(self):
        P = facial_problem()
        cert = kkt_residual(P, np.array([1.0, 0.0]),
                            [[1.0, 0.0], [0.0, 0.0]])
        assert cert.complementarity_residual == pytest.approx(1.0, abs=1e-12)

    def test_psd_defect_flags_indefinite_multiplier(self):
        P = facial_problem()
        cert = kkt_residual(P, np.zeros(2), [[0.0, 0.5], [0.5, 0.0]])
        assert cert.stationarity_residual <= 1e-12
        assert cert.psd_defect == pytest.approx(0.5, abs=1e-10)
        assert not cert.is_valid()

    def test_residuals_match_public_method_calls(self):
        # one evaluation gives the bits of one public model call per value
        rng = np.random.default_rng(19)
        for case in range(10):
            P = rand_problem(rng, 3, 3)
            x = rng.standard_normal(3)
            Y = SymMat.from_symmetric(rng.standard_normal((3, 3)))
            cert = kkt_residual(P, x, Y)
            grad = P.objective_gradient(x) - P.adjoint(x, Y)
            assert cert.stationarity_residual == float(np.linalg.norm(grad))
            assert cert.complementarity_residual == abs(
                float(np.sum(P.constraint_value(x).a * Y.a)))

    def test_diag3_identity_multiplier(self):
        cert = kkt_residual(diag3_problem(), np.zeros(3), np.eye(3))
        assert cert.stationarity_residual <= 1e-12
        assert cert.complementarity_residual <= 1e-12
        assert cert.psd_defect <= 1e-12
        assert cert.is_valid(tol=1e-8)

    def test_find_multiplier_diag3(self):
        cert = find_multiplier(feasibility_data(diag3_problem(), np.zeros(3)))
        assert cert.stationarity_residual <= 1e-8
        assert cert.psd_defect <= 1e-10
        assert np.allclose(cert.multiplier.a, np.eye(3), atol=1e-7)

    def test_find_multiplier_fullmat(self):
        cert = find_multiplier(
            feasibility_data(fullmat_problem(), np.zeros(3)))
        assert cert.stationarity_residual <= 1e-8
        assert np.allclose(cert.multiplier.a, np.eye(2), atol=1e-7)

    def test_find_multiplier_with_equality(self):
        # f = x2, G = [x1], h = x1 - x2: stationarity needs Y = [1], mu = -1
        G = MatrixPoly(1, 2, {(0, 0): xv(2, 0)})
        P = NsdpProblem(2, xv(2, 1), G, equalities=[xv(2, 0) - xv(2, 1)])
        cert = find_multiplier(feasibility_data(P, np.zeros(2)))
        assert cert.stationarity_residual <= 1e-8
        assert cert.multiplier.a[0, 0] == pytest.approx(1.0, abs=1e-7)
        assert cert.equality_multipliers[0] == pytest.approx(-1.0, abs=1e-7)

    def test_find_multiplier_interior_stationary(self):
        cert = find_multiplier(
            feasibility_data(interior_problem(), np.zeros(2)))
        assert cert.stationarity_residual <= 1e-12
        assert cert.is_valid(tol=1e-10)
