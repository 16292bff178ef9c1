"""Tests for the sparsity-aware checks.

Reduced-map entries, sparsity patterns, and verdicts below were worked
out by hand for the small problem zoo and are frozen as expected values;
the property loops check the structural identities (hat-map gradients,
Schur-map feasibility equivalence, reduction soundness, pattern
cardinality invariance) on seeded random instances.
"""
import numpy as np
import pytest

from nsdpcq.cqcheck import (
    CqStatus,
    entry_gradient,
    feasibility_data,
    find_multiplier,
    li_test,
)
from nsdpcq.errors import InfeasiblePointError
from nsdpcq.model import MatrixPoly, NsdpProblem, Poly, structural_zero
from nsdpcq.corpus import entries
from nsdpcq.report import AnalysisOptions, analyze_problem
from nsdpcq.sparse import (
    PATTERN_COEF_TOL,
    TILDE_SAMPLES,
    TILDE_TOL,
    FacialReduction,
    SparsityPattern,
    check_forsgren,
    check_sparse_ndg,
    check_sparse_ndg_multifold,
    facial_reduce,
    hat_map,
    sparse_card_invariance,
    tilde_map,
    _congruence_entries,
)
from nsdpcq.symmat import KernelBasis, SymMat, eigh, random_rotation, rotate_basis

from test_cqcheck import (
    RT2,
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
    return feasibility_data(P, np.asarray(x, dtype=float)).kernel


class TestSparsityPattern:
    def test_membership_swaps_indices(self):
        p = SparsityPattern(dim=3, index_set=frozenset({(0, 1), (2, 2)}),
                            source="exact")
        assert p.has(1, 0) and p.has(0, 1)
        assert not p.has(0, 0)
        assert p.missing_diagonal() == [0, 1]
        assert not p.diagonal_complete()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparsityPattern(dim=2, index_set=frozenset({(1, 2)}),
                            source="exact")
        with pytest.raises(ValueError):
            SparsityPattern(dim=2, index_set=frozenset({(1, 0)}),
                            source="exact")


class TestHatMap:
    def test_facial_full_kernel_pattern(self):
        # at the origin the whole space is the kernel and the compression
        # is G itself: entries (0,0) and (0,1) present, (1,1) missing
        P = facial_problem()
        E = lifted_kernel(P, [0.0, 0.0])
        hat = hat_map(P, [0.0, 0.0], E)
        assert hat.dim == 2
        assert hat.pattern.sorted_pairs() == [(0, 0), (0, 1)]
        assert hat.pattern.missing_diagonal() == [1]

    def test_facial_active_point_pattern_empty(self):
        P = facial_problem()
        E = lifted_kernel(P, [1.0, 0.0])
        hat = hat_map(P, [1.0, 0.0], E)
        assert hat.dim == 1
        assert hat.pattern.cardinality() == 0
        assert structural_zero(hat.entry(0, 0))

    def test_offdiag_rotated_basis_diagonalizes(self):
        # the 45 degree basis cancels the off-diagonal entry below the
        # coefficient threshold, leaving two structurally nonzero diagonals
        P = offdiag_problem()
        E = lifted_kernel(P, [0.0, 0.0])
        C = np.array([[RT2, -RT2], [RT2, RT2]])
        Er = rotate_basis(E, C)
        hat = hat_map(P, [0.0, 0.0], Er)
        assert hat.pattern.sorted_pairs() == [(0, 0), (1, 1)]
        p00 = hat.entry(0, 0)
        assert abs(p00.eval(np.array([0.3, 0.4])) - (0.3 + 0.4)) < 1e-12
        p11 = hat.entry(1, 1)
        assert abs(p11.eval(np.array([0.3, 0.4])) - (0.3 - 0.4)) < 1e-12

    def test_congruence_matches_numeric_evaluation(self):
        rng = np.random.default_rng(3)
        P = fullmat_problem()
        E = lifted_kernel(P, [0.0, 0.0, 0.0])
        C = random_rotation(2, rng)
        hat = hat_map(P, [0.0, 0.0, 0.0], rotate_basis(E, C, seed=3))
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=3)
            direct = (E.cols @ C).T @ P.constraint_value(x).a @ (E.cols @ C)
            assert np.max(np.abs(hat.evaluate(x).a - direct)) < 1e-10

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
            k = E.nullity
            if k == 0:
                continue
            Er = rotate_basis(E, random_rotation(k, rng), seed=trial)
            hat = hat_map(P, x, Er)
            for i in range(k):
                for j in range(i, k):
                    got = np.array([g.eval(x) for g in hat.entry(i, j).grad()])
                    want = entry_gradient(P, x, Er.cols[:, i], Er.cols[:, j])
                    assert np.max(np.abs(got - want)) < 1e-10

    def test_basis_mismatch_rejected(self):
        P = diag3_problem()
        E = lifted_kernel(P, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            hat_map(P, [1.0, 1.0, 1.0], E)


class TestTildeMap:
    def test_partially_active_diagonal_pattern(self):
        P = diag2_problem()
        tm = tilde_map(feasibility_data(P, [1.0, 0.0]))
        assert tm.pattern.source == "sampled"
        assert tm.pattern.sorted_pairs() == [(1, 1)]

    def test_vanishes_at_anchor(self):
        for P, x in [(diag2_problem(), [1.0, 0.0]),
                     (facial_problem(), [1.0, 0.0])]:
            tm = tilde_map(feasibility_data(P, x))
            val = tm.evaluate(x)
            assert np.max(np.abs(val.a)) < 1e-8

    def test_zero_rank_reduces_to_constraint(self):
        P = offdiag_problem()
        tm = tilde_map(feasibility_data(P, [0.0, 0.0]))
        assert tm.pattern.source == "exact"
        assert tm.pattern.sorted_pairs() == [(0, 0), (0, 1), (1, 1)]
        x = np.array([0.2, -0.5])
        assert np.max(np.abs(tm.evaluate(x).a - P.constraint_value(x).a)) == 0.0

    def test_feasibility_equivalence_near_anchor(self):
        # with the range block positive definite, G(x) is positive
        # semidefinite exactly when the Schur map is; the Schur map keeps
        # structural zero eigenvalues along the range directions, so its
        # sign test carries a rounding band
        rng = np.random.default_rng(7)
        for P, x in [(diag2_problem(), [1.0, 0.0]),
                     (facial_problem(), [1.0, 0.0])]:
            x = np.asarray(x, dtype=float)
            tm = tilde_map(feasibility_data(P, x))
            agree = 0
            for _ in range(100):
                g = rng.standard_normal(P.n)
                xs = x + 1e-3 * g / np.linalg.norm(g)
                lam_g = float(eigh(P.constraint_value(xs)).values[-1])
                if abs(lam_g) < 1e-9:
                    continue       # too close to the boundary to classify
                lam_t = float(eigh(tm.evaluate(xs)).values[-1])
                assert (lam_g > 0) == (lam_t > -1e-12), (P.name, xs)
                agree += 1
            assert agree >= 85


def replay_sparse_witness(P, x, witness):
    """Rebuild the certified family from a Holds witness and re-test it.

    The pattern is re-derived from the polynomial coefficients of
    E^T G(.) E, so a witness claiming fewer entries than its basis has
    does not replay; every diagonal entry must be in it.
    """
    x = np.asarray(x, dtype=float)
    E = np.asarray(witness["basis"])
    k = E.shape[1]
    assert np.max(np.abs(E.T @ E - np.eye(k))) < 1e-10
    pattern = sorted(_congruence_entries(P.constraint, E, PATTERN_COEF_TOL))
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
        assert v.witness["provenance"] == "jacobi"
        assert v.witness["pattern"] == [(0, 0), (1, 1), (2, 2)]
        replay_sparse_witness(P, [0.0, 0.0, 0.0], v.witness)

    def test_scalar2_fails_diagonal_route(self):
        P = scalar2_problem()
        v = check_sparse_ndg(feasibility_data(P, [0.0]))
        assert v.status == CqStatus.FAILS
        assert "diagonal" in v.reason
        c = np.asarray(v.witness["coeffs"])
        V = np.asarray(v.witness["vectors"])
        assert np.linalg.norm(c @ V) < 1e-7

    def test_facial_fails_null_diagonal_route(self):
        P = facial_problem()
        v = check_sparse_ndg(feasibility_data(P, [1.0, 0.0]))
        assert v.status == CqStatus.FAILS
        Y = np.asarray(v.witness["multiplier"])
        # the witness multiplier annihilates the adjoint identically and
        # is complementary to G at the point
        assert v.witness["index"] == 1
        assert float(np.linalg.norm(P.adjoint(np.array([1.0, 0.0]), Y))) == 0.0
        assert abs(float(np.sum(P.constraint_value(np.array([1.0, 0.0])).a * Y))) == 0.0

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

    def test_undetermined_when_no_route_applies(self):
        # sparse nondegeneracy genuinely fails (every basis has a full
        # pattern, three entries against two variables) while Robinson
        # holds, so no refutation certificate exists
        G = MatrixPoly(2, 2, {(0, 0): xv(2, 0), (0, 1): xv(2, 1),
                              (1, 1): xv(2, 0, 2.0)})
        P = NsdpProblem(n=2, objective=xv(2, 0), constraint=G, name="stuck")
        v = check_sparse_ndg(feasibility_data(P, [0.0, 0.0]))
        assert v.status == CqStatus.UNDETERMINED

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
                        MatrixPoly(3, 3, _congruence_entries(P.constraint, Q)),
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
        assert v.reason == "trivial kernel"

    def test_structural_refutation_of_definiteness(self):
        # the Schur map keeps only an off-diagonal entry on the kernel, so
        # the pattern subspace has identically zero diagonal: injectivity
        # holds but no positive definite element can exist
        G = MatrixPoly(3, 2, {(0, 0): xv(2, 0), (1, 2): xv(2, 1)})
        P = NsdpProblem(n=2, objective=xv(2, 0), constraint=G, name="offker")
        v = check_forsgren(feasibility_data(P, [1.0, 0.0]))
        assert v.status == CqStatus.FAILS
        assert "positive definite" in v.reason
        assert v.witness["vanishing_diagonal"] == [0, 1]

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


class TestFacialReduce:
    def test_facial_single_round(self):
        P = facial_problem()
        fr = facial_reduce(P, [1.0, 0.0])
        assert isinstance(fr, FacialReduction)
        assert fr.rounds == 1
        assert fr.J == (0,)
        assert fr.omega == 1
        assert np.allclose(np.abs(fr.V1.ravel()), [1.0, 0.0])
        assert np.allclose(np.abs(fr.V2.ravel()), [0.0, 1.0])
        # the eliminated row becomes the equality x2 = 0, exactly
        assert len(fr.added_equalities) == 1
        eq = fr.added_equalities[0]
        assert eq.terms == ((1.0, (0, 1)),) or eq.terms == ((-1.0, (0, 1)),)
        red = fr.reduced_problem
        assert red.m == 1
        assert red.constraint.entry(0, 0).terms == ((1.0, (1, 0)),)

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
        assert fr.J == (0,)
        assert fr.added_equalities == ()
        assert fr.reduced_problem.constraint.entry(0, 0).terms == ((1.0, (1,)),)

    def test_identity_when_diagonal_complete(self):
        fr = facial_reduce(diag3_problem(), [0.0, 0.0, 0.0])
        assert fr.is_identity()
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
                assert abs(h.eval(x)) < 1e-12
            # and the congruence identity V1^T G V1 = reduced holds
            assert np.max(np.abs(fr.V1.T @ Gx.a @ fr.V1 - Rx.a)) < 1e-12
            checked += 1
        assert checked == 100


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
