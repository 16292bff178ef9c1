"""Tests for the symmetric-matrix core.

The eigensolver wraps LAPACK, so on random inputs its oracle is a
residual check (orthonormal vectors that reconstruct the matrix), plus
closed-form small cases and the ordering and sign conventions the
wrapper adds.
"""
import numpy as np
import pytest

from oracles import eigh_stack_form

from nsdpcq import symmat
from nsdpcq.errors import NumericalFailure
from nsdpcq.symmat import (
    SymMat,
    eigh,
    orthonormal_completion,
    orthonormalize,
    proj_psd,
    random_rotation,
    spectral_kernel,
)

RT2 = 1.0 / np.sqrt(2.0)


def test_symmat_mirrors_upper_triangle():
    m = SymMat([[1.0, 2.0], [999.0, 3.0]])
    assert m.a[1, 0] == 2.0
    assert m.a[0, 1] == 2.0
    with pytest.raises(ValueError):
        SymMat([[np.inf, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        SymMat([[1.0, 2.0, 3.0]])


def test_symmat_is_readonly():
    m = SymMat.diag([1.0, 2.0])
    with pytest.raises(ValueError):
        m.a[0, 0] = 5.0


def test_from_symmetric_is_exact_finite_and_readonly():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((5, 5))
    m = SymMat.from_symmetric(g)
    assert np.array_equal(m.a, m.a.T)
    assert np.array_equal(m.a, (g + g.T) / 2.0)
    with pytest.raises(ValueError):
        m.a[0, 1] = 1.0
    # the input is not aliased and stays writable
    g[0, 1] = 7.0
    assert m.a[0, 1] != 7.0
    # +inf and -inf across the diagonal average to NaN
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        SymMat.from_symmetric([[0.0, np.inf], [-np.inf, 0.0]])
    with pytest.raises(ValueError):
        SymMat.from_symmetric([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        SymMat.from_symmetric([1.0, 2.0])


def test_eigh_offdiagonal_2x2():
    # [[0,1],[1,0]] has eigenpairs (1, (1,1)/sqrt2) and (-1, (1,-1)/sqrt2)
    spec = eigh(SymMat([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spec.values, [1.0, -1.0], atol=1e-14)
    assert np.allclose(np.abs(spec.vectors[:, 0]), [RT2, RT2], atol=1e-14)
    assert np.allclose(np.abs(spec.vectors[:, 1]), [RT2, RT2], atol=1e-14)
    assert np.allclose(spec.reconstruct(), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_eigh_diagonal_is_sorted_permutation():
    spec = eigh(SymMat.diag([3.0, 1.0, 2.0]))
    assert np.allclose(spec.values, [3.0, 2.0, 1.0])
    # eigenvectors are identity columns, permuted to match the sort
    expect = np.eye(3)[:, [0, 2, 1]]
    assert np.allclose(spec.vectors, expect)


def test_eigh_zero_matrix():
    spec = eigh(SymMat.zero(3))
    assert np.allclose(spec.values, 0.0)
    assert np.allclose(spec.vectors, np.eye(3))


def test_eigh_matches_lapack_oracle_many_seeds():
    # 1000 random symmetric matrices of dimension <= 8
    failures = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 9))
        g = rng.standard_normal((m, m))
        M = SymMat.from_symmetric(g + g.T)
        spec = eigh(M)
        scale = max(1.0, M.norm_inf())
        # orthonormality and reconstruction
        assert np.max(np.abs(spec.vectors.T @ spec.vectors - np.eye(m))) <= 1e-10
        assert np.max(np.abs(spec.reconstruct() - M.a)) <= 1e-8 * (1.0 + M.norm_inf())
        assert np.all(np.diff(spec.values) <= 1e-12 * scale)
        ora = np.sort(np.linalg.eigvalsh(M.a))[::-1]
        if not np.allclose(spec.values, ora, atol=1e-10 * scale):
            failures += 1
    assert failures == 0


def test_eigh_order_and_sign_conventions():
    # random matrices, half of them with a repeated eigenvalue: values
    # exactly non-increasing, each vector's largest-magnitude entry
    # positive, both outputs read-only
    for seed in range(200):
        rng = np.random.default_rng(30_000 + seed)
        m = int(rng.integers(1, 9))
        if seed % 2:
            lam = rng.standard_normal(m)
            lam[: m // 2] = lam[0]
            q = random_rotation(m, rng)
            M = SymMat.from_symmetric((q * lam) @ q.T)
        else:
            g = rng.standard_normal((m, m))
            M = SymMat.from_symmetric(g + g.T)
        spec = eigh(M)
        assert np.all(np.diff(spec.values) <= 0.0)
        for j in range(m):
            col = spec.vectors[:, j]
            assert col[int(np.argmax(np.abs(col)))] > 0.0
        assert not spec.values.flags.writeable
        assert not spec.vectors.flags.writeable
        # column-major, as a column gather of LAPACK's vectors leaves
        # them: products of the vectors round by their layout
        assert spec.vectors.flags.f_contiguous


def test_eigh_stack_slices_equal_single_calls():
    # each slice of a stacked eigh, values and vectors, is bit for bit the
    # single-matrix call, on random stacks, repeated eigenvalues and the
    # all-zero matrix, where ties decide the column order
    def draw(rng, m, kind):
        if kind == 0:
            g = rng.standard_normal((m, m))
            return g + g.T
        if kind == 1:
            lam = rng.standard_normal(m)
            lam[: (m + 1) // 2] = lam[0]
            q = random_rotation(m, rng)
            return (q * lam) @ q.T
        return np.zeros((m, m))

    for seed in range(100):
        rng = np.random.default_rng(40_000 + seed)
        m = int(rng.integers(1, 9))
        lead = ((int(rng.integers(1, 6)),), (2, 3))[seed % 2]
        stack = np.array([draw(rng, m, int(rng.integers(0, 3)))
                          for _ in range(int(np.prod(lead)))])
        stack = stack.reshape(lead + (m, m))
        for M in (SymMat.from_symmetric(stack), stack):
            spec = eigh(M)
            assert spec.values.shape == lead + (m,)
            assert spec.vectors.shape == lead + (m, m)
            assert not spec.values.flags.writeable
            assert not spec.vectors.flags.writeable
            for idx in np.ndindex(*lead):
                one = eigh(SymMat.from_symmetric(stack[idx]))
                assert spec.values[idx].tobytes() == one.values.tobytes()
                assert spec.vectors[idx].tobytes() == one.vectors.tobytes()
                assert spec.vectors[idx].strides == one.vectors.strides
    zero = eigh(SymMat.from_symmetric(np.zeros((3, 4, 4))))
    for idx in range(3):
        assert np.array_equal(zero.vectors[idx], np.eye(4))
    spec = eigh(SymMat.from_symmetric(stack))
    assert np.allclose(spec.reconstruct(), stack, atol=1e-12)


def test_eigh_single_matrix_matches_stack_form():
    # the single-matrix path gives the stack path's output bit for bit:
    # values and vectors as bytes, with the same strides and flags, on
    # random matrices, exactly repeated eigenvalues (a permuted diagonal
    # and a multiple of a permutation-invariant matrix, where LAPACK
    # returns ties) and the zero matrix
    def draw(rng, m, kind):
        if kind == 0:
            g = rng.standard_normal((m, m))
            return g + g.T
        if kind == 1:
            lam = rng.integers(-2, 3, m).astype(float)
            return np.diag(lam[rng.permutation(m)])
        if kind == 2:
            return float(rng.integers(-3, 4)) * (np.ones((m, m))
                                                 + np.eye(m))
        return np.zeros((m, m))

    for seed in range(400):
        rng = np.random.default_rng(50_000 + seed)
        m = int(rng.integers(1, 9))
        a = draw(rng, m, seed % 4)
        for M in (SymMat(a), a):
            got, want = eigh(M), eigh_stack_form(SymMat(a).a)
            for u, v in ((got.values, want.values),
                         (got.vectors, want.vectors)):
                assert u.tobytes() == v.tobytes(), (seed, m)
                assert u.shape == v.shape and u.strides == v.strides
                assert u.flags == v.flags, (seed, m)


def test_eigh_stack_failure_anywhere_is_numerical_failure():
    # a NaN matrix makes LAPACK itself fail, wherever it sits in a stack
    bad = np.full((3, 3), np.nan)
    for pos in range(3):
        stack = [np.eye(3)] * 3
        stack[pos] = bad
        with pytest.raises(NumericalFailure) as info:
            eigh(np.array(stack))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    # a SymMat stack is checked for finiteness when it is built
    with pytest.raises(ValueError):
        SymMat.from_symmetric(np.array([np.eye(3), bad]))


def test_eigh_lapack_failure_is_numerical_failure(monkeypatch):
    def boom(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(symmat.np.linalg, "eigh", boom)
    with pytest.raises(NumericalFailure) as info:
        eigh(SymMat.diag([1.0, 2.0]))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_eigh_deterministic():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((6, 6))
    M = SymMat.from_symmetric(g + g.T)
    a = eigh(M)
    b = eigh(M)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_proj_psd_offdiagonal_2x2():
    # positive part of [[0,1],[1,0]] is the rank-one matrix 0.5 * ones
    p = proj_psd(SymMat([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(p.a, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)


def test_proj_psd_fixes_negative_diagonal():
    p = proj_psd(SymMat.diag([2.0, -3.0, 0.0]))
    assert np.allclose(p.a, np.diag([2.0, 0.0, 0.0]), atol=1e-14)


def test_proj_psd_moreau_and_idempotence_many_seeds():
    # Moreau: M = proj(M) - proj(-M) with the two parts Frobenius-orthogonal
    for seed in range(1000):
        rng = np.random.default_rng(10_000 + seed)
        m = int(rng.integers(1, 9))
        g = rng.standard_normal((m, m))
        M = SymMat.from_symmetric(g + g.T)
        plus = proj_psd(M)
        minus = proj_psd(SymMat(-M.a))
        scale = 1.0 + M.norm_inf()
        assert np.max(np.abs(M.a - (plus.a - minus.a))) <= 1e-8 * scale
        assert abs(symmat.frobenius(plus.a, minus.a)) <= 1e-8 * scale * scale
        again = proj_psd(plus)
        assert np.max(np.abs(again.a - plus.a)) <= 1e-8 * scale


def kernel_of(M):
    return spectral_kernel(eigh(M), 1e-8)


def test_kernel_basis_picks_zero_cluster():
    E = kernel_of(SymMat.diag([2.0, 0.0, 0.0]))
    assert E.shape == (3, 2)
    # columns orthonormal and in span{e2, e3}
    assert np.allclose(E.T @ E, np.eye(2), atol=1e-12)
    assert np.allclose(E[0, :], 0.0, atol=1e-12)


def test_kernel_basis_repeated_zero_eigenvalue_off_axis():
    # Q diag(3, 1, 0, 0) Q^T with a generic rotation Q: the kernel is the
    # span of the last two columns of Q, not of any coordinate axes
    rng = np.random.default_rng(5)
    q = random_rotation(4, rng)
    M = SymMat.from_symmetric((q * np.array([3.0, 1.0, 0.0, 0.0])) @ q.T)
    assert np.max(np.abs(M.a - np.diag(np.diag(M.a)))) > 0.1
    E = kernel_of(M)
    assert E.shape == (4, 2)
    assert np.allclose(E.T @ E, np.eye(2), atol=1e-12)
    true_kernel = q[:, 2:]
    assert np.allclose(E @ E.T, true_kernel @ true_kernel.T, atol=1e-10)


def test_kernel_basis_full_kernel_at_zero():
    E = kernel_of(SymMat.zero(2))
    assert np.allclose(E, np.eye(2))


def test_spectral_kernel_of_random_psd_matrices():
    for seed in range(50):
        rng = np.random.default_rng(20_000 + seed)
        m = int(rng.integers(2, 7))
        r = int(rng.integers(0, m - 1))
        # PSD matrix with an exact kernel of dimension m - r >= 2, so the
        # zero eigenvalue is repeated
        q = random_rotation(m, rng)
        lam = np.concatenate([np.sort(rng.uniform(0.5, 3.0, r))[::-1],
                              np.zeros(m - r)])
        M = SymMat.from_symmetric((q * lam) @ q.T)
        E = kernel_of(M)
        assert E.shape == (m, m - r)
        assert np.max(np.abs(E.T @ E - np.eye(m - r))) <= 1e-12
        assert np.max(np.abs(M.a @ E)) <= 1e-8 * (1.0 + M.norm_inf())
        assert not E.flags.writeable
        with pytest.raises(ValueError):
            E[0, 0] = 1.0


def test_orthonormalize_keeps_order_and_drops_dependent_columns(monkeypatch):
    monkeypatch.setattr(symmat, "ORTHO_TOL", 1e-10)
    rng = np.random.default_rng(11)
    A = rng.standard_normal((5, 3))
    # column 2 is a combination of columns 0 and 1, column 4 repeats 3
    cols = np.column_stack([A[:, 0], A[:, 1], A[:, 0] - 2.0 * A[:, 1],
                            A[:, 2], A[:, 2]])
    Q = orthonormalize(cols)
    assert Q.shape == (5, 3)
    assert np.max(np.abs(Q.T @ Q - np.eye(3))) <= 1e-12
    # column order: the first kept column is the first input column
    # normalized, and each prefix of Q spans the same prefix of the input
    assert np.allclose(Q[:, 0], A[:, 0] / np.linalg.norm(A[:, 0]),
                       atol=1e-14)
    for j, want in ((1, A[:, :2]), (2, A)):
        proj = Q[:, :j + 1] @ (Q[:, :j + 1].T @ want)
        assert np.allclose(proj, want, atol=1e-12)
    assert orthonormalize(np.zeros((3, 2))).shape == (3, 0)


def test_random_rotation_is_orthogonal_and_sign_fixed():
    rng = np.random.default_rng(3)
    for k in (1, 2, 5):
        q = random_rotation(k, rng)
        assert np.allclose(q.T @ q, np.eye(k), atol=1e-12)
    # R's diagonal fixes the signs, so one seed gives one rotation, and
    # leaves the draw Haar: over 2,000 draws at k = 3 each first-row
    # entry is negative about half the time (binomial sd 0.011), where a
    # rule making some entry of each column positive skews the signs
    draws = np.array([random_rotation(3, np.random.default_rng([3, i]))
                      for i in range(2000)])
    assert np.array_equal(draws[7], random_rotation(
        3, np.random.default_rng([3, 7])))
    negative = np.mean(draws[:, 0, :] < 0.0, axis=0)
    assert np.all(np.abs(negative - 0.5) < 0.05), negative


def test_orthonormal_completion():
    v = np.array([[1.0], [0.0], [0.0]])
    w = orthonormal_completion(v)
    full = np.hstack([v, w])
    assert np.allclose(full.T @ full, np.eye(3), atol=1e-12)
    rng = np.random.default_rng(13)
    for m, w in ((4, 2), (5, 1), (3, 3), (6, 0)):
        V = random_rotation(m, rng)[:, :w]
        Q = orthonormal_completion(V)
        assert Q.shape == (m, m - w)
        full = np.hstack([V, Q])
        assert np.max(np.abs(full.T @ full - np.eye(m))) <= 1e-12
