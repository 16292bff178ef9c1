"""Dense symmetric-matrix numerics.

All spectral work in this package runs through :func:`eigh`, which
calls LAPACK's symmetric eigensolver and fixes the ordering and sign
conventions below.  A :class:`SymMat` holds one matrix or a stack of
them along leading axes, and :func:`eigh` decomposes a stack in one
LAPACK call through ``numpy.linalg.eigh``, each slice exactly as it
would decompose that matrix alone.  A single matrix, the case of every
penalty step, takes a shorter path to the same bytes, layout and flags:
:func:`eigh_raw` calls the LAPACK gufunc behind ``numpy.linalg.eigh``
directly, and :func:`spectral_order` fixes the order and signs with no
offsets into a stack.  The penalty reads the raw ascending pairs
themselves, and a model evaluation keeps both forms of one call.  On a
3 x 3 matrix the gufunc takes 3.3 us against numpy.linalg.eigh's 7.8
to 10.7 us on a shared 2-core Xeon, the rest being numpy.linalg's
dispatch.
LAPACK's error in an eigenvalue is a small multiple of eps * ||M||;
the cyclic Jacobi method only does better on small eigenvalues when it
stops on a relative off-diagonal test (Demmel & Veselic 1992), so it
buys nothing over LAPACK for the absolute rank and kernel tolerances
used here.

Conventions used everywhere:

* eigenvalues are reported in non-increasing order,
* each eigenvector's largest-magnitude component is positive, the one
  sign rule of the package,
* the kernel of a PSD matrix at threshold tau is the span of the
  eigenvectors whose eigenvalues satisfy ``|lambda| <= tau``; a kernel
  basis E is a plain read-only m x k array, those eigenvectors as eigh
  returns them, so its columns are orthonormal (:func:`spectral_kernel`),
* every rank is :func:`ranked_svd`'s count of singular values above
  LI_TOL * max(1, sigma_1), and every span its leading left singular
  vectors,
* every orthonormalization that keeps column order is
  :func:`orthonormalize`, LAPACK's QR with R's diagonal made positive,
  refused under the same rank rule,
* random rotations are Haar draws (:func:`random_rotation`), with no
  sign fix that would bias them,
* inner product on symmetric matrices is the Frobenius one, ``tr(M N)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NumericalFailure

TAU_RANK = 1e-8
LI_TOL = 1e-8        # relative singular-value threshold of every rank
# the gufunc numpy.linalg.eigh calls, for the single-matrix path of eigh
_eigh_lo = _umath_linalg.eigh_lo


@lru_cache(maxsize=None)
def _row_offsets(m: int) -> np.ndarray:
    """Flat offsets of the rows of a C-ordered m x m array, read-only,
    as every caller shares them."""
    offsets = np.arange(0, m * m, m)
    offsets.setflags(write=False)
    return offsets


def frobenius(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product <A, B> = tr(A B) for symmetric arrays."""
    return float(np.sum(np.asarray(a) * np.asarray(b)))


def _checked_square(arr: np.ndarray) -> np.ndarray:
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] < 1:
        raise ValueError("SymMat needs square arrays of dimension >= 1")
    return arr


class SymMat:
    """Immutable dense symmetric matrix, or a stack of them, shape (..., m, m).

    The upper triangle of the input is authoritative; the lower triangle is
    overwritten by its mirror on construction, so ``M.a`` is exactly
    symmetric (entrywise equality, not merely within a tolerance).
    """

    __slots__ = ("a",)

    def __init__(self, entries):
        arr = _checked_square(np.array(entries, dtype=float))
        if not np.all(np.isfinite(arr)):
            raise ValueError("SymMat entries must be finite")
        # row-wise mirror: for the small m used here this is several
        # times faster than a masked np.where
        for i in range(1, arr.shape[-1]):
            arr[..., i, :i] = arr[..., :i, i]
        arr.setflags(write=False)
        self.a = arr

    @classmethod
    def from_symmetric(cls, arr) -> "SymMat":
        """Build from a numerically near-symmetric array by averaging.

        Float addition commutes, so the average is exactly symmetric and
        is frozen as it is, with no second copy or mirror.  The finiteness
        check runs on the average, where +inf and -inf across the diagonal
        have become NaN.
        """
        arr = _checked_square(np.asarray(arr, dtype=float))
        return cls._frozen((arr + arr.swapaxes(-1, -2)) / 2.0)

    @classmethod
    def _frozen(cls, arr: np.ndarray, checked: bool = False) -> "SymMat":
        """Freeze a square, exactly symmetric float array in place, with
        no copy, after checking that it is finite, unless the caller
        has (checked).  The caller vouches for the shape and the
        symmetry, as an evaluation that fills an entry and its mirror
        from one computation can."""
        if not checked and not np.isfinite(arr).all():
            raise ValueError("SymMat entries must be finite")
        arr.setflags(write=False)
        out = cls.__new__(cls)
        out.a = arr
        return out

    @classmethod
    def zero(cls, m: int) -> "SymMat":
        return cls(np.zeros((m, m)))

    @property
    def dim(self) -> int:
        return self.a.shape[-1]

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.a))) if self.a.size else 0.0

    def __repr__(self):
        return f"SymMat({self.a.tolist()!r})"


@dataclass(frozen=True)
class Spectral:
    """Eigendecomposition M = U diag(values) U^T, values non-increasing;
    for a stack, values is (..., m) and vectors (..., m, m)."""

    values: np.ndarray
    vectors: np.ndarray  # column i belongs to values[..., i]


def eigh_raw(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """LAPACK's eigenpairs of one symmetric matrix a as it returns them:
    the values w ascending and the vectors u in columns, both read-only.

    The gufunc behind numpy.linalg.eigh, ``_eigh_lo``, is called on a as
    is, under numpy.linalg's own errstate less its LinAlgError.  It
    reports a failure by filling every output with NaN, which is raised
    as :class:`NumericalFailure`.  :func:`spectral_order` puts the pairs
    in eigh's order and signs.
    """
    with np.errstate(all="ignore"):
        w, u = _eigh_lo(a, signature="d->dd")
    if w.size and w[-1] != w[-1]:
        raise NumericalFailure(
            "eigensolver failed: Eigenvalues did not converge")
    w.setflags(write=False)
    u.setflags(write=False)
    return w, u


def spectral_order(w: np.ndarray, u: np.ndarray) -> Spectral:
    """The nonempty pairs (w, u) of :func:`eigh_raw` as :func:`eigh`
    returns them, with new read-only arrays.

    One stable argsort of -w, one gather of the rows of u^T, one sign fix
    read off each row's argmax by a flat take and a transpose back give
    the bytes, strides and flags the stack path of eigh gives its slices:
    the gathered rows are C-ordered, so their transpose is column-major.
    """
    order = (-w).argsort(kind="stable")
    values = w.take(order)
    rows = u.T.take(order, axis=0)
    peak = rows.take(np.abs(rows).argmax(axis=1) + _row_offsets(w.size))
    np.negative(rows, out=rows, where=peak[:, None] < 0.0)
    vectors = rows.T
    values.setflags(write=False)
    vectors.setflags(write=False)
    return Spectral(values=values, vectors=vectors)


def eigh(M) -> Spectral:
    """Eigendecomposition of a symmetric matrix, or of a stack of them
    along leading axes, through LAPACK.

    A SymMat is used as is; any other input is symmetrized by averaging.
    Eigenvalues come out non-increasing; the reordering is a stable sort,
    so ties keep LAPACK's order.  Each eigenvector is sign-fixed so that
    its largest-magnitude component is positive.  Both arrays are
    read-only, and the vectors column-major.  A LAPACK failure, in any
    matrix of a stack, is raised as :class:`NumericalFailure`.

    A stack goes through numpy.linalg.eigh and orders all its matrices
    by one gather of the eigenvectors as rows, each matrix's order
    offset by its first row.  A single matrix is :func:`eigh_raw` of the
    same array put in order by :func:`spectral_order`.
    """
    if isinstance(M, SymMat):
        a = M.a
    else:
        a = np.asarray(M, dtype=float)
        if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
            raise ValueError("eigh needs a square symmetric matrix")
        a = (a + a.swapaxes(-1, -2)) / 2.0
    if a.ndim == 2:
        w, u = eigh_raw(a)
        return spectral_order(w, u) if w.size else Spectral(w, u)
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    values, vectors = w, u
    if w.size:
        m = w.shape[-1]
        # every eigenvector of the stack as a row, in LAPACK's order
        rows = u.swapaxes(-1, -2).reshape(w.size, m)
        # deterministic sign: make the largest-magnitude component positive
        peak = rows.take(np.abs(rows).argmax(axis=1)
                         + np.arange(0, rows.size, m))
        np.negative(rows, out=rows, where=peak[:, None] < 0.0)
        # per matrix, offset by its first row, so one gather orders all;
        # the rows gathered and swapped back leave each matrix
        # column-major, the layout u[:, order] gives one matrix, which
        # later BLAS products of the vectors round by
        order = np.argsort(-w, axis=-1, kind="stable")
        order += np.arange(0, w.size, m).reshape(w.shape[:-1] + (1,))
        values, vectors = w.take(order), rows[order].swapaxes(-1, -2)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return Spectral(values=values, vectors=vectors)


def spectral_kernel(spec: Spectral, tau: float) -> np.ndarray:
    """Kernel basis E of the matrix whose eigendecomposition is spec, as
    a read-only m x k array: the eigenvectors whose eigenvalues satisfy
    |lambda| <= tau, in eigh's order and signs.  LAPACK's eigenvectors
    are orthonormal, so E needs no second pass; the paper's conditions
    read any orthonormal basis of the kernel.  The threshold is absolute,
    and the caller decides whether the matrix is PSD within it.
    """
    E = spec.vectors[:, np.abs(spec.values) <= tau]
    E.setflags(write=False)
    return E


def ranked_svd(A, full: bool = False) -> Tuple[np.ndarray, np.ndarray, int]:
    """(U, s, rank) of a matrix A (r x c) through LAPACK's SVD: the left
    singular vectors U, r x min(r, c) or r x r when full, the singular
    values s in non-increasing order, and the rank, the number of them
    above LI_TOL * max(1, s[0]).  The leading rank columns of U are an
    orthonormal basis of the span of A's columns.  Ranking singular
    values, not the eigenvalues of the Gram matrix A^T A, keeps the
    condition number from being squared (Golub & Van Loan, *Matrix
    Computations*, 5.3).
    """
    u, s, _ = np.linalg.svd(A, full_matrices=full)
    rank = int(np.count_nonzero(s > LI_TOL * max(1.0, s[0]))) if s.size else 0
    return u, s, rank


def orthonormalize(cols, complete: bool = False) -> Optional[np.ndarray]:
    """Orthonormal columns Q spanning the leading columns of cols in
    order, so Q[:, :j] spans cols[:, :j] for every j; None when the
    columns are dependent.

    Q is LAPACK's QR with each column multiplied by the sign of R's
    diagonal entry (+ for a zero), which makes R's diagonal nonnegative
    and so the factorization unique: the first column is the first input
    column normalized.  The columns are dependent when R, whose singular
    values are those of cols, has rank below their count under
    :func:`ranked_svd`'s rule.  complete appends the m - w columns of
    LAPACK's complete QR that finish Q to an orthonormal basis of R^m.
    """
    q, r = np.linalg.qr(cols, mode="complete" if complete else "reduced")
    if ranked_svd(r)[2] < r.shape[1]:
        return None
    d = np.diag(r)
    q[:, :d.size] *= np.sign(np.where(d == 0.0, 1.0, d))
    return q


def random_rotation(k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal k x k matrix.

    :func:`orthonormalize` of a Gaussian draw: the Q factor with each
    column multiplied by the sign of R's diagonal entry, which makes the
    factorization unique, so the draw is the same on any LAPACK, and Q
    Haar distributed (Mezzadri, *How to generate random matrices from
    the classical compact groups*, Notices AMS 54, 2007).  A Gaussian
    draw has sigma_min <= 1e-8 sigma_1, where it would be refused, with
    probability of order 1e-8 k (Edelman 1988).
    """
    return orthonormalize(rng.standard_normal((k, k)))


def orthonormal_completion(V: np.ndarray) -> np.ndarray:
    """The m x (m - w) block completing orthonormal columns V (m x w) to
    an orthonormal basis: the trailing columns of the complete QR of V
    (:func:`orthonormalize`), each signed as :func:`eigh` signs an
    eigenvector, largest-magnitude component positive."""
    Q = orthonormalize(V, complete=True)
    if Q is None:
        raise NumericalFailure("failed to complete orthonormal basis")
    C = Q[:, V.shape[1]:]
    peak = C[np.abs(C).argmax(axis=0), np.arange(C.shape[1])]
    return np.where(peak < 0.0, -C, C)
