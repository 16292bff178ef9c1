"""Dense symmetric-matrix numerics.

All spectral work in this package runs through :func:`eigh`, a thin
wrapper around LAPACK's symmetric eigensolver (``numpy.linalg.eigh``)
that fixes the ordering and sign conventions below.  A :class:`SymMat`
holds one matrix or a stack of them along leading axes, and
:func:`eigh` decomposes a stack in one LAPACK call, each slice exactly
as it would decompose that matrix alone.  A single matrix, the case
of every penalty step, takes a shorter path to the same bytes, layout
and flags: its ordering and sign fix need no offsets into a stack, and
on a 4 x 4 matrix they cost about 1.4 times LAPACK's own call instead
of 3 times.  LAPACK's error in an eigenvalue is a small multiple of
eps * ||M||; the cyclic Jacobi method only does better on small
eigenvalues when it stops on a relative off-diagonal test (Demmel &
Veselic 1992), so it buys nothing over LAPACK for the absolute rank and
kernel tolerances used here.

Conventions used everywhere:

* eigenvalues are reported in non-increasing order,
* each eigenvector's largest-magnitude component is positive, the one
  sign rule of the package,
* the kernel of a PSD matrix at threshold tau is the span of the
  eigenvectors whose eigenvalues satisfy ``|lambda| <= tau``; a kernel
  basis E is a plain read-only m x k array, those eigenvectors as eigh
  returns them, so its columns are orthonormal (:func:`spectral_kernel`),
* every Gram-Schmidt pass is :func:`orthonormalize`, at ORTHO_TOL,
* random rotations are Haar draws (:func:`random_rotation`), with no
  sign fix that would bias them,
* inner product on symmetric matrices is the Frobenius one, ``tr(M N)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

TAU_EIG = 1e-10
TAU_RANK = 1e-8
ORTHO_TOL = 1e-8     # residual norm at which Gram-Schmidt drops a column


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
    def exact(cls, arr) -> "SymMat":
        """Freeze an array that is entrywise symmetric as it is.

        The caller vouches for the symmetry, as an evaluation that fills
        an entry and its mirror from one computation can; only the shape
        and finiteness are checked, and the array is frozen in place,
        with no copy.
        """
        return cls._frozen(_checked_square(np.asarray(arr, dtype=float)))

    @classmethod
    def _frozen(cls, arr: np.ndarray) -> "SymMat":
        """Freeze a square, exactly symmetric array after checking that
        it is finite."""
        if not np.isfinite(arr).all():
            raise ValueError("SymMat entries must be finite")
        arr.setflags(write=False)
        out = cls.__new__(cls)
        out.a = arr
        return out

    @classmethod
    def diag(cls, values) -> "SymMat":
        return cls(np.diag(np.asarray(values, dtype=float)))

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

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values[..., None, :]) \
            @ self.vectors.swapaxes(-1, -2)


def eigh(M) -> Spectral:
    """Eigendecomposition of a symmetric matrix, or of a stack of them
    along leading axes, through LAPACK.

    A SymMat is used as is; any other input is symmetrized by averaging.
    Eigenvalues come out non-increasing; the reordering is a stable sort,
    so ties keep LAPACK's order.  Each eigenvector is sign-fixed so that
    its largest-magnitude component is positive.  Both arrays are
    read-only, and the vectors column-major.  A LAPACK failure, in any
    matrix of a stack, is raised as :class:`NumericalFailure`.

    A stack orders all its matrices by one gather of the eigenvectors as
    rows, each matrix's order offset by its first row.  A single matrix
    needs no offsets: one stable argsort of -w, one gather of the rows of
    U^T, one sign fix at each row's argmax and a transpose back give the
    bytes, strides and flags the stack path gives its slices.
    """
    if isinstance(M, SymMat):
        a = M.a
    else:
        a = np.asarray(M, dtype=float)
        if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
            raise ValueError("eigh needs a square symmetric matrix")
        a = (a + a.swapaxes(-1, -2)) / 2.0
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    values, vectors = w, u
    if w.ndim == 1 and w.size:
        # the gathered rows are C-ordered, so rows.T is column-major,
        # the layout of the stack's slices
        order = (-w).argsort(kind="stable")
        rows = u.T.take(order, axis=0)
        peak = rows[np.arange(w.size), np.abs(rows).argmax(axis=1)]
        np.negative(rows, out=rows, where=peak[:, None] < 0.0)
        values, vectors = w.take(order), rows.T
    elif w.size:
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


def proj_psd(M) -> SymMat:
    """Projection onto the PSD cone: clamp negative eigenvalues to zero."""
    spec = eigh(M)
    lam = np.clip(spec.values, 0.0, None)
    r = (spec.vectors * lam) @ spec.vectors.T
    return SymMat.from_symmetric(r)


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


def orthonormalize(cols) -> np.ndarray:
    """Modified Gram-Schmidt over the columns, in column order.

    A column whose residual norm is at most ORTHO_TOL is dropped, so the
    result has orthonormal columns spanning those of the input, at most
    as many.
    The work runs on a C-ordered copy, which fixes the arithmetic.
    """
    out = np.array(cols, dtype=float, order="C")
    kept = 0
    for j in range(out.shape[1]):
        v = out[:, j]
        for i in range(kept):
            v = v - np.dot(out[:, i], v) * out[:, i]
        nrm = float(np.linalg.norm(v))
        if nrm > ORTHO_TOL:
            out[:, kept] = v / nrm
            kept += 1
    return out[:, :kept].copy()


def random_rotation(k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal k x k matrix.

    The Q factor of a Gaussian draw, each column multiplied by the sign
    of R's diagonal entry: that makes the factorization unique, so the
    draw is the same on any LAPACK, and Q Haar distributed (Mezzadri,
    *How to generate random matrices from the classical compact groups*,
    Notices AMS 54, 2007).
    """
    if k == 0:
        return np.zeros((0, 0))
    g = rng.standard_normal((k, k))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.where(np.diag(r) == 0.0, 1.0, np.diag(r)))


def orthonormal_completion(V: np.ndarray) -> np.ndarray:
    """The m x (m - w) block completing orthonormal columns V (m x w) to an
    orthonormal basis: :func:`orthonormalize` of [V | I], columns after V."""
    V = np.asarray(V, dtype=float)
    m, w = V.shape
    Q = orthonormalize(np.hstack([V, np.eye(m)]))
    if Q.shape[1] != m:
        raise NumericalFailure("failed to complete orthonormal basis")
    return Q[:, w:]
