"""Polynomial model of a nonlinear semidefinite program.

A problem is

    minimize f(x)  subject to  G(x) PSD,  h_i(x) = 0,

where f, the entries of the symmetric matrix map G and the h_i are real
polynomials in n variables.  Entries of G are stored sparsely by upper
triangle; an absent entry is a *structural* zero (the zero polynomial),
which is what the sparsity-based constraint qualifications key off.

Polynomials are kept in a canonical form (terms sorted by exponent tuple,
like terms merged, coefficients below 1e-14 dropped) so that structural
zero tests are exact term-list checks.  The tiny-coefficient drop exists
because facial-reduction output re-enters the model as polynomials whose
coefficients carry numeric congruence noise.  Exponents must be
integral: any value int() keeps, such as 2, 2.0 or a numpy integer, is
accepted, and any it would change, such as 1.5, is refused.  Each term
is validated and canonicalized by C-level builtins (map, min, sum,
math.isfinite, one tuple comparison; in the JSON reader one set of
element types), so a problem at the model caps parses without a Python
loop per exponent entry.

Numbers come from one compiled evaluator, `Compiled`: the map
x -> sum_t mon_t(x) C_t over the distinct monomials of a family of
polynomials, with its value and Jacobian each one matrix product
against the coefficient stack C, and every monomial read off a power
table x^0 .. x^d that the caller passes in.  An `NsdpProblem` compiles
f, G and h into one such table when it is built, the columns of C
being [f | vec G | h] and its rows G's monomials first, so that
`NsdpProblem.constraint_stack` exposes G's own coefficients read-only
as (T, m, m) matrices A_t, whose congruences give the exact
coefficients of a compressed constraint, and
`NsdpProblem.constraint_exponents` the monomial x^e_t each A_t
multiplies.  `NsdpProblem.at` builds the power table of a point, or of
a stack of points, and returns an `Evaluation` holding it; the
problem's seven evaluation methods are thin calls on that.  An
`Evaluation` is the one record of its point: one monomial product gives
f, G and h, one finiteness test checks them, one Jacobian J = D @ C
gives grad f, the partials of G and Dh as slices, one LAPACK call gives
the eigenpairs of G, and `Evaluation.lagrangian_hessian` is one
weighted bincount over the table's second derivatives.  It keeps each
of them, read-only, so a caller that holds one evaluation per point, as
the checkers' `PointData` and the penalty solve do, builds each once.
The term-by-term reference that `Compiled` is tested against lives with
the tests.
"""
from __future__ import annotations

import json
import math
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ProblemFormatError
from .symmat import Spectral, SymMat, eigh, eigh_raw, spectral_order

COEF_DROP = 1e-14
MAX_VARS = 64
MAX_DIM = 50
MAX_DEGREE = 8

# the weight of f in the Lagrangian weights [1, -vec Y, w]
_ONE = np.ones(1)
_ONE.setflags(write=False)

Exponents = Tuple[int, ...]
Term = Tuple[float, Exponents]


class Poly:
    """Immutable polynomial in n variables, canonical term list.

    terms is an iterable of (coefficient, exponents) pairs, the exponents
    any sequence of n integral values.  A term is refused, with
    ProblemFormatError, for an exponent that int() does not take (NaN,
    an infinity, None), a wrong length, a negative exponent, a degree
    above MAX_DEGREE, a non-finite coefficient or, checked last, an
    exponent that int() would change.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Iterable[Term] = ()):
        self._canonicalize(n, terms, cleared=False)

    def _canonicalize(self, n: int, terms, cleared: bool) -> None:
        """Check the terms and set the canonical form.  A ``cleared`` term
        list holds tuples of int exponents only, as Poly.from_json builds
        them, so its exponents skip the int() conversion and the
        integral comparison."""
        if not (1 <= n <= MAX_VARS):
            raise ProblemFormatError(f"variable count {n} outside [1, {MAX_VARS}]")
        acc: Dict[Exponents, float] = {}
        for coef, given in terms:
            if cleared:
                exps = given
            else:
                try:
                    exps = tuple(map(int, given))
                except (TypeError, ValueError, OverflowError):
                    # NaN, an infinity, None: int() takes no such exponent
                    raise ProblemFormatError(
                        f"non-integer exponent in {given!r}") from None
            if len(exps) != n:
                raise ProblemFormatError(
                    f"exponent tuple {exps} does not have {n} entries")
            if min(exps) < 0:
                raise ProblemFormatError(f"negative exponent in {exps}")
            degree = sum(exps)
            if degree > MAX_DEGREE:
                raise ProblemFormatError(
                    f"term degree {degree} exceeds cap {MAX_DEGREE}")
            c = float(coef)
            if not math.isfinite(c):
                raise ProblemFormatError("non-finite coefficient")
            if not cleared and exps != tuple(given):
                raise ProblemFormatError(
                    f"non-integer exponent in {tuple(map(float, given))}")
            acc[exps] = acc.get(exps, 0.0) + c
        clean = tuple(sorted(
            ((c, e) for e, c in acc.items() if abs(c) >= COEF_DROP),
            key=itemgetter(1)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n, ())

    @classmethod
    def const(cls, n: int, c: float) -> "Poly":
        return cls(n, [(c, (0,) * n)])

    @classmethod
    def var(cls, n: int, i: int, coef: float = 1.0) -> "Poly":
        e = [0] * n
        e[i] = 1
        return cls(n, [(coef, tuple(e))])

    # ---- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._compat(other)
        return Poly(self.n, self.terms + other.terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.n, [(-c, e) for c, e in self.terms])

    def scale(self, a: float) -> "Poly":
        if a == 0.0:
            return Poly.zero(self.n)
        return Poly(self.n, [(a * c, e) for c, e in self.terms])

    def __mul__(self, other: Union["Poly", float, int]) -> "Poly":
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        self._compat(other)
        terms = []
        for c1, e1 in self.terms:
            for c2, e2 in other.terms:
                terms.append((c1 * c2, tuple(a + b for a, b in zip(e1, e2))))
        return Poly(self.n, terms)

    __rmul__ = __mul__

    def _compat(self, other: "Poly"):
        if not isinstance(other, Poly) or other.n != self.n:
            raise ProblemFormatError("polynomial arity mismatch")

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, self.terms))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for c, e in self.terms:
            mono = "*".join(f"x{i + 1}^{ei}" if ei > 1 else f"x{i + 1}"
                            for i, ei in enumerate(e) if ei)
            parts.append(f"{c:g}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    # ---- wire format --------------------------------------------------

    def to_json(self) -> List[dict]:
        return [{"c": c, "e": list(e)} for c, e in self.terms]

    @classmethod
    def from_json(cls, n: int, data, where: str = "poly") -> "Poly":
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
            if type(e) is not list or not set(map(type, e)) <= {int}:
                raise ProblemFormatError(
                    f"{where}[{k}]: 'e' must be a list of integers")
            terms.append((float(c), tuple(e)))
        p = cls.__new__(cls)
        p._canonicalize(n, terms, cleared=True)
        return p


class MatrixPoly:
    """Symmetric matrix of polynomials, stored by upper triangle.

    entries maps (i, j) with i <= j to a nonzero Poly; everything absent
    is a structural zero.  An optional block partition (sizes of
    consecutive diagonal blocks) may be declared, in which case entries
    crossing a block boundary must be absent.
    """

    __slots__ = ("dim", "n", "entries", "blocks")

    def __init__(self, dim: int, n: int,
                 entries: Dict[Tuple[int, int], Poly],
                 blocks: Optional[Sequence[int]] = None):
        if not (1 <= dim <= MAX_DIM):
            raise ProblemFormatError(f"matrix dimension {dim} outside [1, {MAX_DIM}]")
        clean: Dict[Tuple[int, int], Poly] = {}
        for (i, j), p in entries.items():
            if not (0 <= i <= j < dim):
                raise ProblemFormatError(f"entry index ({i}, {j}) out of range")
            if p.n != n:
                raise ProblemFormatError("entry arity mismatch")
            if not p.is_zero():
                clean[(i, j)] = p
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", clean)
        if blocks is not None:
            blocks = tuple(int(b) for b in blocks)
            if any(b < 1 for b in blocks) or sum(blocks) != dim:
                raise ProblemFormatError(
                    f"blocks {list(blocks)} do not partition dimension {dim}")
            owner = np.repeat(np.arange(len(blocks)), blocks)
            for (i, j) in clean:
                if owner[i] != owner[j]:
                    raise ProblemFormatError(
                        f"entry ({i}, {j}) crosses declared block boundary")
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, *_):
        raise AttributeError("MatrixPoly is immutable")

    @classmethod
    def diagonal(cls, polys: Sequence[Poly],
                 blocks: Optional[Sequence[int]] = None) -> "MatrixPoly":
        n = polys[0].n
        return cls(len(polys), n, {(i, i): p for i, p in enumerate(polys)},
                   blocks=blocks)

    @classmethod
    def block_diag(cls, parts: Sequence["MatrixPoly"]) -> "MatrixPoly":
        n = parts[0].n
        dim = sum(p.dim for p in parts)
        entries = {}
        off = 0
        for part in parts:
            for (i, j), poly in part.entries.items():
                entries[(off + i, off + j)] = poly
            off += part.dim
        return cls(dim, n, entries, blocks=[p.dim for p in parts])

    def __eq__(self, other):
        return isinstance(other, MatrixPoly) and self.dim == other.dim \
            and self.n == other.n and self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, self.n, tuple(sorted(self.entries.items()))))


class Compiled:
    """Numeric form of polynomials stacked in one array shape.

    The map is x -> sum_t mon_t(x) * C_t over the T distinct monomials of
    all entries, in first-appearance order, with C of shape
    (T, prod(shape)).  Every method reads x off its power table
    x^0 .. x^d for any d at least degree, flattened to length
    (d + 1) * n, which gives the monomial values mons; every
    (monomial, variable) pair with a positive exponent is one entry of
    the derivative stack D (n, T), so the value is mons @ C and the
    Jacobian D @ C.  Applying the same construction to D's reduced
    exponents indexes the second derivatives, and the Hessian of
    <value, c> is one weighted bincount of their monomials against
    C @ c.  Those second-derivative tables are built the first time a
    Hessian is taken (hessian_tables), which an analysis without a
    penalty trace never does.  The value also takes a stack of tables
    (..., (d + 1) * n) and multiplies each point's mons by C on its own,
    the product a single point gets.  exponents holds the monomials'
    exponent rows, shape (T, n), and degree their largest single
    exponent, the depth d of the power table the map needs, not the
    total degree.

    A map whose monomials all have total degree at most 1 is affine: its
    D holds ones (exponent 1 times x^0) and is the same at every point,
    so derivatives builds it at the first point and returns it,
    read-only, at every later one, jacobian keeps D @ C the same way,
    and its Hessian is zero.  The test is on the total degree: x1 * x2
    has degree 1 in the sense above, but its gradient moves with x.

    entries pairs each polynomial with the flat positions it fills: one
    for an objective or an equality, two for an off-diagonal matrix
    entry and its mirror.
    """

    __slots__ = ("n", "shape", "C", "exponents", "degree", "affine",
                 "_idx", "_didx", "_dmult", "_dpos", "_htables", "_D", "_J")

    def __init__(self, n: int, shape: Tuple[int, ...],
                 entries: Iterable[Tuple[Sequence[int], Poly]]):
        index: Dict[Exponents, int] = {}
        cells = []
        for pos, p in entries:
            for c, e in p.terms:
                t = index.setdefault(e, len(index))
                cells.extend((t, q, c) for q in pos)
        T = len(index)
        E = np.array(list(index), dtype=np.int64).reshape(T, n)
        C = np.zeros((T, int(np.prod(shape, dtype=np.int64))))
        for t, q, c in cells:
            C[t, q] = c
        C.setflags(write=False)
        E.setflags(write=False)
        # d mon_t / d x_l = E[t, l] * x^(E[t] - unit_l) for each positive
        # exponent; _idx and _didx index the flattened (d + 1, n) power
        # table, _dpos the flattened D
        t_of, l_of, Ered = _lowered(E)
        cols = np.arange(n)
        self.n = n
        self.shape = tuple(shape)
        self.C = C
        self.exponents = E
        self.degree = int(E.max(initial=0))
        # no second derivative is a total degree of at most 1
        self.affine = int(E.sum(axis=1).max(initial=0)) <= 1
        self._D = self._J = self._htables = None
        self._idx = E * n + cols
        self._didx = Ered * n + cols
        self._dmult = E[t_of, l_of].astype(float)
        self._dpos = l_of * T + t_of

    def hessian_tables(self) -> Tuple[np.ndarray, ...]:
        """(hidx, hmult, hpos, hmon): d2 mon_t / dx_l dx_k by the step
        that gives D, taken on row j of D's reduced exponents, whose
        monomial is hmon[j]; hidx indexes the power table and hpos the
        flattened (n, n) Hessian.  Built on first use and kept."""
        if self._htables is None:
            n = self.n
            t_of, l_of, Ered = _lowered(self.exponents)
            j_of, k_of, Ered2 = _lowered(Ered)
            self._htables = (Ered2 * n + np.arange(n),
                             self._dmult[j_of] * Ered[j_of, k_of],
                             l_of[j_of] * n + k_of, t_of[j_of])
        return self._htables

    @staticmethod
    def _monomials(powers: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return np.multiply.reduce(powers.take(idx, axis=-1), axis=-1)

    def value(self, powers: np.ndarray) -> np.ndarray:
        mons = self._monomials(powers, self._idx)
        if mons.ndim > 1:
            # each point's row on its own: a stack's slices are then the
            # products of single points, which one matrix product of the
            # whole stack need not round alike
            mons = mons[..., None, :]
        return (mons @ self.C).reshape(powers.shape[:-1] + self.shape)

    def jacobian(self, D: np.ndarray) -> np.ndarray:
        """D @ C, shape (n, prod(shape)), for D = derivatives(powers);
        kept read-only for an affine map."""
        if self._J is not None:
            return self._J
        J = D @ self.C
        if self.affine:
            self._J = _frozen(J)
        return J

    def hessian(self, powers: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The Hessian of x -> <value(x), c>, shape (n, n), for c of
        length prod(shape)."""
        n = self.n
        if self.affine:     # a zero Hessian, with no tables to build
            return np.zeros((n, n))
        hidx, hmult, hpos, hmon = self.hessian_tables()
        terms = hmult * self._monomials(powers, hidx) * (self.C @ c)[hmon]
        return np.bincount(hpos, weights=terms,
                           minlength=n * n).reshape(n, n)

    def derivatives(self, powers: np.ndarray) -> np.ndarray:
        """The derivative stack D at one point, shape (n, T); kept
        read-only for an affine map."""
        if self._D is not None:
            return self._D
        D = np.zeros((self.n, self.C.shape[0]))
        D.put(self._dpos, self._dmult * self._monomials(powers, self._didx))
        if self.affine:
            self._D = _frozen(D)
        return D


def _lowered(E: np.ndarray):
    """(t, l, R) for exponent rows E: t and l the row and column of each
    positive entry, and R the rows E[t] with entry l lowered by one."""
    t_of, l_of = np.nonzero(E)
    R = E[t_of]
    R[np.arange(t_of.size), l_of] -= 1
    return t_of, l_of, R


class NsdpProblem:
    """A nonlinear SDP instance: objective, PSD constraint, equalities."""

    __slots__ = ("name", "n", "m", "objective", "constraint", "equalities",
                 "_map", "_stack", "_gidx", "_exps")

    def __init__(self, n: int, objective: Poly, constraint: MatrixPoly,
                 equalities: Sequence[Poly] = (), name: str = "unnamed"):
        if objective.n != n or constraint.n != n:
            raise ProblemFormatError("objective/constraint arity mismatch")
        for h in equalities:
            if h.n != n:
                raise ProblemFormatError("equality arity mismatch")
        equalities = tuple(equalities)
        m = constraint.dim
        # columns [f | vec G | h]; G's entries come first, so the leading
        # rows of C are G's monomials in G's own first-appearance order
        cells = [({1 + i * m + j, 1 + j * m + i}, p)
                 for (i, j), p in constraint.entries.items()]
        terms = len({e for _, p in cells for _, e in p.terms})
        cells.append(((0,), objective))
        cells += [((1 + m * m + k,), h) for k, h in enumerate(equalities)]
        table = Compiled(n, (1 + m * m + len(equalities),), cells)
        stack = table.C[:terms, 1:1 + m * m].copy().reshape(terms, m, m)
        # the column of each entry of G's upper triangle, for it and its
        # mirror: two columns that hold the same coefficients need not
        # round alike in a BLAS product
        i, j = np.indices((m, m))
        gidx = 1 + np.minimum(i, j) * m + np.maximum(i, j)
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "constraint", constraint)
        object.__setattr__(self, "equalities", equalities)
        object.__setattr__(self, "_map", table)
        object.__setattr__(self, "_stack", _frozen(stack))
        object.__setattr__(self, "_gidx", _frozen(gidx))
        object.__setattr__(self, "_exps",
                           np.arange(table.degree + 1, dtype=float)[:, None])

    def __setattr__(self, *_):
        raise AttributeError("NsdpProblem is immutable")

    def constraint_stack(self) -> np.ndarray:
        """Read-only coefficient stack of G, shape (T, m, m).

        G(x) = sum_t mon_t(x) * A_t over the distinct monomials of the
        constraint entries, in first-appearance order; each A_t is
        symmetric and exact, so a congruence B^T A_t B gives the exact
        coefficients of the compressed map's entries.
        """
        return self._stack

    def constraint_exponents(self) -> np.ndarray:
        """Read-only exponent rows of G's monomials, shape (T, n): A_t of
        :meth:`constraint_stack` multiplies x^e_t."""
        return self._map.exponents[:len(self._stack)]

    # ---- numeric evaluation ------------------------------------------

    def at(self, x) -> "Evaluation":
        """The evaluation of f, G and h at x, a point of shape (n,), or of
        G at each row of a stack of points, shape (..., n)."""
        return Evaluation(self, x)

    def constraint_value(self, x) -> SymMat:
        return self.at(x).constraint_value()

    def constraint_partials(self, x) -> np.ndarray:
        """Stacked partial derivative matrices, shape (n, m, m)."""
        return self.at(x).constraint_partials()

    def adjoint(self, x, M) -> np.ndarray:
        """DG(x)*[M] = (<D_1 G(x), M>, ..., <D_n G(x), M>)."""
        return self.at(x).adjoint(M)

    def objective_value(self, x) -> float:
        return self.at(x).objective_value()

    def objective_gradient(self, x) -> np.ndarray:
        return self.at(x).objective_gradient()

    def equality_values(self, x) -> np.ndarray:
        return self.at(x).equality_values()

    def equality_gradients(self, x) -> np.ndarray:
        """Rows are the gradients of the h_i, shape (k, n)."""
        return self.at(x).equality_gradients()

    # ---- wire format --------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "n": self.n,
            "m": self.m,
            "objective": self.objective.to_json(),
            "constraint": [
                {"i": i, "j": j, "poly": p.to_json()}
                for (i, j), p in sorted(self.constraint.entries.items())
            ],
        }
        if self.equalities:
            out["equalities"] = [h.to_json() for h in self.equalities]
        if self.constraint.blocks is not None:
            out["blocks"] = list(self.constraint.blocks)
        return out

    @classmethod
    def from_json(cls, obj) -> "NsdpProblem":
        if not isinstance(obj, dict):
            raise ProblemFormatError("problem must be a JSON object")
        allowed = {"name", "n", "m", "objective", "constraint",
                   "equalities", "blocks"}
        extra = set(obj) - allowed
        if extra:
            raise ProblemFormatError(f"unknown top-level keys {sorted(extra)}")
        for key in ("name", "n", "m", "objective", "constraint"):
            if key not in obj:
                raise ProblemFormatError(f"missing required key '{key}'")
        name = obj["name"]
        if not isinstance(name, str):
            raise ProblemFormatError("'name' must be a string")
        n, m = obj["n"], obj["m"]
        if not isinstance(n, int) or isinstance(n, bool) or not (1 <= n <= MAX_VARS):
            raise ProblemFormatError(f"'n' must be an integer in [1, {MAX_VARS}]")
        if not isinstance(m, int) or isinstance(m, bool) or not (1 <= m <= MAX_DIM):
            raise ProblemFormatError(f"'m' must be an integer in [1, {MAX_DIM}]")
        objective = Poly.from_json(n, obj["objective"], "objective")
        if not isinstance(obj["constraint"], list):
            raise ProblemFormatError("'constraint' must be a list of entries")
        entries: Dict[Tuple[int, int], Poly] = {}
        for k, item in enumerate(obj["constraint"]):
            where = f"constraint[{k}]"
            if not isinstance(item, dict):
                raise ProblemFormatError(f"{where}: expected an object")
            extra = set(item) - {"i", "j", "poly"}
            if extra:
                raise ProblemFormatError(f"{where}: unknown keys {sorted(extra)}")
            try:
                i, j = item["i"], item["j"]
            except KeyError as exc:
                raise ProblemFormatError(f"{where}: needs 'i', 'j', 'poly'") from exc
            if "poly" not in item:
                raise ProblemFormatError(f"{where}: needs 'i', 'j', 'poly'")
            if not all(isinstance(v, int) and not isinstance(v, bool)
                       for v in (i, j)):
                raise ProblemFormatError(f"{where}: indices must be integers")
            if not (0 <= i <= j < m):
                raise ProblemFormatError(
                    f"{where}: need 0 <= i <= j < m, got ({i}, {j})")
            if (i, j) in entries:
                raise ProblemFormatError(f"{where}: duplicate entry ({i}, {j})")
            entries[(i, j)] = Poly.from_json(n, item["poly"], f"{where}.poly")
        blocks = obj.get("blocks")
        if blocks is not None:
            if not isinstance(blocks, list) or not all(
                    isinstance(b, int) and not isinstance(b, bool) for b in blocks):
                raise ProblemFormatError("'blocks' must be a list of integers")
        constraint = MatrixPoly(m, n, entries, blocks=blocks)
        equalities = []
        if "equalities" in obj:
            if not isinstance(obj["equalities"], list):
                raise ProblemFormatError("'equalities' must be a list")
            for k, eq in enumerate(obj["equalities"]):
                equalities.append(Poly.from_json(n, eq, f"equalities[{k}]"))
        return cls(n=n, objective=objective, constraint=constraint,
                   equalities=equalities, name=name)


class Evaluation:
    """f, G and h of one problem at one point, read off one power table.

    powers holds x^0 .. x^d for the problem's largest exponent d,
    flattened from shape (d + 1, n), built once and shared by every value
    and derivative below.  numpy's power gives 0.0 ** 0 = 1, so a zero
    coordinate needs no special case.  For a stack of points x (..., n)
    the table is (..., (d + 1) * n), and constraint_value and spectrum
    are a SymMat stack (..., m, m) and its stacked eigh, whose slices are
    exactly the single-point ones; the other methods take one point.

    Every caller of an evaluation reads its values, so they are taken
    at once: values, read-only, is [f | vec G | h] from one monomial
    product of the problem's table, with one finiteness test that
    constraint_value raises on as ValueError, and G(x) is read off it
    with each entry and its mirror from one column, so it is exactly
    symmetric.  The rest is built on first use, kept and returned
    read-only: the Jacobian J = D @ C, whose columns give grad f, the
    partials of G (exactly symmetric, as G is) and Dh; and, at one
    point, LAPACK's ascending eigenpairs of G(x) from one
    symmat.eigh_raw call (eigenpairs), which spectrum puts in eigh's
    order and signs, bit for bit symmat.eigh(G(x)).  The adjoint is the
    partials times vec(M), and lagrangian_hessian one weighted bincount
    (see Compiled).  An affine table's J is shared by every point (see
    Compiled).
    """

    __slots__ = ("problem", "powers", "values", "_finite", "_g", "_h",
                 "_gx", "_pairs", "_spec", "_d")

    def __init__(self, problem: NsdpProblem, x):
        x = np.asarray(x, dtype=float)
        self.problem = problem
        table = np.power(x[..., None, :], problem._exps)
        self.powers = table.reshape(
            table.shape[:-2] + (table.shape[-2] * table.shape[-1],))
        v = self.values = _frozen(problem._map.value(self.powers))
        self._finite = bool(np.isfinite(v).all())
        self._g = _frozen(v.take(problem._gidx, axis=-1))
        self._h = v[..., 1 + problem.m * problem.m:]
        self._gx = self._pairs = self._spec = self._d = None

    def finite(self) -> bool:
        """Whether f(x), h(x) and G(x) are finite."""
        return self._finite

    def constraint_value(self) -> SymMat:
        if self._gx is None:
            self._gx = SymMat._frozen(self._checked_g(), checked=True)
        return self._gx

    def _checked_g(self) -> np.ndarray:
        if not self._finite:
            raise ValueError("f, G or h is not finite at the point")
        return self._g

    def eigenpairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """LAPACK's eigenpairs (w, U) of G(x) at one point: w ascending,
        U's columns the eigenvectors, both read-only (symmat.eigh_raw)."""
        if self._pairs is None:
            self._pairs = eigh_raw(self._checked_g())
        return self._pairs

    def spectrum(self) -> Spectral:
        """eigh(G(x)), stacked for a stack of points."""
        if self._spec is None:
            if self.powers.ndim > 1:
                self._spec = eigh(self.constraint_value())
            else:
                self._spec = spectral_order(*self.eigenpairs())
        return self._spec

    def _derivatives(self) -> Tuple[np.ndarray, ...]:
        """(grad f, the partials (n, m, m), the partials as rows
        (n, m * m), Dh), read off one J = D @ C, the partials exactly
        symmetric as G is."""
        if self._d is None:
            P, table = self.problem, self.problem._map
            J = _frozen(table.jacobian(table.derivatives(self.powers)))
            W = _frozen(J.take(P._gidx, axis=1))
            self._d = (J[:, 0], W, W.reshape(P.n, -1), J[:, 1 + P.m ** 2:].T)
        return self._d

    def constraint_partials(self) -> np.ndarray:
        """Stacked partial derivative matrices, shape (n, m, m)."""
        return self._derivatives()[1]

    def adjoint(self, M) -> np.ndarray:
        """DG(x)*[M] = (<D_1 G(x), M>, ..., <D_n G(x), M>)."""
        M = M.a if isinstance(M, SymMat) else np.asarray(M, dtype=float)
        return self._derivatives()[2] @ M.ravel()

    def objective_value(self) -> float:
        return float(self.values[0])

    def objective_gradient(self) -> np.ndarray:
        return self._derivatives()[0]

    def equality_values(self) -> np.ndarray:
        return self._h

    def equality_gradients(self) -> np.ndarray:
        """Rows are the gradients of the h_i, shape (k, n)."""
        return self._derivatives()[3]

    def lagrangian_hessian(self, Y, w) -> np.ndarray:
        """Hessian of f - <G, Y> + <h, w> in x, Y and w held fixed,
        shape (n, n): the table's Hessian against [1, -vec Y, w]."""
        Y = Y.a if isinstance(Y, SymMat) else np.asarray(Y, dtype=float)
        return self.problem._map.hessian(
            self.powers, np.concatenate((_ONE, -Y.ravel(), w)))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def parse_problem_text(text: str) -> NsdpProblem:
    """Parse a problem from JSON text; malformed JSON reports a byte offset."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"malformed JSON at byte offset {exc.pos}: {exc.msg}") from exc
    return NsdpProblem.from_json(obj)


def structurally_diagonal(P: NsdpProblem) -> bool:
    """True when every off-diagonal constraint entry is a structural zero."""
    return all(i == j for (i, j) in P.constraint.entries)
