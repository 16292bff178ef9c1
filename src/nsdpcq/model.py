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
polynomials, with its value, Jacobian and adjoint each one matrix
product against the coefficient stack C, and every monomial read off a
power table x^0 .. x^d that the caller passes in.  An `NsdpProblem`
compiles f, G and h into three of them when it is built.
`NsdpProblem.at` builds the one power table of a point, or of a stack of
points, that all three share, and returns an `Evaluation` holding it;
the problem's seven evaluation methods are thin calls on that, and
`Evaluation.lagrangian_hessian` reads the second derivatives of f, G
and h off the same table.  An `Evaluation` is the one record of its
point: it keeps, read-only, f, h, G, eigh(G) and each derivative array
it builds, so a caller that holds one evaluation per point, as the
checkers' `PointData` and the penalty solve do, builds each once.  The
derivatives of an affine map, such as a linear objective, and the
values and derivatives of a problem without equalities are built once
per problem and shared by all its evaluations.
`NsdpProblem.constraint_stack` exposes G's stack read-only as (T, m, m)
matrices A_t, whose congruences give the exact coefficients of a
compressed constraint, and `NsdpProblem.constraint_exponents` the
monomial x^e_t each A_t multiplies.  `Poly.eval` and `Poly.grad` stay as
the term-by-term reference.
"""
from __future__ import annotations

import json
import math
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ProblemFormatError
from .symmat import Spectral, SymMat, eigh

COEF_DROP = 1e-14
MAX_VARS = 64
MAX_DIM = 50
MAX_DEGREE = 8

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

    def eval(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for c, e in self.terms:
            v = c
            for xi, ei in zip(x, e):
                if ei:
                    v *= xi ** ei
            total += v
        return total

    def partial(self, i: int) -> "Poly":
        terms = []
        for c, e in self.terms:
            if e[i] > 0:
                d = list(e)
                d[i] -= 1
                terms.append((c * e[i], tuple(d)))
        return Poly(self.n, terms)

    def grad(self) -> Tuple["Poly", ...]:
        return tuple(self.partial(i) for i in range(self.n))

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

    def entry(self, i: int, j: int) -> Poly:
        if i > j:
            i, j = j, i
        return self.entries.get((i, j), Poly.zero(self.n))

    def __eq__(self, other):
        return isinstance(other, MatrixPoly) and self.dim == other.dim \
            and self.n == other.n and self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, self.n, tuple(sorted(self.entries.items()))))


class Compiled:
    """Numeric form of polynomials stacked in one array shape.

    The map is x -> sum_t mon_t(x) * C_t over the T distinct monomials of
    all entries, with C of shape (T, prod(shape)).  Every method reads x
    off its power table x^0 .. x^d for any d at least degree, flattened
    to length (d + 1) * n, which gives the monomial values mons; every
    (monomial, variable) pair with a positive exponent is one entry of
    the derivative stack D (n, T), so the value is mons @ C, the partials
    are D @ C and the adjoint against M is D @ (C @ M); derivatives
    builds D, and jacobian and adjoint take it built, so a point's
    partials and its adjoints can share one.  Applying the
    same construction to D's reduced exponents indexes the second
    derivatives, and the Hessian of <value, M> is one weighted bincount
    of their monomials against C @ M.  The value also
    takes a stack of tables (..., (d + 1) * n) and multiplies each
    point's mons by C on its own, the product a single point gets.
    exponents holds the monomials' exponent rows, shape (T, n), and
    degree their largest single exponent, the depth d of the power table
    the map needs, not the total degree.

    A map whose monomials all have total degree at most 1, which is a
    map with an empty second-derivative table, is affine: its D holds
    ones (exponent 1 times x^0) and is the same at every point, so
    derivatives builds it at the first point and returns it, read-only,
    at every later one, and jacobian keeps D @ C the same way.  The test
    is on the total degree: x1 * x2 has degree 1 in the sense above, but
    its gradient moves with x.  A map with no terms, such as the
    equalities of a problem without any, gives one shared read-only zero
    value at a single point.

    entries pairs each polynomial with the flat positions it fills: one
    for an objective or an equality, two for an off-diagonal matrix
    entry and its mirror.
    """

    __slots__ = ("n", "shape", "C", "exponents", "degree", "affine",
                 "_idx", "_didx", "_dmult", "_dpos", "_hidx", "_hmult",
                 "_hpos", "_hmon", "_D", "_J", "_zero")

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
        t_of, l_of = np.nonzero(E)
        Ered = E[t_of]
        Ered[np.arange(t_of.size), l_of] -= 1
        cols = np.arange(n)
        self.n = n
        self.shape = tuple(shape)
        self.C = C
        self.exponents = E
        self.degree = int(E.max(initial=0))
        self._D = self._J = None
        self._zero = None if T else _frozen(np.zeros(self.shape))
        self._idx = E * n + cols
        self._didx = Ered * n + cols
        self._dmult = E[t_of, l_of].astype(float)
        self._dpos = l_of * T + t_of
        # d2 mon_t / dx_l dx_k: the same step on row j of Ered, whose
        # monomial is t_of[j] and first variable l_of[j]; _hpos indexes
        # the flattened (n, n) Hessian
        j_of, k_of = np.nonzero(Ered)
        Ered2 = Ered[j_of]
        Ered2[np.arange(j_of.size), k_of] -= 1
        self._hidx = Ered2 * n + cols
        self._hmult = self._dmult[j_of] * Ered[j_of, k_of]
        self._hpos = l_of[j_of] * n + k_of
        self._hmon = t_of[j_of]
        # no second derivative is a total degree of at most 1
        self.affine = not j_of.size

    @classmethod
    def matrix(cls, G: MatrixPoly) -> "Compiled":
        """G as a (dim, dim) map; an off-diagonal entry fills its mirror."""
        m = G.dim
        return cls(G.n, (m, m), (({i * m + j, j * m + i}, p)
                                 for (i, j), p in G.entries.items()))

    @staticmethod
    def _monomials(powers: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return np.multiply.reduce(powers.take(idx, axis=-1), axis=-1)

    def value(self, powers: np.ndarray) -> np.ndarray:
        shape = powers.shape[:-1] + self.shape
        if self._zero is not None:      # the zero map, e.g. no equalities
            return self._zero if powers.ndim == 1 else np.zeros(shape)
        mons = self._monomials(powers, self._idx)
        return (mons[..., None, :] @ self.C).reshape(shape)

    def jacobian(self, D: np.ndarray) -> np.ndarray:
        """D @ C, shape (n, prod(shape)), for D = derivatives(powers);
        kept read-only for an affine map."""
        if self._J is not None:
            return self._J
        J = D @ self.C
        if self.affine:
            self._J = _frozen(J)
        return J

    def adjoint(self, D: np.ndarray, M: np.ndarray) -> np.ndarray:
        """D @ (C @ M), for D = derivatives(powers): the gradient of
        x -> <value(x), M>."""
        return D @ (self.C @ M.ravel())

    def hessian(self, powers: np.ndarray, M: np.ndarray) -> np.ndarray:
        """The Hessian of x -> <value(x), M>, shape (n, n)."""
        n = self.n
        if not self._hpos.size:     # numpy counts an empty input as int
            return np.zeros((n, n))
        w = (self.C @ np.ravel(M))[self._hmon]
        terms = self._hmult * self._monomials(powers, self._hidx) * w
        return np.bincount(self._hpos, weights=terms,
                           minlength=n * n).reshape(n, n)

    def derivatives(self, powers: np.ndarray) -> np.ndarray:
        """The derivative stack D at one point, shape (n, T); kept
        read-only for an affine map."""
        if self._D is not None:
            return self._D
        D = np.zeros((self.n, self.C.shape[0]))
        D.flat[self._dpos] = self._dmult * self._monomials(powers, self._didx)
        if self.affine:
            self._D = _frozen(D)
        return D


class NsdpProblem:
    """A nonlinear SDP instance: objective, PSD constraint, equalities."""

    __slots__ = ("name", "n", "m", "objective", "constraint", "equalities",
                 "_f", "_G", "_h", "_exps")

    def __init__(self, n: int, objective: Poly, constraint: MatrixPoly,
                 equalities: Sequence[Poly] = (), name: str = "unnamed"):
        if objective.n != n or constraint.n != n:
            raise ProblemFormatError("objective/constraint arity mismatch")
        for h in equalities:
            if h.n != n:
                raise ProblemFormatError("equality arity mismatch")
        equalities = tuple(equalities)
        compiled = (Compiled(n, (), [((0,), objective)]),
                    Compiled.matrix(constraint),
                    Compiled(n, (len(equalities),),
                             (((k,), h) for k, h in enumerate(equalities))))
        degree = max(c.degree for c in compiled)
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", constraint.dim)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "constraint", constraint)
        object.__setattr__(self, "equalities", equalities)
        for slot, c in zip(("_f", "_G", "_h"), compiled):
            object.__setattr__(self, slot, c)
        object.__setattr__(self, "_exps",
                           np.arange(degree + 1, dtype=float)[:, None])

    def __setattr__(self, *_):
        raise AttributeError("NsdpProblem is immutable")

    def constraint_stack(self) -> np.ndarray:
        """Read-only coefficient stack of G, shape (T, m, m).

        G(x) = sum_t mon_t(x) * A_t over the distinct monomials of the
        constraint entries, in first-appearance order; each A_t is
        symmetric and exact, so a congruence B^T A_t B gives the exact
        coefficients of the compressed map's entries.
        """
        return self._G.C.reshape(-1, self.m, self.m)

    def constraint_exponents(self) -> np.ndarray:
        """Read-only exponent rows of G's monomials, shape (T, n): A_t of
        :meth:`constraint_stack` multiplies x^e_t."""
        return self._G.exponents

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
    f(x), h(x), G(x), eigh(G(x)), G's derivative stack, the partials,
    grad f and Dh are built on first use, kept and returned read-only;
    those of an affine map are its Compiled's kept arrays, or views of
    them, shared by every point (see Compiled).
    """

    __slots__ = ("problem", "powers", "_fx", "_hx", "_gx", "_spec", "_dg",
                 "_partials", "_df", "_dh")

    def __init__(self, problem: NsdpProblem, x):
        x = np.asarray(x, dtype=float)
        self.problem = problem
        table = np.power(x[..., None, :], problem._exps)
        self.powers = table.reshape(
            table.shape[:-2] + (table.shape[-2] * table.shape[-1],))
        self._fx = self._hx = self._gx = self._spec = None
        self._dg = self._partials = self._df = self._dh = None

    def finite(self) -> bool:
        """Whether f(x), h(x) and G(x) are finite."""
        try:
            self.constraint_value()
        except ValueError:          # SymMat refuses a non-finite G(x)
            return False
        return (math.isfinite(self.objective_value())
                and bool(np.isfinite(self.equality_values()).all()))

    def constraint_value(self) -> SymMat:
        # Compiled.matrix fills an entry and its mirror from one
        # coefficient column, so G(x) comes out exactly symmetric
        if self._gx is None:
            self._gx = SymMat.exact(self.problem._G.value(self.powers))
        return self._gx

    def spectrum(self) -> Spectral:
        """eigh(G(x)), stacked for a stack of points."""
        if self._spec is None:
            self._spec = eigh(self.constraint_value())
        return self._spec

    def _constraint_derivatives(self) -> np.ndarray:
        if self._dg is None:
            self._dg = _frozen(self.problem._G.derivatives(self.powers))
        return self._dg

    def constraint_partials(self) -> np.ndarray:
        """Stacked partial derivative matrices, shape (n, m, m)."""
        if self._partials is None:
            P = self.problem
            self._partials = _frozen(P._G.jacobian(
                self._constraint_derivatives()).reshape(P.n, P.m, P.m))
        return self._partials

    def adjoint(self, M) -> np.ndarray:
        """DG(x)*[M] = (<D_1 G(x), M>, ..., <D_n G(x), M>)."""
        M = M.a if isinstance(M, SymMat) else np.asarray(M, dtype=float)
        return self.problem._G.adjoint(self._constraint_derivatives(), M)

    def objective_value(self) -> float:
        if self._fx is None:
            self._fx = float(self.problem._f.value(self.powers))
        return self._fx

    def objective_gradient(self) -> np.ndarray:
        if self._df is None:
            f = self.problem._f
            self._df = _frozen(f.jacobian(f.derivatives(self.powers)).ravel())
        return self._df

    def equality_values(self) -> np.ndarray:
        if self._hx is None:
            self._hx = _frozen(self.problem._h.value(self.powers))
        return self._hx

    def equality_gradients(self) -> np.ndarray:
        """Rows are the gradients of the h_i, shape (k, n)."""
        if self._dh is None:
            h = self.problem._h
            self._dh = _frozen(h.jacobian(h.derivatives(self.powers)).T)
        return self._dh

    def lagrangian_hessian(self, Y, w) -> np.ndarray:
        """Hessian of f - <G, Y> + <h, w> in x, Y and w held fixed,
        shape (n, n)."""
        P = self.problem
        Y = Y.a if isinstance(Y, SymMat) else Y
        H = (P._f.hessian(self.powers, np.ones(1))
             - P._G.hessian(self.powers, Y))
        # an equality map without second derivatives adds zeros, which
        # only turn a -0.0 into 0.0, as + 0.0 does
        if not P._h.affine:
            return H + P._h.hessian(self.powers, w)
        return H + 0.0


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
