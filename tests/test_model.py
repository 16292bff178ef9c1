"""Tests for the polynomial problem model."""
import json

import numpy as np
import pytest

from nsdpcq.errors import ProblemFormatError
from nsdpcq.symmat import SymMat, eigh
from nsdpcq.model import (
    COEF_DROP,
    MAX_DEGREE,
    MAX_VARS,
    MatrixPoly,
    NsdpProblem,
    Poly,
    parse_problem_text,
    structurally_diagonal,
)

from oracles import (
    component_subproblem,
    detect_blocks,
    lagrangian_hessian_three_maps,
    poly_from_json_per_term,
    poly_terms_per_term,
    problem_from_json_per_term,
)


def p_of(n, *terms):
    return Poly(n, [(c, tuple(e)) for c, e in terms])


def diag_problem(name="diag3", objective=None):
    # G = diag(x1, x2, x3)
    polys = [Poly.var(3, i) for i in range(3)]
    obj = objective if objective is not None else Poly.zero(3)
    return NsdpProblem(n=3, objective=obj,
                       constraint=MatrixPoly.diagonal(polys), name=name)


def hinge_problem():
    # G = [[x1, x2], [x2, 0]]
    entries = {(0, 0): Poly.var(2, 0), (0, 1): Poly.var(2, 1)}
    return NsdpProblem(n=2, objective=Poly.var(2, 1),
                       constraint=MatrixPoly(2, 2, entries), name="hinge")


def test_poly_eval_and_grad():
    # p = x1^2 x2 - 2 x2
    p = p_of(2, (1.0, (2, 1)), (-2.0, (0, 1)))
    assert p.eval(np.array([2.0, 3.0])) == pytest.approx(6.0)
    g = p.grad()
    assert g[0].eval(np.array([2.0, 3.0])) == pytest.approx(12.0)
    assert g[1].eval(np.array([2.0, 3.0])) == pytest.approx(2.0)


def test_poly_canonicalization_merges_and_drops():
    p = p_of(2, (1.0, (1, 0)), (2.0, (1, 0)), (5e-15, (0, 1)))
    assert p.terms == ((3.0, (1, 0)),)
    q = p_of(2, (1.0, (1, 0)), (-1.0, (1, 0)))
    assert q.is_zero()


def test_poly_arithmetic():
    x1 = Poly.var(2, 0)
    x2 = Poly.var(2, 1)
    prod = (x1 + x2) * (x1 - x2)
    # equals x1^2 - x2^2
    assert prod == p_of(2, (1.0, (2, 0)), (-1.0, (0, 2)))
    assert (x1 * 2.0).eval(np.array([3.0, 0.0])) == pytest.approx(6.0)


def test_poly_degree_cap():
    with pytest.raises(ProblemFormatError):
        p_of(1, (1.0, (9,)))


def test_fractional_exponent_is_refused():
    # int() would truncate these to x1 and x1^2
    with pytest.raises(ProblemFormatError, match="non-integer exponent"):
        Poly(2, [(1.0, (1.5, 0))])
    with pytest.raises(ProblemFormatError, match="non-integer exponent"):
        Poly(2, [(1.0, np.array([2.7, 0.0]))])
    # integral values of any type stay accepted, as the rows of an
    # exponent array are
    want = Poly(2, [(1.0, (2, 0))])
    for e in ((2.0, 0.0), np.array([2, 0], dtype=np.int64),
              np.array([2.0, 0.0])):
        assert Poly(2, [(1.0, e)]) == want


@pytest.mark.parametrize("e", [float("nan"), float("inf"), None],
                         ids=["nan", "inf", "None"])
def test_exponent_int_cannot_convert_is_format_error(e):
    # int() raised ValueError, OverflowError and TypeError through here
    with pytest.raises(ProblemFormatError, match="non-integer exponent"):
        Poly(2, [(1.0, (e, 0))])


def _term_bits(terms):
    return [(float(c).hex(), e, tuple(map(type, e))) for c, e in terms]


def _random_poly_json(rng, n):
    """A term list with repeated exponents, coefficients below COEF_DROP,
    pairs that cancel, integer coefficients and signed zeros."""
    terms = []
    for _ in range(int(rng.integers(0, 6))):
        e = [0] * n
        for _ in range(int(rng.integers(0, MAX_DEGREE + 1))):
            e[int(rng.integers(0, n))] += 1
        c = float(rng.standard_normal())
        kind = rng.integers(0, 6)
        if kind == 0:
            terms.append({"c": c, "e": list(e)})
            terms.append({"c": -c, "e": list(e)})
        elif kind == 1:
            terms.append({"c": c, "e": list(e)})
            terms.append({"c": 1e-3 * COEF_DROP * c, "e": list(e)})
        elif kind == 2:
            terms.append({"c": 0.5 * COEF_DROP * c, "e": e})
        elif kind == 3:
            terms.append({"c": int(rng.integers(-3, 4)), "e": e})
        elif kind == 4:
            terms.append({"c": -0.0, "e": e})
        else:
            terms.append({"c": c, "e": e})
    return terms


def _random_problem_json(rng):
    n = int(rng.integers(1, MAX_VARS + 1))
    m = int(rng.integers(1, 6))
    constraint = [{"i": i, "j": j, "poly": _random_poly_json(rng, n)}
                  for i in range(m) for j in range(i, m)
                  if rng.random() < 0.7]
    obj = {"name": "draw", "n": n, "m": m,
           "objective": _random_poly_json(rng, n), "constraint": constraint}
    if rng.random() < 0.5:
        obj["equalities"] = [_random_poly_json(rng, n)
                             for _ in range(int(rng.integers(1, 4)))]
    return obj


def test_parse_matches_per_term_reference_bitwise():
    rng = np.random.default_rng(2101)
    slots = ("C", "exponents", "_idx", "_didx", "_dmult", "_dpos", "_hidx",
             "_hmult", "_hpos", "_hmon")
    sizes = set()
    for _ in range(200):
        obj = json.loads(json.dumps(_random_problem_json(rng)))
        n = obj["n"]
        sizes.add(n)
        for data in [obj["objective"]] + [e["poly"] for e in obj["constraint"]]:
            assert _term_bits(Poly.from_json(n, data).terms) == \
                _term_bits(poly_from_json_per_term(n, data))
        P = NsdpProblem.from_json(obj)
        Q = problem_from_json_per_term(obj)
        for name in ("_f", "_G", "_h"):
            a, b = getattr(P, name), getattr(Q, name)
            assert a.shape == b.shape and a.degree == b.degree
            for slot in slots:
                x, y = getattr(a, slot), getattr(b, slot)
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes(), (name, slot)
    assert min(sizes) == 1 and max(sizes) == MAX_VARS


# term lists the JSON reader refuses, by the reader's message
MALFORMED_TERMS = [
    ("not a list", {"c": 1.0, "e": [1, 0]}),
    ("item not an object", [[1.0, [1, 0]]]),
    ("unknown key", [{"c": 1.0, "e": [1, 0], "tag": 1}]),
    ("missing e", [{"c": 1.0}]),
    ("missing c", [{"e": [1, 0]}]),
    ("string coefficient", [{"c": "1", "e": [1, 0]}]),
    ("bool coefficient", [{"c": True, "e": [1, 0]}]),
    ("None coefficient", [{"c": None, "e": [1, 0]}]),
    ("NaN coefficient", [{"c": float("nan"), "e": [1, 0]}]),
    ("inf coefficient", [{"c": float("inf"), "e": [1, 0]}]),
    ("-inf coefficient", [{"c": -float("inf"), "e": [0, 0]}]),
    ("float exponent", [{"c": 1.0, "e": [1.5, 0]}]),
    ("integral float exponent", [{"c": 1.0, "e": [2.0, 0]}]),
    ("bool exponent", [{"c": 1.0, "e": [True, 0]}]),
    ("string exponent", [{"c": 1.0, "e": ["1", 0]}]),
    ("exponent not a list", [{"c": 1.0, "e": 1}]),
    ("exponent tuple", [{"c": 1.0, "e": (1, 0)}]),
    ("negative exponent", [{"c": 1.0, "e": [-1, 2]}]),
    ("short exponent", [{"c": 1.0, "e": [1]}]),
    ("long exponent", [{"c": 1.0, "e": [1, 0, 0]}]),
    ("empty exponent", [{"c": 1.0, "e": []}]),
    ("degree above the cap", [{"c": 1.0, "e": [5, 4]}]),
    ("second term bad", [{"c": 1.0, "e": [1, 0]}, {"c": 1.0, "e": [0.5, 0]}]),
    ("bad coefficient after bad degree", [{"c": float("nan"), "e": [9, 0]}]),
]

# term lists the constructor refuses, some of them after int()
MALFORMED_DIRECT = [
    ("negative", [(1.0, (-1, 0))]),
    ("wrong length", [(1.0, (1,))]),
    ("wrong length after int", [(1.0, (1.7,))]),
    ("degree above the cap", [(1.0, (8, 1))]),
    ("degree above the cap in floats", [(1.0, (8.5, 1.0))]),
    ("NaN coefficient", [(float("nan"), (1, 0))]),
    ("inf coefficient", [(float("inf"), (1, 0))]),
    ("negative and fractional", [(1.0, (-1.5, 0))]),
]


def _outcome(fn, *args):
    try:
        return ("ok", _term_bits(fn(*args)))
    except ProblemFormatError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("data", [d for _, d in MALFORMED_TERMS],
                         ids=[i for i, _ in MALFORMED_TERMS])
def test_json_term_errors_match_per_term_reference(data):
    got = _outcome(lambda: Poly.from_json(2, data, "objective").terms)
    assert got[0] is ProblemFormatError
    assert got == _outcome(poly_from_json_per_term, 2, data, "objective")


@pytest.mark.parametrize("terms", [t for _, t in MALFORMED_DIRECT],
                         ids=[i for i, _ in MALFORMED_DIRECT])
def test_constructor_errors_match_per_term_reference(terms):
    got = _outcome(lambda: Poly(2, terms).terms)
    assert got[0] is ProblemFormatError
    assert got == _outcome(poly_terms_per_term, 2, terms)


def test_constraint_eval_diag():
    P = diag_problem()
    G = P.constraint_value(np.array([1.0, 2.0, 0.0]))
    assert np.allclose(G.a, np.diag([1.0, 2.0, 0.0]))


def test_constraint_partials_hinge():
    P = hinge_problem()
    W = P.constraint_partials(np.zeros(2))
    assert np.allclose(W[0], [[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(W[1], [[0.0, 1.0], [1.0, 0.0]])


def test_adjoint_closed_form():
    # for G = [[x1,x2],[x2,0]]: DG*[M] = (M11, 2 M12)
    P = hinge_problem()
    M = np.array([[3.0, 4.0], [4.0, 7.0]])
    out = P.adjoint(np.zeros(2), M)
    assert np.allclose(out, [3.0, 8.0])


def random_problem(rng, n, m, k, name):
    """Objective, constraint entries and k equalities of degree up to
    MAX_DEGREE, one to three terms each."""
    def poly():
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            deg = int(rng.integers(0, MAX_DEGREE + 1))
            e = tuple(int(v) for v in rng.multinomial(deg, np.ones(n) / n))
            terms.append((float(rng.standard_normal()), e))
        return Poly(n, terms)

    entries = {(i, j): poly() for i in range(m) for j in range(i, m)
               if rng.random() < 0.6}
    return NsdpProblem(n=n, objective=poly(),
                       constraint=MatrixPoly(m, n, entries),
                       equalities=[poly() for _ in range(k)], name=name)


def edge_problems():
    """(problem, x) pairs random draws rarely hit: no equalities, a
    constant objective, x2 in no monomial, and zero coordinates."""
    n = 3
    x1, x3 = Poly.var(n, 0), Poly.var(n, 2)
    G = MatrixPoly(2, n, {(0, 0): x1 * x1 * x3 + Poly.const(n, 1.0),
                          (0, 1): x3 * 2.0, (1, 1): x1})
    yield (NsdpProblem(n=n, objective=Poly.const(n, 2.5), constraint=G,
                       name="const"), np.array([0.4, 0.7, -1.3]))
    yield (NsdpProblem(n=n, objective=x1 * x3, constraint=G,
                       equalities=[x1 * x1 - x3, Poly.const(n, 1.0)],
                       name="zeros"), np.array([0.0, 0.0, 0.0]))
    yield (NsdpProblem(n=n, objective=x3 * x3, constraint=G,
                       equalities=[x1 * x3 * x3], name="axis"),
           np.array([0.0, 0.5, -0.8]))


def evaluation_cases():
    rng = np.random.default_rng(11)
    for case in range(40):
        n = int(rng.integers(1, 5))
        P = random_problem(rng, n, int(rng.integers(1, 4)),
                           int(rng.integers(0, 3)), f"rand{case}")
        x = rng.uniform(-1.0, 1.0, n)
        x[rng.random(n) < 0.3] = 0.0
        yield P, x
    yield from edge_problems()


def assert_adjoint_matches_fd(P, x, M):
    # <D_l G(x), M> vs central difference of l -> <G(x + h e_l), M>
    got = P.adjoint(x, M)
    h = 1e-6
    for l in range(P.n):
        xp, xm = x.copy(), x.copy()
        xp[l] += h
        xm[l] -= h
        fd = (np.sum(P.constraint_value(xp).a * M)
              - np.sum(P.constraint_value(xm).a * M)) / (2.0 * h)
        denom = 1.0 + abs(fd)
        assert abs(got[l] - fd) / denom <= 1e-5


def test_adjoint_matches_finite_differences():
    rng = np.random.default_rng(0)
    for case in range(60):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        entries = {}
        for i in range(m):
            for j in range(i, m):
                if rng.random() < 0.6:
                    terms = []
                    for _ in range(int(rng.integers(1, 4))):
                        e = tuple(int(v) for v in rng.integers(0, 3, n))
                        terms.append((float(rng.standard_normal()), e))
                    entries[(i, j)] = Poly(n, terms)
        if not entries:
            continue
        P = NsdpProblem(n=n, objective=Poly.zero(n),
                        constraint=MatrixPoly(m, n, entries), name=f"rand{case}")
        x = rng.standard_normal(n)
        Msym = rng.standard_normal((m, m))
        Msym = (Msym + Msym.T) / 2.0
        assert_adjoint_matches_fd(P, x, Msym)
    for P, x in evaluation_cases():
        M = np.arange(P.m * P.m, dtype=float).reshape(P.m, P.m)
        assert_adjoint_matches_fd(P, x, (M + M.T) / P.m ** 2)


def reference_evaluation(P, x):
    """f, grad f, h, Dh, G and its partials term by term from Poly.eval
    and Poly.grad."""
    n, m = P.n, P.m
    G = np.zeros((m, m))
    DG = np.zeros((n, m, m))
    for (i, j), p in P.constraint.entries.items():
        G[i, j] = G[j, i] = p.eval(x)
        for l, q in enumerate(p.grad()):
            DG[l, i, j] = DG[l, j, i] = q.eval(x)
    return {
        "f": P.objective.eval(x),
        "df": np.array([q.eval(x) for q in P.objective.grad()]),
        "h": np.array([h.eval(x) for h in P.equalities]),
        "dh": np.array([[q.eval(x) for q in h.grad()]
                        for h in P.equalities]).reshape(-1, n),
        "G": G,
        "DG": DG,
    }


def compiled_evaluation(P, x):
    return {
        "f": P.objective_value(x),
        "df": P.objective_gradient(x),
        "h": P.equality_values(x),
        "dh": P.equality_gradients(x),
        "G": P.constraint_value(x).a,
        "DG": P.constraint_partials(x),
    }


def test_compiled_evaluation_matches_reference():
    for P, x in evaluation_cases():
        got = compiled_evaluation(P, x)
        want = reference_evaluation(P, x)
        assert isinstance(got["f"], float)
        for key, val in want.items():
            assert np.shape(got[key]) == np.shape(val), (P.name, key)
            assert np.allclose(got[key], val, rtol=1e-12, atol=1e-12), \
                (P.name, key)
        M = np.arange(P.m * P.m, dtype=float).reshape(P.m, P.m)
        M = M + M.T
        assert np.allclose(P.adjoint(x, M),
                           np.einsum("lab,ab->l", want["DG"], M),
                           rtol=1e-12, atol=1e-10), P.name


def test_compiled_gradients_match_finite_differences():
    h = 1e-6
    for P, x in evaluation_cases():
        got = compiled_evaluation(P, x)
        for l in range(P.n):
            xp, xm = x.copy(), x.copy()
            xp[l] += h
            xm[l] -= h
            hi, lo = compiled_evaluation(P, xp), compiled_evaluation(P, xm)
            for value, deriv in (("f", got["df"][l]), ("h", got["dh"][:, l]),
                                 ("G", got["DG"][l])):
                fd = (np.asarray(hi[value]) - np.asarray(lo[value])) / (2.0 * h)
                assert np.all(np.abs(deriv - fd) <= 1e-5 * (1.0 + np.abs(fd))), \
                    (P.name, value, l)


def reference_hessian(P, x, Y, w):
    """Hessian of f - <G, Y> + <h, w> term by term from Poly.grad."""
    H = np.zeros((P.n, P.n))

    def add(p, c):
        for l, q in enumerate(p.grad()):
            for k, r in enumerate(q.grad()):
                H[l, k] += c * r.eval(x)
    add(P.objective, 1.0)
    for (i, j), p in P.constraint.entries.items():
        add(p, -Y[i, j] if i == j else -2.0 * Y[i, j])
    for h, c in zip(P.equalities, w):
        add(h, c)
    return H


def test_lagrangian_hessian_matches_reference_and_differences():
    rng = np.random.default_rng(19)
    h = 1e-6
    for P, x in evaluation_cases():
        Y = rng.standard_normal((P.m, P.m))
        Y = Y + Y.T
        w = rng.standard_normal(len(P.equalities))
        H = P.at(x).lagrangian_hessian(Y, w)
        assert H.shape == (P.n, P.n) and H.dtype == float
        assert np.array_equal(H, H.T), P.name
        want = reference_hessian(P, x, Y, w)
        assert np.allclose(H, want, rtol=1e-12, atol=1e-10), P.name

        def grad(z):
            ev = P.at(z)
            return (ev.objective_gradient() - ev.adjoint(Y)
                    + ev.equality_gradients().T @ w)
        for l in range(P.n):
            xp, xm = x.copy(), x.copy()
            xp[l] += h
            xm[l] -= h
            fd = (grad(xp) - grad(xm)) / (2.0 * h)
            assert np.all(np.abs(H[:, l] - fd) <= 1e-5 * (1.0 + np.abs(fd))), \
                (P.name, l)


def test_lagrangian_hessian_equals_three_map_sum_bitwise():
    # skipping the equality map when it has no second derivatives must
    # leave every bit, the sign of a zero included: random problems with
    # and without equalities, and linear and quadratic objectives with
    # no, linear and quadratic equalities, at zero and random multipliers
    rng = np.random.default_rng(23)
    n = 3
    x1, x2 = Poly.var(n, 0), Poly.var(n, 1)
    G = MatrixPoly(2, n, {(0, 0): x1 * x2, (0, 1): x2, (1, 1): x1 * x1})
    cases = list(evaluation_cases())
    for obj in (x1 * 2.0 - x2, x1 * x2 + x2 * x2 * 0.5):
        for eqs in ([], [x1 + x2], [x1 * x2 - Poly.const(n, 1.0)]):
            cases.append((NsdpProblem(n=n, objective=obj, constraint=G,
                                      equalities=eqs, name="small"),
                          np.array([0.0, -0.5, 1.5])))
    for P, x in cases:
        ev = P.at(x)
        Ys = [np.zeros((P.m, P.m)), rng.standard_normal((P.m, P.m))]
        Ys[1] = Ys[1] + Ys[1].T
        k = len(P.equalities)
        for Y in Ys:
            for w in (np.zeros(k), rng.standard_normal(k)):
                H = ev.lagrangian_hessian(SymMat(Y), w)
                want = lagrangian_hessian_three_maps(ev, Y, w)
                assert H.tobytes() == want.tobytes(), P.name
                assert np.array_equal(np.signbit(H), np.signbit(want))


def test_stacked_constraint_value_slices_equal_single_points():
    # one power table for a stack of points gives each point's G exactly
    # as a single-point evaluation does, including zero coordinates and
    # problems whose pieces differ in degree
    rng = np.random.default_rng(13)
    for P, x in evaluation_cases():
        X = x + rng.uniform(-1.0, 1.0, (5, P.n)) * (rng.random((5, P.n)) < 0.7)
        X = np.vstack([X, x])
        G = P.at(X).constraint_value().a
        assert G.shape == (6, P.m, P.m) and not G.flags.writeable
        for j in range(6):
            assert G[j].tobytes() == P.constraint_value(X[j]).a.tobytes()


def test_constraint_value_is_exactly_symmetric():
    # an entry and its mirror come from one coefficient column, so G(x)
    # is frozen as computed; it must equal the symmetrizing average bit
    # for bit, at single points and in stacks, up to the dimension cap
    rng = np.random.default_rng(17)
    cases = list(evaluation_cases())
    for m in (5, 8, 13, 27, 50):
        P = random_problem(rng, 4, m, 0, f"wide{m}")
        cases.append((P, rng.uniform(-1.0, 1.0, 4)))
    for P, x in cases:
        X = x + rng.uniform(-1.0, 1.0, (7, P.n))
        for pt in (x, X):
            G = P.at(pt).constraint_value().a
            assert not G.flags.writeable
            assert G.tobytes() == SymMat.from_symmetric(G).a.tobytes(), \
                P.name


def test_constraint_stack_is_read_only():
    P = hinge_problem()
    A = P.constraint_stack()
    assert A.shape == (2, 2, 2) and not A.flags.writeable
    # monomials in first-appearance order: x1 from (0, 0), x2 from (0, 1)
    assert np.array_equal(A[0], [[1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(A[1], [[0.0, 1.0], [1.0, 0.0]])


def test_evaluation_keeps_read_only_derivatives():
    for P, x in evaluation_cases():
        ev = P.at(x)
        kept = {"DG": ev.constraint_partials(),
                "df": ev.objective_gradient(),
                "dh": ev.equality_gradients()}
        # built once: a second call returns the same array
        assert ev.constraint_partials() is kept["DG"]
        assert ev.objective_gradient() is kept["df"]
        assert ev.equality_gradients() is kept["dh"]
        for key, arr in kept.items():
            assert not arr.flags.writeable, (P.name, key)
            if arr.size:
                with pytest.raises(ValueError):
                    arr.flat[0] = 1.0
        # bit for bit the arrays of an evaluation that built them alone
        want = compiled_evaluation(P, x)
        for key, arr in kept.items():
            assert arr.tobytes() == want[key].tobytes(), (P.name, key)
        M = np.arange(P.m * P.m, dtype=float).reshape(P.m, P.m)
        M = M + M.T
        alone = P._G.adjoint(P._G.derivatives(ev.powers), M)
        assert ev.adjoint(M).tobytes() == alone.tobytes(), P.name


def test_affine_maps_keep_one_derivative_stack():
    # f, G and h of total degree <= 1 keep the stack and Jacobian of the
    # first point: a fresh compile builds the same bytes at points with
    # zero, large and non-finite coordinates, and every evaluation shares
    # the kept gradients, which are the term-by-term ones
    rng = np.random.default_rng(29)
    n = 3
    x1, x2, x3 = (Poly.var(n, i) for i in range(n))
    one = Poly.const(n, 1.0)
    f = x1 * 2.0 - x3 + one
    G = MatrixPoly(2, n, {(0, 0): x1 + one, (0, 1): x2 * 0.5 - x3,
                          (1, 1): one})
    eqs = [x1 + x2, x3 - one * 2.0]
    P = NsdpProblem(n, f, G, eqs, name="affine")
    maps = {"f": P._f, "G": P._G, "h": P._h}
    first = P.at(rng.standard_normal(n))
    kept = {k: c.derivatives(first.powers) for k, c in maps.items()}
    for k, c in maps.items():
        assert c.affine and not kept[k].flags.writeable, k
    points = list(rng.standard_normal((4, n)) * [[1e-3], [1.0], [1e3], [1e8]])
    points += [np.zeros(n), np.array([np.nan, np.inf, -np.inf])]
    for x in points:
        ev = P.at(x)
        fresh = NsdpProblem(n, f, G, eqs)
        for k, c in maps.items():
            assert c.derivatives(ev.powers) is kept[k], k
            built = getattr(fresh, "_" + k).derivatives(ev.powers)
            assert built.tobytes() == kept[k].tobytes(), (k, x)
        if not np.isfinite(x).all():
            continue
        for arr, ref in ((ev.objective_gradient(), first.objective_gradient()),
                         (ev.constraint_partials(), first.constraint_partials()),
                         (ev.equality_gradients(), first.equality_gradients())):
            assert np.shares_memory(arr, ref) and not arr.flags.writeable
        assert np.array_equal(ev.objective_gradient(),
                              [g.eval(x) for g in f.grad()])
        assert np.array_equal(ev.equality_gradients(),
                              [[g.eval(x) for g in h.grad()] for h in eqs])
        for l in range(n):
            want = [[G.entry(i, j).partial(l).eval(x) for j in range(2)]
                    for i in range(2)]
            assert np.array_equal(ev.constraint_partials()[l], want), l


def test_total_degree_decides_the_affine_rule():
    # x1 * x2 has no exponent above 1, but its gradient (x2, x1) moves
    x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
    P = NsdpProblem(2, x1 * x2, MatrixPoly.diagonal([x1, x2]), name="bilin")
    assert P._f.degree == 1 and not P._f.affine and P._G.affine
    for x in ([1.0, 2.0], [-3.0, 0.5], [0.0, 0.0]):
        ev = P.at(x)
        assert ev.objective_gradient().tolist() == [x[1], x[0]]


def test_no_equalities_share_empty_arrays():
    P = diag_problem(objective=Poly.var(3, 0))
    evs = [P.at(x) for x in ([0.0, 1.0, 2.0], [3.0, -1.0, 0.5])]
    for ev in evs:
        h, Dh = ev.equality_values(), ev.equality_gradients()
        assert h.shape == (0,) and Dh.shape == (0, 3)
        assert not h.flags.writeable and not Dh.flags.writeable
    assert evs[0].equality_values() is evs[1].equality_values()
    # a stack of points gets its own zero block
    assert P._h.value(evs[0].powers[None, :]).shape == (1, 0)


def test_evaluation_keeps_values_and_spectrum():
    for P, x in evaluation_cases():
        ev = P.at(x)
        G, spec, h = ev.constraint_value(), ev.spectrum(), ev.equality_values()
        # built once: a second call returns the same object
        assert ev.constraint_value() is G
        assert ev.spectrum() is spec
        assert ev.equality_values() is h
        assert ev.objective_value() == ev.objective_value()
        assert ev.finite() and ev.constraint_value() is G
        for arr in (G.a, spec.values, spec.vectors, h):
            assert not arr.flags.writeable, P.name
        # bit for bit the values of the public per-call methods
        want = compiled_evaluation(P, x)
        assert ev.objective_value() == want["f"]
        assert h.tobytes() == want["h"].tobytes()
        assert G.a.tobytes() == want["G"].tobytes()
        again = eigh(P.constraint_value(x))
        assert spec.values.tobytes() == again.values.tobytes()
        assert spec.vectors.tobytes() == again.vectors.tobytes()


def test_finite_flags_overflowing_values():
    # G = [[x^4]], f = -x^5 - x: G and f overflow at x = 2^300, and
    # only f at x = 2^250, where x^5 exceeds the float range but x^4 not
    P = NsdpProblem(1, p_of(1, (-1.0, (5,)), (-1.0, (1,))),
                    MatrixPoly(1, 1, {(0, 0): p_of(1, (1.0, (4,)))}))
    assert P.at([2.0]).finite()
    with np.errstate(over="ignore"):
        far, half = P.at([2.0 ** 300]), P.at([2.0 ** 250])
        assert not far.finite()
        assert not half.finite()
    with pytest.raises(ValueError):
        far.constraint_value()
    assert half.constraint_value().a[0, 0] == 2.0 ** 1000


def test_adjoint_linearity():
    P = hinge_problem()
    rng = np.random.default_rng(5)
    x = rng.standard_normal(2)
    A = rng.standard_normal((2, 2))
    A = (A + A.T) / 2
    B = rng.standard_normal((2, 2))
    B = (B + B.T) / 2
    lhs = P.adjoint(x, 2.0 * A - 3.0 * B)
    rhs = 2.0 * P.adjoint(x, A) - 3.0 * P.adjoint(x, B)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_detect_blocks_mixed():
    #  blockdiag([[x1, x2], [x2, x1]], [x3]) -> {0,1} {2}
    x1, x2, x3 = (Poly.var(3, i) for i in range(3))
    top = MatrixPoly(2, 3, {(0, 0): x1, (0, 1): x2, (1, 1): x1})
    bot = MatrixPoly(1, 3, {(0, 0): x3})
    P = NsdpProblem(n=3, objective=Poly.zero(3),
                    constraint=MatrixPoly.block_diag([top, bot]), name="b")
    assert detect_blocks(P) == [[0, 1], [2]]
    assert not structurally_diagonal(P)


def test_detect_blocks_dense_and_diagonal():
    x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
    dense = NsdpProblem(
        n=2, objective=Poly.zero(2),
        constraint=MatrixPoly(2, 2, {(0, 0): x1, (0, 1): x2, (1, 1): x1}),
        name="d")
    assert detect_blocks(dense) == "dense"
    P = diag_problem()
    assert detect_blocks(P) == [[0], [1], [2]]
    assert structurally_diagonal(P)


def test_component_subproblem():
    x1, x2, x3 = (Poly.var(3, i) for i in range(3))
    top = MatrixPoly(2, 3, {(0, 0): x1, (0, 1): x2, (1, 1): x1})
    bot = MatrixPoly(1, 3, {(0, 0): x3})
    P = NsdpProblem(n=3, objective=Poly.zero(3),
                    constraint=MatrixPoly.block_diag([top, bot]), name="b")
    sub = component_subproblem(P, [2])
    assert sub.m == 1
    assert sub.constraint.entry(0, 0) == x3


def test_blocks_declaration_validated():
    x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
    with pytest.raises(ProblemFormatError):
        MatrixPoly(2, 2, {(0, 1): x2}, blocks=[1, 1])
    ok = MatrixPoly(2, 2, {(0, 0): x1, (1, 1): x2}, blocks=[1, 1])
    assert ok.blocks == (1, 1)


def test_json_round_trip():
    P = hinge_problem()
    text = json.dumps(P.to_json())
    Q = parse_problem_text(text)
    assert Q.n == P.n and Q.m == P.m
    assert Q.constraint == P.constraint
    assert Q.objective == P.objective
    assert Q.name == P.name


def test_json_unknown_keys_rejected():
    base = diag_problem().to_json()
    bad = dict(base)
    bad["comment"] = "hi"
    with pytest.raises(ProblemFormatError):
        NsdpProblem.from_json(bad)
    bad2 = json.loads(json.dumps(base))
    bad2["constraint"][0]["note"] = 1
    with pytest.raises(ProblemFormatError):
        NsdpProblem.from_json(bad2)
    bad3 = json.loads(json.dumps(base))
    bad3["objective"] = [{"c": 1.0, "e": [0, 0, 0], "tag": "x"}]
    with pytest.raises(ProblemFormatError):
        NsdpProblem.from_json(bad3)


def test_json_index_and_duplicate_errors():
    base = diag_problem().to_json()
    bad = json.loads(json.dumps(base))
    bad["constraint"][0]["i"], bad["constraint"][0]["j"] = 1, 0
    with pytest.raises(ProblemFormatError):
        NsdpProblem.from_json(bad)
    dup = json.loads(json.dumps(base))
    dup["constraint"].append(dict(dup["constraint"][0]))
    with pytest.raises(ProblemFormatError):
        NsdpProblem.from_json(dup)


def _json_case(**change):
    # a valid 2-variable, 2 x 2 problem with the given keys replaced;
    # a key mapped to None is removed
    obj = {"name": "base", "n": 2, "m": 2,
           "objective": [{"c": 1.0, "e": [1, 0]}],
           "constraint": [{"i": 0, "j": 0, "poly": [{"c": 1.0, "e": [1, 0]}]}]}
    obj.update(change)
    return lambda: NsdpProblem.from_json(
        {k: v for k, v in obj.items() if v is not None})


def _x(n, i=0):
    return Poly.var(n, i)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: NsdpProblem.from_json([]),
                 "problem must be a JSON object", id="not-an-object"),
    pytest.param(_json_case(m=None), "missing required key 'm'",
                 id="missing-key"),
    pytest.param(_json_case(name=3), "'name' must be a string",
                 id="name-not-string"),
    pytest.param(_json_case(n=65), "'n' must be an integer in [1, 64]",
                 id="n-out-of-range"),
    pytest.param(_json_case(m=51), "'m' must be an integer in [1, 50]",
                 id="m-out-of-range"),
    pytest.param(_json_case(constraint={}),
                 "'constraint' must be a list of entries",
                 id="constraint-not-list"),
    pytest.param(_json_case(equalities={}), "'equalities' must be a list",
                 id="equalities-not-list"),
    pytest.param(_json_case(constraint=[5]),
                 "constraint[0]: expected an object", id="entry-not-object"),
    pytest.param(_json_case(constraint=[{"j": 0, "poly": []}]),
                 "constraint[0]: needs 'i', 'j', 'poly'", id="entry-lacks-i"),
    pytest.param(_json_case(constraint=[{"i": 0, "j": 0}]),
                 "constraint[0]: needs 'i', 'j', 'poly'",
                 id="entry-lacks-poly"),
    pytest.param(_json_case(constraint=[{"i": 0.0, "j": 0, "poly": []}]),
                 "constraint[0]: indices must be integers",
                 id="index-not-integer"),
    pytest.param(_json_case(blocks=[1.0, 1]),
                 "'blocks' must be a list of integers",
                 id="blocks-not-integers"),
    pytest.param(_json_case(blocks=[1, 2]),
                 "blocks [1, 2] do not partition dimension 2",
                 id="blocks-not-partition"),
    pytest.param(lambda: Poly(0), "variable count 0 outside [1, 64]",
                 id="poly-arity-range"),
    pytest.param(lambda: _x(2) + _x(3), "polynomial arity mismatch",
                 id="poly-arity-mismatch"),
    pytest.param(lambda: MatrixPoly(0, 1, {}),
                 "matrix dimension 0 outside [1, 50]",
                 id="matrix-dimension-range"),
    pytest.param(lambda: MatrixPoly(2, 1, {(1, 0): _x(1)}),
                 "entry index (1, 0) out of range", id="matrix-index-range"),
    pytest.param(lambda: MatrixPoly(1, 2, {(0, 0): _x(1)}),
                 "entry arity mismatch", id="matrix-entry-arity"),
    pytest.param(lambda: NsdpProblem(2, _x(1), MatrixPoly(1, 2, {})),
                 "objective/constraint arity mismatch",
                 id="problem-objective-arity"),
    pytest.param(lambda: NsdpProblem(2, _x(2), MatrixPoly(1, 2, {}),
                                     equalities=[_x(1)]),
                 "equality arity mismatch", id="problem-equality-arity"),
])
def test_schema_violation_messages(build, message):
    with pytest.raises(ProblemFormatError) as err:
        build()
    assert str(err.value) == message


def test_json_malformed_reports_offset():
    with pytest.raises(ProblemFormatError) as err:
        parse_problem_text('{"name": "x", ')
    assert "byte offset" in str(err.value)


def test_json_equalities_and_blocks():
    obj = {
        "name": "eq",
        "n": 2,
        "m": 2,
        "objective": [],
        "constraint": [
            {"i": 0, "j": 0, "poly": [{"c": 1.0, "e": [1, 0]}]},
            {"i": 1, "j": 1, "poly": [{"c": 1.0, "e": [0, 1]}]},
        ],
        "equalities": [[{"c": 1.0, "e": [1, 1]}]],
        "blocks": [1, 1],
    }
    P = NsdpProblem.from_json(obj)
    assert len(P.equalities) == 1
    assert P.equality_values(np.array([2.0, 3.0]))[0] == pytest.approx(6.0)
    assert np.allclose(P.equality_gradients(np.array([2.0, 3.0])), [[3.0, 2.0]])
    assert P.to_json()["blocks"] == [1, 1]


def test_structural_zero_entry_is_absent():
    P = hinge_problem()
    assert P.constraint.entry(1, 1).is_zero()
    assert (1, 1) not in P.constraint.entries
