"""End-to-end gate: pinned corpus verdicts plus the bulk randomized suites.

Each test covers one externally agreed criterion and prints a single
PASS/FAIL line for it, so a plain pytest run doubles as a checklist.
Random suites fix their generator seeds; the expected counts quoted in
comments were observed when the designs were frozen and the assertions
only encode the contracted bounds.
"""
import time

import numpy as np

from nsdpcq.corpus import entries, get_entry
from nsdpcq.cqcheck import (
    CqStatus,
    check_nondegeneracy,
    check_robinson,
    compress,
    feasibility_data,
    li_test,
    pli_test,
)
from nsdpcq.model import MatrixPoly, NsdpProblem, Poly
from nsdpcq.penalty import (
    PenaltyConfig,
    _block_rotation,
    _penalty_parts,
    _penalty_value,
    _probe_trace,
    default_trace_family,
    make_path_trace,
    probe_weak_ndg,
    probe_weak_robinson,
    run_penalty,
)
from nsdpcq.report import analyze_problem, lattice_warnings
from nsdpcq.sparse import (
    check_forsgren,
    check_sparse_ndg,
    facial_reduce,
)
from nsdpcq.symmat import (
    SymMat,
    frobenius,
    random_rotation,
)

from oracles import (
    check_sparse_ndg_multifold,
    congruence_entries,
    entry_gradient,
    find_multiplier,
    kkt_residual,
    proj_psd,
    sparse_card_invariance,
)

HC = CqStatus.HOLDS_CERTIFIED
HS = CqStatus.HOLDS_SAMPLED
F = CqStatus.FAILS


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def shifted_problem(rng, n, m, deficiency):
    """Random polynomial constraint whose value at 0 is psd with the
    requested nullity; shared by several randomized suites below."""
    vals = np.concatenate([rng.uniform(0.5, 2.0, m - deficiency),
                           np.zeros(deficiency)])
    V = random_rotation(m, rng)
    D = V @ np.diag(vals) @ V.T
    entries_ = {}
    for i in range(m):
        for j in range(i, m):
            terms = []
            if abs(D[i, j]) > 1e-14:
                terms.append((float(D[i, j]), (0,) * n))
            for _ in range(int(rng.integers(1, 3))):
                e = [0] * n
                e[int(rng.integers(0, n))] += 1
                if rng.random() < 0.3:
                    e[int(rng.integers(0, n))] += 1
                terms.append((float(rng.standard_normal()), tuple(e)))
            p = Poly(n, terms)
            if not p.is_zero():
                entries_[(i, j)] = p
    return NsdpProblem(n, Poly.var(n, 0), MatrixPoly(m, n, entries_))


def upper_family(pd, cols=None):
    """Gradients v_ij, i <= j, one per row in row-major order, for the
    kernel basis cols (the point data's own basis by default)."""
    Wc = pd.Wc if cols is None else compress(pd.W, cols)
    iu, ju = np.triu_indices(Wc.shape[1])
    return Wc[:, iu, ju].T


def rand_problem(rng, n, m, density=0.6):
    entries_ = {}
    for i in range(m):
        for j in range(i, m):
            if i != j and rng.random() > density:
                continue
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                e = [0] * n
                e[int(rng.integers(0, n))] += 1
                if rng.random() < 0.4:
                    e[int(rng.integers(0, n))] += 1
                terms.append((float(rng.standard_normal()), tuple(e)))
            if rng.random() < 0.5:
                terms.append((float(rng.standard_normal()), (0,) * n))
            p = Poly(n, terms)
            if not p.is_zero():
                entries_[(i, j)] = p
    if not entries_:
        entries_[(0, 0)] = Poly.var(n, 0)
    return NsdpProblem(n, Poly.var(n, 0), MatrixPoly(m, n, entries_))


class TestCorpusReproduction:
    def test_corpus_verdicts_within_budget(self):
        # every reference entry reproduces its pinned verdict table and
        # a full analysis stays under five seconds per entry
        for ent in entries():
            t0 = time.perf_counter()
            rep = analyze_problem(ent.problem, np.array(ent.point))
            dt = time.perf_counter() - t0
            got = {k: v.status for k, v in rep.verdicts.items()}
            ok = got == ent.expected and dt < 5.0
            diff = {k: (ent.expected[k].value, got[k].value)
                    for k in ent.expected if got.get(k) != ent.expected[k]}
            report(f"corpus {ent.id} verdicts reproduced in under 5 s", ok,
                   f"{dt:.2f}s" + (f", diff {diff}" if diff else ""))

    def test_diag3_weak_probe_covers_axis_paths(self):
        ent = get_entry("diag3")
        cfg = PenaltyConfig(anchor=np.array(ent.point))
        traces = default_trace_family(ent.problem, cfg)
        ids = [t.trace_id for t in traces]
        _, verdict = probe_weak_ndg(feasibility_data(ent.problem, ent.point),
                                    traces)
        ok = (len(traces) >= 8
              and all(f"axis{i}" in ids for i in range(6))
              and verdict.status is HS)
        report("diag3 weak nondegeneracy sampled over axis paths", ok,
               f"{len(traces)} traces, status {verdict.status.value}")

    def test_diag3_mixed_basis_entry_gradients(self):
        # basis [e1, (e2+e3)/sqrt2, (e2-e3)/sqrt2]: both rotated columns
        # see half of each of the last two coordinate directions
        P = get_entry("diag3").problem
        r = 1.0 / np.sqrt(2.0)
        e2 = np.array([0.0, r, r])
        e3 = np.array([0.0, r, -r])
        v22 = entry_gradient(P, np.zeros(3), e2)
        v33 = entry_gradient(P, np.zeros(3), e3)
        want = np.array([0.0, 0.5, 0.5])
        gap = max(float(np.max(np.abs(v22 - want))),
                  float(np.max(np.abs(v33 - want))))
        report("diag3 rotated diagonal gradients equal (0, 1/2, 1/2)",
               gap <= 1e-10, f"gap {gap:.2e}")

    def test_facial_zero_diagonal_refutes_sparse(self):
        # the zero diagonal entry G_22 makes e2 e2^T annihilate the
        # adjoint, Robinson's dual certificate, and sparse nondegeneracy
        # fails with it
        ent = get_entry("facial")
        x = np.asarray(ent.point, dtype=float)
        v = check_sparse_ndg(feasibility_data(ent.problem, x))
        Y = np.asarray(v.witness["multiplier"])
        adj = float(np.linalg.norm(ent.problem.adjoint(x, Y)))
        ok = (v.status is F and "Robinson" in v.reason and adj <= 1e-12
              and np.allclose(Y, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)
              and v.witness.get("residual", np.inf) <= 1e-12)
        report("facial sparse nondegeneracy fails by Robinson's multiplier",
               ok, f"{v.reason[:60]}, adjoint {adj:.1e}")

    def test_facial_multiplier_divergence_flagged(self):
        ent = get_entry("facial")
        trace = run_penalty(ent.problem, PenaltyConfig(anchor=np.zeros(2)))
        norms = [it.multiplier_norm for it in trace.iterates]
        ratio = norms[-1] / norms[-4]
        ok = trace.divergence_suspected and ratio >= 2.0
        report("facial penalty multipliers flagged divergent", ok,
               f"growth over last 3 outers {ratio:.2f}x")

    def test_facial_reduction_restores_kkt(self):
        ent = get_entry("facial")
        fr = facial_reduce(ent.problem, ent.point)
        red = fr.reduced_problem
        cert = find_multiplier(feasibility_data(red, np.zeros(2)))
        ok = (red.m < ent.problem.m and len(red.equalities) >= 1
              and cert.stationarity_residual <= 1e-8)
        report("facial reduced problem has a KKT point at the origin", ok,
               f"m {ent.problem.m}->{red.m}, "
               f"stationarity {cert.stationarity_residual:.2e}")

    def test_scalar2_certified_verdicts(self):
        ent = get_entry("scalar2")
        sp = check_sparse_ndg(feasibility_data(ent.problem, ent.point))
        rb = check_robinson(feasibility_data(ent.problem, ent.point))
        cfg = PenaltyConfig(anchor=np.array(ent.point))
        traces = default_trace_family(ent.problem, cfg)
        results, wn = probe_weak_ndg(feasibility_data(ent.problem, ent.point),
                                     traces)
        ok = (sp.status is F and rb.status is HC
              and wn.status is F and results == []
              and "dimension" in wn.reason)
        report("scalar2 verdicts certified without sampling", ok,
               f"sparse {sp.status.value}, robinson {rb.status.value}, "
               f"weak {wn.status.value}")

    def test_offdiag_weak_family_is_the_mixing_pair(self):
        # along any path with a nonzero off-diagonal the eigenvectors are
        # (1, +-1)/sqrt2, and the diagonal gradient pair they induce is
        # {(1, -1), (1, 1)} exactly
        ent = get_entry("offdiag")
        cfg = PenaltyConfig(anchor=np.zeros(2))
        traces = default_trace_family(ent.problem, cfg)
        results, verdict = probe_weak_ndg(
            feasibility_data(ent.problem, ent.point), traces)
        target = np.array([[1.0, -1.0], [1.0, 1.0]])
        pinned = 0
        gap = 0.0
        for res in results:
            if not res.exhaustive:
                continue
            pinned += 1
            E = res.limit_basis
            fam = np.array(sorted(
                (entry_gradient(ent.problem, np.zeros(2), E[:, i])
                 for i in range(E.shape[1])),
                key=lambda v: v[1]))
            gap = max(gap, float(np.max(np.abs(fam - target))))
        ok = verdict.status is HS and pinned >= 1 and gap <= 1e-10
        report("offdiag weak probe recovers the mixing gradient pair", ok,
               f"{pinned} pinned traces, gap {gap:.2e}")

    def test_offdiag_rotated_pattern_is_diagonal(self):
        ent = get_entry("offdiag")
        P = ent.problem
        E0 = feasibility_data(P, np.zeros(2)).E
        C = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        rm = congruence_entries(P, E0 @ C)
        want = {(0, 0): {(1, 0): 1.0, (0, 1): -1.0},
                (1, 1): {(1, 0): 1.0, (0, 1): 1.0},
                (0, 1): {}}
        gap = 0.0
        for (i, j), coeffs in want.items():
            terms = {e: c for c, e in rm[(i, j)].terms}
            for e in set(terms) | set(coeffs):
                gap = max(gap, abs(terms.get(e, 0.0) - coeffs.get(e, 0.0)))
        sp = check_sparse_ndg(feasibility_data(P, ent.point))
        ok = gap <= 1e-10 and sp.status is HC
        report("offdiag rotated constraint is diag(x1 - x2, x1 + x2)", ok,
               f"coefficient gap {gap:.2e}, sparse {sp.status.value}")

    def test_offdiag_identity_diagonalizer_fails(self):
        ent = get_entry("offdiag")
        v = check_forsgren(feasibility_data(ent.problem, ent.point),
                           U=np.eye(2))
        report("offdiag fails for the identity diagonalizer",
               v.status is F, v.reason[:60])

    def test_offdiag_dependent_diagonal_witness(self):
        ent = get_entry("offdiag")
        v = check_nondegeneracy(feasibility_data(ent.problem, ent.point))
        ok = v.status is F and v.witness is not None
        if ok:
            pairs = [tuple(p) for p in v.witness["pairs"]]
            vecs = {p: np.asarray(w, dtype=float)
                    for p, w in zip(pairs, v.witness["vectors"])}
            gap = max(float(np.max(np.abs(vecs[(0, 0)] - [1.0, 0.0]))),
                      float(np.max(np.abs(vecs[(1, 1)] - [1.0, 0.0]))))
            ok = gap <= 1e-10
        report("offdiag nondegeneracy witness has equal diagonal gradients",
               ok, "v_11 = v_22 = (1, 0)")


class TestPropertySuites:
    def test_psd_projection_moreau_idempotent(self):
        worst_m = 0.0
        worst_i = 0.0
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            m = 2 + seed % 7
            B = rng.standard_normal((m, m)) * rng.uniform(0.5, 3.0)
            A = SymMat.from_symmetric((B + B.T) / 2.0)
            Pp = proj_psd(A)
            Pm = proj_psd(SymMat.from_symmetric(-A.a))
            worst_m = max(worst_m,
                          float(np.max(np.abs(A.a - (Pp.a - Pm.a)))),
                          abs(frobenius(Pp.a, Pm.a)))
            worst_i = max(worst_i,
                          float(np.max(np.abs(proj_psd(Pp).a - Pp.a))))
        ok = worst_m <= 1e-8 and worst_i <= 1e-8
        report("psd projection is a Moreau decomposition and idempotent",
               ok, f"worst {max(worst_m, worst_i):.2e} over 1000 seeds")

    def test_entry_gradient_formulas_agree(self):
        # adjoint formula against the entrywise contraction of the
        # stacked partials, diagonal and off-diagonal pairs alternating
        worst = 0.0
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            P = rand_problem(rng, n, m)
            x = rng.standard_normal(n)
            u = rng.standard_normal(m)
            u /= np.linalg.norm(u)
            w = None
            if seed % 2:
                w = rng.standard_normal(m)
                w /= np.linalg.norm(w)
            va = entry_gradient(P, x, u, w)
            ww = u if w is None else w
            ve = np.einsum("i,lij,j->l", u, P.constraint_partials(x), ww)
            if va.size:
                worst = max(worst, float(np.max(np.abs(va - ve))))
        report("entry gradient adjoint and entrywise formulas agree",
               worst <= 1e-10, f"worst {worst:.2e} over 1000 seeds")

    def test_penalty_gradient_matches_finite_differences(self):
        h = 1e-6
        worst = 0.0
        for case in range(100):
            rng = np.random.default_rng(case)
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            P = rand_problem(rng, n, m)
            anchor = rng.standard_normal(n)
            rho = float(10.0 ** rng.integers(0, 4))
            x = anchor + 0.3 * rng.standard_normal(n)

            def phi(y):
                return _penalty_value(anchor, rho, y, P.at(y))[0]

            g = _penalty_parts(anchor, rho, x, P.at(x))[1]
            fd = np.zeros(n)
            for l in range(n):
                e = np.zeros(n)
                e[l] = h
                fd[l] = (phi(x + e) - phi(x - e)) / (2 * h)
            rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
            worst = max(worst, float(rel))
        report("penalty gradient matches central differences",
               worst <= 1e-4, f"worst relative {worst:.2e} over 100 cases")

    def test_nondegeneracy_invariant_under_basis_rotations(self):
        flips = 0
        checked = 0
        for case in range(100):
            rng = np.random.default_rng(1000 + case)
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 5))
            d = int(rng.integers(1, min(3, m) + 1))
            P = shifted_problem(rng, n, m, d)
            x = np.zeros(n)
            pd = feasibility_data(P, x)
            E = pd.E
            if E.shape[1] == 0:
                continue
            base = li_test(upper_family(pd)).independent
            checked += 1
            for _ in range(20):
                C = random_rotation(E.shape[1], rng)
                got = li_test(upper_family(pd, E @ C)).independent
                flips += got != base
        ok = flips == 0 and checked == 100
        report("independence verdict invariant under 20 basis rotations",
               ok, f"{checked} instances, {flips} flips")

    def test_diagonal_problems_reduce_to_gradient_tests(self):
        # on structurally diagonal problems the matrix conditions must
        # collapse to the classical gradient tests on the active entries:
        # independence for the nondegeneracy variants, positive
        # independence for Robinson
        def diag_problem(rng, n, m):
            entries_ = {}
            for i in range(m):
                terms = []
                for _ in range(int(rng.integers(1, 3))):
                    e = [0] * n
                    e[int(rng.integers(0, n))] += 1
                    if rng.random() < 0.3:
                        e[int(rng.integers(0, n))] += 1
                    terms.append((float(rng.standard_normal()), tuple(e)))
                p = Poly(n, terms)
                if p.is_zero():
                    p = Poly.var(n, int(rng.integers(0, n)))
                if rng.random() > 0.7:
                    p = p + Poly.const(n, float(rng.uniform(0.4, 1.5)))
                entries_[(i, i)] = p
            return NsdpProblem(n, Poly.var(n, 0), MatrixPoly(m, n, entries_))

        rng = np.random.default_rng(99)
        mismatches = []
        for case in range(200):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            P = diag_problem(rng, n, m)
            x = np.zeros(n)
            W = P.constraint_partials(x)
            G0 = np.diag(P.constraint_value(x).a)
            active = [i for i in range(m) if abs(G0[i]) <= 1e-12]
            grads = [W[:, i, i] for i in active]
            licq = li_test(grads).independent if grads else True
            mfcq = pli_test(grads).pos_independent if grads else True

            traces = [make_path_trace(P, x, rng.standard_normal(n))
                      for _ in range(2)]
            traces.append(make_path_trace(P, x, np.ones(n)))
            _, wn = probe_weak_ndg(feasibility_data(P, x), traces,
                                   seed=case)
            sp = check_sparse_ndg(feasibility_data(P, x))
            rb = check_robinson(feasibility_data(P, x))
            # sparse nondegeneracy is invariant under G -> Q^T G Q, so on
            # the rotated constraint it must still certify LICQ
            Q = random_rotation(m, np.random.default_rng([99, case]))
            R = NsdpProblem(n, P.objective, MatrixPoly(
                m, n, congruence_entries(P, Q)))
            sr = check_sparse_ndg(feasibility_data(R, x))
            if wn.holds != licq:
                mismatches.append((case, "weak", licq, wn.status.value))
            if sp.holds != licq:
                mismatches.append((case, "sparse", licq, sp.status.value))
            if not (sr.status is HC if licq else not sr.holds):
                mismatches.append((case, "rotated", licq, sr.status.value))
            if rb.holds != mfcq:
                mismatches.append((case, "robinson", mfcq, rb.status.value))
        report("diagonal problems agree with the classical gradient tests",
               not mismatches, f"200 cases, {len(mismatches)} mismatches")

    def test_block_verdicts_invariant_under_assembly(self):
        def block_entries(rng, n, m, offset, deficiency):
            vals = np.concatenate([rng.uniform(0.5, 2.0, m - deficiency),
                                   np.zeros(deficiency)])
            V = random_rotation(m, rng)
            D = V @ np.diag(vals) @ V.T
            out = {}
            for i in range(m):
                for j in range(i, m):
                    terms = []
                    if abs(D[i, j]) > 1e-14:
                        terms.append((float(D[i, j]), (0,) * n))
                    for _ in range(int(rng.integers(1, 3))):
                        e = [0] * n
                        e[int(rng.integers(0, n))] += 1
                        if rng.random() < 0.3:
                            e[int(rng.integers(0, n))] += 1
                        terms.append((float(rng.standard_normal()),
                                      tuple(e)))
                    p = Poly(n, terms)
                    if not p.is_zero():
                        out[(offset + i, offset + j)] = p
            return out

        rng = np.random.default_rng(5150)
        mismatches = []
        for case in range(100):
            n = int(rng.integers(3, 5))
            m1 = int(rng.integers(2, 4))
            m2 = 2
            d1 = int(rng.integers(0, 3) if m1 > 2 else rng.integers(0, 2))
            d2 = int(rng.integers(0, 2))
            entries_ = block_entries(rng, n, m1, 0, d1)
            entries_.update(block_entries(rng, n, m2, m1, d2))
            P = NsdpProblem(n, Poly.var(n, 0),
                            MatrixPoly(m1 + m2, n, entries_))
            x = np.zeros(n)
            a = check_sparse_ndg(feasibility_data(P, x))
            b = check_sparse_ndg_multifold(feasibility_data(P, x))
            if a.status != b.status:
                mismatches.append((case, a.status.value, b.status.value))
        report("two-block verdicts identical assembled or per block",
               not mismatches, f"100 cases, {len(mismatches)} mismatches")

    def test_implication_lattice_has_no_violations(self):
        def diag_problem(rng, n, m):
            entries_ = {}
            for i in range(m):
                terms = []
                for _ in range(int(rng.integers(1, 3))):
                    e = [0] * n
                    e[int(rng.integers(0, n))] += 1
                    terms.append((float(rng.standard_normal()), tuple(e)))
                p = Poly(n, terms)
                if p.is_zero():
                    p = Poly.var(n, int(rng.integers(0, n)))
                if rng.random() > 0.6:
                    p = p + Poly.const(n, float(rng.uniform(0.4, 1.5)))
                entries_[(i, i)] = p
            return NsdpProblem(n, Poly.var(n, 0), MatrixPoly(m, n, entries_))

        rng = np.random.default_rng(2718)
        bad = []
        for case in range(500):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 4))
            if rng.random() < 0.3:
                P = diag_problem(rng, n, m)
            else:
                P = shifted_problem(rng, n, m,
                                    int(rng.integers(0, min(3, m + 1))))
            x = np.zeros(n)
            traces = [make_path_trace(P, x, rng.standard_normal(n))
                      for _ in range(2)]
            _, wn = probe_weak_ndg(feasibility_data(P, x), traces,
                                   seed=case)
            verdicts = {
                "nondegeneracy": check_nondegeneracy(feasibility_data(P, x)),
                "robinson": check_robinson(feasibility_data(P, x)),
                "sparse_ndg": check_sparse_ndg(feasibility_data(P, x)),
                "forsgren": check_forsgren(feasibility_data(P, x)),
                "weak_ndg_probe": wn,
                "weak_robinson_probe": probe_weak_robinson(
                    feasibility_data(P, x), traces),
            }
            if lattice_warnings(verdicts):
                bad.append(case)
        report("implication lattice holds on 500 random instances",
               not bad, f"{len(bad)} violations")

    def test_weak_robinson_lp_agrees_with_rotation_search(self):
        # the cluster-sum LP decides a sequence over every rotation its
        # clusters allow; the random rotations and Givens steps the
        # probe used before it are kept here as a one-sided oracle:
        # whatever family they find positively independent, and whatever
        # sequence passes the linear test, the LP must pass as well
        def family_test(pd, cols):
            vmat = np.einsum("lab,ai,bi->il", pd.W, cols, cols)
            res = pli_test(list(vmat), free_vectors=list(pd.Heq))
            return res.margin, res.pos_independent

        def givens(k, p, q, theta):
            C = np.eye(k)
            C[p, p] = C[q, q] = np.cos(theta)
            C[p, q], C[q, p] = -np.sin(theta), np.sin(theta)
            return C

        def golden_max(f, a, b, iters=18):
            phi = (np.sqrt(5.0) - 1.0) / 2.0
            c, d = b - phi * (b - a), a + phi * (b - a)
            fc, fd = f(c), f(d)
            for _ in range(iters):
                if fc >= fd:
                    b, d, fd = d, c, fc
                    c = b - phi * (b - a)
                    fc = f(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + phi * (b - a)
                    fd = f(d)
            t = 0.5 * (a + b)
            return t, f(t)

        def rotation_search(pd, E, clusters, rng, n_rand=60, n_giv=40):
            k = E.shape[1]
            best, ok = family_test(pd, E)
            free = [cl for cl in clusters if len(cl) > 1]
            if ok or not free:
                return ok
            best_C = np.eye(k)
            for _ in range(n_rand):
                C = _block_rotation(clusters, k, rng)
                sc, ok = family_test(pd, E @ C)
                if ok:
                    return True
                if sc > best:
                    best, best_C = sc, C
            pairs = [(cl[a], cl[b]) for cl in free
                     for a in range(len(cl)) for b in range(a + 1, len(cl))]
            for step in range(n_giv):
                p, q = pairs[step % len(pairs)]
                theta, sc = golden_max(
                    lambda t: family_test(
                        pd, E @ best_C @ givens(k, p, q, t))[0],
                    -np.pi / 4.0, np.pi / 4.0)
                if sc > best:
                    best, best_C = sc, best_C @ givens(k, p, q, theta)
                    if family_test(pd, E @ best_C)[1]:
                        return True
            return False

        rng = np.random.default_rng(0)
        bad = []
        free_pass = free_fail = 0
        for case in range(40):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(3, 6))
            P = shifted_problem(rng, n, m, m)
            x = np.zeros(n)
            pd = feasibility_data(P, x)
            traces = [make_path_trace(P, x, d, trace_id=f"path{j}")
                      for j, d in enumerate(np.vstack(
                          [np.eye(n), -np.eye(n),
                           rng.standard_normal((2, n))]))]
            # every trace, also those after one that refutes
            lp = [_probe_trace(pd, t, case, j, positive=True)
                  for j, t in enumerate(traces)]
            li = [_probe_trace(pd, t, case, j, positive=False)
                  for j, t in enumerate(traces)]
            for res, lin in zip(lp, li):
                oracle = rotation_search(pd, res.limit_basis,
                                         res.clusters,
                                         np.random.default_rng([case, 1]))
                if (oracle or lin.passed) and not res.passed:
                    bad.append((case, res.trace_id))
                if any(len(cl) > 1 for cl in res.clusters):
                    free_pass += res.passed
                    free_fail += not res.passed
        ok = not bad and free_pass >= 1 and free_fail >= 1
        report("weak Robinson LP passes wherever a rotation search does",
               ok, f"{len(bad)} misses; sequences with cluster freedom: "
                   f"{free_pass} pass, {free_fail} fail")

    def test_pattern_cardinality_invariant(self):
        violations = 0
        exercised = 0
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 5))
            d = int(rng.integers(1, min(3, m) + 1))
            P = shifted_problem(rng, n, m, d)
            res = sparse_card_invariance(feasibility_data(P, np.zeros(n)),
                                         trials=6, seed=seed)
            if res["passing"] >= 2:
                exercised += 1
                violations += not res["consistent"]
        ok = violations == 0 and exercised >= 100
        report("passing pattern cardinality independent of the basis",
               ok, f"{exercised} exercised, {violations} violations")


class TestMultiplierBoundedness:
    def test_multipliers_bounded_when_robinson_holds(self):
        # affine constraints with a KKT pair planted at the origin: when
        # Robinson's condition is certified the outer multiplier norms
        # must plateau, staying within 10x of their level at rho = 1e3
        # all the way to rho = 1e12
        def bounded_instance(rng):
            # constraint data is kept at modest norm: at rho = 1e12 the
            # multiplier estimate amplifies eigensolver roundoff by
            # rho * eps * ||G||, which must stay well below the 1e-4
            # stationarity tolerance for the criterion to be measurable
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            k = 1 if n < 3 else int(rng.integers(1, 3))
            k = min(k, m - 1) if m > 1 else 1
            V = random_rotation(m, rng)
            vals = np.concatenate([rng.uniform(0.6, 2.0, m - k),
                                   np.zeros(k)])
            A0 = 0.2 * (V @ np.diag(vals) @ V.T)
            E = V[:, m - k:]
            Ystar = E @ np.diag(rng.uniform(0.3, 1.5, k)) @ E.T
            mats = []
            for _ in range(n):
                B = rng.standard_normal((m, m))
                mats.append(0.2 * (B + B.T) / 2.0)
            entries_ = {}
            for i in range(m):
                for j in range(i, m):
                    terms = [(float(A0[i, j]), (0,) * n)]
                    for l, A in enumerate(mats):
                        e = [0] * n
                        e[l] = 1
                        terms.append((float(A[i, j]), tuple(e)))
                    p = Poly(n, terms)
                    if not p.is_zero():
                        entries_[(i, j)] = p
            c = [float(np.tensordot(A, Ystar)) for A in mats]
            obj = Poly(n, [(c[l], tuple(1 if i == l else 0
                                        for i in range(n)))
                           for l in range(n)])
            return NsdpProblem(n, obj, MatrixPoly(m, n, entries_)), Ystar

        rng = np.random.default_rng(314)
        kept = 0
        tried = 0
        fails = []
        worst_ratio = 0.0
        worst_final = 0.0
        while kept < 50 and tried < 400:
            tried += 1
            P, Ystar = bounded_instance(rng)
            x0 = np.zeros(P.n)
            rb = check_robinson(feasibility_data(P, x0))
            if rb.status is not HC:
                continue
            cert = kkt_residual(P, x0, SymMat.from_symmetric(Ystar))
            if cert.stationarity_residual > 1e-10:
                fails.append((tried, "planted pair not stationary"))
                continue
            kept += 1
            cfg = PenaltyConfig(anchor=x0, rho0=1.0, rho_mult=10.0,
                                outer_iters=13)
            trace = run_penalty(P, cfg)
            norms = [it.multiplier_norm for it in trace.iterates]
            ref = norms[3]
            for it in trace.iterates[3:]:
                r = it.multiplier_norm / ref
                worst_ratio = max(worst_ratio, r, 1.0 / r)
                if not 0.1 <= r <= 10.0:
                    fails.append((tried, f"norm ratio {r:.2f} at "
                                         f"rho {it.rho:.0e}"))
            final = trace.iterates[-1].stationarity_residual
            worst_final = max(worst_final, final)
            if final > 1e-4:
                fails.append((tried, f"final stationarity {final:.2e}"))
        ok = kept == 50 and not fails
        report("multiplier norms bounded through rho = 1e12", ok,
               f"{kept} instances, worst ratio {worst_ratio:.2f}, "
               f"worst stationarity {worst_final:.2e}")
