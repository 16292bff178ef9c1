"""Penalty method and sequence-probe tests.

Closed forms used as oracles:

* G = diag(x1, x2, x3), f = x1 + x2 + x3, anchor 0: the penalty function
  separates per coordinate into x + x^2/2 + (rho/2) max(-x, 0)^2 with
  minimizer -1/(1+rho) and multiplier rho/(1+rho) -> 1.
* facial [[x1, x2], [x2, 0]] at (1, 0): the negative eigenvalue behaves
  like -x2^2, so the penalty solution has x2 of order (2 rho)^(-1/3) and
  the multiplier norm grows like (rho/4)^(1/3), a factor 10 every three
  levels; no KKT multiplier exists at the limit.
"""
import json
import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from oracles import (
    penalty_hessian_equality_terms,
    entry_gradient,
    newton_direction_linalg,
    path_trace_per_point,
    penalty_parts_reference,
    persistent_clusters_per_record,
    probe_traces_full_scan,
    proj_psd,
    projection_weights_entrywise,
    trace_family_eager,
    usable_records_per_record,
)
from survey import instances as survey_instances
from test_acceptance import shifted_problem
from test_cqcheck import (
    LADDER_PROBLEM,
    RANK0_PROBLEM,
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

from nsdpcq.cqcheck import (
    CqStatus,
    check_robinson,
    feasibility_data,
    li_test,
)
from nsdpcq.corpus import entries as corpus_entries
from nsdpcq.errors import InfeasiblePointError, NumericalFailure
from nsdpcq import model, penalty, report, symmat
from nsdpcq.model import MatrixPoly, NsdpProblem, Poly
from nsdpcq.penalty import (
    PenaltyConfig,
    TraceFamily,
    _gradient_floor,
    _penalty_parts,
    _penalty_value,
    _probe_traces,
    default_trace_family,
    inner_minimize,
    inner_stop,
    inner_tolerance,
    make_path_trace,
    probe_weak_ndg,
    probe_weak_robinson,
    run_penalty,
)
from nsdpcq.report import AnalysisOptions, analyze_problem, report_json_text
from nsdpcq.symmat import LI_TOL, eigh

# a shifted_problem draw (n 4, m 5, nullity 4) whose kernel eigenvalues
# along the +x3 path form the clusters [[0, 1], [2], [3]]
DRAW57_PROBLEM = {
    "name": "draw057_n4_m5_k4", "n": 4, "m": 5,
    "objective": [{"c": 1.0, "e": [1, 0, 0, 0]}],
    "constraint": [
        {"i": 0, "j": 0, "poly": [
            {"c": 0.27046791728344516, "e": [0, 0, 0, 0]},
            {"c": -0.7438718827346628, "e": [0, 1, 1, 0]}]},
        {"i": 0, "j": 1, "poly": [
            {"c": 0.29639262621307594, "e": [0, 0, 0, 0]},
            {"c": -1.4609165495168615, "e": [1, 0, 0, 0]}]},
        {"i": 0, "j": 2, "poly": [
            {"c": 0.12285075296023577, "e": [0, 0, 0, 0]},
            {"c": -0.017397482735196333, "e": [0, 0, 0, 1]},
            {"c": 0.5958241750337039, "e": [1, 1, 0, 0]}]},
        {"i": 0, "j": 3, "poly": [
            {"c": -0.2173274167506464, "e": [0, 0, 0, 0]},
            {"c": -1.301160361534182, "e": [0, 1, 0, 0]},
            {"c": 0.965918260656232, "e": [1, 0, 0, 0]}]},
        {"i": 0, "j": 4, "poly": [
            {"c": -0.12250012768241557, "e": [0, 0, 0, 0]},
            {"c": 0.46617878074677394, "e": [0, 1, 1, 0]},
            {"c": 1.8245905291449496, "e": [1, 0, 1, 0]}]},
        {"i": 1, "j": 1, "poly": [
            {"c": 0.3248022529097989, "e": [0, 0, 0, 0]},
            {"c": 0.3481320001081076, "e": [1, 0, 0, 1]}]},
        {"i": 1, "j": 2, "poly": [
            {"c": 0.13462616072123243, "e": [0, 0, 0, 0]},
            {"c": -2.290188171710507, "e": [0, 0, 0, 1]},
            {"c": -0.048072218113468894, "e": [1, 0, 1, 0]}]},
        {"i": 1, "j": 3, "poly": [
            {"c": -0.2381585381578652, "e": [0, 0, 0, 0]},
            {"c": 0.6011304268130049, "e": [0, 0, 0, 1]},
            {"c": -0.8279146503542845, "e": [0, 1, 0, 0]}]},
        {"i": 1, "j": 4, "poly": [
            {"c": -0.13424192754506273, "e": [0, 0, 0, 0]},
            {"c": -0.12287209779427118, "e": [0, 0, 0, 1]},
            {"c": -0.48314951464260525, "e": [0, 0, 1, 1]}]},
        {"i": 2, "j": 2, "poly": [
            {"c": 0.05580073102378509, "e": [0, 0, 0, 0]},
            {"c": -1.6870929784979103, "e": [0, 0, 2, 0]},
            {"c": 0.4640441020951936, "e": [0, 1, 0, 1]}]},
        {"i": 2, "j": 3, "poly": [
            {"c": -0.09871350752015441, "e": [0, 0, 0, 0]},
            {"c": -1.1348764542406187, "e": [0, 1, 1, 0]}]},
        {"i": 2, "j": 4, "poly": [
            {"c": -0.05564147154554552, "e": [0, 0, 0, 0]},
            {"c": 1.6469969837434277, "e": [1, 0, 0, 1]}]},
        {"i": 3, "j": 3, "poly": [
            {"c": 0.1746277582416984, "e": [0, 0, 0, 0]},
            {"c": -1.4038687948091935, "e": [0, 0, 1, 0]}]},
        {"i": 3, "j": 4, "poly": [
            {"c": 0.09843177175407355, "e": [0, 0, 0, 0]},
            {"c": -0.30151920047538705, "e": [0, 0, 0, 2]},
            {"c": -0.4879508406544632, "e": [0, 1, 0, 0]}]},
        {"i": 4, "j": 4, "poly": [
            {"c": 0.05548266660582084, "e": [0, 0, 0, 0]},
            {"c": -2.5296015084996992, "e": [0, 1, 0, 0]},
            {"c": 0.023584560566066195, "e": [0, 1, 1, 0]}]}]}


# draw 185 of a shifted_problem survey (numpy default_rng(7), n and m in
# 2..5, nullity in 2..m): every checker fails at 0, and the weak-Robinson
# failure rests on a sequence whose limit basis has a two-dimensional
# eigenvalue cluster
CLUSTERED_FAIL_PROBLEM = """{"name": "draw185", "n": 2, "m": 4,
 "objective": [{"c": 1.0, "e": [1, 0]}],
 "constraint": [
  {"i": 0, "j": 0, "poly": [{"c": -1.3908352634460606, "e": [1, 0]}]},
  {"i": 0, "j": 1, "poly": [{"c": 0.972155821841972, "e": [1, 0]},
                            {"c": -0.9322704852666608, "e": [1, 1]}]},
  {"i": 0, "j": 2, "poly": [{"c": -0.44013306313688755, "e": [1, 0]}]},
  {"i": 0, "j": 3, "poly": [{"c": 1.6511220687323573, "e": [1, 0]},
                            {"c": 0.40812669258528117, "e": [1, 1]}]},
  {"i": 1, "j": 1, "poly": [{"c": 0.21159745023956933, "e": [0, 1]},
                            {"c": 1.4351574527392146, "e": [1, 0]}]},
  {"i": 1, "j": 2, "poly": [{"c": 0.1638203901327093, "e": [0, 1]},
                            {"c": -1.1977826633442643, "e": [1, 0]}]},
  {"i": 1, "j": 3, "poly": [{"c": -0.8981539569773913, "e": [1, 0]}]},
  {"i": 2, "j": 2, "poly": [{"c": 0.3246699003364652, "e": [0, 2]}]},
  {"i": 2, "j": 3, "poly": [{"c": -0.4385468737763723, "e": [1, 0]}]},
  {"i": 3, "j": 3, "poly": [{"c": 1.3811472638447277, "e": [1, 1]}]}]}"""


# draw 26 of the same survey: G(0) has a zero eigenvalue computed as
# -8.2e-17, so at a stationary anchor ||Y|| = rho * 8.2e-17 grows 10x per
# level from rounding alone
DRAW26_PROBLEM = """{"name": "draw026", "n": 4, "m": 3,
 "objective": [{"c": 1.0, "e": [1, 0, 0, 0]}],
 "constraint": [
  {"i": 0, "j": 0, "poly": [{"c": 0.4706127583278859, "e": [0, 0, 0, 0]},
                            {"c": -0.3373777124849492, "e": [0, 0, 0, 2]}]},
  {"i": 0, "j": 1, "poly": [{"c": 0.3762469760324286, "e": [0, 0, 0, 0]},
                            {"c": 1.1822168380402336, "e": [0, 0, 1, 0]}]},
  {"i": 0, "j": 2, "poly": [{"c": 0.47778498326390634, "e": [0, 0, 0, 0]},
                            {"c": 1.361921431780073, "e": [0, 0, 1, 0]}]},
  {"i": 1, "j": 1, "poly": [{"c": 0.3008031220329089, "e": [0, 0, 0, 0]},
                            {"c": -0.13096422951361827, "e": [0, 0, 1, 0]}]},
  {"i": 1, "j": 2, "poly": [{"c": 0.3819810491017396, "e": [0, 0, 0, 0]},
                            {"c": -0.36021397218550477, "e": [0, 1, 0, 1]}]},
  {"i": 2, "j": 2, "poly": [{"c": 0.485066514226214, "e": [0, 0, 0, 0]},
                            {"c": 0.6660043098063377, "e": [0, 0, 1, 0]}]}]}"""

# draw 53: the same rounding, -3.8e-17, and the line search leaves the
# anchor stationary at every level, so only the rounding floor of the
# divergence test keeps rho * 3.8e-17 from counting as growth
DRAW53_PROBLEM = """{"name": "draw053", "n": 5, "m": 3,
 "objective": [{"c": 1.0, "e": [1, 0, 0, 0, 0]}],
 "constraint": [
  {"i": 0, "j": 0, "poly": [{"c": 0.18159947995028647, "e": [0, 0, 0, 0, 0]},
                            {"c": 0.7487575590045316, "e": [1, 0, 1, 0, 0]}]},
  {"i": 0, "j": 1, "poly": [{"c": 0.11860296480961792, "e": [0, 0, 0, 0, 0]},
                            {"c": 0.9507395791368844, "e": [0, 1, 0, 0, 0]}]},
  {"i": 0, "j": 2, "poly": [{"c": 0.21159593113903638, "e": [0, 0, 0, 0, 0]},
                            {"c": 0.4633957599504301, "e": [0, 0, 1, 0, 0]},
                            {"c": -0.49788550133597076,
                             "e": [0, 1, 0, 0, 0]}]},
  {"i": 1, "j": 1, "poly": [{"c": 0.07745982128077826, "e": [0, 0, 0, 0, 0]},
                            {"c": 0.6059514183291346, "e": [0, 0, 0, 1, 0]},
                            {"c": -0.584716845467998, "e": [0, 0, 1, 0, 0]}]},
  {"i": 1, "j": 2, "poly": [{"c": 0.13819370397763014, "e": [0, 0, 0, 0, 0]},
                            {"c": 0.15970534307367285,
                             "e": [0, 0, 0, 0, 1]}]},
  {"i": 2, "j": 2, "poly": [{"c": 0.2465471712080484, "e": [0, 0, 0, 0, 0]},
                            {"c": 1.1841470672070513,
                             "e": [0, 0, 1, 0, 0]}]}]}"""


# draw 227: the earlier L-BFGS inner solve stalled in its noise-floor
# branch at rho = 1e10, 1e11 and 1e12; every Newton level converges
DRAW227_PROBLEM = """{"name": "draw227", "n": 5, "m": 4,
 "objective": [{"c": 1.0, "e": [1, 0, 0, 0, 0]}],
 "constraint": [
  {"i": 0, "j": 0, "poly": [{"c": 0.022370138662987094,
                             "e": [0, 0, 0, 0, 1]}]},
  {"i": 0, "j": 1, "poly": [{"c": -0.4259951083270174, "e": [0, 0, 1, 0, 0]},
                            {"c": 0.17082569286254065, "e": [0, 2, 0, 0, 0]}]},
  {"i": 0, "j": 2, "poly": [{"c": -0.22629844016398706,
                             "e": [0, 0, 0, 1, 1]}]},
  {"i": 0, "j": 3, "poly": [{"c": -0.6571166345471079, "e": [0, 0, 0, 0, 1]},
                            {"c": -0.2643398816020574, "e": [0, 0, 1, 0, 0]}]},
  {"i": 1, "j": 1, "poly": [{"c": -0.3961596271779092, "e": [0, 0, 0, 1, 0]},
                            {"c": 0.1881737143854595, "e": [0, 0, 1, 0, 0]}]},
  {"i": 1, "j": 2, "poly": [{"c": 0.8280671966298345, "e": [0, 0, 1, 0, 0]},
                            {"c": 1.273039043910517, "e": [1, 0, 0, 0, 0]}]},
  {"i": 1, "j": 3, "poly": [{"c": 0.16454803498473844, "e": [0, 0, 0, 1, 0]}]},
  {"i": 2, "j": 2, "poly": [{"c": 2.2893472407534277, "e": [0, 0, 1, 0, 0]}]},
  {"i": 2, "j": 3, "poly": [{"c": 0.5662226204438456, "e": [0, 0, 0, 0, 1]},
                            {"c": 0.8083629815041277, "e": [0, 1, 0, 0, 0]}]},
  {"i": 3, "j": 3, "poly": [{"c": -0.5874669686808439,
                             "e": [0, 0, 0, 1, 0]}]}]}"""

# draw 237: Robinson holds, certified, so the penalty multipliers stay
# bounded; the earlier L-BFGS inner solve's last level moved ||Y|| from
# 1.5 to 3.8 and flagged divergence
DRAW237_PROBLEM = """{"name": "draw237", "n": 4, "m": 4,
 "objective": [{"c": 1.0, "e": [1, 0, 0, 0]}],
 "constraint": [
  {"i": 0, "j": 0, "poly": [{"c": 0.7009600667833714, "e": [0, 0, 0, 0]},
                            {"c": 1.1345533644437216, "e": [0, 0, 1, 1]},
                            {"c": 0.018541047808133614, "e": [0, 1, 0, 0]}]},
  {"i": 0, "j": 1, "poly": [{"c": 0.8325724731768432, "e": [0, 0, 0, 0]},
                            {"c": -0.7060277881099468, "e": [0, 1, 0, 0]},
                            {"c": 1.349915874434614, "e": [1, 0, 0, 0]}]},
  {"i": 0, "j": 2, "poly": [{"c": 0.06253714707988799, "e": [0, 0, 0, 0]},
                            {"c": -1.5694344418032673, "e": [1, 0, 0, 0]}]},
  {"i": 0, "j": 3, "poly": [{"c": -0.25474987265845644, "e": [0, 0, 0, 0]},
                            {"c": 0.9934736893940372, "e": [1, 0, 1, 0]}]},
  {"i": 1, "j": 1, "poly": [{"c": 0.9888964520799567, "e": [0, 0, 0, 0]},
                            {"c": 0.17017367083491763, "e": [0, 0, 0, 1]},
                            {"c": 0.3651443576607661, "e": [0, 0, 1, 0]}]},
  {"i": 1, "j": 2, "poly": [{"c": 0.07427913468545323, "e": [0, 0, 0, 0]},
                            {"c": -1.2584943460208136, "e": [0, 0, 1, 0]},
                            {"c": -0.8142197326432581, "e": [0, 1, 0, 1]}]},
  {"i": 1, "j": 3, "poly": [{"c": -0.30258176117511243, "e": [0, 0, 0, 0]},
                            {"c": -2.051600774483963, "e": [0, 0, 1, 0]}]},
  {"i": 2, "j": 2, "poly": [{"c": 0.005579340322250036, "e": [0, 0, 0, 0]},
                            {"c": 0.2426525002488894, "e": [0, 0, 1, 0]}]},
  {"i": 2, "j": 3, "poly": [{"c": -0.022727871400908393, "e": [0, 0, 0, 0]},
                            {"c": 1.168403599314848, "e": [0, 0, 1, 0]},
                            {"c": 0.6294706965704844, "e": [1, 0, 0, 0]}]},
  {"i": 3, "j": 3, "poly": [{"c": 0.09258373007938561, "e": [0, 0, 0, 0]},
                            {"c": 0.7298106216841612, "e": [1, 0, 0, 0]}]}]}"""

# the benchmark's degenerate00 (perfbench/inputs.degenerate_base()[0]):
# G(0) = 0, and its 13-level solve takes 116 Newton iterations
DEGENERATE00_PROBLEM = """{"name": "degenerate00_n4_m3_k3", "n": 4, "m": 3,
 "objective": [{"c": 1.0, "e": [1, 0, 0, 0]}],
 "constraint": [
  {"i": 0, "j": 0, "poly": [{"c": -0.6734731116783189, "e": [0, 0, 0, 1]}]},
  {"i": 0, "j": 1, "poly": [{"c": 1.523289847933569, "e": [1, 0, 0, 0]}]},
  {"i": 0, "j": 2, "poly": [{"c": -0.056325849804638325, "e": [0, 0, 1, 0]},
                            {"c": 1.4751406174506718, "e": [0, 1, 0, 0]}]},
  {"i": 1, "j": 1, "poly": [{"c": 1.1679728131087033, "e": [0, 2, 0, 0]},
                            {"c": 0.7799175266708605, "e": [1, 0, 0, 1]}]},
  {"i": 1, "j": 2, "poly": [{"c": -0.7763100440354325, "e": [0, 0, 0, 2]},
                            {"c": 0.9865155026328277, "e": [0, 0, 1, 0]}]},
  {"i": 2, "j": 2, "poly": [{"c": 0.11036679944811631,
                             "e": [1, 0, 0, 0]}]}]}"""


# the benchmark's degenerate06 (perfbench/inputs.degenerate_base()[6]):
# G(0) = 0, and the penalty trace refutes both weak conditions
DEGENERATE06_PROBLEM = """{"name": "degenerate06_n3_m3_k3", "n": 3, "m": 3,
 "objective": [{"c": 1.0, "e": [1, 0, 0]}],
 "constraint": [
  {"i": 0, "j": 0, "poly": [{"c": -0.5154541772797692, "e": [0, 2, 0]},
                            {"c": 0.15674142053545745, "e": [1, 0, 0]}]},
  {"i": 0, "j": 1, "poly": [{"c": -0.2944340668533167, "e": [0, 1, 1]}]},
  {"i": 0, "j": 2, "poly": [{"c": 2.4934788292727506, "e": [1, 0, 0]}]},
  {"i": 1, "j": 1, "poly": [{"c": -0.5729384096117638, "e": [0, 0, 1]}]},
  {"i": 1, "j": 2, "poly": [{"c": -0.29918160784817344, "e": [0, 0, 1]}]},
  {"i": 2, "j": 2, "poly": [{"c": -0.45573238370231156,
                             "e": [0, 2, 0]}]}]}"""


def line_problem():
    # f = 0, G = [x1]; the regularized penalty is minimized at the anchor
    G = MatrixPoly(1, 1, {(0, 0): xv(1, 0)})
    return NsdpProblem(1, Poly.zero(1), G, name="line")


def facial_origin_problem():
    # same constraint as facial, objective pushing along the zero block
    G = MatrixPoly(2, 2, {(0, 0): xv(2, 0), (0, 1): xv(2, 1)})
    return NsdpProblem(2, xv(2, 1), G, name="facial0")


def parts(P, anchor, rho, x):
    """Value, gradient, multiplier and noise floor of the penalty at x,
    read off a fresh evaluation of x."""
    x = np.asarray(x, dtype=float)
    return _penalty_parts(np.asarray(anchor, dtype=float), rho, x, P.at(x))


def diag2_problem():
    G = MatrixPoly.diagonal([xv(2, 0), xv(2, 1)])
    return NsdpProblem(2, xv(2, 0) + xv(2, 1), G, name="diag2")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PenaltyConfig(anchor=np.zeros(1), rho0=0.0)
        with pytest.raises(ValueError):
            PenaltyConfig(anchor=np.zeros(1), rho_mult=1.0)
        with pytest.raises(ValueError):
            PenaltyConfig(anchor=np.zeros(1), inner_tol=0.0)
        with pytest.raises(ValueError):
            PenaltyConfig(anchor=np.zeros(1), outer_iters=0)

    def test_schedule_must_stay_finite(self):
        # a level that overflowed to inf made SymMat refuse the multiplier
        # rho * proj(-G) with a ValueError from inside the run
        for kw in ({"rho0": np.inf}, {"rho_mult": np.inf},
                   {"rho0": 1e300, "rho_mult": 1e10, "outer_iters": 4},
                   {"outer_iters": 320}):
            with pytest.raises(ValueError, match="finite|overflows"):
                PenaltyConfig(anchor=np.zeros(1), **kw)
        # 1e308, the last level of 309, is finite
        PenaltyConfig(anchor=np.zeros(1), outer_iters=309)

    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1e-8])
    def test_inner_tol_must_be_positive_and_finite(self, tol):
        # an infinite tolerance solved every level to INNER_TOL_CAP
        with pytest.raises(ValueError, match="positive and finite"):
            PenaltyConfig(anchor=np.zeros(1), inner_tol=tol)

    def test_anchor_coercion(self):
        cfg = PenaltyConfig(anchor=[1, 2])
        assert cfg.anchor.dtype == float
        assert cfg.anchor.shape == (2,)


class TestInnerMinimize:
    def test_line_anchor_is_solution(self):
        P = line_problem()
        cfg = PenaltyConfig(anchor=np.zeros(1))
        for rho in (1.0, 100.0, 1e6):
            res = inner_minimize(P, cfg, rho, np.array([0.7]))
            assert res.converged
            assert abs(res.x[0]) <= 1e-8

    def test_interior_regularized_minimum(self):
        # penalty inactive near the anchor, so the solution is the
        # minimizer of x1^2 + x2^2 + ||x - a||^2 / 2, namely a / 3
        P = interior_problem()
        a = np.array([0.3, 0.1])
        cfg = PenaltyConfig(anchor=a)
        res = inner_minimize(P, cfg, 5.0, a)
        assert res.converged
        assert np.allclose(res.x, a / 3.0, atol=1e-6)

    def test_facial_objective_pulls_into_infeasibility(self):
        P = facial_origin_problem()
        cfg = PenaltyConfig(anchor=np.zeros(2))
        res = inner_minimize(P, cfg, 10.0, np.zeros(2))
        assert res.converged
        assert res.x[1] < 0.0
        assert res.grad_norm <= inner_tolerance(cfg, 10.0)
        assert parts(P, cfg.anchor, 10.0, res.x)[0] \
            < parts(P, cfg.anchor, 10.0, np.zeros(2))[0]

    def test_noise_floor_scales_with_the_data(self):
        # f = 0, G = diag(x1, x2), anchor at the point: phi is the penalty
        # term alone, (rho/2) delta^2 at x = (1, -delta), and the floor is
        # VALUE_NOISE * (phi + rho * max|lambda| * sum(neg)) in closed form
        P = NsdpProblem(2, Poly.zero(2),
                        MatrixPoly.diagonal([xv(2, 0), xv(2, 1)]),
                        name="diag2_f0")
        floors = []
        for rho, delta in [(1.0, 1e-6), (1.0, 1e-4), (1e4, 1e-4)]:
            x = np.array([1.0, -delta])
            phi, _, _, floor = parts(P, x, rho, x)
            assert phi == pytest.approx(0.5 * rho * delta ** 2, rel=1e-12)
            # max|lambda| = 1 and sum(neg) = delta
            want = 1e-14 * (phi + rho * 1.0 * delta)
            assert floor == pytest.approx(want, rel=1e-12)
            floors.append(floor)
        # |phi| << 1 gives a floor far below an absolute 1e-14 ...
        assert floors[0] <= 1e-19
        # ... which grows with rho * sum(neg)
        assert floors[0] < floors[1] < floors[2]
        assert floors[2] == pytest.approx(1e4 * floors[1], rel=1e-3)

    def test_budget_exhaustion_is_flagged(self, monkeypatch):
        monkeypatch.setattr(penalty, "INNER_MAX_ITERS", 1)
        P = diag3_problem()
        cfg = PenaltyConfig(anchor=np.zeros(3))
        res = inner_minimize(P, cfg, 100.0, np.array([1.0, 1.0, 1.0]))
        assert not res.converged
        assert inner_stop(res.converged, res.iterations) == "budget"

    def test_gradient_floor_closed_form(self):
        # G = diag(x1, x2): the partials are diag(1, 0) and diag(0, 1), so
        # ||DG||_F = sqrt(2) and the floor is eps * rho * max|lambda| * sqrt(2)
        P = diag2_problem()
        eps = np.finfo(float).eps
        x = np.array([0.5, -3.0])
        floors = []
        spec = eigh(P.constraint_value(x))
        dg_norm = np.linalg.norm(P.constraint_partials(x))
        for rho in (1.0, 1e6, 1e11):
            floor = _gradient_floor(rho, spec.values, dg_norm)
            assert floor == pytest.approx(eps * rho * 3.0 * np.sqrt(2.0),
                                          rel=1e-12)
            floors.append(floor)
        assert floors[1] == pytest.approx(1e6 * floors[0], rel=1e-12)
        assert floors[2] == pytest.approx(1e11 * floors[0], rel=1e-12)
        # the inner solve takes the floor from the warm start's evaluation
        ev = P.at(x)
        assert _gradient_floor(1e11, ev.eigenpairs()[0], np.linalg.norm(
            ev.constraint_partials())) == floors[2]


class TestPenaltyGradient:
    def test_finite_difference(self):
        problems = [diag3_problem(), offdiag_problem(), fullmat_problem(),
                    facial_problem()]
        h = 1e-6
        rng = np.random.default_rng(11)
        for case in range(100):
            P = problems[case % len(problems)]
            x = rng.uniform(-1.0, 1.0, P.n)
            anchor = rng.uniform(-1.0, 1.0, P.n)
            rho = float(rng.uniform(0.5, 100.0))
            g = parts(P, anchor, rho, x)[1]
            fd = np.zeros(P.n)
            for i in range(P.n):
                e = np.zeros(P.n)
                e[i] = h
                fd[i] = (parts(P, anchor, rho, x + e)[0]
                         - parts(P, anchor, rho, x - e)[0]) / (2 * h)
            rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
            assert rel <= 1e-4, f"case {case} on {P.name}: {rel:.2e}"

    def test_equality_term(self):
        G = MatrixPoly(1, 2, {(0, 0): xv(2, 0)})
        P = NsdpProblem(2, xv(2, 1), G, equalities=(xv(2, 0) + xv(2, 1),),
                        name="eqline")
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, 2)
            rho = float(rng.uniform(0.5, 50.0))
            g = parts(P, np.zeros(2), rho, x)[1]
            fd = np.zeros(2)
            for i in range(2):
                e = np.zeros(2)
                e[i] = 1e-6
                fd[i] = (parts(P, np.zeros(2), rho, x + e)[0]
                         - parts(P, np.zeros(2), rho, x - e)[0]) / 2e-6
            assert np.linalg.norm(g - fd) <= 1e-4 * (1 + np.linalg.norm(g))


def with_equalities(P, rng, k):
    """P with k random linear-plus-square equalities added."""
    eqs = []
    for _ in range(k):
        terms = [(float(rng.standard_normal()), tuple(row))
                 for row in np.eye(P.n, dtype=int)]
        e = [0] * P.n
        e[int(rng.integers(0, P.n))] = 2
        terms.append((float(rng.standard_normal()), tuple(e)))
        eqs.append(Poly(P.n, terms))
    return NsdpProblem(P.n, P.objective, P.constraint, equalities=eqs,
                       name=P.name + f"_eq{k}")


def oracle_problems():
    """The corpus at its pinned points and shifted draws at 0, rank-0 and
    rank-deficient, some with equalities."""
    for e in corpus_entries():
        yield e.problem, np.asarray(e.point, dtype=float)
    rng = np.random.default_rng(23)
    for case in range(12):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        k = m if case % 3 == 0 else int(rng.integers(1, m))
        P = shifted_problem(rng, n, m, k)
        if case % 2:
            P = with_equalities(P, rng, int(rng.integers(1, 3)))
        yield P, np.zeros(n)


class TestOnePassPerPoint:
    """The penalty layer evaluates each point once, from one power table,
    and each path trace with one stacked eigh; the results are bit for
    bit those of one public model call per piece and one eigh per point.
    """

    def test_penalty_pieces_match_public_method_oracle(self):
        rng = np.random.default_rng(17)
        for P, x_bar in oracle_problems():
            for _ in range(4):
                x = x_bar + rng.standard_normal(P.n) * float(
                    rng.choice([1e-6, 1e-2, 0.5]))
                anchor = x_bar + rng.standard_normal(P.n) * 1e-3
                rho = float(rng.choice([1.0, 1e3, 1e9]))
                val, grad, Y, noise = penalty_parts_reference(
                    P, anchor, rho, x)
                got = parts(P, anchor, rho, x)
                assert got[0] == val
                assert got[1].tobytes() == grad.tobytes()
                assert got[3] == noise
                # the value alone is the same, and the multiplier does
                # not depend on the anchor
                assert _penalty_value(anchor, rho, x, P.at(x))[0] == val
                _, _, Y0, _ = penalty_parts_reference(P, np.zeros(P.n), rho, x)
                assert parts(P, np.zeros(P.n), rho, x)[2].a.tobytes() \
                    == Y0.a.tobytes() == Y.a.tobytes() == got[2].a.tobytes()

    def test_penalty_parts_at_the_points_match_oracle_bytes(self):
        # at x_bar G is PSD on most of these problems, where the
        # multiplier is zero and takes no product, and slightly indefinite
        # on the rest; the value, gradient, multiplier and noise floor are
        # the reference's bytes, the multiplier read-only and laid out alike
        def bits(v):
            return np.float64(v).tobytes()

        zero = set()
        for P, x_bar in oracle_problems():
            for rho in (1.0, 1e6):
                want = penalty_parts_reference(P, np.ones(P.n), rho, x_bar)
                got = parts(P, np.ones(P.n), rho, x_bar)
                assert bits(got[0]) == bits(want[0]), P.name
                assert bits(got[3]) == bits(want[3]), P.name
                assert got[1].tobytes() == want[1].tobytes(), P.name
                Y, Yref = got[2].a, want[2].a
                assert Y.tobytes() == Yref.tobytes(), P.name
                assert Y.strides == Yref.strides and Y.flags == Yref.flags
                zero.add(not Y.any())
        assert zero == {True, False}

    def test_path_trace_matches_per_point_oracle(self):
        rng = np.random.default_rng(29)
        for P, x_bar in oracle_problems():
            dirs = [np.eye(P.n)[0], -np.eye(P.n)[P.n - 1],
                    rng.standard_normal(P.n)]
            for d in dirs:
                got = make_path_trace(P, x_bar, d, trace_id="t")
                want = path_trace_per_point(P, x_bar, d, trace_id="t")
                assert got.to_jsonl() == want.to_jsonl()
                assert len(got.iterates) == len(want.iterates)
                for a, b in zip(got.iterates, want.iterates):
                    for field in ("x", "eigenvalues", "eigenvectors"):
                        u, v = getattr(a, field), getattr(b, field)
                        assert u.tobytes() == v.tobytes(), (P.name, field)
                        assert u.strides == v.strides, (P.name, field)

    def test_path_trace_is_one_eigh(self, monkeypatch):
        calls = []

        def counted(M):
            calls.append(np.shape(M.a))
            return eigh(M)
        monkeypatch.setattr(penalty, "eigh", counted)
        P = diag3_problem()
        make_path_trace(P, np.zeros(3), np.ones(3))
        assert calls == [(penalty.PATH_STEPS, 3, 3)]


def simple_spectrum_points(rng, P, x_bar, count):
    """Points near x_bar where G has simple eigenvalues, none near 0, and
    at least one negative, so the projection is differentiable there."""
    found = 0
    for _ in range(50 * count):
        x = x_bar + 0.5 * rng.standard_normal(P.n)
        lam = eigh(P.constraint_value(x)).values
        if (lam[-1] < -1e-2 and np.min(np.abs(lam)) > 1e-2
                and np.min(-np.diff(lam), initial=1.0) > 1e-2):
            yield x
            found += 1
            if found == count:
                return


class TestNewtonDerivatives:
    """The generalized derivatives the Newton solve uses, against
    central differences at points where they are classical."""

    def test_multiplier_directional_derivative(self):
        # Y(x) = rho * proj(-G(x)); with -G = Q diag(mu) Q^T,
        # DY[d] = rho * Q (Omega o Q^T (-DG[d]) Q) Q^T
        rng = np.random.default_rng(41)
        h = 1e-6
        checked = 0
        for P, x_bar in oracle_problems():
            for x in simple_spectrum_points(rng, P, x_bar, 3):
                rho = float(rng.choice([1.0, 30.0]))
                d = rng.standard_normal(P.n)
                w, Q = symmat.eigh_raw(P.constraint_value(x).a)
                DGd = np.tensordot(d, P.constraint_partials(x), 1)
                omega = penalty._projection_weights(-w)
                got = rho * Q @ (omega * (Q.T @ -DGd @ Q)) @ Q.T
                zero = np.zeros(P.n)
                fd = (parts(P, zero, rho, x + h * d)[2].a
                      - parts(P, zero, rho, x - h * d)[2].a) / (2.0 * h)
                assert np.max(np.abs(got - fd)) <= 1e-5 * (
                    1.0 + np.max(np.abs(fd))), P.name
                checked += 1
        assert checked >= 20

    def test_projection_weights_match_entrywise_formula(self):
        # spectra sorted non-increasing, as the negated eigenvalues of
        # eigh_raw come, with ties, zeros and mixed signs: the block form
        # is the entrywise formula, except that a zero in the non-positive
        # block may carry the other sign
        rng = np.random.default_rng(47)
        for _ in range(600):
            m = int(rng.integers(1, 9))
            mu = rng.integers(-2, 3, m) * float(rng.choice([1.0, 1e-9]))
            mu = np.where(rng.random(m) < 0.5, mu, rng.standard_normal(m))
            mu = np.sort(mu)[::-1]
            got = penalty._projection_weights(mu)
            want = projection_weights_entrywise(mu)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), mu

    def test_penalty_hessian_is_the_entrywise_weights_one(self, monkeypatch):
        # bit for bit, so the sign of a zero weight never reaches the
        # Hessian: random points, and points of diag3 where G has tied,
        # zero and mixed-sign eigenvalues
        rng = np.random.default_rng(53)
        cases = [(diag3_problem(), np.array(x)) for x in (
            [-1.0, -1.0, 0.5], [0.0, -1.0, 2.0], [-2.0, 0.0, 0.0],
            [-1.0, -1.0, -1.0], [3.0, -1.0, 3.0])]
        for P, x_bar in oracle_problems():
            cases += [(P, x_bar + rng.standard_normal(P.n)
                       * float(rng.choice([1e-3, 0.5]))) for _ in range(3)]
        rhos = rng.choice([1.0, 1e3, 1e9], len(cases))

        def hessians():
            out = []
            for (P, x), rho in zip(cases, rhos):
                ev = P.at(x)
                Y = _penalty_parts(np.zeros(P.n), rho, x, ev)[2]
                out.append(penalty._penalty_hessian(rho, ev, Y).tobytes())
            return out

        blocks = hessians()
        monkeypatch.setattr(penalty, "_projection_weights",
                            projection_weights_entrywise)
        assert hessians() == blocks

    def test_penalty_hessian_reads_equalities_only_when_present(
            self, monkeypatch):
        # bit for bit the Hessian with the equality terms formed, on
        # problems with and without equalities; over the 13-level solve of
        # degenerate00, which has none, no Hessian reads h(x)
        rng = np.random.default_rng(59)
        for P, x_bar in oracle_problems():
            for _ in range(3):
                x = x_bar + rng.standard_normal(P.n) * 0.1
                rho = float(rng.choice([1.0, 1e3, 1e9]))
                ev = P.at(x)
                Y = _penalty_parts(np.zeros(P.n), rho, x, ev)[2]
                assert penalty._penalty_hessian(rho, ev, Y).tobytes() \
                    == penalty_hessian_equality_terms(rho, ev, Y).tobytes()
        reads, hessians = [], []
        values = model.Evaluation.equality_values
        hessian = penalty._penalty_hessian

        def counted(ev):
            reads.append(ev)
            return values(ev)

        def recorded(rho, ev, Y):
            before = len(reads)
            H = hessian(rho, ev, Y)
            hessians.append((len(reads) - before, H.tobytes(), rho, ev, Y))
            return H

        monkeypatch.setattr(model.Evaluation, "equality_values", counted)
        monkeypatch.setattr(penalty, "_penalty_hessian", recorded)
        P = NsdpProblem.from_json(json.loads(DEGENERATE00_PROBLEM))
        run_penalty(P, PenaltyConfig(anchor=np.zeros(P.n), outer_iters=13))
        assert len(hessians) >= 100
        for n_reads, H, rho, ev, Y in hessians:
            assert n_reads == 0
            assert H == penalty_hessian_equality_terms(rho, ev, Y).tobytes()

    def test_penalty_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(43)
        h = 1e-6
        checked = 0
        for P, x_bar in oracle_problems():
            for x in simple_spectrum_points(rng, P, x_bar, 2):
                rho = float(rng.choice([1.0, 100.0]))
                anchor = x_bar + 0.1 * rng.standard_normal(P.n)
                ev = P.at(x)
                _, _, Y, _ = _penalty_parts(anchor, rho, x, ev)
                H = penalty._penalty_hessian(rho, ev, Y)
                fd = np.empty((P.n, P.n))
                for l in range(P.n):
                    e = np.zeros(P.n)
                    e[l] = h
                    fd[:, l] = (parts(P, anchor, rho, x + e)[1]
                                - parts(P, anchor, rho, x - e)[1]
                                ) / (2.0 * h)
                assert np.max(np.abs(H - fd)) <= 1e-5 * (
                    1.0 + np.max(np.abs(fd))), P.name
                checked += 1
        assert checked >= 15


def newton_cases():
    """Seeded Hessians for n from 1 to 12 and 64: positive definite,
    indefinite at scales from 1e-3 to 1e5 with the diagonal as drawn and
    made positive (so the first attempt is unshifted), positive
    semidefinite and singular, and zero."""
    rng = np.random.default_rng(61)
    for n in list(range(1, 13)) + [64]:
        B = rng.standard_normal((n, n))
        yield B @ B.T + 0.1 * np.eye(n)
        A = rng.standard_normal((n, n))
        S = A + A.T
        T = S - np.diag(np.diag(S)) + np.diag(np.abs(np.diag(S)) + 1e-3)
        for scale in 10.0 ** np.arange(-3, 6):
            yield scale * S
            yield scale * T
        B = rng.standard_normal((n, n // 2))
        yield B @ B.T
        yield np.zeros((n, n))


def shift_boundary_cases():
    """(H, gap) with gap = lam_min(H) + tau_k exactly, as a
    Fraction, at 0, a few ulps either side of it, and 1e-15 to 1e-12
    (times H's scale) below it, where the shift search's skip test
    decides whether tau_k is factored.

    H = 2^p (c I + D (J - I) D), J all ones and D a diagonal of signs,
    has the exact eigenvalues 2^p (c - 1) and 2^p (c + n - 1).  Its
    diagonal 2^p c > 0 makes the shift sequence 0, beta, 2 beta, ..., so
    tau_k = beta 2^(k - 1), and with tau_k = mant 2^p, mant in [0.5, 1),
    c = 1 - mant is exact and puts lam_min + tau_k at 0."""
    rng = np.random.default_rng(73)
    for n in (2, 3, 5):
        for k in (1, 6, 12):
            tau = 1e-3 * 2.0 ** (k - 1)
            mant, p = math.frexp(tau)
            c0 = 1.0 - mant
            offsets = [c0]
            for towards in (0.0, 1.0):
                c = c0
                for _ in range(3):
                    offsets.append(c := float(np.nextafter(c, towards)))
            offsets += [c0 - r for r in (1e-15, 1e-14, 1e-13, 1e-12)]
            d = rng.choice([-1.0, 1.0], size=n)
            off = np.outer(d, d) - np.eye(n)
            for c in offsets:
                H = np.ldexp(c * np.eye(n) + off, p)
                gap = Fraction(2) ** p * (Fraction(c) - 1) + Fraction(tau)
                yield H, gap


def direction_rejected(grad, d) -> bool:
    """Whether inner_minimize rejects d as a descent direction."""
    gd = float(grad @ d)
    return not gd < -1e-14 * max(1.0, float(np.linalg.norm(grad))) * float(
        np.linalg.norm(d))


class TestNewtonDirection:
    """The shift search through the LAPACK gufuncs against the same
    search through numpy.linalg."""

    @pytest.fixture(autouse=True)
    def solve_errstate(self):
        # the errstate inner_minimize sets for every direction it takes
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            yield

    @pytest.fixture
    def attempts(self, monkeypatch):
        counts = {"gufunc": 0, "linalg": 0}
        gufunc, linalg = penalty._cholesky_lo, np.linalg.cholesky

        def gufunc_counted(a):
            counts["gufunc"] += 1
            return gufunc(a)

        def linalg_counted(a):
            counts["linalg"] += 1
            return linalg(a)

        monkeypatch.setattr(penalty, "_cholesky_lo", gufunc_counted)
        monkeypatch.setattr(np.linalg, "cholesky", linalg_counted)
        return counts

    def test_same_bytes_as_numpy_linalg_with_fewer_attempts(self,
                                                            attempts):
        # the skip of shifts Cholesky cannot take keeps every byte of the
        # direction; where the search doubles tau over 20 times, one
        # failed factorization reads the spectrum, and at most one more
        # fails before the accepted shift
        rng = np.random.default_rng(67)
        failed = []
        for H in newton_cases():
            grad = rng.standard_normal(len(H))
            attempts.update(gufunc=0, linalg=0)
            got = penalty._newton_direction(H, grad)
            want = newton_direction_linalg(H, grad)
            assert got.tobytes() == want.tobytes(), H
            assert attempts["gufunc"] <= attempts["linalg"], H
            if attempts["linalg"] > 21:
                assert attempts["gufunc"] <= 3, H
            failed.append(attempts["linalg"] - 1)
        # unshifted successes, and shifts after from 1 to over 20 doublings
        assert 0 in failed and 1 in failed and max(failed) > 20
        assert len(set(failed)) >= 15

    def test_skip_test_at_its_boundary(self, attempts):
        # lam_min(H) + tau_k at 0, within ulps of it and just below it:
        # the direction and its shift are the numpy.linalg route's, and
        # every tau before tau_k is skipped
        rng = np.random.default_rng(79)
        gaps = []
        for H, gap in shift_boundary_cases():
            grad = rng.standard_normal(len(H))
            attempts.update(gufunc=0, linalg=0)
            got = penalty._newton_direction(H, grad)
            want = newton_direction_linalg(H, grad)
            assert got.tobytes() == want.tobytes(), H
            assert attempts["gufunc"] <= min(attempts["linalg"], 3), H
            gaps.append(gap / Fraction(float(abs(H).max()) * penalty.EPS))
        assert 0 in gaps
        assert any(0 < g <= 4 for g in gaps) and any(-4 <= g < 0 for g in gaps)
        assert min(gaps) < -1000

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_nan_hessian_gives_a_rejected_direction(self, n):
        rng = np.random.default_rng(71)
        B = rng.standard_normal((n, n))
        grad = rng.standard_normal(n)
        for spots in ([(0, 0)], [(n - 1, 0), (0, n - 1)], [(n - 1, n - 1)]):
            H = B @ B.T + np.eye(n)
            for i, j in spots:
                H[i, j] = np.nan
            for newton in (penalty._newton_direction, newton_direction_linalg):
                assert direction_rejected(grad, newton(H, grad)), (spots, newton)


class TestRunPenalty:
    def test_bench_solves_match_the_numpy_linalg_eigh_route(self,
                                                            monkeypatch):
        # 13-level solves of the 21 benchmark instances (7 corpus entries,
        # 2 ladder and 12 degenerate ones) write the same JSONL and notes
        # when symmat's single-matrix eigensolve goes through
        # numpy.linalg.eigh instead of the gufunc behind it
        def linalg(a, signature):
            assert signature == "d->dd"
            return np.linalg.eigh(a)

        runs = []
        for name, obj, point in islice(survey_instances(), 21):
            P = NsdpProblem.from_json(obj)
            cfg = PenaltyConfig(anchor=point, outer_iters=13)
            got = run_penalty(P, cfg)
            with monkeypatch.context() as mp:
                mp.setattr(symmat, "_eigh_lo", linalg)
                want = run_penalty(P, cfg)
            assert got.to_jsonl() == want.to_jsonl(), name
            assert got.notes == want.notes, name
            runs.append(name)
        assert runs[7].startswith("ladder") and len(runs) == 21
        assert runs[-1].startswith("degenerate11")

    def test_bench_solves_make_one_eigensolve_per_evaluation(self,
                                                             monkeypatch):
        # every point the 13-level solves of the 21 benchmark instances
        # evaluate gets one LAPACK eigensolve: the penalty reads its raw
        # pairs, and the level records their sorted form, with no second
        # call
        lapack, at = symmat._eigh_lo, NsdpProblem.at
        calls = {"eigh": 0, "at": 0}

        def counted_eigh(a, signature):
            calls["eigh"] += 1
            return lapack(a, signature=signature)

        def counted_at(P, x):
            calls["at"] += 1
            return at(P, x)

        monkeypatch.setattr(symmat, "_eigh_lo", counted_eigh)
        monkeypatch.setattr(NsdpProblem, "at", counted_at)
        total = 0
        for name, obj, point in islice(survey_instances(), 21):
            P = NsdpProblem.from_json(obj)
            calls.update(eigh=0, at=0)
            run_penalty(P, PenaltyConfig(anchor=point, outer_iters=13))
            assert calls["eigh"] == calls["at"] >= 1, name
            total += calls["at"]
        assert total > 700

    @pytest.mark.parametrize("obj", [
        LADDER_PROBLEM, json.loads(DEGENERATE00_PROBLEM),
    ], ids=["ladder_n6_m4_k2", "degenerate00"])
    def test_level_records_read_the_eigh_of_their_point(self, obj):
        # a level record sorts LAPACK's pairs when first read, into the
        # bytes and flags symmat.eigh gives G at the record's point
        P = NsdpProblem.from_json(obj)
        trace = run_penalty(P, PenaltyConfig(anchor=np.zeros(P.n),
                                             outer_iters=13))
        assert len(trace.iterates) == 13
        for rec in trace.iterates:
            want = eigh(P.constraint_value(rec.x))
            for got, ref in ((rec.eigenvalues, want.values),
                             (rec.eigenvectors, want.vectors)):
                assert got.tobytes() == ref.tobytes(), rec.k
                assert got.strides == ref.strides and not got.flags.writeable

    def test_unread_level_records_sort_nothing(self, monkeypatch):
        # every spectral_order call is counted: a run makes only its
        # feasibility gate's, and reading the records makes one each
        order, calls = symmat.spectral_order, []

        def counted(w, u):
            calls.append(w.size)
            return order(w, u)

        for module in (symmat, model, penalty):
            monkeypatch.setattr(module, "spectral_order", counted)
        P = NsdpProblem.from_json(LADDER_PROBLEM)
        cfg = PenaltyConfig(anchor=np.zeros(P.n), outer_iters=13)
        feasibility_data(P, cfg.anchor)
        gate = len(calls)           # the anchor's spectrum, sorted once
        calls.clear()
        trace = run_penalty(P, cfg)
        assert len(calls) == gate
        text = trace.to_jsonl()
        assert len(calls) == gate + 13
        assert trace.to_jsonl() == text and len(calls) == gate + 13

    @pytest.mark.parametrize("healthy", [0, 1, 40])
    def test_lapack_failure_ends_the_solve(self, monkeypatch, healthy):
        # the gufunc reports a failure by NaN outputs and the invalid
        # flag; at the feasibility gate (no healthy call), at the first
        # trial or deep in a level, the solve ends with NumericalFailure
        lapack = symmat._eigh_lo
        calls = []

        def failing(a, signature):
            calls.append(a.shape)
            if len(calls) <= healthy:
                return lapack(a, signature=signature)
            np.sqrt(-1.0)              # sets the invalid flag, as LAPACK does
            return np.full(a.shape[-1], np.nan), np.full(a.shape, np.nan)

        monkeypatch.setattr(symmat, "_eigh_lo", failing)
        P = NsdpProblem.from_json(json.loads(DEGENERATE00_PROBLEM))
        with pytest.raises(NumericalFailure, match="did not converge"):
            run_penalty(P, PenaltyConfig(anchor=np.zeros(P.n),
                                         outer_iters=13))
        assert len(calls) == healthy + 1

    def test_diag3_closed_form(self):
        P = diag3_problem()
        cfg = PenaltyConfig(anchor=np.zeros(3))
        trace = run_penalty(P, cfg)
        assert len(trace.iterates) == cfg.outer_iters
        for rec in trace.iterates:
            closed = -1.0 / (1.0 + rec.rho)
            assert np.allclose(rec.x, closed, atol=1e-6)
            target = rec.rho / (1.0 + rec.rho) * np.eye(3)
            assert np.allclose(rec.multiplier.a, target, atol=1e-5)
            assert rec.stationarity_residual <= inner_tolerance(cfg, rec.rho)
        assert np.max(np.abs(trace.iterates[-1].multiplier.a - np.eye(3))) \
            <= 1e-8
        assert not trace.divergence_suspected

    def test_multiplier_identity_and_recovery(self):
        for P, anchor in [(diag3_problem(), np.zeros(3)),
                          (facial_problem(), np.array([1.0, 0.0]))]:
            cfg = PenaltyConfig(anchor=anchor, outer_iters=8)
            trace = run_penalty(P, cfg)
            for rec in trace.iterates:
                G = P.constraint_value(rec.x)
                # defining identity, exact up to the eigensolver
                Y = rec.rho * proj_psd(-G.a).a
                assert np.allclose(rec.multiplier.a, Y, atol=1e-10)
                # eigenvalue recovery: alpha_i = max(rho * lambda_i(-G), 0)
                spec = eigh(G)
                alpha = np.clip(-rec.rho * spec.values, 0.0, None)
                rebuilt = (spec.vectors * alpha) @ spec.vectors.T
                assert np.max(np.abs(rebuilt - rec.multiplier.a)) <= 1e-8
                # PSD and complementary with the positive part
                yvals = eigh(rec.multiplier).values
                assert yvals.min(initial=0.0) >= -1e-12
                pos = proj_psd(G)
                comp = float(np.sum(rec.multiplier.a * pos.a))
                assert abs(comp) <= 1e-8 * (1.0 + rec.multiplier_norm)

    def test_rank_zero_anchor_converges_at_every_level(self):
        P = NsdpProblem.from_json(RANK0_PROBLEM)
        trace = run_penalty(P, PenaltyConfig(anchor=np.zeros(P.n),
                                             outer_iters=13))
        assert trace.iterates[-1].rho == pytest.approx(1e12)
        assert all(rec.inner_converged for rec in trace.iterates)
        assert trace.notes == []

    def test_stiff_levels_converge_on_ladder_instance(self):
        P = NsdpProblem.from_json(LADDER_PROBLEM)
        trace = run_penalty(P, PenaltyConfig(anchor=np.zeros(P.n),
                                             outer_iters=13))
        assert trace.iterates[-1].rho == pytest.approx(1e12)
        assert all(rec.inner_converged for rec in trace.iterates)
        assert trace.notes == []

    def test_ladder_solve_takes_few_newton_iterations(self):
        # 13 levels, rho 1 .. 1e12; the earlier L-BFGS solve took 411
        P = NsdpProblem.from_json(LADDER_PROBLEM)
        trace = run_penalty(P, PenaltyConfig(anchor=np.zeros(P.n),
                                             outer_iters=13))
        assert all(rec.inner_converged for rec in trace.iterates)
        assert sum(rec.inner_iterations for rec in trace.iterates) <= 150

    def test_stiff_levels_converge_on_draw227(self):
        P = NsdpProblem.from_json(json.loads(DRAW227_PROBLEM))
        trace = run_penalty(P, PenaltyConfig(anchor=np.zeros(P.n),
                                             outer_iters=13))
        assert [rec.inner_converged for rec in trace.iterates] == [True] * 13
        assert trace.notes == []

    def test_certified_robinson_not_flagged_on_draw237(self):
        P = NsdpProblem.from_json(json.loads(DRAW237_PROBLEM))
        x = np.zeros(P.n)
        assert check_robinson(feasibility_data(P, x)).status \
            is CqStatus.HOLDS_CERTIFIED
        trace = run_penalty(P, PenaltyConfig(anchor=x, outer_iters=13))
        assert all(rec.inner_converged for rec in trace.iterates)
        assert not trace.divergence_suspected
        assert trace.notes == []

    def test_unconverged_levels_say_how_they_stopped(self, monkeypatch):
        # one Newton step solves a diag3 level; on facial it does not
        P = facial_problem()
        with monkeypatch.context() as patch:
            patch.setattr(penalty, "INNER_MAX_ITERS", 1)
            budget = run_penalty(P, PenaltyConfig(anchor=np.zeros(2),
                                                  rho0=10.0, outer_iters=2))
        assert [rec.inner_iterations for rec in budget.iterates] == [1, 1]
        assert not any(rec.inner_converged for rec in budget.iterates)
        assert budget.notes == [
            f"inner solve at rho={rec.rho:.1e} spent its 1-iteration budget "
            f"at gradient norm {rec.stationarity_residual:.2e}"
            for rec in budget.iterates]
        P = scalar2_problem()
        stalled = run_penalty(P, PenaltyConfig(anchor=np.zeros(P.n),
                                               outer_iters=1,
                                               inner_tol=1e-300))
        rec = stalled.iterates[0]
        assert not rec.inner_converged
        assert 0 < rec.inner_iterations < 400
        assert stalled.notes == [
            f"inner solve at rho=1.0e+00 stalled after "
            f"{rec.inner_iterations} iterations (line search found no step) "
            f"at gradient norm {rec.stationarity_residual:.2e}"]

    def test_no_level_converges_after_a_stall(self):
        # f = -x^5 - x, G = [[x^4]] at 0 is unbounded below: level 0
        # stalls at gradient norm 1.3e154, where every later level's
        # gradient floor exceeds the gradient, so each stops after 0
        # iterations at the same point.  None of them counts as converged
        P = NsdpProblem(1, Poly(1, [(-1.0, (5,)), (-1.0, (1,))]),
                        MatrixPoly(1, 1, {(0, 0): Poly(1, [(1.0, (4,))])}),
                        name="quintic")
        trace = run_penalty(P, PenaltyConfig(anchor=np.zeros(1)))
        first, *later = trace.iterates
        assert len(later) == 11
        assert inner_stop(first.inner_converged,
                          first.inner_iterations) == "stalled"
        assert first.stationarity_residual > 1e150
        assert not any(rec.inner_converged for rec in trace.iterates)
        for rec in later:
            assert rec.inner_iterations == 0
            assert np.array_equal(rec.x, first.x)
        # only the stall itself is noted, and no divergence is flagged
        assert trace.notes == [
            f"inner solve at rho=1.0e+00 stalled after "
            f"{first.inner_iterations} iterations (line search found no "
            f"step) at gradient norm {first.stationarity_residual:.2e}"]
        assert not trace.divergence_suspected

    def test_facial_divergence_flag(self):
        P = facial_problem()
        trace = run_penalty(P, PenaltyConfig(anchor=np.array([1.0, 0.0])))
        norms = [rec.multiplier_norm for rec in trace.iterates]
        assert norms[-1] >= 2.0 * norms[-4]
        assert trace.divergence_suspected
        assert any("divergence" in note for note in trace.notes)

    def test_rounding_growth_not_flagged(self):
        for text in (DRAW26_PROBLEM, DRAW53_PROBLEM):
            P = NsdpProblem.from_json(json.loads(text))
            trace = run_penalty(P, PenaltyConfig(anchor=np.zeros(P.n),
                                                 outer_iters=13))
            last = trace.iterates[-1]
            assert last.inner_converged
            assert last.multiplier_norm <= (
                last.rho * np.finfo(float).eps
                * np.max(np.abs(last.eigenvalues)) * np.sqrt(P.m))
            assert not trace.divergence_suspected, P.name
            assert trace.notes == []

    def test_unresolvable_multiplier_not_flagged(self):
        # on draw 26 ||Y||_F = rho * 3.3e-15 at every level, above the
        # rounding floor at 4 to 10 levels, but DG*[Y] stays below the
        # level's gradient tolerance, so the growth is not a multiplier
        P = NsdpProblem.from_json(json.loads(DRAW26_PROBLEM))
        for levels in range(4, 11):
            trace = run_penalty(P, PenaltyConfig(anchor=np.zeros(P.n),
                                                 outer_iters=levels))
            assert not trace.divergence_suspected, levels
            assert trace.notes == []

    def test_diag3_solve_makes_few_value_evaluations(self, monkeypatch):
        # each level's first step is scaled to the penalty curvature and
        # a rejected trial interpolates, so the 13 levels take about one
        # value trial per iteration, not log2(rho) halvings; the count
        # also holds each level's value at its warm start
        value_calls = []

        def counted(anchor, rho, x, ev):
            value_calls.append(rho)
            return _penalty_value(anchor, rho, x, ev)

        monkeypatch.setattr(penalty, "_penalty_value", counted)
        trace = run_penalty(diag3_problem(),
                            PenaltyConfig(anchor=np.zeros(3), outer_iters=13))
        assert all(rec.inner_converged for rec in trace.iterates)
        assert len(value_calls) <= 60

    def test_diag3_solve_decomposes_only_its_trials(self, monkeypatch):
        # every eigh of a run but the feasibility gate's is one
        # line-search trial: the first level starts from the gate's
        # evaluation of the anchor and each later level from the
        # evaluation of the point it starts at, where evaluating each
        # warm start again would cost 13 more.  Every value but the 13
        # levels' values at their warm starts is a trial, and an
        # accepted trial's gradient reuses its value
        calls, values = [], []
        lapack = symmat._eigh_lo

        def counted_eigh(a, signature):
            calls.append(np.shape(a))
            return lapack(a, signature=signature)

        def counted_value(anchor, rho, x, ev):
            values.append(rho)
            return _penalty_value(anchor, rho, x, ev)

        monkeypatch.setattr(symmat, "_eigh_lo", counted_eigh)
        monkeypatch.setattr(penalty, "_penalty_value", counted_value)
        trace = run_penalty(diag3_problem(),
                            PenaltyConfig(anchor=np.zeros(3), outer_iters=13))
        assert all(rec.inner_converged for rec in trace.iterates)
        assert sum(rec.inner_iterations for rec in trace.iterates) == 13
        assert calls == [(3, 3)] * 15
        assert len(values) == 14 + 13

    def test_anchor_is_evaluated_once(self, monkeypatch):
        # the feasibility gate's evaluation of the anchor is the first
        # level's warm start; evaluating the anchor again for the first
        # level would build a second one
        anchor = np.zeros(3)
        points = []
        init = model.Evaluation.__init__

        def counted_init(self, problem, x):
            points.append(np.array(x, dtype=float))
            init(self, problem, x)

        monkeypatch.setattr(model.Evaluation, "__init__", counted_init)
        trace = run_penalty(diag3_problem(),
                            PenaltyConfig(anchor=anchor, outer_iters=13))
        assert all(rec.inner_converged for rec in trace.iterates)
        assert sum(np.array_equal(x, anchor) for x in points) == 1
        assert not any(np.array_equal(x, anchor) for x in points[1:])

    def test_bounded_multipliers_not_flagged(self):
        trace = run_penalty(diag3_problem(), PenaltyConfig(anchor=np.zeros(3)))
        assert not trace.divergence_suspected

    def test_interior_stays_at_anchor(self):
        P = interior_problem()
        trace = run_penalty(P, PenaltyConfig(anchor=np.zeros(2)))
        for rec in trace.iterates:
            assert np.allclose(rec.x, 0.0, atol=1e-10)
            assert rec.multiplier_norm == 0.0

    def test_infeasible_anchor_rejected(self):
        with pytest.raises(InfeasiblePointError):
            run_penalty(diag3_problem(),
                        PenaltyConfig(anchor=np.array([-1.0, 0.0, 0.0])))

    def test_jsonl_round_trip(self):
        P = diag3_problem()
        cfg = PenaltyConfig(anchor=np.zeros(3), outer_iters=4)
        trace = run_penalty(P, cfg)
        lines = trace.to_jsonl().splitlines()
        assert len(lines) == 4
        want = {"k", "rho", "x", "multiplier", "eigenvalues", "eigenvectors",
                "stationarity_residual", "multiplier_norm"}
        for k, line in enumerate(lines):
            rec = json.loads(line)
            assert set(rec.keys()) == want
            assert rec["k"] == k
            M = np.array(rec["multiplier"])
            assert np.allclose(M, M.T)
            assert np.allclose(M, trace.iterates[k].multiplier.a)


def levels_one_at_a_time(P, cfg):
    """run_penalty's levels, each solved by inner_minimize from its warm
    start alone, with no evaluation carried in."""
    x, rho, out = cfg.anchor.copy(), cfg.rho0, []
    for _ in range(cfg.outer_iters):
        res = inner_minimize(P, cfg, rho, x)
        out.append(res)
        x, rho = res.x, rho * cfg.rho_mult
    return out


class TestLevelCarry:
    """Carrying a point's evaluation into the next level, and the
    feasibility gate's evaluation of the anchor into the first, changes
    no bit of the run."""

    @pytest.mark.parametrize("P, anchor", [
        (diag3_problem(), [0.0, 0.0, 0.0]),
        (facial_problem(), [1.0, 0.0]),
        (NsdpProblem.from_json(json.loads(DEGENERATE00_PROBLEM)), [0.0] * 4),
    ], ids=["diag3", "facial", "degenerate00"])
    def test_carried_levels_equal_fresh_levels(self, P, anchor):
        cfg = PenaltyConfig(anchor=anchor, outer_iters=13)
        trace = run_penalty(P, cfg)
        fresh = levels_one_at_a_time(P, cfg)
        assert len(trace.iterates) == len(fresh) == 13
        for rec, res in zip(trace.iterates, fresh):
            assert np.array_equal(rec.x, res.x)
            assert np.array_equal(rec.multiplier.a, res.multiplier.a)
            assert np.array_equal(rec.eigenvalues, res.ev.spectrum().values)
            assert np.array_equal(rec.eigenvectors,
                                  res.ev.spectrum().vectors)
            assert rec.stationarity_residual == res.grad_norm
            assert (rec.inner_converged, rec.inner_iterations) \
                == (res.converged, res.iterations)

    def test_carried_evaluation_belongs_to_the_result_point(self):
        P = NsdpProblem.from_json(json.loads(DEGENERATE00_PROBLEM))
        cfg = PenaltyConfig(anchor=np.zeros(4))
        res = inner_minimize(P, cfg, 1e3, np.zeros(4))
        ev = res.ev
        spec = ev.spectrum()
        assert np.array_equal(ev.powers, P.at(res.x).powers)
        assert ev.objective_value() == P.objective_value(res.x)
        assert np.array_equal(ev.equality_values(),
                              P.equality_values(res.x))
        again = eigh(P.constraint_value(res.x))
        assert np.array_equal(spec.values, again.values)
        assert np.array_equal(spec.vectors, again.vectors)


def penalty_calls(monkeypatch, name):
    """Replace penalty.name by a wrapper that records each call's
    keyword arguments."""
    calls = []
    orig = getattr(penalty, name)

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return orig(*args, **kwargs)

    monkeypatch.setattr(penalty, name, recorded)
    return calls


class TestTraceFamily:
    def test_count_and_composition(self):
        P = diag3_problem()
        traces = default_trace_family(P, PenaltyConfig(anchor=np.zeros(3)), 8)
        assert len(traces) == 8
        ids = [t.trace_id for t in traces]
        assert len(set(ids)) == 8
        assert ids[0] == "penalty"
        for t in traces:
            assert np.linalg.norm(t.converged_point - 0.0) <= 1e-6

    def test_slow_penalty_trace_dropped(self):
        # the degenerate problem converges like rho^(-1/3), far slower
        # than the proximity gate, so only synthetic paths remain
        P = facial_problem()
        cfg = PenaltyConfig(anchor=np.array([1.0, 0.0]))
        traces = default_trace_family(P, cfg, 8)
        assert len(traces) == 8
        assert all(t.kind == "path" for t in traces)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            default_trace_family(diag3_problem(),
                                 PenaltyConfig(anchor=np.zeros(3)), 0)

    def test_negative_seed_refused_before_any_build(self, monkeypatch):
        # refused before the penalty solve, not where the random
        # directions are drawn
        runs = penalty_calls(monkeypatch, "run_penalty")
        with pytest.raises(ValueError, match="seed"):
            default_trace_family(facial_problem(),
                                 PenaltyConfig(anchor=np.zeros(2)), seed=-1)
        assert runs == []

    @pytest.mark.parametrize("name", ["diag3", "facial", "degenerate00"])
    def test_paths_built_on_access_equal_eager_family(self, monkeypatch,
                                                      name):
        P, x = {"diag3": (diag3_problem(), [0.0] * 3),
                "facial": (facial_problem(), [1.0, 0.0]),
                "degenerate00": (NsdpProblem.from_json(
                    json.loads(DEGENERATE00_PROBLEM)), [0.0] * 4)}[name]
        cfg = PenaltyConfig(anchor=np.asarray(x))
        want = trace_family_eager(P, cfg, 10, seed=3)
        paths = penalty_calls(monkeypatch, "make_path_trace")
        family = default_trace_family(P, cfg, 10, seed=3)
        assert paths == [] and len(family) == 10
        last = family[-1]
        assert family[9] is last and len(paths) == 1
        got = list(family)
        assert len(paths) == sum(t.kind == "path" for t in want)
        assert [family[2], family[3]] == got[2:4]
        assert [(t.trace_id, t.kind, t.to_jsonl()) for t in got] \
            == [(t.trace_id, t.kind, t.to_jsonl()) for t in want]
        with pytest.raises(IndexError):
            family[10]


class TestProbesStopAtFirstRefutation:
    """A probe stops at its first refuting trace, and the family builds
    only the path traces a probe reaches; every report stays what the
    eager family with the full scan gives."""

    @pytest.mark.parametrize("name, paths_built, refuting", [
        # the penalty trace is dropped, and axis0 refutes both
        ("facial", ["axis0"], "axis0"),
        # the kept penalty trace refutes both
        ("degenerate06", [], "penalty"),
    ])
    def test_analysis_builds_only_the_paths_probes_reach(
            self, monkeypatch, name, paths_built, refuting):
        P, x = {"facial": (facial_problem(), [0.0, 0.0]),
                "degenerate06": (NsdpProblem.from_json(
                    json.loads(DEGENERATE06_PROBLEM)), [0.0] * 3)}[name]
        paths = penalty_calls(monkeypatch, "make_path_trace")
        lps = penalty_calls(monkeypatch, "pli_test")
        rep = analyze_problem(P, x)
        assert [kw["trace_id"] for kw in paths] == paths_built
        assert len(lps) == 1
        for probe in ("weak_ndg_probe", "weak_robinson_probe"):
            v = rep.verdicts[probe]
            assert v.status is CqStatus.FAILS
            assert v.witness["trace"] == refuting
        pd = feasibility_data(P, x)
        results, _ = probe_weak_ndg(pd, family_for(P, x))
        assert [r.trace_id for r in results] == [refuting]

    def test_reports_equal_eager_full_scan_analysis(self, monkeypatch):
        # the corpus, the 14 bench instances and the first 100 survey
        # draws, byte for byte; some analyses skip paths
        opts = AnalysisOptions(timestamp=False)
        paths = penalty_calls(monkeypatch, "make_path_trace")
        eager = []

        def family(P, cfg, *args):
            # every trace built, in the family type the report reads
            traces = trace_family_eager(P, cfg, *args)
            eager.extend(t for t in traces if t.kind == "path")
            return TraceFamily(P, cfg.anchor, traces, 0.0)

        for name, obj, point in islice(survey_instances(), 121):
            P = NsdpProblem.from_json(obj)
            got = report_json_text(analyze_problem(P, point, opts))
            with monkeypatch.context() as mp:
                mp.setattr(report, "default_trace_family", family)
                mp.setattr(penalty, "_probe_traces", probe_traces_full_scan)
                want = report_json_text(analyze_problem(P, point, opts))
            assert got == want, name
        assert len(paths) < len(eager)


def family_for(P, anchor, count=8):
    cfg = PenaltyConfig(anchor=np.asarray(anchor, dtype=float))
    return default_trace_family(P, cfg, count)


class TestWeakNdgProbe:
    def test_diag3_holds_sampled(self):
        P = diag3_problem()
        traces = family_for(P, [0.0] * 3)
        results, verdict = probe_weak_ndg(feasibility_data(P, [0.0] * 3),
                                          traces)
        assert verdict.status == CqStatus.HOLDS_SAMPLED
        assert verdict.samples == 8
        G0 = P.constraint_value([0.0] * 3)
        for res in results:
            assert res.passed
            E = res.limit_basis
            assert np.allclose(E.T @ E, np.eye(E.shape[1]), atol=1e-10)
            assert np.max(np.abs(G0.a @ E)) <= 1e-8

    def test_facial_fails_with_exhausted_search(self):
        P = facial_problem()
        traces = family_for(P, [1.0, 0.0])
        results, verdict = probe_weak_ndg(feasibility_data(P, [1.0, 0.0]),
                                          traces)
        assert verdict.status == CqStatus.FAILS
        assert verdict.witness["trace"] in {r.trace_id for r in results}
        failing = next(r for r in results if not r.passed)
        assert failing.exhaustive

    def test_scalar2_dimension_bound(self):
        P = scalar2_problem()
        results, verdict = probe_weak_ndg(feasibility_data(P, [0.0]),
                                          family_for(P, [0.0]))
        assert results == []
        assert verdict.status == CqStatus.FAILS
        assert "dimension" in verdict.reason

    def test_offdiag_needs_rotated_limit(self):
        P = offdiag_problem()
        traces = family_for(P, [0.0, 0.0])
        results, verdict = probe_weak_ndg(feasibility_data(P, [0.0, 0.0]),
                                          traces)
        assert verdict.status == CqStatus.HOLDS_SAMPLED
        # every limit basis carries an independent diagonal family; the
        # generic rays converge with the mixing eigenvectors, which have
        # both components of equal size
        mixing = 0
        for res in results:
            assert res.passed
            E = res.limit_basis
            fam = [entry_gradient(P, np.zeros(2), E[:, i])
                   for i in range(E.shape[1])]
            assert li_test(fam).independent
            if np.allclose(np.abs(E), RT2, atol=1e-6):
                mixing += 1
        assert mixing >= 1

    def test_degenerate_axis_trace_rescued_by_rotation(self):
        # along (t, 0) the constraint is t * I with a fully degenerate
        # kernel cluster; the identity family is dependent and only the
        # cluster rotation finds the mixing basis
        P = offdiag_problem()
        trace = make_path_trace(P, [0.0, 0.0], [1.0, 0.0], trace_id="deg")
        results, verdict = probe_weak_ndg(feasibility_data(P, [0.0, 0.0]),
                                          [trace])
        assert verdict.status == CqStatus.HOLDS_SAMPLED
        assert results[0].passed
        assert not results[0].exhaustive
        assert results[0].sigma_min > 0.1

    def test_block_and_full_problems_hold(self):
        for P, anchor in [(fullmat_problem(), [0.0] * 3),
                          (block2_problem(), [0.0] * 3)]:
            _, verdict = probe_weak_ndg(feasibility_data(P, anchor),
                                        family_for(P, anchor))
            assert verdict.status == CqStatus.HOLDS_SAMPLED

    def test_interior_trivial(self):
        P = interior_problem()
        results, verdict = probe_weak_ndg(feasibility_data(P, [0.0, 0.0]), [])
        assert results == []
        assert verdict.status == CqStatus.HOLDS_CERTIFIED

    def test_mismatched_trace_rejected(self):
        P = offdiag_problem()
        trace = make_path_trace(P, [0.5, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            probe_weak_ndg(feasibility_data(P, [0.0, 0.0]), [trace])

    def test_short_tail_rejected(self, monkeypatch):
        # two records end within 1e-6 of the point, but a sequence needs
        # three usable ones
        P = diag3_problem()
        monkeypatch.setattr(penalty, "PATH_STEPS", 2)
        monkeypatch.setattr(penalty, "PATH_SCALE", 1e-8)
        trace = make_path_trace(P, [0.0] * 3, [1.0, 0.0, 0.0])
        with pytest.raises(NumericalFailure):
            probe_weak_ndg(feasibility_data(P, [0.0] * 3), [trace])

    def test_diag3_axis_limit_basis(self):
        # along (1 + t, 0, 0) the kernel is span(e2, e3) at every record
        P = diag3_problem()
        trace = make_path_trace(P, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        (res,), verdict = probe_weak_ndg(
            feasibility_data(P, [1.0, 0.0, 0.0]), [trace])
        target = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(np.abs(res.limit_basis), target, atol=1e-10)
        assert verdict.status == CqStatus.HOLDS_SAMPLED

    def test_offdiag_rank_one_limit_basis(self):
        P = offdiag_problem()
        trace = make_path_trace(P, [1.0, 1.0], [0.3, -0.9])
        (res,), _ = probe_weak_ndg(feasibility_data(P, [1.0, 1.0]), [trace])
        assert res.limit_basis.shape == (2, 1)
        assert np.allclose(np.abs(res.limit_basis[:, 0]), [RT2, RT2],
                           atol=1e-8)

    def test_defective_limit_takes_the_kernel_basis(self):
        # diag3 along (1 + t, 0, 0): rank 1 and kernel span(e2, e3) at
        # x_bar = (1, 0, 0).  With every record's eigenvectors reordered
        # to (e3, e1, e2), the last usable kernel columns are e1 and e2,
        # and e1 lies in the range of G(x_bar): snapped onto the kernel
        # it vanishes, so the limit is defective and pd.E stands in
        P = diag3_problem()
        x_bar = [1.0, 0.0, 0.0]
        pd = feasibility_data(P, x_bar)
        trace = make_path_trace(P, x_bar, [1.0, 0.0, 0.0])
        for rec in trace.iterates:
            rec.eigenvectors = np.eye(3)[:, [2, 0, 1]]
        res = penalty._probe_trace(pd, trace, 0, 0, positive=False)
        assert np.array_equal(res.limit_basis, pd.E)
        assert res.log == ["sequence limit defective, kernel basis "
                           "substituted"]
        assert res.passed

    def test_limit_basis_keeps_eigenvalue_order(self):
        # the clusters count positions in each record's eigenvalue order,
        # so the limit basis is the last record's kernel eigenvectors in
        # that order; matching columns to the previous record instead
        # moved eigenvector 0 out of the cluster [0, 1] on this path
        P = NsdpProblem.from_json(DRAW57_PROBLEM)
        x = np.zeros(P.n)
        pd = feasibility_data(P, x)
        trace = make_path_trace(P, x, [0.0, 0.0, 1.0, 0.0], trace_id="axis4")
        (res,), _ = probe_weak_ndg(pd, [trace])
        assert res.clusters == [[0, 1], [2], [3]]
        last = trace.iterates[-1].eigenvectors[:, pd.rank:]
        assert np.max(np.abs(res.limit_basis - last)) <= 1e-8


class TestLimitData:
    """The probes' scans over a trace's stacked spectra decide exactly
    as the per-record loops do."""

    def test_scans_match_per_record_loops(self, monkeypatch):
        for P, x_bar in oracle_problems():
            traces = list(family_for(P, x_bar))
            with monkeypatch.context() as mp:
                mp.setattr(penalty, "PATH_STEPS", 4)
                mp.setattr(penalty, "PATH_SCALE", 1e-9)
                traces.append(make_path_trace(P, x_bar, np.ones(P.n)))
            for trace in traces:
                values = np.stack([r.eigenvalues for r in trace.iterates])
                for rank in range(P.m + 1):
                    for tol in (1e-9, 1e-3):
                        want = usable_records_per_record(trace, rank, tol)
                        if len(want) < 3:
                            with pytest.raises(NumericalFailure):
                                penalty._usable_records(values, rank, tol)
                            continue
                        got = penalty._usable_records(values, rank, tol)
                        assert got.tolist() == want
                        records = [trace.iterates[j] for j in want]
                        assert penalty._persistent_clusters(
                            values[got], rank) \
                            == persistent_clusters_per_record(records, rank)


class TestWeakRobinsonProbe:
    def test_diag3_certified_by_diagonal_structure(self):
        P = diag3_problem()
        traces = family_for(P, [0.0] * 3)
        pd = feasibility_data(P, [0.0] * 3)
        verdict = probe_weak_robinson(pd, traces)
        assert verdict.status == CqStatus.HOLDS_CERTIFIED
        # the sequence route, which the diagonal shortcut skips, agrees
        results, _ = _probe_traces(pd, traces, 0, positive=True)
        assert len(results) == 8 and all(r.passed for r in results)

    def test_scalar2_positive_independence(self):
        # both active gradients equal 1, so no convex combination
        # vanishes even though they are linearly dependent
        P = scalar2_problem()
        pd = feasibility_data(P, [0.0])
        traces = family_for(P, [0.0])
        verdict = probe_weak_robinson(pd, traces)
        assert verdict.status == CqStatus.HOLDS_CERTIFIED
        results, _ = _probe_traces(pd, traces, 0, positive=True)
        assert len(results) == 8 and all(r.passed for r in results)

    def test_facial_fails(self):
        P = facial_problem()
        verdict = probe_weak_robinson(feasibility_data(P, [1.0, 0.0]),
                                      family_for(P, [1.0, 0.0]))
        assert verdict.status == CqStatus.FAILS

    def test_clustered_sequence_fails_and_replays(self):
        # G(0) = 0 with n = 2, m = 4: along the failing sequence two
        # eigenvalues stay together, so its limit basis keeps a rotation
        # freedom that no sampled search can exhaust; the cluster sums
        # decide the sequence anyway
        P = NsdpProblem.from_json(json.loads(CLUSTERED_FAIL_PROBLEM))
        report = analyze_problem(P, np.zeros(2),
                                 AnalysisOptions(timestamp=False))
        assert report.verdicts["weak_robinson_probe"].status \
            == CqStatus.FAILS
        obj = json.loads(json.dumps(report.to_json()))
        w = obj["witnesses"]["weak_robinson_probe"]
        assert any(len(cl) > 1 for cl in w["clusters"])
        x = np.asarray(obj["point"])
        E = np.asarray(w["basis"])
        vmat = np.einsum("lab,ai,bi->il", P.constraint_partials(x), E, E)
        sums = np.array([vmat[cl].sum(axis=0) for cl in w["clusters"]])
        alpha = np.asarray(w["alpha"])
        beta = np.asarray(w["free_coeffs"])
        assert sorted(i for cl in w["clusters"] for i in cl) \
            == list(range(E.shape[1]))
        assert np.allclose(E.T @ E, np.eye(E.shape[1]), atol=1e-10)
        assert np.all(alpha >= 0.0)
        assert abs(float(alpha.sum()) - 1.0) <= 1e-12
        resid = alpha @ sums
        if beta.size:
            resid = resid + beta @ P.equality_gradients(x)
        assert float(np.linalg.norm(resid)) <= LI_TOL * max(
            1.0, float(np.max(np.abs(sums))))

    def test_independence_implies_positive_independence(self):
        for P, anchor in [(offdiag_problem(), [0.0, 0.0]),
                          (fullmat_problem(), [0.0] * 3),
                          (block2_problem(), [0.0] * 3)]:
            traces = family_for(P, anchor)
            _, ndg = probe_weak_ndg(feasibility_data(P, anchor), traces)
            rob = probe_weak_robinson(feasibility_data(P, anchor), traces)
            assert ndg.holds
            assert rob.holds

    def test_diagonal_probe_matches_active_gradient_licq(self):
        # on structurally diagonal constraints weak nondegeneracy is
        # plain linear independence of the active diagonal gradients
        cases = [(diag3_problem(), [0.0] * 3),
                 (scalar2_problem(), [0.0]),
                 (diag2_problem(), [1.0, 0.0])]
        for P, anchor in cases:
            anchor = np.asarray(anchor, dtype=float)
            G = P.constraint_value(anchor)
            active = [i for i in range(P.m) if abs(G.a[i, i]) <= 1e-10]
            grads = [entry_gradient(P, anchor, np.eye(P.m)[:, i])
                     for i in active]
            licq = li_test(grads).independent
            _, verdict = probe_weak_ndg(feasibility_data(P, anchor),
                                        family_for(P, anchor))
            assert verdict.holds == licq, P.name
