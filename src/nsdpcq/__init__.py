"""Constraint qualification analysis for nonlinear semidefinite programs.

Problems are polynomial matrix constraints G(x) >= 0 (PSD order) with a
polynomial objective and optional equality constraints.  The package
checks, at a feasible point, the classical conditions (nondegeneracy,
Robinson, Forsgren) together with their sequence-based weak forms and a
sparsity-aware variant, runs an external penalty method whose multiplier
trajectory witnesses degeneracy, and performs facial reduction as a
repair step.  The `nsdpcq` command line exposes all of it.
"""

from .errors import (
    InfeasiblePointError,
    NsdpcqError,
    NumericalFailure,
    ProblemFormatError,
)
from .symmat import (
    Spectral,
    SymMat,
    eigh,
)
from .model import (
    MatrixPoly,
    NsdpProblem,
    Poly,
    parse_problem_text,
    structurally_diagonal,
)
from .cqcheck import (
    CqStatus,
    CqVerdict,
    PointData,
    check_nondegeneracy,
    check_robinson,
    feasibility_data,
    li_test,
    pli_test,
)
from .sparse import (
    check_forsgren,
    check_sparse_ndg,
    facial_reduce,
    tilde_map,
)
from .penalty import (
    PenaltyConfig,
    PenaltyTrace,
    default_trace_family,
    make_path_trace,
    probe_weak_ndg,
    probe_weak_robinson,
    run_penalty,
)
from .report import AnalysisOptions, AnalysisReport, analyze_problem
from .corpus import entries as corpus_entries
from .corpus import get_entry as corpus_entry

__version__ = "0.1.0"

__all__ = [
    "AnalysisOptions",
    "AnalysisReport",
    "CqStatus",
    "CqVerdict",
    "InfeasiblePointError",
    "MatrixPoly",
    "NsdpProblem",
    "NsdpcqError",
    "NumericalFailure",
    "PenaltyConfig",
    "PenaltyTrace",
    "PointData",
    "Poly",
    "ProblemFormatError",
    "Spectral",
    "SymMat",
    "analyze_problem",
    "check_forsgren",
    "check_nondegeneracy",
    "check_robinson",
    "check_sparse_ndg",
    "corpus_entries",
    "corpus_entry",
    "default_trace_family",
    "eigh",
    "facial_reduce",
    "feasibility_data",
    "li_test",
    "make_path_trace",
    "parse_problem_text",
    "pli_test",
    "probe_weak_ndg",
    "probe_weak_robinson",
    "run_penalty",
    "structurally_diagonal",
    "tilde_map",
    "__version__",
]
