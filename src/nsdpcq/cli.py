"""Command-line front end.

Commands: analyze (all checkers at a point), solve (penalty method with
a multiplier table), reduce (facial reduction to a smaller constraint),
corpus (list or re-verify the built-in examples).  Problems come from
JSON files or from `corpus:NAME`.  Each subcommand takes only the
flags it reads.  Exit codes: 0 success, 1 corpus mismatch, 2 malformed
problem file or argument (a numeric flag out of range, and a point at
which f, G or h is not finite, included), 3 infeasible point, 4
numerical failure, 141 (128 + SIGPIPE) stdout closed by its reader.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional, Tuple

import numpy as np

from .corpus import entries as corpus_entries, get_entry
from .errors import (
    InfeasiblePointError,
    NsdpcqError,
    NumericalFailure,
    ProblemFormatError,
)
from .model import NsdpProblem, parse_problem_text
from .penalty import PenaltyConfig, inner_stop, run_penalty
from .report import (
    AnalysisOptions,
    analyze_problem,
    report_json_text,
)
from .sparse import facial_reduce
from .symmat import TAU_RANK


def _load_problem(spec: str) -> Tuple[NsdpProblem, Optional[Tuple[float, ...]]]:
    """Load `corpus:NAME` or a JSON file; returns a default point for
    corpus entries."""
    if spec.startswith("corpus:"):
        try:
            entry = get_entry(spec[len("corpus:"):])
        except KeyError as exc:
            raise ProblemFormatError(str(exc)) from exc
        return entry.problem, entry.point
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {spec}: {exc}") from exc
    return parse_problem_text(text), None


def _parse_vector(text: str, n: int, what: str) -> np.ndarray:
    """n comma-separated finite numbers; an empty token is an error."""
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ProblemFormatError(f"cannot parse {what} {text!r}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise ProblemFormatError(f"{what} {text!r} has a non-finite entry")
    if len(vals) != n:
        raise ProblemFormatError(
            f"{what} has {len(vals)} entries, problem has {n} variables")
    return np.array(vals)


def _point_arg(args, P: NsdpProblem, default, what: str = "point"
               ) -> np.ndarray:
    raw = getattr(args, what.replace("-", "_"), None)
    if raw is None:
        if default is None:
            raise ProblemFormatError(
                f"--{what} is required for file-based problems")
        return np.asarray(default, dtype=float)
    x = _parse_vector(raw, P.n, what)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = P.at(x).finite()
    if not finite:
        raise ProblemFormatError(f"f, G or h is not finite at {what} {raw!r}")
    return x


# valid ranges of the numeric flags, keyed by argparse dest; NaN fails
# every comparison and so every check
_RANGES = {
    "tol_rank": (lambda v: 0.0 < v < 1.0, "strictly between 0 and 1"),
    "traces": (lambda v: v >= 1, "at least 1"),
    "outer": (lambda v: v >= 1, "at least 1"),
    "rho0": (lambda v: 0.0 < v < math.inf, "positive and finite"),
    "rho_mult": (lambda v: 1.0 < v < math.inf, "finite and above 1"),
    "inner_tol": (lambda v: 0.0 < v < math.inf, "positive and finite"),
    "seed": (lambda v: v >= 0, "non-negative"),
}


def _check_ranges(args) -> None:
    for dest, (ok, want) in _RANGES.items():
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            raise ProblemFormatError(
                f"--{dest.replace('_', '-')} must be {want}, got {value}")


def _options(args) -> AnalysisOptions:
    return AnalysisOptions(
        tol_rank=args.tol_rank, traces=args.traces, seed=args.seed,
        timestamp=not args.no_timestamp)


def cmd_analyze(args) -> int:
    P, default_point = _load_problem(args.problem)
    x = _point_arg(args, P, default_point)
    report = analyze_problem(P, x, _options(args))
    print(report.render_text())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report_json_text(report))
    return 0


def cmd_solve(args) -> int:
    P, default_point = _load_problem(args.problem)
    anchor = _point_arg(args, P, default_point, "anchor")
    try:
        cfg = PenaltyConfig(anchor=anchor, rho0=args.rho0,
                            rho_mult=args.rho_mult, outer_iters=args.outer,
                            inner_tol=args.inner_tol)
    except ValueError as exc:
        # each flag is in range (_check_ranges), so the schedule overflows
        raise ProblemFormatError(
            f"--rho0, --rho-mult and --outer: {exc}") from None
    trace = run_penalty(P, cfg)
    print(f"penalty run on {P.name}, anchor "
          f"({', '.join(f'{v:g}' for v in anchor)})")
    print(f"  {'k':>3s} {'rho':>10s} {'||Y||_F':>12s} "
          f"{'residual':>12s} {'iters':>5s}  inner")
    for rec in trace.iterates:
        flag = inner_stop(rec.inner_converged, rec.inner_iterations)
        print(f"  {rec.k:>3d} {rec.rho:>10.1e} {rec.multiplier_norm:>12.4e} "
              f"{rec.stationarity_residual:>12.4e} {rec.inner_iterations:>5d}"
              f"  {flag}")
    for note in trace.notes:
        print(f"  ! {note}")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.to_jsonl() + "\n")
    return 0


def cmd_reduce(args) -> int:
    P, default_point = _load_problem(args.problem)
    x = _point_arg(args, P, default_point)
    fr = facial_reduce(P, x, tol_rank=args.tol_rank)
    dims = [P.m]
    for J in fr.J_rounds:
        dims.append(dims[-1] - len(J))
    print(f"facial reduction of {P.name}: {fr.rounds} round(s), "
          f"dimension {' -> '.join(str(d) for d in dims)}")
    for r, J in enumerate(fr.J_rounds):
        print(f"  round {r}: removed {len(J)} direction(s), "
              f"kept {dims[r + 1]}")
    print(f"  emitted equalities: {len(fr.added_equalities)}")
    text = report_problem_json(fr.reduced_problem)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def report_problem_json(P: NsdpProblem) -> str:
    import json
    return json.dumps(P.to_json(), sort_keys=True, indent=2) + "\n"


def cmd_corpus_list(args) -> int:
    for e in corpus_entries():
        print(f"{e.id:<9s} m={e.problem.m} n={e.problem.n} "
              f"point=({', '.join(f'{v:g}' for v in e.point)})")
        print(f"          {e.source}")
    return 0


def cmd_corpus_run(args) -> int:
    selected = corpus_entries()
    if args.only:
        selected = [e for e in selected if e.id == args.only]
        if not selected:
            raise ProblemFormatError(f"no corpus entry named {args.only!r}")
    opts = _options(args)
    failures = 0
    for e in selected:
        report = analyze_problem(e.problem, e.point, opts)
        mismatches = []
        for name, want in e.expected.items():
            got = report.verdicts[name].status
            if got != want:
                mismatches.append(f"{name}: expected {want.value}, "
                                  f"got {got.value}")
        if mismatches:
            failures += 1
            print(f"{e.id}: MISMATCH")
            for mm in mismatches:
                print(f"    {mm}")
        else:
            verdicts = " ".join(
                f"{name}={report.verdicts[name].status.value}"
                for name in e.expected)
            print(f"{e.id}: ok  {verdicts}")
    print(f"{len(selected) - failures}/{len(selected)} entries match")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsdpcq",
        description="constraint qualification analysis for nonlinear "
                    "semidefinite programs")
    sub = parser.add_subparsers(dest="command", required=True)

    rank = argparse.ArgumentParser(add_help=False)
    rank.add_argument("--tol-rank", type=float, default=TAU_RANK,
                      help="relative eigenvalue threshold for rank "
                           "decisions, strictly between 0 and 1 "
                           "(default 1e-8)")
    analysis = argparse.ArgumentParser(add_help=False, parents=[rank])
    analysis.add_argument("--traces", type=int, default=8,
                          help="sequences per weak-condition probe")
    analysis.add_argument("--seed", type=int, default=0,
                          help="seed of the weak probes' random trace "
                               "directions and of the one cluster "
                               "rotation the nondegeneracy probe draws "
                               "per sequence; every other checker is "
                               "deterministic")
    analysis.add_argument("--no-timestamp", action="store_true",
                          help="omit timestamp and timing from reports, "
                               "for byte-stable output")

    pa = sub.add_parser("analyze", parents=[analysis],
                        help="run every checker at a feasible point")
    pa.add_argument("problem", help="problem file or corpus:NAME")
    pa.add_argument("--point", help="comma-separated coordinates")
    pa.add_argument("--json", help="write the report JSON here")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("solve", help="run the external penalty method")
    ps.add_argument("problem", help="problem file or corpus:NAME")
    ps.add_argument("--anchor", help="comma-separated anchor point")
    ps.add_argument("--rho0", type=float, default=1.0)
    ps.add_argument("--rho-mult", type=float, default=10.0)
    ps.add_argument("--outer", type=int, default=12)
    ps.add_argument("--inner-tol", type=float, default=1e-8)
    ps.add_argument("--trace", help="write JSON-lines trace here")
    ps.set_defaults(func=cmd_solve)

    pr = sub.add_parser("reduce", parents=[rank],
                        help="facially reduce the constraint at a point")
    pr.add_argument("problem", help="problem file or corpus:NAME")
    pr.add_argument("--point", help="comma-separated coordinates")
    pr.add_argument("--output", help="write the reduced problem here")
    pr.set_defaults(func=cmd_reduce)

    pc = sub.add_parser("corpus",
                        help="list or re-verify the built-in examples")
    actions = pc.add_subparsers(dest="action", required=True)
    actions.add_parser("list", help="list the built-in examples"
                       ).set_defaults(func=cmd_corpus_list)
    run = actions.add_parser("run", parents=[analysis],
                             help="re-verify every pinned verdict")
    run.add_argument("--only", help="restrict run to one entry")
    run.set_defaults(func=cmd_corpus_run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ranges(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away: exit as a SIGPIPE kill would,
        # with stdout on devnull so the flush at shutdown stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ProblemFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasiblePointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.eigenvalues is not None:
            vals = ", ".join(f"{v:.6g}" for v in exc.eigenvalues)
            print(f"eigenvalues of G at the point: [{vals}]",
                  file=sys.stderr)
        return 3
    except (NumericalFailure, NsdpcqError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
