"""Command-line behavior: exit codes, determinism, file round trips."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nsdpcq.cli as cli
from nsdpcq import penalty
from nsdpcq.corpus import entries as corpus_entries
from nsdpcq.errors import NumericalFailure
from nsdpcq.model import parse_problem_text
from nsdpcq.report import AnalysisOptions, analyze_problem


class TestCorpusCommands:
    def test_list_prints_every_entry(self, capsys):
        assert cli.main(["corpus", "list"]) == 0
        out = capsys.readouterr().out
        assert sum(1 for line in out.splitlines() if " m=" in line) >= 6
        for e in corpus_entries():
            assert e.id in out

    def test_run_single_entry(self, capsys):
        assert cli.main(["corpus", "run", "--only", "diag3",
                         "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert "diag3: ok" in out
        assert "1/1 entries match" in out

    def test_run_every_entry(self, capsys):
        assert cli.main(["corpus", "run", "--no-timestamp"]) == 0
        assert "7/7 entries match" in capsys.readouterr().out

    def test_run_unknown_entry(self, capsys):
        assert cli.main(["corpus", "run", "--only", "nope"]) == 2

    def test_mismatch_gives_exit_one(self, capsys, monkeypatch):
        from dataclasses import replace
        from nsdpcq.cqcheck import CqStatus

        entry = next(e for e in corpus_entries() if e.id == "interior")
        wrong = dict(entry.expected)
        wrong["robinson"] = CqStatus.FAILS
        monkeypatch.setattr(cli, "corpus_entries",
                            lambda: [replace(entry, expected=wrong)])
        assert cli.main(["corpus", "run", "--no-timestamp"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out
        assert "robinson: expected Fails, got HoldsCertified" in out


class TestAnalyze:
    def test_json_report_is_byte_stable(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert cli.main(["analyze", "corpus:offdiag", "--json", str(p),
                             "--no-timestamp"]) == 0
        capsys.readouterr()
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1]
        obj = json.loads(blobs[0])
        assert set(obj.keys()) == {"problem", "point", "rank", "eigenvalues",
                                   "verdicts", "witnesses", "seed", "timing",
                                   "notes"}
        assert obj["timing"] is None
        assert obj["notes"] == []
        assert obj["rank"] == 0
        assert set(obj["verdicts"].keys()) == {
            "nondegeneracy", "robinson", "sparse_ndg", "forsgren",
            "weak_ndg_probe", "weak_robinson_probe"}

    def test_timestamped_report_has_timing(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        assert cli.main(["analyze", "corpus:interior", "--json",
                         str(p)]) == 0
        capsys.readouterr()
        obj = json.loads(p.read_text())
        assert "timestamp" in obj
        assert set(obj["timing"].keys()) >= {"nondegeneracy", "robinson",
                                             "traces"}

    def test_certified_upstream_implies_both_probes(self, capsys):
        assert cli.main(["analyze", "corpus:fullmat", "--no-timestamp"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for probe, upstream in (("weak_ndg_probe", "nondegeneracy"),
                                ("weak_robinson_probe", "robinson")):
            line = next(ln for ln in lines if ln.split()[0] == probe)
            assert "HoldsCertified" in line
            assert f"(implied by {upstream}: " in line

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "constraint": [')
        assert cli.main(["analyze", str(bad), "--point", "0,0"]) == 2
        err = capsys.readouterr().err
        assert "byte offset" in err

    def test_unknown_corpus_name_exit_two(self, capsys):
        assert cli.main(["analyze", "corpus:missing"]) == 2

    def test_missing_point_exit_two(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(corpus_entries()[0].problem.to_json()))
        assert cli.main(["analyze", str(f)]) == 2

    def test_infeasible_point_exit_three(self, capsys):
        assert cli.main(["analyze", "corpus:diag3",
                         "--point=-1,0,0"]) == 3
        err = capsys.readouterr().err
        assert "eigenvalues" in err
        assert "-1" in err

    def test_violated_equality_exit_three(self, tmp_path, capsys):
        # f = x1, G = [x1], h = x2 - 1: (0, 0) has G PSD but h = -1, so
        # neither analyze nor solve may start there
        f = tmp_path / "eq.json"
        f.write_text(json.dumps({
            "name": "eqgap", "n": 2, "m": 1,
            "objective": [{"c": 1.0, "e": [1, 0]}],
            "constraint": [{"i": 0, "j": 0, "poly": [{"c": 1.0, "e": [1, 0]}]}],
            "equalities": [[{"c": 1.0, "e": [0, 1]}, {"c": -1.0, "e": [0, 0]}]],
        }))
        for argv in (["analyze", str(f), "--point", "0,0"],
                     ["solve", str(f), "--anchor", "0,0"]):
            assert cli.main(argv) == 3
            err = capsys.readouterr().err
            assert "max |h_i(x)| is 1.000000e+00" in err
        assert cli.main(["analyze", str(f), "--point", "0,1"]) == 0

    def test_schema_violation_exit_two(self, tmp_path, capsys):
        # blocks that do not add up to m are a usage error
        f = tmp_path / "blocks.json"
        f.write_text(json.dumps({
            "name": "badblocks", "n": 1, "m": 2, "blocks": [1, 2],
            "objective": [{"c": 1.0, "e": [1]}],
            "constraint": [{"i": 0, "j": 0, "poly": [{"c": 1.0, "e": [1]}]}],
        }))
        assert cli.main(["analyze", str(f), "--point", "0"]) == 2
        assert "do not partition dimension 2" in capsys.readouterr().err

    def test_unwritable_json_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert cli.main(["analyze", "corpus:diag3", "--json", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}")

    def test_numeric_failure_exit_four(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise NumericalFailure("forced failure")
        monkeypatch.setattr(cli, "analyze_problem", boom)
        assert cli.main(["analyze", "corpus:diag3"]) == 4
        assert "forced failure" in capsys.readouterr().err


class TestArgumentRanges:
    @pytest.mark.parametrize("argv, flag", [
        # NaN read G(0) = 0 as rank 3 and certified all six conditions
        (["analyze", "corpus:diag3", "--tol-rank", "nan"], "--tol-rank"),
        # 2 read G(0) = I as rank 0 and failed Robinson
        (["analyze", "corpus:interior", "--tol-rank", "2"], "--tol-rank"),
        # -1 called the point infeasible
        (["analyze", "corpus:diag3", "--tol-rank", "-1"], "--tol-rank"),
        (["reduce", "corpus:facial", "--tol-rank", "nan"], "--tol-rank"),
        (["corpus", "run", "--only", "diag3", "--tol-rank", "0"],
         "--tol-rank"),
        (["analyze", "corpus:diag3", "--traces", "0"], "--traces"),
        (["solve", "corpus:diag3", "--outer", "0"], "--outer"),
        (["solve", "corpus:diag3", "--rho0", "0"], "--rho0"),
        (["solve", "corpus:diag3", "--rho-mult", "1"], "--rho-mult"),
        # -1 reached default_rng and exited 1 with a traceback
        (["analyze", "corpus:facial", "--seed", "-1"], "--seed"),
        (["corpus", "run", "--seed", "-1"], "--seed"),
        # inf solved every level to the capped tolerance and exited 0
        (["solve", "corpus:diag3", "--inner-tol", "inf"], "--inner-tol"),
        (["solve", "corpus:diag3", "--inner-tol", "nan"], "--inner-tol"),
    ])
    def test_out_of_range_exit_two(self, argv, flag, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {flag} must be")

    @pytest.mark.parametrize("argv, flag", [
        # nan reached SymMat and exited 1 with a traceback
        (["analyze", "corpus:diag3", "--point", "nan,0,0"], "point"),
        (["solve", "corpus:diag3", "--anchor", "inf,0,0"], "anchor"),
        # the empty token was dropped, so this read as (1, 0)
        (["reduce", "corpus:facial", "--point", "1,,0"], "point"),
    ])
    def test_bad_coordinates_exit_two(self, argv, flag, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and flag in lines[0]

    @pytest.mark.parametrize("argv", [
        ["solve", "corpus:diag3", "--seed", "1"],
        ["solve", "corpus:diag3", "--traces", "4"],
        ["reduce", "corpus:facial", "--seed", "1"],
        ["reduce", "corpus:facial", "--no-timestamp"],
        ["corpus", "list", "--seed", "1"],
        ["corpus", "list", "--tol-rank", "1e-6"],
        ["analyze", "corpus:diag3", "--rotations", "5"],
    ])
    def test_flags_a_command_ignores_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # rho overflowed to inf and exited 1 with a traceback
        ["solve", "corpus:diag3", "--rho0", "1e300", "--rho-mult", "1e10",
         "--outer", "4"],
        ["solve", "corpus:diag3", "--outer", "320"],
    ])
    def test_overflowing_schedule_exit_two(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert all(flag in lines[0] for flag in ("--rho0", "--rho-mult",
                                                 "--outer"))

    def test_library_rejects_analysis_options_out_of_range(self):
        # fullmat at its point needs no weak probe, which alone checked
        # traces and seed, so seed -1 reached the report
        e = next(e for e in corpus_entries() if e.id == "fullmat")
        for kw in ({"seed": -1}, {"traces": 0}, {"tol_rank": float("nan")},
                   {"tol_rank": 1.0}):
            with pytest.raises(ValueError):
                analyze_problem(e.problem, e.point, AnalysisOptions(**kw))

    def test_library_rejects_tol_rank_out_of_range(self):
        from nsdpcq.cqcheck import feasibility_data
        P = corpus_entries()[0].problem
        for tol in (float("nan"), float("inf"), 0.0, 1.0, -1.0, 2.0):
            with pytest.raises(ValueError):
                feasibility_data(P, np.zeros(P.n), tol)


class TestSolve:
    def test_table_and_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert cli.main(["solve", "corpus:diag3", "--anchor", "0,0,0",
                         "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        rows = [ln for ln in out.splitlines() if " ok" in ln]
        assert len(rows) == 12
        lines = trace.read_text().strip().splitlines()
        assert len(lines) == 12
        rec = json.loads(lines[0])
        assert set(rec.keys()) == {"k", "rho", "x", "multiplier",
                                   "eigenvalues", "eigenvectors",
                                   "stationarity_residual",
                                   "multiplier_norm"}

    def test_unwritable_trace_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.jsonl"
        assert cli.main(["solve", "corpus:diag3", "--outer", "2",
                         "--trace", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}")

    def test_default_anchor_from_corpus(self, capsys):
        assert cli.main(["solve", "corpus:interior", "--outer", "4"]) == 0
        out = capsys.readouterr().out
        body = [ln for ln in out.splitlines() if " ok" in ln]
        assert len(body) == 4
        for ln in body:
            assert "0.0000e+00" in ln

    def test_divergence_note(self, capsys):
        assert cli.main(["solve", "corpus:facial", "--anchor", "0,0"]) == 0
        assert "divergence" in capsys.readouterr().out

    def test_stalled_level_is_not_labelled_budget(self, capsys):
        # no float gradient meets a 1e-300 tolerance: the level stops when
        # the line search finds no step, well before the iteration budget
        assert cli.main(["solve", "corpus:scalar2", "--outer", "1",
                         "--inner-tol", "1e-300"]) == 0
        out = capsys.readouterr().out
        row = [ln for ln in out.splitlines() if ln.endswith("stalled")]
        assert len(row) == 1
        iters = int(row[0].split()[-2])
        assert 0 < iters < 400
        assert "budget" not in out
        assert f"stalled after {iters} iterations" in out

    def test_spent_budget_is_labelled_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(penalty, "INNER_MAX_ITERS", 1)
        # one Newton step solves a diag3 level; on facial it does not
        assert cli.main(["solve", "corpus:facial", "--anchor", "0,0",
                         "--rho0", "10", "--outer", "2"]) == 0
        out = capsys.readouterr().out
        rows = [ln for ln in out.splitlines() if ln.endswith("budget")]
        assert len(rows) == 2
        assert all(ln.split()[-2] == "1" for ln in rows)
        assert "spent its 1-iteration budget" in out

    def test_infeasible_anchor_exit_three(self, capsys):
        assert cli.main(["solve", "corpus:diag3",
                         "--anchor=-1,0,0"]) == 3


# penalties unbounded below: f -> -inf along a ray inside the PSD cone,
# so the inner solve's iterates run out until f, G or the gradient
# overflows
UNBOUNDED_PROBLEMS = {
    # n 1, m 1: f = -x^5 - x, G = [[x^4]]
    "quintic": {"name": "quintic", "n": 1, "m": 1,
                "objective": [{"c": -1.0, "e": [5]}, {"c": -1.0, "e": [1]}],
                "constraint": [{"i": 0, "j": 0,
                                "poly": [{"c": 1.0, "e": [4]}]}]},
    # n 3, m 2: f = -2 x2 - 2 x1^2, G = [[-x1, x2], [x2, 0]]
    "hinge3": {"name": "hinge3", "n": 3, "m": 2,
               "objective": [{"c": -2.0, "e": [0, 1, 0]},
                             {"c": -2.0, "e": [2, 0, 0]}],
               "constraint": [
                   {"i": 0, "j": 0, "poly": [{"c": -1.0, "e": [1, 0, 0]}]},
                   {"i": 0, "j": 1, "poly": [{"c": 1.0, "e": [0, 1, 0]}]}]},
}


def strict_json(text):
    """json.loads that refuses Infinity and NaN, which are not JSON."""
    def refuse(name):
        raise ValueError(f"non-finite number {name}")
    return json.loads(text, parse_constant=refuse)


class TestUnboundedPenalty:
    """An overflowing line-search trial is rejected like any other: the
    level stalls at its last finite point, and analyze and solve exit 0
    with finite numbers and no RuntimeWarning (an error in this suite)."""

    @pytest.mark.parametrize("name", sorted(UNBOUNDED_PROBLEMS))
    def test_analyze_and_solve_stay_finite(self, name, tmp_path, capsys):
        obj = UNBOUNDED_PROBLEMS[name]
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(obj))
        point = ",".join(["0"] * obj["n"])
        report, trace = tmp_path / "report.json", tmp_path / "trace.jsonl"
        assert cli.main(["analyze", str(problem), "--point", point,
                         "--json", str(report), "--no-timestamp"]) == 0
        strict_json(report.read_text())
        assert cli.main(["solve", str(problem), "--anchor", point,
                         "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        rows = [ln.split() for ln in out.splitlines()
                if ln.split() and ln.split()[0].isdigit()]
        # once a level stalls, no later level reads ok: each stops where
        # the stall left the iterate, whose gradient floor there exceeds
        # the gradient
        assert [row[-1] for row in rows] == ["stalled"] * 12
        assert all(np.isfinite(float(row[3])) for row in rows)
        records = [strict_json(ln) for ln in trace.read_text().splitlines()]
        assert len(records) == 12
        assert all(np.all(np.isfinite(rec["x"])) for rec in records)


    @pytest.mark.parametrize("argv", [
        ["analyze", "--point", "1e80"],
        ["solve", "--anchor", "1e80"],
        ["reduce", "--point", "1e80"],
    ])
    def test_overflowing_point_exit_two(self, argv, tmp_path, capsys):
        # x^4 and x^5 overflow at 1e80: SymMat refused G(x) and the
        # command exited 1 with a traceback
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(UNBOUNDED_PROBLEMS["quintic"]))
        assert cli.main([argv[0], str(problem)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: f, G or h is not finite at {argv[1][2:]} '1e80'"]


class TestReduce:
    def test_facial_reduction_summary(self, tmp_path, capsys):
        out_file = tmp_path / "reduced.json"
        assert cli.main(["reduce", "corpus:facial", "--output",
                         str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "2 -> 1" in out
        assert "emitted equalities: 1" in out
        reduced = parse_problem_text(out_file.read_text())
        assert reduced.m == 1
        assert len(reduced.equalities) == 1

    def test_reduced_problem_passes_sparse_check(self, tmp_path, capsys):
        out_file = tmp_path / "reduced.json"
        assert cli.main(["reduce", "corpus:facial", "--output",
                         str(out_file)]) == 0
        capsys.readouterr()
        assert cli.main(["analyze", str(out_file), "--point", "0,0",
                         "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if "sparse_ndg" in ln)
        assert "HoldsCertified" in line

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "reduced.json"
        assert cli.main(["reduce", "corpus:facial", "--output",
                         str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}")

    def test_no_facial_structure_is_identity(self, capsys):
        assert cli.main(["reduce", "corpus:diag3"]) == 0
        out = capsys.readouterr().out
        assert "0 round(s)" in out


class TestRoundTrip:
    def test_problem_files_round_trip(self):
        for e in corpus_entries():
            text = json.dumps(e.problem.to_json())
            again = parse_problem_text(text)
            assert again.to_json() == e.problem.to_json()
            x = np.asarray(e.point, dtype=float)
            assert np.allclose(again.constraint_value(x).a,
                               e.problem.constraint_value(x).a)


class TestClosedStdout:
    def test_reader_gone_exits_141_quietly(self):
        # the read end is closed before the child starts, so its first
        # write to stdout fails with EPIPE
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nsdpcq.cli", "analyze",
                 "corpus:diag3", "--no-timestamp"],
                stdout=w, stderr=subprocess.PIPE, env=env, timeout=300)
        finally:
            os.close(w)
        assert proc.returncode == 141
        assert proc.stderr == b""
