"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py

They cover the correctness accounting (a planted reference flip is
counted), the tracer (full coverage when installed, none left when
removed, self times inside the traced wall), the seeded inputs, and
the refusal to run without the library next to the benchmark.
"""
from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import worker  # first: puts src/ on sys.path
import nsdpcq
import checks
import inputs
from tracer import Tracer, nsdpcq_modules

HERE = os.path.dirname(os.path.abspath(__file__))


def corpus_instance(name: str) -> inputs.Instance:
    return next(i for i in inputs.make_instances("corpus", 0) if i.id == name)


def test_planted_certified_flip_is_counted():
    inst = corpus_instance("interior")
    reference = copy.deepcopy(checks.load_reference("corpus"))
    rec = reference[inst.id]
    assert rec["verdicts"]["robinson"] == "HoldsCertified"
    rec["verdicts"]["robinson"] = "Fails"
    run = worker.Run([inst], reference)
    run.run_instance(inst, None)
    assert run.attempted == 3
    assert run.failed == 1 and run.unexpected == 1
    assert run.failures[(inst.id, "analyze")] == [
        "robinson is HoldsCertified, reference Fails"]


def test_sampled_move_is_not_a_failure():
    inst = corpus_instance("fullmat")
    reference = copy.deepcopy(checks.load_reference("corpus"))
    assert reference[inst.id]["verdicts"]["weak_ndg_probe"] == "HoldsSampled"
    reference[inst.id]["verdicts"]["weak_ndg_probe"] = "HoldsCertified"
    reference[inst.id]["divergence_suspected"] = True
    run = worker.Run([inst], reference)
    run.run_instance(inst, None)
    assert run.failed == 1
    assert list(run.failures) == [(inst.id, "solve")]


def test_pinned_corpus_table_is_checked_without_reference():
    inst = corpus_instance("offdiag")
    pinned = dict(inst.expected, forsgren="HoldsSampled")
    run = worker.Run([inputs.Instance(inst.id, inst.text, inst.point,
                                      pinned)], None)
    run.run_instance(run.instances[0], None)
    assert run.failed == 1 and run.unexpected == 1


def test_recorded_lattice_warning_is_a_known_failure():
    ref = {"warnings": ["a holds but b fails"]}
    assert checks.recorded_failure("analyze", ["lattice: a holds but b fails"],
                                   ref)
    assert not checks.recorded_failure("analyze", ["lattice: c holds but d "
                                                   "fails"], ref)
    assert not checks.recorded_failure("analyze", [
        "lattice: a holds but b fails", "robinson is Fails, reference "
        "HoldsCertified"], ref)
    assert not checks.recorded_failure("solve", ["raised: ValueError"], ref)


def test_tracer_wraps_every_binding_and_removal_restores_them():
    worker.load_all_modules()
    before = {m.__name__: dict(vars(m)) for m in nsdpcq_modules()}
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_originals() == []
        # the by-name imports the tracer has to reach
        for mod in ("cqcheck", "penalty", "sparse"):
            assert getattr(nsdpcq, mod).eigh is not before[
                f"nsdpcq.{mod}"]["eigh"]
        assert nsdpcq.sparse.check_robinson.__wrapped__ is before[
            "nsdpcq.cqcheck"]["check_robinson"]
        assert nsdpcq.cqcheck.phase_one.__wrapped__ is before[
            "nsdpcq.lp"]["phase_one"]
        assert nsdpcq.report.check_forsgren.__wrapped__ is before[
            "nsdpcq.sparse"]["check_forsgren"]
    finally:
        tracer.remove()
    assert tracer.leftover_wrappers() == []
    for m in nsdpcq_modules():
        for key, val in before[m.__name__].items():
            assert vars(m)[key] is val, f"{m.__name__}.{key} not restored"


def test_traced_pass_self_times_stay_inside_wall():
    instances = [corpus_instance("facial"), corpus_instance("diag3")]
    run = worker.Run(instances, checks.load_reference("corpus"))
    res = worker.run_passes(run, 0.0, trace=True)
    assert len(res["per_pass"]) == 1 and res["audit"] == []
    wall, stats = res["per_pass"][0]
    layers = sum(v for k, v in stats.self_s.items()
                 if not k.startswith("bench."))
    assert 0.0 < layers <= wall
    # the operation spans account for the pass, less the loop's bookkeeping
    assert 0.95 * wall < sum(stats.self_s.values()) <= wall
    metrics, problems = worker.layer_metrics(res["per_pass"], res["walls"],
                                             [0.0002], res["audit"])
    assert problems == []
    assert metrics["penalty.run_penalty.calls"][0] == 4
    # facial drops its penalty trace at the proximity gate, diag3 keeps it
    assert metrics["penalty.trace_kept_frac"][0] == 0.5


def test_seed_orders_fixed_instances_of_the_requested_nullity():
    for wl in inputs.WORKLOADS:
        a = inputs.make_instances(wl, 3)
        assert a == inputs.make_instances(wl, 3)
        b = inputs.make_instances(wl, 4)
        assert sorted(a, key=lambda i: i.id) == sorted(b, key=lambda i: i.id)
    for obj in inputs.ladder_base() + inputs.degenerate_base():
        P = nsdpcq.NsdpProblem.from_json(obj)
        ev = np.linalg.eigvalsh(P.constraint_value(np.zeros(P.n)).a)
        nullity = int(obj["name"].rsplit("_k", 1)[1])
        assert np.all(np.abs(ev[:nullity]) < 1e-12)
        assert np.all((ev[nullity:] > 0.5 - 1e-12) & (ev[nullity:] < 2.0))


def test_refuses_to_run_without_the_library(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "worker.py"):
        shutil.copy(os.path.join(HERE, name), bench / name)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "corpus", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
