"""One workload in one process: generate inputs, time passes, check results.

``run.py`` starts this script as a fresh child per run and reads the
JSON object it prints as its last line.  Run from the repository root:

    python3 perfbench/worker.py --workload corpus --seed 0 --seconds 10 --trace 0
    python3 perfbench/worker.py --write-reference   # rewrite reference/*.json

A pass runs three operations on every instance, each starting from the
instance's problem JSON text: analyze (``analyze_problem`` with the
default options, the ``nsdpcq analyze`` work), solve (``run_penalty``
anchored at the point with 13 outer levels, so rho reaches 1e12, the
``nsdpcq solve`` work) and reduce (``facial_reduce``).  Passes repeat
until ``--seconds`` have passed, stopping between instances once the
first pass is complete; each instance's time for an operation is the
median over the passes that reached it.  With ``--trace 1`` untraced
and traced passes alternate and the traced ones report per-layer
metrics.
"""
from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import os
import pkgutil
import resource
import signal
import statistics
import sys
import time
import traceback
from array import array
from collections import defaultdict
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import nsdpcq  # noqa: E402
from nsdpcq.report import lattice_warnings  # noqa: E402

import checks  # noqa: E402
from inputs import WORKLOADS, Instance, make_instances  # noqa: E402
from tracer import Tracer  # noqa: E402

SOLVE_OUTER_ITERS = 13          # rho0 = 1, rho_mult = 10: rho reaches 1e12
REFERENCE_SEED = 0
ADDR_NO_RANDOMIZE = 0x0040000       # personality(2) flag
OUT_DIR = os.path.join(HERE, "out")


def load_all_modules() -> None:
    """Import every nsdpcq submodule, so the tracer audit sees every
    binding a user of the package could reach."""
    for info in pkgutil.iter_modules(nsdpcq.__path__):
        importlib.import_module(f"nsdpcq.{info.name}")


# ---------------------------------------------------------------------------
# the three operations; every call goes through the package namespace so a
# tracer installed there sees it


def _parse(inst: Instance):
    return nsdpcq.NsdpProblem.from_json(json.loads(inst.text))


def op_analyze(inst: Instance):
    return nsdpcq.analyze_problem(_parse(inst), inst.point,
                                  nsdpcq.AnalysisOptions())


def op_solve(inst: Instance):
    cfg = nsdpcq.PenaltyConfig(anchor=np.asarray(inst.point),
                               outer_iters=SOLVE_OUTER_ITERS)
    return nsdpcq.run_penalty(_parse(inst), cfg)


def op_reduce(inst: Instance):
    return nsdpcq.facial_reduce(_parse(inst), inst.point)


def summarize(op: str, result) -> dict:
    if op == "analyze":
        return {"verdicts": {k: v.status.value
                             for k, v in result.verdicts.items()},
                "warnings": lattice_warnings(result.verdicts)}
    if op == "solve":
        return {"divergence_suspected": bool(result.divergence_suspected),
                "rho_final": float(result.iterates[-1].rho)}
    return {"omega": int(result.omega)}


OPS = (("analyze", op_analyze), ("solve", op_solve), ("reduce", op_reduce))


def problems_of(op: str, summary: dict, inst: Instance,
                ref: Optional[dict]) -> List[str]:
    if op == "analyze":
        return checks.analyze_problems(summary["verdicts"],
                                       summary["warnings"], inst.expected,
                                       ref)
    if op == "solve":
        out = checks.solve_problems(summary["divergence_suspected"], ref)
        if summary["rho_final"] < 1e12:
            out.append(f"penalty stopped at rho {summary['rho_final']:.1e}")
        return out
    return checks.reduce_problems(summary["omega"], ref)


# ---------------------------------------------------------------------------
# measurement


_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((6, 6))
_REFERENCE_MATRIX = _REFERENCE_MATRIX + _REFERENCE_MATRIX.T


def reference_loop() -> float:
    """Time a fixed piece of work in the library's own mix: one sweep of
    Jacobi rotations on a 6 x 6 matrix through numpy element access and
    row slices, then small dict and list allocations."""
    t0 = time.perf_counter()
    a = _REFERENCE_MATRIX.copy()
    for p in range(5):
        for q in range(p + 1, 6):
            apq = float(a[p, q])
            theta = (float(a[q, q]) - float(a[p, p])) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta)
                                             + math.sqrt(theta * theta + 1))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            ap, aq = a[p, :].copy(), a[q, :].copy()
            a[p, :], a[q, :] = c * ap - s * aq, s * ap + c * aq
            ap, aq = a[:, p].copy(), a[:, q].copy()
            a[:, p], a[:, q] = c * ap - s * aq, s * ap + c * aq
    d = {i: [i, 0.5 * i] for i in range(300)}
    return time.perf_counter() - t0 + 0.0 * len(d)


# reference_loop() on the tuning machine (2-core x86-64 VM, Python
# 3.11, numpy 2.4) in its fast state; in its slow state it takes 0.35 to
# 0.45 ms
REFERENCE_LOOP_S = 0.0002


class SpeedSampler:
    """Samples machine speed while the workload runs.

    The tuning machine switches between a fast and a slow state (up to
    2x) within seconds, and the library's time follows it: over 8
    repeats of each ladder operation the wall time varied with a
    coefficient of variation of 0.25 to 0.30.  An interval timer runs
    ``reference_loop`` from a SIGALRM handler every PERIOD_S seconds,
    inside the operations as well as between them.  ``scale`` gives an
    interval's time in the fast state: its wall time less the handlers'
    time, times the mean speed over the interval relative to the fast
    state, which is the mean of REFERENCE_LOOP_S / loop time over the
    samples in and next to the interval.  That cut the variation above
    to 0.02 to 0.03.
    """

    PERIOD_S = 0.02

    def __init__(self):
        self.start = array("d")
        self.loop = array("d")
        self.cost = array("d")      # handler time, loop included

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.loop.append(reference_loop())
        self.start.append(t0)
        self.cost.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        # one more sample after the last interval, for its right neighbour
        time.sleep(2 * self.PERIOD_S)
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        i = bisect.bisect_left(self.start, t0)
        j = bisect.bisect_right(self.start, t1)
        busy = t1 - t0 - sum(self.cost[i:j])
        window = self.loop[max(i - 1, 0):j + 1]
        if not window:
            return busy
        return busy * sum(REFERENCE_LOOP_S / c for c in window) / len(window)


class Run:
    """Timings, summaries and failures of every operation in a run.

    ``attempted``, ``failed`` and ``unexpected`` count (instance,
    operation) pairs, not calls: a pair is attempted once it has run,
    and failed once any of its calls failed.  How many passes fit in a
    run depends on the machine's speed, so counting calls would make
    the counts vary between runs of the same code.
    """

    def __init__(self, instances: List[Instance],
                 reference: Optional[Dict[str, dict]]):
        self.instances = instances
        self.reference = reference or {}
        self.spans: Dict[tuple, List[tuple]] = defaultdict(list)
        self.sampler = SpeedSampler()
        self.first: Dict[tuple, dict] = {}
        self.failures: Dict[tuple, List[str]] = defaultdict(list)
        # pairs with a failure the reference table does not record
        self.unexpected_pairs: set = set()

    def run_instance(self, inst: Instance, tracer: Optional[Tracer]) -> float:
        """All three operations on one instance; returns their wall time."""
        ref = self.reference.get(inst.id)
        total = 0.0
        for op, fn in OPS:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = fn(inst)
                else:
                    result = tracer.span(f"bench.{op}", fn, inst)
            except Exception:                       # counted, run goes on
                t1 = time.perf_counter()
                why = ["raised: " + traceback.format_exc().strip()
                       .splitlines()[-1]]
                summary = None
            else:
                t1 = time.perf_counter()
                summary = summarize(op, result)
                why = problems_of(op, summary, inst, ref)
                first = self.first.setdefault((inst.id, op), summary)
                if op == "analyze":
                    why += [f"{k} flipped to {v} since the first pass"
                            for k, v in summary["verdicts"].items()
                            if checks.certified_flip(v, first["verdicts"][k])]
            total += t1 - t0
            self.spans[(inst.id, op)].append((t0, t1))
            if why:
                if not checks.recorded_failure(op, why, ref):
                    self.unexpected_pairs.add((inst.id, op))
                for w in why:
                    if w not in self.failures[(inst.id, op)]:
                        self.failures[(inst.id, op)].append(w)
        return total

    @property
    def attempted(self) -> int:
        return sum(1 for v in self.spans.values() if v)

    @property
    def failed(self) -> int:
        return sum(1 for v in self.failures.values() if v)

    @property
    def unexpected(self) -> int:
        return len(self.unexpected_pairs)

    def times(self, key: tuple, scaled: bool = True) -> List[float]:
        return [self.sampler.scale(t0, t1) if scaled else t1 - t0
                for t0, t1 in self.spans[key]]

    def pass_seconds(self, op: str, scaled: bool = True) -> float:
        """Seconds to run ``op`` once on every instance: per-instance
        medians over the passes, summed."""
        return sum(statistics.median(self.times((i.id, op), scaled))
                   for i in self.instances if self.spans[(i.id, op)])

    def ok_frac(self) -> float:
        """Share of (instance, operation) pairs that never failed."""
        pairs = len(self.instances) * len(OPS)
        return 1.0 - self.failed / pairs

    def certified_frac(self) -> float:
        """Share of first-pass verdicts that are certified."""
        vs = [v for (_, op), s in self.first.items() if op == "analyze"
              for v in s["verdicts"].values()]
        return sum(v in checks.CERTIFIED for v in vs) / max(len(vs), 1)

    def table(self) -> List[dict]:
        rows = []
        for inst in self.instances:
            a = self.first.get((inst.id, "analyze"), {})
            s = self.first.get((inst.id, "solve"), {})
            r = self.first.get((inst.id, "reduce"), {})
            rows.append({
                "id": inst.id,
                "verdicts": a.get("verdicts"),
                "divergence_suspected": s.get("divergence_suspected"),
                "omega": r.get("omega"),
                "samples": len(self.spans[(inst.id, "analyze")]),
                "analyze_s": statistics.median(
                    self.times((inst.id, "analyze")) or [0.0]),
                "solve_s": statistics.median(
                    self.times((inst.id, "solve")) or [0.0]),
                "failures": {op: self.failures[(inst.id, op)]
                             for op, _ in OPS if self.failures[(inst.id, op)]},
            })
        return rows


def run_passes(run: Run, seconds: float, trace: bool) -> dict:
    """Run passes until the time is up, alternating untraced and traced
    passes when tracing.  Returns the time of each complete pass by kind,
    scaled to the fast machine state, and, when tracing, the wall time and
    span aggregate of each complete traced pass."""
    tracer = Tracer() if trace else None
    walls: Dict[bool, List[float]] = {False: [], True: []}
    per_pass = []
    audit: List[str] = []
    min_passes = 2 if trace else 1
    deadline = time.perf_counter() + seconds
    p = 0
    while True:
        traced = trace and p % 2 == 1
        if traced:
            tracer.install()
            audit += [f"unwrapped after install: {b}"
                      for b in tracer.unwrapped_originals()]
        wall = 0.0
        partial = False
        p0 = time.perf_counter()
        try:
            for idx, inst in enumerate(run.instances):
                wall += run.run_instance(inst, tracer if traced else None)
                if (p >= min_passes and idx + 1 < len(run.instances)
                        and time.perf_counter() >= deadline):
                    partial = True
                    break
        finally:
            if traced:
                tracer.remove()
                audit += [f"wrapper left after removal: {b}"
                          for b in tracer.leftover_wrappers()]
        stats = tracer.reset_stats() if traced else None
        if not partial:
            walls[traced].append(run.sampler.scale(p0, time.perf_counter()))
            if traced:
                per_pass.append((wall, stats))
        p += 1
        if partial or (p >= min_passes and time.perf_counter() >= deadline):
            break
    return {"walls": walls, "tracer": tracer, "per_pass": per_pass,
            "audit": audit}


LAYER_CALLS = ("symmat.eigh", "penalty.run_penalty", "penalty.make_path_trace",
               "penalty.inner_minimize", "model.eval",
               "cqcheck.check_robinson", "lp.phase_one", "cqcheck.li_test",
               "cqcheck.pli_test", "cqcheck.feasibility_data")
LAYER_S = ("penalty.default_trace_family", "penalty.run_penalty",
           "penalty.make_path_trace", "cqcheck.check_robinson",
           "sparse.check_sparse_ndg", "sparse.check_forsgren",
           "cqcheck.check_nondegeneracy", "penalty.probe_weak_ndg",
           "penalty.probe_weak_robinson", "sparse.facial_reduce",
           "model.from_json")
LAYER_SELF = ("symmat.eigh", "penalty.inner_minimize", "model.eval",
              "cqcheck.check_robinson", "lp.phase_one", "cqcheck.li_test",
              "cqcheck.pli_test", "report.analyze_problem")


def layer_metrics(per_pass, walls, calib, audit) -> (dict, List[str]):
    """Per-layer metrics, per traced pass: counts from the first traced
    pass (they must repeat exactly), times as medians over traced passes."""
    problems = list(audit)
    stats = [st for _, st in per_pass]
    counts = [(dict(st.calls), dict(st.counters)) for st in stats]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("span counts differ between traced passes")
    first = stats[0]

    def med(fn):
        return statistics.median(fn(st) for st in stats)

    out = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = (first.calls.get(name, 0), "count")
    out["penalty.inner_minimize.iters"] = (
        first.counters.get("penalty.inner_minimize.iters", 0), "count")
    for name in LAYER_S:
        out[f"{name}.s"] = (med(lambda st: st.s.get(name, 0.0)), "s")
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = (med(lambda st: st.self_s.get(name, 0.0)),
                                 "s")
    built = first.counters.get("penalty.trace_built", 0)
    kept = first.counters.get("penalty.trace_kept", 0)
    out["penalty.trace_kept_frac"] = (kept / built if built else 1.0,
                                      "ratio")
    # shares of analyze time predicted by the layer map in README.md
    analyze = med(lambda st: st.s.get("bench.analyze", 0.0))
    out["analyze.checker_share"] = (
        med(lambda st: st.root_checkers["bench.analyze"]) / analyze, "ratio")
    out["analyze.eval_inner_share"] = (
        med(lambda st: st.root_self[("bench.analyze", "model.eval")]
            + st.root_self[("bench.analyze", "penalty.inner_minimize")])
        / analyze, "ratio")
    out["trace.overhead_s"] = (statistics.median(walls[True])
                               - statistics.median(walls[False]), "s")
    out["machine.calib_s"] = (statistics.median(calib), "s")
    for wall, st in per_pass:
        layers = sum(v for k, v in st.self_s.items()
                     if not k.startswith("bench."))
        if layers > wall * (1 + 1e-9):
            problems.append(f"layer self times {layers:.6f} s exceed the "
                            f"traced wall {wall:.6f} s")
    return out, problems


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")
                 if k in blas},
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")},
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "aslr_off": aslr_off(),
    }


def aslr_off() -> Optional[bool]:
    """Whether this process runs without address-space randomization."""
    try:
        with open("/proc/self/personality") as fh:
            return bool(int(fh.read(), 16) & ADDR_NO_RANDOMIZE)
    except OSError:
        return None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            instances: List[Instance]) -> dict:
    run = Run(instances, checks.load_reference(workload))
    with run.sampler:
        res = run_passes(run, seconds, trace)
    out = {
        "workload": workload,
        "seed": seed,
        "attempted": run.attempted,
        "failed": run.failed,
        "unexpected": run.unexpected,
        "passes_untraced": len(res["walls"][False]),
        "passes_traced": len(res["walls"][True]),
        "table": run.table(),
        "env": environment(),
        "reference": run.reference != {},
    }
    problems: List[str] = []
    if trace:
        layers, problems = layer_metrics(res["per_pass"], res["walls"],
                                         run.sampler.loop, res["audit"])
        out["metrics"] = layers
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.txt")
        res["tracer"].write_spans(path)
        out["spans_file"] = os.path.relpath(path)
    else:
        out["metrics"] = {
            "analyze_pass_s": (run.pass_seconds("analyze"), "s"),
            "solve_pass_s": (run.pass_seconds("solve"), "s"),
            "reduce_pass_s": (run.pass_seconds("reduce"), "s"),
            "analyze_pass_wall_s": (run.pass_seconds("analyze", False), "s"),
            "solve_pass_wall_s": (run.pass_seconds("solve", False), "s"),
            "certified_frac": (run.certified_frac(), "ratio"),
            "ok_frac": (run.ok_frac(), "ratio"),
            "failed_frac": (1.0 - run.ok_frac(), "ratio"),
            "machine.calib_s": (statistics.median(run.sampler.loop), "s"),
        }
    out["problems"] = problems
    out["correct"] = run.unexpected == 0 and not problems
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def write_reference(workloads) -> None:
    """Run every operation once at the reference seed and store what it
    returned as the reference table of each workload."""
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    for wl in workloads:
        table = {}
        for inst in make_instances(wl, REFERENCE_SEED):
            rec = {}
            for op, fn in OPS:
                rec.update(summarize(op, fn(inst)))
            rec.pop("rho_final")
            table[inst.id] = rec
        with open(checks.reference_path(wl), "w") as fh:
            json.dump(dict(sorted(table.items())), fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(checks.reference_path(wl))}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate inputs, print the ready time")
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite reference/<workload>.json at seed 0")
    args = ap.parse_args(argv)
    if args.write_reference:
        write_reference([args.workload] if args.workload else WORKLOADS)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    load_all_modules()
    instances = make_instances(args.workload, args.seed)
    ready = time.perf_counter()
    speed = statistics.mean(REFERENCE_LOOP_S / reference_loop()
                            for _ in range(20))
    if args.setup_only:
        print(json.dumps({"ready": ready, "speed": speed}))
        return 0
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  instances)
    out["ready"] = ready
    out["speed"] = speed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
