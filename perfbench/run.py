"""nsdpcq benchmark: one workload per call, in a fresh child process.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

It imports the library from the ``src/`` directory next to its own.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics
(see README.md).  Lines before it are a human-readable report: the
environment, the verdict table of every instance and every metric with
its unit.

The workload runs in a child with BLAS and OpenMP threads pinned to 1,
a fixed hash seed and no address-space randomization.
``setup_s`` is the time from starting a child to the moment it has
imported ``nsdpcq`` and generated its inputs, the median over
``SETUP_PROBES`` children: that many minus one that only set up and
exit, plus the measuring child itself.  Like the pass times it is
scaled to the machine's fast state, by the speed each child measures
with the reference loop right after its set-up (see worker.py).
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# the same names as inputs.WORKLOADS; this process stays free of numpy
WORKLOADS = ("corpus", "ladder", "degenerate")
SETUP_PROBES = 9
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
E2E = ("setup_s", "analyze_pass_s", "solve_pass_s", "certified_frac",
       "ok_frac", "peak_rss_mb")
ADDR_NO_RANDOMIZE = 0x0040000       # personality(2) flag


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def fixed_layout() -> None:
    """Runs in the child before exec: turn off address-space
    randomization for it, as ``setarch -R`` does.  With a random layout
    the library's speed differed from one process to the next by a
    coefficient of variation of 0.11 to 0.13, in the same machine state;
    with a fixed layout and hash seed, by 0.04 to 0.07."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def run_child(args: list, deadline: float) -> tuple:
    """Start a worker, wait for it, return (start time, parsed last line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args,
                            stdout=subprocess.PIPE, env=child_env(),
                            preexec_fn=fixed_layout, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with "
                         f"{proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing")
    return t0, json.loads(lines[-1])


def verdict_table(rows: list) -> list:
    out = [f"  {'instance':<26s} nd  rb  sp  fg  wn  wr  div   omega  "
           "samples  analyze_s  solve_s  failures"]
    abbrev = {"HoldsCertified": "HC", "HoldsSampled": "HS", "Fails": "F",
              "Undetermined": "U", None: "-"}
    for r in rows:
        v = r["verdicts"] or {}
        cells = " ".join(f"{abbrev.get(v.get(k), v.get(k)):<3s}" for k in
                         ("nondegeneracy", "robinson", "sparse_ndg",
                          "forsgren", "weak_ndg_probe",
                          "weak_robinson_probe"))
        fails = "; ".join(f"{op}: {', '.join(w)}"
                          for op, w in r["failures"].items())
        out.append(f"  {r['id']:<26s} {cells} "
                   f"{str(r['divergence_suspected']):<5s} "
                   f"{str(r['omega']):<6s} {r['samples']:<8d} "
                   f"{r['analyze_s']:<10.4f} {r['solve_s']:<8.4f} {fails}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nsdpcq benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nsdpcq", "__init__.py")):
        print(f"run.py: no src/nsdpcq under {ROOT}; the benchmark measures "
              "the library in the repository it sits in", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        walls, setups = [], []
        for probe in range(SETUP_PROBES):
            extra = (["--setup-only"] if probe + 1 < SETUP_PROBES else
                     ["--seconds", str(args.seconds),
                      "--trace", str(args.trace)])
            t0, res = run_child(common + extra, deadline)
            walls.append(res["ready"] - t0)
            setups.append(walls[-1] * res["speed"])
    except (BenchError, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in res["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["setup_wall_s"] = {"value": statistics.median(walls),
                                   "unit": "s"}
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}

    print(f"nsdpcq benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"environment: {json.dumps(res['env'], sort_keys=True)}")
    print(f"passes: {res['passes_untraced']} untraced, "
          f"{res['passes_traced']} traced; reference table "
          f"{'applied' if res['reference'] else 'absent'}")
    print("verdicts (first pass):")
    print("\n".join(verdict_table(res["table"])))
    for p in res["problems"]:
        print(f"  ! {p}")
    if "spans_file" in res:
        print(f"spans written to {res['spans_file']}")
    print(f"operations: {res['attempted']} attempted, {res['failed']} failed "
          f"({res['unexpected']} not recorded in the reference table)")
    for k in sorted(metrics):
        print(f"  {k:<34s} {metrics[k]['value']:.6g} {metrics[k]['unit']}")
    if not args.trace:
        metrics = {k: metrics[k] for k in E2E}
    print(json.dumps({"correct": bool(res["correct"]),
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
