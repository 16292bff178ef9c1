"""Pinned verdict table of the 321-instance survey.

The survey is the 7 corpus entries at their pinned points, the 14 other
benchmark instances (2 ladder, 12 degenerate) at 0, and 300 draws of
perfbench/inputs.shifted_problem at 0.  The draws share one
numpy default_rng(7); draw i takes n = integers(2, 6),
m = integers(2, 6) and nullity integers(2, m + 1), in that order.

For each instance the table holds the six statuses and the notes of
analyze_problem, and of one 13-level run_penalty anchored at the point
(rho 1 .. 1e12) the indices of the levels whose inner solve did not
converge and the divergence flag.  It pins what the program does,
defects included.

    python tests/survey.py --write    # regenerate tests/data/survey.json
    python tests/survey.py --check    # print every moved cell, exit 1 on any
    python tests/survey.py --check --expect-digests DIGEST SOLVE_DIGEST
    python tests/survey.py --scale S  # analyze with G -> S G, see below

Both print one summary line: instance count, separation notes, lattice
warnings, unconverged levels, divergence flags, inner iterations, a
sha256 digest over every instance's name, the JSONL of its 13-level
solve, that solve's notes and its timestamp-free analysis report, and a
solve digest over the names, solves and notes alone.  Two checkouts
that print the same digest produced bit-identical iterates,
multipliers, spectra, verdicts and witnesses; the same solve digest
says the same of the penalty runs when only reports moved.  A change
meant to keep every bit is gated by --expect-digests with the two
digests the parent commit prints: the check then also exits 1 when
either digest differs, naming it.  A change that moves rounding on
purpose, such as a new order of floating-point operations, runs --check
without that option: it must pass with the table unedited, and it
reports the parent's and its own digest pair.  The digests depend on
the numpy and BLAS build, so they are compared between two checkouts
on one machine and are not pinned in CI, which also runs numpy 1.24.

No condition changes when G is multiplied by a constant S > 0.  --scale
analyzes every instance with each coefficient of G times S, with no
solve, prints a summary line (instances and cells whose status moved
against the pinned table, and how many of those moved between
HoldsCertified and Fails) and every moved cell, and exits 1 on any
HoldsCertified <-> Fails flip, a certified verdict the scale reversed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from inputs import (  # noqa: E402
    corpus_instances,
    degenerate_base,
    ladder_base,
    shifted_problem,
)
from nsdpcq.model import MatrixPoly, NsdpProblem  # noqa: E402
from nsdpcq.penalty import PenaltyConfig, run_penalty  # noqa: E402
from nsdpcq.report import (  # noqa: E402
    AnalysisOptions,
    analyze_problem,
    report_json_text,
)

TABLE = ROOT / "tests" / "data" / "survey.json"
DRAWS = 300
DRAW_SEED = 7
LEVELS = 13


def instances():
    """(id, problem JSON, point) for every survey instance, in order."""
    for inst in corpus_instances():
        yield inst.id, json.loads(inst.text), list(inst.point)
    for obj in ladder_base() + degenerate_base():
        yield obj["name"], obj, [0.0] * obj["n"]
    rng = np.random.default_rng(DRAW_SEED)
    for i in range(DRAWS):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        k = int(rng.integers(2, m + 1))
        obj = shifted_problem(rng, n, m, k, f"draw{i:03d}")
        yield obj["name"], obj, [0.0] * n


def survey():
    """The table rows, the total inner iterations of the solves, the
    sha256 of every solve and report, and that of the solves alone."""
    rows, iters = {}, 0
    digest, solves = hashlib.sha256(), hashlib.sha256()
    for name, obj, point in instances():
        P = NsdpProblem.from_json(obj)
        rep = analyze_problem(P, point, AnalysisOptions(timestamp=False))
        trace = run_penalty(P, PenaltyConfig(anchor=point,
                                             outer_iters=LEVELS))
        iters += sum(rec.inner_iterations for rec in trace.iterates)
        solve = (name, trace.to_jsonl(), json.dumps(trace.notes))
        for text in solve + (report_json_text(rep),):
            digest.update(text.encode() + b"\0")
        for text in solve:
            solves.update(text.encode() + b"\0")
        rows[name] = {
            "verdicts": {k: v.status.value
                         for k, v in rep.verdicts.items()},
            "notes": rep.notes,
            "unconverged": [rec.k for rec in trace.iterates
                            if not rec.inner_converged],
            "divergence": trace.divergence_suspected,
        }
    return rows, iters, digest.hexdigest(), solves.hexdigest()


def summary(rows, iters, digest, solves) -> str:
    notes = [n for r in rows.values() for n in r["notes"]]
    sep = sum("weak Robinson holds" in n for n in notes)
    return (f"{len(rows)} instances, {sep} separation notes, "
            f"{len(notes) - sep} lattice warnings, "
            f"{sum(len(r['unconverged']) for r in rows.values())} "
            "unconverged levels, "
            f"{sum(r['divergence'] for r in rows.values())} divergence "
            f"flags, {iters} inner iterations, digest {digest}, "
            f"solve digest {solves}")


def moves(old, new):
    """One line per cell that differs between two tables."""
    out = []
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            out.append(f"{name}: {'added' if a is None else 'removed'}")
            continue
        for cond in sorted(set(a["verdicts"]) | set(b["verdicts"])):
            va, vb = a["verdicts"].get(cond), b["verdicts"].get(cond)
            if va != vb:
                out.append(f"{name} {cond}: {va} -> {vb}")
        for key in ("notes", "unconverged", "divergence"):
            if a[key] != b[key]:
                out.append(f"{name} {key}: {a[key]} -> {b[key]}")
    return out


def scaled(P: NsdpProblem, s: float) -> NsdpProblem:
    """P with every coefficient of its constraint G multiplied by s."""
    G = P.constraint
    return NsdpProblem(P.n, P.objective, MatrixPoly(
        G.dim, G.n, {ij: p.scale(s) for ij, p in G.entries.items()},
        blocks=G.blocks), P.equalities, P.name)


def scale_check(s: float) -> int:
    """Print the statuses that G -> s G moves against the pinned table;
    1 when one of them moved between HoldsCertified and Fails."""
    table = json.loads(TABLE.read_text())
    moved, flips = [], 0
    for name, obj, point in instances():
        rep = analyze_problem(scaled(NsdpProblem.from_json(obj), s), point,
                              AnalysisOptions(timestamp=False))
        for cond, v in rep.verdicts.items():
            old, new = table[name]["verdicts"][cond], v.status.value
            if old != new:
                flip = {old, new} == {"HoldsCertified", "Fails"}
                flips += flip
                moved.append((name, f"{name} {cond}: {old} -> {new}"
                              + (" (flip)" if flip else "")))
    print(f"scale {s:g}: {len({name for name, _ in moved})} instances and "
          f"{len(moved)} cells moved, {flips} HoldsCertified <-> Fails "
          "flips")
    for _, line in moved:
        print(line)
    return 1 if flips else 0


def positive(text: str) -> float:
    s = float(text)
    if not 0.0 < s < float("inf"):
        raise argparse.ArgumentTypeError(
            f"scale must be positive and finite, got {text}")
    return s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--scale", type=positive, metavar="S")
    ap.add_argument("--expect-digests", nargs=2,
                    metavar=("DIGEST", "SOLVE_DIGEST"),
                    help="with --check, also exit 1 unless the run prints "
                    "these two digests")
    args = ap.parse_args(argv)
    if args.expect_digests and not args.check:
        ap.error("--expect-digests needs --check")
    if args.scale is not None:
        return scale_check(args.scale)
    rows, iters, digest, solves = survey()
    print(summary(rows, iters, digest, solves))
    if args.write:
        TABLE.parent.mkdir(exist_ok=True)
        # one instance per line, so a moved cell is a one-line diff
        TABLE.write_text("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
            for k, v in sorted(rows.items())) + "\n}\n")
        return 0
    moved = moves(json.loads(TABLE.read_text()), rows)
    if args.expect_digests:
        for label, want, got in zip(("digest", "solve digest"),
                                    args.expect_digests, (digest, solves)):
            if got != want:
                moved.append(f"{label} {got} differs from the expected "
                             f"{want}")
    for line in moved:
        print(line)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
