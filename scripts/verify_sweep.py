"""Fingerprint every verify artefact over a fixed set of quivers and seeds.

For each run the script calls ``verify_run`` and ``write_outputs`` and prints
one line: the quiver, the seed, the sha256 of each of the five files, and the
thirteen suite verdicts in suite order as a string of P (passed) and F.
Running it against two source trees and diffing the output checks that a
change leaves every verify artefact byte-identical:

    python3 scripts/verify_sweep.py > new.txt
    python3 scripts/verify_sweep.py --src ../other/src > old.txt
    diff old.txt new.txt

A change that moves reported numbers at round-off on purpose changes the
digests; compare only columns 1, 2 and 8 (quiver, seed, verdicts) instead:

    diff <(cut -d' ' -f1,2,8 old.txt) <(cut -d' ' -f1,2,8 new.txt)

``--compare`` does that comparison and also reads the numbers: it sweeps
this tree and the ``--src`` tree, each in its own process, and prints per
run whether the verdict strings match, the largest relative move of any
number of magnitude >= 1e-6 across the five artefacts (0 when none moved)
with where it sits, and how many other entries differ, each of which is then
listed. Entries are matched by key, not by position: a JSON leaf by its path
(``/suites/3/worst_residual``), a CSV cell by its data row number and column
header (``2:distance``). Numbers are compared at the keys both sides have;
other differences are changed non-numbers (such as suite notes) and
non-finite numbers, keys present on one side only, and CSV columns present
on one side only (listed once per file). So a change that adds or drops a
field still has every shared number checked. It ends with one summary line:
the runs with identical verdicts out of all runs, the largest relative move
over all runs with its run and location, the number of runs with other
differences, and then the largest move in each of the five files with its
run and key (so a file whose rows pair different values, such as a
flow_trace.csv with fewer rows, does not hide the moves in the others).
It exits 1 when the verdicts of any run differ or when the two sweeps print
different numbers of lines (it then says so and compares the runs both
have), and 0 otherwise; moved numbers alone do not fail it:

    python3 scripts/verify_sweep.py --compare --src ../other/src

``--out DIR`` keeps the artefacts of run n in DIR/n.  A sweep prints its
total wall time on standard error, so standard output stays comparable.

Quiver files are named relative to the repository root, which is also the
working directory of the runs, so the configs (and their digests) match
between trees.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

QUIVERS = ("tstar-p1", "a2-star", "kronecker2", "a3-star",
           "bench/quivers/a3_chain.json", "bench/quivers/d4_star.json")
SEEDS = range(12)
WALL_RUNS = (("a2-wall", 0),)
ARTEFACTS = ("report.json", "dimension_audit.csv", "flow_trace.csv",
             "convergence.csv", "fingerprints.csv")
NUMBER_FLOOR = 1e-6


def _entries(path: str):
    """({key: value} over every leaf of one artefact, its CSV header).

    JSON leaves are keyed by their path, CSV cells by data row number and
    column header (``3:distance``); numbers are floats.  A JSON artefact has
    no header.
    """
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return dict(_json_leaves(json.load(fh), "")), ()
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    cells = {}
    for r, row in enumerate(rows, 1):
        for col, cell in zip(header, row):
            try:
                cells[f"{r}:{col}"] = float(cell)
            except ValueError:
                cells[f"{r}:{col}"] = cell
    return cells, tuple(header)


def _json_leaves(node, where: str):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_leaves(value, f"{where}/{key}")
    elif isinstance(node, list):
        for n, value in enumerate(node):
            yield from _json_leaves(value, f"{where}/{n}")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield where, float(node)
    else:
        yield where, node


def _file_moves(name: str, old_dir: str, new_dir: str):
    """((largest relative move of a number >= NUMBER_FLOOR, its key), other
    differences) in the artefact called name.

    Numbers are compared at the keys both sides have.  A key on one side
    only is another difference, and so is a CSV column on one side only,
    once per file instead of once per cell.
    """
    worst, other = (0.0, "-"), []
    old, old_cols = _entries(os.path.join(old_dir, name))
    new, new_cols = _entries(os.path.join(new_dir, name))
    for side, cols, theirs in (("old", old_cols, new_cols),
                               ("new", new_cols, old_cols)):
        other.extend(f"{name} column {c}: {side} side only"
                     for c in cols if c not in theirs)
    lone = set(old_cols) ^ set(new_cols)
    old, new = ({k: v for k, v in cells.items() if k.partition(":")[2] not in lone}
                for cells in (old, new))
    for side, cells, theirs in (("old", old, new), ("new", new, old)):
        other.extend(f"{name} {key}: {side} side only"
                     for key in cells if key not in theirs)
    for where, a in old.items():
        b = new.get(where, a)  # a key on one side only is listed above
        if isinstance(a, float) and isinstance(b, float) \
                and math.isfinite(a) and math.isfinite(b):
            scale = max(abs(a), abs(b))
            if scale >= NUMBER_FLOOR and abs(a - b) > worst[0] * scale:
                worst = (abs(a - b) / scale, where)
        elif repr(a) != repr(b):
            # by repr: inf -> 0.5 is a difference, nan -> nan is not
            other.append(f"{name} {where}: {a!r} -> {b!r}")
    return worst, other


def _per_file(old_dir: str, new_dir: str) -> dict:
    """{artefact: _file_moves of it}."""
    return {name: _file_moves(name, old_dir, new_dir) for name in ARTEFACTS}


def _combined(per_file: dict):
    """((largest move over the files, ``file:key``), all other differences)."""
    worst, other = (0.0, "-"), []
    for name, ((move, key), found) in per_file.items():
        if move > worst[0]:
            worst = (move, f"{name}:{key}")
        other.extend(found)
    return worst, other


def _moves(old_dir: str, new_dir: str):
    """((largest relative move of a number >= NUMBER_FLOOR, where), other
    differences) over the five artefacts; where is ``file:key``."""
    return _combined(_per_file(old_dir, new_dir))


def _report(lines: dict, root: str) -> int:
    """Print the per-run lines and the summary for the sweeps whose output
    lines are lines["old"] and lines["new"] and whose run n kept its
    artefacts in root/old/n and root/new/n; 1 when the verdicts of a run
    differ or the sweeps have different numbers of lines, else 0."""
    n_same = n_other = 0
    top = (0.0, "-")
    top_file = dict.fromkeys(ARTEFACTS, (0.0, "-"))
    for n, (old, new) in enumerate(zip(lines["old"], lines["new"])):
        quiver, seed, *_, old_verdicts = old.split()
        same = "same" if new.split()[-1] == old_verdicts else "differ"
        per_file = _per_file(os.path.join(root, "old", str(n)),
                             os.path.join(root, "new", str(n)))
        worst, other = _combined(per_file)
        for name, ((move, key), _) in per_file.items():
            if move > top_file[name][0]:
                top_file[name] = (move, f"{quiver}:{seed}:{key}")
        print(quiver, seed, f"verdicts={same}", f"max_rel={worst[0]:.2e}",
              f"at={worst[1]}", f"other={len(other)}", flush=True)
        for line in other:
            print("   ", line)
        n_same += same == "same"
        n_other += bool(other)
        if worst[0] > top[0]:
            top = (worst[0], f"{quiver}:{seed}:{worst[1]}")
    n_old, n_new = len(lines["old"]), len(lines["new"])
    if n_old != n_new:
        print(f"line counts differ: old {n_old}, new {n_new}; "
              f"the first {min(n_old, n_new)} runs are compared")
    files = ", ".join(f"{name} max_rel={move:.2e} at={where}"
                      for name, (move, where) in top_file.items())
    print(f"summary: verdicts same on {n_same}/{n_new} runs, "
          f"max_rel={top[0]:.2e} at={top[1]}, other differences on {n_other} runs; "
          f"per file: {files}")
    return int(n_same != n_new or n_old != n_new)


def _compare(other_src: str) -> int:
    """Sweep the ``--src`` tree and this one in two processes and compare."""
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"old": os.path.abspath(other_src), "new": os.path.join(ROOT, "src")}
        procs = {side: subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--src", src,
             "--out", os.path.join(tmp, side)], stdout=subprocess.PIPE, text=True)
            for side, src in trees.items()}
        lines = {side: proc.communicate()[0].splitlines() for side, proc in procs.items()}
        if any(proc.returncode for proc in procs.values()):
            print("a sweep failed", file=sys.stderr)
            return 1
        return _report(lines, tmp)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", help="source tree that holds the quiverlim package "
                    "(default: this tree's src)")
    ap.add_argument("--out", help="keep the artefacts of run n in OUT/n")
    ap.add_argument("--compare", action="store_true",
                    help="compare this tree with the --src tree, run by run")
    args = ap.parse_args(argv)
    if args.compare:
        if args.src is None:
            ap.error("--compare needs --src OTHER")
        return _compare(args.src)
    src = args.src or os.path.join(ROOT, "src")
    keep = os.path.abspath(args.out) if args.out else None
    # one BLAS thread: reductions split across threads may round differently
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(src))
    os.chdir(ROOT)
    import quiverlim as ql

    runs = [(q, s) for q in QUIVERS for s in SEEDS] + list(WALL_RUNS)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for n, (quiver, seed) in enumerate(runs):
            out = os.path.join(keep or tmp, str(n))
            report, pl = ql.verify_run(ql.RunConfig(quiver_file=quiver, seed=seed))
            ql.write_outputs(report, pl, out)
            digests = []
            for name in ARTEFACTS:
                with open(os.path.join(out, name), "rb") as fh:
                    digests.append(hashlib.sha256(fh.read()).hexdigest())
            verdicts = "".join("P" if st.passed else "F" for st in report.suites)
            print(quiver, seed, *digests, verdicts, flush=True)
    print(f"sweep of {len(runs)} runs: {time.perf_counter() - start:.2f} s wall time",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
