"""Fingerprint every verify artefact over a fixed set of quivers and seeds.

For each run the script calls ``verify_run`` and ``write_outputs`` and prints
one line: the quiver, the seed, the sha256 of each of the five files, and the
thirteen suite verdicts in suite order as a string of P (passed) and F.
Running it against two source trees and diffing the output checks that a
change leaves every verify artefact byte-identical:

    python3 scripts/verify_sweep.py > new.txt
    python3 scripts/verify_sweep.py --src ../other/src > old.txt
    diff old.txt new.txt

Quiver files are named relative to the repository root, which is also the
working directory of the runs, so the configs (and their digests) match
between trees.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

QUIVERS = ("tstar-p1", "a2-star", "kronecker2", "a3-star",
           "bench/quivers/a3_chain.json", "bench/quivers/d4_star.json")
SEEDS = range(12)
WALL_RUNS = (("a2-wall", 0),)
ARTEFACTS = ("report.json", "dimension_audit.csv", "flow_trace.csv",
             "convergence.csv", "fingerprints.csv")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="source tree that holds the quiverlim package")
    args = ap.parse_args(argv)
    # one BLAS thread: reductions split across threads may round differently
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    os.chdir(ROOT)
    import quiverlim as ql

    runs = [(q, s) for q in QUIVERS for s in SEEDS] + list(WALL_RUNS)
    with tempfile.TemporaryDirectory() as tmp:
        for n, (quiver, seed) in enumerate(runs):
            out = os.path.join(tmp, str(n))
            report, pl = ql.verify_run(ql.RunConfig(quiver_file=quiver, seed=seed))
            ql.write_outputs(report, pl, out)
            digests = []
            for name in ARTEFACTS:
                with open(os.path.join(out, name), "rb") as fh:
                    digests.append(hashlib.sha256(fh.read()).hexdigest())
            verdicts = "".join("P" if st.passed else "F" for st in report.suites)
            print(quiver, seed, *digests, verdicts, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
