"""Record the benchmark of the current checkout as BENCH_<n>.json.

Runs ``bench/run.py`` at seed 0 for BENCHMARK.json's ``run_seconds`` on both
of its workloads, with ``--trace 0`` (end-to-end metrics) and ``--trace 1``
(the per-layer split), and writes the final JSON line of each run, with the
environment line and the commit it measured, to BENCH_<n>.json at the
repository root:

    python3 scripts/bench_record.py N      # writes BENCH_N.json

Run it on a committed tree: the record names HEAD and says whether tracked
files differed from it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _bench(workload: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    env = next((line[len("# env "):] for line in out if line.startswith("# env ")), "")
    return {"workload": workload, "seed": 0, "seconds": seconds,
            "trace": trace, "env": env, "result": json.loads(out[-1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("number", type=int, help="n of BENCH_<n>.json")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    runs = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            print(f"{w['name']} trace {trace} ...", file=sys.stderr, flush=True)
            runs.append(_bench(w["name"], bench["run_seconds"], trace))
    record = {"commit": _git("rev-parse", "HEAD"),
              "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
              "runs": runs}
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
