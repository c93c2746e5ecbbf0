"""Benchmark of quiverlim: verify throughput, with a traced per-layer split.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-presets --seed 0 --seconds 45 --trace 0

One process, one client, closed loop: an op starts only after the previous one
has finished and been checked.  BLAS/OpenMP are pinned to one thread before
numpy is imported.  Ops go in rounds: round r runs one op on every quiver of
the workload at seed ``--seed + r``, so seeds form a contiguous range and every
quiver gets the same number of ops.

An op is verify_run(RunConfig(quiver_file=Q, seed=s)) then write_outputs into
a scratch directory, as ``quiverlim verify --out`` does without the
interpreter start-up.  Its output is checked: all thirteen verdicts present,
the written report agreeing with the returned one, and the warm-up
(quiver, seed) rerun inside the timed loop byte-identical in report.json and
every CSV.  Failed verdicts are counted, not failed ops.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer split
(see tracer.py).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the metric names and units come
from BENCHMARK.json at the checkout root.  The lines before it give every
metric with its unit, per-quiver figures and the environment.
"""

from __future__ import annotations

import os

THREAD_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

from tracer import COUNTERS, LAPACK, SPAN_LAYERS, SUITE_NAMES, Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

PRESETS = ("tstar-p1", "a2-star", "kronecker2", "a3-star")
# D4 first: its op is the warm-up, which every setup_s probe repeats
LARGE = ("bench/quivers/d4_star.json", "bench/quivers/a3_chain.json")

# name -> quivers.  Why each workload exists is recorded in BENCHMARK.json
# and bench/README.md.
WORKLOADS = {
    "verify-presets": PRESETS,
    "verify-large": LARGE,
}

# The tail is read at index n - 11 of the sorted op times; eleven whole rounds
# keep it inside the slowest quiver's ops instead of letting it jump between
# quivers as the op count changes.
MIN_ROUNDS = 11
SETUP_PROBES = 5
OUTPUT_FILES = ("convergence.csv", "dimension_audit.csv", "fingerprints.csv",
                "flow_trace.csv", "report.json")


def import_package():
    """Import quiverlim from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "quiverlim", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"bench: no quiverlim sources at {init}")
    sys.path.insert(0, SRC)
    import quiverlim
    if os.path.abspath(quiverlim.__file__) != init:
        sys.exit(f"bench: imported quiverlim from {quiverlim.__file__}")
    return quiverlim


class Bench:
    """Resolved inputs of one workload plus the ops and their checks."""

    def __init__(self, ql, workload: str, seed: int):
        self.ql = ql
        self.specs = WORKLOADS[workload]
        self.seed = seed
        for spec in self.specs:
            q, dims, central, _ = ql.resolve_quiver_spec(spec)
            if spec.endswith(".json"):
                dim = ql.expected_dimension(q, dims)
                if not ql.is_generic(central, q, dims) or dim <= 0:
                    sys.exit(f"bench: {spec} is not generic with positive "
                             f"expected dimension (dimension {dim})")
        self.reference = None

    def ops(self, first_round: int, rounds: int):
        for r in range(first_round, first_round + rounds):
            for qi, spec in enumerate(self.specs):
                yield qi, spec, self.seed + r

    def run(self, spec: str, seed: int, tracer=None):
        """One op; returns (seconds, result).  Exceptions propagate."""
        ql = self.ql
        os.makedirs(WORK_DIR, exist_ok=True)
        out_dir = tempfile.mkdtemp(dir=WORK_DIR)
        cfg = ql.RunConfig(quiver_file=spec, seed=seed)
        root = None
        if tracer:
            tracer.active = True
            tracer.op_id += 1
            root = tracer.open("bench.verify_op")
        try:
            t0 = time.perf_counter()
            report, pl = ql.verify.verify_run(cfg)
            ql.verify.write_outputs(report, pl, out_dir)
            return time.perf_counter() - t0, (report, out_dir)
        finally:
            if tracer:
                tracer.close(root)
                tracer.active = False

    def attempt(self, spec: str, seed: int, tracer=None):
        """One op and its check: (seconds, problems, failed verdict names,
        verdicts).  Seconds is nan when the op raised.
        """
        try:
            dt, result = self.run(spec, seed, tracer)
        except Exception as exc:  # an op that raises is a failed op
            return math.nan, [f"{type(exc).__name__}: {exc}"], [], 0
        return (dt, *self.check(spec, seed, result))

    def check(self, spec: str, seed: int, result):
        """(problems, failed verdict names, verdicts) for one op's output."""
        report, out_dir = result
        try:
            return self._check_verify(spec, seed, report, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check_verify(self, spec, seed, report, out_dir):
        problems = []
        names = tuple(s.name for s in report.suites)
        if names != SUITE_NAMES:
            problems.append(f"verdicts {names} are not the thirteen suites")
        files = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
        if tuple(files) != OUTPUT_FILES:
            problems.append(f"output files {sorted(files)}")
        else:
            doc = json.loads(files["report.json"])
            written = [(s["name"], s["passed"]) for s in doc["suites"]]
            if written != [(s.name, s.passed) for s in report.suites]:
                problems.append("report.json disagrees with the returned report")
        if (spec, seed) == (self.specs[0], self.seed):
            if self.reference is None:
                self.reference = files
            elif files != self.reference:
                changed = sorted(k for k in set(files) | set(self.reference)
                                 if files.get(k) != self.reference.get(k))
                problems.append(f"rerun of the warm-up op changed {changed}")
        failed = [s.name for s in report.suites if not s.passed]
        return problems, failed, len(report.suites)

    def warm_up(self) -> list[str]:
        """The untimed first op, which also fixes the rerun reference bytes."""
        _qi, spec, seed = next(self.ops(0, 1))
        errs = self.attempt(spec, seed)[1]
        return [f"warm-up {spec} seed {seed}: {e}" for e in errs]


def setup(workload: str, seed: int):
    """Import, resolve the quivers and run the warm-up op: (bench, problems)."""
    bench = Bench(import_package(), workload, seed)
    return bench, bench.warm_up()


def probe_setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to ready, measured on fresh interpreters."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            sys.exit(f"bench: setup probe exited with code {code}")
        times.append(dt)
    return times


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten samples beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return math.nan, math.nan
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n


def run_untraced(workload: str, seed: int, seconds: float):
    setup_times = probe_setup_seconds(workload, seed)
    bench, problems = setup(workload, seed)
    raised = []

    records = []  # (quiver index, op seconds, ok, failed verdicts, verdicts)
    t_end = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < t_end:
        for qi, spec, s in bench.ops(rounds, 1):
            dt, errs, bad, total = bench.attempt(spec, s)
            (raised if math.isnan(dt) else problems).extend(
                f"{spec} seed {s}: {e}" for e in errs)
            records.append((qi, dt, not errs, bad, total))
        rounds += 1

    times = [r[1] for r in records if not math.isnan(r[1])]
    done = sum(1 for r in records if r[2])
    per_quiver = []
    for qi, spec in enumerate(bench.specs):
        mine = [r for r in records if r[0] == qi]
        qt = [r[1] for r in mine if not math.isnan(r[1])]
        bad = Counter(name for r in mine for name in r[3])
        total = sum(r[4] for r in mine)
        per_quiver.append((spec, len(mine),
                           statistics.median(qt) if qt else math.nan,
                           sum(bad.values()) / total if total else None, bad))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"ops-{workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"quivers": list(bench.specs), "seed": seed,
                   "ops": [list(r) for r in records]}, fh)
    tail, pct = percentile_tail(times)
    verdicts = sum(r[4] for r in records)
    metrics = {
        "ops_per_s": (done / sum(times) if times else 0.0, "1/s"),
        "op_s.p50": (statistics.fmean(q[2] for q in per_quiver), "s"),
        "op_s.tail": (tail, "s"),
        "fail_ratio": ((len(records) - done) / len(records), "ratio"),
        "suite_fail_ratio": (sum(len(r[3]) for r in records) / verdicts
                             if verdicts else None, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = [
        f"rounds {rounds}, ops {len(records)} (seeds {seed}..{seed + rounds - 1})",
        "op_s.p50 is the mean over quivers of each quiver's median op time",
        f"op_s.tail is p{pct:.1f} of {len(times)} op times, "
        f"{min(10, len(times) - 1)} beyond it",
        "setup_s runs: " + " ".join(f"{t:.4f}" for t in setup_times),
    ]
    for spec, n, med, sfr, bad in per_quiver:
        extra = "" if sfr is None else f" suite_fail_ratio {sfr:.4f}"
        which = ", ".join(f"{k} x{v}" for k, v in sorted(bad.items()))
        notes.append(f"quiver {spec}: ops {n} median {med:.4f} s{extra}"
                     + (f" (failed: {which})" if which else ""))
    notes += [f"raised: {r}" for r in raised[:20]]
    return metrics, notes, problems, len(records), len(records) - done


def run_traced(workload: str, seed: int, seconds: float):
    bench, problems = setup(workload, seed)
    raised = []
    tracer = Tracer()
    attempted = failed = 0
    plain_s, traced_s, summaries, counts, cover = [], [], [], [], []

    def one_pass(traced: bool) -> float:
        nonlocal attempted, failed
        total = 0.0
        for _qi, spec, s in bench.ops(0, 1):
            dt, errs, _bad, _total = bench.attempt(spec, s,
                                                   tracer if traced else None)
            attempted += 1
            failed += bool(errs)
            (raised if math.isnan(dt) else problems).extend(
                f"{spec} seed {s}: {e}" for e in errs)
            if not math.isnan(dt):
                total += dt
        return total

    t_end = time.perf_counter() + seconds
    while len(traced_s) < 2 or time.perf_counter() < t_end:
        plain_s.append(one_pass(False))
        tracer.install()
        tracer.counts.clear()
        lo = tracer.span_count()
        try:
            traced_s.append(one_pass(True))
        finally:
            tracer.uninstall()
        summary = tracer.summarize(lo, tracer.span_count())
        summaries.append(summary)
        counts.append(dict(tracer.counts))
        covered = summary.get("verify.write_outputs", {}).get("incl_s", 0.0)
        covered += sum(v["incl_s"] for k, v in summary.items()
                       if k.startswith("verify.suite."))
        cover.append(covered / summary["bench.verify_op"]["incl_s"])
    if any(c != counts[0] for c in counts[1:]):
        problems.append("deterministic counts differ between traced passes")

    def med(name, field):
        return statistics.median(s.get(name, {}).get(field, 0.0)
                                 for s in summaries)

    metrics = {}
    spanned = [f"{layer}.{fn}" for layer, (_mod, fns) in SPAN_LAYERS.items()
               for fn in fns] + [f"lapack.{fn}" for fn in LAPACK]
    for name in spanned:
        metrics[f"{name}.calls"] = (summaries[0].get(name, {}).get("calls", 0),
                                    "count")
        metrics[f"{name}.self_s"] = (med(name, "self_s"), "s")
    for suite in SUITE_NAMES:
        metrics[f"verify.suite.{suite}.s"] = (med(f"verify.suite.{suite}",
                                                  "incl_s"), "s")
    metrics["verify.write_outputs.self_s"] = (med("verify.write_outputs",
                                                  "self_s"), "s")
    for key in COUNTERS:
        unit = "B" if key == "verify.bytes_written" else "count"
        metrics[key] = (counts[0].get(key, 0), unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(plain_s), "ratio")

    os.makedirs(OUT_DIR, exist_ok=True)
    import numpy as np
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}.npz")
    np.savez_compressed(spans_path, **tracer.arrays())
    notes = [
        f"traced passes {len(traced_s)}, each {len(bench.specs)} ops "
        f"(seed {seed}); "
        f"{tracer.span_count()} spans written to "
        f"{os.path.relpath(spans_path, ROOT)}",
        "per-pass op seconds untraced: " + " ".join(f"{t:.4f}" for t in plain_s),
        "per-pass op seconds traced:   " + " ".join(f"{t:.4f}" for t in traced_s),
        "calls and counts are per pass and identical across passes; "
        "seconds are the median over passes",
    ]
    notes.append("verify suites + write_outputs cover "
                 f"{100 * statistics.median(cover):.1f}% of traced verify-op time")
    notes += [f"raised: {r}" for r in raised[:20]]
    return metrics, notes, problems, attempted, failed


def environment() -> str:
    import numpy
    import scipy
    pins = ",".join(f"{v}={os.environ[v]}" for v in THREAD_PIN)
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))} threads[{pins}]")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    import_package()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, notes, problems, attempted, failed = runner(
            args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# env {environment()}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:44s} {shown:>14s} {unit}")
    print(f"# output check: {attempted - failed} passed, {failed} failed "
          f"of {attempted} ops")
    for p in problems[:20]:
        print(f"# problem: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
