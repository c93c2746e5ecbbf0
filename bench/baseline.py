"""Cross-check against the hand-taken baseline in ROADMAP.md.

Prints, for every benchmark quiver, the seed-0 ``verify_run`` time (median of
three in-process runs) next to the ROADMAP figure, and the share of failed
suite verdicts over seeds 0-11 with the failing suites named.  Run from the
root of a checkout:

    python3 bench/baseline.py
"""

from __future__ import annotations

import statistics
import sys
import time

from run import LARGE, PRESETS, import_package

# seed-0 verify_run times quoted by ROADMAP.md, in seconds
ROADMAP_S = {"tstar-p1": 0.063, "kronecker2": 0.161, "a2-star": 0.234,
             "a3-star": 0.597, "bench/quivers/a3_chain.json": 2.5}
SEEDS = range(12)
REPEATS = 3


def main() -> int:
    ql = import_package()
    print("| quiver | seed-0 verify_run | ROADMAP | suite_fail_ratio, seeds 0-11 "
          "| failing (seed: suites) |")
    print("|---|---|---|---|---|")
    for spec in PRESETS + LARGE:
        cfg = ql.RunConfig(quiver_file=spec, seed=0)
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            ql.verify_run(cfg)
            times.append(time.perf_counter() - t0)
        failed = total = 0
        where = []
        for seed in SEEDS:
            report, _ = ql.verify_run(ql.RunConfig(quiver_file=spec, seed=seed))
            bad = [s.name for s in report.suites if not s.passed]
            failed += len(bad)
            total += len(report.suites)
            if bad:
                where.append(f"{seed}: {', '.join(bad)}")
        quoted = ROADMAP_S.get(spec)
        print(f"| {spec} | {1e3 * statistics.median(times):.0f} ms | "
              f"{'-' if quoted is None else f'{1e3 * quoted:.0f} ms'} | "
              f"{failed}/{total} = {failed / total:.4f} | "
              f"{'; '.join(where) or '-'} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
