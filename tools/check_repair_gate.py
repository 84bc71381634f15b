#!/usr/bin/env python3
"""Repair-beats-rerun gate: incremental repair must cost < 30% of a rerun.

Reads the bench_report.py artifact of bench_fault_overhead and checks

    BM_SelectRepair/repair:1 / BM_SelectRepair/repair:0 < 0.30

on each row's ns_per_op, the median of the run's repetitions. repair:1
reruns the Fagin oracle (n = 2,000 rows, |Q| = 16, 4 participants, one
departed) from the warm selection cache; repair:0 reruns it from a clean
slate. Exits 1 if the ratio reaches the bound or a row is missing.

CI produces the artifact with

    bench_fault_overhead --benchmark_repetitions=5 --benchmark_min_time=0.1 \\
        --benchmark_min_warmup_time=0.05 --benchmark_format=json > raw.json
    python3 tools/bench_report.py raw.json --out bench_fault_overhead.json \\
        --repetitions 5

and then runs

    python3 tools/check_repair_gate.py bench_fault_overhead.json
"""

import argparse
import json
import sys

REPAIR = "BM_SelectRepair/repair:1"
RERUN = "BM_SelectRepair/repair:0"
BOUND = 0.30


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="bench_report.py output JSON")
    args = parser.parse_args()
    with open(args.report) as f:
        kernels = json.load(f)["kernels"]
    missing = [name for name in (REPAIR, RERUN) if name not in kernels]
    if missing:
        print(f"repair gate: rows missing from {args.report}: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 1
    repair = kernels[REPAIR]["ns_per_op"]
    rerun = kernels[RERUN]["ns_per_op"]
    ratio = repair / rerun
    print(f"repair/rerun = {ratio:.3f} (repair {repair:.0f} ns, "
          f"rerun {rerun:.0f} ns, gate < {BOUND:.2f})")
    if ratio >= BOUND:
        print(f"repair gate: repair ({repair:.0f} ns) is {ratio:.0%} of a "
              f"clean-slate rerun ({rerun:.0f} ns); gate is < {BOUND:.0%}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
