#!/usr/bin/env python
"""Run the core benchmark trajectory and/or gate on regressions.

Appends one schema-versioned point per benchmark (BEAST ED-1, ED-2,
RM-1, MP-8, and the serving loopback throughput) to ``BENCH_core.json`` at
the repo root, then optionally compares the latest point of every
benchmark against the median of its history and exits non-zero on
regression beyond the tolerance band.

Usage::

    PYTHONPATH=src python tools/bench_trajectory.py --run
    PYTHONPATH=src python tools/bench_trajectory.py --check
    PYTHONPATH=src python tools/bench_trajectory.py --run --check \\
        --tolerance 3.0

``--tolerance`` is multiplicative ("worse than the median by more than
Nx fails"); the wide default absorbs shared-runner noise while still
catching order-of-magnitude cliffs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench.trajectory import (  # noqa: E402
    CORE_TRAJECTORY,
    QUICK_BENCHMARKS,
    check,
    run_quick,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run", action="store_true",
                        help="run the quick set and append points")
    parser.add_argument("--check", action="store_true",
                        help="gate the latest points against history")
    parser.add_argument("--tolerance", type=float, default=3.0,
                        help="regression band (multiplicative, default 3.0)")
    parser.add_argument("--path", default=str(REPO_ROOT / CORE_TRAJECTORY),
                        help="trajectory file (default BENCH_core.json)")
    parser.add_argument("--only", action="append", default=None,
                        choices=sorted(QUICK_BENCHMARKS),
                        help="restrict --run to named benchmarks")
    args = parser.parse_args(argv)
    if not args.run and not args.check:
        parser.error("nothing to do: pass --run and/or --check")

    if args.run:
        entries = run_quick(args.path, only=args.only)
        for entry in entries:
            print(f"{entry['benchmark']} ({entry['unit']}):")
            for name, value in entry["samples"].items():
                print(f"  {name}: {value:,.2f}")
        print(f"appended {len(entries)} point(s) to {args.path}")

    if args.check:
        regressions = check(args.path, tolerance=args.tolerance)
        if regressions:
            print(f"REGRESSION: {len(regressions)} sample(s) beyond "
                  f"{args.tolerance}x of the trajectory median:")
            for r in regressions:
                print(f"  {r['benchmark']}/{r['sample']}: "
                      f"{r['latest']:,.2f} {r['unit']} vs median "
                      f"{r['median']:,.2f} ({r['ratio']}x worse)")
            return 1
        print(f"trajectory OK (tolerance {args.tolerance}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
