"""Compare two ledger result files against the bounds in BENCHMARK.json.

``python benchmarks/ledger/compare.py A.json B.json`` prints one row per
workload and end-to-end metric, reading B against A:

* ``unresolved`` — in either file the best round's figure has no second
  round within the bound of it, so the figure is uncorroborated (the
  issue's "quartiles wider than the bound", read for the statistic the
  ledger reports: each round is an independent set-up and window);
* ``worse`` / ``better`` — B's median is beyond A's by more than the bound;
* ``same`` — within it.

Exits non-zero on any ``worse`` and on a higher ``failed_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """``(verdict, change)``: ``change`` is B's median over A's, less
    one, signed so that a positive change is a worsening."""
    change = b["value"] / a["value"] - 1.0
    if better == "higher":
        change = -change
    for row in (a, b):
        best = row["rounds"]
        if len(best) < 2 or abs(best[1] / best[0] - 1.0) > bound:
            return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    first, second = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    print(f"{'workload':<16} {'metric':<13} {'A':>12} {'B':>12} "
          f"{'worsened':>9} {'bound':>6}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        a, b = first["workloads"].get(name), second["workloads"].get(name)
        if a is None or b is None:
            print(f"{name:<16} missing from {'A' if a is None else 'B'}")
            failed = True
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            outcome, change = verdict(
                a["metrics"][key], b["metrics"][key],
                metric["better"], metric["bound"],
            )
            failed = failed or outcome == "worse"
            print(f"{name:<16} {key:<13} {a['metrics'][key]['value']:>12.4f} "
                  f"{b['metrics'][key]['value']:>12.4f} {change:>+9.1%} "
                  f"{metric['bound']:>6.0%}  {outcome}")
        rose = b["failed_share"] > a["failed_share"]
        failed = failed or rose
        print(f"{name:<16} {'failed_share':<13} {a['failed_share']:>12.6f} "
              f"{b['failed_share']:>12.6f} {'':>9} {'':>6}  "
              f"{'worse' if rose else 'same'}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
