#!/usr/bin/env python
"""Profile one ledger workload under cProfile.

Builds the workload exactly as the layer ledger does (it imports
``benchmarks.ledger.workloads`` and changes nothing there), runs a
fixed number of its operations under ``cProfile``, checks the outputs
against the workload's oracle, and prints the 40 functions with the
largest cumulative time, then the 40 with the largest self time
(``tottime``) — where many cheap calls, like per-emission telemetry,
add up without ever ranking by cumulative time — and last the calls
per operation by ``repro`` subpackage (``core``, ``telemetry``,
``transactions``, ``storage``, ...; ``sentinel`` for the facade
module). A fixed operation count, not a time window, makes two
profiles of the same seed comparable call for call.

Usage::

    python tools/profile_workload.py --workload detect.local --seed 7 \\
        --events 20000

``--events`` counts the workload's operations: events for the
in-process and served workloads, transactions for ``txn.persistent``.
cProfile charges every Python call, so use it to find candidates and
the ledger to measure them.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from benchmarks.ledger.workloads import WORKLOADS, fresh  # noqa: E402

TOP = 40


def profile(name: str, seed: int, events: int) -> str:
    """Set up ``name``, profile ``events`` operations, check the outputs
    and tear down; returns the table to print."""
    with tempfile.TemporaryDirectory(prefix="profile-") as tmp:
        workdir = fresh(Path(tmp) / "w")
        workload = WORKLOADS[name](seed, workdir, out_dir=Path(tmp))
        workload.setup()
        try:
            workload.slice_ops = events
            payload = workload.prepare_slice()
            profiler = cProfile.Profile()
            start = time.perf_counter()
            profiler.enable()
            done = workload.run_slice(payload, [])
            profiler.disable()
            elapsed = time.perf_counter() - start
            workload.finish()
            checks = workload.check()
        finally:
            workload.teardown(quick=True)
    if workload.errors or checks["mismatches"]:
        raise SystemExit(
            f"{name}: {checks['mismatches']} mismatches, "
            f"{len(workload.errors)} failed operations: {workload.errors[:3]}"
        )
    out = io.StringIO()
    out.write(
        f"{name} seed {seed}: {done} operations in {elapsed:.3f} s under "
        f"cProfile ({elapsed / done * 1e6:.1f} us per operation), "
        f"0 mismatches\n"
    )
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats("cumulative").print_stats(TOP)
    stats.sort_stats("tottime").print_stats(TOP)
    out.write(by_package(stats, done))
    return out.getvalue()


def by_package(stats: pstats.Stats, done: int) -> str:
    """Calls per operation by ``repro`` subpackage (a top-level module
    counts as its own row); everything else — the standard library,
    builtins, the workload driver — is one row."""
    marker = f"{os.sep}repro{os.sep}"
    calls: Counter = Counter()
    for (filename, __, __), (__, count, *__) in stats.stats.items():
        __, found, inner = filename.rpartition(marker)
        package = inner.split(os.sep)[0].removesuffix(".py")
        calls[package if found else "(outside repro)"] += count
    total = sum(calls.values())
    lines = [f"calls per operation by repro subpackage ({done} operations)"]
    for package, count in calls.most_common():
        lines.append(f"  {package:<16} {count / done:>9.1f} {count:>12,}")
    lines.append(f"  {'total':<16} {total / done:>9.1f} {total:>12,}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="draws the workload's input stream")
    parser.add_argument("--events", type=int, default=10000,
                        help="operations to run under the profiler")
    args = parser.parse_args(argv)
    if args.events < 1:
        parser.error("--events must be at least 1")
    print(profile(args.workload, args.seed, args.events))
    return 0


if __name__ == "__main__":
    sys.exit(main())
