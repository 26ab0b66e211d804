"""Command line of the layer ledger.

``python -m benchmarks.ledger --seed N [--workload NAME] [--traced]
[--out FILE]`` runs the workloads, checks their outputs and prints every
metric by name with its unit. The last line of standard output is one
JSON object; with ``--workload`` it is the per-run result
``BENCHMARK.json`` describes. The exit code is non-zero when any check
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import time
from pathlib import Path

from . import layers
from .runner import run_traced, run_workload
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCHEMA = "ledger/1"
#: --selfcheck runs every workload at this share of its length
SELFCHECK_SCALE = 1 / 50


def _provenance(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "selfcheck": args.selfcheck,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _print_workload(name: str, result: dict) -> None:
    print(f"{name}: {result['why']}")
    for metric, row in result["metrics"].items():
        print(
            f"  {metric:<12} {row['value']:>14.4f} {row['unit']:<4}"
            f" (median {row['median']:.4f}, q1 {row['q1']:.4f},"
            f" q3 {row['q3']:.4f}, n {row['n']})"
        )
    print(
        f"  {'failed_share':<12} {result['failed_share']:>14.6f} ratio"
        f" ({result['failed']} of {result['attempted']} operations)"
    )
    shown = ", ".join(
        f"{key} {value:.3f}" if isinstance(value, float) else f"{key} {value}"
        for key, value in result["diagnostics"].items()
        if value is not None
    )
    print(f"  not gated:   {shown}")
    print(f"  checks:      {json.dumps(result['checks'])}")
    for error in result["errors"]:
        print(f"  error:       {error}")
    trace = result.get("trace")
    if trace is None:
        return
    print(f"  traced window {trace['window_ms']:.1f} ms"
          f"  {'calls':>9} {'total ms':>10} {'share':>7}")
    for row in trace["layers"]:
        print(f"    {row['layer']:<72.72} {row['calls']:>9}"
              f" {row['total_ms']:>10.1f} {row['share']:>7.1%}")
    print(
        f"    tracing overhead {trace['overhead_share']:.1%} "
        f"(traced {trace['traced_ops_per_s']:.1f} vs untraced "
        f"{trace['untraced_ops_per_s']:.1f} ops_per_s)"
    )


def _run_result(result: dict, per_layer: dict | None) -> dict:
    """The per-run object of the BENCHMARK.json contract."""
    if per_layer is None:
        metrics = {
            row["name"]: {
                "value": result["metrics"][row["name"]]["value"],
                "unit": row["unit"],
            }
            for row in SPEC["end_to_end"]
        }
    else:
        trace = result["trace"]
        metrics = dict(per_layer)
        metrics["trace.residual_share"] = {
            "value": trace["residual_share"], "unit": "ratio"}
        metrics["trace.overhead_share"] = {
            "value": trace["overhead_share"], "unit": "ratio"}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _check_schema(document: dict) -> list:
    """What --selfcheck verifies of a result file besides the counts."""
    problems = []
    if document.get("schema") != SCHEMA:
        problems.append("schema tag")
    for key in ("git_sha", "python", "host", "nproc", "seed"):
        if key not in document.get("provenance", {}):
            problems.append(f"provenance.{key}")
    for name in WORKLOADS:
        result = document.get("workloads", {}).get(name)
        if result is None:
            problems.append(f"workload {name} missing")
            continue
        for row in SPEC["end_to_end"]:
            metric = result["metrics"].get(row["name"], {})
            if not {"value", "unit", "median", "q1", "q3", "n",
                    "rounds"} <= set(metric):
                problems.append(f"{name}.{row['name']}")
        if "failed_share" not in result:
            problems.append(f"{name}.failed_share")
    return problems


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="draws every workload's input stream")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: all five)")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="length of each timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass and the per-layer suite")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--out", type=Path, default=None, metavar="FILE",
                        help="write the result file here; server logs and "
                             "spans go beside it")
    parser.add_argument("--selfcheck", action="store_true",
                        help="all five workloads at 1/50 length: counts and "
                             "result-file schema only, no timing")
    args = parser.parse_args(argv)

    scale = 1.0
    if args.selfcheck:
        scale = SELFCHECK_SCALE
        args.seconds *= SELFCHECK_SCALE
        args.workload = None
    names = [args.workload] if args.workload else list(WORKLOADS)
    workdir = ROOT / ".ledger_work" / f"run-{os.getpid()}"
    out_dir = args.out.resolve().parent if args.out else workdir
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": SCHEMA,
        "provenance": _provenance(args),
        "workloads": {},
    }
    spans = {}
    try:
        per_layer = None
        if args.trace:
            per_layer = layers.run_suite(args.seed, workdir / "layers", out_dir)
            document["layers"] = per_layer
            print("per-layer suite:")
            for name, row in per_layer.items():
                print(f"  {name:<38} {row['value']:>14.4f} {row['unit']}")
        for name in names:
            if args.trace:
                result = run_traced(name, args.seed, args.seconds,
                                    workdir / "w", out_dir, scale)
                spans[name] = result.pop("spans")
            else:
                result = run_workload(name, args.seed, args.seconds,
                                      workdir / "w", out_dir, scale,
                                      quick=args.selfcheck)
            document["workloads"][name] = result
            _print_workload(name, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    ok = all(result["correct"] for result in document["workloads"].values())
    if args.selfcheck:
        problems = _check_schema(json.loads(json.dumps(document)))
        for problem in problems:
            print(f"selfcheck: result file lacks {problem}")
        ok = ok and not problems
        print("selfcheck:", "ok" if ok else "FAILED")
    if args.out:
        args.out.write_text(json.dumps(document, indent=1) + "\n")
        if spans:
            span_file = args.out.with_suffix(".spans.jsonl")
            with open(span_file, "w") as sink:
                for name, rows in spans.items():
                    for row in rows:
                        sink.write(json.dumps([name, *row]) + "\n")
    if args.workload:
        last = _run_result(document["workloads"][args.workload], per_layer)
    else:
        last = {
            name: _run_result(result, per_layer)
            for name, result in document["workloads"].items()
        }
    print(json.dumps(last))
    return 0 if ok else 1
