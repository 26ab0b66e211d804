"""Run one workload: set up, time the window, check, tear down."""

from __future__ import annotations

import resource
import time
from pathlib import Path

from .measure import MIN_SLICES, Tracer, run_window, summary
from .workloads import WORKLOADS, fresh

#: a traced run repeats the workload at a quarter of its length
TRACED_SHARE = 0.25


def run_workload(name: str, seed: int, seconds: float, workdir: Path,
                 out_dir: Path, scale: float = 1.0, quick: bool = False,
                 tracer: Tracer | None = None) -> dict:
    """One untraced (or, with ``tracer``, spanned) pass of ``name``.

    The pass is split into the workload's ``rounds``: each builds the
    system again from an empty directory (timed: ``setup_s``), drives
    its share of the window, checks the outputs and tears down, so the
    set-up samples are spread over the run and no figure rests on one
    instance. Teardown is timed on its own, on the last round, and is in
    neither ``setup_s`` nor the window. ``quick`` runs one round with one
    set-up and kills a server instead of draining it.
    """
    cls = WORKLOADS[name]
    rounds = 1 if quick else cls.rounds
    setups, rates, medians, latencies, errors = [], [], [], [], []
    attempted = mismatches = 0
    window_s = teardown_s = 0.0
    for round_index in range(rounds):
        workload = None
        last = round_index == rounds - 1
        try:
            setups.append([])
            for _ in range(1 if quick else cls.setups_per_round):
                if workload is not None:
                    workload.teardown(quick=True)
                fresh(workdir)
                workload = cls(seed * 64 + round_index, workdir, scale,
                               tracer, out_dir)
                start = time.perf_counter()
                workload.setup()
                setups[-1].append(time.perf_counter() - start)

            def mark(edge: str) -> None:
                tracer.edges[edge] = (
                    time.perf_counter_ns(), workload.stage_totals()
                )

            window = run_window(
                workload, seconds / rounds, -(-MIN_SLICES // rounds),
                mark if tracer is not None else None,
            )
            workload.finish()
            checks = workload.check()
        finally:
            if workload is not None:
                teardown_s = workload.teardown(quick=quick or not last)
        rates.append(window["rates"])
        medians.append(window["medians"])
        latencies += window["latencies"]
        window_s += window["window_s"]
        attempted += workload.attempted
        mismatches += checks["mismatches"]
        errors += workload.errors
    failed = min(attempted, len(errors) + mismatches)
    latencies.sort()
    return {
        "why": cls.why,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "metrics": {
            "ops_per_s": summary(rates, "1/s", "higher"),
            "op_p50_us": summary(medians, "us", "lower"),
            "setup_s": summary(setups, "s", "lower"),
        },
        "diagnostics": {
            # a percentile is reported only with ten samples beyond it
            "op_p99_us": latencies[len(latencies) * 99 // 100] / 1e3
            if len(latencies) >= 1000 else None,
            "teardown_s": teardown_s,
            "peak_rss_mb":
                resource.getrusage(cls.rusage_who).ru_maxrss / 1024,
            "window_s": window_s,
            "window_ops": len(latencies) * cls.ops_per_call,
            "calls": len(latencies),
            "slice_ops": workload.slice_ops,
            "rounds": rounds,
        },
        "slices": {"ops_per_s": rates, "op_p50_us": medians, "setup_s": setups},
        "checks": checks,
        "errors": errors[:5],
    }


def run_traced(name: str, seed: int, seconds: float, workdir: Path,
               out_dir: Path, scale: float = 1.0) -> dict:
    """The traced pass of ``name``: an untraced reference and a spanned
    repeat, both at a quarter length, and the layer table between them."""
    seconds, scale = seconds * TRACED_SHARE, scale * TRACED_SHARE
    reference = run_workload(
        name, seed, seconds, workdir, out_dir, scale, quick=True
    )
    tracer = Tracer()
    traced = run_workload(
        name, seed, seconds, workdir, out_dir, scale, quick=True, tracer=tracer
    )
    (since_ns, before), (until_ns, after) = (
        tracer.edges["start"], tracer.edges["end"]
    )
    window_ms = (until_ns - since_ns) / 1e6
    stages = {
        stage: (count - before.get(stage, (0, 0.0))[0],
                total - before.get(stage, (0, 0.0))[1])
        for stage, (count, total) in after.items()
    }
    spans = tracer.self_times(since_ns, until_ns)
    rows = layer_rows(name, spans, stages)
    accounted = sum(ms for _, _, ms in rows)
    rows.append(("residual (generator + tracer)", 0, window_ms - accounted))
    untraced = reference["metrics"]["ops_per_s"]["median"]
    traced["trace"] = {
        "window_ms": window_ms,
        "layers": [
            {"layer": layer, "calls": calls, "total_ms": ms,
             "share": ms / window_ms}
            for layer, calls, ms in rows
        ],
        "residual_share": (window_ms - accounted) / window_ms,
        "untraced_ops_per_s": untraced,
        "traced_ops_per_s": traced["metrics"]["ops_per_s"]["median"],
        "overhead_share":
            1.0 - traced["metrics"]["ops_per_s"]["median"] / untraced,
        "spans": {span: {"calls": c, "self_ms": ms}
                  for span, (c, ms) in sorted(spans.items())},
        "stages": {stage: {"count": c, "total_ms": ms}
                   for stage, (c, ms) in stages.items()},
    }
    traced["failed"] += reference["failed"]
    traced["correct"] = traced["correct"] and reference["correct"]
    traced["spans"] = tracer.spans
    return traced


def layer_rows(name: str, spans: dict, stages: dict) -> list:
    """``(layer, calls, total_ms)`` rows that partition the traced
    window. Benchmark-side spans give each facade or client call's time;
    the program's stage histograms split what happened inside them:
    ``ingest`` covers a whole notify (detection and the rule cascade),
    ``detect`` the graph propagation, ``condition``/``action``/``commit``
    the scheduler. What no row claims is the residual."""

    def span(*names):
        found = [spans[n] for n in names if n in spans]
        return sum(c for c, _ in found), sum(ms for _, ms in found)

    def stage(*names):
        found = [stages[n] for n in names if n in stages]
        return sum(c for c, _ in found), sum(ms for _, ms in found)

    ingest, detect = stage("ingest"), stage("detect")
    schedule = stage("condition", "action", "commit")
    engine = [
        ("core.detect (stage detect)", *detect),
        ("core.schedule (stages condition+action+commit)", *schedule),
        ("core.dispatch+telemetry (stage ingest less the two above)",
         ingest[0], ingest[1] - detect[1] - schedule[1]),
    ]
    if name == "txn.persistent":
        flush = stage("wal_flush")
        ends = span("transactions.commit", "transactions.abort")
        return [
            ("transactions.begin", *span("transactions.begin")),
            ("oodb.lookup", *span("oodb.lookup")),
            ("core.method_event (2 notifies + rules)", *span("core.method_event")),
            ("oodb.mark_dirty", *span("oodb.mark_dirty")),
            ("transactions.commit+abort (less WAL flush)",
             ends[0], ends[1] - flush[1]),
            ("storage.wal_flush (program histogram)", *flush),
        ]
    if name.startswith("serve."):
        calls = span("serving.raise_event", "serving.notify_batch")
        rows = engine + [
            ("serving (client call less server ingest: codec, socket, "
             "session, quota)", calls[0], calls[1] - ingest[1]),
        ]
        if "serving.detections" in spans:
            rows.append(("serving.detections (poll)", *span("serving.detections")))
        return rows
    facade = span("core.notify", "core.raise_event",
                  "transactions.begin", "transactions.commit")
    rows = engine + [
        ("facade (event + transaction calls outside stage ingest)",
         facade[0], facade[1] - ingest[1]),
    ]
    if name == "rules.churn":
        rows.append(("snoop+rules (watch + unwatch)",
                     *span("snoop.watch", "snoop.unwatch")))
        rows.append(("core.detections (poll)", *span("core.detections")))
    return rows
