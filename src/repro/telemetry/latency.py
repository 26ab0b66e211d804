"""Log-bucketed stage-latency histograms (HDR-style).

The fixed ten-bucket :class:`~repro.telemetry.processors.Histogram`
is fine for coarse per-stage means, but lifecycle stages span five
orders of magnitude — a wrapped ``notify`` costs ~1 µs while a
detached-queue wait under load is tens of milliseconds — so percentile
estimates need log-spaced buckets dense enough that the relative error
is bounded by the bucket ratio. :class:`LogHistogram` uses power-of-two
bounds from 1 µs to ~16 s (one bucket per octave, ≤2x relative error),
which keeps `observe` a single bisect and the memory per stage at a
few hundred bytes.

:class:`StageLatencyProcessor` maps trace events onto the canonical
lifecycle stages of the paper's Figure 2 chain:

======== ==============================================================
stage    fed by
======== ==============================================================
ingest   ``NotificationReceived`` / ``BatchIngested`` span duration
shard_hop ``ShardHop`` channel-buffering wait
detect   ``GraphPropagation`` span duration (operator DAG cascade)
condition ``ConditionEvaluated`` span duration
action   ``RuleExecution`` duration minus condition and commit phases
action_async same, for rules on the asyncio lane (``lane == "async"``)
commit   ``RuleExecution.commit_ms`` (subtransaction commit)
detached_wait ``DetachedQueueWait`` queue-residency wait
wire     ``WireRequest`` client round-trip duration
======== ==============================================================

Attach it to a hub (``Sentinel(metrics=True)`` does, alongside the
``CounterProcessor``) and the percentiles surface in ``health()`` /
``SystemReport`` and as Prometheus histogram families on ``/metrics``.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.telemetry.events import (
    BatchIngested,
    ConditionEvaluated,
    DetachedQueueWait,
    GraphPropagation,
    NotificationReceived,
    RuleExecution,
    ShardHop,
    WireRequest,
)
from repro.telemetry.processors import Aggregator, Reducer

#: canonical lifecycle stages, in pipeline order
STAGES = (
    "ingest",
    "shard_hop",
    "detect",
    "condition",
    "action",
    "action_async",
    "commit",
    "detached_wait",
    "wire",
)


class LogHistogram:
    """Latency summary with power-of-two buckets from 1 µs to ~16 s.

    Exposes the same attribute surface as
    :class:`~repro.telemetry.processors.Histogram` (``BOUNDS`` /
    ``buckets`` / ``count`` / ``total`` / ``min`` / ``max``), so the
    Prometheus renderer consumes either interchangeably, plus
    :meth:`percentile` estimation from the cumulative buckets.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    #: upper bounds (ms): 0.001 · 2^i for i in 0..24; the last is +inf
    BOUNDS = tuple(0.001 * 2.0 ** i for i in range(25))

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.buckets = [0] * (len(self.BOUNDS) + 1)

    def observe(self, value_ms: float) -> None:
        self.count += 1
        self.total += value_ms
        if value_ms < self.min:
            self.min = value_ms
        if value_ms > self.max:
            self.max = value_ms
        self.buckets[bisect_left(self.BOUNDS, value_ms)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``0 < q <= 1``), estimated from buckets.

        Returns the upper bound of the bucket holding the target rank,
        clamped to the observed maximum — so the estimate never exceeds
        any value actually recorded, and the relative error is bounded
        by the octave bucket ratio (≤2x).
        """
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for bound, count in zip(self.BOUNDS, self.buckets):
            cumulative += count
            if cumulative >= target:
                return min(bound, self.max)
        return self.max

    def summary(self) -> dict:
        return {
            "count": self.count,
            "p50_ms": round(self.percentile(0.50), 4),
            "p95_ms": round(self.percentile(0.95), 4),
            "p99_ms": round(self.percentile(0.99), 4),
            "mean_ms": round(self.mean, 4),
            "max_ms": round(self.max, 4),
        }

    def __repr__(self) -> str:
        return (
            f"LogHistogram({self.name}, n={self.count}, "
            f"p50={self.percentile(0.5):.3f}ms)"
        )


class StageLatencyProcessor(Aggregator):
    """Aggregates emissions into per-stage :class:`LogHistogram`\\ s."""

    def __init__(self) -> None:
        super().__init__()
        self.histograms = {stage: LogHistogram(stage) for stage in STAGES}
        action = self.histograms["action"].observe
        action_async = self.histograms["action_async"].observe
        commit = self.histograms["commit"].observe

        def on_rule(fields: dict, duration_ms: float) -> None:
            commit_ms = fields["commit_ms"]
            action_ms = duration_ms - fields["condition_ms"] - commit_ms
            observe = action_async if fields["lane"] == "async" else action
            observe(action_ms if action_ms > 0.0 else 0.0)
            if commit_ms > 0.0:
                commit(commit_ms)

        def duration(stage: str) -> Reducer:
            observe = self.histograms[stage].observe
            return lambda fields, duration_ms: observe(duration_ms)

        def wait(stage: str) -> Reducer:
            observe = self.histograms[stage].observe
            return lambda fields, duration_ms: observe(fields["wait_ms"])

        self._reducers.update({
            NotificationReceived: duration("ingest"),
            BatchIngested: duration("ingest"),
            GraphPropagation: duration("detect"),
            ConditionEvaluated: duration("condition"),
            RuleExecution: on_rule,
            ShardHop: wait("shard_hop"),
            DetachedQueueWait: wait("detached_wait"),
            WireRequest: duration("wire"),
        })

    def percentiles(self) -> dict[str, dict]:
        """p50/p95/p99 per stage, omitting stages with no samples."""
        return {
            stage: hist.summary()
            for stage, hist in self.histograms.items()
            if hist.count
        }

    def prometheus_lines(self, prefix: str = "sentinel") -> list[str]:
        """One labelled histogram family covering every sampled stage."""
        from repro.monitor.prometheus import render_histogram

        family = f"{prefix}_stage_latency_ms"
        lines: list[str] = []
        declared = False
        for stage in STAGES:
            hist = self.histograms[stage]
            if not hist.count:
                continue
            lines.extend(render_histogram(
                family, hist, labels={"stage": stage},
                declare=not declared,
            ))
            declared = True
        return lines
