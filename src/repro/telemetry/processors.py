"""Telemetry processors: the built-in consumers of trace events.

* :class:`CounterProcessor` — a metrics registry of counters and
  duration histograms plus the lifecycle-stage view over them
  (:data:`STAGES`), some of its counters read straight from the
  engine; the ``health()["latency"]`` percentiles and most
  :meth:`~repro.sentinel.Sentinel.report` counters are read from it.
* :class:`TraceLogProcessor` — a ring buffer of trace events plus a
  text renderer that rebuilds the span tree (CLI ``trace``).

A processor consumes emissions in one of two ways (or both). A
*recording* processor defines ``handle(event)`` and receives the frozen
:class:`~repro.telemetry.events.TraceEvent` — of every class, or of the
classes named in ``subscriptions``. An *aggregator*
(:class:`Aggregator`) publishes ``reducers()`` — per event class, a
function of ``(fields, duration_ms)`` — and never causes an event
object to be built: the hub materialises one per emission only when a
recording processor will keep it.

Processors are synchronous and must be cheap; the hub contains their
failures, but a slow processor still slows the instrumented paths.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from functools import partial
from typing import Callable, Iterable, Optional

from repro.telemetry.events import (
    ALL_EVENT_TYPES,
    BatchIngested,
    BufferEviction,
    ChannelMessage,
    ConditionEvaluated,
    DetachedDispatch,
    DetachedOverflow,
    DetachedQueueWait,
    GlobalDetectionDelivered,
    GlobalEventReceived,
    GlobalEventSent,
    NotificationReceived,
    RuleExecution,
    SubtransactionBoundary,
    TraceEvent,
    TransactionSpan,
    WalFlush,
)

#: ``reduce(fields, duration_ms)``: ``fields`` holds the emission's
#: stage-specific fields with the event class's defaults filled in;
#: ``duration_ms`` is 0.0 for point events.
Reducer = Callable[[dict, float], None]

#: canonical lifecycle stages of the paper's Notify → detect → condition
#: → action → commit chain, in pipeline order (a public contract)
STAGES = ("ingest", "detect", "condition", "action", "action_async",
          "commit", "detached_wait", "wire")


def action_time(duration_ms: float, condition_ms: float,
                commit_ms: float) -> float:
    """A rule execution's action time: what is left of its duration
    after the condition and commit phases, never below zero."""
    action_ms = duration_ms - condition_ms - commit_ms
    return action_ms if action_ms > 0.0 else 0.0


class TelemetryProcessor:
    """Base class: by default, receives every event the hub emits."""

    #: the event classes ``handle`` wants; None means all of them
    subscriptions: Optional[tuple[type[TraceEvent], ...]] = None

    def handle(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def reducers(self) -> dict[type[TraceEvent], Reducer]:
        """Per event class, a function fed without building an event."""
        return {}

    def close(self) -> None:
        """Release resources (files, sockets); the default has none."""


class Aggregator(TelemetryProcessor):
    """A processor that only folds emissions into running totals.

    Subclasses fill ``self._reducers`` at construction, binding every
    counter and histogram they touch there, so an emission costs the
    arithmetic and nothing else.
    """

    subscriptions = ()

    def __init__(self) -> None:
        self._reducers: dict[type[TraceEvent], Reducer] = {}

    def reducers(self) -> dict[type[TraceEvent], Reducer]:
        return self._reducers

    def handle(self, event: TraceEvent) -> None:
        """Reduce a ready-made event (replayed logs, unit tests)."""
        reduce = self._reducers.get(type(event))
        if reduce is not None:
            reduce(vars(event), event.duration_ms)


# =========================================================================
# Metrics registry
# =========================================================================

class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Reading:
    """A counter the engine keeps itself; ``value`` reads it on demand.

    Registered with :meth:`MetricsRegistry.read`, it lists and renders
    like a :class:`Counter` but costs nothing per event and cannot be
    dropped by a failing delivery.
    """

    __slots__ = ("name", "_read")

    def __init__(self, name: str, read: Callable[[], int]):
        self.name = name
        self._read = read

    @property
    def value(self) -> int:
        return self._read()

    def __repr__(self) -> str:
        return f"Reading({self.name}={self.value})"


class Histogram:
    """Latency summary: count/total/min/max plus octave buckets.

    Stages span five orders of magnitude (a notify costs microseconds,
    a detached-queue wait tens of milliseconds), so the buckets double
    from 1 µs to ~16.8 s: a percentile estimate is within 2x.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    #: upper bounds (ms), 0.001 · 2^i; one bucket past the last overflows
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

    @classmethod
    def merged(cls, name: str, parts: Iterable["Histogram"]) -> "Histogram":
        """One histogram holding every sample of ``parts``; the shared
        bounds make the bucket-wise sum exact."""
        merged = cls(name)
        for part in parts:
            merged.count += part.count
            merged.total += part.total
            merged.min = min(merged.min, part.min)
            merged.max = max(merged.max, part.max)
            merged.buckets = [a + b for a, b in zip(merged.buckets, part.buckets)]
        return merged

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``0 < q <= 1``), estimated from buckets.

        Returns the upper bound of the bucket holding the target rank,
        clamped to the observed maximum, so the estimate never exceeds
        any value actually recorded.
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
            "total_ms": round(self.total, 3),
            "mean_ms": round(self.mean, 4),
            "min_ms": round(self.min, 4) if self.count else 0.0,
            "max_ms": round(self.max, 4),
            "p50_ms": round(self.percentile(0.50), 4),
            "p95_ms": round(self.percentile(0.95), 4),
            "p99_ms": round(self.percentile(0.99), 4),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3f}ms)"


class MetricsRegistry:
    """A flat namespace of named counters and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter | Reading] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def read(self, name: str, read: Callable[[], int]) -> Reading:
        """Publish a counter kept elsewhere under ``name``."""
        reading = self.counters[name] = Reading(name, read)
        return reading

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        return histogram

    def value(self, name: str, default: int = 0) -> int:
        """A counter's current value (``default`` if never incremented)."""
        counter = self.counters.get(name)
        return counter.value if counter is not None else default

    def to_dict(self) -> dict:
        """Every metric that has counted something (aggregators bind
        theirs up front, long before the first emission)."""
        return {
            "counters": {
                n: c.value for n, c in sorted(self.counters.items()) if c.value
            },
            "histograms": {
                n: h.summary()
                for n, h in sorted(self.histograms.items()) if h.count
            },
        }


class _CounterFamily(dict):
    """``<prefix><label>`` counters, bound on first sight of a label."""

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self._registry = registry
        self._prefix = prefix

    def __missing__(self, label: str) -> Counter:
        counter = self[label] = self._registry.counter(
            f"{self._prefix}{label}"
        )
        return counter


# =========================================================================
# Built-in processors
# =========================================================================

class CounterProcessor(Aggregator):
    """Aggregates emissions into a :class:`MetricsRegistry`.

    Every counter the per-module stats objects (``DetectorStats``,
    ``SchedulerStats``, ...) maintain has a named equivalent here (see
    ``tests/telemetry/test_parity``). Most are derived from the
    emissions; the ones the engine already counts per notification,
    detection or trigger — ``detector.notifications``,
    ``detector.suppressed``, ``graph.detections``,
    ``graph.detections.<ctx>`` and ``rules.triggers`` — are read from it
    instead (:meth:`read_engine`), so ``NotificationSuppressed``,
    ``Detection`` and ``RuleTriggered`` are not reduced at all.
    Condition counts and times come from ``RuleExecution``'s
    ``condition_ms``, not from ``ConditionEvaluated`` spans. The
    durations of the built-in span classes land in per-class histograms
    (``notify.ms``, ``rule.ms``, ``wal.flush.ms``, ...), and
    :attr:`stages` reads them as the lifecycle stages of
    :data:`STAGES`. Each event class has one reducer, so every duration
    is observed once. An aggregator: no event object is built on its
    account.
    """

    def __init__(self) -> None:
        super().__init__()
        self.registry = registry = MetricsRegistry()
        counter = registry.counter
        histogram = registry.histogram
        # A stage fed by one span class shares that class's registry
        # histogram; ``ingest`` (two classes) is summed when read.
        shared = {"detect": "propagate.ms", "condition": "condition.ms",
                  "wire": "wire.ms"}
        self._ingest = (histogram("notify.ms"), histogram("batch.ms"))
        self._stages = {
            stage: histogram(shared[stage]) if stage in shared
            else Histogram(stage)
            for stage in STAGES if stage != "ingest"
        }
        observe_notify = self._ingest[0].observe
        observe_batch = self._ingest[1].observe
        observe_condition = histogram("condition.ms").observe
        observe_rule = histogram("rule.ms").observe
        observe_action = self._stages["action"].observe
        observe_action_async = self._stages["action_async"].observe
        observe_commit = self._stages["commit"].observe
        raises = counter("detector.raises")
        matched = counter("detector.matched")
        batches = counter("detector.batches")
        overflows = counter("detached.overflows")
        overflows_by_policy = _CounterFamily(registry, "detached.overflows.")
        subtransactions = _CounterFamily(registry, "txn.sub_")
        transactions = _CounterFamily(registry, "txn.")
        flushes = counter("wal.flushes")
        records = counter("wal.records")
        received = counter("global.received")
        dropped = counter("global.dropped")
        channel = _CounterFamily(registry, "channel.")
        conditions = counter("rules.conditions_evaluated")
        rule_outcomes = {
            "completed": counter("rules.executions"),
            "rejected": counter("rules.condition_rejections"),
            "failed": counter("rules.failures"),
        }

        def on_notification(fields: dict, duration_ms: float) -> None:
            # Notify calls, armed or not, are read from DetectorStats
            # (read_engine); only explicit raises are counted here.
            if fields["source"] == "explicit":
                raises.value += 1
            matched.value += fields["matched"]
            observe_notify(duration_ms)

        def on_detached_overflow(fields: dict, duration_ms: float) -> None:
            overflows.value += 1
            overflows_by_policy[fields["policy"]].value += 1

        def on_batch(fields: dict, duration_ms: float) -> None:
            batches.value += 1
            if fields["source"] == "explicit":
                raises.value += fields["size"]
            matched.value += fields["matched"]
            observe_batch(duration_ms)

        def on_rule(fields: dict, duration_ms: float) -> None:
            outcome = fields["outcome"]
            counted = rule_outcomes.get(outcome)
            if counted is not None:
                counted.value += 1
            condition_ms = fields["condition_ms"]
            # A rule stopped before its condition (nesting limit, a
            # failing $RULE begin signal) leaves condition_ms at 0.0; a
            # condition that ran, even one that raised, measured time.
            if condition_ms > 0.0 or outcome in ("completed", "rejected"):
                conditions.value += 1
                observe_condition(condition_ms)
            observe_rule(duration_ms)
            commit_ms = fields["commit_ms"]
            action_ms = action_time(duration_ms, condition_ms, commit_ms)
            if fields["lane"] == "async":
                observe_action_async(action_ms)
            else:
                observe_action(action_ms)
            if commit_ms > 0.0:
                observe_commit(commit_ms)

        def on_wal_flush(fields: dict, duration_ms: float) -> None:
            flushes.value += 1
            records.value += fields["records"]

        def on_global_received(fields: dict, duration_ms: float) -> None:
            received.value += 1
            if not fields["known"]:
                dropped.value += 1

        def count(name: str) -> Reducer:
            bound = counter(name)

            def reduce(fields: dict, duration_ms: float) -> None:
                bound.value += 1

            return reduce

        def count_by(family: _CounterFamily, field: str) -> Reducer:
            def reduce(fields: dict, duration_ms: float) -> None:
                family[fields[field]].value += 1

            return reduce

        def wait(stage: str) -> Reducer:
            observe = self._stages[stage].observe
            return lambda fields, duration_ms: observe(fields["wait_ms"])

        # The hot span classes observe their own duration; the other
        # span classes are wrapped by _timed. ConditionEvaluated is not
        # reduced: RuleExecution carries its duration as condition_ms.
        timed: dict[type[TraceEvent], Reducer] = {
            NotificationReceived: on_notification,
            BatchIngested: on_batch,
            RuleExecution: on_rule,
        }
        counted: dict[type[TraceEvent], Reducer] = {
            DetachedDispatch: count("detector.detached_dispatches"),
            DetachedQueueWait: wait("detached_wait"),
            DetachedOverflow: on_detached_overflow,
            SubtransactionBoundary: count_by(subtransactions, "kind"),
            TransactionSpan: count_by(transactions, "outcome"),
            WalFlush: on_wal_flush,
            BufferEviction: count("buffer.evictions"),
            GlobalEventSent: count("global.sent"),
            GlobalEventReceived: on_global_received,
            GlobalDetectionDelivered: count("global.delivered"),
            ChannelMessage: count_by(channel, "kind"),
        }
        for cls in ALL_EVENT_TYPES:
            if cls is ConditionEvaluated:
                continue
            reduce = timed.get(cls)
            if reduce is None:
                reduce = counted.get(cls)
                if cls.is_span:
                    reduce = _timed(histogram(f"{cls.stage}.ms"), reduce)
            if reduce is not None:
                self._reducers[cls] = reduce

    def read_engine(self, detector) -> None:
        """Publish ``detector``'s own notification, suppression,
        detection and trigger counts as ``detector.notifications``,
        ``detector.suppressed``, ``graph.detections``,
        ``graph.detections.<ctx>`` and ``rules.triggers``: read when the
        registry is, never per event. A Notify nothing is armed for
        emits nothing, so only the engine can count it."""
        read = self.registry.read
        graph = detector.graph.stats
        stats = detector.stats
        read("detector.notifications", lambda: stats.notifications)
        read("detector.suppressed", lambda: stats.suppressed)
        read("graph.detections", lambda: graph.detections)
        by_context = graph.detections_by_context
        for context in by_context:
            read(f"graph.detections.{context}",
                 partial(by_context.__getitem__, context))
        read("rules.triggers", lambda: stats.triggers)

    @property
    def stages(self) -> dict[str, Histogram]:
        """Stage name -> histogram, in :data:`STAGES` order; ``ingest``
        (``notify.ms`` plus ``batch.ms``) is summed on each read."""
        return {"ingest": Histogram.merged("ingest", self._ingest),
                **self._stages}

    def percentiles(self) -> dict[str, dict]:
        """Per-stage summaries, omitting stages with no samples."""
        return {s: h.summary() for s, h in self.stages.items() if h.count}

    def prometheus_lines(self, prefix: str = "sentinel") -> list[str]:
        """One labelled histogram family covering every sampled stage."""
        from repro.monitor.prometheus import render_histogram

        family = f"{prefix}_stage_latency_ms"
        lines: list[str] = []
        for stage, hist in self.stages.items():
            if hist.count:
                lines.extend(render_histogram(
                    family, hist, labels={"stage": stage}, declare=not lines,
                ))
        return lines


def _timed(histogram: Histogram, first: Optional[Reducer]) -> Reducer:
    """Run ``first`` (if any), then observe the span's duration."""
    observe = histogram.observe
    if first is None:
        return lambda fields, duration_ms: observe(duration_ms)

    def reduce(fields: dict, duration_ms: float) -> None:
        first(fields, duration_ms)
        observe(duration_ms)

    return reduce


class TraceLogProcessor(TelemetryProcessor):
    """Ring buffer of trace events with a span-tree text renderer.

    The buffer is a fixed-capacity ring: once full, appending a new
    event evicts the oldest one. Spans are emitted on close (children
    before parents), so eviction can orphan an event whose parent span
    closed long ago — orphans render as tree roots rather than
    disappearing. Readers snapshot the buffer exactly once under a
    lock, so rendering while rule threads are still appending never
    sees a half-updated ring.
    """

    def __init__(self, capacity: int = 4096):
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return self._buffer.maxlen or 0

    def handle(self, event: TraceEvent) -> None:
        with self._lock:
            self._buffer.append(event)

    def events(self) -> list[TraceEvent]:
        with self._lock:
            return list(self._buffer)

    def for_trace(self, trace_id: str) -> list[TraceEvent]:
        """The buffered events belonging to one end-to-end trace."""
        return [e for e in self.events() if e.trace_id == trace_id]

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()

    # -- tree rendering ------------------------------------------------------

    def roots(self) -> list[TraceEvent]:
        """Events whose parent is absent from the buffer (tree roots)."""
        pool = self.events()
        present = {e.span_id for e in pool}
        return [
            e for e in pool
            if e.parent_span_id is None or e.parent_span_id not in present
        ]

    def trees(self, events: Optional[Iterable[TraceEvent]] = None) -> list[dict]:
        """The buffered events as parent-linked trees of plain dicts.

        Each node is the event's fields (via
        :func:`~repro.telemetry.events` dataclass introspection) plus
        ``type`` and ``children``; orphans whose parents were evicted
        out of the ring become roots. This is the ``/spans`` endpoint's
        payload and the JSONL exporter's in-memory shape.
        """
        import dataclasses

        pool = self.events() if events is None else list(events)
        children = self._group(pool)

        def node(event: TraceEvent) -> dict:
            data = dataclasses.asdict(event)
            data["type"] = type(event).__name__
            data["stage"] = event.stage
            data["children"] = [
                node(child) for child in children.get(event.span_id, ())
            ]
            return data

        return [node(root) for root in children.get(None, ())]

    def _group(
        self, pool: list[TraceEvent]
    ) -> dict[Optional[int], list[TraceEvent]]:
        """Group one snapshot by parent; evicted parents map to None.

        Works from a single snapshot so the ``present`` set and the
        grouping always agree — grouping against a live ring could file
        a child under a parent that only arrived after the snapshot,
        silently dropping it from the output.
        """
        children: dict[Optional[int], list[TraceEvent]] = {}
        present = {e.span_id for e in pool}
        for event in pool:
            parent = event.parent_span_id
            key = parent if parent in present else None
            children.setdefault(key, []).append(event)
        for siblings in children.values():
            siblings.sort(key=lambda e: e.span_id)
        return children

    def render(self, events: Optional[Iterable[TraceEvent]] = None) -> str:
        """The buffered events as an indented span tree.

        Spans are emitted on close (children first); the tree is rebuilt
        from parent links and printed in start order (span-id order).
        The walk is iterative, so a trace nested thousands of spans deep
        (a long rule cascade filling the whole ring) cannot blow the
        interpreter recursion limit.
        """
        pool = self.events() if events is None else list(events)
        children = self._group(pool)

        lines: list[str] = []
        stack: list[tuple[TraceEvent, int]] = [
            (root, 0) for root in reversed(children.get(None, ()))
        ]
        while stack:
            event, depth = stack.pop()
            duration = (
                f" [{event.duration_ms:.3f}ms]" if event.is_span else ""
            )
            summary = event.summary()
            summary = f" {summary}" if summary else ""
            lines.append(
                f"{'  ' * depth}{event.stage}#{event.span_id}"
                f"{summary}{duration}"
            )
            for child in reversed(children.get(event.span_id, ())):
                stack.append((child, depth + 1))
        return "\n".join(lines) + ("\n" if lines else "")
