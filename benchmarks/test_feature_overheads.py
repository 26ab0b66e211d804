"""Overheads of the optional features: snapshots, combinators, scopes.

Optional features must be pay-as-you-go; these benchmarks check the
price of turning each one on.
"""

import time

import pytest

from repro.core import conditions as when
from repro.core.detector import LocalEventDetector
from repro.telemetry import CounterProcessor, TraceLogProcessor


class Payload:
    def __init__(self):
        self.a = 1
        self.b = "text"
        self.c = 3.14
        self.d = [1, 2, 3]


@pytest.mark.parametrize("snapshot", [False, True],
                         ids=["plain", "snapshot"])
def test_snapshot_capture_overhead(snapshot, benchmark):
    det = LocalEventDetector()
    det.primitive_event("e", "Payload", "end", "touch",
                        snapshot_state=snapshot)
    det.rule("r", "e", condition=lambda o: True, action=lambda o: None)
    obj = Payload()
    benchmark(lambda: det.notify(obj, "Payload", "touch", "end"))
    det.shutdown()


@pytest.mark.parametrize(
    "kind", ["lambda", "combinator", "composed"],
)
def test_condition_style_overhead(kind, benchmark):
    det = LocalEventDetector()
    det.explicit_event("e")
    if kind == "lambda":
        condition = lambda occ: occ.params.value("n") > 5  # noqa: E731
    elif kind == "combinator":
        condition = when.param_above("n", 5)
    else:
        condition = when.all_of(
            when.param_above("n", 5),
            when.negate(when.param_above("n", 1000)),
        )
    det.rule("r", "e", condition=condition, action=lambda o: None)
    benchmark(lambda: det.raise_event("e", n=10))
    det.shutdown()


@pytest.mark.parametrize("scope", ["public", "private"])
def test_scope_has_no_dispatch_cost(scope, benchmark):
    det = LocalEventDetector()
    det.explicit_event("e")
    det.rule("r", "e", condition=lambda o: True, action=lambda o: None,
             scope=scope, owner="owner" if scope != "public" else None)
    benchmark(lambda: det.raise_event("e"))
    det.shutdown()


@pytest.mark.parametrize(
    "processors", ["none", "counters", "trace", "profiler", "both"],
)
def test_telemetry_overhead(processors, benchmark):
    """Tracing is pay-as-you-go: zero processors = dormant hub."""
    det = LocalEventDetector()
    if processors in ("counters", "both"):
        det.telemetry.attach(CounterProcessor())
    if processors in ("trace", "both"):
        det.telemetry.attach(TraceLogProcessor())
    if processors == "profiler":
        from repro.monitor import RuleProfiler

        det.telemetry.attach(RuleProfiler(slow_ms=1000.0))
    det.explicit_event("e")
    det.rule("r", "e", condition=lambda o: True, action=lambda o: None)
    benchmark(lambda: det.raise_event("e", n=1))
    det.shutdown()


def test_zero_processor_emit_is_near_noop():
    """Guard: an inactive hub must cost only an attribute check.

    Compares a dispatch loop on a plain detector against one whose hub
    was activated and then deactivated (same code paths, dormant
    either way); the inactive-path price is bounded well below the
    cost tracing would add.
    """
    def run(det, n=3000):
        det.explicit_event("e")
        det.rule("r", "e", condition=lambda o: True, action=lambda o: None)
        for __ in range(200):  # warm up
            det.raise_event("e")
        start = time.perf_counter()
        for __ in range(n):
            det.raise_event("e")
        return time.perf_counter() - start

    baseline_det = LocalEventDetector()
    assert not baseline_det.telemetry.active
    baseline = run(baseline_det)
    baseline_det.shutdown()

    toggled_det = LocalEventDetector()
    processor = toggled_det.telemetry.attach(TraceLogProcessor())
    toggled_det.telemetry.detach(processor)
    assert not toggled_det.telemetry.active
    toggled = run(toggled_det)
    toggled_det.shutdown()

    # Both runs use the dormant path; they must be within noise of each
    # other (generous 50% bound — the point is catching accidental
    # always-on tracing, which costs multiples, not percents).
    assert toggled < baseline * 1.5

    # Same budget for the counters, stage-latency histograms and
    # trace-id stamping: the default aggregator attached-then-detached
    # must leave no residual per-dispatch cost (no histogram observes,
    # no occurrence stamping) on the dormant path.
    latency_det = LocalEventDetector()
    processor = latency_det.telemetry.attach(CounterProcessor())
    latency_det.telemetry.detach(processor)
    assert not latency_det.telemetry.active
    latency_off = run(latency_det)
    latency_det.shutdown()
    assert latency_off < baseline * 1.5


def test_metrics_rendering_is_off_the_hot_path(benchmark):
    """/metrics rendering cost falls on the scraper, not rule dispatch.

    Renders a realistically-populated registry; the point is keeping
    exposition assembly cheap enough for aggressive scrape intervals.
    """
    from repro.monitor.prometheus import render_metrics
    from repro.telemetry.processors import MetricsRegistry

    registry = MetricsRegistry()
    for i in range(50):
        registry.counter("graph.detections.recent" if i % 4 == 0
                         else f"stage{i}.count").inc(i)
        registry.histogram(f"stage{i}.ms").observe(float(i) / 7.0)
    text = benchmark(lambda: render_metrics(registry))
    assert "sentinel_stage49_ms_bucket" in text


@pytest.mark.parametrize("named", [False, True], ids=["int", "named-class"])
def test_named_priority_resolution_overhead(named, benchmark):
    det = LocalEventDetector()
    det.explicit_event("e")
    if named:
        det.priorities.define("normal", 5)
        priority = "normal"
    else:
        priority = 5
    for i in range(5):
        det.rule(f"r{i}", "e", condition=lambda o: True, action=lambda o: None,
                 priority=priority)
    benchmark(lambda: det.raise_event("e"))
    det.shutdown()


def test_dispatch_lock_overhead_is_marginal():
    """raise_event adds an activation frame and one uncontended RLock
    acquisition over the inline core (tick + ``node.occur``); gate it
    generously to catch accidental heavy-weighting of the hot path."""
    from repro.core.params import PrimitiveOccurrence

    det = LocalEventDetector()
    det.explicit_event("e")
    det.rule("r", "e", context="recent", action=lambda occ: None)
    node = det.graph.get("e")
    n = 3000

    start = time.perf_counter()
    for k in range(n):
        det.raise_event("e", n=k)
    dispatched = time.perf_counter() - start

    start = time.perf_counter()
    for k in range(n):
        node.occur(PrimitiveOccurrence(
            event_name="e", at=det.clock.tick(), class_name="$EXPLICIT",
            arguments=(("n", k),),
        ))
    raw = time.perf_counter() - start

    det.shutdown()
    assert dispatched < raw * 3 + 0.05, (dispatched, raw)
