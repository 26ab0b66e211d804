"""Stage-latency histograms: octave buckets, percentiles, exposition."""

from repro.sentinel import Sentinel
from repro.telemetry import STAGES, CounterProcessor, Histogram
from repro.telemetry.events import (
    BatchIngested,
    DetachedQueueWait,
    GraphPropagation,
    NotificationReceived,
    RuleExecution,
    WireRequest,
)
from tests.monitor.helpers import assert_valid_exposition


class TestOctaveHistogram:
    def test_buckets_are_octaves(self):
        h = Histogram("x")
        assert h.BOUNDS[0] == 0.001  # 1 us in ms
        for lo, hi in zip(h.BOUNDS, h.BOUNDS[1:]):
            assert hi == lo * 2.0
        assert len(h.buckets) == 26  # 25 bounds plus the overflow
        assert 16_000.0 < h.BOUNDS[-1] < 17_000.0

    def test_observe_and_summary(self):
        h = Histogram("x")
        for value in (0.5, 1.0, 2.0, 4.0):
            h.observe(value)
        summary = h.summary()
        assert summary["count"] == 4
        assert summary["total_ms"] == 7.5
        assert summary["min_ms"] == 0.5
        assert summary["max_ms"] == 4.0
        assert abs(summary["mean_ms"] - 1.875) < 1e-6
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]

    def test_percentile_bounded_relative_error(self):
        """Octave buckets: a percentile is within 2x of the true value."""
        h = Histogram("x")
        for __ in range(100):
            h.observe(3.0)
        for q in (0.5, 0.95, 0.99):
            estimate = h.percentile(q)
            assert 3.0 <= estimate <= 6.0

    def test_percentile_clamps_to_observed_max(self):
        h = Histogram("x")
        h.observe(5.0)
        assert h.percentile(0.99) == 5.0

    def test_empty_histogram(self):
        h = Histogram("x")
        assert h.percentile(0.5) == 0.0
        summary = h.summary()
        assert summary["count"] == 0
        assert summary["min_ms"] == 0.0 and summary["p99_ms"] == 0.0

    def test_out_of_range_observations_land_in_edge_buckets(self):
        h = Histogram("x")
        h.observe(0.0000001)   # below the 1 us floor
        h.observe(1_000_000.0)  # beyond the top bound
        assert h.count == 2
        assert h.buckets[0] == 1 and h.buckets[-1] == 1


def emit(processor, cls, **fields):
    processor.handle(cls(span_id=1, parent_span_id=None, at=0.0, **fields))


class TestCounterProcessorStages:
    def test_stage_routing(self):
        p = CounterProcessor()
        emit(p, NotificationReceived, duration_ms=1.0, class_name="C",
             method_name="m", modifier="end")
        emit(p, BatchIngested, duration_ms=4.0, size=2)
        emit(p, GraphPropagation, duration_ms=0.5, event_name="e",
             operator="PRIM")
        emit(p, RuleExecution, duration_ms=5.0, rule_name="r",
             coupling="immediate", depth=1, condition_ms=1.0, commit_ms=2.0)
        emit(p, RuleExecution, duration_ms=3.0, rule_name="a",
             coupling="immediate", depth=1, condition_ms=0.5, lane="async")
        emit(p, DetachedQueueWait, rule_name="r", wait_ms=3.0)
        emit(p, WireRequest, duration_ms=9.0, op="raise_event")
        stages = p.percentiles()
        # ingest is the notify and batch spans together
        assert stages["ingest"]["count"] == 2
        assert stages["ingest"]["total_ms"] == 5.0
        assert stages["detect"]["count"] == 1
        # one condition per rule execution, from its condition_ms
        assert stages["condition"]["count"] == 2
        assert stages["condition"]["total_ms"] == 1.5
        assert stages["commit"]["count"] == 1
        # action time excludes the condition and commit slices
        assert stages["action"]["count"] == 1
        assert stages["action"]["max_ms"] <= 2.0
        assert stages["action_async"]["max_ms"] == 2.5
        assert stages["detached_wait"]["max_ms"] == 3.0
        assert stages["wire"]["count"] == 1

    def test_empty_stages_are_omitted(self):
        p = CounterProcessor()
        assert p.percentiles() == {}
        emit(p, WireRequest, duration_ms=1.0, op="ping")
        assert set(p.percentiles()) == {"wire"}

    def test_stage_names_are_the_public_contract(self):
        assert STAGES == (
            "ingest", "detect", "condition", "action", "action_async",
            "commit", "detached_wait", "wire",
        )
        assert tuple(CounterProcessor().stages) == STAGES

    def test_prometheus_exposition_is_valid(self):
        p = CounterProcessor()
        emit(p, NotificationReceived, duration_ms=1.0, class_name="C",
             method_name="m", modifier="end")
        emit(p, DetachedQueueWait, rule_name="r", wait_ms=0.5)
        text = "\n".join(p.prometheus_lines())
        types = assert_valid_exposition(text)
        assert types["sentinel_stage_latency_ms"] == "histogram"
        assert 'stage="ingest"' in text and 'stage="detached_wait"' in text
        assert text.count("# TYPE") == 1


class TestSystemIntegration:
    def test_default_system_populates_stage_histograms(self):
        system = Sentinel(name="latency")
        system.explicit_event("e")
        system.rule("r", "e", action=lambda occ: None)
        system.raise_event("e")
        stages = system.metrics.percentiles()
        assert {"ingest", "detect", "condition", "action"} <= set(stages)
        for summary in stages.values():
            assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
        assert system.health()["latency"] == stages
        assert system.report().metrics["stage_latency"].keys() == stages.keys()
        system.close()

    def test_metrics_disabled_omits_latency(self):
        system = Sentinel(name="bare", metrics=False)
        assert system.metrics is None
        assert system.telemetry.processors == ()
        assert "latency" not in system.health()
        assert system.report().metrics == {}
        system.close()

    def test_runtime_metric_lines_include_the_family(self):
        from repro.reporting import runtime_metric_lines

        system = Sentinel(name="scraped")
        system.explicit_event("e")
        system.raise_event("e")
        text = "\n".join(runtime_metric_lines(system))
        assert "sentinel_stage_latency_ms_bucket" in text
        assert 'stage="ingest"' in text
        system.close()
