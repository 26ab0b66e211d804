"""Prometheus text-exposition rendering from the metrics registry."""

from repro.monitor.prometheus import (
    escape_label,
    format_value,
    render_histogram,
    render_metrics,
    render_registry,
    sanitize,
)
from repro.telemetry.processors import Histogram, MetricsRegistry

from tests.monitor.helpers import assert_valid_exposition


class TestNameHandling:
    def test_sanitize_replaces_invalid_characters(self):
        assert sanitize("rules.executions") == "rules_executions"
        assert sanitize("rule:R-1 x") == "rule_R_1_x"

    def test_sanitize_guards_leading_digit(self):
        assert sanitize("1st") == "_1st"

    def test_escape_label(self):
        assert escape_label('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_format_value(self):
        assert format_value(float("inf")) == "+Inf"
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"


class TestHistogramRendering:
    def test_buckets_are_cumulative_with_inf_overflow(self):
        histogram = Histogram("x")
        histogram.observe(0.02)   # falls in the 0.032 octave
        histogram.observe(0.02)
        histogram.observe(20_000.0)  # beyond the last bound -> +Inf only
        lines = render_histogram("lat_ms", histogram)
        assert lines[0] == "# TYPE lat_ms histogram"
        assert 'lat_ms_bucket{le="0.001"} 0' in lines
        assert 'lat_ms_bucket{le="0.016"} 0' in lines
        assert 'lat_ms_bucket{le="0.032"} 2' in lines
        assert 'lat_ms_bucket{le="16777.216"} 2' in lines
        assert 'lat_ms_bucket{le="+Inf"} 3' in lines
        # 25 octave bounds plus +Inf, then the sum and the count
        assert sum(1 for line in lines if "_bucket{" in line) == 26
        assert "lat_ms_count 3" in lines
        assert any(line.startswith("lat_ms_sum ") for line in lines)

    def test_count_agrees_with_inf_bucket_mid_observe(self):
        """A scrape landing inside observe() — count bumped, bucket not
        yet — still renders a consistent series."""
        histogram = Histogram("x")
        histogram.observe(1.0)
        histogram.count += 1  # observe() stopped before its bucket
        lines = render_histogram("mid_ms", histogram)
        assert 'mid_ms_bucket{le="+Inf"} 1' in lines
        assert "mid_ms_count 1" in lines
        assert_valid_exposition("\n".join(lines))

    def test_labelled_series_share_one_declaration(self):
        h1, h2 = Histogram("a"), Histogram("b")
        h1.observe(1.0)
        h2.observe(2.0)
        lines = render_histogram("f_ms", h1, labels={"rule": "R1"})
        lines += render_histogram("f_ms", h2, labels={"rule": "R2"},
                                  declare=False)
        assert sum(1 for line in lines if line.startswith("# TYPE")) == 1
        assert 'f_ms_bucket{rule="R1",le="+Inf"} 1' in lines
        assert 'f_ms_count{rule="R2"} 1' in lines
        assert_valid_exposition("\n".join(lines))


class TestRegistryRendering:
    def test_counters_get_total_suffix(self):
        registry = MetricsRegistry()
        registry.counter("rules.executions").inc(7)
        lines = render_registry(registry)
        assert "sentinel_rules_executions_total 7" in lines

    def test_context_counters_become_labelled_family(self):
        registry = MetricsRegistry()
        registry.counter("graph.detections").inc(5)
        registry.counter("graph.detections.recent").inc(3)
        registry.counter("graph.detections.cumulative").inc(2)
        text = render_metrics(registry)
        assert "sentinel_graph_detections_total 5" in text
        assert ('sentinel_graph_detections_by_context_total'
                '{context="recent"} 3') in text
        assert ('sentinel_graph_detections_by_context_total'
                '{context="cumulative"} 2') in text
        assert_valid_exposition(text)

    def test_plain_stage_histograms_keep_flat_names(self):
        registry = MetricsRegistry()
        registry.histogram("notify.ms").observe(0.2)
        text = render_metrics(registry)
        assert "sentinel_notify_ms_count 1" in text
        assert_valid_exposition(text)

    def test_extra_lines_are_appended(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        text = render_metrics(registry, extra_lines=["# TYPE x counter",
                                                     "x 1"])
        assert text.endswith("x 1\n")
        assert_valid_exposition(text)

    def test_empty_registry_renders_empty(self):
        assert render_metrics(MetricsRegistry()) == ""
