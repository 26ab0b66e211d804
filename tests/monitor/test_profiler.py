"""RuleProfiler: per-rule, per-phase wall-time attribution."""

import time

import pytest

from repro import Reactive, RuleProfiler, Sentinel, event
from repro.errors import RuleExecutionError

from tests.monitor.helpers import assert_valid_exposition


class Stock(Reactive):
    def __init__(self, symbol, price):
        self.symbol = symbol
        self.price = price

    @event(end="price_set")
    def set_price(self, price):
        self.price = price


def run_portfolio(profiler_kwargs=None):
    """The stock example with one deliberately slow rule."""
    system = Sentinel(name="folio")
    profiler = system.telemetry.attach(RuleProfiler(**(profiler_kwargs or {})))
    events = system.register_class(Stock)

    system.rule("SlowAudit", events["price_set"],
                condition=lambda occ: True,
                action=lambda occ: time.sleep(0.02))
    system.rule("FastCheck", events["price_set"],
                condition=lambda occ: occ.params.value("price") > 100,
                action=lambda occ: None)
    system.rule("SlowCondition", events["price_set"],
                condition=lambda occ: time.sleep(0.005) or True,
                action=lambda occ: None)

    stock = Stock("IBM", 50.0)
    for price in (90.0, 120.0):
        with system.transaction():
            stock.set_price(price)
    return system, profiler


class TestStockExampleAttribution:
    def test_names_the_slowest_rule_with_phase_breakdown(self):
        system, profiler = run_portfolio()
        ranked = profiler.slowest(3)
        assert ranked[0].name == "SlowAudit"
        slow = profiler.rules["SlowAudit"]
        assert slow.executions == 2
        # The sleep is in the action: action time dominates.
        assert slow.action.total > slow.condition.total
        assert slow.action.total >= 2 * 20.0 * 0.9
        # Condition-heavy rule attributes to the condition phase.
        cond = profiler.rules["SlowCondition"]
        assert cond.condition.total > cond.action.total
        # Rules ran inside subtransactions: the commit phase was timed.
        assert slow.commit.count == 2
        # FastCheck's condition was false at price 90: one rejection.
        fast = profiler.rules["FastCheck"]
        assert fast.rejections == 1 and fast.executions == 1
        system.close()

    def test_to_dict_carries_all_three_phases(self):
        system, profiler = run_portfolio()
        data = profiler.to_dict()
        by_rule = {entry["rule"]: entry for entry in data["rules"]}
        assert set(by_rule["SlowAudit"]["phases"]) == {
            "condition", "action", "commit"
        }
        assert by_rule["SlowAudit"]["phases"]["action"]["total_ms"] > 0
        # Node attribution: the primitive stock event was detected.
        by_node = {entry["event"]: entry for entry in data["nodes"]}
        assert by_node["Stock_price_set"]["detections"]["recent"] == 2
        assert by_node["Stock_price_set"]["propagations"] == 2
        system.close()

    def test_report_text_shows_phase_breakdown(self):
        system, profiler = run_portfolio()
        text = profiler.report_text()
        lines = text.splitlines()
        # Heaviest first, with a condition | action | commit line each.
        assert lines[1].strip().startswith("SlowAudit:")
        assert "condition" in lines[2]
        assert "action" in lines[2] and "commit" in lines[2]
        system.close()


class TestOutcomes:
    def test_depth_exceeded_is_not_counted_as_a_failure(self):
        """A rule that recurses past the nesting limit: the refused
        innermost run is charged to its caller, in the registry and the
        profiler alike."""
        system = Sentinel(name="recursing")
        profiler = system.telemetry.attach(RuleProfiler())
        system.explicit_event("e")
        system.rule("loop", "e", action=lambda occ: system.raise_event("e"))
        with pytest.raises(RuleExecutionError):
            system.raise_event("e")
        failures = system.report().rules["failures"]
        assert failures > 0
        assert profiler.rules["loop"].failures == failures
        assert ('sentinel_rule_outcomes_total{rule="loop",'
                f'outcome="failed"}} {failures}') in profiler.prometheus_lines()
        system.close()


class TestSlowRuleDetection:
    def test_slow_threshold_records_and_callback(self):
        alerts = []
        system, profiler = run_portfolio(
            {"slow_ms": 10.0, "on_slow": alerts.append}
        )
        assert profiler.rules["SlowAudit"].slow == 2
        assert {r.rule_name for r in profiler.slow_records} == {"SlowAudit"}
        record = profiler.slow_records[0]
        assert record.duration_ms >= 10.0
        assert record.action_ms > record.condition_ms
        assert alerts == list(profiler.slow_records)
        assert "slow executions" in profiler.report_text()
        system.close()

    def test_slow_ring_is_bounded(self):
        system, profiler = run_portfolio({"slow_ms": 10.0, "max_slow": 1})
        assert len(profiler.slow_records) == 1
        system.close()


class TestPrometheusFamilies:
    def test_labelled_outcome_and_phase_families(self):
        system, profiler = run_portfolio()
        text = "\n".join(profiler.prometheus_lines())
        assert ('sentinel_rule_outcomes_total{rule="SlowAudit",'
                'outcome="completed"} 2') in text
        assert ('sentinel_rule_outcomes_total{rule="FastCheck",'
                'outcome="rejected"} 1') in text
        assert ('sentinel_rule_phase_ms_count'
                '{phase="action",rule="SlowAudit"} 2') in text
        assert ('sentinel_node_detections_total{event="Stock_price_set",'
                'context="recent"} 2') in text
        assert_valid_exposition(text)
        system.close()

    def test_empty_profiler_renders_nothing(self):
        assert RuleProfiler().prometheus_lines() == []
