"""The shared reporting schema: one module builds every health/report
payload, so the facade, detector and monitor can't drift apart."""

import threading

from repro import Reactive, event
from repro.reporting import (
    detector_health,
    runtime_metric_lines,
    system_health,
    system_report_dict,
)
from repro.sentinel import Sentinel


def make_system(**kwargs):
    system = Sentinel(name="app", **kwargs)
    system.explicit_event("ev")
    system.rule("r", "ev", action=lambda occ: None)
    system.raise_event("ev")
    return system


def test_health_payloads_come_from_the_schema_module():
    system = make_system()
    try:
        assert system.health() == system_health(system)
        assert system.detector.health() == detector_health(system.detector)
    finally:
        system.close()


def test_system_health_shape():
    system = make_system(detached_policy="drop_oldest")
    try:
        health = system.health()
        assert health["healthy"] is True
        assert health["detached_queue"]["policy"] == "drop_oldest"
        assert set(health["detector"]) == {
            "name", "suppressed", "collect_mode", "rule_errors", "telemetry",
        }
    finally:
        system.close()


class Quote(Reactive):
    @event(end="quoted")
    def quote(self, price):
        return price


def test_suppressed_is_the_engine_count_from_any_thread():
    """A wrapped call inside a condition is suppressed; the monitor's
    /health thread must see that count, not its own thread's flag."""
    system = make_system()
    try:
        system.register_class(Quote)
        quote = Quote()
        system.explicit_event("check")

        def condition(occurrence):
            quote.quote(1.0)
            return True

        system.rule("guarded", "check", condition=condition,
                    action=lambda occ: None)
        system.raise_event("check")
        assert system.detector.stats.suppressed == 1
        seen = []
        reader = threading.Thread(
            target=lambda: seen.append(system.health()), daemon=True,
        )
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive()
        suppressed = seen[0]["detector"]["suppressed"]
        assert type(suppressed) is int and suppressed == 1
        assert system.metrics.registry.value("detector.suppressed") == 1
    finally:
        system.close()


def test_report_dict_matches_schema():
    system = make_system()
    try:
        report = system.report()
        assert report.to_dict() == system_report_dict(report)
    finally:
        system.close()


def test_rule_errors_are_bounded_but_counted_exactly():
    """Every failed activation used to be kept, traceback and all, for
    the life of the process; now the latest few are, and health() still
    counts every one."""
    system = Sentinel(name="app", error_policy="abort_rule", metrics=False)
    try:
        system.explicit_event("ev")

        def fail(occurrence):
            raise ValueError("boom")

        system.rule("bad", "ev", action=fail)
        for _ in range(1000):
            system.raise_event("ev")
        scheduler = system.detector.scheduler
        assert len(scheduler.errors) <= 64
        assert scheduler.stats.failures == 1000
        assert system.health()["detector"]["rule_errors"] == 1000
    finally:
        system.close()


def test_runtime_metric_lines_families():
    system = make_system()
    try:
        text = "\n".join(runtime_metric_lines(system))
        assert "sentinel_shard" not in text
        assert "sentinel_detached_queue_capacity" in text
        assert "sentinel_detached_queue_submitted_total" in text
    finally:
        system.close()
