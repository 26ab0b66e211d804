"""The shared reporting schema: one module builds every health/report
payload, so the facade, detector and monitor can't drift apart."""

from repro.reporting import (
    detached_queue_health,
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
    system = make_system(shards=4)
    try:
        assert system.health() == system_health(system)
        assert system.detector.health() == detector_health(system.detector)
        assert system.detached.snapshot() == detached_queue_health(
            system.detached
        )
    finally:
        system.close()


def test_system_health_shape():
    system = make_system(shards=4, detached_policy="drop_oldest")
    try:
        health = system.health()
        assert health["healthy"] is True
        assert health["detached_queue"]["policy"] == "drop_oldest"
        shards = health["detector"]["shards"]
        assert shards["count"] == 4 and shards["sharded"] is True
        assert len(shards["per_shard"]) == 4
        assert shards["per_shard"][0]["shard"] == 0
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
    system = make_system(shards=2)
    try:
        text = "\n".join(runtime_metric_lines(system))
        assert 'sentinel_shard_occurrences_total{shard="0"}' in text
        assert 'sentinel_shard_occurrences_total{shard="1"}' in text
        assert "sentinel_shards 2" in text
        assert "sentinel_detached_queue_capacity" in text
        assert "sentinel_detached_queue_submitted_total" in text
    finally:
        system.close()
