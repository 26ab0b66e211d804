"""The ``/trace/<trace_id>`` lifecycle-reconstruction endpoint."""

import json

import pytest

from repro.sentinel import Sentinel
from tests.monitor.helpers import fetch


@pytest.fixture()
def system():
    system = Sentinel(name="traced-monitor")
    yield system
    system.close()


def test_trace_endpoint_reconstructs_one_lifecycle(system):
    monitor = system.monitor()
    system.explicit_event("e")
    system.rule("r", "e", action=lambda occ: None)
    occurrence = system.raise_event("e")
    status, body = fetch(f"{monitor.url}/trace/{occurrence.trace_id}")
    assert status == 200
    data = json.loads(body)
    assert data["trace_id"] == occurrence.trace_id
    assert data["events"] >= 2
    assert data["trees"], "expected at least one span tree"
    assert "notify" in data["rendered"] or "rule" in data["rendered"]


def test_unknown_trace_is_404(system):
    monitor = system.monitor()
    status, body = fetch(f"{monitor.url}/trace/deadbeefdeadbeef")
    assert status == 404
    assert "deadbeefdeadbeef" in json.loads(body)["error"]


def test_no_trace_processor_is_404(system):
    monitor = system.monitor(spans=False)
    status, __ = fetch(f"{monitor.url}/trace/abc")
    assert status == 404


def test_root_lists_the_endpoint(system):
    monitor = system.monitor()
    __, body = fetch(f"{monitor.url}/")
    assert "/trace/<trace_id>" in json.loads(body)["endpoints"]


def test_metrics_exposition_includes_stage_histograms(system):
    from tests.monitor.helpers import assert_valid_exposition

    monitor = system.monitor()
    system.explicit_event("e")
    system.raise_event("e")
    status, body = fetch(f"{monitor.url}/metrics")
    assert status == 200
    types = assert_valid_exposition(body)
    assert types.get("sentinel_stage_latency_ms") == "histogram"
    assert 'stage="ingest"' in body
