"""Typed routes: aggregate-only and recording delivery of one emission.

The hub hands an emission to aggregators as ``(fields, duration_ms)``
and builds the frozen event only when a recording processor will keep
it. Both deliveries must count the same things, fail the same way, and
switch cleanly when processors come and go — including from another
thread while events flow.
"""

import random
import sys
import threading

from repro import Reactive, Sentinel, event
from repro.telemetry import (
    ALL_EVENT_TYPES,
    Aggregator,
    CounterProcessor,
    TelemetryHub,
    TelemetryProcessor,
    TraceLogProcessor,
)
from repro.telemetry.events import (
    DetachedDispatch,
    Detection,
    GraphPropagation,
    NotificationReceived,
    RuleExecution,
    RuleTriggered,
    WalFlush,
)
from repro.telemetry.hub import NOOP_SPAN


class Meter(Reactive):
    @event(end="read")
    def read(self, v):
        return v

    @event(begin="reset_begin", end="reset_end")
    def reset(self):
        return None


def drive(system: Sentinel, seed: int = 11, events: int = 240) -> int:
    """A seeded mix of method events and raises under rules, in
    transactions of 20; returns the number of explicit raises."""
    rng = random.Random(seed)
    system.register_class(Meter)
    system.explicit_event("tick")
    system.explicit_event("tock")
    system.define("tick_tock", "tick >> tock")
    hits = []
    system.rule(
        "even", "tick_tock", context="chronicle",
        condition=lambda o: o.params.value("v") % 2 == 0,
        action=hits.append,
    )
    system.rule("every_read", "Meter_read", action=hits.append)
    meter = Meter()
    raises = 0
    txn = None
    for index in range(events):
        if index % 20 == 0:
            txn = system.begin()
        kind = rng.randrange(4)
        if kind == 0:
            meter.read(rng.randrange(10))
        elif kind == 1:
            meter.reset()
        else:
            system.raise_event("tick" if kind == 2 else "tock",
                               v=rng.randrange(10))
            raises += 1
        if index % 20 == 19:
            system.commit(txn)
    assert hits
    return raises


def stage_counts(system: Sentinel) -> dict:
    return {
        stage: histogram.count
        for stage, histogram in system.metrics.stages.items()
    }


class TestBothDeliveriesAgree:
    def test_counters_and_stage_samples_match(self):
        plain = Sentinel(name="aggregate-only")
        drive(plain)
        recorded = Sentinel(name="recording")
        log = recorded.telemetry.attach(TraceLogProcessor(capacity=100_000))
        drive(recorded)

        plain_dump = plain.metrics.registry.to_dict()
        recorded_dump = recorded.metrics.registry.to_dict()
        assert plain_dump["counters"] == recorded_dump["counters"]
        assert plain_dump["counters"]["rules.triggers"] > 0
        assert stage_counts(plain) == stage_counts(recorded)
        assert {
            name: row["count"]
            for name, row in plain_dump["histograms"].items()
        } == {
            name: row["count"]
            for name, row in recorded_dump["histograms"].items()
        }
        # The recording run really did see full events.
        assert any(isinstance(e, RuleExecution) for e in log.events())
        plain.close()
        recorded.close()

    def test_default_processors_build_no_trace_event(self, monkeypatch):
        """Deterministic guard: with only the default (aggregating)
        processors, an event through a rule constructs no TraceEvent."""
        built = []
        for cls in ALL_EVENT_TYPES:
            original = cls.__init__

            def counting(self, *args, _original=original, **kwargs):
                built.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)

        system = Sentinel(name="no-events")
        system.explicit_event("e")
        fired = []
        system.rule("r", "e", condition=lambda o: True, action=fired.append)
        with system.transaction():
            occurrence = system.raise_event("e")
        assert fired and built == []
        # ... and the emission was still counted and traced.
        assert system.metrics.registry.value("detector.raises") == 1
        assert system.metrics.registry.value("rules.executions") >= 1
        assert occurrence.trace_id is not None

        system.telemetry.attach(TraceLogProcessor())
        system.raise_event("e")
        assert "RuleExecution" in built
        system.close()

    def test_default_system_observes_every_duration_once(self):
        """Guard: one default aggregator, one reducer per event class,
        and the stage rows read the registry's histograms rather than
        keeping second copies of the same samples."""
        system = Sentinel(name="one-aggregator")
        assert system.telemetry.processors == (system.metrics,)
        routes = system.telemetry._routes
        assert routes
        for cls, (reducers, recorders, __) in routes.items():
            assert len(reducers) == 1, cls.__name__
            assert recorders == ()
        drive(system)
        # one batch span
        system.raise_events([("tick", {"v": 2}), ("tock", {"v": 4})])
        histograms = system.report().metrics["histograms"]
        latency = system.health()["latency"]
        assert histograms["batch.ms"]["count"] == 1
        assert latency["ingest"]["count"] == (
            histograms["notify.ms"]["count"] + histograms["batch.ms"]["count"]
        )
        assert latency["detect"]["count"] == histograms["propagate.ms"]["count"]
        assert latency["condition"]["count"] == (
            histograms["condition.ms"]["count"]
        )
        stages = system.metrics.stages
        registry = system.metrics.registry.histograms
        assert stages["detect"] is registry["propagate.ms"]
        assert stages["condition"] is registry["condition.ms"]
        assert stages["wire"] is registry["wire.ms"]
        system.close()


class TestSwitchingDelivery:
    def test_recording_starts_and_stops_with_the_processor(self):
        system = Sentinel(name="mid-stream")
        system.explicit_event("e")
        system.rule("r", "e", action=lambda o: None)
        system.raise_event("e")
        log = system.telemetry.attach(TraceLogProcessor())
        assert log.events() == []
        system.raise_event("e")
        seen = len(log.events())
        assert seen > 0
        assert {type(e) for e in log.events()} >= {
            NotificationReceived, GraphPropagation, Detection,
            RuleTriggered, RuleExecution,
        }
        system.telemetry.detach(log)
        system.raise_event("e")
        assert len(log.events()) == seen
        # Counting never paused.
        assert system.metrics.registry.value("detector.raises") == 3
        system.close()

    def test_span_open_at_attach_is_delivered_on_close(self):
        hub = TelemetryHub()
        hub.attach(CounterProcessor())
        span = hub.span(GraphPropagation, event_name="e", operator="OR")
        log = hub.attach(TraceLogProcessor())
        span.close()
        (recorded,) = log.events()
        assert recorded.span_id == span.span_id
        assert recorded.trace_id == span.trace_id


class TestSubscriptions:
    def test_typed_recorder_sees_only_its_classes(self):
        class OnlyDetections(TelemetryProcessor):
            subscriptions = (Detection,)

            def __init__(self):
                self.seen = []

            def handle(self, event):
                self.seen.append(event)

        hub = TelemetryHub()
        typed = hub.attach(OnlyDetections())
        hub.point(Detection, event_name="e", operator="OR", context="recent")
        hub.point(RuleTriggered, rule_name="r", event_name="e")
        assert [type(e) for e in typed.seen] == [Detection]
        assert hub.point(RuleTriggered, rule_name="r", event_name="e") is None

    def test_unsubscribed_span_is_the_shared_noop(self):
        hub = TelemetryHub()
        hub.attach(CounterProcessor())

        class Private(GraphPropagation):
            pass

        with hub.span(Private, event_name="e", operator="OR") as span:
            assert span is NOOP_SPAN
            assert hub.current_span_id() is None
        assert span.close() == 0.0

    def test_aggregator_only_span_parents_a_typed_recorders_events(self):
        """A span only an aggregator takes is still on the span stack:
        a recorder that names its classes gets a parent id pointing at
        a span it never receives."""
        class OnlyDetections(TelemetryProcessor):
            subscriptions = (Detection,)

            def __init__(self):
                self.seen = []

            def handle(self, event):
                self.seen.append(event)

        hub = TelemetryHub()
        hub.attach(CounterProcessor())
        typed = hub.attach(OnlyDetections())
        with hub.span(WalFlush, records=1) as flush:
            assert hub.current_span_id() == flush.span_id
            hub.point(Detection, event_name="e", operator="OR",
                      context="recent")
        (detection,) = typed.seen
        assert detection.parent_span_id == flush.span_id
        assert detection.trace_id == flush.trace_id

    def test_bare_handle_object_receives_every_class(self):
        class Bare:
            def __init__(self):
                self.seen = []

            def handle(self, event):
                self.seen.append(type(event))

        hub = TelemetryHub()
        bare = hub.attach(Bare())

        class Private(GraphPropagation):
            pass

        hub.point(Detection, event_name="e", operator="OR", context="recent")
        with hub.span(Private, event_name="e", operator="OR"):
            pass
        assert bare.seen == [Detection, Private]

    def test_reducers_receive_class_defaults(self):
        captured = []

        class Capture(Aggregator):
            def __init__(self):
                super().__init__()
                self._reducers[NotificationReceived] = (
                    lambda fields, ms: captured.append(dict(fields))
                )

        hub = TelemetryHub()
        hub.attach(Capture())
        with hub.span(NotificationReceived, class_name="C", method_name="m",
                      modifier="end"):
            pass
        assert captured == [{
            "class_name": "C", "method_name": "m", "modifier": "end",
            "source": "method", "matched": 0,
        }]


class TestFailureIsolation:
    def test_raising_reducer_is_isolated_like_handle(self):
        class Broken(Aggregator):
            def __init__(self):
                super().__init__()
                self._reducers[Detection] = self.explode

            def explode(self, fields, duration_ms):
                raise RuntimeError("reducer bug")

        system = Sentinel(name="broken-reducer")
        system.telemetry.attach(Broken())
        system.explicit_event("e")
        fired = []
        system.rule("r", "e", action=fired.append)
        system.raise_event("e")  # must not raise
        assert fired
        detections = system.metrics.registry.value("graph.detections")
        assert detections > 0
        assert system.telemetry.dropped == detections
        assert isinstance(system.telemetry.last_error, RuntimeError)
        system.close()

    def test_processor_detaching_itself_does_not_skip_the_next(self):
        """Routes are snapshots: mutating the processor set from inside
        a delivery cannot make a later processor miss the event."""
        hub = TelemetryHub()

        class Once(TelemetryProcessor):
            def handle(self, event):
                hub.detach(self)

        hub.attach(Once())
        log = hub.attach(TraceLogProcessor())
        counters = hub.attach(CounterProcessor())
        hub.point(DetachedDispatch, rule_name="r")
        assert len(log.events()) == 1
        assert counters.registry.value("detector.detached_dispatches") == 1
        assert len(hub.processors) == 2


class TestAttachDetachRace:
    def test_hammering_attach_detach_while_events_flow(self):
        system = Sentinel(name="race")
        system.explicit_event("e")
        system.rule("r", "e", action=lambda o: None)
        hub = system.telemetry
        stop = threading.Event()
        errors = []

        def hammer():
            try:
                while not stop.is_set():
                    first = hub.attach(TraceLogProcessor(capacity=16))
                    second = hub.attach(TraceLogProcessor(capacity=16))
                    hub.detach(first)
                    hub.detach(second)
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

        thread = threading.Thread(target=hammer)
        raised = 3000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-delivery, often
        try:
            thread.start()
            for __ in range(raised):
                system.raise_event("e")
        finally:
            stop.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert errors == []
        assert hub.dropped == 0
        assert hub.processors == (system.metrics,)
        registry = system.metrics.registry
        assert registry.value("detector.raises") == raised
        assert registry.value("rules.executions") == raised
        system.close()
