"""Trace-context semantics: mint, inherit, adopt, restore.

The hub threads one trace id through an event's whole lifecycle; these
tests pin the ownership rules — a root span mints and owns, nested
work inherits, explicit adoption (detached replay, wire contexts)
restores the prior context on exit — and that occurrences carry the
stamp end to end.
"""

import threading

from repro.core.detector import LocalEventDetector
from repro.sentinel import Sentinel
from repro.telemetry import (
    TelemetryHub,
    TraceLogProcessor,
    new_trace_id,
)
from repro.telemetry.events import (
    ConditionEvaluated,
    Detection,
    GraphPropagation,
)


def make_hub():
    hub = TelemetryHub()
    trace = hub.attach(TraceLogProcessor())
    return hub, trace


class TestMintAndInherit:
    def test_new_trace_ids_are_unique_hex(self):
        ids = {new_trace_id() for __ in range(64)}
        assert len(ids) == 64
        assert all(len(t) == 16 and int(t, 16) >= 0 for t in ids)

    def test_root_span_mints_and_restores(self):
        hub, __ = make_hub()
        assert hub.current_trace_id() is None
        with hub.span(GraphPropagation, event_name="e", operator="p") as span:
            assert span.trace_id is not None
            assert hub.current_trace_id() == span.trace_id
        assert hub.current_trace_id() is None

    def test_nested_span_inherits_the_root_trace(self):
        hub, trace = make_hub()
        with hub.span(GraphPropagation, event_name="e", operator="p") as root:
            with hub.span(ConditionEvaluated, rule_name="r") as child:
                assert child.trace_id == root.trace_id
        a, b = trace.events()
        assert a.trace_id == b.trace_id == root.trace_id

    def test_points_inherit_the_current_trace(self):
        hub, trace = make_hub()
        with hub.span(GraphPropagation, event_name="e", operator="p") as span:
            point = hub.point(Detection, event_name="d", operator="p",
                              context="recent")
        assert point.trace_id == span.trace_id

    def test_point_outside_any_span_has_no_trace(self):
        hub, __ = make_hub()
        point = hub.point(Detection, event_name="d", operator="p",
                              context="recent")
        assert point.trace_id is None

    def test_sibling_roots_get_distinct_traces(self):
        hub, trace = make_hub()
        with hub.span(GraphPropagation, event_name="a", operator="p"):
            pass
        with hub.span(GraphPropagation, event_name="b", operator="p"):
            pass
        a, b = trace.events()
        assert a.trace_id != b.trace_id


class TestExplicitAdoption:
    def test_span_trace_id_kwarg_adopts_and_restores(self):
        """The detached-worker path: replay under the original trace."""
        hub, __ = make_hub()
        foreign = new_trace_id()
        with hub.span(ConditionEvaluated, rule_name="r", trace_id=foreign) as span:
            assert span.trace_id == foreign
            assert hub.current_trace_id() == foreign
        assert hub.current_trace_id() is None

    def test_trace_scope_adopts_trace_and_parent(self):
        """The wire path: server joins the client's trace and span."""
        hub, trace = make_hub()
        foreign = new_trace_id()
        with hub.trace_scope(foreign, parent_span_id=777):
            assert hub.current_trace_id() == foreign
            with hub.span(GraphPropagation, event_name="e", operator="p") as span:
                assert span.trace_id == foreign
                assert span.parent_span_id == 777
        assert hub.current_trace_id() is None
        assert hub.current_span_id() is None
        (event,) = trace.events()
        assert event.trace_id == foreign and event.parent_span_id == 777

    def test_trace_scope_restores_an_enclosing_trace(self):
        hub, __ = make_hub()
        with hub.span(GraphPropagation, event_name="outer", operator="p") as outer:
            with hub.trace_scope(new_trace_id()):
                assert hub.current_trace_id() != outer.trace_id
            assert hub.current_trace_id() == outer.trace_id

    def test_adoption_crosses_threads(self):
        hub, trace = make_hub()
        foreign = new_trace_id()
        done = threading.Event()

        def worker():
            with hub.span(ConditionEvaluated, rule_name="r", trace_id=foreign):
                pass
            done.set()

        threading.Thread(target=worker).start()
        assert done.wait(5.0)
        (event,) = trace.events()
        assert event.trace_id == foreign


class TestOccurrenceStamping:
    def test_raise_event_stamps_occurrences(self):
        det = LocalEventDetector()
        det.telemetry.attach(TraceLogProcessor())
        det.explicit_event("e")
        occurrence = det.raise_event("e")
        assert occurrence.trace_id is not None

    def test_batch_shares_one_trace(self):
        det = LocalEventDetector()
        det.telemetry.attach(TraceLogProcessor())
        det.explicit_event("e")
        occurrences = det.raise_events(["e", "e", "e"])
        traces = {o.trace_id for o in occurrences}
        assert len(traces) == 1 and None not in traces

    def test_dormant_hub_leaves_occurrences_unstamped(self):
        det = LocalEventDetector()
        assert not det.telemetry.active
        det.explicit_event("e")
        assert det.raise_event("e").trace_id is None

    def test_detection_summary_carries_the_originating_trace(self):
        system = Sentinel(name="stamped")
        system.explicit_event("a")
        system.explicit_event("b")
        system.define("ab", "a >> b")
        system.watch("w", "ab")
        first = system.raise_event("a")
        system.raise_event("b")
        (detection,) = system.detections("w")
        assert detection["trace"] == first.trace_id
        assert detection["constituents"][0]["trace"] == first.trace_id
        system.close()

    def test_detached_rule_joins_the_triggering_trace(self):
        system = Sentinel(name="detached-trace")
        trace = system.telemetry.attach(TraceLogProcessor())
        system.explicit_event("e")
        system.rule("r", "e", action=lambda occ: None, coupling="detached")
        occurrence = system.raise_event("e")
        system.wait_detached()
        kinds = {
            type(event).__name__
            for event in trace.for_trace(occurrence.trace_id)
        }
        # The worker-thread execution and its queue wait both joined.
        assert "RuleExecution" in kinds
        assert "DetachedQueueWait" in kinds
        system.close()

    def test_composite_cascade_keeps_one_trace(self):
        system = Sentinel(name="composite-trace")
        trace = system.telemetry.attach(TraceLogProcessor())
        system.primitive_event("p1", "Alpha", "end", "ping")
        system.primitive_event("p2", "Beta", "end", "pong")
        system.define("both", system.event("p1") & system.event("p2"))
        system.watch("w", "both")
        system.notify_batch([
            (None, "Alpha", "ping", "end", {}),
            (None, "Beta", "pong", "end", {}),
        ])
        (detection,) = system.detections("w")
        events = trace.for_trace(detection["trace"])
        kinds = {type(event).__name__ for event in events}
        # Two classes' occurrences meet in one AND: both propagations,
        # the composite detection and the rule share the batch's trace.
        assert "GraphPropagation" in kinds
        assert "Detection" in kinds
        assert "RuleExecution" in kinds
        assert "BatchIngested" in kinds
        system.close()
