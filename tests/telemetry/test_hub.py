"""Hub mechanics: activation, best-effort dispatch, processor failures."""


from repro import Sentinel
from repro.telemetry import (
    CounterProcessor,
    TelemetryHub,
    TelemetryProcessor,
    TraceLogProcessor,
)
from repro.telemetry.events import DetachedDispatch, Detection, RuleTriggered


class Exploding(TelemetryProcessor):
    def __init__(self):
        self.seen = 0

    def handle(self, event):
        self.seen += 1
        raise RuntimeError("processor bug")


class TestActivation:
    def test_inactive_by_default(self):
        hub = TelemetryHub()
        assert not hub.active
        assert hub.point(Detection, event_name="e", operator="OR",
                         context="recent") is None

    def test_attach_detach_toggle_active(self):
        hub = TelemetryHub()
        processor = hub.attach(TraceLogProcessor())
        assert hub.active
        hub.detach(processor)
        assert not hub.active

    def test_span_stack_links_parents(self):
        hub = TelemetryHub()
        log = hub.attach(TraceLogProcessor())
        with hub.span(Detection, event_name="outer", operator="OR",
                      context="recent") as outer:
            assert hub.current_span_id() == outer.span_id
            with hub.span(Detection, event_name="inner", operator="OR",
                          context="recent") as inner:
                assert inner.parent_span_id == outer.span_id
        assert hub.current_span_id() is None
        # Children emit before parents (spans close inside-out).
        names = [e.event_name for e in log.events()]
        assert names == ["inner", "outer"]

    def test_explicit_parent_overrides_stack(self):
        hub = TelemetryHub()
        log = hub.attach(TraceLogProcessor())
        with hub.span(Detection, event_name="outer", operator="OR",
                      context="recent"):
            hub.point(RuleTriggered, parent_id=None, rule_name="r",
                      event_name="e")
        trigger = [e for e in log.events() if isinstance(e, RuleTriggered)]
        assert trigger[0].parent_span_id is None


class TestFailureIsolation:
    def test_failing_processor_never_breaks_rules(self):
        system = Sentinel(name="isolated")
        bad = system.telemetry.attach(Exploding())
        good = system.telemetry.attach(TraceLogProcessor())
        system.explicit_event("e")
        fired = []
        system.rule("r", "e", action=lambda o: fired.append(1))
        system.raise_event("e")  # must not raise
        assert fired == [1]
        assert bad.seen > 0
        assert system.telemetry.dropped == bad.seen
        assert isinstance(system.telemetry.last_error, RuntimeError)
        # The healthy processor saw every event regardless.
        assert good.events()
        system.close()

    def test_dispatch_order_failure_does_not_skip_later_processors(self):
        hub = TelemetryHub()
        hub.attach(Exploding())
        counters = hub.attach(CounterProcessor())
        hub.point(DetachedDispatch, rule_name="r")
        assert counters.registry.value("detector.detached_dispatches") == 1
        assert hub.dropped == 1


class TestRingBuffer:
    def test_capacity_bounds_buffer(self):
        hub = TelemetryHub()
        log = hub.attach(TraceLogProcessor(capacity=8))
        for i in range(50):
            hub.point(Detection, event_name=f"e{i}", operator="OR",
                      context="recent")
        events = log.events()
        assert len(events) == 8
        assert events[-1].event_name == "e49"

    def test_orphaned_children_render_as_roots(self):
        """Events whose parent was evicted still render (as roots)."""
        hub = TelemetryHub()
        log = hub.attach(TraceLogProcessor(capacity=2))
        with hub.span(Detection, event_name="parent", operator="OR",
                      context="recent") as parent:
            hub.point(Detection, event_name="child", operator="OR",
                      context="recent")
        # Buffer now holds [child, parent]; two more points evict both.
        hub.point(Detection, event_name="late0", operator="OR",
                  context="recent", parent_id=parent.span_id)
        hub.point(Detection, event_name="late1", operator="OR",
                  context="recent", parent_id=parent.span_id)
        events = log.events()
        assert [e.event_name for e in events] == ["late0", "late1"]
        # Their parent span is gone from the buffer: both render as roots.
        assert log.roots() == events
        text = log.render()
        assert text.startswith("detect#")
        assert "late0" in text and "late1" in text
