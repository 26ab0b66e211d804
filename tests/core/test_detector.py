"""Tests for the local event detector: primitives, routing, flush."""

from dataclasses import dataclass

import pytest

from repro import Reactive, Sentinel, event
from repro.core.detector import LocalEventDetector
from repro.core.reactive import get_current_detector, set_current_detector
from repro.errors import DuplicateEvent, EventError, UnknownEvent
from tests.core.conftest import collect


class TestPrimitiveEvents:
    def test_class_level_event_fires_for_any_instance(self, det):
        node = det.primitive_event("any_price", "Stock", "begin", "set_price")
        fired = collect(det, node)
        det.notify("IBM-object", "Stock", "set_price", "begin", {"price": 1.0})
        det.notify("DEC-object", "Stock", "set_price", "begin", {"price": 2.0})
        assert len(fired) == 2

    def test_instance_level_event_fires_only_for_that_object(self, det):
        class Stock:
            pass

        ibm, dec = Stock(), Stock()
        node = det.primitive_event("ibm_price", ibm, "begin", "set_price")
        fired = collect(det, node)
        det.notify(dec, "Stock", "set_price", "begin")
        assert fired == []
        det.notify(ibm, "Stock", "set_price", "begin")
        assert len(fired) == 1

    def test_method_signature_checked(self, det):
        node = det.primitive_event("e", "Stock", "end", "sell_stock")
        fired = collect(det, node)
        det.notify(None, "Stock", "set_price", "end")  # wrong method
        det.notify(None, "Stock", "sell_stock", "begin")  # wrong modifier
        det.notify(None, "Bond", "sell_stock", "end")  # wrong class
        assert fired == []
        det.notify(None, "Stock", "sell_stock", "end")
        assert len(fired) == 1

    def test_one_invocation_can_fire_class_and_instance_events(self, det):
        class Stock:
            pass

        ibm = Stock()
        any_node = det.primitive_event("any_set", "Stock", "begin", "set_price")
        ibm_node = det.primitive_event("ibm_set", ibm, "begin", "set_price")
        fired_any = collect(det, any_node)
        fired_ibm = collect(det, ibm_node)
        occs = det.notify(ibm, "Stock", "set_price", "begin", {"price": 5.0})
        assert len(occs) == 2
        assert len(fired_any) == 1
        assert len(fired_ibm) == 1
        assert {o.event_name for o in occs} == {"any_set", "ibm_set"}

    def test_event_names_must_be_unique(self, det):
        det.explicit_event("e1")
        with pytest.raises(DuplicateEvent):
            det.primitive_event("e1", "Stock", "end", "m")

    def test_notification_without_matching_node_is_cheap_noop(self, det):
        det.notify(None, "Unknown", "whatever", "end")
        assert det.stats.notifications == 1

    def test_unknown_modifier_rejected_after_counting(self, det):
        with pytest.raises(ValueError):
            det.notify(None, "Stock", "set_price", "sideways")
        assert det.stats.notifications == 1

    def test_occurrence_instance_is_the_object_oid(self, det):
        class Account:
            oid = 77

        target, other = Account(), Account()
        node = det.primitive_event("dep", target, "end", "deposit")
        fired = collect(det, node)
        det.notify(other, "Account", "deposit", "end")
        det.notify(target, "Account", "deposit", "end")
        assert [occ.instance for occ in fired] == [Account.oid]

    def test_instance_event_ignores_an_equal_object(self, det):
        """An instance-level event matches by identity: another object
        that merely compares equal (a dataclass with the same fields)
        does not fire it."""

        @dataclass
        class Stock(Reactive):
            symbol: str

            @event(end="price_set")
            def set_price(self, price):
                return price

        a, b = Stock("IBM"), Stock("IBM")
        assert a == b
        node = det.primitive_event("a_price", a, "end", "set_price")
        fired = collect(det, node)
        previous = get_current_detector()
        set_current_detector(det)
        try:
            b.set_price(price=7)
            assert fired == []
            a.set_price(price=8)
        finally:
            set_current_detector(previous)
        assert [occ.params.value("price") for occ in fired] == [8]

    def test_arguments_are_recorded_atomically(self, det):
        node = det.primitive_event("e", "S", "end", "m")
        fired = collect(det, node)
        det.notify(None, "S", "m", "end", {"n": 3, "obj": [1, 2]})
        params = dict(fired[0].params[0].arguments)
        assert params["n"] == 3
        assert params["obj"] == "[1, 2]"  # complex types via repr


class TestExplicitEvents:
    def test_raise_event_roundtrip(self, det):
        det.explicit_event("alarm")
        fired = collect(det, "alarm")
        det.raise_event("alarm", severity=3)
        assert len(fired) == 1
        assert fired[0].params.value("severity") == 3

    def test_raise_unknown_event_rejected(self, det):
        with pytest.raises(UnknownEvent):
            det.raise_event("ghost")

    def test_raise_non_explicit_event_rejected(self, det):
        det.primitive_event("m_event", "S", "end", "m")
        with pytest.raises(EventError):
            det.raise_event("m_event")


class TestSuppression:
    def test_suppressed_signals_dropped(self, det):
        node = det.explicit_event("e")
        fired = collect(det, node)
        with det.signals_suppressed():
            det.notify(None, "S", "m", "end")
        assert det.stats.suppressed == 1
        det.raise_event("e")
        assert len(fired) == 1

    def test_condition_cannot_trigger_rules(self, det):
        """An event-generating method called from a condition is inert."""
        det.explicit_event("outer")
        inner_node = det.primitive_event("inner", "S", "end", "m")
        inner_fired = collect(det, inner_node)

        def sneaky_condition(occ):
            # would fire 'inner'; a suppressed notify matches nothing
            assert det.notify(None, "S", "m", "end") == []
            return True

        ran = []
        det.rule("sneaky", "outer", condition=sneaky_condition, action=ran.append)
        det.raise_event("outer")
        assert ran  # the rule itself ran
        assert inner_fired == []  # but its condition triggered nothing
        assert det.stats.suppressed == 1


class TestCascades:
    def test_composite_triggered_action_nests_depth_first(self, det):
        for name in ("a", "b", "done"):
            det.explicit_event(name)
        order = []

        def chain(occ):
            order.append("outer")
            det.raise_event("done")
            order.append("outer-end")

        det.rule("outer", (det.event("a") & det.event("b")),
                 context="chronicle", action=chain)
        det.rule("inner", "done", action=lambda occ: order.append("inner"))
        det.raise_event("a")
        det.raise_event("b")
        assert order == ["outer", "inner", "outer-end"]

    def test_higher_priority_runs_first_regardless_of_definition(self, det):
        det.explicit_event("e")
        order = []
        det.rule("low", "e", priority=1, action=lambda occ: order.append("low"))
        det.rule("high", "e", priority=9,
                 action=lambda occ: order.append("high"))
        det.raise_event("e")
        assert order == ["high", "low"]


class TestLateChanges:
    """Graph and rule-base edits take effect on the very next signal."""

    def test_rule_added_after_traffic_fires(self, det):
        det.explicit_event("e")
        det.raise_event("e")
        fired = collect(det, "e")
        det.raise_event("e")
        assert len(fired) == 1

    def test_primitive_registered_after_traffic_routes(self, det):
        det.explicit_event("e")
        det.raise_event("e")
        det.notify(None, "Account", "deposit", "end")
        node = det.primitive_event("dep", "Account", "end", "deposit")
        fired = collect(det, node)
        assert det.notify(None, "Account", "deposit", "end")
        assert len(fired) == 1

    def test_disable_and_enable_take_effect_immediately(self, det):
        det.explicit_event("e")
        hits = []
        det.rule("r", "e", action=hits.append)
        det.raise_event("e")
        det.rules.disable("r")
        det.raise_event("e")
        det.rules.enable("r")
        det.raise_event("e")
        assert len(hits) == 2

    def test_context_activated_after_traffic_detects(self, det):
        from repro.core.contexts import ParameterContext

        node = det.explicit_event("e")
        det.raise_event("e")
        fired = collect(det, "e", context="cumulative")
        det.raise_event("e")
        assert node.detections_by_context == {ParameterContext.CUMULATIVE: 1}
        assert len(fired) == 1


class TestFlush:
    def test_flush_clears_pending_state(self, det):
        det.explicit_event("a")
        det.explicit_event("b")
        fired = collect(det, (det.event('a') & det.event('b')))
        det.raise_event("a")
        det.flush()
        det.raise_event("b")
        assert fired == []

    def test_selective_flush_of_one_expression(self, det):
        for name in ("a", "b", "c", "d"):
            det.explicit_event(name)
        ab = det.define("ab", (det.event('a') & det.event('b')))
        cd = det.define("cd", (det.event('c') & det.event('d')))
        fired_ab = collect(det, ab)
        fired_cd = collect(det, cd)
        det.raise_event("a")
        det.raise_event("c")
        det.flush("ab")
        det.raise_event("b")
        det.raise_event("d")
        assert fired_ab == []  # its pending 'a' was flushed
        assert len(fired_cd) == 1


class TestOneLock:
    def test_shards_is_not_a_parameter(self):
        """One detector is one lock domain; scale-out is separate
        applications joined by the global event detector."""
        with pytest.raises(TypeError):
            LocalEventDetector(shards=2)
        with pytest.raises(TypeError):
            Sentinel(shards=2)


class TestContextCounters:
    def test_detection_disabled_without_rules(self, det):
        det.explicit_event("a")
        det.explicit_event("b")
        node = (det.event('a') & det.event('b'))
        det.raise_event("a")
        det.raise_event("b")
        # No rule ever subscribed: no contexts active, no detections.
        assert det.graph.stats.detections == 0

    def test_counter_decrement_stops_detection(self, det):
        det.explicit_event("a")
        det.explicit_event("b")
        node = (det.event('a') & det.event('b'))
        fired = collect(det, node)
        det.raise_event("a")
        # Disabling the only rule resets the counter to zero.
        rule_name = node.rule_subscribers[0].name
        det.rules.disable(rule_name)
        det.raise_event("b")
        assert fired == []
        assert not node._context_counts  # all counters back to zero

    def test_two_rules_same_context_share_counter(self, det):
        det.explicit_event("a")
        det.explicit_event("b")
        node = (det.event('a') & det.event('b'))
        fired1 = collect(det, node)
        fired2 = collect(det, node)
        det.rules.disable(node.rule_subscribers[0].name)
        det.raise_event("a")
        det.raise_event("b")
        assert fired1 == []
        assert len(fired2) == 1  # counter still 1: detection continues

    def test_multiple_contexts_one_graph(self, det):
        """The same node detects in several contexts simultaneously."""
        det.explicit_event("a")
        det.explicit_event("b")
        node = (det.event('a') & det.event('b'))
        recent = collect(det, node, context="recent")
        cumulative = collect(det, node, context="cumulative")
        det.raise_event("a", n=1)
        det.raise_event("a", n=2)
        det.raise_event("b")
        assert len(recent) == 1
        assert recent[0].params.values("n") == [2]
        assert len(cumulative) == 1
        assert cumulative[0].params.values("n") == [1, 2]


class TestCollectMode:
    def test_collect_mode_records_instead_of_executing(self, det):
        det.explicit_event("e")
        ran = []
        det.rule("r", "e", condition=lambda o: True, action=ran.append)
        det.collect_mode = True
        det.raise_event("e")
        assert ran == []
        assert len(det.collected) == 1
        assert det.collected[0].rule.name == "r"
