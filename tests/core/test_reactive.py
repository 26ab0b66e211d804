"""Tests for the REACTIVE base class and generated method wrappers."""

import pytest

from repro.core.detector import LocalEventDetector
from repro.core.params import EventModifier
from repro.core.reactive import (
    Reactive,
    event,
    get_current_detector,
    set_current_detector,
)
from tests.core.conftest import collect


class Stock(Reactive):
    def __init__(self, symbol, price):
        self.symbol = symbol
        self.price = price

    @event(end="e1")
    def sell_stock(self, qty):
        return qty

    @event(begin="e2", end="e3")
    def set_price(self, price):
        self.price = price

    @event()
    def get_price(self):
        return self.price


@pytest.fixture()
def det():
    detector = LocalEventDetector()
    set_current_detector(detector)
    yield detector
    set_current_detector(None)
    detector.shutdown()


class TestEventInterface:
    def test_declarations_collected(self):
        interface = Stock.event_interface()
        assert set(interface) == {"sell_stock", "set_price", "get_price"}
        assert interface["sell_stock"].end_name == "e1"
        assert interface["set_price"].begin_name == "e2"
        assert interface["set_price"].end_name == "e3"

    def test_default_is_end_of_method(self):
        declaration = Stock.event_interface()["get_price"]
        assert declaration.begin_name is None
        assert declaration.end_name == "get_price$end"

    def test_original_method_kept_as_user_prefixed(self):
        """The pre-processor renames the original with a user_ prefix."""
        assert hasattr(Stock, "user_set_price")
        ibm = Stock("IBM", 10.0)
        ibm.user_set_price(20.0)  # bypasses event generation
        assert ibm.price == 20.0

    def test_declared_event_names_mapping(self):
        mapping = Stock.declared_event_names()
        assert mapping["e1"] == ("sell_stock", EventModifier.END)
        assert mapping["e2"] == ("set_price", EventModifier.BEGIN)
        assert mapping["e3"] == ("set_price", EventModifier.END)

    def test_subclass_inherits_event_interface(self):
        class PreferredStock(Stock):
            @event(end="e9")
            def convert(self):
                return True

        interface = PreferredStock.event_interface()
        assert "set_price" in interface
        assert interface["convert"].end_name == "e9"


class TestNotification:
    def test_begin_and_end_both_signaled(self, det):
        nodes = Stock.register_events(det)
        begin_fired = collect(det, nodes["e2"])
        end_fired = collect(det, nodes["e3"])
        Stock("IBM", 1.0).set_price(5.0)
        assert len(begin_fired) == 1
        assert len(end_fired) == 1

    def test_parameters_collected_by_name(self, det):
        nodes = Stock.register_events(det)
        fired = collect(det, nodes["e1"])
        Stock("IBM", 1.0).sell_stock(42)
        assert fired[0].params.value("qty") == 42

    def test_para_list_binds_positional_keyword_and_defaults(self, det):
        class Order(Reactive):
            @event(end="placed")
            def place(self, item, qty=1, *, rush=False):
                return item

        nodes = Order.register_events(det)
        fired = collect(det, nodes["placed"])
        order = Order()
        order.place("bolt")
        order.place("nut", 3)
        order.place(qty=5, item="washer", rush=True)

        def params(occurrence):
            return {
                name: occurrence.params.value(name)
                for name in ("item", "qty", "rush")
            }

        assert [params(o) for o in fired] == [
            {"item": "bolt", "qty": 1, "rush": False},
            {"item": "nut", "qty": 3, "rush": False},
            {"item": "washer", "qty": 5, "rush": True},
        ]

    def test_unbindable_call_raises_the_methods_own_error(self, det):
        Stock.register_events(det)
        with pytest.raises(TypeError, match="sell_stock"):
            Stock("IBM", 1.0).sell_stock()

    def test_signature_is_resolved_once_at_class_creation(
        self, det, monkeypatch
    ):
        nodes = Stock.register_events(det)
        fired = collect(det, nodes["e1"])
        stock = Stock("IBM", 1.0)
        import inspect

        def forbidden(*args, **kwargs):
            raise AssertionError("inspect.signature called per wrapped call")

        monkeypatch.setattr(inspect, "signature", forbidden)
        stock.sell_stock(42)
        stock.sell_stock(qty=7)
        assert [o.params.value("qty") for o in fired] == [42, 7]

    def test_method_still_returns_its_value(self, det):
        Stock.register_events(det)
        assert Stock("IBM", 1.0).sell_stock(7) == 7

    def test_no_detector_means_passive_behaviour(self):
        set_current_detector(None)
        ibm = Stock("IBM", 1.0)
        ibm.set_price(9.0)  # must not raise
        assert ibm.price == 9.0

    def test_begin_signal_precedes_user_method(self, det):
        """Begin fires before the mutation, end after."""
        nodes = Stock.register_events(det)
        prices = []
        ibm = Stock("IBM", 1.0)
        det.rule("peek_begin", nodes["e2"], condition=lambda o: True,
                 action=lambda o: prices.append(("begin", ibm.price)))
        det.rule("peek_end", nodes["e3"], condition=lambda o: True,
                 action=lambda o: prices.append(("end", ibm.price)))
        ibm.set_price(50.0)
        assert prices == [("begin", 1.0), ("end", 50.0)]

    def test_instance_level_registration(self, det):
        ibm = Stock("IBM", 1.0)
        dec = Stock("DEC", 2.0)
        nodes = Stock.register_events(det, prefix="IBM", instance=ibm)
        fired = collect(det, nodes["e3"])
        dec.set_price(9.0)
        assert fired == []
        ibm.set_price(9.0)
        assert len(fired) == 1

    def test_reactive_id_is_stable_and_unique(self):
        a, b = Stock("A", 1.0), Stock("B", 2.0)
        assert a.reactive_id == a.reactive_id
        assert a.reactive_id != b.reactive_id


class TestCurrentDetectorRouting:
    def test_get_set_roundtrip(self, det):
        assert get_current_detector() is det

    def test_switching_detectors_redirects_events(self, det):
        other = LocalEventDetector(name="other")
        nodes_a = Stock.register_events(det)
        nodes_b = Stock.register_events(other)
        fired_a = collect(det, nodes_a["e3"])
        fired_b = collect(other, nodes_b["e3"])
        Stock("X", 1.0).set_price(2.0)
        set_current_detector(other)
        Stock("Y", 1.0).set_price(3.0)
        assert len(fired_a) == 1
        assert len(fired_b) == 1
        other.shutdown()
