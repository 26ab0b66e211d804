"""Demand-driven sentries: cached routes, the armed test, the binder.

A wrapped method asks the detector whether anything listens before it
collects a single argument (``LocalEventDetector.sentry``). The answer
comes from a route table (``EventGraph.route``) built on first use and
replaced whenever a primitive node is indexed, and from the paper's
per-context reference counters, read live. The wrapper's PARA_LIST
collector is generated per method at class creation
(``repro.core.reactive._make_binder``).
"""

import functools
import inspect
import sys
import threading
from collections import Counter

import pytest

from repro import Reactive, Sentinel, event
from repro.core.params import EventModifier, PrimitiveOccurrence
from repro.core.reactive import (
    _make_binder,
    get_current_detector,
    set_current_detector,
)
from repro.core.scheduler import RULE_CLASS
from repro.telemetry import hub as telemetry_hub
from tests.core.conftest import collect

END = EventModifier.END


class Item(Reactive):
    @event(end="touched")
    def touch(self, v):
        return v


class Base(Reactive):
    @event(begin="starting", end="stopped")
    def run(self, v):
        return v


class Derived(Base):
    pass


@pytest.fixture()
def bound(det):
    """``det`` as this thread's current detector."""
    previous = get_current_detector()
    set_current_detector(det)
    yield det
    set_current_detector(previous)


def values(fired):
    return [occurrence.params.value("v") for occurrence in fired]


class TestRouteInvalidation:
    def test_class_level_event_defined_after_traffic(self, bound):
        item = Item()
        item.touch(1)
        table = bound.graph.routes
        node = bound.primitive_event("touched", "Item", "end", "touch")
        assert bound.graph.routes is not table
        fired = collect(bound, node)
        item.touch(2)
        assert values(fired) == [2]

    def test_instance_level_event_defined_after_traffic(self, bound):
        first, second = Item(), Item()
        first.touch(1)
        second.touch(1)
        node = bound.primitive_event("first_touched", first, "end", "touch")
        fired = collect(bound, node)
        second.touch(2)
        first.touch(3)
        assert values(fired) == [3]

    def test_ancestor_event_defined_after_subclass_traffic(self, bound):
        derived = Derived()
        derived.run(1)
        node = bound.primitive_event("base_stopped", "Base", "end", "run")
        fired = collect(bound, node)
        derived.run(2)
        assert values(fired) == [2]
        assert fired[0].class_name == "Derived"

    def test_registration_racing_notifies(self, det):
        class Racer:
            pass

        racer = Racer()
        methods = [f"m{index}" for index in range(40)]
        stop = threading.Event()
        errors = []

        def hammer():
            try:
                while not stop.is_set():
                    for method in methods:
                        det.notify(racer, "Racer", method, "end")
            except Exception as error:  # surfaced below
                errors.append(error)

        thread = threading.Thread(target=hammer)
        nodes, fired = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            for method in methods:
                node = det.primitive_event(f"{method}_end", "Racer", "end",
                                           method)
                nodes.append(node)
                fired.append(collect(det, node))
        finally:
            stop.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert errors == []
        for method, node, hits in zip(methods, nodes, fired):
            # Whatever the racing reader cached, the current table is
            # built from the full index.
            assert det.graph.route("Racer", Racer, method, END) == (node,)
            before = len(hits)
            det.notify(racer, "Racer", method, "end")
            assert len(hits) == before + 1


class TestArmedState:
    def test_armed_follows_rule_lifecycle_and_watch(self):
        system = Sentinel(name="armed")
        system.register_class(Item)
        detector = system.detector

        def armed():
            return detector.sentry(Item, "Item", "touch", END)

        assert not armed()
        system.rule("r", "Item_touched", action=lambda o: None)
        assert armed()
        system.disable_rule("r")
        assert not armed()
        system.enable_rule("r")
        assert armed()
        system.rules.delete("r")
        assert not armed()
        system.watch("w", "Item_touched")
        assert armed()
        system.unwatch("w")
        assert not armed()
        system.close()

    def test_unarmed_call_is_only_counted(self, bound):
        bound.primitive_event("touched", "Item", "end", "touch")
        ticks = bound.clock.now()
        item = Item()
        assert item.touch(5) == 5
        assert bound.stats.notifications == 1
        assert bound.clock.now() == ticks
        with bound.signals_suppressed():
            item.touch(6)
        assert bound.stats.notifications == 2
        assert bound.stats.suppressed == 1

    def test_listeners_and_global_marks_see_unarmed_nodes(self, bound):
        bound.primitive_event("Item_touched", "Item", "end", "touch")
        item = Item()
        seen = []
        bound.occurrence_listeners.append(seen.append)
        item.touch(1)
        assert [o.event_name for o in seen] == ["Item_touched"]
        bound.occurrence_listeners.remove(seen.append)
        item.touch(2)
        assert len(seen) == 1
        forwarded = []
        bound.add_global_listener(forwarded.append)
        bound.mark_global("Item_touched")
        item.touch(3)
        assert values(forwarded) == [3]

    def test_rule_meta_event_fires_only_for_the_named_rule(self, det):
        det.explicit_event("e")
        det.rule("worker", "e", action=lambda o: None)
        det.rule("other", "e", action=lambda o: None)
        node = det.rule_execution_event("worker_done", "worker")
        audit = collect(det, node)
        calls = []
        notify = det.notify

        def counting(instance, class_name, method_name, modifier, *args,
                     **kwargs):
            calls.append((class_name, method_name, modifier))
            return notify(instance, class_name, method_name, modifier,
                          *args, **kwargs)

        det.notify = counting
        det.raise_event("e")
        assert [o.params.value("rule") for o in audit] == ["worker"]
        assert calls == [(RULE_CLASS, "worker", END)]
        # The begin and end of all three rule runs are still counted.
        assert det.stats.notifications == 6


MUTABLE = []


def passthrough(fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        return fn(*args, **kwargs)

    return inner


class Shapes:
    def defaults(self, a, b=MUTABLE, c=3):
        pass

    def star(self, a, *rest):
        pass

    def double_star(self, a, **options):
        pass

    def keyword_only(self, a, *, flag=False, mode):
        pass

    def positional_only(self, a, b=2, /, c=3):
        pass

    @passthrough
    def decorated(self, a, b=5):
        pass


CALLS = [
    ("defaults", (1,), {}),
    ("defaults", (1, 2), {"c": 4}),
    ("star", (1,), {}),
    ("star", (1, 2, 3), {}),
    ("double_star", (1,), {}),
    ("double_star", (), {"a": 1, "x": 2, "y": 3}),
    ("keyword_only", (1,), {"mode": "m"}),
    ("keyword_only", (), {"a": 1, "flag": True, "mode": "m"}),
    ("positional_only", (1,), {}),
    ("positional_only", (1, 9), {"c": 8}),
    ("decorated", (1,), {}),
    ("decorated", (), {"a": 1, "b": 2}),
]


class TestBinder:
    @pytest.mark.parametrize("method,args,kwargs", CALLS,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(CALLS)])
    def test_matches_signature_bind(self, method, args, kwargs):
        fn = getattr(Shapes, method)
        obj = Shapes()
        bound = inspect.signature(fn).bind(obj, *args, **kwargs)
        bound.apply_defaults()
        expected = {k: v for k, v in bound.arguments.items() if k != "self"}
        collected = _make_binder(fn)(obj, *args, **kwargs)
        assert collected == expected
        assert list(collected) == list(expected)

    def test_mutable_default_is_the_same_object(self):
        collected = _make_binder(Shapes.defaults)(Shapes(), 1)
        assert collected["b"] is MUTABLE

    def test_unbindable_call_raises_type_error(self):
        with pytest.raises(TypeError):
            _make_binder(Shapes.keyword_only)(Shapes(), 1)

    def test_bad_call_raises_the_user_methods_own_error(self, bound):
        node = bound.primitive_event("starting", "Base", "begin", "run")
        fired = collect(bound, node)
        with pytest.raises(TypeError) as raised:
            Base().run()
        assert "run()" in str(raised.value)
        assert "collect" not in str(raised.value)
        # The armed BEGIN still went out, with an empty PARA_LIST.
        assert [o.arguments for o in fired] == [()]


class Registered(Reactive):
    @event(end="done")
    def op(self, v):
        return v


class Unregistered(Reactive):
    @event(end="done")
    def op(self, v):
        return v


def test_unarmed_calls_build_nothing(monkeypatch):
    """Guard: on a default Sentinel(), 1,000 calls on a registered class
    with no rule and 1,000 on an unregistered one build no occurrence,
    open no span, push no dispatch frame and never bind a signature —
    and each is still counted as a notification."""
    system = Sentinel(name="sentries")
    system.register_class(Registered)
    detector = system.detector
    built = Counter()

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            built[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(PrimitiveOccurrence, "__init__", "occurrences")
    counting(telemetry_hub.TelemetrySpan, "__init__", "spans")
    counting(system.telemetry, "span", "span calls")
    counting(detector, "_dispatch", "dispatches")
    counting(inspect.Signature, "bind", "binds")
    before = detector.stats.notifications
    registered, unregistered = Registered(), Unregistered()
    for index in range(1000):
        assert registered.op(index) == index
        assert unregistered.op(v=index) == index
    assert built == Counter()
    assert detector.stats.notifications - before == 2000
    assert system.metrics.registry.value("detector.notifications") == (
        detector.stats.notifications
    )
    system.close()
