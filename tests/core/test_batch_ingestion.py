"""Batched ingestion: notify_batch / raise_events equivalence and
accounting."""

import pytest

from repro.core.detector import LocalEventDetector
from repro.errors import EventError, UnknownEvent
from repro.sentinel import Sentinel


class STOCK:
    def set_price(self, price):
        self.price = price


def make_detector():
    det = LocalEventDetector()
    det.primitive_event("tick", "STOCK", "end", "set_price")
    return det


def test_notify_batch_equivalent_to_notify_loop():
    stock = STOCK()
    items = [
        (stock, "STOCK", "set_price", "end", {"price": k}) for k in range(7)
    ]

    looped = make_detector()
    loop_fired = []
    looped.rule("r", "tick", context="chronicle", action=loop_fired.append)
    for instance, cls, method, modifier, arguments in items:
        looped.notify(instance, cls, method, modifier, arguments)

    batched = make_detector()
    batch_fired = []
    batched.rule("r", "tick", context="chronicle", action=batch_fired.append)
    occurrences = batched.notify_batch(items)

    assert len(occurrences) == 7
    assert len(batch_fired) == len(loop_fired) == 7
    assert (
        [occ.params.values("price") for occ in batch_fired]
        == [occ.params.values("price") for occ in loop_fired]
        == [[k] for k in range(7)]
    )
    # each item gets its own clock tick: strictly increasing timestamps
    ats = [occ.at for occ in occurrences]
    assert ats == sorted(ats) and len(set(ats)) == 7


def test_rules_run_once_after_the_whole_batch():
    """All occurrences land before any rule action runs (one activation
    frame for the batch)."""
    det = make_detector()
    record = []
    det.occurrence_listeners.append(lambda occ: record.append("occ"))
    det.rule("r", "tick", action=lambda occ: record.append("rule"))
    stock = STOCK()
    det.notify_batch([
        (stock, "STOCK", "set_price", "end", {"price": k}) for k in range(3)
    ])
    assert record == ["occ"] * 3 + ["rule"] * 3


def test_raise_events_mixed_forms():
    det = LocalEventDetector()
    det.explicit_event("a")
    det.explicit_event("b")
    fired = []
    det.rule("r", (det.event("a") & det.event("b")), context="chronicle",
             action=fired.append)
    out = det.raise_events(["a", ("b", {"n": 1}), "a", ("b", {"n": 2})])
    assert len(out) == 4
    assert len(fired) == 2
    assert det.stats.batches == 1


def test_raise_events_resolves_every_name_first():
    """An unknown (or non-explicit) name anywhere in the batch raises
    before any event is signaled — no partial ingestion."""
    det = LocalEventDetector()
    det.explicit_event("a")
    hits = []
    det.rule("r", "a", action=hits.append)
    with pytest.raises(UnknownEvent):
        det.raise_events(["a", "nope"])
    assert hits == []  # "a" was not signaled

    stock = STOCK()
    det.primitive_event("tick", "STOCK", "end", "set_price")
    with pytest.raises(EventError, match="explicit"):
        det.raise_events(["a", "tick"])
    assert hits == []


def test_suppressed_batch_returns_empty():
    det = make_detector()
    stock = STOCK()
    with det.signals_suppressed():
        out = det.notify_batch([(stock, "STOCK", "set_price", "end")])
    assert out == []
    assert det.stats.suppressed == 1


def test_suppressed_batch_is_counted_but_not_ingested():
    """DetectorStats.batches counts every batch call; the registry's
    detector.batches, like batch.ms, only the ones ingested."""
    system = Sentinel(name="app")
    try:
        system.explicit_event("a")
        system.raise_events(["a", "a"])
        with system.detector.signals_suppressed():
            assert system.raise_events(["a", "a", "a"]) == []
        stats = system.detector.stats
        assert (stats.batches, stats.raises, stats.suppressed) == (2, 2, 3)
        registry = system.metrics.registry
        assert registry.value("detector.batches") == 1
        assert registry.histograms["batch.ms"].count == 1
        assert registry.value("detector.suppressed") == 3
    finally:
        system.close()


def test_batch_counters_and_histogram():
    system = Sentinel(name="app")
    try:
        system.explicit_event("a")
        system.rule("r", "a", action=lambda occ: None)
        system.raise_events(["a"] * 5)
        stock = STOCK()
        system.notify_batch([
            (stock.__class__, "STOCK", "set_price", "end", {"price": 1}),
        ])
        registry = system.metrics.registry
        assert registry.value("detector.batches") == 2
        assert registry.value("detector.raises") >= 5
        assert registry.value("detector.notifications") >= 1
        assert registry.histograms["batch.ms"].count == 2
    finally:
        system.close()
