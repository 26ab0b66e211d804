"""Guard: a default ``Sentinel()`` emits nothing per detection.

The metrics registry reads the engine's own counters and the
histograms the engine times its stages into, so with only the default
aggregator attached no call site of the stream calls the hub for a
span, and no ``TelemetrySpan`` is built; every ingest still mints the
trace its occurrences carry. Attaching a recorder brings every class
back: the recorded classes, counts and parent links below are pinned.
"""

import random
from collections import Counter

from repro import Reactive, Sentinel, TraceLogProcessor, event
from repro.telemetry.events import (
    ConditionEvaluated,
    Detection,
    RuleTriggered,
)
from repro.telemetry.hub import TelemetrySpan

CONTEXTS = ("recent", "chronicle", "continuous", "cumulative")
#: the ledger's six rule shapes over four method and four explicit
#: events; each is ruled on in every context (24 rules)
SHAPES = {
    "seq": "Gauge_e0 >> x0",
    "and": "Gauge_e1 & x1",
    "or": "Gauge_e2 | x2",
    "not": "NOT(Gauge_e0, Gauge_e3, x1)",
    "astar": "A*(Gauge_e1, x2, x3)",
    "nest": "(Gauge_e2 >> x3) & x0",
}
EVENTS = 400
TXN_EVENTS = 50
QUIET = (Detection, RuleTriggered, ConditionEvaluated)

#: what a TraceLogProcessor records from the stream (before this guard
#: existed, the default path emitted these same events unrecorded). The
#: 16 begin and pre-commit signals of the 8 transactions are not among
#: them: no deferred rule waits for those, so they are only counted.
RECORDED = {
    "ConditionEvaluated": 1065,
    "Detection": 2818,
    "GraphPropagation": 408,
    "NotificationReceived": 408,
    "RuleExecution": 1065,
    "RuleTriggered": 1065,
    "TransactionSpan": 8,
}
#: ``class<-parent class`` link counts of the same recording
LINKS = {
    "ConditionEvaluated<-RuleExecution": 1065,
    "Detection<-GraphPropagation": 2818,
    "GraphPropagation<-NotificationReceived": 408,
    "NotificationReceived<-TransactionSpan": 408,
    "RuleExecution<-GraphPropagation": 1065,
    "RuleTriggered<-GraphPropagation": 1065,
    "TransactionSpan<-None": 8,
}


class Gauge(Reactive):
    @event(end="e0")
    def op0(self, v):
        return v

    @event(end="e1")
    def op1(self, v):
        return v

    @event(end="e2")
    def op2(self, v):
        return v

    @event(end="e3")
    def op3(self, v):
        return v


def run(system: Sentinel) -> list:
    """Drive the fixed stream; returns ``(span id, trace id)`` as seen
    from inside every condition and action."""
    hub = system.telemetry
    probes = []

    def probe():
        probes.append((hub.current_span_id(), hub.current_trace_id()))

    def condition(occurrence):
        probe()
        return occurrence.params.value("v") % 2 == 0

    def action(occurrence):
        probe()

    system.register_class(Gauge)
    for index in range(4):
        system.explicit_event(f"x{index}")
    for shape, expression in SHAPES.items():
        node = system.define(f"ev_{shape}", expression)
        for context in CONTEXTS:
            system.rule(f"{shape}_{context}", node, condition=condition,
                        action=action, context=context)
    gauge = Gauge()
    rng = random.Random(5)
    txn = None
    for index in range(EVENTS):
        if index % TXN_EVENTS == 0:
            txn = system.begin()
        which, v = rng.randrange(8), rng.randrange(100)
        if which < 4:
            getattr(gauge, f"op{which}")(v)
        else:
            system.raise_event(f"x{which - 4}", v=v)
        if index % TXN_EVENTS == TXN_EVENTS - 1:
            system.commit(txn)
    return probes


def emissions(hub, names=("point", "span")) -> Counter:
    """Count calls of the hub methods ``names`` by event class."""
    calls: Counter = Counter()
    for name in names:
        original = getattr(hub, name)

        def counting(cls, *args, _original=original, **kwargs):
            calls[cls] += 1
            return _original(cls, *args, **kwargs)

        setattr(hub, name, counting)
    return calls


def test_default_system_emits_nothing_per_detection(monkeypatch):
    built = []
    original = TelemetrySpan.__init__

    def counting(span, hub, cls, *args, **kwargs):
        built.append(cls)
        original(span, hub, cls, *args, **kwargs)

    monkeypatch.setattr(TelemetrySpan, "__init__", counting)
    system = Sentinel(name="quiet")
    calls = emissions(system.telemetry)
    spans = emissions(system.telemetry, ("span", "open_span"))
    probes = run(system)
    registry = system.metrics.registry
    assert registry.value("graph.detections") > 0
    assert registry.value("rules.triggers") > 0
    assert registry.value("rules.conditions_evaluated") > 0
    assert {cls: calls[cls] for cls in QUIET} == dict.fromkeys(QUIET, 0)
    # No span is built for nobody: no hub.span call, no TelemetrySpan
    # (the hub has no observe: the engine times its own stages).
    assert spans == Counter() and built == []
    # No span is open, yet every rule runs inside its ingest's trace.
    assert probes
    assert {span for span, __ in probes} == {None}
    assert None not in {trace for __, trace in probes}
    system.close()


def test_a_recorder_brings_every_class_back():
    system = Sentinel(name="recorded")
    log = system.telemetry.attach(TraceLogProcessor(capacity=1_000_000))
    probes = run(system)
    events = log.events()
    recorded = Counter(type(e).__name__ for e in events)
    assert recorded == RECORDED
    by_id = {e.span_id: type(e).__name__ for e in events}
    links = Counter(
        f"{type(e).__name__}<-{by_id.get(e.parent_span_id)}" for e in events
    )
    assert links == LINKS
    # The recorded copies agree with what the registry read.
    registry = system.metrics.registry
    assert recorded["Detection"] == registry.value("graph.detections")
    assert recorded["RuleTriggered"] == registry.value("rules.triggers")
    assert recorded["ConditionEvaluated"] == (
        registry.value("rules.conditions_evaluated")
    )
    # Recorded spans are on the stack again.
    assert None not in {span for span, __ in probes}
    system.close()


def test_default_transaction_is_one_trace():
    """Without a TransactionSpan, a transaction still mints one trace
    that every ingest inside it shares."""
    system = Sentinel(name="traces")
    system.explicit_event("e")
    with system.transaction():
        first = system.raise_event("e")
        second = system.raise_event("e")
    after = system.raise_event("e")
    assert first.trace_id is not None
    assert second.trace_id == first.trace_id
    assert after.trace_id not in (None, first.trace_id)
    assert system.telemetry.current_trace_id() is None
    system.close()
