"""Registry counters stay equal to the legacy per-module stats fields.

The metrics registry supersedes the scattered stats dataclasses;
these tests prove both views of the same instrumentation agree under a
representative workload, so ``Sentinel.report()`` can be sourced from
the registry without changing its numbers. Detection and trigger
counters are read from the engine itself; they must equal what the
``Detection`` emissions a recorder asks for would count, and never
decrease while rules come and go.
"""

from collections import Counter

import pytest

from repro import Persistent, Reactive, Sentinel, event
from repro.core.scheduler import RuleScheduler
from repro.telemetry import TelemetryProcessor
from repro.telemetry.events import ConditionEvaluated, Detection

CONTEXTS = ("recent", "chronicle", "continuous", "cumulative")


PARITY = [
    # (registry counter, stats object, field)
    ("detector.notifications", "detector", "notifications"),
    ("detector.suppressed", "detector", "suppressed"),
    ("rules.triggers", "detector", "triggers"),
    ("detector.detached_dispatches", "detector", "detached_dispatches"),
    ("graph.detections", "graph", "detections"),
    ("rules.executions", "scheduler", "executions"),
    ("rules.condition_rejections", "scheduler", "condition_rejections"),
    ("rules.failures", "scheduler", "failures"),
]


def stats_value(system, owner, fieldname):
    stats = {
        "detector": system.detector.stats,
        "graph": system.detector.graph.stats,
        "scheduler": system.detector.scheduler.stats,
    }[owner]
    return getattr(stats, fieldname)


class Unwatched(Reactive):
    """Evented, but no rule (or primitive event) ever refers to it."""

    @event(end="poked")
    def poke(self, n):
        return n


def run_workload(system):
    system.activate()
    probe = Unwatched()
    system.explicit_event("e")
    system.explicit_event("f")
    seq = system.detector.define("ef", (system.detector.event('e') >> system.detector.event('f')))
    system.rule("pass", "e",
                condition=lambda o: o.params.value("n", 0) > 0,
                action=lambda o: None)
    system.rule("composite", seq, action=lambda o: None)
    system.rule("det", "f", action=lambda o: None, coupling="detached")

    def failing(occ):
        raise ValueError("boom")

    system.rule("bad", "e", action=failing)

    def querying(occ):
        # Method notifications from inside a condition are suppressed.
        system.detector.notify(None, "Probe", "peek", "end", {})
        # ... and so are unarmed wrapped calls, which notify nothing.
        probe.poke(0)
        return False

    system.rule("nosy", "f", condition=querying, action=lambda o: None)

    probe.poke(1)  # unarmed, outside a condition
    with system.transaction():
        probe.poke(2)
        system.raise_event("e", n=1)
        system.raise_event("e", n=0)
        system.raise_event("f", n=1)
    system.wait_detached()


@pytest.mark.parametrize("counter,owner,fieldname",
                         PARITY, ids=[p[0] for p in PARITY])
def test_counter_matches_legacy_stats(counter, owner, fieldname):
    system = Sentinel(name="parity", error_policy="abort_rule")
    run_workload(system)
    registry = system.metrics.registry
    assert registry.value(counter) == stats_value(system, owner, fieldname), (
        f"{counter} diverged from {owner}.{fieldname}"
    )
    assert registry.value(counter) > 0, f"workload never exercised {counter}"
    system.close()


def test_report_equals_legacy_report():
    """The registry-backed report matches a stats-backed run exactly."""
    metered = Sentinel(name="app", error_policy="abort_rule")
    run_workload(metered)
    bare = Sentinel(name="app", error_policy="abort_rule", metrics=False)
    run_workload(bare)
    metered_dict = metered.report().to_dict()
    bare_dict = bare.report().to_dict()
    assert metered_dict == bare_dict
    metered.close()
    bare.close()


class DetectionTally(TelemetryProcessor):
    """Counts the ``Detection`` events it is handed, per context."""

    subscriptions = (Detection,)

    def __init__(self):
        self.by_context = Counter()

    def handle(self, event):
        self.by_context[event.context] += 1


@pytest.mark.parametrize("shards", [1, 4])
def test_detections_by_context_match_the_emitted_detections(shards):
    system = Sentinel(name="contexts", shards=shards)
    tally = system.telemetry.attach(DetectionTally())
    for name in "abc":
        system.explicit_event(name)
    for context in CONTEXTS:
        system.watch(f"seq_{context}", "a >> b", context=context)
        system.watch(f"and_{context}", "b & c", context=context)
    for index, name in enumerate("abcabbacbcaacb" * 3):
        system.raise_event(name, v=index)
    registry = system.metrics.registry
    counters = registry.to_dict()["counters"]
    for context in CONTEXTS:
        assert counters[f"graph.detections.{context}"] == (
            tally.by_context[context]
        ) > 0
    assert registry.value("graph.detections") == sum(tally.by_context.values())
    system.close()


class ConditionTally(TelemetryProcessor):
    """Counts the ``ConditionEvaluated`` spans it is handed."""

    subscriptions = (ConditionEvaluated,)

    def __init__(self):
        self.count = 0

    def handle(self, event):
        self.count += 1


def test_condition_counts_match_the_emitted_conditions():
    """Fed from RuleExecution, the condition counter and histogram
    count a condition that raised and skip a rule stopped by the
    nesting limit — exactly what ConditionEvaluated spans count."""
    system = Sentinel(name="conditions", error_policy="abort_rule")
    tally = system.telemetry.attach(ConditionTally())
    system.explicit_event("e")
    system.explicit_event("loop")

    def broken(occurrence):
        raise ValueError("condition bug")

    system.rule("broken", "e", condition=broken, action=lambda o: None)
    system.rule("loop", "loop", action=lambda o: system.raise_event("loop"))
    system.raise_event("e")
    system.raise_event("e")
    system.raise_event("loop")
    assert tally.count == 2 + RuleScheduler.MAX_DEPTH
    registry = system.metrics.registry
    assert registry.value("rules.conditions_evaluated") == tally.count
    assert registry.histograms["condition.ms"].count == tally.count
    system.close()


def test_counters_never_decrease_across_watch_unwatch_churn():
    system = Sentinel(name="churn")
    for name in "abcd":
        system.explicit_event(name)
    expressions = ["a >> b", "b & c", "c | d", "(a >> b) & c"]
    registry = system.metrics.registry
    previous: dict = {}
    for step in range(40):
        system.watch(f"w{step}", expressions[step % 4],
                     context=CONTEXTS[step % 4])
        if step >= 3:
            system.unwatch(f"w{step - 3}")
        for name in "abcdab":
            system.raise_event(name)
        current = registry.to_dict()["counters"]
        for name, value in previous.items():
            assert current.get(name, 0) >= value, (step, name)
        previous = current
    for context in CONTEXTS:
        assert previous[f"graph.detections.{context}"] > 0
    assert previous["rules.triggers"] > 0
    system.close()


def test_explicit_raises_counted_separately():
    """raise_event never bumped DetectorStats.notifications; the
    registry mirrors the split as detector.raises."""
    system = Sentinel(name="raises")
    system.explicit_event("e")
    system.raise_event("e")
    system.raise_event("e")
    registry = system.metrics.registry
    assert registry.value("detector.raises") == 2
    assert registry.value("detector.notifications") == (
        system.detector.stats.notifications
    )
    system.close()


def test_storage_counters(tmp_path):
    system = Sentinel(directory=tmp_path / "db", name="stored")

    class Doc(Persistent):
        def __init__(self, body):
            self.body = body

    system.db.registry.register(Doc)
    with system.transaction() as txn:
        txn.persist(Doc("hello"))
    registry = system.metrics.registry
    assert registry.value("wal.flushes") >= 1
    assert registry.value("wal.records") >= 2  # begin + insert + commit
    assert registry.value("txn.committed") == 1
    system.close()
