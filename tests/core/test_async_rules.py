"""The asyncio execution lane: coroutine rule actions.

The acceptance oracle is the synchronous scheduler: a rule set
executed with ``executor="async"`` must trigger the same rules in the
same order, apply the same error policy, and suppress condition side
effects identically. On top of parity, the
lane must deliver what threads cannot: actions of one priority class
interleaving at ``await`` points on a single loop thread.
"""

import asyncio
import threading

import pytest

from repro.core.detector import LocalEventDetector
from repro.core.rules import resolve_executor
from repro.errors import RuleError, RuleExecutionError
from repro.sentinel import Sentinel

CONTEXTS = ("recent", "chronicle", "continuous", "cumulative")


# =========================================================================
# Lane selection and validation
# =========================================================================

class TestLaneSelection:
    def test_coroutine_actions_autodetect_the_async_lane(self):
        det = LocalEventDetector()
        det.explicit_event("e")

        async def act(occ):
            pass

        rule = det.rule("r", "e", action=act)
        assert rule.executor == "async"
        det.shutdown()

    def test_plain_actions_default_to_the_sync_lane(self):
        det = LocalEventDetector()
        det.explicit_event("e")
        rule = det.rule("r", "e", action=lambda occ: None)
        assert rule.executor == "sync"
        det.shutdown()

    def test_sync_lane_rejects_coroutine_actions(self):
        async def act(occ):
            pass

        with pytest.raises(RuleError, match="coroutine action"):
            resolve_executor("sync", lambda occ: True, act, "r")

    def test_conditions_must_be_synchronous(self):
        async def cond(occ):
            return True

        with pytest.raises(RuleError, match="condition must be synchronous"):
            resolve_executor(None, cond, lambda occ: None, "r")

    def test_unknown_lane_rejected(self):
        with pytest.raises(RuleError, match="executor must be one of"):
            resolve_executor("fiber", lambda occ: True, lambda occ: None, "r")

    def test_sync_action_may_opt_into_the_async_lane(self):
        assert resolve_executor(
            "async", lambda occ: True, lambda occ: None, "r"
        ) == "async"


# =========================================================================
# Parity with the synchronous oracle
# =========================================================================

def build_system(lane: str):
    """A mixed graph with one recording rule per (expression, context)
    pair, every rule in its own priority class so the execution order
    is fully deterministic on both lanes."""
    det = LocalEventDetector(name=lane)
    for name in "ab":
        det.explicit_event(name)
    e = det.event
    exprs = {
        "prim_a": e("a"),
        "and_ab": e("a") & e("b"),
        "seq_ab": e("a") >> e("b"),
    }
    hits: list[tuple] = []
    lock = threading.Lock()
    priority = 1
    for ctx in CONTEXTS:
        for label, node in exprs.items():
            rule_name = f"r_{label}:{ctx}"
            if lane == "async":
                async def act(occ, _n=rule_name):
                    await asyncio.sleep(0)
                    with lock:
                        hits.append((_n, len(list(occ.primitives()))))
            else:
                def act(occ, _n=rule_name):
                    with lock:
                        hits.append((_n, len(list(occ.primitives()))))
            det.rule(rule_name, node, action=act, context=ctx,
                     priority=priority)
            priority += 1
    return det, hits


def drive(det) -> None:
    for i, name in enumerate("abaabbab" * 4):
        det.raise_event(name, n=i)


def test_async_lane_matches_the_sync_oracle():
    """Same events, same graph: the async lane triggers exactly what
    the sync lane does, in the same order, in every parameter context."""
    oracle, oracle_hits = build_system("sync")
    candidate, candidate_hits = build_system("async")
    drive(oracle)
    drive(candidate)
    assert oracle_hits, "oracle produced no triggers — broken fixture"
    assert candidate_hits == oracle_hits
    assert (
        candidate.scheduler.stats.executions
        == oracle.scheduler.stats.executions
    )
    oracle.shutdown()
    candidate.shutdown()


# =========================================================================
# Scheduling semantics
# =========================================================================

def test_actions_of_one_class_interleave_on_the_lane():
    """The headline capability: two rules of the same priority class
    overlap at await points — rule 1 parks on an asyncio.Event only
    rule 2 can set, which no thread-free serial schedule could finish."""
    det = LocalEventDetector()
    det.explicit_event("e")
    gate = asyncio.Event()
    order: list[str] = []

    async def first(occ):
        order.append("first-in")
        await gate.wait()
        order.append("first-out")

    async def second(occ):
        order.append("second-in")
        gate.set()

    det.rule("first", "e", action=first, priority=3)
    det.rule("second", "e", action=second, priority=3)
    det.raise_event("e")
    assert order == ["first-in", "second-in", "first-out"]
    det.shutdown()


def test_priority_classes_are_barriers_across_lanes():
    """A higher class's async rules finish before the next class's
    sync rules start (serial-across-classes, paper §3.1)."""
    det = LocalEventDetector()
    det.explicit_event("e")
    order: list[str] = []

    async def high(occ):
        await asyncio.sleep(0.02)
        order.append("high")

    det.rule("high", "e", action=high, priority=9)
    det.rule("low", "e", action=lambda occ: order.append("low"), priority=1)
    det.raise_event("e")
    assert order == ["high", "low"]
    det.shutdown()


def test_mixed_class_runs_sync_and_async_rules_concurrently():
    """Within one class the sync leg and the async leg overlap: the
    async action releases a threading.Event the sync action waits on."""
    det = LocalEventDetector()
    det.explicit_event("e")
    release = threading.Event()
    order: list[str] = []

    async def async_side(occ):
        await asyncio.sleep(0.005)
        order.append("async")
        release.set()

    def sync_side(occ):
        assert release.wait(timeout=5.0), (
            "async leg never ran while the sync leg was blocked"
        )
        order.append("sync")

    det.rule("a", "e", action=async_side, priority=2)
    det.rule("s", "e", action=sync_side, priority=2)
    det.raise_event("e")
    assert sorted(order) == ["async", "sync"]
    det.shutdown()


def test_nested_async_cascades_run_depth_first():
    """An async action raising an event waits for the triggered async
    rule before continuing — the sync lane's depth-first
    cascade, preserved across lane hops via nested-lane routing."""
    det = LocalEventDetector()
    det.explicit_event("outer")
    det.explicit_event("inner")
    seen: list[str] = []

    async def outer(occ):
        seen.append("outer-pre")
        det.raise_event("inner")
        seen.append("outer-post")

    async def inner(occ):
        await asyncio.sleep(0.005)
        seen.append("inner")

    det.rule("outer", "outer", action=outer)
    det.rule("inner", "inner", action=inner)
    det.raise_event("outer")
    assert seen == ["outer-pre", "inner", "outer-post"]
    det.shutdown()


def test_nesting_depth_counts_across_lane_hops():
    """MAX_DEPTH still bounds a self-triggering cascade when every
    level hops onto a (nested) asyncio lane."""
    det = LocalEventDetector()
    det.scheduler.MAX_DEPTH = 5
    det.explicit_event("tick")
    depths: list[int] = []

    async def retrigger(occ):
        depths.append(det.scheduler._depth())
        det.raise_event("tick")

    det.rule("loop", "tick", action=retrigger)
    with pytest.raises(RuleExecutionError, match="nesting exceeded 5"):
        det.raise_event("tick")
    assert max(depths) == 5
    det.shutdown()


def test_state_isolation_between_interleaving_tasks():
    """Two interleaving tasks each see their own current_rule/depth:
    task state parked at awaits never leaks into the other task."""
    det = LocalEventDetector()
    det.explicit_event("e")
    observed: dict[str, tuple] = {}
    gate = asyncio.Event()

    async def one(occ):
        await gate.wait()
        observed["one"] = (
            det.scheduler.current_rule().name, det.scheduler._depth()
        )

    async def two(occ):
        gate.set()
        await asyncio.sleep(0)
        observed["two"] = (
            det.scheduler.current_rule().name, det.scheduler._depth()
        )

    det.rule("one", "e", action=one, priority=4)
    det.rule("two", "e", action=two, priority=4)
    det.raise_event("e")
    assert observed == {"one": ("one", 1), "two": ("two", 1)}
    det.shutdown()


# =========================================================================
# Error policy and suppression parity
# =========================================================================

def test_error_policy_raise_propagates_async_action_failures():
    det = LocalEventDetector(error_policy="raise")
    det.explicit_event("e")

    async def bad(occ):
        raise ValueError("boom")

    det.rule("bad", "e", action=bad)
    with pytest.raises(RuleExecutionError, match="failed in action"):
        det.raise_event("e")
    assert det.scheduler.stats.failures == 1
    assert det.scheduler.errors and "boom" in str(det.scheduler.errors[0])
    det.shutdown()


def test_error_policy_abort_rule_keeps_the_class_running():
    """One failing async rule must not stop its classmates (sync or
    async) — exactly the abort_rule contract of the thread lanes."""
    det = LocalEventDetector(error_policy="abort_rule")
    det.explicit_event("e")
    ran: list[str] = []

    async def bad(occ):
        await asyncio.sleep(0)
        raise ValueError("boom")

    async def good(occ):
        ran.append("good-async")

    det.rule("bad", "e", action=bad, priority=2)
    det.rule("good", "e", action=good, priority=2)
    det.rule("sync", "e", action=lambda occ: ran.append("good-sync"),
             priority=2)
    det.raise_event("e")  # must not raise
    assert sorted(ran) == ["good-async", "good-sync"]
    assert det.scheduler.stats.failures == 1
    det.shutdown()


def test_conditions_stay_suppressed_on_the_async_lane():
    """A condition that calls event-generating methods must not
    trigger rules (the paper's side-effect-free-condition guarantee —
    its §3.2.1 acknowledge flag), lane regardless."""
    det = LocalEventDetector()
    det.explicit_event("e")
    det.primitive_event("echo", "Probe", "begin", "ping")
    echoed: list[str] = []

    def noisy_condition(occ):
        # A reactive method invoked from a condition: suppressed.
        det.notify(None, "Probe", "ping", "begin")
        return True

    async def act(occ):
        # The same invocation from the action signals normally.
        det.notify(None, "Probe", "ping", "begin")

    det.rule("noisy", "e", condition=noisy_condition, action=act)
    det.rule("listener", "echo",
             action=lambda occ: echoed.append("echo"))
    det.raise_event("e")
    assert echoed == ["echo"]
    assert det.stats.suppressed == 1
    assert det.rules.get("noisy").executed_count == 1
    det.shutdown()


# =========================================================================
# Coupling modes and telemetry
# =========================================================================

def test_detached_async_rules_ride_the_bounded_queue():
    """A DETACHED async rule lands on the detached queue like any
    detached rule, and its coroutine runs on the lane from the worker."""
    s = Sentinel(name="detached-async")
    s.explicit_event("e")
    done = threading.Event()
    ran: list[str] = []

    async def act(occ):
        await asyncio.sleep(0.005)
        ran.append("detached")
        done.set()

    s.rule("d", "e", action=act, coupling="detached")
    s.raise_event("e")
    assert done.wait(timeout=5.0)
    s.wait_detached()
    assert ran == ["detached"]
    assert s.detached.stats.executed == 1
    s.close()


def test_rule_spans_carry_the_lane_and_feed_action_async():
    """RuleExecution spans from the lane say lane="async", join the
    triggering trace, and land in the action_async stage histogram."""
    from repro.telemetry.events import RuleExecution
    from repro.telemetry.processors import TraceLogProcessor

    s = Sentinel(name="lane-telemetry")
    trace_log = s.telemetry.attach(TraceLogProcessor())
    s.explicit_event("e")

    async def act(occ):
        await asyncio.sleep(0.002)

    s.rule("async_rule", "e", action=act)
    s.rule("sync_rule", "e", action=lambda occ: None)
    s.raise_event("e")
    spans = {
        ev.rule_name: ev for ev in trace_log.events()
        if isinstance(ev, RuleExecution)
    }
    assert spans["async_rule"].lane == "async"
    assert spans["async_rule"].outcome == "completed"
    assert spans["sync_rule"].lane == "sync"
    assert spans["async_rule"].trace_id is not None
    assert spans["async_rule"].trace_id == spans["sync_rule"].trace_id
    assert s.metrics.stages["action_async"].count == 1
    assert s.metrics.stages["action"].count == 1
    s.close()


def test_lane_is_lazy_and_shutdown_is_clean():
    """A detector with no async rules never starts the loop thread;
    one that did shuts it down with the scheduler."""
    det = LocalEventDetector()
    det.explicit_event("e")
    det.rule("r", "e", action=lambda occ: None)
    det.raise_event("e")
    assert det.scheduler._async_lane is None
    det.shutdown()

    det2 = LocalEventDetector()
    det2.explicit_event("e")

    async def act(occ):
        pass

    det2.rule("r", "e", action=act)
    det2.raise_event("e")
    lane = det2.scheduler._async_lane
    assert lane is not None
    det2.shutdown()
    assert lane._closed
    assert not lane._thread.is_alive()
    with pytest.raises(RuntimeError, match="closed"):
        lane.submit(asyncio.sleep(0))
