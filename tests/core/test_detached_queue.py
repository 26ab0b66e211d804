"""Bounded detached-rule queue: backpressure policies and drain sync.

Determinism recipe: the runner (or rule action) blocks on a ``gate``
Event and signals ``started`` — the test waits for ``started`` so
exactly one activation is in flight, then overflows the queue with the
workers pinned.
"""

import threading
import time

import pytest

from repro.core.scheduler import DetachedRuleQueue, RuleActivation
from repro.sentinel import Sentinel


class FakeRule:
    def __init__(self, name):
        self.name = name


def activation(name):
    return RuleActivation(rule=FakeRule(name), occurrence=None)


class GatedRunner:
    """Blocks every execution until ``gate`` is set; records rule names."""

    def __init__(self):
        self.gate = threading.Event()
        self.started = threading.Event()
        self.ran = []
        self.lock = threading.Lock()

    def __call__(self, act):
        self.started.set()
        assert self.gate.wait(timeout=30)
        with self.lock:
            self.ran.append(act.rule.name)


def test_validation():
    runner = lambda act: None
    with pytest.raises(ValueError):
        DetachedRuleQueue(runner, capacity=0)
    with pytest.raises(ValueError):
        DetachedRuleQueue(runner, policy="bogus")
    with pytest.raises(ValueError):
        DetachedRuleQueue(runner, workers=0)


def test_drop_oldest_discards_from_the_front():
    runner = GatedRunner()
    queue = DetachedRuleQueue(runner, capacity=2, policy="drop_oldest",
                              workers=1)
    try:
        queue.submit(activation("inflight"))
        assert runner.started.wait(timeout=10)  # worker holds it
        for name in ("old1", "old2", "new1", "new2"):
            queue.submit(activation(name))
        assert queue.stats.dropped == 2
        runner.gate.set()
        assert queue.join(timeout=10)
        assert runner.ran == ["inflight", "new1", "new2"]
        snap = queue.snapshot()
        assert snap["submitted"] == 5
        assert snap["executed"] == 3
        assert snap["dropped"] == 2
        assert snap["depth"] == 0 and snap["active"] == 0
    finally:
        runner.gate.set()
        queue.close(timeout=5)


def test_block_policy_applies_backpressure():
    runner = GatedRunner()
    queue = DetachedRuleQueue(runner, capacity=1, policy="block", workers=1)
    try:
        queue.submit(activation("inflight"))
        assert runner.started.wait(timeout=10)
        queue.submit(activation("queued"))  # fills the queue
        unblocked = threading.Event()

        def producer():
            queue.submit(activation("waited"))
            unblocked.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.1)
        assert not unblocked.is_set()  # producer is being held back
        assert queue.stats.blocked >= 1
        runner.gate.set()
        assert unblocked.wait(timeout=10)
        assert queue.join(timeout=10)
        assert runner.ran == ["inflight", "queued", "waited"]
        assert queue.stats.dropped == 0
    finally:
        runner.gate.set()
        queue.close(timeout=5)


def test_close_wakes_blocked_producer():
    """``close()`` must wake a producer parked in ``_not_full.wait()``
    (policy="block") so it raises instead of hanging forever."""
    runner = GatedRunner()
    queue = DetachedRuleQueue(runner, capacity=1, policy="block", workers=1)
    queue.submit(activation("inflight"))
    assert runner.started.wait(timeout=10)
    queue.submit(activation("queued"))  # fills the queue
    outcome = []

    def producer():
        try:
            queue.submit(activation("blocked"))
            outcome.append("submitted")
        except RuntimeError as exc:
            outcome.append(str(exc))

    producer_thread = threading.Thread(target=producer, daemon=True)
    producer_thread.start()
    deadline = time.monotonic() + 10
    while queue.stats.blocked < 1 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert queue.stats.blocked >= 1  # producer is parked on the full queue

    closer_done = threading.Event()

    def closer():
        queue.close(timeout=None)
        closer_done.set()

    threading.Thread(target=closer, daemon=True).start()
    producer_thread.join(timeout=5)
    assert not producer_thread.is_alive(), (
        "close() left the producer parked in _not_full.wait()"
    )
    assert outcome == ["detached queue is closed"]
    # The backlog accepted before close still drains once the gate opens.
    runner.gate.set()
    assert closer_done.wait(timeout=10)
    assert runner.ran == ["inflight", "queued"]


def test_worker_errors_are_recorded_not_fatal():
    def runner(act):
        if act.rule.name == "bad":
            raise RuntimeError("boom")

    queue = DetachedRuleQueue(runner, capacity=8, workers=1)
    try:
        queue.submit(activation("bad"))
        queue.submit(activation("good"))
        assert queue.join(timeout=10)
        assert queue.stats.errors == 1
        assert queue.stats.executed == 2
        assert [name for name, __ in queue.errors] == ["bad"]
    finally:
        queue.close(timeout=5)


def test_worker_errors_kept_are_bounded():
    def runner(act):
        raise RuntimeError(act.rule.name)

    queue = DetachedRuleQueue(runner, capacity=256, workers=1)
    try:
        for index in range(200):
            queue.submit(activation(f"bad{index}"))
        assert queue.join(timeout=10)
        assert queue.stats.errors == 200
        assert len(queue.errors) == 64
        assert queue.errors[-1][0] == "bad199"  # the latest are kept
    finally:
        queue.close(timeout=5)


# =========================================================================
# Facade integration
# =========================================================================

def test_wait_detached_timeout_reports_backlog():
    gate = threading.Event()
    started = threading.Event()

    def slow(occ):
        started.set()
        assert gate.wait(timeout=30)

    system = Sentinel(name="app", detached_workers=1)
    try:
        system.explicit_event("ev")
        system.rule("slow", "ev", coupling="detached", action=slow)
        system.raise_event("ev")
        assert started.wait(timeout=10)
        with pytest.raises(TimeoutError) as excinfo:
            system.wait_detached(timeout=0.05)
        message = str(excinfo.value)
        assert "pending" in message
        # the diagnostic carries the queue snapshot: depth, in-flight
        # count, and the configured capacity/overflow policy
        assert "queued=" in message
        assert "active=" in message
        assert "capacity=" in message
        assert "policy=" in message
        gate.set()
        system.wait_detached(timeout=10)  # drains cleanly now
        assert system.detached.backlog() == 0
    finally:
        gate.set()
        system.close()


def test_facade_overflow_counts_in_metrics():
    gate = threading.Event()
    started = threading.Event()

    def slow(occ):
        started.set()
        assert gate.wait(timeout=30)

    system = Sentinel(
        name="app", detached_capacity=1, detached_policy="drop_oldest",
        detached_workers=1,
    )
    try:
        system.explicit_event("ev")
        system.rule("slow", "ev", coupling="detached", action=slow)
        system.raise_event("ev")
        assert started.wait(timeout=10)
        for __ in range(3):  # 1 fills the queue, 2 overflow
            system.raise_event("ev")
        assert system.detached.stats.dropped == 2
        registry = system.metrics.registry
        assert registry.value("detached.overflows") == 2
        assert registry.value("detached.overflows.drop_oldest") == 2
        gate.set()
        system.wait_detached(timeout=10)
    finally:
        gate.set()
        system.close()


def test_queue_wait_time_surfaces_in_snapshot_and_health():
    """Satellite observability: how long activations sat in the queue
    is part of the queue snapshot and therefore of /health."""
    system = Sentinel(name="wait-metrics")
    try:
        system.explicit_event("ev")
        system.rule("r", "ev", coupling="detached", action=lambda occ: None)
        for i in range(3):
            system.raise_event("ev", n=i)
        system.wait_detached(timeout=10)
        snap = system.detached.snapshot()
        assert snap["wait_count"] == 3
        assert snap["wait_ms_avg"] >= 0.0
        assert snap["wait_ms_max"] >= snap["wait_ms_avg"]
        health = system.health()
        assert health["detached_queue"]["wait_count"] == 3
        assert "wait_ms_max" in health["detached_queue"]
        # The wait also lands in the detached_wait latency stage.
        assert health["latency"]["detached_wait"]["count"] == 3
    finally:
        system.close()


def test_wait_stats_zero_before_any_execution():
    system = Sentinel(name="wait-zero")
    try:
        snap = system.detached.snapshot()
        assert snap["wait_count"] == 0
        assert snap["wait_ms_avg"] == 0.0
        assert snap["wait_ms_max"] == 0.0
    finally:
        system.close()


def test_close_drains_a_detached_cascade():
    """A detached rule that triggers another detached rule, with close()
    called right after the first raise: close() waits for the
    transitive backlog, so both run exactly once, on queue workers."""
    ran = []
    system = Sentinel(name="cascade")
    system.explicit_event("first")
    system.explicit_event("second")

    def relay(occ):
        time.sleep(0.05)  # close() is already waiting
        ran.append(("relay", threading.current_thread().name))
        system.raise_event("second")

    system.rule("relay", "first", coupling="detached", action=relay)
    system.rule("land", "second", coupling="detached",
                action=lambda occ: ran.append(
                    ("land", threading.current_thread().name)))
    system.raise_event("first")
    started = time.monotonic()
    system.close()
    assert time.monotonic() - started < 10
    assert [rule for rule, __ in ran] == ["relay", "land"]
    assert all(name.startswith("detached-worker") for __, name in ran)
    assert system.detached.stats.executed == 2


def test_close_runs_a_detached_rule_on_the_abort_it_makes():
    """close() aborts the caller's open transaction before it drains
    the queue, so a detached rule on ``abort_transaction`` still runs
    (once) and the system closes."""
    ran = []
    before = set(threading.enumerate())
    system = Sentinel(name="abort-on-close")
    system.rule("on_abort", "abort_transaction", coupling="detached",
                action=lambda occ: ran.append(
                    threading.current_thread().name))
    system.begin()
    system.close()
    assert len(ran) == 1 and ran[0].startswith("detached-worker")
    assert system.current() is None
    assert system.health()["healthy"] is False
    assert set(threading.enumerate()) - before == set()
