"""Concurrency stress: rules on pool threads, locks, and deadlocks."""

import threading
import time

import pytest

from repro.core.detector import LocalEventDetector
from repro.core.scheduler import ThreadedExecutor
from repro.transactions.nested import NestedTransactionManager, TxnState


@pytest.fixture()
def system():
    ntm = NestedTransactionManager(lock_timeout=5.0)
    det = LocalEventDetector(
        executor=ThreadedExecutor(max_workers=8),
        txn_manager=ntm,
        error_policy="abort_rule",
    )
    det.explicit_event("e")
    yield det, ntm
    det.shutdown()


class TestConcurrentSubtransactions:
    def test_sibling_rules_serialize_on_shared_object(self, system):
        """Two concurrent rules lock the same resource; both complete
        (one waits), total effect equals serial execution."""
        det, ntm = system
        counter = {"value": 0}
        lock_resource = "shared-counter"

        def bump(occ):
            sub = det.current_transaction()
            sub.lock_exclusive(lock_resource)
            current = counter["value"]
            time.sleep(0.005)  # widen the race window
            counter["value"] = current + 1

        for i in range(4):
            det.rule(f"bump{i}", "e", condition=lambda o: True, action=bump, priority=5)
        top = ntm.begin_top()
        with det.in_transaction(top):
            det.raise_event("e")
        assert counter["value"] == 4
        assert det.scheduler.errors == []

    def test_deadlocked_rule_aborts_and_releases(self, system):
        """Two sibling rules lock (a,b) in opposite orders: the lock
        manager sacrifices one; the other completes."""
        det, ntm = system
        completed = []
        ready = threading.Barrier(2, timeout=5)

        def make_action(first, second, tag):
            def action(occ):
                sub = det.current_transaction()
                sub.lock_exclusive(first)
                try:
                    ready.wait()
                except threading.BrokenBarrierError:
                    pass  # the other rule already died
                sub.lock_exclusive(second)
                completed.append(tag)
            return action

        det.rule("ab", "e", condition=lambda o: True, action=make_action("a", "b", "ab"),
                 priority=5)
        det.rule("ba", "e", condition=lambda o: True, action=make_action("b", "a", "ba"),
                 priority=5)
        top = ntm.begin_top()
        with det.in_transaction(top):
            det.raise_event("e")
        # Exactly one completed; the victim's subtransaction aborted.
        assert len(completed) == 1
        assert len(det.scheduler.errors) == 1
        victim_states = [
            t.state for t in ntm.tree(top) if t.label.startswith("rule:")
        ]
        assert victim_states.count(TxnState.ABORTED) == 1
        assert victim_states.count(TxnState.COMMITTED) == 1

    def test_aborted_sibling_undo_does_not_affect_survivor(self, system):
        det, ntm = system

        class Doc:
            text = "original"

        doc = Doc()

        def good(occ):
            sub = det.current_transaction()
            sub.lock_exclusive("doc")
            sub.protect(doc)
            doc.text = "good edit"

        def bad(occ):
            sub = det.current_transaction()
            sub.lock_exclusive("scratch")
            sub.protect(doc)  # snapshots whatever it sees
            raise ValueError("fails after protecting")

        det.rule("good", "e", condition=lambda o: True, action=good, priority=10)
        det.rule("bad", "e", condition=lambda o: True, action=bad, priority=1)
        top = ntm.begin_top()
        with det.in_transaction(top):
            det.raise_event("e")
        # priority classes serialize: good (p10) commits before bad (p1)
        # runs; bad's abort restores only its own snapshot ("good edit").
        assert doc.text == "good edit"
        assert len(det.scheduler.errors) == 1

    def test_many_events_from_many_threads(self, system):
        """Notifications from several application threads interleave
        safely (each thread has its own frame stack)."""
        det, __ = system
        fired = []
        lock = threading.Lock()

        def record(occ):
            with lock:
                fired.append(occ.params.value("tag"))

        det.rule("collect", "e", condition=lambda o: True, action=record)

        def app_thread(tag):
            for i in range(20):
                det.raise_event("e", tag=tag)

        threads = [
            threading.Thread(target=app_thread, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert len(fired) == 80
        assert det.scheduler.errors == []
