"""One binding of the current transaction, seen the same on every lane.

``Sentinel.current()``, ``db.current()`` and
``detector.current_transaction()`` all read the detector's execution
context. Pool workers and asyncio tasks run in a copy of the trigger's
context, so an action there sees the facade transaction it was
triggered under; a detached activation runs in a copy of the trigger's
context whose execution state is a fresh top-level transaction, so it
sees no facade or database transaction but keeps the trigger's trace
and detector. The binding is undone by token, so a closed system leaves
nothing in the caller's context.
"""

import asyncio
import threading
from contextvars import copy_context

import pytest

from repro.core.reactive import get_current_detector
from repro.core.scheduler import SerialExecutor, ThreadedExecutor
from repro.oodb.object_model import Persistent
from repro.sentinel import Sentinel


class Note(Persistent):
    def __init__(self, text):
        self.text = text


def observe(system, seen):
    """Record what an action sees of its context."""
    seen.append({
        "facade": system.current(),
        "oodb": system.db.current(),
        "nested": system.detector.current_transaction(),
        "detector": get_current_detector(),
        "trace": system.telemetry.current_trace_id(),
        "thread": threading.current_thread().name,
    })


def run_lane(tmp_path, lane):
    """Raise ``e`` once inside a facade transaction; return what each
    action saw, the transaction and the occurrence's trace id."""
    executor = ThreadedExecutor(2) if lane == "pool" else SerialExecutor()
    system = Sentinel(directory=tmp_path / lane, name=f"bind-{lane}",
                      executor=executor)
    seen, lock = [], threading.Lock()
    try:
        system.explicit_event("e")
        if lane == "async":
            async def act(occurrence):
                await asyncio.sleep(0)
                with lock:
                    observe(system, seen)
        else:
            def act(occurrence):
                with lock:
                    observe(system, seen)
        rules = 3 if lane == "pool" else 1
        for index in range(rules):
            system.rule(
                f"r{index}", "e", action=act, priority=1,
                coupling="detached" if lane == "detached" else "immediate",
            )
        with system.transaction() as txn:
            occurrence = system.raise_event("e")
            system.wait_detached(timeout=10)
        return seen, txn, occurrence.trace_id, system
    finally:
        system.close()


@pytest.mark.parametrize("lane", ["serial", "pool", "async"])
def test_immediate_lanes_see_the_facade_transaction(tmp_path, lane):
    seen, txn, trace, system = run_lane(tmp_path, lane)
    assert len(seen) == (3 if lane == "pool" else 1)
    if lane == "pool":
        assert any(s["thread"].startswith("sentinel-rule") for s in seen)
    if lane == "async":
        assert seen[0]["thread"].startswith("sentinel-async")
    for view in seen:
        assert view["facade"] is txn
        assert view["oodb"] is txn.oodb
        assert view["nested"].root() is txn.root
        assert view["nested"].label.startswith("rule:")
        assert view["detector"] is system.detector
        assert view["trace"] == trace


def test_detached_lane_sees_its_own_root_and_the_trigger_trace(tmp_path):
    seen, txn, trace, system = run_lane(tmp_path, "detached")
    (view,) = seen
    assert view["thread"].startswith("detached-worker")
    assert view["facade"] is None
    assert view["oodb"] is None
    root = view["nested"].root()
    assert root.label == "detached:r0"
    assert root is not txn.root
    assert view["trace"] == trace
    assert view["detector"] is system.detector


def test_detached_action_from_an_unactivated_thread_has_the_detector(
        tmp_path):
    """A thread that never activated the system (a server connection, a
    plain user thread) raises the trigger: the detached action still has
    this system's detector current, so its reactive calls reach it."""
    system = Sentinel(directory=tmp_path / "db", name="bind-plain")
    seen = []
    try:
        system.explicit_event("e")
        system.rule("r0", "e", coupling="detached",
                    action=lambda occ: observe(system, seen))
        raised = []

        def plain():
            raised.append(get_current_detector())
            system.raise_event("e")

        thread = threading.Thread(target=plain)
        thread.start()
        thread.join(timeout=10)
        system.wait_detached(timeout=10)
    finally:
        system.close()
    assert raised == [None]
    (view,) = seen
    assert view["thread"].startswith("detached-worker")
    assert view["detector"] is system.detector
    assert view["facade"] is None
    assert view["nested"].root().label == "detached:r0"


def test_pool_workers_persist_into_the_facade_transaction(tmp_path):
    system = Sentinel(directory=tmp_path / "db", name="bind-persist",
                      executor=ThreadedExecutor(2))
    threads = set()
    lock = threading.Lock()
    try:
        system.register_class(Note)
        system.explicit_event("e")
        for index in range(2):
            def store(occurrence, index=index):
                with lock:
                    threads.add(threading.current_thread().name)
                system.current().persist(Note(f"n{index}"), name=f"n{index}")
            system.rule(f"store{index}", "e", action=store, priority=1)
        with system.transaction():
            system.raise_event("e")
    finally:
        system.close()
    assert all(name.startswith("sentinel-rule") for name in threads)
    reopened = Sentinel(directory=tmp_path / "db", name="bind-reopen")
    try:
        reopened.register_class(Note)
        with reopened.transaction() as txn:
            assert txn.lookup("n0").text == "n0"
            assert txn.lookup("n1").text == "n1"
    finally:
        reopened.close()


def test_closed_systems_leave_nothing_in_the_context():
    def cycle():
        system = Sentinel(name="bind-cycle")
        with system.transaction():
            pass
        system.close()

    cycle()  # the first system binds the shared current-detector slot
    before = len(copy_context())
    for __ in range(10_000):
        cycle()
    assert len(copy_context()) == before


def test_commit_on_another_thread_unbinds_both(tmp_path):
    system = Sentinel(directory=tmp_path / "db", name="bind-handoff")
    try:
        system.explicit_event("e")
        deferred = []

        def later(occurrence):
            # Runs on the committing thread, under the transaction it
            # was deferred to.
            deferred.append((system.current(), system.db.current(),
                             system.detector.current_transaction().root()))

        system.rule("later", "e", action=later, coupling="deferred")
        txn = system.begin()
        assert system.current() is txn
        assert system.db.current() is txn.oodb
        system.raise_event("e")
        seen = []

        def other():
            seen.append(system.current())
            system.commit(txn)
            seen.append(system.current())

        worker = threading.Thread(target=other)
        worker.start()
        worker.join(timeout=10)
        assert seen == [None, None]
        assert txn.finished
        assert deferred == [(txn, txn.oodb, txn.root)]
        assert system.current() is None
        assert system.db.current() is None
        again = system.begin()
        assert system.current() is again
        again.commit()
        assert system.current() is None
    finally:
        system.close()
