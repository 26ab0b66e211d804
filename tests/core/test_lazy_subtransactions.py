"""Rule subtransactions are begun on first use.

Inside a transaction the scheduler parks a pending record in the
detector's current-transaction slot; ``current_transaction()`` begins
the real subtransaction the first time anything asks for it. Every
check runs on the three lanes: serial, the thread pool, and the asyncio
lane (with an action that awaits before doing its work, so tasks of one
priority class interleave).
"""

import asyncio

import pytest

from repro.core.scheduler import PendingSubtransaction, ThreadedExecutor
from repro.sentinel import Sentinel
from repro.transactions.nested import NestedTransaction, TxnState

LANES = ["serial", "threaded", "async"]


@pytest.fixture(params=LANES)
def lane(request):
    return request.param


@pytest.fixture()
def system(lane):
    executor = ThreadedExecutor(max_workers=4) if lane == "threaded" else None
    system = Sentinel(name=f"lazy-{lane}", executor=executor,
                      error_policy="abort_rule")
    system.explicit_event("e")
    system.explicit_event("inner")
    system.explicit_event("unwatched")
    yield system
    system.close()


def add_rule(system, lane, name, event, body, condition=lambda o: True,
             priority=1):
    """``body`` as the action, awaited behind a yield on the async lane."""
    if lane == "async":
        async def action(occurrence):
            await asyncio.sleep(0)
            body(occurrence)

        system.rule(name, event, condition=condition, action=action,
                    priority=priority, executor="async")
    else:
        system.rule(name, event, condition=condition, action=body,
                    priority=priority)


def sub_boundaries(system, kind):
    return system.metrics.registry.value(f"txn.sub_{kind}")


def test_untouched_rules_begin_no_subtransaction(system, lane):
    ran, stamped = [], []
    add_rule(system, lane, "never", "e", ran.append,
             condition=lambda o: False)

    def quiet(occurrence):
        ran.append(occurrence)
        # Stamping an occurrence with the transaction id begins nothing.
        stamped.append(system.raise_event("unwatched").txn_id)

    add_rule(system, lane, "quiet", "e", quiet)
    with system.transaction() as txn:
        system.raise_event("e")
        assert txn.root.children == []
        root_id = txn.root.top_level_id
    assert len(ran) == 1
    assert stamped == [root_id]
    assert sub_boundaries(system, "begin") == 0
    assert system.detector.scheduler.stats.failures == 0


def test_asking_begins_a_distinct_subtransaction(system, lane):
    seen = []

    def asker(occurrence):
        detector = system.detector
        seen.append(detector.current_transaction())
        seen.append(detector.current_transaction())

    add_rule(system, lane, "asker", "e", asker)
    with system.transaction() as txn:
        system.raise_event("e")
        root = txn.root
    sub, again = seen
    assert sub is again
    assert isinstance(sub, NestedTransaction) and sub is not root
    assert sub.parent is root and sub.depth == root.depth + 1
    assert sub.label == "rule:asker"
    assert sub.state is TxnState.COMMITTED
    assert root.children == [sub]
    assert sub_boundaries(system, "begin") == 1
    assert sub_boundaries(system, "commit") == 1


def test_failing_rule_undoes_only_its_own_effects(system, lane):
    class Doc:
        pass

    doc = Doc()
    doc.text = doc.notes = "original"

    def good(occurrence):
        system.detector.current_transaction().protect(doc)
        doc.text = "good edit"

    def bad(occurrence):
        system.detector.current_transaction().protect(doc)
        doc.notes = "bad edit"
        raise ValueError("fails after its write")

    add_rule(system, lane, "good", "e", good, priority=10)
    add_rule(system, lane, "bad", "e", bad, priority=1)
    with system.transaction() as txn:
        system.raise_event("e")
        assert (doc.text, doc.notes) == ("good edit", "original")
        states = {child.label: child.state for child in txn.root.children}
    assert states == {"rule:good": TxnState.COMMITTED,
                      "rule:bad": TxnState.ABORTED}
    assert system.detector.scheduler.stats.failures == 1


def test_rule_triggered_from_a_quiet_action_nests_at_depth_two(system, lane):
    depths = []
    add_rule(system, lane, "outer", "e",
             lambda o: system.raise_event("inner"))
    add_rule(system, lane, "inner_rule", "inner",
             lambda o: depths.append(
                 system.detector.current_transaction().depth))
    with system.transaction() as txn:
        system.raise_event("e")
        (outer,) = txn.root.children
        (inner,) = outer.children
    assert depths == [2]
    assert (outer.label, inner.label) == ("rule:outer", "rule:inner_rule")
    assert outer.state is inner.state is TxnState.COMMITTED


def test_current_transaction_never_returns_the_pending_record(system, lane):
    seen = []

    def peek(occurrence):
        detector = system.detector
        parked = detector._local.txn
        seen.append((parked, detector.current_transaction(),
                     detector._local.txn))

    add_rule(system, lane, "peek", "e", peek)
    with system.transaction():
        system.raise_event("e")
    ((parked, txn, slot),) = seen
    assert isinstance(parked, PendingSubtransaction)
    assert isinstance(txn, NestedTransaction) and slot is txn
    assert parked.begun is txn


def test_quiet_rules_construct_no_nested_transaction(monkeypatch):
    """Deterministic guard: a default Sentinel() inside a transaction,
    1,000 events through 24 rules that never ask for their transaction,
    builds not one NestedTransaction (the root is built before)."""
    system = Sentinel(name="no-subtransactions")
    names = ["x0", "x1", "x2", "x3"]
    for name in names:
        system.explicit_event(name)
    expressions = ["x0", "x0 >> x1", "x1 & x2", "x2 | x3",
                   "NOT(x0, x3, x1)", "x3"]
    seen, fired = [], []
    for shape, text in enumerate(expressions):
        node = system.define(f"ev{shape}", text)
        for context in ("recent", "chronicle", "continuous", "cumulative"):
            system.rule(
                f"r{shape}_{context}", node,
                condition=lambda o: seen.append(o) or len(seen) % 2 == 0,
                action=fired.append, context=context,
            )
    built = []
    original = NestedTransaction.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("label", ""))
        original(self, *args, **kwargs)

    try:
        txn = system.begin()
        monkeypatch.setattr(NestedTransaction, "__init__", counting)
        for index in range(1000):
            system.raise_event(names[(index * 7 + index // 3) % 4], v=index)
        system.commit(txn)
        monkeypatch.undo()
        assert fired and len(seen) > len(fired)
        assert built == []
    finally:
        system.close()
