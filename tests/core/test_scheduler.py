"""Tests for rule scheduling: nesting, threads, subtransactions, errors."""

import threading

import pytest

from repro.core.detector import LocalEventDetector
from repro.core.scheduler import ThreadedExecutor
from repro.errors import RuleExecutionError
from repro.transactions.nested import NestedTransactionManager, TxnState
from tests.core.conftest import collect


class TestNestedTriggering:
    def test_action_triggers_another_rule(self, det):
        det.explicit_event("outer")
        det.explicit_event("inner")
        order = []
        det.rule("r_outer", "outer", condition=lambda o: True,
                 action=lambda o: (order.append("outer"), det.raise_event("inner")))
        det.rule("r_inner", "inner", condition=lambda o: True,
                 action=lambda o: order.append("inner"))
        det.raise_event("outer")
        assert order == ["outer", "inner"]

    def test_depth_first_execution(self, det):
        """A nested rule completes before the next sibling runs."""
        det.explicit_event("e")
        det.explicit_event("child")
        order = []

        def parent_action(occ):
            order.append("parent-start")
            det.raise_event("child")  # nested trigger: runs inline
            order.append("parent-end")

        det.rule("parent", "e", condition=lambda o: True, action=parent_action, priority=5)
        det.rule("sibling", "e", condition=lambda o: True,
                 action=lambda o: order.append("sibling"), priority=1)
        det.rule("childr", "child", condition=lambda o: True,
                 action=lambda o: order.append("child"))
        det.raise_event("e")
        assert order == ["parent-start", "child", "parent-end", "sibling"]

    def test_arbitrary_nesting_levels(self, det):
        det.explicit_event("lvl")
        depths = []

        def action(occ):
            depth = occ.params.value("d")
            depths.append(depth)
            if depth < 10:
                det.raise_event("lvl", d=depth + 1)

        det.rule("nest", "lvl", condition=lambda o: True, action=action)
        det.raise_event("lvl", d=1)
        assert depths == list(range(1, 11))
        assert det.scheduler.stats.max_depth_seen == 10

    def test_runaway_nesting_is_stopped(self, det):
        det.explicit_event("loop")
        det.rule("fork", "loop", condition=lambda o: True,
                 action=lambda o: det.raise_event("loop"))
        with pytest.raises(RuleExecutionError):
            det.raise_event("loop")


class TestErrors:
    def test_failing_action_raises_rule_execution_error(self, det):
        det.explicit_event("e")
        det.rule("bad", "e", condition=lambda o: True,
                 action=lambda o: (_ for _ in ()).throw(ValueError("boom")))
        with pytest.raises(RuleExecutionError) as info:
            det.raise_event("e")
        assert info.value.rule_name == "bad"
        assert info.value.phase == "action"

    def test_failing_condition_reported_as_condition_phase(self, det):
        det.explicit_event("e")
        det.rule("bad", "e",
                 condition=lambda o: (_ for _ in ()).throw(KeyError("missing")),
                 action=lambda o: None)
        with pytest.raises(RuleExecutionError) as info:
            det.raise_event("e")
        assert info.value.phase == "condition"

    def test_abort_rule_policy_continues(self):
        det = LocalEventDetector(error_policy="abort_rule")
        try:
            det.explicit_event("e")
            ran = []
            det.rule("bad", "e", condition=lambda o: True,
                     action=lambda o: (_ for _ in ()).throw(ValueError("x")),
                     priority=10)
            det.rule("good", "e", condition=lambda o: True, action=ran.append, priority=1)
            det.raise_event("e")  # no exception escapes
            assert len(ran) == 1
            assert len(det.scheduler.errors) == 1
            assert det.scheduler.stats.failures == 1
        finally:
            det.shutdown()


class TestSubtransactions:
    @pytest.fixture()
    def with_txns(self):
        ntm = NestedTransactionManager()
        det = LocalEventDetector(txn_manager=ntm)
        yield det, ntm
        det.shutdown()

    def test_rule_runs_as_subtransaction(self, with_txns):
        det, ntm = with_txns
        det.explicit_event("e")
        top = ntm.begin_top(label="app")
        seen = []

        def action(occ):
            seen.append(det.current_transaction())

        det.rule("r", "e", condition=lambda o: True, action=action)
        with det.in_transaction(top):
            det.raise_event("e")
        assert len(seen) == 1
        sub = seen[0]
        assert sub.parent is top
        assert sub.label == "rule:r"
        assert sub.state is TxnState.COMMITTED

    def test_failed_rule_subtransaction_aborts_and_restores(self, with_txns):
        det, ntm = with_txns
        det.explicit_event("e")
        top = ntm.begin_top()

        class Counter:
            value = 0

        counter = Counter()

        def action(occ):
            sub = det.current_transaction()
            sub.protect(counter)
            counter.value = 99
            raise ValueError("fail after mutation")

        det.rule("r", "e", condition=lambda o: True, action=action)
        with det.in_transaction(top), pytest.raises(RuleExecutionError):
            det.raise_event("e")
        assert counter.value == 0  # restored by subtransaction abort

    def test_nested_rules_nest_subtransactions(self, with_txns):
        det, ntm = with_txns
        det.explicit_event("outer")
        det.explicit_event("inner")
        top = ntm.begin_top()
        depths = []

        det.rule("r_out", "outer", condition=lambda o: True,
                 action=lambda o: (depths.append(det.current_transaction().depth),
                            det.raise_event("inner")))
        det.rule("r_in", "inner", condition=lambda o: True,
                 action=lambda o: depths.append(det.current_transaction().depth))
        with det.in_transaction(top):
            det.raise_event("outer")
        assert depths == [1, 2]

    def test_no_transaction_no_subtransaction(self, with_txns):
        det, __ = with_txns
        det.explicit_event("e")
        seen = []
        det.rule("r", "e", condition=lambda o: True,
                 action=lambda o: seen.append(det.current_transaction()))
        det.raise_event("e")
        assert seen == [None]


class TestThreadedExecutor:
    @pytest.fixture()
    def tdet(self):
        det = LocalEventDetector(executor=ThreadedExecutor(max_workers=4))
        yield det
        det.shutdown()

    def test_rules_in_one_class_run_concurrently(self, tdet):
        tdet.explicit_event("e")
        barrier = threading.Barrier(3, timeout=5)
        results = []

        def action(occ):
            barrier.wait()  # deadlocks unless all three run concurrently
            results.append(threading.current_thread().name)

        for i in range(3):
            tdet.rule(f"r{i}", "e", condition=lambda o: True, action=action, priority=5)
        tdet.raise_event("e")
        assert len(results) == 3

    def test_priority_classes_still_serialized(self, tdet):
        tdet.explicit_event("e")
        order = []
        lock = threading.Lock()

        def make_action(tag):
            def action(occ):
                with lock:
                    order.append(tag)
            return action

        for i in range(3):
            tdet.rule(f"hi{i}", "e", condition=lambda o: True, action=make_action("hi"),
                      priority=10)
        for i in range(3):
            tdet.rule(f"lo{i}", "e", condition=lambda o: True, action=make_action("lo"),
                      priority=1)
        tdet.raise_event("e")
        assert order[:3] == ["hi", "hi", "hi"]
        assert order[3:] == ["lo", "lo", "lo"]

    def test_threaded_single_rule_runs_inline(self, tdet):
        tdet.explicit_event("e")
        ran = collect(tdet, "e")
        tdet.raise_event("e")
        assert len(ran) == 1


class TestDetachedCoupling:
    def test_detached_rule_runs_via_handler(self, det):
        det.explicit_event("e")
        handled = []
        det.detached_handler = handled.append
        det.rule("d", "e", condition=lambda o: True, action=lambda o: None,
                 coupling="detached")
        det.raise_event("e")
        assert len(handled) == 1
        assert handled[0].rule.name == "d"
        assert det.stats.detached_dispatches == 1

    def test_detached_without_handler_runs_standalone(self, det):
        det.explicit_event("e")
        ran = []
        det.rule("d", "e", condition=lambda o: True, action=ran.append, coupling="detached")
        det.raise_event("e")
        assert len(ran) == 1
