"""Rule scheduling: prioritized, concurrent, nested execution (Fig. 3).

When one or more rules trigger, the application is suspended and the
scheduler runs them: rules are grouped into *priority classes* (higher
number runs first); execution is serial across classes and — with the
threaded executor — concurrent within a class, which "combines the
advantages of both integer priority schemes and precedes/follows
schemes" (paper §3.1).

Each rule execution is packaged as a *subtransaction* of the triggering
transaction (Fig. 3's ``cond_action`` thread body): the condition runs
with event signaling suppressed (conditions are side-effect-free and
must not trigger rules), and if it returns true the action runs with
signaling enabled, so actions can trigger further rules. Nested
triggering is depth-first: the nested rules run to completion before
the triggering action returns from its ``notify``. The subtransaction
is begun on first use (see :class:`PendingSubtransaction`): a rule
whose condition is false or whose action never touches its
transaction has nothing to undo, so it gets none.
"""

from __future__ import annotations

import inspect
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextvars import copy_context
from dataclasses import dataclass
from itertools import groupby
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.params import EventModifier, Occurrence
from repro.core.rules import Rule
from repro.errors import RuleExecutionError
from repro.faults import registry as faults
from repro.faults.retry import DETERMINISTIC_POLICY, call_with_retry
from repro.telemetry.events import ConditionEvaluated, RuleExecution
from repro.transactions.nested import NestedTransaction, NestedTransactionManager

if TYPE_CHECKING:
    from repro.core.detector import LocalEventDetector

#: pseudo-class under which rule executions signal primitive events
#: (method name = rule name), enabling rules over rule executions.
RULE_CLASS = "$RULE"

faults.declare("detached.submit.pre", "detached.run.pre", group="scheduler")


@dataclass(slots=True)
class RuleActivation:
    """One triggering of one rule, waiting to be executed."""

    rule: Rule
    occurrence: Occurrence
    #: transaction the rule subtransaction nests under (captured when
    #: the trigger happened, so worker threads inherit the right parent)
    parent_txn: Optional[NestedTransaction] = None
    #: telemetry scope open when the trigger happened; the rule span
    #: links here even when it executes on another thread (detached)
    parent_span_id: Optional[int] = None
    #: end-to-end trace open when the trigger happened; detached worker
    #: threads adopt it so the rule span joins the originating trace
    trace_id: Optional[str] = None
    #: ``perf_counter`` at detached-queue submit (wait-time accounting)
    enqueued_at: Optional[float] = None
    depth: int = 0

    @property
    def priority(self) -> int:
        return self.rule.priority


class PendingSubtransaction:
    """A rule's subtransaction that has not been begun yet.

    While a rule runs inside a transaction, the scheduler parks one of
    these in the detector's current-transaction slot.
    :meth:`~repro.core.detector.LocalEventDetector.current_transaction`
    begins the real :class:`NestedTransaction` the first time anything
    asks for it — a lock, ``protect``, ``record_undo``, or a rule the
    action triggers — and never returns the record itself.
    ``top_level_id`` is the parent's, so stamping an occurrence's
    ``txn_id`` begins nothing.
    """

    __slots__ = ("manager", "parent", "rule_name", "top_level_id", "begun")

    def __init__(self, manager: NestedTransactionManager,
                 parent: NestedTransaction, rule_name: str):
        self.manager = manager
        self.parent = parent
        self.rule_name = rule_name
        self.top_level_id = parent.top_level_id
        #: the subtransaction, once something asked for it
        self.begun: Optional[NestedTransaction] = None

    def begin(self) -> NestedTransaction:
        if self.begun is None:
            self.begun = self.manager.begin_sub(
                self.parent, label=f"rule:{self.rule_name}"
            )
        return self.begun


@dataclass
class SchedulerStats:
    executions: int = 0
    condition_rejections: int = 0
    failures: int = 0
    max_depth_seen: int = 0
    batches: int = 0


class SerialExecutor:
    """Deterministic executor: rules of one priority class run in
    trigger order on the calling thread."""

    def execute(self, activations: list[RuleActivation],
                run_one: Callable[[RuleActivation], None]) -> None:
        for activation in activations:
            run_one(activation)

    def shutdown(self) -> None:
        """Nothing to release."""


class ThreadedExecutor:
    """Concurrent executor: one priority class at a time, its rules on a
    pool of reusable threads (the paper's "pool of free threads").

    Each activation runs in a copy of the submitting context, so its
    transaction, nesting depth, trace and current detector follow it
    onto the worker. A class that begins on one of the pool's own
    workers runs there, in trigger order (caller-runs): a worker never
    waits on the pool it occupies, so a nested cascade cannot starve it.
    """

    def __init__(self, max_workers: int = 8):
        #: idents of the pool's threads, recorded as each starts: being
        #: a worker is a fact about the thread, not about the context
        self._workers: set[int] = set()
        workers = self._workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="sentinel-rule",
            initializer=lambda: workers.add(threading.get_ident()),
        )

    def execute(self, activations: list[RuleActivation],
                run_one: Callable[[RuleActivation], None]) -> None:
        if len(activations) == 1 or threading.get_ident() in self._workers:
            for activation in activations:
                run_one(activation)
            return
        futures = [
            self._pool.submit(copy_context().run, run_one, a)
            for a in activations
        ]
        wait(futures)
        for future in futures:
            exc = future.exception()
            if exc is not None:
                raise exc

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


class RuleScheduler:
    """Executes batches of rule activations with priority ordering."""

    #: guard against runaway mutual triggering (rule A fires rule B
    #: fires rule A ...). The paper supports "arbitrary levels" of
    #: nesting; a production system still needs a backstop.
    MAX_DEPTH = 64
    #: failed activations kept in ``errors`` (each holds a traceback);
    #: ``stats.failures`` counts them all
    ERRORS_KEPT = 64

    def __init__(
        self,
        detector: "LocalEventDetector",
        executor: Optional[SerialExecutor | ThreadedExecutor] = None,
        txn_manager: Optional[NestedTransactionManager] = None,
        error_policy: str = "raise",
    ):
        if error_policy not in ("raise", "abort_rule"):
            raise ValueError(
                f"error_policy must be 'raise' or 'abort_rule', "
                f"got {error_policy!r}"
            )
        self._detector = detector
        self.executor = executor or SerialExecutor()
        self.txn_manager = txn_manager
        self.error_policy = error_policy
        self.stats = SchedulerStats()
        #: the detector's (transaction, depth, rule) context variable
        self._execution = detector._execution
        #: asyncio lane for executor="async" rules, created on first use
        #: (a detector with no async rules never starts the loop thread)
        self._async_lane = None
        self._async_lane_lock = threading.Lock()
        #: the latest ERRORS_KEPT failures, oldest first
        self.errors: list[RuleExecutionError] = []
        #: called with (phase, rule, occurrence, info) where phase is one
        #: of "start", "condition", "done", "failed" — debugger hook.
        self.listeners: list[Callable[[str, Rule, Occurrence, dict], None]] = []

    # -- depth tracking (per context) ------------------------------------------

    def _depth(self) -> int:
        return self._execution.get()[1]

    def current_rule(self) -> Optional[Rule]:
        """The rule executing in this context, if any (debugger use)."""
        return self._execution.get()[2]

    def _notify(self, phase: str, rule: Rule, occurrence: Occurrence,
                **info) -> None:
        for listener in self.listeners:
            listener(phase, rule, occurrence, info)

    def _record_failure(self, error: RuleExecutionError) -> None:
        """Count a failed activation and keep it among the latest few."""
        self.stats.failures += 1
        errors = self.errors
        errors.append(error)
        if len(errors) > self.ERRORS_KEPT:
            del errors[0]

    # -- batch execution ------------------------------------------------------------

    def run(self, activations: list[RuleActivation]) -> None:
        """Run a batch: priority classes high-to-low, FIFO within one."""
        if not activations:
            return
        self.stats.batches += 1
        if len(activations) == 1:
            # One trigger is by far the common case on the hot path;
            # sorting and grouping a singleton costs more than the
            # dispatch itself. (run_one routes async rules itself.)
            self.executor.execute(activations, self.run_one)
            return
        # Resolve named priority classes through the detector's scheme
        # at dispatch time, so re-ranking a class takes effect
        # immediately (paper §3.1).
        rank = self._detector.priorities.rank
        ordered = sorted(
            activations, key=lambda a: -rank(a.rule.priority)
        )  # stable: trigger order preserved within a class
        for __, group in groupby(
            ordered, key=lambda a: rank(a.rule.priority)
        ):
            self._run_class(list(group))

    def _run_class(self, group: list[RuleActivation]) -> None:
        """One priority class, split across lanes.

        Async activations are gathered concurrently on the asyncio lane
        while sync ones ride the configured executor on this thread;
        the class is a barrier — both legs finish before the caller
        sees the next class (the paper's serial-across-classes,
        concurrent-within-a-class discipline). A class begun on one of
        the lane's loop threads runs serially on the nested lane.
        """
        async_batch = [a for a in group if a.rule.executor == "async"]
        if not async_batch:
            self.executor.execute(group, self.run_one)
            return
        lane = self.async_lane.route()
        if lane is not self._async_lane:
            # Begun inside an async action, whose loop thread waits for
            # this class: like a class begun on a pool worker, it runs
            # in trigger order and stops at the first error, so a
            # runaway cascade fails once per level, not once per path.
            for activation in group:
                self.run_one(activation)
            return
        sync_batch = [a for a in group if a.rule.executor != "async"]
        future = lane.submit_gather(
            [self._cond_action(a, awaits=True) for a in async_batch]
        )
        first_error: Optional[BaseException] = None
        try:
            if sync_batch:
                self.executor.execute(sync_batch, self.run_one)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            first_error = exc
        # The barrier runs even when the sync leg failed: every async
        # task completes (gather with return_exceptions), matching the
        # ThreadedExecutor's all-run-then-raise-first discipline.
        results = future.result()
        if first_error is None:
            for result in results:
                if isinstance(result, BaseException):
                    first_error = result
                    break
        if first_error is not None:
            raise first_error

    @property
    def async_lane(self):
        """The asyncio execution lane, started on first use."""
        lane = self._async_lane
        if lane is None:
            with self._async_lane_lock:
                lane = self._async_lane
                if lane is None:
                    from repro.core.async_executor import AsyncExecutor

                    lane = AsyncExecutor(
                        name=f"sentinel-async:{self._detector.name}"
                    )
                    self._async_lane = lane
        return lane

    def run_one(self, activation: RuleActivation) -> None:
        """Fig. 3's ``cond_action``: condition+action in a subtransaction."""
        if activation.rule.executor == "async":
            # Route singleton/detached async activations to the lane,
            # blocking this thread until the coroutine completes so the
            # cascade stays depth-first (notify returns only after the
            # rule finished). route() keeps the lane's own loop thread
            # from blocking on itself. The task runs in a copy of this
            # context, so depth and transaction carry across the hop.
            lane = self.async_lane.route()
            return lane.run(self._cond_action(activation, awaits=True))
        # A sync action never suspends the bracket, so one send() runs
        # it to the end; its errors propagate out of send().
        try:
            self._cond_action(activation, awaits=False).send(None)
        except StopIteration:
            pass

    async def _cond_action(self, activation: RuleActivation,
                           awaits: bool) -> None:
        """The rule bracket both lanes run.

        Depth check, the rule's subtransaction, ``$RULE`` signals,
        condition, action, commit or abort, error policy, listener
        phases and span stamping. Only the action call differs: with
        ``awaits`` (the asyncio lane) an awaitable result is awaited,
        so the tasks of one priority class interleave there while each
        rule's set-up and commit still run within one step.

        The subtransaction is only a :class:`PendingSubtransaction`
        until something asks the detector for it; commit and abort
        apply to it only if it was begun.
        """
        rule = activation.rule
        occurrence = activation.occurrence
        detector = self._detector
        telemetry = detector.telemetry
        execution = self._execution
        depth = execution.get()[1] + 1
        span = None
        if telemetry.active:
            span = telemetry.span(
                RuleExecution,
                parent_id=activation.parent_span_id,
                trace_id=activation.trace_id,
                rule_name=rule.name,
                coupling=rule.coupling.value,
                depth=depth,
                lane="async" if awaits else "sync",
            )
        # The span's phase fields, handed over when it closes.
        outcome = "completed"
        condition_ms = commit_ms = 0.0
        try:
            if depth > self.MAX_DEPTH:
                # Not counted as a rule failure: the error is charged to
                # the triggering rule whose action recursed.
                outcome = "depth_exceeded"
                raise RuleExecutionError(
                    rule.name,
                    "nesting",
                    RecursionError(f"rule nesting exceeded {self.MAX_DEPTH}"),
                )
            stats = self.stats
            if stats.max_depth_seen < depth:
                stats.max_depth_seen = depth
            txn = activation.parent_txn
            pending = None
            if txn is not None and self.txn_manager is not None:
                txn = pending = PendingSubtransaction(
                    self.txn_manager, txn, rule.name
                )
            # One set for the whole bracket; its reset also undoes a
            # current_transaction() that began the pending record.
            token = execution.set((txn, depth, rule))
            listeners = self.listeners
            if listeners:
                self._notify("start", rule, occurrence, depth=depth)
            try:
                # "The rule class can be both reactive and notifiable":
                # executing a rule is itself a potential primitive event
                # (class $RULE, method = rule name), enabling meta-rules.
                self._signal_rule_event(rule, EventModifier.BEGIN)
                # Conditions are side-effect free: suppress event
                # signaling so a condition calling an event-generating
                # method does not trigger rules (paper §3.2.1's global
                # acknowledge flag).
                # The rule span's condition_ms is what metrics read; a
                # ConditionEvaluated span is opened only for a
                # processor that asked for one.
                condition_span = None
                if span is not None:
                    if ConditionEvaluated in telemetry.routed:
                        condition_span = telemetry.span(
                            ConditionEvaluated, rule_name=rule.name
                        )
                    condition_started = perf_counter()
                satisfied = False
                suppressed = detector._suppressed
                held = suppressed.set(True)
                try:
                    satisfied = bool(rule.condition(occurrence))
                except Exception as exc:
                    raise RuleExecutionError(
                        rule.name, "condition", exc
                    ) from exc
                finally:
                    suppressed.reset(held)
                    if span is not None:
                        condition_ms = (
                            perf_counter() - condition_started
                        ) * 1000.0
                        if condition_span is not None:
                            condition_span.close(satisfied=satisfied)
                if listeners:
                    self._notify("condition", rule, occurrence,
                                 satisfied=satisfied, depth=depth)
                if satisfied:
                    try:
                        result = rule.action(occurrence)
                        # Checked, not assumed: a sync action may ride
                        # executor="async" too.
                        if awaits and inspect.isawaitable(result):
                            await result
                    except RuleExecutionError:
                        raise  # a nested rule failed; keep its report
                    except Exception as exc:
                        raise RuleExecutionError(
                            rule.name, "action", exc
                        ) from exc
                    rule.executed_count += 1
                    stats.executions += 1
                else:
                    stats.condition_rejections += 1
                self._signal_rule_event(rule, EventModifier.END)
                sub = pending.begun if pending is not None else None
                if sub is not None:
                    if span is not None:
                        commit_start = perf_counter()
                        sub.commit()
                        commit_ms = (perf_counter() - commit_start) * 1000.0
                    else:
                        sub.commit()
                outcome = "completed" if satisfied else "rejected"
                if listeners:
                    self._notify("done", rule, occurrence, depth=depth)
            except Exception as exc:
                if pending is not None and pending.begun is not None:
                    pending.begun.abort()
                error = exc if isinstance(exc, RuleExecutionError) else (
                    RuleExecutionError(rule.name, "execution", exc)
                )
                self._record_failure(error)
                outcome = "failed"
                if listeners:
                    self._notify("failed", rule, occurrence,
                                 depth=depth, error=error)
                if self.error_policy == "raise":
                    raise error from exc
            finally:
                execution.reset(token)
        finally:
            if span is not None:
                span.close(outcome=outcome, condition_ms=condition_ms,
                           commit_ms=commit_ms)

    def _signal_rule_event(self, rule: Rule, modifier: EventModifier) -> None:
        """Signal a ``$RULE`` meta-event for ``rule`` if one is armed
        (otherwise the Notify is only counted)."""
        detector = self._detector
        if not detector.graph.primitives_for(RULE_CLASS):
            return  # the common case: no meta-rules at all
        if detector.sentry(type(rule), RULE_CLASS, rule.name, modifier):
            detector.notify(
                rule, RULE_CLASS, rule.name, modifier,
                {"rule": rule.name, "priority": rule.priority},
            )

    def shutdown(self) -> None:
        lane = self._async_lane
        if lane is not None:
            lane.shutdown()
            self._async_lane = None
        self.executor.shutdown()


# =========================================================================
# Detached-rule queue
# =========================================================================

@dataclass
class DetachedQueueStats:
    submitted: int = 0
    executed: int = 0
    dropped: int = 0
    spilled: int = 0
    blocked: int = 0
    errors: int = 0


class DetachedRuleQueue:
    """A bounded queue of DETACHED-coupled activations with backpressure.

    The thread-per-activation scheme the facade used before has no
    bound: a trigger storm creates a thread storm. This queue caps the
    backlog at ``capacity`` and resolves overflow with one of three
    policies:

    * ``"block"`` — the producing (triggering) thread waits for room;
      detection slows down instead of memory growing without bound;
    * ``"drop_oldest"`` — the oldest queued activation is discarded to
      make room (freshest-wins, for advisory rules);
    * ``"spill"`` — the oldest queued activation is handed to the
      spill sink (e.g. an event log via :func:`eventlog_spill`) for
      later batch replay, then discarded from the queue.

    ``workers`` daemon threads drain the queue through ``runner`` (the
    facade's run-in-fresh-top-level-transaction body). Worker errors
    are counted in ``stats.errors`` and the latest kept in ``errors`` —
    a failing detached rule must not kill the drain loop. Every
    overflow emits a
    :class:`~repro.telemetry.events.DetachedOverflow` point.
    """

    def __init__(
        self,
        runner: Callable[[RuleActivation], None],
        capacity: int = 256,
        policy: str = "block",
        workers: int = 2,
        spill_sink: Optional[Callable[[RuleActivation], None]] = None,
        telemetry=None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in ("block", "drop_oldest", "spill"):
            raise ValueError(
                f"policy must be 'block', 'drop_oldest' or 'spill', "
                f"got {policy!r}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        from repro.telemetry.hub import TelemetryHub

        self._runner = runner
        self.capacity = capacity
        self.policy = policy
        self.telemetry = telemetry if telemetry is not None else TelemetryHub()
        self._spill_sink = spill_sink
        #: activations spilled with no sink configured (inspect/replay)
        self.spill_log: list[RuleActivation] = []
        self.stats = DetachedQueueStats()
        #: the latest 64 worker errors; ``stats.errors`` counts them all
        self.errors: deque[tuple[str, Exception]] = deque(maxlen=64)
        self._queue: deque[RuleActivation] = deque()
        #: queue-residency (wait) accounting, updated under the lock
        self._wait_count = 0
        self._wait_total_ms = 0.0
        self._wait_max_ms = 0.0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._active = 0
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._drain, name=f"detached-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- producer side -----------------------------------------------------------

    def submit(self, activation: RuleActivation) -> None:
        """Enqueue one activation, applying the overflow policy."""
        if faults.ENABLED:
            faults.fault_point("detached.submit.pre")
        spill_out: list[RuleActivation] = []
        with self._lock:
            if self._closed:
                raise RuntimeError("detached queue is closed")
            while len(self._queue) >= self.capacity:
                self._overflow_point(activation)
                if self.policy == "block":
                    self.stats.blocked += 1
                    self._not_full.wait()
                    if self._closed:
                        raise RuntimeError("detached queue is closed")
                elif self.policy == "drop_oldest":
                    self._queue.popleft()
                    self.stats.dropped += 1
                else:  # spill
                    spill_out.append(self._queue.popleft())
                    self.stats.spilled += 1
            activation.enqueued_at = perf_counter()
            self._queue.append(activation)
            self.stats.submitted += 1
            self._not_empty.notify()
        # The sink runs outside the lock: it may be arbitrarily slow
        # (file-backed event log) and must not stall the workers.
        for victim in spill_out:
            self._spill(victim)

    def _overflow_point(self, activation: RuleActivation) -> None:
        if self.telemetry.active:
            from repro.telemetry.events import DetachedOverflow

            self.telemetry.point(
                DetachedOverflow,
                rule_name=activation.rule.name,
                policy=self.policy,
                backlog=len(self._queue),
            )

    def _spill(self, activation: RuleActivation) -> None:
        if self._spill_sink is not None:
            self._spill_sink(activation)
        else:
            self.spill_log.append(activation)

    # -- worker side ----------------------------------------------------------------

    def _drain(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._not_empty.wait()
                if not self._queue and self._closed:
                    return
                activation = self._queue.popleft()
                self._active += 1
                self._not_full.notify()
                if activation.enqueued_at is not None:
                    wait_ms = (
                        perf_counter() - activation.enqueued_at
                    ) * 1000.0
                    self._wait_count += 1
                    self._wait_total_ms += wait_ms
                    if wait_ms > self._wait_max_ms:
                        self._wait_max_ms = wait_ms
                else:
                    wait_ms = None
            if wait_ms is not None and self.telemetry.active:
                from repro.telemetry.events import DetachedQueueWait

                self.telemetry.point(
                    DetachedQueueWait,
                    parent_id=activation.parent_span_id,
                    trace_id=activation.trace_id,
                    rule_name=activation.rule.name,
                    wait_ms=wait_ms,
                )
            try:
                # Transient injected faults at the run site are retried
                # so one flaky delivery does not burn an activation; an
                # InjectedCrash is a BaseException and sails through the
                # Exception handler below, killing the worker like a
                # real crash would.
                if faults.ENABLED:
                    def run_once() -> None:
                        faults.fault_point("detached.run.pre")
                        self._runner(activation)

                    call_with_retry(
                        run_once,
                        site="detached.run", policy=DETERMINISTIC_POLICY,
                    )
                else:
                    self._runner(activation)
            except Exception as exc:
                self.errors.append((activation.rule.name, exc))
                self.stats.errors += 1
            finally:
                with self._lock:
                    self._active -= 1
                    self.stats.executed += 1
                    if not self._queue and self._active == 0:
                        self._idle.notify_all()

    # -- synchronization ------------------------------------------------------------

    def backlog(self) -> int:
        """Queued + currently executing activations."""
        with self._lock:
            return len(self._queue) + self._active

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait until the queue is empty and every worker is idle.

        Returns False if ``timeout`` (seconds) elapsed first; ``None``
        waits forever.
        """
        deadline = (
            perf_counter() + timeout if timeout is not None else None
        )
        with self._lock:
            while self._queue or self._active:
                remaining = None
                if deadline is not None:
                    remaining = deadline - perf_counter()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
            return True

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting work, drain the backlog, stop the workers.

        ``_closed`` is set *before* any waiting: a producer parked in
        ``submit()`` under ``policy="block"`` is woken and raises
        instead of hanging forever (closing used to join first, which
        never returned while a producer held an activation it could not
        enqueue). All three conditions are notified — waking blocked
        producers (``_not_full``), idle workers (``_not_empty``) and
        ``join()`` callers (``_idle``). Workers still drain everything
        already queued before exiting.
        """
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
            self._idle.notify_all()
        for worker in self._workers:
            worker.join(timeout if timeout is not None else None)

    def snapshot(self) -> dict:
        """Gauges and counters for ``/metrics`` and ``/health``."""
        with self._lock:
            depth = len(self._queue)
            active = self._active
            wait_count = self._wait_count
            wait_total = self._wait_total_ms
            wait_max = self._wait_max_ms
        return {
            "capacity": self.capacity,
            "policy": self.policy,
            "depth": depth,
            "active": active,
            "submitted": self.stats.submitted,
            "executed": self.stats.executed,
            "dropped": self.stats.dropped,
            "spilled": self.stats.spilled,
            "blocked": self.stats.blocked,
            "errors": self.stats.errors,
            "wait_count": wait_count,
            "wait_ms_avg": round(
                wait_total / wait_count, 4
            ) if wait_count else 0.0,
            "wait_ms_max": round(wait_max, 4),
        }


def eventlog_spill(log) -> Callable[[RuleActivation], None]:
    """Adapt an :class:`~repro.eventlog.log.EventLog` into a spill sink.

    A spilled activation is recorded as its triggering occurrence's
    primitive constituents, so a later batch :func:`~repro.eventlog.replay.replay`
    of the log re-detects the composite and re-triggers the rule.
    """
    from repro.core.params import PrimitiveOccurrence

    def sink(activation: RuleActivation) -> None:
        def walk(occurrence) -> None:
            if isinstance(occurrence, PrimitiveOccurrence):
                log.append(occurrence)
                return
            for constituent in getattr(occurrence, "constituents", ()):
                walk(constituent)

        walk(activation.occurrence)

    return sink
