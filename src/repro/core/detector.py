"""The local composite event detector.

One detector exists per application ("the event detector is implemented
as a class and hence we have a single instance of this class per
application"). It owns the event graph, the rule manager, and the rule
scheduler, and is the single entry point for signaling:

* ``notify`` — primitive (method) events, called from wrapper methods
  once ``sentry`` found the event armed;
* ``raise_event`` — explicit events raised by the application;
* ``notify_batch`` / ``raise_events`` — many of either under one
  dispatch;
* ``advance_time`` / ``poll`` — temporal events;
* ``signal_system_event`` — the transaction events of the system class.

The first four are thin wrappers over one ingest path (``_ingest``):
one suppression rule (nothing signaled inside a condition counts), and
one place where an item is stamped — under the detector lock, so
timestamps never run backwards in propagation order.

Detection is *immediate-coupled to the application*: when ``notify``
returns, every immediate rule triggered (transitively) by that event
has run — the application "waits for the signaling of a composite event
that is detected in the immediate mode". Nested triggering is handled
by re-entrance: an action's method calls notify, whose own rule batch
runs before the action continues (depth-first execution).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar, Token
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.clock import Clock, LogicalClock, SimulatedClock
from repro.core.contexts import ParameterContext
from repro.core.events.graph import EventGraph
from repro.core.events.primitive import (
    ExplicitEventNode,
    PrimitiveEventNode,
    TemporalEventNode,
)
from repro.core.params import EventModifier, PrimitiveOccurrence, atomic
from repro.core.rules import (
    Action,
    Condition,
    CouplingMode,
    Rule,
    RuleManager,
    always,
    reject_positional_rule_args,
)
from repro.core.scheduler import (
    PendingSubtransaction,
    RuleActivation,
    RuleScheduler,
    SerialExecutor,
    ThreadedExecutor,
)
from repro.errors import EventError, UnknownEvent
from repro.telemetry.events import (
    BatchIngested,
    DetachedDispatch,
    GraphPropagation,
    NotificationReceived,
    NotificationSuppressed,
    RuleTriggered,
)
from repro.telemetry.hub import TelemetryHub
from repro.transactions.nested import (
    NestedTransaction,
    NestedTransactionManager,
    TxnState,
)

if TYPE_CHECKING:
    from repro.core.events.base import EventNode
    from repro.telemetry.processors import Histogram


@dataclass
class DetectorStats:
    notifications: int = 0
    suppressed: int = 0
    triggers: int = 0
    detached_dispatches: int = 0
    batches: int = 0
    #: explicit raises ingested outside a condition
    raises: int = 0
    #: occurrences produced by the ingests that returned normally
    matched: int = 0


#: the execution state outside any rule: no transaction, depth 0, no
#: rule. Shared by every detector, so it references none of them.
NO_EXECUTION: tuple = (None, 0, None)


def _reject_builder(method: str, replacement: str) -> None:
    """Hard stop for the removed binary builder methods.

    ``detector.and_/or_/seq`` went through a deprecation release and
    are gone; the operator algebra is the only spelling. The error
    names the migration tool that rewrites old call sites.
    """
    from repro.errors import RemovedAPIError

    raise RemovedAPIError(
        f"detector.{method}(left, right) was removed; use the operator "
        f"expression {replacement} instead — "
        "`python tools/migrate_event_algebra.py FILES...` rewrites old "
        "call sites automatically"
    )


def _atomic_pairs(arguments: dict[str, Any] | tuple) -> tuple:
    """Arguments as ``(name, atomic value)`` pairs (a PARA_LIST)."""
    if isinstance(arguments, dict):
        arguments = arguments.items()
    return tuple((k, atomic(v)) for k, v in arguments)


class LocalEventDetector:
    """Per-application composite event detection and rule execution."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        executor: Optional[SerialExecutor | ThreadedExecutor] = None,
        txn_manager: Optional[NestedTransactionManager] = None,
        sharing: bool = True,
        error_policy: str = "raise",
        name: str = "app",
        telemetry: Optional[TelemetryHub] = None,
    ):
        self.name = name
        self.clock = clock if clock is not None else LogicalClock()
        #: shared telemetry hub — dormant (near-no-op emit paths) until
        #: a processor is attached.
        self.telemetry = telemetry if telemetry is not None else TelemetryHub()
        self.graph = EventGraph(self.clock, sharing=sharing,
                                telemetry=self.telemetry)
        self.graph.set_emitter(self._on_trigger)
        #: the detector's one lock domain: propagation, flush and
        #: definition changes made while serving hold it (re-entrant,
        #: so an action's nested notify on this thread passes).
        self.lock = threading.RLock()
        self.rules = RuleManager(self)
        from repro.core.priorities import PriorityScheme

        #: named priority classes (paper §3.1); rules may use ints or names
        self.priorities = PriorityScheme()
        self.txn_manager = txn_manager
        #: where this context is in rule execution: ``(current
        #: transaction, rule nesting depth, current rule)``. A context
        #: variable, so rule pool workers and asyncio tasks inherit it;
        #: the rule bracket swaps the tuple whole.
        self._execution: ContextVar[tuple] = ContextVar(
            f"{name}.execution", default=NO_EXECUTION
        )
        #: raised while a condition runs: signals are dropped
        self._suppressed: ContextVar[bool] = ContextVar(
            f"{name}.suppressed", default=False
        )
        self.scheduler = RuleScheduler(
            self,
            executor=executor,
            txn_manager=txn_manager,
            error_policy=error_policy,
        )
        self.stats = DetectorStats()
        #: the histograms the detector and its scheduler time their
        #: stages into, by metric name; None, and no clock read, until a
        #: registry publishes them (``CounterProcessor.read_engine``)
        self.times: Optional[dict[str, Histogram]] = None
        #: activation frames stay per thread: a frame never outlives one
        #: synchronous propagate under ``lock``, so no other thread or
        #: task can need it
        self._local = threading.local()
        #: names of events forwarded to the global event detector
        self._global_events: set[str] = set()
        self._global_listeners: list[Callable[[PrimitiveOccurrence], None]] = []
        #: handler for DETACHED-coupled activations; the Sentinel facade
        #: installs its detached queue's submit.
        self.detached_handler: Optional[Callable[[RuleActivation], None]] = None
        #: batch mode: record triggers instead of executing rules
        self.collect_mode = False
        self.collected: list[RuleActivation] = []
        #: called with every primitive occurrence (event logging)
        self.occurrence_listeners: list[
            Callable[[PrimitiveOccurrence], None]
        ] = []
        #: called with (rule, occurrence) on every rule trigger (debugger)
        self.trigger_listeners: list[Callable[[Rule, Any], None]] = []

    # =====================================================================
    # Event definition API
    # =====================================================================

    def primitive_event(
        self,
        name: str,
        class_or_instance: Any,
        modifier: EventModifier | str,
        method_name: str,
        snapshot_state: bool = False,
    ) -> PrimitiveEventNode:
        """Define a primitive event, paper §3.1 style.

        ``class_or_instance`` is a class name / class (class-level
        event: fires for every instance) or an object (instance-level:
        fires only for that object). ``method_name`` is matched against
        the invoked method. With ``snapshot_state=True`` every
        occurrence carries a copy of the object's state at signal time
        (see :class:`~repro.core.params.PrimitiveOccurrence`).
        """
        if isinstance(class_or_instance, str):
            class_name, instance = class_or_instance, None
        elif isinstance(class_or_instance, type):
            class_name, instance = class_or_instance.__name__, None
        else:
            class_name = type(class_or_instance).__name__
            instance = class_or_instance
        return self.graph.primitive(
            name, class_name, modifier, method_name, instance=instance,
            snapshot_state=snapshot_state,
        )

    def explicit_event(self, name: str) -> ExplicitEventNode:
        return self.graph.explicit(name)

    def rule_execution_event(self, name: str, rule_name: str,
                             modifier: EventModifier | str = "end",
                             ) -> PrimitiveEventNode:
        """A primitive event on the execution of a rule (meta-rules).

        "Since the rule class can be both reactive and notifiable,
        methods of the rule class can themselves be event generators":
        the begin/end of ``rule_name``'s condition-action execution
        signal this event.
        """
        from repro.core.scheduler import RULE_CLASS

        return self.graph.primitive(name, RULE_CLASS, modifier, rule_name)

    def temporal_event(self, name: str, at: Optional[float] = None,
                       every: Optional[float] = None) -> TemporalEventNode:
        return self.graph.temporal(name, at=at, every=every)

    def event(self, name: str) -> "EventNode":
        """Look up a previously defined (named) event."""
        return self.graph.get(name)

    def define(self, name: str, node: "EventNode") -> "EventNode":
        """Name an event expression for reuse."""
        return self.graph.define(name, node)

    # Operator passthroughs so applications rarely need graph access.
    # The binary builders (``and_``/``or_``/``seq``) were removed after
    # their deprecation release; the operator algebra (``a & b`` /
    # ``a | b`` / ``a >> b``, see repro.core.events.algebra) is the only
    # spelling. The stubs raise RemovedAPIError [E2] naming the
    # migration tool.
    def and_(self, left, right, name=None):
        _reject_builder("and_", "left & right")

    def or_(self, left, right, name=None):
        _reject_builder("or_", "left | right")

    def seq(self, left, right, name=None):
        _reject_builder("seq", "left >> right")

    def not_(self, initiator, forbidden, terminator, name=None):
        return self.graph.not_(
            self._n(initiator), self._n(forbidden), self._n(terminator), name
        )

    def aperiodic(self, initiator, middle, terminator, name=None):
        return self.graph.aperiodic(
            self._n(initiator), self._n(middle), self._n(terminator), name
        )

    def aperiodic_star(self, initiator, middle, terminator, name=None):
        return self.graph.aperiodic_star(
            self._n(initiator), self._n(middle), self._n(terminator), name
        )

    def periodic(self, initiator, period, terminator, name=None):
        return self.graph.periodic(
            self._n(initiator), period, self._n(terminator), name
        )

    def periodic_star(self, initiator, period, terminator, name=None):
        return self.graph.periodic_star(
            self._n(initiator), period, self._n(terminator), name
        )

    def plus(self, initiator, delay, name=None):
        return self.graph.plus(self._n(initiator), delay, name)

    def _n(self, event) -> "EventNode":
        return self.graph.get(event) if isinstance(event, str) else event

    # =====================================================================
    # Rule definition API
    # =====================================================================

    def rule(
        self,
        name: str,
        event: "EventNode | str",
        *legacy_positional,
        condition: Condition = always,
        action: Optional[Action] = None,
        context: str = "recent",
        coupling: str = "immediate",
        priority: int | str = 1,
        trigger_mode: str = "now",
        enabled: bool = True,
        scope: str = "public",
        owner: Optional[str] = None,
        executor: Optional[str] = None,
    ) -> Rule:
        """Define a rule (paper §3.1 ``rule_spec``).

        ``condition`` and ``action`` are keyword-only; ``condition``
        defaults to :func:`~repro.core.rules.always` (event-action
        rules). The deprecated positional condition/action convention
        was removed — old call sites get a RemovedAPIError [E2] naming
        ``tools/migrate_rule_calls.py``.

        ``executor`` selects the execution lane: ``"sync"`` (thread
        lanes), ``"async"`` (the asyncio lane; required for coroutine
        actions) or ``None`` to auto-detect from the action.
        """
        reject_positional_rule_args(legacy_positional)
        if action is None:
            from repro.errors import RuleError

            raise RuleError("rule() requires an action= callable")
        return self.rules.create(
            name, event, condition, action,
            context=context, coupling=coupling, priority=priority,
            trigger_mode=trigger_mode, enabled=enabled,
            scope=scope, owner=owner, executor=executor,
        )

    # =====================================================================
    # Signaling
    # =====================================================================

    def notify(
        self,
        instance: Any,
        class_name: str,
        method_name: str,
        modifier: EventModifier | str,
        arguments: dict[str, Any] | tuple = (),
        txn_id: Optional[int] = None,
    ) -> list[PrimitiveOccurrence]:
        """Signal a method invocation (the wrapper methods' Notify call).

        Returns the primitive occurrences generated — one per matching
        primitive event node (a single ``set_price`` call can fire both
        a class-level and an instance-level event), armed or not: the
        armed test (:meth:`sentry`) is the caller's.
        """
        return self._ingest(
            (instance, class_name, method_name, modifier, arguments),
            txn_id, explicit=False,
        )

    def notify_batch(
        self,
        items,
        txn_id: Optional[int] = None,
    ) -> list[PrimitiveOccurrence]:
        """Signal many method invocations under one dispatch.

        ``items`` is an iterable of ``(instance, class_name,
        method_name, modifier)`` or ``(instance, class_name,
        method_name, modifier, arguments)`` tuples. The whole batch is
        ingested inside a single activation frame — one lock
        acquisition instead of one per item, and one
        :class:`~repro.telemetry.events.BatchIngested` span instead of
        one ``NotificationReceived`` span per item. Each item still
        gets its own clock tick, so occurrence order within the batch
        is the item order, and the triggered rules run once, after the
        last item's cascade.
        """
        return self._ingest(list(items), txn_id, explicit=False)

    def raise_event(self, name: str, txn_id: Optional[int] = None,
                    **params: Any) -> Optional[PrimitiveOccurrence]:
        """Raise an explicit (abstract) event with keyword parameters.

        Returns its occurrence, or None when raised inside a condition
        (suppressed, as every signal there is).
        """
        occurrences = self._ingest((name, params), txn_id, explicit=True)
        return occurrences[0] if occurrences else None

    def raise_events(
        self,
        events,
        txn_id: Optional[int] = None,
    ) -> list[PrimitiveOccurrence]:
        """Raise many explicit events under one dispatch.

        ``events`` is an iterable of event names or ``(name, params)``
        pairs (``params`` a dict). Like :meth:`notify_batch`, the whole
        batch shares one activation frame and one
        :class:`~repro.telemetry.events.BatchIngested` span; triggered
        rules run once, after the last event's cascade. Every name is
        resolved before any event is signaled, so an unknown or
        non-explicit name raises without a partial batch.
        """
        return self._ingest(list(events), txn_id, explicit=True)

    def sentry(self, dynamic: Optional[type], class_name: str,
               method_name: str, modifier: EventModifier) -> bool:
        """Is a Notify of this method event armed? The test a wrapper
        runs before it collects any argument.

        Armed means some matching primitive node has a subscriber: a
        non-zero context counter (the paper's demand-driven detection),
        a mark as global, or occurrence listeners on the detector. An
        unarmed Notify is only counted — no occurrence, clock tick,
        span or dispatch frame — and False tells the caller to skip
        :meth:`notify`.
        """
        if self.occurrence_listeners:
            return True
        marked = self._global_events
        for node in self.graph.route(class_name, dynamic, method_name,
                                     modifier):
            if node._context_counts or (
                marked and node.display_name in marked
            ):
                return True
        stats = self.stats
        stats.notifications += 1
        if self._suppressed.get():
            stats.suppressed += 1
        return False

    def _ingest(self, items, txn_id: Optional[int],
                explicit: bool) -> list[PrimitiveOccurrence]:
        """The one way in behind the four signaling methods.

        ``items`` is one item, or a list of them for a batch; method
        items are Notify tuples, explicit items names or ``(name,
        params)`` pairs. Every item is resolved (name, modifier,
        arguments) before anything is signaled, so a bad one raises
        without a partial batch. Inside a condition the call is only
        counted as suppressed. Otherwise one activation frame covers
        it, timed into ``notify.ms`` (single item) or ``batch.ms``
        (batch) once a registry reads them, and traced as one
        ``NotificationReceived`` or ``BatchIngested`` span when a
        processor routes that class. Without a span a root ingest on an
        active hub still mints the trace its occurrences carry.
        """
        stats = self.stats
        batch = items.__class__ is list
        size = len(items) if batch else 1
        if not explicit:
            stats.notifications += size
        resolve = self._explicit_entry if explicit else self._method_entry
        if batch:
            entries = [resolve(item) for item in items]
            stats.batches += 1
        else:
            entries = (resolve(items),)
        occurrences: list[PrimitiveOccurrence] = []
        telemetry = self.telemetry
        if self._suppressed.get():
            stats.suppressed += size
            if NotificationSuppressed in telemetry.routed:
                if batch:
                    class_name, method_name = "$BATCH", f"{size} items"
                elif explicit:
                    class_name, method_name = "$EXPLICIT", entries[0][1]
                else:
                    class_name, method_name = entries[0][1], entries[0][2]
                telemetry.point(
                    NotificationSuppressed,
                    class_name=class_name, method_name=method_name,
                )
            return occurrences
        if explicit:
            stats.raises += size
        if batch:
            cls, stage = BatchIngested, "batch.ms"
        else:
            cls, stage = NotificationReceived, "notify.ms"
        span = token = None
        if cls in telemetry.routed:
            if batch:
                fields = {"size": size,
                          "source": "explicit" if explicit else "method"}
            elif explicit:
                fields = {"class_name": "$EXPLICIT", "modifier": "raise",
                          "method_name": entries[0][1], "source": "explicit"}
            else:
                __, class_name, method_name, modifier, __ = entries[0]
                fields = {"class_name": class_name, "method_name": method_name,
                          "modifier": modifier.value}
            span = telemetry.span(cls, **fields)
        elif telemetry.active:
            token = telemetry.mint_trace()
        times = self.times
        started = perf_counter() if times is not None else 0.0
        try:
            self._dispatch(self._signal, entries, txn_id, explicit,
                           occurrences)
            stats.matched += len(occurrences)
            if span is not None:
                span.set(matched=len(occurrences))
        finally:
            if times is not None:
                times[stage].observe((perf_counter() - started) * 1000.0)
            if span is not None:
                span.close()
            elif token is not None:
                token.var.reset(token)
        return occurrences

    def _method_entry(self, item) -> tuple:
        """A Notify item as ``(instance, class_name, method_name,
        modifier, arguments)``, its modifier parsed and its arguments
        made atomic pairs."""
        if len(item) == 5:
            instance, class_name, method_name, modifier, arguments = item
        else:
            instance, class_name, method_name, modifier = item
            arguments = ()
        if isinstance(modifier, str):
            modifier = EventModifier.parse(modifier)
        # _atomic_pairs inlined: this runs once per wrapped method call.
        if isinstance(arguments, dict):
            arguments = arguments.items()
        return (instance, class_name, method_name, modifier,
                tuple((k, atomic(v)) for k, v in arguments))

    def _explicit_entry(self, item) -> tuple:
        """An explicit item (a name or ``(name, params)``) as ``(node,
        name, arguments)``."""
        name, params = (item, ()) if isinstance(item, str) else item
        node = self.graph.get(name)
        if not isinstance(node, ExplicitEventNode):
            raise EventError(
                f"{name!r} is not an explicit event; only explicit events "
                f"can be raised directly"
            )
        return node, name, _atomic_pairs(params)

    def _signal(self, entries, txn_id: Optional[int], explicit: bool,
                occurrences: list[PrimitiveOccurrence]) -> None:
        """Stamp and propagate resolved entries (under the lock, so
        timestamps are non-decreasing in propagation order)."""
        telemetry = self.telemetry
        trace = telemetry.current_trace_id() if telemetry.active else None
        if txn_id is None:
            txn_id = self._top_level_id()
        tick = self.clock.tick
        for entry in entries:
            at = tick()
            if explicit:
                node, name, arguments = entry
                self._occur(node, PrimitiveOccurrence(
                    event_name=name,
                    at=at,
                    class_name="$EXPLICIT",
                    arguments=arguments,
                    txn_id=txn_id,
                    trace_id=trace,
                ), occurrences)
                continue
            instance, class_name, method_name, modifier, arguments = entry
            nodes = self.graph.route(
                class_name, None if instance is None else type(instance),
                method_name, modifier,
            )
            if not nodes:
                continue
            identity = self._identity(instance)
            for node in nodes:
                if node.instance is not None and node.instance is not instance:
                    continue
                self._occur(node, PrimitiveOccurrence(
                    event_name=node.display_name,
                    at=at,
                    class_name=class_name,
                    instance=identity,
                    method_name=method_name,
                    modifier=modifier,
                    arguments=arguments,
                    txn_id=txn_id,
                    state_snapshot=self._snapshot(node, instance)
                    if node.snapshot_state else None,
                    trace_id=trace,
                ), occurrences)

    def _occur(self, node: "EventNode", occurrence: PrimitiveOccurrence,
               occurrences: list[PrimitiveOccurrence]) -> None:
        """Record one occurrence, show it to the occurrence listeners,
        propagate it from its leaf and, if its event is marked global,
        forward it. Propagation is timed into ``propagate.ms`` once a
        registry reads it, and traced as a ``GraphPropagation`` span
        when a processor routes that class."""
        occurrences.append(occurrence)
        for listener in self.occurrence_listeners:
            listener(occurrence)
        telemetry = self.telemetry
        span = None
        if GraphPropagation in telemetry.routed:
            span = telemetry.span(
                GraphPropagation,
                event_name=node.display_name, operator=node.operator,
            )
        times = self.times
        started = perf_counter() if times is not None else 0.0
        try:
            node.occur(occurrence)
        finally:
            if times is not None:
                times["propagate.ms"].observe(
                    (perf_counter() - started) * 1000.0
                )
            if span is not None:
                span.close()
        if node.display_name in self._global_events:
            self._forward_global(occurrence)

    def signal_system_event(self, event_name: str,
                            txn_id: Optional[int] = None) -> None:
        """Signal one of the transaction events of the system class."""
        from repro.core.deferred import SYSTEM_CLASS, SYSTEM_EVENTS

        for name, method, modifier in SYSTEM_EVENTS:
            if name == event_name:
                # A boundary no deferred or commit rule waits for is
                # only counted (see sentry).
                if self.sentry(None, SYSTEM_CLASS, method, modifier):
                    self.notify(
                        None, SYSTEM_CLASS, method, modifier,
                        arguments={"txn_id": txn_id}, txn_id=txn_id,
                    )
                return
        raise UnknownEvent(f"unknown system event {event_name!r}")

    # -- temporal --------------------------------------------------------------

    def advance_time(self, delta: float) -> None:
        """Advance a simulated clock and fire any due temporal events."""
        if not isinstance(self.clock, SimulatedClock):
            raise EventError(
                "advance_time requires a SimulatedClock; use poll() with "
                "real clocks"
            )
        self.clock.advance(delta)
        self.poll()

    def poll(self) -> None:
        """Check temporal nodes against the current clock."""
        self._dispatch(self.graph.poll, self.clock.now())

    # =====================================================================
    # Dispatch machinery
    # =====================================================================

    def _frames(self) -> list[list[RuleActivation]]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = []
            self._local.frames = frames
        return frames

    def _dispatch(self, propagate: Callable[..., None], *args: Any) -> None:
        """Run ``propagate(*args)``, then execute the rules it triggered.

        The activation frame is popped *before* the scheduler runs, so
        rules triggered from inside an action (via a nested notify) get
        their own frame — depth-first nested execution.
        """
        frames = self._frames()
        frame: list[RuleActivation] = []
        frames.append(frame)
        try:
            # The lock is released before the frame's rules run, so
            # actions that notify re-enter cleanly (including from
            # executor threads).
            with self.lock:
                propagate(*args)
        finally:
            frames.pop()
        self._run_frame(frame)

    def _on_trigger(self, rule: Rule, occurrence) -> None:
        """Graph emitter: a rule subscriber matched a detection."""
        rule.triggered_count += 1
        self.stats.triggers += 1
        for listener in self.trigger_listeners:
            listener(rule, occurrence)
        telemetry = self.telemetry
        parent_span_id = None
        trace_id = None
        if telemetry.active:
            # Capture the triggering scope so the rule span links to it
            # even when it runs on another thread (threaded/detached).
            parent_span_id = telemetry.current_span_id()
            trace_id = telemetry.current_trace_id()
            # stats.triggers is what the registry reads; the point goes
            # only to a processor that asked for it.
            if RuleTriggered in telemetry.routed:
                telemetry.point(
                    RuleTriggered,
                    rule_name=rule.name,
                    event_name=getattr(occurrence, "event_name", "?"),
                )
        # current_transaction(), not the raw slot: a rule triggered from
        # an action nests under that action's (now begun) subtransaction.
        # A detached rule gets a root of its own, so it asks for none.
        activation = RuleActivation(
            rule, occurrence,
            parent_txn=None if rule.coupling is CouplingMode.DETACHED
            else self.current_transaction(),
            parent_span_id=parent_span_id, trace_id=trace_id,
        )
        frames = self._frames()
        if frames:
            frames[-1].append(activation)
        else:
            self._run_frame([activation])

    def _run_frame(self, frame: list[RuleActivation]) -> None:
        if not frame:
            return
        if self.collect_mode:
            self.collected.extend(frame)
            return
        immediate = [
            a for a in frame if a.rule.coupling is not CouplingMode.DETACHED
        ]
        detached = [
            a for a in frame if a.rule.coupling is CouplingMode.DETACHED
        ]
        if immediate:
            self.scheduler.run(immediate)
        for activation in detached:
            self.stats.detached_dispatches += 1
            if self.telemetry.active:
                self.telemetry.point(
                    DetachedDispatch,
                    parent_id=activation.parent_span_id,
                    rule_name=activation.rule.name,
                )
            if self.detached_handler is not None:
                self.detached_handler(activation)
            else:
                # No transaction infrastructure attached: run standalone.
                activation.parent_txn = None
                self.scheduler.run_one(activation)

    # -- suppression (conditions are side-effect free) ---------------------------

    @contextmanager
    def signals_suppressed(self):
        """Ignore event signaling in this context (condition evaluation)."""
        token = self._suppressed.set(True)
        try:
            yield
        finally:
            self._suppressed.reset(token)

    # -- transaction context ---------------------------------------------------------

    # A root ended on another thread stays in the slot of the context
    # that began it: a finished root reads as none.

    def current_transaction(self) -> Optional[NestedTransaction]:
        """The transaction this context runs under; inside a rule, the
        rule's subtransaction, begun by this call if it was pending."""
        execution = self._execution.get()
        txn = execution[0]
        if txn.__class__ is PendingSubtransaction:
            txn = txn.begin()
            # The rule bracket's reset undoes this set too.
            self._execution.set((txn,) + execution[1:])
        elif txn is not None and txn.parent is None and (
                txn.state is not TxnState.ACTIVE):
            return None
        return txn

    def _top_level_id(self) -> Optional[int]:
        """The id stamped on an occurrence; begins no subtransaction."""
        txn = self._execution.get()[0]
        if txn is None or (
                txn.parent is None and txn.state is not TxnState.ACTIVE):
            return None
        return txn.top_level_id

    def transaction_root(self) -> Optional[NestedTransaction]:
        """The root of this context's transaction; begins nothing."""
        txn = self._execution.get()[0]
        if txn.__class__ is PendingSubtransaction:
            txn = txn.parent
        if txn is None:
            return None
        root = txn.root()
        return root if root.state is TxnState.ACTIVE else None

    def bind_transaction(self, txn: Optional[NestedTransaction]) -> Token:
        """Bind ``txn`` in this context until ``token.var.reset(token)``
        (``ValueError`` from another context)."""
        return self._execution.set((txn,) + self._execution.get()[1:])

    def enter_detached(self, root: NestedTransaction) -> None:
        """Start a detached activation in its copied context: ``root``
        at depth 0 outside any rule, nothing of the trigger's bound."""
        self._execution.set((root, 0, None))

    @contextmanager
    def in_transaction(self, txn: Optional[NestedTransaction]):
        """Bind ``txn`` for the block (a detector without the facade)."""
        token = self.bind_transaction(txn)
        try:
            yield txn
        finally:
            self._execution.reset(token)

    # -- global events -----------------------------------------------------------------

    def mark_global(self, event_name: str) -> None:
        """Forward occurrences of ``event_name`` to global listeners."""
        self.graph.get(event_name)  # must exist
        self._global_events.add(event_name)

    def add_global_listener(
        self, listener: Callable[[PrimitiveOccurrence], None]
    ) -> None:
        self._global_listeners.append(listener)

    def _forward_global(self, occurrence: PrimitiveOccurrence) -> None:
        for listener in self._global_listeners:
            listener(occurrence)

    # -- introspection ---------------------------------------------------------------------

    def graph_snapshot(self) -> dict:
        """The event graph's monitor view (see ``EventGraph.snapshot``)."""
        return self.graph.snapshot()

    def health(self) -> dict:
        """Liveness data for the monitor's ``/health`` (detector slice).

        The payload shape is defined in :mod:`repro.reporting`, the
        single schema module shared with ``Sentinel.health()`` and
        ``SystemReport.to_dict()``.
        """
        from repro.reporting import detector_health

        return detector_health(self)

    # -- maintenance ---------------------------------------------------------------------

    def flush(self, event_name: Optional[str] = None,
              ctx: Optional[ParameterContext] = None) -> None:
        """Discard pending detection state (transaction boundaries)."""
        with self.lock:
            self.graph.flush(event_name, ctx)

    def _snapshot(self, node: PrimitiveEventNode,
                  instance: Any) -> Optional[tuple]:
        """Copy the object's state for a snapshot-enabled event."""
        if instance is None:
            return None
        if hasattr(instance, "persistent_state"):
            state = instance.persistent_state()
        else:
            state = {
                k: v for k, v in vars(instance).items()
                if not k.startswith("_")
            }
        return _atomic_pairs(state)

    def _identity(self, instance: Any) -> Any:
        if instance is None:
            return None
        oid = getattr(instance, "oid", None)
        if oid is not None:
            return oid
        return instance

    def shutdown(self) -> None:
        self.scheduler.shutdown()
