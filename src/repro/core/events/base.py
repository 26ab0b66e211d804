"""Event graph node base class.

The event graph is "similar to operator trees" with demand-driven,
data-flow propagation (paper §2.3): a node only detects in a context
when at least one rule needing that context is reachable from it, which
is tracked with per-context reference counters ("the counter for that
particular context is incremented ... If the counter is reset to 0,
events are no longer detected in that context").

Each node maintains *separate* subscriber lists for composite events
and for rules, as the paper prescribes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.core.contexts import ParameterContext
from repro.core.params import CompositeOccurrence, Occurrence
from repro.telemetry.events import Detection

if TYPE_CHECKING:
    from repro.core.events.graph import EventGraph
    from repro.core.rules import Rule


class EventNode:
    """One node of the event graph."""

    #: Operator tag used in composite occurrences and visualizations.
    operator = "EVENT"
    #: Temporal nodes are polled when the clock advances.
    is_temporal = False

    def __init__(
        self,
        graph: "EventGraph",
        children: tuple["EventNode", ...] = (),
        name: Optional[str] = None,
    ):
        self.graph = graph
        self.children = tuple(children)
        self.name = name
        self.event_subscribers: list[tuple[EventNode, int]] = []
        self.rule_subscribers: list["Rule"] = []
        self._context_counts: dict[ParameterContext, int] = {}
        self._state: dict[ParameterContext, Any] = {}
        #: occurrence count per parameter context (monitor ``/graph``)
        self.detections_by_context: dict[ParameterContext, int] = {}
        #: owner shard (assigned by ``graph.register`` from its shard map)
        self.shard = 0
        for port, child in enumerate(self.children):
            child.event_subscribers.append((self, port))
        graph.register(self)

    # -- labels -------------------------------------------------------------

    @property
    def label(self) -> str:
        """Canonical expression string; doubles as the sharing key."""
        return self.name or self.operator

    @property
    def display_name(self) -> str:
        return self.name or self.label

    # -- context counters ------------------------------------------------------

    def add_context(self, ctx: ParameterContext, count: int = 1) -> None:
        """Activate detection in ``ctx`` (propagates to the whole subtree)."""
        previous = self._context_counts.get(ctx, 0)
        self._context_counts[ctx] = previous + count
        if previous == 0:
            self._state[ctx] = self._new_state(ctx)
        for child in self.children:
            child.add_context(ctx, count)

    def remove_context(self, ctx: ParameterContext, count: int = 1) -> None:
        """Deactivate ``ctx``; state is dropped when the counter hits 0."""
        previous = self._context_counts.get(ctx, 0)
        remaining = max(0, previous - count)
        if remaining == 0:
            self._context_counts.pop(ctx, None)
            self._state.pop(ctx, None)
        else:
            self._context_counts[ctx] = remaining
        for child in self.children:
            child.remove_context(ctx, count)

    def context_active(self, ctx: ParameterContext) -> bool:
        return self._context_counts.get(ctx, 0) > 0

    def active_contexts(self) -> Iterator[ParameterContext]:
        return iter(tuple(self._context_counts))

    def context_count(self, ctx: ParameterContext) -> int:
        return self._context_counts.get(ctx, 0)

    # -- detection state ------------------------------------------------------------

    def _new_state(self, ctx: ParameterContext) -> Any:
        """Fresh per-context detection state; operators override."""
        return None

    def state(self, ctx: ParameterContext) -> Any:
        if ctx not in self._state and self.context_active(ctx):
            self._state[ctx] = self._new_state(ctx)
        return self._state.get(ctx)

    def flush(self, ctx: Optional[ParameterContext] = None) -> None:
        """Discard pending detection state (transaction boundaries)."""
        if ctx is None:
            for active in list(self._state):
                self._state[active] = self._new_state(active)
        elif ctx in self._state:
            self._state[ctx] = self._new_state(ctx)

    # -- propagation ------------------------------------------------------------------

    def pending_depth(self) -> int:
        """Best-effort count of occurrences queued in this node's state.

        Operator state is a per-context container of pending
        occurrences (deques per side for AND, a deque for SEQ/NOT,
        open windows for P/P*); the monitor's ``/graph`` endpoint
        reports the sum as the node's queue depth. Stateless nodes
        report 0.
        """
        total = 0
        for state in self._state.values():
            if state is None:
                continue
            sides = getattr(state, "sides", None)
            if sides is not None:
                total += sum(len(side) for side in sides)
            elif hasattr(state, "__len__"):
                total += len(state)
        return total

    def signal(self, occurrence: Occurrence, ctx: ParameterContext) -> None:
        """Deliver a detection of this node to its subscribers."""
        stats = self.graph.stats
        stats.detections += 1
        # Keyed by the value string the registry publishes it under.
        stats.detections_by_context[ctx._value_] += 1
        self.detections_by_context[ctx] = (
            self.detections_by_context.get(ctx, 0) + 1
        )
        # The registry reads the counts above; only a processor that
        # asked for Detection events gets one.
        telemetry = self.graph.telemetry
        if Detection in telemetry.routed:
            telemetry.point(
                Detection,
                event_name=self.display_name,
                operator=self.operator,
                context=ctx.value,
            )
        if self.graph.observers:
            self.graph.notify_observers(self, occurrence, ctx)
        runtime = self.graph.runtime
        if runtime is not None:
            # Sharded mode: defer the fan-out onto the driver stack so
            # each subscriber runs under its own shard's lock stripe.
            runtime.fanout(self, occurrence, ctx)
            return
        for parent, port in self.event_subscribers:
            if parent.context_active(ctx):
                self.graph.stats.propagations += 1
                parent.on_child(port, occurrence, ctx)
        for rule in list(self.rule_subscribers):
            if rule.wants(ctx, occurrence):
                self.graph.emit(rule, occurrence)

    def on_child(self, port: int, occurrence: Occurrence,
                 ctx: ParameterContext) -> None:
        """Child at ``port`` detected ``occurrence`` in ``ctx``."""
        raise NotImplementedError(f"{type(self).__name__} has no children")

    # -- Snoop operator algebra (see repro.core.events.algebra) ----------------

    def _operand(self, other: Any) -> Optional["EventNode"]:
        """Coerce an operator operand; None means NotImplemented."""
        if isinstance(other, str):
            other = self.graph.get(other)
        if not isinstance(other, EventNode):
            return None
        if other.graph is not self.graph:
            from repro.errors import EventError

            raise EventError(
                "cannot combine events from different event graphs"
            )
        return other

    def __and__(self, other: Any) -> "EventNode":
        """``a & b`` — Snoop AND (both occur, in any order)."""
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        return self.graph.and_(self, operand)

    def __rand__(self, other: Any) -> "EventNode":
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        return self.graph.and_(operand, self)

    def __or__(self, other: Any) -> "EventNode":
        """``a | b`` — Snoop OR (either occurs)."""
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        return self.graph.or_(self, operand)

    def __ror__(self, other: Any) -> "EventNode":
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        return self.graph.or_(operand, self)

    def __rshift__(self, other: Any) -> "EventNode":
        """``a >> b`` — Snoop SEQ (``a`` strictly before ``b``)."""
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        return self.graph.seq(self, operand)

    def __rrshift__(self, other: Any) -> "EventNode":
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        return self.graph.seq(operand, self)

    def poll(self, now: float) -> None:
        """Hook for temporal nodes; called when the clock advances."""

    # -- helpers -----------------------------------------------------------------------

    def _compose(
        self, constituents: tuple[Occurrence, ...]
    ) -> CompositeOccurrence:
        start = min(c.start for c in constituents)
        end = max(c.end for c in constituents)
        return CompositeOccurrence(
            event_name=self.display_name,
            operator=self.operator,
            constituents=constituents,
            start=start,
            end=end,
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label}>"
