"""The event graph: node registry, sharing, and named events.

"Common event sub-expressions are represented only once in the event
graph ... reducing the total number of nodes" (paper §3.1). The graph
hash-conses nodes on ``(operator, child identities, extra args)`` so
that two rules over ``e1 ^ e2`` share one AND node; sharing can be
disabled for the ABL-SHARE ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.clock import Clock
from repro.core.contexts import ParameterContext
from repro.core.params import EventModifier
from repro.errors import DuplicateEvent, UnknownEvent
from repro.core.events.base import EventNode
from repro.core.events.operators import (
    AndNode,
    AperiodicNode,
    AperiodicStarNode,
    NotNode,
    OrNode,
    PeriodicNode,
    PeriodicStarNode,
    PlusNode,
    SeqNode,
)
from repro.core.events.primitive import (
    ExplicitEventNode,
    PrimitiveEventNode,
    TemporalEventNode,
)

if TYPE_CHECKING:
    from repro.core.params import Occurrence
    from repro.core.rules import Rule
    from repro.telemetry.hub import TelemetryHub

#: most routes :meth:`EventGraph.route` caches between registrations
MAX_ROUTES = 4096


@dataclass
class GraphStats:
    """The graph's own counters; the metrics registry reads the
    detection totals from here."""

    nodes_created: int = 0
    shared_hits: int = 0
    detections: int = 0
    #: detections per parameter context value ("recent", ...), every
    #: context present from 0
    detections_by_context: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(
            (ctx.value for ctx in ParameterContext), 0
        )
    )
    propagations: int = 0


class EventGraph:
    """Registry and factory for event nodes."""

    def __init__(self, clock: Clock, sharing: bool = True,
                 telemetry: Optional["TelemetryHub"] = None):
        from repro.telemetry.hub import TelemetryHub

        self.clock = clock
        self.sharing = sharing
        #: shared telemetry hub; nodes emit Detection events through it
        self.telemetry = telemetry if telemetry is not None else TelemetryHub()
        self.stats = GraphStats()
        self._nodes: list[EventNode] = []
        self._by_name: dict[str, EventNode] = {}
        self._share_index: dict[tuple, EventNode] = {}
        self._class_index: dict[str, list[PrimitiveEventNode]] = {}
        #: (class name, dynamic type or None, method, modifier) -> the
        #: primitive nodes a Notify matches, ancestors' included; each
        #: built on its first miss (see :meth:`route`)
        self.routes: dict[tuple, tuple[PrimitiveEventNode, ...]] = {}
        self._emit: Optional[Callable[["Rule", "Occurrence"], None]] = None
        #: observers get (node, occurrence, ctx) on every detection;
        #: used by the rule debugger's trace recorder.
        self.observers: list[Callable] = []

    # -- wiring ------------------------------------------------------------------

    def set_emitter(self, emit: Callable[["Rule", "Occurrence"], None]) -> None:
        """Install the detector callback invoked on each rule trigger."""
        self._emit = emit

    def emit(self, rule: "Rule", occurrence: "Occurrence") -> None:
        if self._emit is not None:
            self._emit(rule, occurrence)

    def register(self, node: EventNode) -> None:
        """Called from ``EventNode.__init__``."""
        self._nodes.append(node)
        self.stats.nodes_created += 1
        if isinstance(node, PrimitiveEventNode):
            # "Each of the primitive events defined is maintained as a
            # list based on the class on which it is defined."
            self._class_index.setdefault(node.class_name, []).append(node)
            # Replaced, not cleared: a reader that fetched the old table
            # before this node was indexed fills that one, never this.
            self.routes = {}
        if node.name:
            self._register_name(node.name, node)

    def primitives_for(self, class_name: str) -> list[PrimitiveEventNode]:
        """Primitive event nodes declared on ``class_name``."""
        return self._class_index.get(class_name, [])

    def route(self, class_name: str, dynamic: Optional[type],
              method_name: str,
              modifier: EventModifier) -> tuple[PrimitiveEventNode, ...]:
        """The primitive nodes a Notify on ``class_name`` matches.

        ``dynamic`` is the notifying instance's type (None without an
        instance). When ``class_name`` is among its ancestors' names,
        nodes declared on every ancestor match too — the paper's
        inheritance property, folded in once per route instead of per
        call. Instance-level nodes are included; the caller checks
        their instance.
        """
        routes = self.routes
        key = (class_name, dynamic, method_name, modifier)
        nodes = routes.get(key)
        if nodes is None:
            candidates = [class_name]
            if dynamic is not None:
                ancestors = [c.__name__ for c in dynamic.__mro__]
                if class_name in ancestors:
                    candidates = ancestors
            index = self._class_index
            nodes = tuple(
                node
                for candidate in candidates
                for node in index.get(candidate, ())
                if node.method_name == method_name
                and node.modifier is modifier
            )
            # Bounded: class names arriving over the wire must not grow
            # the table without limit; a miss past the bound is rebuilt.
            if len(routes) < MAX_ROUTES:
                routes[key] = nodes
        return nodes

    def notify_observers(self, node: EventNode, occurrence, ctx) -> None:
        for observer in self.observers:
            observer(node, occurrence, ctx)

    def _register_name(self, name: str, node: EventNode) -> None:
        existing = self._by_name.get(name)
        if existing is not None and existing is not node:
            raise DuplicateEvent(f"event name {name!r} is already defined")
        self._by_name[name] = node

    def define(self, name: str, node: EventNode) -> EventNode:
        """Bind ``name`` to an existing node (event reuse, paper §3.1)."""
        self._register_name(name, node)
        if node.name is None:
            node.name = name
        return node

    # -- lookup --------------------------------------------------------------------

    def get(self, name: str) -> EventNode:
        node = self._by_name.get(name)
        if node is None:
            raise UnknownEvent(f"event {name!r} is not defined")
        return node

    def event(self, name: str) -> EventNode:
        """Alias of :meth:`get`, matching the detector/facade spelling."""
        return self.get(name)

    def has(self, name: str) -> bool:
        return name in self._by_name

    def nodes(self) -> Iterator[EventNode]:
        return iter(list(self._nodes))

    def temporal_nodes(self) -> list[EventNode]:
        return [n for n in self._nodes if n.is_temporal]

    def names(self) -> list[str]:
        return sorted(self._by_name)

    def __len__(self) -> int:
        return len(self._nodes)

    # -- sharing-aware constructors ------------------------------------------------------

    def _shared(self, key: tuple, build: Callable[[], EventNode],
                name: Optional[str]) -> EventNode:
        if self.sharing:
            node = self._share_index.get(key)
            if node is not None:
                self.stats.shared_hits += 1
                if name:
                    self.define(name, node)
                return node
        node = build()
        if self.sharing:
            self._share_index[key] = node
        return node

    def primitive(
        self,
        name: str,
        class_name: str,
        modifier: EventModifier | str,
        method_name: str,
        instance: Any = None,
        snapshot_state: bool = False,
    ) -> PrimitiveEventNode:
        """Define a primitive (method) event; class- or instance-level."""
        if isinstance(modifier, str):
            modifier = EventModifier.parse(modifier)
        key = ("PRIM", class_name, method_name, modifier,
               id(instance) if instance is not None else None,
               snapshot_state)
        node = self._shared(
            key,
            lambda: PrimitiveEventNode(
                self, name, class_name, modifier, method_name, instance,
                snapshot_state=snapshot_state,
            ),
            name,
        )
        if not isinstance(node, PrimitiveEventNode):
            raise DuplicateEvent(f"{name!r} exists and is not a primitive event")
        return node

    def explicit(self, name: str) -> ExplicitEventNode:
        if self.has(name):
            node = self.get(name)
            if isinstance(node, ExplicitEventNode):
                return node
            raise DuplicateEvent(f"{name!r} exists and is not an explicit event")
        return ExplicitEventNode(self, name)

    def temporal(self, name: str, at: Optional[float] = None,
                 every: Optional[float] = None) -> TemporalEventNode:
        return TemporalEventNode(self, name, at=at, every=every)

    def and_(self, left: EventNode, right: EventNode,
             name: Optional[str] = None) -> AndNode:
        return self._shared(
            ("AND", id(left), id(right)),
            lambda: AndNode(self, left, right, name=name),
            name,
        )

    def or_(self, left: EventNode, right: EventNode,
            name: Optional[str] = None) -> OrNode:
        return self._shared(
            ("OR", id(left), id(right)),
            lambda: OrNode(self, left, right, name=name),
            name,
        )

    def seq(self, left: EventNode, right: EventNode,
            name: Optional[str] = None) -> SeqNode:
        return self._shared(
            ("SEQ", id(left), id(right)),
            lambda: SeqNode(self, left, right, name=name),
            name,
        )

    def not_(self, initiator: EventNode, forbidden: EventNode,
             terminator: EventNode, name: Optional[str] = None) -> NotNode:
        return self._shared(
            ("NOT", id(initiator), id(forbidden), id(terminator)),
            lambda: NotNode(self, initiator, forbidden, terminator, name=name),
            name,
        )

    def aperiodic(self, initiator: EventNode, middle: EventNode,
                  terminator: EventNode,
                  name: Optional[str] = None) -> AperiodicNode:
        return self._shared(
            ("A", id(initiator), id(middle), id(terminator)),
            lambda: AperiodicNode(self, initiator, middle, terminator, name=name),
            name,
        )

    def aperiodic_star(self, initiator: EventNode, middle: EventNode,
                       terminator: EventNode,
                       name: Optional[str] = None) -> AperiodicStarNode:
        return self._shared(
            ("A*", id(initiator), id(middle), id(terminator)),
            lambda: AperiodicStarNode(
                self, initiator, middle, terminator, name=name
            ),
            name,
        )

    def periodic(self, initiator: EventNode, period: float,
                 terminator: EventNode,
                 name: Optional[str] = None) -> PeriodicNode:
        return self._shared(
            ("P", id(initiator), period, id(terminator)),
            lambda: PeriodicNode(self, initiator, period, terminator, name=name),
            name,
        )

    def periodic_star(self, initiator: EventNode, period: float,
                      terminator: EventNode,
                      name: Optional[str] = None) -> PeriodicStarNode:
        return self._shared(
            ("P*", id(initiator), period, id(terminator)),
            lambda: PeriodicStarNode(
                self, initiator, period, terminator, name=name
            ),
            name,
        )

    def plus(self, initiator: EventNode, delay: float,
             name: Optional[str] = None) -> PlusNode:
        return self._shared(
            ("PLUS", id(initiator), delay),
            lambda: PlusNode(self, initiator, delay, name=name),
            name,
        )

    # -- introspection -----------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-safe view of the graph for the monitor's ``/graph``.

        One entry per node: operator, children, subscriber counts,
        active parameter contexts with their reference counts,
        per-context occurrence (detection) counts, and the pending
        queue depth of the node's detection state.
        """
        nodes = []
        for node in list(self._nodes):
            nodes.append({
                "name": node.display_name,
                "operator": node.operator,
                "children": [c.display_name for c in node.children],
                "event_subscribers": len(node.event_subscribers),
                "rule_subscribers": [r.name for r in node.rule_subscribers],
                "contexts": {
                    ctx.value: node.context_count(ctx)
                    for ctx in node.active_contexts()
                },
                "detections": {
                    ctx.value: count
                    for ctx, count in sorted(
                        node.detections_by_context.items(),
                        key=lambda item: item[0].value,
                    )
                },
                "queue_depth": node.pending_depth(),
            })
        return {
            "nodes": nodes,
            "stats": {
                "nodes": len(self._nodes),
                "named": len(self._by_name),
                "nodes_created": self.stats.nodes_created,
                "shared_hits": self.stats.shared_hits,
                "detections": self.stats.detections,
                "propagations": self.stats.propagations,
            },
        }

    # -- maintenance -----------------------------------------------------------------------

    def flush(self, event_name: Optional[str] = None,
              ctx: Optional["ParameterContext"] = None) -> None:
        """Discard pending state — whole graph or one expression's subtree.

        "We provide a flush operation that can either flush the event
        graph selectively for an event expression or for the entire
        graph."
        """
        if event_name is None:
            for node in self._nodes:
                node.flush(ctx)
            return
        root = self.get(event_name)
        for node in self._subtree(root):
            node.flush(ctx)

    def _subtree(self, root: EventNode) -> Iterator[EventNode]:
        seen: set[int] = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(node.children)

    def poll(self, now: float) -> None:
        for node in self.temporal_nodes():
            node.poll(now)
