"""Leaf nodes: primitive method events, temporal events, explicit events.

The detector maintains separate lists for method-based, temporal, and
explicit events (paper §3.2.2). A method event is identified by
``(class name, method name, modifier)`` and may be class-level (fires
for every instance) or instance-level (fires only for one object) —
"the specification of class/instance at the primitive event level
allows us to have event expressions with class level as well as
instance level events".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.core.contexts import ParameterContext
from repro.core.events.base import EventNode
from repro.core.params import EventModifier, PrimitiveOccurrence

if TYPE_CHECKING:
    from repro.core.events.graph import EventGraph


class PrimitiveEventNode(EventNode):
    """A method event: before/after invocation of a method of a class."""

    operator = "PRIMITIVE"

    def __init__(
        self,
        graph: "EventGraph",
        name: str,
        class_name: str,
        modifier: EventModifier,
        method_name: str,
        instance: Any = None,
        snapshot_state: bool = False,
    ):
        self.class_name = class_name
        self.modifier = modifier
        self.method_name = method_name
        self.instance = instance  # None => class-level event
        #: record a copy of the object's state in each occurrence
        #: (approximates the object versioning the paper defers).
        self.snapshot_state = snapshot_state
        super().__init__(graph, children=(), name=name)

    @property
    def label(self) -> str:
        scope = "" if self.instance is None else f"@{self.instance!r}"
        return (
            f"{self.class_name}{scope}.{self.method_name}"
            f":{self.modifier.value}"
        )

    @property
    def is_class_level(self) -> bool:
        return self.instance is None

    def matches(
        self,
        class_name: str,
        method_name: str,
        modifier: EventModifier,
        instance: Any,
    ) -> bool:
        """Signature check performed when the detector routes a Notify.

        "Once a primitive event node is notified it checks the method
        signature with the one that has been sent" — plus the instance
        identity for instance-level events: the very object, not one
        that merely compares equal to it.
        """
        if self.class_name != class_name:
            return False
        if self.method_name != method_name:
            return False
        if self.modifier is not modifier:
            return False
        if self.instance is not None and self.instance is not instance:
            return False
        return True

    def occur(self, occurrence: PrimitiveOccurrence) -> None:
        """Fire this primitive event in every active context."""
        for ctx in self.active_contexts():
            self.signal(occurrence, ctx)


class ExplicitEventNode(EventNode):
    """An abstract event raised explicitly by the application.

    Explicit events have no associated method; the application calls
    ``detector.raise_event(name, **params)``. They support
    inter-application (global) events: the global detector re-raises a
    remote event as an explicit event locally.
    """

    operator = "EXPLICIT"

    def __init__(self, graph: "EventGraph", name: str):
        super().__init__(graph, children=(), name=name)

    def occur(self, occurrence: PrimitiveOccurrence) -> None:
        for ctx in self.active_contexts():
            self.signal(occurrence, ctx)


class TemporalEventNode(EventNode):
    """An absolute or recurring temporal event.

    ``at`` fires once when the clock reaches the given time; ``every``
    fires repeatedly with the given period (first firing one period
    after activation). The detector polls temporal nodes whenever the
    clock advances.
    """

    operator = "TEMPORAL"
    is_temporal = True

    def __init__(
        self,
        graph: "EventGraph",
        name: str,
        at: Optional[float] = None,
        every: Optional[float] = None,
    ):
        if (at is None) == (every is None):
            raise ValueError("specify exactly one of at= or every=")
        if every is not None and every <= 0:
            raise ValueError(f"period must be positive, got {every}")
        self.at = at
        self.every = every
        self._fired = False
        self._next_due: Optional[float] = None
        super().__init__(graph, children=(), name=name)

    def add_context(self, ctx: ParameterContext, count: int = 1) -> None:
        if self._next_due is None and self.every is not None:
            self._next_due = self.graph.clock.now() + self.every
        super().add_context(ctx, count)

    def poll(self, now: float) -> None:
        if self.at is not None:
            if not self._fired and now >= self.at:
                self._fired = True
                self._emit(self.at)
            return
        # Recurring: catch up on every period boundary passed.
        while self._next_due is not None and now >= self._next_due:
            due = self._next_due
            self._next_due = due + self.every
            self._emit(due)

    def _emit(self, when: float) -> None:
        occurrence = PrimitiveOccurrence(
            event_name=self.display_name,
            at=when,
            class_name="$TEMPORAL",
            arguments=(("time", when),),
        )
        for ctx in self.active_contexts():
            self.signal(occurrence, ctx)

    def flush(self, ctx: Optional[ParameterContext] = None) -> None:
        # Temporal schedules survive transaction flushes; only pending
        # composite state (none here) would be discarded.
        super().flush(ctx)
