"""Occurrences and parameter lists.

When a primitive event fires, the wrapper method collects the method's
actual parameters into a ``PARA_LIST`` (paper §3.2.1) and sends them to
the detector together with the object identity (oid). Composite events
carry the parameters of *every* constituent primitive occurrence as a
linked structure — "a linked list that contains the parameters of each
primitive event that participates in the detection of the composite
event is built and passed to the rule". No data is copied between graph
nodes: composite occurrences reference their constituents (the paper's
"only the pointers have to be adjusted").
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

_SEQ = itertools.count(1)

#: Atomic parameter types the detector records; everything else is
#: represented by ``repr`` (the paper: "we pass only simple data types
#: as parameters ... copying the values of complex data types will add
#: considerable storage overhead").
ATOMIC_TYPES = (type(None), bool, int, float, str, bytes)


def atomic(value: Any) -> Any:
    """Coerce a method argument to an atomic parameter value."""
    if isinstance(value, ATOMIC_TYPES):
        return value
    oid = getattr(value, "oid", None)
    if oid is not None:
        return str(oid)
    return repr(value)


class EventModifier(enum.Enum):
    """Before/after variants of a method event (paper §2.1)."""

    BEGIN = "begin"
    END = "end"

    # Part of every route key; hashed by identity in C like
    # ParameterContext.
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, text: str) -> "EventModifier":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown event modifier {text!r}; expected 'begin' or 'end'"
            ) from None


class Occurrence:
    """Base of primitive and composite occurrences.

    Every occurrence spans an interval ``[start, end]``; primitive
    occurrences are instantaneous (``start == end``) while a composite
    occurrence starts at its initiator and ends at its terminator.

    ``__slots__`` is empty so the concrete occurrence dataclasses
    (declared with ``slots=True``) really are dict-free: a per-event
    ``__dict__`` would otherwise ride along via this base, costing an
    allocation on every notify and a larger object on every hop of the
    propagation.
    """

    __slots__ = ()

    start: float
    end: float

    def primitives(self) -> Iterator["PrimitiveOccurrence"]:
        raise NotImplementedError

    @property
    def params(self) -> "ParamList":
        return ParamList(self)


@dataclass(frozen=True, slots=True)
class PrimitiveOccurrence(Occurrence):
    """One firing of a primitive event."""

    event_name: str
    at: float
    class_name: Optional[str] = None
    instance: Any = None  # oid / identity of the signalling object
    method_name: Optional[str] = None
    modifier: Optional[EventModifier] = None
    arguments: tuple[tuple[str, Any], ...] = ()
    txn_id: Optional[int] = None
    #: optional copy of the object's state at signal time. The paper
    #: notes that composite-event detection spans time, so "no
    #: assumptions are made about the state of the object (when the oid
    #: is passed as part of a composite event)" and full support "may
    #: require versioning of objects"; snapshot-enabled primitive
    #: events approximate that versioning for rule parameters.
    state_snapshot: Optional[tuple[tuple[str, Any], ...]] = None
    #: end-to-end lifecycle id stamped at ingest when telemetry is on;
    #: rides the occurrence through composite operators, global channels
    #: and the serving wire so spans anywhere join the same trace tree.
    trace_id: Optional[str] = None
    seq: int = field(default_factory=lambda: next(_SEQ))

    @property
    def start(self) -> float:  # type: ignore[override]
        return self.at

    @property
    def end(self) -> float:  # type: ignore[override]
        return self.at

    def primitives(self) -> Iterator["PrimitiveOccurrence"]:
        yield self

    def __getitem__(self, name: str) -> Any:
        for key, value in self.arguments:
            if key == name:
                return value
        raise KeyError(name)

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.arguments)
        return f"<{self.event_name}@{self.at:g} ({args})>"


@dataclass(frozen=True, slots=True)
class CompositeOccurrence(Occurrence):
    """One detection of a composite event.

    ``constituents`` reference the child occurrences directly (pointer
    adjustment, not copying); iterating ``primitives()`` flattens them
    in chronological order.
    """

    event_name: str
    operator: str
    constituents: tuple[Occurrence, ...]
    start: float
    end: float
    seq: int = field(default_factory=lambda: next(_SEQ))

    def primitives(self) -> Iterator[PrimitiveOccurrence]:
        flat = []
        for child in self.constituents:
            flat.extend(child.primitives())
        flat.sort(key=lambda occ: (occ.at, occ.seq))
        yield from flat

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self.constituents)
        return (
            f"<{self.event_name}:{self.operator}"
            f"[{self.start:g},{self.end:g}] {inner}>"
        )


class ParamList:
    """User-facing view over an occurrence's parameters (the PARA_LIST).

    Iterates the constituent primitive occurrences chronologically and
    offers the lookups condition/action functions need.
    """

    def __init__(self, occurrence: Occurrence):
        self._occurrence = occurrence
        self._flat = list(occurrence.primitives())

    def __iter__(self) -> Iterator[PrimitiveOccurrence]:
        return iter(self._flat)

    def __len__(self) -> int:
        return len(self._flat)

    def __getitem__(self, index: int) -> PrimitiveOccurrence:
        return self._flat[index]

    def by_event(self, event_name: str) -> list[PrimitiveOccurrence]:
        """All constituent occurrences of one primitive event type."""
        return [occ for occ in self._flat if occ.event_name == event_name]

    def first(self, event_name: str) -> PrimitiveOccurrence:
        for occ in self._flat:
            if occ.event_name == event_name:
                return occ
        raise KeyError(f"no occurrence of {event_name!r} in parameter list")

    def last(self, event_name: str) -> PrimitiveOccurrence:
        for occ in reversed(self._flat):
            if occ.event_name == event_name:
                return occ
        raise KeyError(f"no occurrence of {event_name!r} in parameter list")

    def value(self, param: str, event_name: Optional[str] = None) -> Any:
        """The most recent value of argument ``param``.

        Searching newest-first matches the intuition that a condition
        asking for "the price" wants the latest one; restrict by
        ``event_name`` when several events share argument names.
        """
        for occ in reversed(self._flat):
            if event_name is not None and occ.event_name != event_name:
                continue
            for key, value in occ.arguments:
                if key == param:
                    return value
        raise KeyError(param)

    def values(self, param: str, event_name: Optional[str] = None) -> list[Any]:
        """Every recorded value of ``param``, oldest first."""
        result = []
        for occ in self._flat:
            if event_name is not None and occ.event_name != event_name:
                continue
            for key, value in occ.arguments:
                if key == param:
                    result.append(value)
        return result

    def state_of(self, event_name: str, which: str = "last") -> dict:
        """The snapshot recorded with an occurrence of ``event_name``.

        Requires the primitive event to have been defined with
        ``snapshot_state=True``. ``which`` is ``"first"`` or ``"last"``.
        """
        occ = (self.first(event_name) if which == "first"
               else self.last(event_name))
        if occ.state_snapshot is None:
            raise KeyError(
                f"event {event_name!r} does not record state snapshots"
            )
        return dict(occ.state_snapshot)

    def instances(self) -> list[Any]:
        """The distinct signalling objects (oids), in first-seen order."""
        seen: list[Any] = []
        for occ in self._flat:
            if occ.instance is not None and occ.instance not in seen:
                seen.append(occ.instance)
        return seen

    def __repr__(self) -> str:
        return f"ParamList({self._flat!r})"
