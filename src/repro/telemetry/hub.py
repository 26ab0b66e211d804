"""The telemetry hub: typed routes, span bookkeeping, best-effort delivery.

One :class:`TelemetryHub` is shared by every module of a Sentinel
instance (detector, event graph, scheduler, transaction manager,
storage). Instrumented code checks the hub's ``active`` flag — a plain
attribute, true iff at least one processor is attached — before doing
any tracing work, so with zero processors the emit path costs one
attribute read and a branch.

Delivery is routed by event class. ``attach``/``detach`` compile an
immutable ``{event class -> route}`` table from what the attached
processors ask for, and swap it in whole; an emission reads whichever
table is current, so processors can come and go from any thread while
events flow. A route has two halves:

* *reducers* — functions of ``(fields, duration_ms)`` published by
  aggregating processors (the default ``CounterProcessor``, a user's
  aggregator), fed straight from the call site's keyword arguments.
* *recorders* — the ``handle(event)`` methods of recording processors
  (``TraceLogProcessor``, ``FlightRecorder``, the JSONL exporter, the
  profiler, any object with a ``handle`` method). The frozen
  :class:`~repro.telemetry.events.TraceEvent` is built once per
  emission, and only when the route holds at least one of them.

An emission of a class nobody asked for costs one dict miss: ``point``
returns None and ``span`` returns the shared :data:`NOOP_SPAN`. The
engine counts and times its hot stages itself, and its call sites test
the class against ``hub.routed``: they build a span only for a
processor that takes the class — a recorder or a user's aggregator.

Delivery is synchronous and best-effort: a reducer or ``handle`` that
raises never breaks event detection or rule execution; the exception
is counted in ``hub.dropped`` and remembered in ``hub.last_error``.

Span parentage is tracked with a *position* per hub, held in a context
variable: the current *trace id* — an opaque hex string naming one
end-to-end event lifecycle — and the ids of the open spans. A position
is an immutable tuple, so a rule pool worker or an asyncio task, which
run in copies of their submitter's context, see where the submitter
was but cannot move it. Opening a span sets a new position; closing it
resets the old one and emits. A root span (no trace current in its
context) mints a fresh trace id and owns it for its duration, as
:meth:`TelemetryHub.mint_trace` does for a root scope with no span;
nested spans and points inherit it. Work handed to a detached worker
carries its parent span id explicitly via the ``parent_id`` argument,
and context can be adopted explicitly — :meth:`TelemetryHub.trace_scope`
for foreign contexts arriving over the serving wire, or the
``trace_id`` argument to :meth:`TelemetryHub.span` for activations
replayed on detached worker threads — so one detection renders as a
single connected tree no matter how many threads or processes it
crossed. Span ids draw from a process-global counter, so spans from
different hubs (a client's and a server's in the same process) never
collide within a trace.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import os
import threading
from contextvars import ContextVar, Token
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.telemetry.events import ALL_EVENT_TYPES, TraceEvent

if TYPE_CHECKING:
    from repro.telemetry.processors import TelemetryProcessor

#: sentinel distinguishing "inherit parent from this context's position"
#: from an explicit parent (including an explicit ``None`` root).
INHERIT: Any = object()

#: ``TelemetrySpan._trace_restore`` of a span that did not change its
#: context's current trace (``None`` is a real value to restore).
_KEEP: Any = object()

#: a tracing position: ``(trace id, open span ids innermost last)``
Position = tuple[Optional[str], tuple[int, ...]]

#: the position outside every trace
NOWHERE: Position = (None, ())

#: process-global span-id source shared by every hub (see module docs).
_SPAN_IDS = itertools.count(1)

#: what one event class is delivered to: the aggregators' reducers, the
#: recording processors' ``handle`` methods, and the class's field
#: defaults (handed to reducers, which see no dataclass instance).
Route = tuple[tuple[Callable, ...], tuple[Callable, ...], dict]


def _reseed_trace_ids() -> None:
    global _TRACE_PREFIX, _TRACE_SERIAL
    _TRACE_PREFIX = os.urandom(4).hex()
    _TRACE_SERIAL = itertools.count(1)


_reseed_trace_ids()
# A forked child must not continue its parent's sequence.
os.register_at_fork(after_in_child=_reseed_trace_ids)


def new_trace_id() -> str:
    """A fresh trace id as 16 hex chars.

    A random per-process prefix plus a serial number: unique within the
    process by construction, across processes by the 32 random bits.
    """
    return f"{_TRACE_PREFIX}{next(_TRACE_SERIAL) & 0xFFFFFFFF:08x}"


class TelemetrySpan:
    """An open scope; emits its event when closed.

    Usable as a context manager or closed manually (``open_span`` /
    ``close``) for scopes that straddle method calls, like a top-level
    transaction. Extra event fields may be filled in while the span is
    open with :meth:`set`. While open it is the innermost span of its
    context: what runs inside it is parented to it.
    """

    __slots__ = (
        "_hub", "_cls", "_fields", "span_id", "parent_span_id", "trace_id",
        "started", "_open", "_trace_restore", "_position", "_token",
    )

    def __init__(self, hub: "TelemetryHub", cls: type[TraceEvent],
                 parent_id: Any, fields: dict, trace_id: Any = INHERIT):
        self._hub = hub
        self._cls = cls
        self._fields = fields
        self.span_id = span_id = next(_SPAN_IDS)
        current, stack = hub._position.get()
        if parent_id is INHERIT:
            parent_id = stack[-1] if stack else None
        self.parent_span_id = parent_id
        if trace_id is INHERIT or trace_id is None:
            if current is None:
                # Root of a new lifecycle: mint a trace and own it.
                trace_id = new_trace_id()
                self._trace_restore = None
            else:
                trace_id = current
                self._trace_restore = _KEEP
        elif trace_id != current:
            # Explicit adoption (detached replay, cross-thread handoff).
            self._trace_restore = current
        else:
            self._trace_restore = _KEEP
        self.trace_id = trace_id
        self._position = position = (trace_id, stack + (span_id,))
        self._token = hub._position.set(position)
        self._open = True
        self.started = perf_counter()

    def set(self, **fields: Any) -> "TelemetrySpan":
        """Update stage-specific fields before the span closes."""
        self._fields.update(fields)
        return self

    def close(self, **fields: Any) -> float:
        """Pop the span and emit its event; returns the duration (ms).

        Idempotent: a second close emits nothing and returns ``0.0``.
        """
        if not self._open:
            return 0.0
        self._open = False
        elapsed_ms = (perf_counter() - self.started) * 1000.0
        hub = self._hub
        hub._leave(self._token, self._position, self._trace_restore,
                   self.span_id)
        if fields:
            self._fields.update(fields)
        # Looked up now, not at open: a processor attached while the
        # span was open receives it.
        route = hub._routes.get(self._cls, hub._fallback)
        if route is not None:
            if route[1]:
                hub._deliver(
                    route, self._cls, self.span_id, self.parent_span_id,
                    self.started, elapsed_ms, self.trace_id, self._fields,
                )
            else:
                hub._reduce(route, self._fields, elapsed_ms)
        return elapsed_ms

    def __enter__(self) -> "TelemetrySpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class _NoopSpan:
    """What :meth:`TelemetryHub.span` returns for an event class no
    processor subscribed to: it tracks nothing and emits nothing."""

    __slots__ = ()

    span_id = None
    parent_span_id = None
    trace_id = None

    def set(self, **fields: Any) -> "_NoopSpan":
        return self

    def close(self, **fields: Any) -> float:
        return 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


@functools.cache
def _field_defaults(cls: type[TraceEvent]) -> dict:
    """The defaulted stage-specific fields of an event class."""
    return {
        f.name: f.default
        for f in dataclasses.fields(cls)
        if f.default is not dataclasses.MISSING
        and f.name not in TraceEvent.__dataclass_fields__
    }


class TelemetryHub:
    """Routes emissions, by event class, to the attached processors."""

    def __init__(self) -> None:
        #: fast-path flag: instrumented code reads this before tracing
        self.active = False
        #: processor exceptions swallowed so far (best-effort dispatch)
        self.dropped = 0
        self.last_error: Optional[BaseException] = None
        # _processors, _routes and _fallback are immutable snapshots,
        # replaced (never mutated) by attach/detach under _attach_lock:
        # an emission racing a detach reads one table or the other.
        self._processors: tuple["TelemetryProcessor", ...] = ()
        self._routes: dict[type, Route] = {}
        #: route of a class absent from ``_routes``: the processors that
        #: take every class, or None when there are none
        self._fallback: Optional[Route] = None
        #: the event classes some attached processor takes (every
        #: built-in one while a processor takes everything); emission
        #: sites test membership before building arguments
        self.routed: frozenset[type] = frozenset()
        self._attach_lock = threading.Lock()
        #: this hub's tracing position in the current context
        self._position: ContextVar[Position] = ContextVar(
            "telemetry.position", default=NOWHERE
        )

    # -- processors ----------------------------------------------------------

    @property
    def processors(self) -> tuple["TelemetryProcessor", ...]:
        return self._processors

    def attach(self, processor: "TelemetryProcessor") -> "TelemetryProcessor":
        """Add a processor and enable the instrumented paths."""
        with self._attach_lock:
            self._install(self._processors + (processor,))
        return processor

    def detach(self, processor: "TelemetryProcessor") -> None:
        """Remove a processor; the hub goes dormant with none left."""
        with self._attach_lock:
            remaining = list(self._processors)
            try:
                remaining.remove(processor)
            except ValueError:
                return
            self._install(tuple(remaining))

    def refresh(self) -> None:
        """Recompile the routes after a processor changed its reducers."""
        with self._attach_lock:
            self._install(self._processors)

    def _install(self, processors: tuple["TelemetryProcessor", ...]) -> None:
        """Compile ``{event class -> route}`` for ``processors``.

        A processor contributes its ``reducers()`` (class → function of
        ``(fields, duration_ms)``) and its ``handle``, for the classes
        in ``subscriptions`` or, when that is None, for every class.
        Anything with a ``handle(event)`` method is a processor that
        records everything.
        """
        specs = [
            (
                processor.handle,
                getattr(processor, "subscriptions", None),
                getattr(processor, "reducers", dict)(),
            )
            for processor in processors
        ]
        rows: dict[type, tuple[list, list]] = {}
        for __, subscribed, reducers in specs:
            for cls, reduce in reducers.items():
                rows.setdefault(cls, ([], []))[0].append(reduce)
            for cls in subscribed or ():
                rows.setdefault(cls, ([], []))
        everything = []
        for handle, subscribed, __ in specs:
            if subscribed is None:
                everything.append(handle)
            for cls in rows if subscribed is None else subscribed:
                rows[cls][1].append(handle)
        self._routes = {
            cls: (tuple(reducers), tuple(recorders), _field_defaults(cls))
            for cls, (reducers, recorders) in rows.items()
        }
        self._fallback = ((), tuple(everything), {}) if everything else None
        self.routed = frozenset(self._routes).union(
            ALL_EVENT_TYPES if everything else ()
        )
        self._processors = processors
        self.active = bool(processors)

    # -- span context --------------------------------------------------------

    def current_span_id(self) -> Optional[int]:
        """The innermost open span in this context, if any."""
        stack = self._position.get()[1]
        return stack[-1] if stack else None

    def current_trace_id(self) -> Optional[str]:
        """The trace this context is currently inside, if any."""
        return self._position.get()[0]

    def mint_trace(self) -> Optional[Token]:
        """Enter a fresh trace for a root scope that builds no span.

        Returns the token that leaves it (``token.var.reset(token)``,
        in the same context), or None when this context is already
        inside a trace, which the scope then inherits.
        """
        current, stack = self._position.get()
        if current is not None:
            return None
        return self._position.set((new_trace_id(), stack))

    def _leave(self, token: Any, position: Position, trace: Any,
               span_id: Optional[int]) -> None:
        """Undo the ``set`` that installed ``position``.

        Balanced (nothing set since, same context) is a ``reset``.
        Otherwise — an inner scope left open on an error path, or a
        close from another context — the current position keeps its
        other spans: ``span_id`` is dropped from it and, unless
        ``trace`` is ``_KEEP``, the trace becomes ``trace``.
        """
        var = self._position
        current = var.get()
        if current is position:
            try:
                var.reset(token)
                return
            except ValueError:  # the token belongs to another context
                pass
        current_trace, stack = current
        if span_id is not None and span_id in stack:
            at = len(stack) - 1 - stack[::-1].index(span_id)
            stack = stack[:at] + stack[at + 1:]
        var.set((current_trace if trace is _KEEP else trace, stack))

    @contextlib.contextmanager
    def trace_scope(self, trace_id: str,
                    parent_span_id: Optional[int] = None) -> Iterator[None]:
        """Adopt a foreign trace context for the duration of a block.

        Used by the serving layer when a request frame carries a
        ``ctx`` field: every span opened inside the block joins
        ``trace_id``, and — when ``parent_span_id`` is given — parents
        into the peer's wire span, stitching the client and server
        halves into one tree. Restores the prior context on exit.
        """
        prior, stack = self._position.get()
        if parent_span_id is not None:
            stack += (parent_span_id,)
        position = (trace_id, stack)
        token = self._position.set(position)
        try:
            yield
        finally:
            self._leave(token, position, prior, parent_span_id)

    # -- emission ------------------------------------------------------------

    def span(self, cls: type[TraceEvent], *, parent_id: Any = INHERIT,
             trace_id: Any = INHERIT,
             **fields: Any) -> "TelemetrySpan | _NoopSpan":
        """Open a scope; use as ``with hub.span(Cls, ...) as sp:``.

        A class no attached processor subscribed to gets the shared
        :data:`NOOP_SPAN`: nothing is timed, and the scope neither
        parents nor mints a trace for what runs inside it.
        """
        if self._routes.get(cls, self._fallback) is None:
            return NOOP_SPAN
        return TelemetrySpan(self, cls, parent_id, fields, trace_id)

    # A long-lived scope (a transaction) opens here and closes later
    # with ``span.close(outcome=...)``.
    open_span = span

    def point(self, cls: type[TraceEvent], *, parent_id: Any = INHERIT,
              trace_id: Optional[str] = None,
              **fields: Any) -> Optional[TraceEvent]:
        """Emit an instantaneous event parented to the current span.

        Returns the event when a recording processor received one,
        None when only aggregators (or nobody) took the emission.
        """
        route = self._routes.get(cls, self._fallback)
        if route is None:
            return None
        if not route[1]:
            # Aggregators only, the commonest case by far: no span id,
            # clock reading or context lookup is needed.
            self._reduce(route, fields, 0.0)
            return None
        current, stack = self._position.get()
        if parent_id is INHERIT:
            parent_id = stack[-1] if stack else None
        if trace_id is None:
            trace_id = current
        return self._deliver(
            route, cls, next(_SPAN_IDS), parent_id, perf_counter(), 0.0,
            trace_id, fields,
        )

    def _reduce(self, route: Route, fields: dict, duration_ms: float) -> None:
        """Feed one emission to the route's reducers, with the class's
        field defaults filled in. A failing reducer is counted, not raised."""
        reducers, __, defaults = route
        if reducers:
            if defaults:
                fields = {**defaults, **fields}
            for reduce in reducers:
                try:
                    reduce(fields, duration_ms)
                except Exception as error:  # must never break rules
                    self.dropped += 1
                    self.last_error = error

    def _deliver(self, route: Route, cls: type[TraceEvent], span_id: int,
                 parent_id: Optional[int], at: float, duration_ms: float,
                 trace_id: Optional[str], fields: dict) -> TraceEvent:
        """One emission to a route with recorders: reduce it, then build
        the frozen event once and hand it to each recorder."""
        self._reduce(route, fields, duration_ms)
        recorders = route[1]
        event = cls(
            span_id=span_id, parent_span_id=parent_id, at=at,
            duration_ms=duration_ms, trace_id=trace_id, **fields,
        )
        for handle in recorders:
            try:
                handle(event)
            except Exception as error:  # a processor must never break rules
                self.dropped += 1
                self.last_error = error
        return event
