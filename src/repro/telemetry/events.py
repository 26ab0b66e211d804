"""Trace events: one frozen dataclass per lifecycle stage.

Every stage of Figure 1's control flow — a Notify arriving at the
detector, propagation through the event graph, a composite detection in
a parameter context, condition evaluation, the rule subtransaction, a
detached dispatch, the WAL flush, a buffer eviction — emits a typed,
immutable event carrying tracing context:

* ``span_id`` uniquely identifies the scope,
* ``parent_span_id`` links it into the enclosing scope (``None`` for
  roots), which is how detached rules stay attached to the trace tree
  of the transaction that triggered them,
* ``trace_id`` names the end-to-end lifecycle the scope belongs to —
  one trace covers a notification's whole journey, including across
  the serving wire and onto detached-rule worker threads,
* ``at`` is the ``perf_counter`` timestamp at scope *entry*,
* ``duration_ms`` is the scope's wall-clock duration (``0.0`` for
  instantaneous point events).

Span events are emitted when their scope *closes*, so in a trace log
children always precede their parents; processors that want a tree
(:class:`~repro.telemetry.processors.TraceLogProcessor`) rebuild it
from the parent links.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, Optional


@dataclass(frozen=True, kw_only=True)
class TraceEvent:
    """Base class: tracing context shared by every telemetry event."""

    #: short lifecycle-stage tag used by renderers and metric names
    stage: ClassVar[str] = "event"
    #: spans have a duration; point events are instantaneous
    is_span: ClassVar[bool] = False

    span_id: int
    parent_span_id: Optional[int]
    at: float
    duration_ms: float = 0.0
    trace_id: Optional[str] = None

    def summary(self) -> str:
        """The stage-specific fields as ``key=value`` text."""
        base = {"span_id", "parent_span_id", "at", "duration_ms", "trace_id"}
        parts = [
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
            if f.name not in base
        ]
        return " ".join(parts)


# =========================================================================
# Detector stages
# =========================================================================

@dataclass(frozen=True, kw_only=True)
class NotificationReceived(TraceEvent):
    """A Notify (method event or explicit raise) entered the detector.

    The span covers graph propagation *and* the immediate rules the
    notification transitively triggered, so rule spans nest inside it.
    """

    stage: ClassVar[str] = "notify"
    is_span: ClassVar[bool] = True

    class_name: str
    method_name: str
    modifier: str
    #: "method" for wrapper Notify calls, "explicit" for raise_event
    source: str = "method"
    #: primitive event nodes that matched (set when the span closes)
    matched: int = 0


@dataclass(frozen=True, kw_only=True)
class NotificationSuppressed(TraceEvent):
    """A Notify arrived while signaling was suppressed (condition eval)."""

    stage: ClassVar[str] = "suppressed"

    class_name: str
    method_name: str


@dataclass(frozen=True, kw_only=True)
class RuleTriggered(TraceEvent):
    """A detection matched a rule subscription (before scheduling)."""

    stage: ClassVar[str] = "trigger"

    rule_name: str
    event_name: str


@dataclass(frozen=True, kw_only=True)
class DetachedDispatch(TraceEvent):
    """A DETACHED-coupled activation was handed to the detached runner."""

    stage: ClassVar[str] = "detached"

    rule_name: str


@dataclass(frozen=True, kw_only=True)
class BatchIngested(TraceEvent):
    """A ``notify_batch`` / ``raise_events`` call entered the detector.

    One span per batch, in place of one ``NotificationReceived`` span
    per item — amortizing the tracing cost the same way the batch path
    amortizes the detector lock's acquisition. ``size`` is the number of items
    ingested; ``matched`` counts the primitive occurrences generated.
    """

    stage: ClassVar[str] = "batch"
    is_span: ClassVar[bool] = True

    size: int
    source: str = "method"
    matched: int = 0


@dataclass(frozen=True, kw_only=True)
class DetachedQueueWait(TraceEvent):
    """A detached activation left the queue after waiting ``wait_ms``.

    Emitted on the worker thread just before the rule runs, parented
    (and trace-linked) back to the triggering notification so detached
    latency shows up inside the originating trace.
    """

    stage: ClassVar[str] = "detached.wait"

    rule_name: str
    wait_ms: float = 0.0


@dataclass(frozen=True, kw_only=True)
class DetachedOverflow(TraceEvent):
    """The bounded detached-rule queue hit capacity.

    ``policy`` names the overflow discipline that resolved it:
    ``drop_oldest`` (the oldest activation was discarded) or ``block``
    (the producer waited for room).
    """

    stage: ClassVar[str] = "detached.overflow"

    rule_name: str
    policy: str
    backlog: int = 0


# =========================================================================
# Event graph stages
# =========================================================================

@dataclass(frozen=True, kw_only=True)
class GraphPropagation(TraceEvent):
    """One primitive occurrence propagating through the event graph.

    The span covers ``node.occur`` — i.e. the full data-flow cascade
    that one source occurrence causes, composite detections included.
    """

    stage: ClassVar[str] = "propagate"
    is_span: ClassVar[bool] = True

    event_name: str
    operator: str


@dataclass(frozen=True, kw_only=True)
class Detection(TraceEvent):
    """An event node detected an occurrence in one parameter context."""

    stage: ClassVar[str] = "detect"

    event_name: str
    operator: str
    context: str


# =========================================================================
# Rule execution stages
# =========================================================================

@dataclass(frozen=True, kw_only=True)
class ConditionEvaluated(TraceEvent):
    """A rule condition ran (with event signaling suppressed)."""

    stage: ClassVar[str] = "condition"
    is_span: ClassVar[bool] = True

    rule_name: str
    satisfied: bool = False


@dataclass(frozen=True, kw_only=True)
class RuleExecution(TraceEvent):
    """One rule subtransaction (Fig. 3's ``cond_action``).

    ``outcome`` is ``completed`` (condition held, action ran),
    ``rejected`` (condition false) or ``failed`` (condition or action
    raised). For detached rules ``parent_span_id`` points back into the
    triggering transaction's trace tree. ``condition_ms`` and
    ``commit_ms`` break the total duration into phases (the remainder
    is action time); the profiler attributes per-rule wall time from
    them. ``lane`` records the execution lane — ``"sync"`` (serial or
    thread pool) or ``"async"`` (the asyncio lane), so action time can
    be attributed to the right latency stage.
    """

    stage: ClassVar[str] = "rule"
    is_span: ClassVar[bool] = True

    rule_name: str
    coupling: str
    depth: int
    outcome: str = "completed"
    condition_ms: float = 0.0
    commit_ms: float = 0.0
    lane: str = "sync"


@dataclass(frozen=True, kw_only=True)
class SubtransactionBoundary(TraceEvent):
    """A nested (rule) subtransaction began, committed, or aborted."""

    stage: ClassVar[str] = "subtxn"

    kind: str  # "begin" | "commit" | "abort"
    txn_id: int
    label: str
    depth: int


@dataclass(frozen=True, kw_only=True)
class TransactionSpan(TraceEvent):
    """A top-level Sentinel transaction — the root of a trace tree."""

    stage: ClassVar[str] = "txn"
    is_span: ClassVar[bool] = True

    txn_id: int
    outcome: str = "committed"


# =========================================================================
# Global (inter-application) stages
# =========================================================================

@dataclass(frozen=True, kw_only=True)
class GlobalEventSent(TraceEvent):
    """A local occurrence of an exported event left for the global
    detector (Fig. 2's uplink)."""

    stage: ClassVar[str] = "global.send"

    application: str
    event_name: str


@dataclass(frozen=True, kw_only=True)
class GlobalEventReceived(TraceEvent):
    """The global detector consumed one uplinked occurrence.

    The span covers the re-raise into the global event graph, so any
    global composite detections and delivery subscriptions it causes
    nest inside it. ``known`` is False when the event was exported but
    never imported (the occurrence is dropped).
    """

    stage: ClassVar[str] = "global.receive"
    is_span: ClassVar[bool] = True

    application: str
    event_name: str
    known: bool = True


@dataclass(frozen=True, kw_only=True)
class GlobalDetectionDelivered(TraceEvent):
    """A global detection was re-raised in a subscriber application.

    The span covers the local ``raise_event`` — i.e. the local rule
    cascade the delivery triggers (typically detached rules).
    """

    stage: ClassVar[str] = "global.deliver"
    is_span: ClassVar[bool] = True

    application: str
    event_name: str


@dataclass(frozen=True, kw_only=True)
class ChannelMessage(TraceEvent):
    """A message moved through an inter-application channel.

    ``kind`` is ``send`` (enqueued or delivered directly) or
    ``deliver`` (handed to the sink); ``pending`` is the queue depth
    after the operation, which is what the monitor's backlog gauges
    read.
    """

    stage: ClassVar[str] = "channel"

    channel: str
    kind: str
    pending: int = 0


# =========================================================================
# Serving stages
# =========================================================================

@dataclass(frozen=True, kw_only=True)
class WireRequest(TraceEvent):
    """One client request/response round-trip over the serving wire.

    Opened by :class:`~repro.serving.client.SentinelClient` around a
    call when the client carries a telemetry hub; the span's trace and
    span ids travel in the frame's ``ctx`` field, so server-side spans
    parent into this one and the whole detection renders as a single
    client→server→detect→action tree.
    """

    stage: ClassVar[str] = "wire"
    is_span: ClassVar[bool] = True

    op: str
    ok: bool = True


# =========================================================================
# Storage stages
# =========================================================================

@dataclass(frozen=True, kw_only=True)
class WalFlush(TraceEvent):
    """The write-ahead log forced buffered records to disk."""

    stage: ClassVar[str] = "wal.flush"
    is_span: ClassVar[bool] = True

    records: int
    flushed_lsn: int = -1


@dataclass(frozen=True, kw_only=True)
class BufferEviction(TraceEvent):
    """The buffer pool evicted a frame (write-back if it was dirty)."""

    stage: ClassVar[str] = "buffer.evict"

    page_id: int
    dirty: bool


ALL_EVENT_TYPES: tuple[type[TraceEvent], ...] = (
    NotificationReceived,
    NotificationSuppressed,
    RuleTriggered,
    DetachedDispatch,
    BatchIngested,
    DetachedQueueWait,
    DetachedOverflow,
    GraphPropagation,
    Detection,
    ConditionEvaluated,
    RuleExecution,
    SubtransactionBoundary,
    TransactionSpan,
    GlobalEventSent,
    GlobalEventReceived,
    GlobalDetectionDelivered,
    ChannelMessage,
    WireRequest,
    WalFlush,
    BufferEviction,
)
