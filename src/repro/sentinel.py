"""The Sentinel facade: an active OODBMS.

Wires together every module of the architecture in Figure 1:

* the Open OODB substrate (optional — omit ``directory`` for a purely
  in-memory active system),
* the nested transaction manager for rule subtransactions,
* the local composite event detector with the Snoop event graph,
* the rule scheduler (serial or threaded),
* the system class's transaction events (``begin_transaction``,
  ``pre_commit_transaction``, ``commit_transaction``,
  ``abort_transaction``) signaled around every top-level transaction,
* the flush-on-commit/abort rules — real, deactivatable rules, exactly
  as the paper describes ("this is invoked as an action of a rule on
  abort and commit events. However, these can be easily modified by
  deactivating these rules if events across transaction boundaries need
  to be detected"),
* a bounded queue that runs DETACHED-coupled rules on worker threads,
  each under a fresh top-level transaction.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from contextlib import contextmanager
from contextvars import Token
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.clock import Clock
from repro.core.deferred import (
    ABORT_TRANSACTION,
    BEGIN_TRANSACTION,
    COMMIT_TRANSACTION,
    PRE_COMMIT_TRANSACTION,
    ensure_system_events,
)
from repro.core.detector import LocalEventDetector
from repro.core.events.primitive import (
    ExplicitEventNode,
    PrimitiveEventNode,
    TemporalEventNode,
)
from repro.core.params import EventModifier, PrimitiveOccurrence
from repro.core.reactive import get_current_detector, set_current_detector
from repro.core.rules import (
    Action,
    Condition,
    Rule,
    always,
    reject_positional_rule_args,
)
from repro.core.scheduler import (
    DetachedRuleQueue,
    RuleActivation,
    SerialExecutor,
    ThreadedExecutor,
)
from repro.errors import InvalidTransactionState
from repro.oodb.database import OODBTransaction, OpenOODB
from repro.serving.api import (
    DetectionListener,
    SentinelAPI,
    detection_summary,
)
from repro.oodb.object_model import Persistent
from repro.telemetry.events import TransactionSpan
from repro.telemetry.hub import TelemetryHub, TelemetrySpan
from repro.telemetry.processors import (
    CounterProcessor,
    TelemetryProcessor,
    TraceLogProcessor,
)
from repro.transactions.nested import NestedTransaction, NestedTransactionManager

if TYPE_CHECKING:
    from repro.monitor import FlightRecorder, MonitorServer, RuleProfiler

FLUSH_ON_COMMIT_RULE = "$flush_on_commit"
FLUSH_ON_ABORT_RULE = "$flush_on_abort"


@dataclass
class SystemReport:
    """A status snapshot across every module of the active system.

    Counter values are the engine's own (the default
    :class:`~repro.telemetry.processors.CounterProcessor` publishes the
    same ones); structural numbers (node counts, enabled rules,
    resident objects) are read live.
    ``to_dict()`` returns the pre-telemetry dict shape and
    ``report["events"]``-style indexing keeps old callers working.
    """

    name: str
    events: dict[str, int]
    notifications: dict[str, int]
    rules: dict[str, int]
    storage: Optional[dict[str, Any]] = None
    #: the full metrics-registry dump (counters + latency histograms)
    metrics: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        from repro.reporting import system_report_dict

        return system_report_dict(self)

    def __getitem__(self, key: str) -> Any:
        return self.to_dict()[key]

    def __contains__(self, key: str) -> bool:
        return key in self.to_dict()


class _SpecDocument(Persistent):
    """A stored specification-language document."""

    def __init__(self, spec_name: str, source: str):
        self.spec_name = spec_name
        self.source = source


class SentinelTransaction:
    """A top-level transaction of the active system.

    Pairs the (optional) OODB transaction with the root of a nested
    transaction tree under which all triggered rules execute.
    """

    def __init__(self, system: "Sentinel", root: NestedTransaction,
                 oodb_txn: Optional[OODBTransaction]):
        self._system = system
        self.root = root
        self.oodb = oodb_txn
        self.finished = False
        #: telemetry scope covering the whole transaction (None unless a
        #: processor routed ``TransactionSpan`` at begin time)
        self.span: Optional[TelemetrySpan] = None
        #: without a span, the token that leaves the trace minted at
        #: begin, which every ingest of the transaction shares
        self.trace: Optional[Token] = None
        #: ``perf_counter()`` at begin, for ``txn.ms`` (metrics only)
        self.started = 0.0
        self._token = None  # Sentinel.begin's binding (a Token)

    @property
    def txn_id(self) -> int:
        return self.oodb.txn_id if self.oodb is not None else self.root.txn_id

    # Object operations pass through to the OODB transaction.
    def persist(self, obj, name=None):
        return self._require_db().persist(obj, name)

    def fetch(self, oid):
        return self._require_db().fetch(oid)

    def lookup(self, name):
        return self._require_db().lookup(name)

    def save(self, obj):
        return self._require_db().save(obj)

    def mark_dirty(self, obj):
        return self._require_db().mark_dirty(obj)

    def remove(self, obj):
        return self._require_db().remove(obj)

    def extent(self, cls):
        return self._require_db().extent(cls)

    def bind(self, name, obj):
        return self._require_db().bind(name, obj)

    def unbind(self, name):
        return self._require_db().unbind(name)

    def _require_db(self) -> OODBTransaction:
        if self.oodb is None:
            raise InvalidTransactionState(
                "no database attached; open Sentinel with a directory for "
                "persistent objects"
            )
        return self.oodb

    def commit(self) -> None:
        self._system.commit(self)

    def abort(self) -> None:
        self._system.abort(self)


#: transaction-boundary events signaled by the system class — part of
#: the machinery, not of the user's event vocabulary (event_names()
#: hides them for local/remote listing parity)
_SYSTEM_EVENT_NAMES = frozenset({
    BEGIN_TRANSACTION,
    PRE_COMMIT_TRANSACTION,
    COMMIT_TRANSACTION,
    ABORT_TRANSACTION,
})


class Sentinel(SentinelAPI):
    """An active OODBMS instance (one application / Exodus client).

    Implements :class:`~repro.serving.api.SentinelAPI` — the portable
    event/rule/ingestion surface shared with
    :class:`~repro.serving.client.SentinelClient` — plus everything
    only an in-process system can offer (transactions, persistence,
    callable rule conditions/actions, telemetry).
    """

    def __init__(
        self,
        directory: Optional[str | os.PathLike] = None,
        clock: Optional[Clock] = None,
        executor: Optional[SerialExecutor | ThreadedExecutor] = None,
        sharing: bool = True,
        error_policy: str = "raise",
        name: str = "app",
        flush_on_boundaries: bool = True,
        pool_size: int = 128,
        activate: bool = True,
        metrics: bool = True,
        detached_capacity: int = 256,
        detached_policy: str = "block",
        detached_workers: int = 2,
        detections_capacity: int = 1024,
    ):
        self.name = name
        #: one telemetry hub shared by every layer (detector, event
        #: graph, nested transactions, WAL, buffer pool); attach
        #: processors here to observe the whole system.
        self.telemetry = TelemetryHub()
        #: counters, duration histograms and the stage-latency view
        self.metrics: Optional[CounterProcessor] = (
            self.telemetry.attach(CounterProcessor()) if metrics else None
        )
        self.db: Optional[OpenOODB] = (
            OpenOODB(directory, pool_size=pool_size, telemetry=self.telemetry)
            if directory is not None
            else None
        )
        self.txns = NestedTransactionManager(telemetry=self.telemetry)
        self.detector = LocalEventDetector(
            clock=clock,
            executor=executor,
            txn_manager=self.txns,
            sharing=sharing,
            error_policy=error_policy,
            name=name,
            telemetry=self.telemetry,
        )
        if self.metrics is not None:
            self.metrics.read_engine(self.detector)
        ensure_system_events(self.detector)
        #: bounded detached-rule queue; overflow resolved by
        #: ``detached_policy`` ("block" / "drop_oldest", see
        #: :class:`~repro.core.scheduler.DetachedRuleQueue`)
        self.detached = DetachedRuleQueue(
            runner=self._execute_detached,
            capacity=detached_capacity,
            policy=detached_policy,
            workers=detached_workers,
            telemetry=self.telemetry,
        )
        self.detector.detached_handler = self.detached.submit
        #: open transactions by the root the execution context binds
        self._open: dict[NestedTransaction, SentinelTransaction] = {}
        if self.db is not None:
            self.db.binding = lambda: getattr(self.current(), "oodb", None)
        self._closing = False
        self._closed = False
        #: detection summaries recorded by watched rules, newest last
        self._detections: deque = deque(maxlen=detections_capacity)
        self._detections_lock = threading.Lock()
        self._detection_listeners: list[DetectionListener] = []
        #: extra Prometheus line providers consulted by
        #: :func:`repro.reporting.runtime_metric_lines` — an attached
        #: :class:`~repro.serving.server.SentinelServer` registers its
        #: per-tenant families here so any monitor picks them up.
        self.extra_metric_providers: list[Callable[[], list[str]]] = []
        #: extra ``health()`` slice providers (each returns a dict merged
        #: into the health payload) — an attached server contributes its
        #: address/connection/drain state here.
        self.extra_health_providers: list[Callable[[], dict]] = []
        #: the live monitor server, if one was started (see ``monitor``)
        self._monitor: Optional["MonitorServer"] = None
        #: processors the monitor attached; detached again on close
        self._monitor_processors: list[TelemetryProcessor] = []
        if flush_on_boundaries:
            self._install_flush_rules()
        if self.db is not None:
            self.db.on_pre_commit.append(self._on_db_pre_commit)
            self.db.registry.register(_SpecDocument)
        if activate:
            self.activate()

    # -- plumbing convenience ---------------------------------------------------

    @property
    def rules(self):
        return self.detector.rules

    @property
    def graph(self):
        return self.detector.graph

    @property
    def clock(self):
        return self.detector.clock

    def activate(self) -> None:
        """Route reactive-method notifications (this thread) to us."""
        set_current_detector(self.detector)

    @contextmanager
    def active(self) -> Iterator["Sentinel"]:
        """Scoped activation for multi-application code::

            with orders_app.active():
                book.place_order("SKU-7", 5)   # notifies orders_app
        """
        from repro.core.reactive import _current

        token = _current.set(self.detector)
        try:
            yield self
        finally:
            _current.reset(token)

    def register_class(self, cls: type,
                       prefix: Optional[str] = None) -> dict:
        """Register a class with the active system.

        Reactive classes get primitive event nodes for their declared
        events (returned as a name -> node dict); persistent classes
        are added to the translation registry. A class may be either
        or both.
        """
        if self.db is not None and hasattr(cls, "persistent_state"):
            self.db.registry.register(cls)
        if hasattr(cls, "register_events"):
            return cls.register_events(self.detector, prefix=prefix)
        return {}

    # Event / rule definition passthroughs (typed mirrors of the
    # detector API, so the facade is self-documenting).
    def primitive_event(
        self,
        name: str,
        class_or_instance: Any,
        modifier: EventModifier | str,
        method_name: str,
        snapshot_state: bool = False,
    ) -> PrimitiveEventNode:
        return self.detector.primitive_event(
            name, class_or_instance, modifier, method_name,
            snapshot_state=snapshot_state,
        )

    def explicit_event(self, name: str) -> ExplicitEventNode:
        return self.detector.explicit_event(name)

    def temporal_event(self, name: str, at: Optional[float] = None,
                       every: Optional[float] = None) -> TemporalEventNode:
        return self.detector.temporal_event(name, at=at, every=every)

    def event(self, name: str):
        return self.detector.event(name)

    def define(self, name: str, node):
        """Name an event expression for reuse (see ``detector.define``).

        ``node`` may be an :class:`EventNode` or an expression string
        in the operator algebra (``"a >> (b & c)"``,
        ``"NOT(a, b, c)"`` — see :mod:`repro.serving.expr`), the form
        remote clients use.
        """
        return self.detector.define(name, self._resolve_event(node))

    def _resolve_event(self, event: Any):
        """An event reference (node, name, or expression string) as a node."""
        if not isinstance(event, str):
            return event
        from repro.serving.expr import parse_event_expr

        return parse_event_expr(event, self.detector.graph.get)

    def event_names(self) -> list[str]:
        """User-defined event names (system transaction events and
        internal ``$`` names excluded — matches the remote listing)."""
        return sorted(
            name
            for name in self.detector.graph.names()
            if name not in _SYSTEM_EVENT_NAMES and not name.startswith("$")
        )

    def rule(
        self,
        name: str,
        event: Any,
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
        """Define a rule; ``condition``/``action`` are keyword-only
        (``condition`` defaults to always-true). The deprecated
        positional convention was removed — old call sites get a
        RemovedAPIError [E2] naming ``tools/migrate_rule_calls.py``.

        ``executor`` picks the execution lane (``"sync"``/``"async"``);
        the default auto-detects — ``async def`` actions run on the
        asyncio lane, plain callables on the thread lanes."""
        reject_positional_rule_args(legacy_positional)
        return self.detector.rule(
            name, event, condition=condition, action=action,
            context=context, coupling=coupling, priority=priority,
            trigger_mode=trigger_mode, enabled=enabled,
            scope=scope, owner=owner, executor=executor,
        )

    def raise_event(self, name: str, txn_id: Optional[int] = None,
                    **params: Any) -> Optional[PrimitiveOccurrence]:
        return self.detector.raise_event(name, txn_id=txn_id, **params)

    def raise_events(self, events,
                     txn_id: Optional[int] = None) -> list[PrimitiveOccurrence]:
        """Raise many explicit events under one batched dispatch
        (see :meth:`~repro.core.detector.LocalEventDetector.raise_events`)."""
        return self.detector.raise_events(events, txn_id=txn_id)

    def notify_batch(self, items,
                     txn_id: Optional[int] = None) -> list[PrimitiveOccurrence]:
        """Ingest many Notify items under one batched dispatch
        (see :meth:`~repro.core.detector.LocalEventDetector.notify_batch`)."""
        return self.detector.notify_batch(items, txn_id=txn_id)

    def advance_time(self, delta: float) -> None:
        self.detector.advance_time(delta)

    # =====================================================================
    # Watched rules and recorded detections (the SentinelAPI surface)
    # =====================================================================

    def watch(self, name: str, event: Any, *, context: str = "recent",
              coupling: str = "immediate", priority: int | str = 1,
              executor: str = "sync") -> str:
        """Define a rule that *records* detections instead of acting.

        Each detection appends one JSON-safe summary dict (see
        :func:`repro.serving.api.detection_summary`) to a bounded log
        read back by :meth:`detections` and fanned out to
        :meth:`add_detection_listener` callbacks. ``event`` may be an
        event name, an expression string, or an :class:`EventNode`.
        This is the whole rule surface available to remote clients —
        conditions and actions are code and stay in-process.
        ``executor="async"`` records on the asyncio lane instead of the
        thread lanes (lets remote clients exercise async scheduling).
        """
        node = self._resolve_event(event)

        def record(occurrence, _name=name) -> None:
            self._record_detection(detection_summary(_name, occurrence))

        self.detector.rule(
            name, node, action=record, context=context,
            coupling=coupling, priority=priority, executor=executor,
        )
        return name

    def unwatch(self, name: str) -> None:
        """Delete a watched rule (any rule, in fact) by name."""
        self.rules.delete(name)

    def enable_rule(self, name: str) -> None:
        self.rules.enable(name)

    def disable_rule(self, name: str) -> None:
        self.rules.disable(name)

    def rule_names(self) -> list[str]:
        """User-defined rule names (internal ``$`` rules excluded)."""
        return sorted(
            name for name in self.rules.names() if not name.startswith("$")
        )

    def _record_detection(self, summary: dict) -> None:
        with self._detections_lock:
            self._detections.append(summary)
        for listener in list(self._detection_listeners):
            try:
                listener(summary)
            except Exception:  # noqa: BLE001 — observer bugs stay observers'
                pass

    def detections(self, rule: Optional[str] = None, *,
                   match: Optional[Callable[[str], bool]] = None,
                   clear: bool = False) -> list[dict]:
        """Recorded detection summaries, oldest first.

        ``rule`` filters to one rule name; ``match`` (local-only, used
        by the server for tenant scoping) filters by predicate on the
        rule name; ``clear=True`` consumes the returned entries,
        leaving non-matching ones in place.
        """
        if rule is not None:
            predicate = lambda s: s.get("rule") == rule  # noqa: E731
        elif match is not None:
            predicate = lambda s: match(s.get("rule", ""))  # noqa: E731
        else:
            predicate = lambda s: True  # noqa: E731
        with self._detections_lock:
            selected = [dict(s) for s in self._detections if predicate(s)]
            if clear and selected:
                kept = [s for s in self._detections if not predicate(s)]
                self._detections.clear()
                self._detections.extend(kept)
        return selected

    def add_detection_listener(self, listener: DetectionListener) -> None:
        """Observe watched-rule detections live (summary dict per hit)."""
        self._detection_listeners.append(listener)

    def remove_detection_listener(self, listener: DetectionListener) -> None:
        try:
            self._detection_listeners.remove(listener)
        except ValueError:
            pass

    def ping(self) -> dict:
        """Cheap liveness probe (the remote client's round-trip)."""
        return {"name": self.name, "healthy": not self._closed}

    def serve(self, host: str = "127.0.0.1", port: int = 0, *,
              tenants=None, max_frame: Optional[int] = None):
        """Put this system behind a multi-tenant TCP server.

        Returns a started :class:`~repro.serving.server.SentinelServer`
        (``port=0`` picks a free port — read ``server.port``). Close it
        before closing the system.
        """
        from repro.serving.protocol import DEFAULT_MAX_FRAME
        from repro.serving.server import SentinelServer

        return SentinelServer(
            self, host, port, tenants=tenants,
            max_frame=max_frame if max_frame is not None else DEFAULT_MAX_FRAME,
        ).start()

    # =====================================================================
    # Transactions
    # =====================================================================

    def begin(self) -> SentinelTransaction:
        """Start a top-level transaction; signals ``begin_transaction``."""
        if self.detector.transaction_root() in self._open:
            raise InvalidTransactionState(
                "a Sentinel transaction is already active on this thread"
            )
        oodb_txn = self.db.begin() if self.db is not None else None
        top_id = oodb_txn.txn_id if oodb_txn is not None else None
        root = self.txns.begin_top(label=f"{self.name}-txn", top_level_id=top_id)
        txn = SentinelTransaction(self, root, oodb_txn)
        telemetry = self.telemetry
        if TransactionSpan in telemetry.routed:
            # The root of this transaction's trace tree. It stays on the
            # thread's span stack until commit/abort, so every notify,
            # rule, and WAL flush in between nests under it.
            txn.span = telemetry.open_span(TransactionSpan, txn_id=txn.txn_id)
        elif telemetry.active:
            # No span, but still one trace for the whole transaction.
            txn.trace = telemetry.mint_trace()
        if self.metrics is not None:
            txn.started = perf_counter()
        self._open[root] = txn
        txn._token = self.detector.bind_transaction(root)
        # "The begin transaction event is always signaled at the
        # beginning of a transaction."
        self.detector.signal_system_event(BEGIN_TRANSACTION, txn.txn_id)
        return txn

    def current(self) -> Optional[SentinelTransaction]:
        """The open transaction this context runs under, if any: an
        action sees its trigger's on every lane but the detached one."""
        return self._open.get(self.detector.transaction_root())

    def commit(self, txn: Optional[SentinelTransaction] = None) -> None:
        """Commit: pre-commit (deferred rules), storage commit, commit
        events (graph flush), then the rule transaction tree."""
        txn = self._resolve(txn)
        # Bound here too: committed from another thread, its deferred
        # and commit-event rules still run under it.
        token = self.detector.bind_transaction(txn.root)
        try:
            if txn.oodb is not None:
                # The OODB pre-commit hook signals pre_commit_transaction,
                # which fires deferred rules before the storage commit.
                self.db.commit(txn.oodb)
            else:
                self.detector.signal_system_event(
                    PRE_COMMIT_TRANSACTION, txn.txn_id
                )
            # Commit-event rules (including graph flush) run while the
            # rule transaction tree is still alive.
            self.detector.signal_system_event(COMMIT_TRANSACTION, txn.txn_id)
            txn.root.commit()
        finally:
            token.var.reset(token)
        self._finish(txn, outcome="committed")

    def abort(self, txn: Optional[SentinelTransaction] = None) -> None:
        """Abort: storage rollback, abort events (graph flush), tree abort."""
        txn = self._resolve(txn)
        token = self.detector.bind_transaction(txn.root)
        try:
            if txn.oodb is not None and txn.oodb.is_active:
                self.db.abort(txn.oodb)
            self.detector.signal_system_event(ABORT_TRANSACTION, txn.txn_id)
            txn.root.abort()
        finally:
            token.var.reset(token)
        self._finish(txn, outcome="aborted")

    def _on_db_pre_commit(self, oodb_txn: OODBTransaction) -> None:
        txn = self.current()
        if txn is not None and txn.oodb is oodb_txn:
            self.detector.signal_system_event(
                PRE_COMMIT_TRANSACTION, txn.txn_id
            )

    def _resolve(self, txn: Optional[SentinelTransaction]) -> SentinelTransaction:
        txn = txn or self.current()
        if txn is None or txn.finished:
            raise InvalidTransactionState("no active Sentinel transaction")
        return txn

    def _finish(self, txn: SentinelTransaction,
                outcome: str = "committed") -> None:
        txn.finished = True
        if txn.span is not None:
            txn.span.close(outcome=outcome)
            txn.span = None
        elif txn.trace is not None:
            try:
                txn.trace.var.reset(txn.trace)
            except ValueError:
                pass  # begun in another context, which keeps the trace
            txn.trace = None
        if self.metrics is not None:
            # read_engine withdrew TransactionSpan's reducer: the facade
            # times and counts its transactions, as the engine its stages.
            registry = self.metrics.registry
            registry.histogram("txn.ms").observe(
                (perf_counter() - txn.started) * 1000.0
            )
            registry.counter(f"txn.{outcome}").value += 1
        del self._open[txn.root]
        try:
            txn._token.var.reset(txn._token)
        except ValueError:
            pass  # begun in another context; current() reads it as none

    @contextmanager
    def transaction(self) -> Iterator[SentinelTransaction]:
        """Commit on success, abort on error."""
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            if not txn.finished:
                self.abort(txn)
            raise
        else:
            if not txn.finished:
                self.commit(txn)

    # =====================================================================
    # System rules
    # =====================================================================

    def _install_flush_rules(self) -> None:
        """Flush the event graph when a transaction commits or aborts.

        "Currently, we provide a mechanism to flush all events generated
        by a transaction when it commits" — implemented, per the paper,
        as rules on the commit/abort events; deactivate them
        (``sentinel.rules.disable(FLUSH_ON_COMMIT_RULE)``) to let
        composite events span transactions.
        """

        def flush_action(occurrence) -> None:
            self.detector.flush()

        self.detector.rule(
            FLUSH_ON_COMMIT_RULE,
            COMMIT_TRANSACTION,
            action=flush_action,
            priority=-1_000_000,  # run after every user rule
        )
        self.detector.rule(
            FLUSH_ON_ABORT_RULE,
            ABORT_TRANSACTION,
            action=flush_action,
            priority=-1_000_000,
        )

    # =====================================================================
    # Detached rule execution
    # =====================================================================

    def _execute_detached(self, activation: RuleActivation) -> None:
        """Run one detached activation under a fresh top-level transaction.

        The paper left detached mode as future work; we provide the
        natural semantics: a worker thread, a separate transaction
        tree, no causal dependence on the triggering transaction. It
        runs in the queue's copy of the trigger's context (trace kept,
        execution state the new root at depth 0, this system's detector
        current even if the triggering thread never activated it).
        """
        root = self.txns.begin_top(label=f"detached:{activation.rule.name}")
        activation.parent_txn = root
        self.detector.enter_detached(root)
        set_current_detector(self.detector)
        try:
            self.detector.scheduler.run_one(activation)
            root.commit()
        except Exception:
            if root.state.value == "active":
                root.abort()
            raise

    def wait_detached(self, timeout: Optional[float] = 10.0) -> None:
        """Wait for the detached-rule backlog to drain (tests, shutdown).

        ``timeout`` is in seconds; pass ``None`` to wait forever (a
        detached rule may itself trigger further detached rules, so the
        wait covers the transitive backlog). If the timeout elapses
        first, raises :class:`TimeoutError` naming the number of
        activations still pending, with the per-queue breakdown (queued
        depth vs activations on workers) from the queue snapshot.
        """
        if self.detached.join(timeout):
            return
        backlog = self.detached.backlog()
        snapshot = self.detached.snapshot()
        raise TimeoutError(
            f"detached rules did not drain within {timeout}s; "
            f"{backlog} activation(s) still pending "
            f"(queued={snapshot['depth']}, active={snapshot['active']}, "
            f"capacity={snapshot['capacity']}, policy={snapshot['policy']})"
        )

    # =====================================================================
    # Persistent specifications (rules stored in the database)
    # =====================================================================

    SPEC_NAME_PREFIX = "$spec:"

    def store_spec(self, name: str, source: str) -> None:
        """Persist a specification document under ``name``.

        Sentinel stored rule definitions in the OODB; here the durable
        form is the specification *source* (conditions and actions are
        code, so they rebind from a namespace at load time).
        The spec is validated by parsing before it is stored.
        """
        from repro.snoop.parser import parse

        parse(source)  # reject broken specs before they hit the store
        db = self._require_db()
        document = _SpecDocument(name, source)
        with db.transaction() as txn:
            binding = self.SPEC_NAME_PREFIX + name
            if db.names.is_bound(binding):
                existing = txn.lookup(binding)
                existing.source = source
                txn.mark_dirty(existing)
            else:
                txn.persist(document, name=binding)

    def load_spec(self, name: str, namespace: Optional[dict] = None):
        """Rebuild the events and rules of a stored specification."""
        from repro.snoop.builder import build_spec

        db = self._require_db()
        with db.transaction() as txn:
            document = txn.lookup(self.SPEC_NAME_PREFIX + name)
            source = document.source
        return build_spec(source, self.detector, namespace or {})

    def stored_specs(self) -> list[str]:
        """Names of the specification documents stored in the database."""
        db = self._require_db()
        prefix = self.SPEC_NAME_PREFIX
        return sorted(
            name[len(prefix):]
            for name in db.names.names()
            if name.startswith(prefix)
        )

    def drop_spec(self, name: str) -> None:
        db = self._require_db()
        with db.transaction() as txn:
            binding = self.SPEC_NAME_PREFIX + name
            document = txn.lookup(binding)
            txn.unbind(binding)
            txn.remove(document)

    def _require_db(self) -> OpenOODB:
        if self.db is None:
            raise InvalidTransactionState(
                "persistent specifications need a database directory"
            )
        return self.db

    # =====================================================================
    # Introspection
    # =====================================================================

    def report(self) -> SystemReport:
        """A status snapshot across every module (operations/debugging).

        Counters are the engine's own counts, which the metrics
        registry publishes too (see the telemetry parity tests), so the
        report reads the same with ``metrics=False``.
        """
        detector = self.detector
        graph_stats = detector.graph.stats
        events = {
            "nodes": len(detector.graph),
            "named": len(detector.graph.names()),
            "shared_hits": graph_stats.shared_hits,
            "detections": graph_stats.detections,
            "propagations": graph_stats.propagations,
        }
        stats = detector.stats
        notifications = {
            "received": stats.notifications,
            "suppressed": stats.suppressed,
            "triggers": stats.triggers,
            "detached": stats.detached_dispatches,
        }
        scheduler_stats = detector.scheduler.stats
        rules = {
            "defined": len(detector.rules),
            "enabled": sum(1 for r in detector.rules.all() if r.enabled),
            "executions": scheduler_stats.executions,
            "condition_rejections": scheduler_stats.condition_rejections,
            "failures": scheduler_stats.failures,
            "max_nesting": scheduler_stats.max_depth_seen,
        }
        storage = None
        if self.db is not None:
            pool = self.db.storage.buffer_pool.stats
            storage = {
                "objects": len(self.db.persistence),
                "names": len(self.db.names.names()),
                "resident": len(self.db.address_space),
                "buffer_hit_rate": round(pool.hit_rate(), 3),
                "wal_flushed_lsn": self.db.storage.wal.flushed_lsn,
            }
        metrics: dict[str, Any] = {}
        if self.metrics is not None:
            metrics = self.metrics.registry.to_dict()
            metrics["stage_latency"] = self.metrics.percentiles()
        return SystemReport(
            name=self.name,
            events=events,
            notifications=notifications,
            rules=rules,
            storage=storage,
            metrics=metrics,
        )

    def report_text(self) -> str:
        """The report rendered as an indented text block."""
        data = self.report().to_dict()
        lines = [f"Sentinel system {data.pop('name')!r}"]
        for section, content in data.items():
            lines.append(f"  {section}:")
            for key, value in content.items():
                lines.append(f"    {key}: {value}")
        return "\n".join(lines) + "\n"

    def health(self) -> dict:
        """Liveness snapshot: the monitor's ``/health`` payload.

        ``healthy`` flips to False the moment ``close()`` begins, so a
        scraper (or load balancer) sees the instance drain before the
        endpoint itself goes away. The payload shape is defined in
        :mod:`repro.reporting`, the single schema module shared with
        ``LocalEventDetector.health()`` and ``SystemReport.to_dict()``.
        """
        from repro.reporting import system_health

        return system_health(self)

    # =====================================================================
    # Live monitoring
    # =====================================================================

    def monitor(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        spans: bool = True,
        span_capacity: int = 4096,
        profile: bool = True,
        slow_ms: Optional[float] = None,
        recorder_dir: Optional[str | os.PathLike] = None,
    ) -> "MonitorServer":
        """Start (or return) the live monitoring endpoint.

        Attaches the processors the endpoints need — a
        :class:`TraceLogProcessor` for ``/spans`` (``spans=True``), a
        :class:`~repro.monitor.RuleProfiler` for ``/profile`` and the
        labelled ``/metrics`` families (``profile=True``, with
        ``slow_ms`` as the slow-rule threshold), and a
        :class:`~repro.monitor.FlightRecorder` when ``recorder_dir``
        is given — then serves on ``host:port`` (port 0 = OS-assigned;
        read ``server.port``). The server lives until :meth:`close`,
        which detaches those processors again and shuts it down last,
        so ``/health`` reports the drain.
        """
        if self._monitor is not None:
            return self._monitor
        if self._closed:
            raise InvalidTransactionState("system is closed")
        from repro.monitor import FlightRecorder, MonitorServer, RuleProfiler

        trace: Optional[TraceLogProcessor] = None
        if spans:
            trace = self.telemetry.attach(
                TraceLogProcessor(capacity=span_capacity)
            )
            self._monitor_processors.append(trace)
        profiler: Optional["RuleProfiler"] = None
        if profile:
            profiler = self.telemetry.attach(RuleProfiler(slow_ms=slow_ms))
            self._monitor_processors.append(profiler)
        if recorder_dir is not None:
            recorder: "FlightRecorder" = self.telemetry.attach(
                FlightRecorder(recorder_dir, hub=self.telemetry)
            )
            self._monitor_processors.append(recorder)
        from repro.reporting import runtime_metric_lines

        self._monitor = MonitorServer(
            registry=self.metrics.registry if self.metrics else None,
            health=self.health,
            trace=trace,
            graph=self.detector.graph_snapshot,
            profiler=profiler,
            host=host,
            port=port,
            extra_metrics=lambda: runtime_metric_lines(self),
        ).start()
        return self._monitor

    @property
    def monitor_server(self) -> Optional["MonitorServer"]:
        return self._monitor

    # =====================================================================
    # Lifecycle
    # =====================================================================

    def close(self) -> None:
        """Shut down: join detached rules, abort open work, close the DB."""
        if self._closed:
            return
        self._closing = True
        current = self.current()
        if current is not None:
            self.abort(current)
        # Then the transitive backlog, the abort's cascade included: a
        # closed queue takes no more.
        self.detached.join(timeout=10.0)
        self.detached.close()
        self.detector.shutdown()
        if self.db is not None:
            self.db.close()
        if get_current_detector() is self.detector:
            set_current_detector(None)
        # The monitor goes down last: /health keeps answering (503,
        # status "closing") for the whole drain above.
        if self._monitor is not None:
            self._monitor.close()
            self._monitor = None
        for processor in self._monitor_processors:
            self.telemetry.detach(processor)
            processor.close()
        self._monitor_processors.clear()
        self._closed = True

    def __enter__(self) -> "Sentinel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
