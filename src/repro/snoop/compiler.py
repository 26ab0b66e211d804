"""Runtime compiler for the detection fast path (``dispatch="compiled"``).

The Snoop preprocessor of the paper compiles event expressions ahead of
time (§2); :mod:`repro.snoop.codegen` reproduces the *source-emission*
half of that pipeline. This module is the other half: a runtime
compiler that flattens the live event graph into per-notify dispatch
plans, selected with ``Sentinel(dispatch="compiled")`` /
``LocalEventDetector(dispatch="compiled")``.

What gets precomputed, at rule-registration time (lazily, on the first
signal after the graph changes):

* a **route table** ``(class_name, method_name, modifier) -> fan-out
  entries`` replacing the per-notify MRO walk + ``node.matches`` scan;
* per node, per active context, **flattened subscriber arrays**: the
  composite parents whose context counter is live, and the rules whose
  ``enabled``/context/trigger-mode checks fold down to a single
  ``occurred_at > since`` comparison;
* slotted fan-out records (``_Fan``) so the hot loop performs no
  per-event dict lookups (occurrences themselves are ``slots=True``
  dataclasses, see :mod:`repro.core.params`).

Plans are invalidated by ``EventGraph.version``, a topology stamp
bumped on node registration/naming, rule (un)subscription and context
counter edits; the engine compares one int per notify and rebuilds
lazily on mismatch.

Semantics are bit-for-bit those of the interpreted path — the replay
oracle parity suite runs both modes across all four parameter contexts
and shard counts. Whenever a feature needs the interpreted machinery
(active telemetry spans and stage-latency stamping, scheduler
listeners, ``$RULE`` meta-events, transactional rule subtransactions,
threaded executors, collect mode, detached coupling), the engine
delegates to the interpreted implementation for exactly that call, so
observability and transactional semantics are preserved unchanged.

In sharded mode (``shards > 1``) the compiled front-end performs the
route lookup and occurrence construction, then stages the occurrence on
the :class:`~repro.core.sharding.ShardedRuntime` driver exactly like
the interpreted path — shard pinning and cross-shard channels are
untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.core.events.primitive import ExplicitEventNode
from repro.core.params import EventModifier, PrimitiveOccurrence, atomic
from repro.core.rules import CouplingMode, TriggerMode
from repro.core.scheduler import (
    RULE_CLASS,
    RuleActivation,
    SerialExecutor,
)
from repro.errors import RuleExecutionError

if TYPE_CHECKING:
    from repro.core.detector import LocalEventDetector

_NEG_INF = float("-inf")

#: fast common-case spellings; anything else goes through
#: ``EventModifier.parse`` so error behaviour matches the interpreter
_MOD_BY_KEY: dict[Any, EventModifier] = {
    "begin": EventModifier.BEGIN,
    "end": EventModifier.END,
    EventModifier.BEGIN: EventModifier.BEGIN,
    EventModifier.END: EventModifier.END,
}


class _Fan:
    """Compiled fan-out of one primitive/explicit node.

    ``ctxs`` is a tuple of ``(ctx, parents, rules)`` triples in the
    node's active-context order; ``parents`` holds ``(parent, port)``
    pairs whose context counter was live at compile time, ``rules``
    holds ``(rule, since)`` pairs with the enabled/context/trigger-mode
    checks already folded (``since`` is ``-inf`` for PREVIOUS rules).
    """

    __slots__ = (
        "node", "event_name", "instance", "snapshot", "is_global", "ctxs",
    )

    def __init__(self, detector: "LocalEventDetector", node) -> None:
        self.node = node
        self.event_name = node.display_name
        self.instance = getattr(node, "instance", None)
        self.snapshot = bool(getattr(node, "snapshot_state", False))
        self.is_global = node.display_name in detector._global_events
        ctxs = []
        for ctx in tuple(node._context_counts):
            parents = tuple(
                (parent, port)
                for parent, port in node.event_subscribers
                if parent.context_active(ctx)
            )
            rules = tuple(
                (
                    rule,
                    rule.since
                    if rule.trigger_mode is TriggerMode.NOW
                    else _NEG_INF,
                )
                for rule in node.rule_subscribers
                if rule.enabled and rule.context is ctx
            )
            ctxs.append((ctx, parents, rules))
        self.ctxs = tuple(ctxs)


class _Plan:
    """One immutable compilation of the graph at a given version."""

    __slots__ = (
        "version", "routes", "explicit", "mro_cache", "has_rule_prims",
    )

    def __init__(self, detector: "LocalEventDetector") -> None:
        graph = detector.graph
        self.version = graph.version
        fans: dict[int, _Fan] = {}

        def fan_of(node) -> _Fan:
            fan = fans.get(id(node))
            if fan is None:
                fan = fans[id(node)] = _Fan(detector, node)
            return fan

        routes: dict[tuple, tuple] = {}
        for class_name, nodes in graph._class_index.items():
            for node in nodes:
                key = (class_name, node.method_name, node.modifier)
                routes[key] = routes.get(key, ()) + (fan_of(node),)
        self.routes = routes
        self.explicit = {
            name: fan_of(node)
            for name, node in graph._by_name.items()
            if isinstance(node, ExplicitEventNode)
        }
        #: (type(instance), class_name, method, modifier) -> fan tuple;
        #: lazily filled for instance notifies whose MRO may widen the
        #: candidate class list (inheritance property, paper §3.2.2)
        self.mro_cache: dict[tuple, tuple] = {}
        self.has_rule_prims = bool(graph._class_index.get(RULE_CLASS))

    def fans_for_instance(
        self,
        instance: Any,
        class_name: str,
        method_name: str,
        modifier: EventModifier,
    ) -> tuple:
        key = (type(instance), class_name, method_name, modifier)
        fans = self.mro_cache.get(key)
        if fans is None:
            candidates = [class_name]
            mro_names = [c.__name__ for c in type(instance).__mro__]
            if class_name in mro_names:
                candidates = mro_names
            fans = tuple(
                fan
                for candidate in candidates
                for fan in self.routes.get(
                    (candidate, method_name, modifier), ()
                )
            )
            self.mro_cache[key] = fans
        return fans


class CompiledDispatchEngine:
    """Specialized ``notify``/``raise_event`` for one detector.

    Installed by ``LocalEventDetector(dispatch="compiled")`` as instance
    attributes over the interpreted methods, so interpreted-mode
    detectors pay nothing for the feature's existence.
    """

    __slots__ = (
        "_det", "_plan", "_serial", "_stats", "_local", "_clock",
        "_graph", "_runtime", "_ingest_lock", "_telemetry", "_scheduler",
        "_occ_listeners", "_trig_listeners",
    )

    def __init__(self, detector: "LocalEventDetector") -> None:
        self._det = detector
        self._plan: Optional[_Plan] = None
        self._serial = isinstance(detector.scheduler.executor, SerialExecutor)
        # Stable per-detector references, bound once so the hot path
        # performs no repeated attribute chains. All of these are
        # created in LocalEventDetector.__init__ and never reassigned
        # (the listener lists mutate in place).
        self._stats = detector.stats
        self._local = detector._local
        self._clock = detector.clock
        self._graph = detector.graph
        self._runtime = detector.runtime
        self._ingest_lock = (
            None if detector.runtime.active else detector.runtime.ingest_lock
        )
        self._telemetry = detector.telemetry
        self._scheduler = detector.scheduler
        self._occ_listeners = detector.occurrence_listeners
        self._trig_listeners = detector.trigger_listeners

    # -- plan management ---------------------------------------------------

    def plan(self) -> _Plan:
        """The current plan, recompiled if the graph changed."""
        plan = self._plan
        if plan is None or plan.version != self._det.graph.version:
            plan = self._plan = _Plan(self._det)
        return plan

    # -- the compiled notify hot path --------------------------------------

    def notify(
        self,
        instance: Any,
        class_name: str,
        method_name: str,
        modifier: "EventModifier | str",
        arguments: "dict[str, Any] | tuple" = (),
        txn_id: Optional[int] = None,
    ) -> list[PrimitiveOccurrence]:
        if self._telemetry.active:
            # Traced mode keeps the interpreted path so every span,
            # stage-latency stamp and trace id is emitted identically.
            from repro.core.detector import LocalEventDetector

            return LocalEventDetector.notify(
                self._det, instance, class_name, method_name, modifier,
                arguments, txn_id,
            )
        stats = self._stats
        stats.notifications += 1
        dlocal = self._local
        if getattr(dlocal, "suppressed", False):
            stats.suppressed += 1
            return []
        mod = _MOD_BY_KEY.get(modifier)
        if mod is None:
            mod = EventModifier.parse(modifier)
        plan = self._plan
        if plan is None or plan.version != self._graph.version:
            plan = self._plan = _Plan(self._det)
        if instance is None:
            fans = plan.routes.get((class_name, method_name, mod), ())
            identity = None
        else:
            fans = plan.fans_for_instance(
                instance, class_name, method_name, mod
            )
            identity = getattr(instance, "oid", None)
            if identity is None:
                identity = instance
        if isinstance(arguments, dict):
            arguments = tuple(arguments.items())
        arguments = tuple((k, atomic(v)) for k, v in arguments)
        current_txn = getattr(dlocal, "txn", None)
        if txn_id is None:
            txn_id = (
                current_txn.top_level_id if current_txn is not None else None
            )
        occurrences: list[PrimitiveOccurrence] = []
        frame: list[RuleActivation] = []
        frames = getattr(dlocal, "frames", None)
        if frames is None:
            frames = dlocal.frames = []
        frames.append(frame)
        lock = self._ingest_lock
        sharded = lock is None
        if not sharded:
            lock.acquire()
        try:
            # The clock ticks exactly once per notify, matched or not —
            # replay parity depends on identical timestamps.
            at = self._clock.tick()
            if fans:
                graph = self._graph
                gstats = graph.stats
                observers = graph.observers
                occ_listeners = self._occ_listeners
                trig_listeners = self._trig_listeners
                det = self._det
                for fan in fans:
                    if fan.instance is not None \
                            and fan.instance != instance:
                        continue
                    occurrence = PrimitiveOccurrence(
                        event_name=fan.event_name,
                        at=at,
                        class_name=class_name,
                        instance=identity,
                        method_name=method_name,
                        modifier=mod,
                        arguments=arguments,
                        txn_id=txn_id,
                        state_snapshot=(
                            det._snapshot(fan.node, instance)
                            if fan.snapshot else None
                        ),
                    )
                    occurrences.append(occurrence)
                    if occ_listeners:
                        for listener in occ_listeners:
                            listener(occurrence)
                    if sharded:
                        self._runtime.submit_occur(fan.node, occurrence)
                    else:
                        # Single-shard fan-out over the folded arrays.
                        counts = fan.node.detections_by_context
                        for ctx, parents, rules in fan.ctxs:
                            gstats.detections += 1
                            counts[ctx] = counts.get(ctx, 0) + 1
                            if observers:
                                graph.notify_observers(
                                    fan.node, occurrence, ctx
                                )
                            for parent, port in parents:
                                gstats.propagations += 1
                                # Composite operators keep their
                                # interpreted on_child; rules they
                                # trigger land in this frame via the
                                # graph emitter, preserving interpreted
                                # activation order.
                                parent.on_child(port, occurrence, ctx)
                            for rule, since in rules:
                                if at > since:
                                    rule.triggered_count += 1
                                    stats.triggers += 1
                                    if trig_listeners:
                                        for listener in trig_listeners:
                                            listener(rule, occurrence)
                                    frame.append(RuleActivation(
                                        rule, occurrence,
                                        parent_txn=det.current_transaction(),
                                    ))
                    if fan.is_global:
                        det._forward_global(occurrence)
            if sharded:
                self._runtime.run()
        finally:
            if not sharded:
                lock.release()
            frames.pop()
        if frame:
            self._run_frame(self._det, plan, frame)
        return occurrences

    def _fanout(
        self,
        det: "LocalEventDetector",
        fan: _Fan,
        occurrence: PrimitiveOccurrence,
        at: float,
        frame: list,
    ) -> None:
        """Single-shard fan-out with the folded subscriber arrays
        (shared by ``raise_event``; ``notify`` inlines the same loop)."""
        graph = self._graph
        gstats = graph.stats
        observers = graph.observers
        trigger_listeners = self._trig_listeners
        node = fan.node
        counts = node.detections_by_context
        dstats = self._stats
        for ctx, parents, rules in fan.ctxs:
            gstats.detections += 1
            counts[ctx] = counts.get(ctx, 0) + 1
            if observers:
                graph.notify_observers(node, occurrence, ctx)
            for parent, port in parents:
                gstats.propagations += 1
                parent.on_child(port, occurrence, ctx)
            for rule, since in rules:
                if at > since:
                    rule.triggered_count += 1
                    dstats.triggers += 1
                    if trigger_listeners:
                        for listener in trigger_listeners:
                            listener(rule, occurrence)
                    frame.append(RuleActivation(
                        rule, occurrence,
                        parent_txn=det.current_transaction(),
                    ))

    # -- compiled explicit events ------------------------------------------

    def raise_event(self, name: str, txn_id: Optional[int] = None,
                    **params: Any) -> PrimitiveOccurrence:
        det = self._det
        fan = None
        if not det.telemetry.active:
            plan = self._plan
            if plan is None or plan.version != det.graph.version:
                plan = self._plan = _Plan(det)
            fan = plan.explicit.get(name)
        if fan is None:
            # Unknown names, non-explicit nodes and traced mode all take
            # the interpreted path (identical errors and spans).
            from repro.core.detector import LocalEventDetector

            return LocalEventDetector.raise_event(
                det, name, txn_id=txn_id, **params
            )
        dlocal = det._local
        if txn_id is None:
            current = getattr(dlocal, "txn", None)
            txn_id = current.top_level_id if current is not None else None
        frame: list[RuleActivation] = []
        frames = getattr(dlocal, "frames", None)
        if frames is None:
            frames = dlocal.frames = []
        frames.append(frame)
        runtime = det.runtime
        sharded = runtime.active
        lock = None if sharded else runtime.ingest_lock
        if lock is not None:
            lock.acquire()
        try:
            at = det.clock.tick()
            occurrence = PrimitiveOccurrence(
                event_name=name,
                at=at,
                class_name="$EXPLICIT",
                arguments=tuple(
                    (k, atomic(v)) for k, v in params.items()
                ),
                txn_id=txn_id,
            )
            listeners = det.occurrence_listeners
            if listeners:
                for listener in listeners:
                    listener(occurrence)
            if sharded:
                runtime.submit_occur(fan.node, occurrence)
                runtime.run()
            else:
                self._fanout(det, fan, occurrence, at, frame)
            if fan.is_global:
                det._forward_global(occurrence)
        finally:
            if lock is not None:
                lock.release()
            frames.pop()
        if frame:
            self._run_frame(det, plan, frame)
        return occurrence

    # -- compiled rule execution -------------------------------------------

    def _run_frame(self, det: "LocalEventDetector", plan: _Plan,
                   frame: list) -> None:
        """Run a frame's activations, fast when nothing exotic applies."""
        if det.collect_mode:
            det.collected.extend(frame)
            return
        scheduler = det.scheduler
        if (
            plan.has_rule_prims          # $RULE meta-events must signal
            or scheduler.listeners       # debugger hooks
            or not self._serial          # threaded executor semantics
            or det.telemetry.active      # spans (cascade turned it on)
        ):
            det._run_frame(frame)
            return
        txn_manager = scheduler.txn_manager
        for activation in frame:
            if (
                activation.rule.coupling is CouplingMode.DETACHED
                or activation.rule.executor == "async"
                or (
                    txn_manager is not None
                    and activation.parent_txn is not None
                )
            ):
                # Detached queueing, the asyncio lane (_run_rule_fast
                # would leave the coroutine action un-awaited) and rule
                # subtransactions keep their interpreted machinery.
                det._run_frame(frame)
                return
        stats = scheduler.stats
        stats.batches += 1
        if len(frame) > 1:
            rank = det.priorities.rank
            frame.sort(key=lambda a: -rank(a.rule.priority))
        for activation in frame:
            self._run_rule_fast(det, scheduler, activation)

    def _run_rule_fast(self, det: "LocalEventDetector", scheduler,
                       activation: RuleActivation) -> None:
        """Inline cond/act execution mirroring
        ``RuleScheduler._cond_action`` for the no-txn / no-listener /
        no-span case."""
        rule = activation.rule
        slocal = scheduler._local
        depth = getattr(slocal, "depth", 0) + 1
        if depth > scheduler.MAX_DEPTH:
            scheduler.run_one(activation)  # canonical nesting error
            return
        stats = scheduler.stats
        if stats.max_depth_seen < depth:
            stats.max_depth_seen = depth
        dlocal = det._local
        previous_txn = getattr(dlocal, "txn", None)
        previous_rule = getattr(slocal, "rule", None)
        occurrence = activation.occurrence
        dlocal.txn = activation.parent_txn
        slocal.depth = depth
        slocal.rule = rule
        try:
            previous_suppressed = getattr(dlocal, "suppressed", False)
            dlocal.suppressed = True
            try:
                satisfied = bool(rule.condition(occurrence))
            except Exception as exc:
                raise RuleExecutionError(
                    rule.name, "condition", exc
                ) from exc
            finally:
                dlocal.suppressed = previous_suppressed
            if satisfied:
                try:
                    rule.action(occurrence)
                except RuleExecutionError:
                    raise  # a nested rule failed; keep the original report
                except Exception as exc:
                    raise RuleExecutionError(
                        rule.name, "action", exc
                    ) from exc
                rule.executed_count += 1
                stats.executions += 1
            else:
                stats.condition_rejections += 1
        except Exception as exc:
            error = exc if isinstance(exc, RuleExecutionError) else (
                RuleExecutionError(rule.name, "execution", exc)
            )
            scheduler._record_failure(error)
            if scheduler.error_policy == "raise":
                raise error from exc
        finally:
            slocal.depth = depth - 1
            slocal.rule = previous_rule
            dlocal.txn = previous_txn
