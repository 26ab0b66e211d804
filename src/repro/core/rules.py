"""ECA rules and the rule manager.

A Sentinel rule is ``rule name(event, condition, action [, context,
coupling, priority, trigger mode])`` (paper §3.1). Conditions are
side-effect-free boolean functions; actions are arbitrary functions.
Both receive the triggering occurrence (its parameter list) — or may
take no arguments at all.

Rules can be specified at class-definition time or inside an
application, enabled/disabled at run time, and defined over previously
named events; the trigger mode decides whether pre-existing constituent
occurrences may participate (``PREVIOUS``) or only those from the
definition instant onward (``NOW``, the default).
"""

from __future__ import annotations

import enum
import inspect
import threading
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.contexts import DEFAULT_CONTEXT, ParameterContext
from repro.core.events.base import EventNode
from repro.core.params import Occurrence
from repro.errors import DuplicateRule, RuleError, UnknownRule

if TYPE_CHECKING:
    from repro.core.detector import LocalEventDetector

Condition = Callable[..., bool]
Action = Callable[..., None]


class CouplingMode(enum.Enum):
    """When the condition-action pair runs relative to the event.

    * IMMEDIATE — right after the event, suspending the application.
    * DEFERRED — at the end of the triggering transaction (rewritten to
      an immediate rule on ``A*(begin_txn, E, pre_commit_txn)``).
    * DETACHED — in a separate top-level transaction.
    """

    IMMEDIATE = "immediate"
    DEFERRED = "deferred"
    DETACHED = "detached"

    @classmethod
    def parse(cls, text: str) -> "CouplingMode":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            valid = ", ".join(c.name for c in cls)
            raise ValueError(
                f"unknown coupling mode {text!r}; expected one of {valid}"
            ) from None


class TriggerMode(enum.Enum):
    """Which event occurrences may trigger the rule (paper §3.1).

    * NOW — only constituent occurrences from rule-definition time on.
    * PREVIOUS — occurrences that temporally precede the rule
      definition are acceptable too.
    """

    NOW = "now"
    PREVIOUS = "previous"

    @classmethod
    def parse(cls, text: str) -> "TriggerMode":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown trigger mode {text!r}; expected NOW or PREVIOUS"
            ) from None


class RuleScope(enum.Enum):
    """Rule visibility and modification rights.

    The paper lists "expanding the rule management support to public,
    private, and protected rules" as future work; this implements the
    natural semantics:

    * PUBLIC — visible to everyone; anyone may enable/disable/delete.
    * PROTECTED — visible to everyone; only the owner may modify.
    * PRIVATE — visible and modifiable only by the owner.
    """

    PUBLIC = "public"
    PROTECTED = "protected"
    PRIVATE = "private"

    @classmethod
    def parse(cls, text: str) -> "RuleScope":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            valid = ", ".join(c.name for c in cls)
            raise ValueError(
                f"unknown rule scope {text!r}; expected one of {valid}"
            ) from None


DEFAULT_PRIORITY = 1

#: execution lanes a rule may select (``None`` at creation means
#: auto-detect from the action: ``async def`` actions go async)
EXECUTOR_LANES = ("sync", "async")


def resolve_executor(executor: Optional[str], condition: Callable,
                     action: Callable, name: str) -> str:
    """Validate/auto-detect the execution lane for a rule.

    Runs on the *raw* callables, before :func:`_adapt` wraps them (the
    zero-arg lambda wrapper would hide ``iscoroutinefunction``).
    """
    if inspect.iscoroutinefunction(condition):
        raise RuleError(
            f"rule {name!r} condition must be synchronous (conditions "
            f"are side-effect-free and evaluated inline); only the "
            f"action may be a coroutine"
        )
    action_is_coro = inspect.iscoroutinefunction(action)
    if executor is None:
        return "async" if action_is_coro else "sync"
    if executor not in EXECUTOR_LANES:
        raise RuleError(
            f"executor must be one of {EXECUTOR_LANES}, got {executor!r}"
        )
    if executor == "sync" and action_is_coro:
        raise RuleError(
            f"rule {name!r} has a coroutine action; pass "
            f"executor='async' (or leave executor unset to auto-detect)"
        )
    return executor


def _adapt(fn: Callable, what: str) -> Callable[[Occurrence], Any]:
    """Wrap a user callable so it can be invoked with the occurrence.

    Zero-argument callables are called bare; anything else receives the
    triggering occurrence. (The paper's condition/action functions are
    global C++ functions that reach parameters through the passed list.)
    """
    if not callable(fn):
        raise RuleError(f"{what} must be callable, got {type(fn).__name__}")
    try:
        takes_arg = bool(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        takes_arg = True
    if takes_arg:
        return fn
    return lambda occurrence: fn()


def always(occurrence: Occurrence) -> bool:
    """The trivially-true condition (event-action rules)."""
    return True


def reject_positional_rule_args(legacy_positional: tuple) -> None:
    """Hard stop for the pre-keyword ``rule()`` calling convention.

    ``rule(name, event, condition, action)`` accepted the condition and
    action positionally through one deprecation release; the shim is
    gone and the keyword-first signature is the only one. The error
    names the migration tool so old call sites can be rewritten
    mechanically.
    """
    if legacy_positional:
        from repro.errors import RemovedAPIError

        raise RemovedAPIError(
            f"rule() no longer accepts {len(legacy_positional)} positional "
            "condition/action argument(s); the deprecated positional "
            "signature was removed. Call "
            "rule(name, event, condition=..., action=...) instead — "
            "`python tools/migrate_rule_calls.py FILES...` rewrites old "
            "call sites automatically"
        )


class Rule:
    """One ECA rule, subscribed to the root node of its event graph."""

    def __init__(
        self,
        name: str,
        event: EventNode,
        condition: Condition,
        action: Action,
        context: ParameterContext = DEFAULT_CONTEXT,
        coupling: CouplingMode = CouplingMode.IMMEDIATE,
        priority: int = DEFAULT_PRIORITY,
        trigger_mode: TriggerMode = TriggerMode.NOW,
        scope: RuleScope = RuleScope.PUBLIC,
        owner: Optional[str] = None,
        executor: str = "sync",
    ):
        self.name = name
        self.event = event
        self.condition = _adapt(condition, "condition")
        self.action = _adapt(action, "action")
        self.context = context
        self.coupling = coupling
        self.priority = priority
        self.trigger_mode = trigger_mode
        self.scope = scope
        self.owner = owner
        #: execution lane — "sync" rules ride the configured executor,
        #: "async" rules run as tasks on the scheduler's asyncio lane
        self.executor = executor
        self.enabled = False
        self.since: float = 0.0  # set at subscription for NOW filtering
        # Statistics, maintained by the scheduler.
        self.triggered_count = 0
        self.executed_count = 0

    # -- subscription ----------------------------------------------------------

    def subscribe(self, now: float) -> None:
        """Attach to the event node and activate this rule's context."""
        if self.enabled:
            return
        self.since = now
        self.event.rule_subscribers.append(self)
        self.event.add_context(self.context)
        self.enabled = True

    def unsubscribe(self) -> None:
        """Detach from the event node, decrementing context counters."""
        if not self.enabled:
            return
        if self in self.event.rule_subscribers:
            self.event.rule_subscribers.remove(self)
        self.event.remove_context(self.context)
        self.enabled = False

    # -- triggering ---------------------------------------------------------------

    def wants(self, ctx: ParameterContext, occurrence: Occurrence) -> bool:
        """Does a detection in ``ctx`` trigger this rule?"""
        if not self.enabled or ctx is not self.context:
            return False
        if self.trigger_mode is TriggerMode.NOW and occurrence.start <= self.since:
            # NOW: all constituents must strictly postdate the rule
            # definition (the clock ticks before each new occurrence, so
            # genuinely fresh events always pass).
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"Rule({self.name!r}, {self.event.display_name}, "
            f"{self.context.name}, {self.coupling.name}, p{self.priority})"
        )


class RuleManager:
    """Registers, enables, disables, and deletes rules.

    Deferred-mode rules are rewritten at registration (paper §2.3):
    ``rule R(E, DEFERRED)`` becomes an immediate-coupled rule on
    ``A*(begin_transaction, E, pre_commit_transaction)``.
    """

    def __init__(self, detector: "LocalEventDetector"):
        self._detector = detector
        self._rules: dict[str, Rule] = {}
        self._lock = threading.RLock()

    def create(
        self,
        name: str,
        event: EventNode | str,
        condition: Condition,
        action: Action,
        context: ParameterContext | str = DEFAULT_CONTEXT,
        coupling: CouplingMode | str = CouplingMode.IMMEDIATE,
        priority: int | str = DEFAULT_PRIORITY,
        trigger_mode: TriggerMode | str = TriggerMode.NOW,
        enabled: bool = True,
        scope: RuleScope | str = RuleScope.PUBLIC,
        owner: Optional[str] = None,
        executor: Optional[str] = None,
    ) -> Rule:
        """Create and (by default) enable a rule; deferred-coupled rules
        are rewritten onto ``A*(begin_txn, E, pre_commit_txn)`` here.

        ``executor`` selects the execution lane ("sync" or "async");
        ``None`` auto-detects — ``async def`` actions go to the asyncio
        lane, everything else to the configured sync executor.
        """
        # Before _adapt: the wrapper would hide iscoroutinefunction.
        executor = resolve_executor(executor, condition, action, name)
        if isinstance(event, str):
            event = self._detector.graph.get(event)
        # Named priority classes must exist when the rule is defined
        # (their rank may still change later).
        self._detector.priorities.rank(priority)
        if isinstance(context, str):
            context = ParameterContext.parse(context)
        if isinstance(coupling, str):
            coupling = CouplingMode.parse(coupling)
        if isinstance(trigger_mode, str):
            trigger_mode = TriggerMode.parse(trigger_mode)
        if isinstance(scope, str):
            scope = RuleScope.parse(scope)
        if scope is not RuleScope.PUBLIC and owner is None:
            raise RuleError(
                f"{scope.name.lower()} rule {name!r} needs an owner"
            )
        with self._lock:
            if name in self._rules:
                raise DuplicateRule(f"rule {name!r} is already defined")
            if coupling is CouplingMode.DEFERRED:
                from repro.core.deferred import rewrite_deferred

                event = rewrite_deferred(self._detector, name, event)
            rule = Rule(
                name,
                event,
                condition,
                action,
                context=context,
                coupling=coupling,
                priority=priority,
                trigger_mode=trigger_mode,
                scope=scope,
                owner=owner,
                executor=executor,
            )
            self._rules[name] = rule
        if enabled:
            self.enable(name, requester=owner)
        return rule

    def get(self, name: str, requester: Optional[str] = None) -> Rule:
        """Look up a rule; PRIVATE rules are invisible to non-owners."""
        with self._lock:
            rule = self._rules.get(name)
        if rule is None:
            raise UnknownRule(f"rule {name!r} is not defined")
        if rule.scope is RuleScope.PRIVATE and requester != rule.owner:
            raise UnknownRule(f"rule {name!r} is not defined")
        return rule

    def _check_modify(self, rule: Rule, requester: Optional[str]) -> None:
        if rule.scope is RuleScope.PUBLIC:
            return
        if requester != rule.owner:
            raise RuleError(
                f"rule {rule.name!r} is {rule.scope.value}; only its "
                f"owner {rule.owner!r} may modify it"
            )

    def enable(self, name: str, requester: Optional[str] = None) -> None:
        """(Re-)activate a rule; scope rules apply (see RuleScope)."""
        rule = self.get(name, requester)
        self._check_modify(rule, requester)
        rule.subscribe(self._detector.clock.now())

    def disable(self, name: str, requester: Optional[str] = None) -> None:
        """Disable: context counters decrement; at zero, detection stops."""
        rule = self.get(name, requester)
        self._check_modify(rule, requester)
        rule.unsubscribe()

    def delete(self, name: str, requester: Optional[str] = None) -> None:
        """Unsubscribe and forget a rule entirely."""
        rule = self.get(name, requester)
        self._check_modify(rule, requester)
        rule.unsubscribe()
        with self._lock:
            del self._rules[name]

    def names(self, requester: Optional[str] = None) -> list[str]:
        """Visible rule names (PRIVATE ones only for their owner)."""
        with self._lock:
            return sorted(
                name
                for name, rule in self._rules.items()
                if rule.scope is not RuleScope.PRIVATE
                or rule.owner == requester
            )

    def all(self) -> list[Rule]:
        with self._lock:
            return list(self._rules.values())

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._rules

    def __len__(self) -> int:
        with self._lock:
            return len(self._rules)
