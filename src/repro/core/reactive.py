"""The REACTIVE base class and method-event wrappers.

"Any class whose events are used in rules ... need to be reactive,
i.e., a subclass of the REACTIVE class." In the original system the
Sentinel pre-processor renamed each event-generating method to
``user_<name>`` and generated a wrapper of the original name that
collects the parameters into a PARA_LIST and calls ``Notify`` before
and/or after invoking the user method (paper §3.2.1). Here the same
transformation happens at class-creation time: methods decorated with
:func:`event` are replaced by wrappers doing exactly those calls, and
the original is kept as ``user_<name>``. The PARA_LIST collection is
generated code as well (one function per method, see
:func:`_make_binder`), and it runs only for a Notify the detector finds
armed.

Which detector receives the notifications? One local event detector
exists per application; reactive objects signal the *current* detector,
set with :func:`set_current_detector` (the Sentinel facade does this).
It is a context variable, so a rule action on a pool worker or the
asyncio lane notifies the detector its trigger came from. Without a
current detector, wrapped methods behave passively.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.detector import LocalEventDetector
from repro.core.params import EventModifier

_current: ContextVar[Optional[LocalEventDetector]] = ContextVar(
    "current_detector", default=None
)
_reactive_ids = itertools.count(1)


def set_current_detector(detector: Optional[LocalEventDetector]) -> None:
    """Route subsequent reactive-method notifications to ``detector``."""
    _current.set(detector)


def get_current_detector() -> Optional[LocalEventDetector]:
    return _current.get()


@dataclass(frozen=True)
class EventDeclaration:
    """One ``event begin(x) && end(y) method`` interface entry."""

    method_name: str
    begin_name: Optional[str]
    end_name: Optional[str]

    def names(self) -> list[tuple[str, EventModifier]]:
        result = []
        if self.begin_name:
            result.append((self.begin_name, EventModifier.BEGIN))
        if self.end_name:
            result.append((self.end_name, EventModifier.END))
        return result


def event(begin: Optional[str] = None, end: Optional[str] = None):
    """Declare a method as a primitive event generator.

    ``@event(end="e1")`` corresponds to ``event end(e1) method``;
    ``@event(begin="e2", end="e3")`` to ``event begin(e2) && end(e3)``.
    ``@event()`` declares the method an (anonymous) event generator with
    end-of-method semantics, the paper's default ("by default end of a
    method is taken to be the event").
    """

    def decorate(fn: Callable) -> Callable:
        declared_end = end
        if begin is None and end is None:
            declared_end = f"{fn.__name__}$end"
        fn.__sentinel_event__ = EventDeclaration(
            method_name=fn.__name__, begin_name=begin, end_name=declared_end
        )
        return fn

    return decorate


class _Source:
    """A default rendered by name in generated source."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text


def _make_binder(fn: Callable) -> Callable[..., dict]:
    """Generate the PARA_LIST collector of ``fn``.

    The collector has ``fn``'s own parameter list and returns what
    ``inspect.signature(fn).bind(...)`` plus ``apply_defaults()`` would
    hold, minus ``self``, so binding is one ordinary call. Defaults are
    ``fn``'s own objects, referenced by the generated code rather than
    re-created from their text. A call that does not bind raises
    ``TypeError`` like the bound method would.
    """
    namespace: dict[str, Any] = {}
    parameters = []
    signature = inspect.signature(fn)
    for index, parameter in enumerate(signature.parameters.values()):
        if parameter.default is not parameter.empty:
            name = f"_default{index}"
            namespace[name] = parameter.default
            parameter = parameter.replace(default=_Source(name))
        parameters.append(parameter.replace(annotation=parameter.empty))
    fields = ", ".join(
        f"{p.name!r}: {p.name}" for p in parameters if p.name != "self"
    )
    source = (
        f"def collect{inspect.Signature(parameters)}:\n"
        f"    return {{{fields}}}\n"
    )
    exec(compile(source, f"<PARA_LIST of {fn.__qualname__}>", "exec"),
         namespace)
    return namespace["collect"]


def _make_wrapper(fn: Callable, declaration: EventDeclaration) -> Callable:
    """Generate the wrapper method (the post-processor's output).

    Each Notify is first put to the detector's armed test
    (:meth:`~repro.core.detector.LocalEventDetector.sentry`): a method
    event nobody subscribes to costs a route lookup, and its arguments
    are never collected. The notification names the instance's
    *dynamic* class so the detector can honor the inheritance property.
    """
    method = _method_signature(fn)
    collect = _make_binder(fn)
    begin = bool(declaration.begin_name)
    end = bool(declaration.end_name)
    BEGIN, END = EventModifier.BEGIN, EventModifier.END

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        detector = get_current_detector()
        if detector is None:
            return fn(self, *args, **kwargs)
        # The notification carries the instance's *dynamic* class; the
        # detector matches up the MRO, giving the paper's inheritance
        # property (a class-level rule fires for subclass instances).
        dynamic = type(self)
        class_name = dynamic.__name__
        # Parameters are collected (PARA_LIST) once, and only when an
        # armed event will carry them.
        arguments = None
        if begin and detector.sentry(dynamic, class_name, method, BEGIN):
            try:
                arguments = collect(self, *args, **kwargs)
            except TypeError:
                arguments = {}
            detector.notify(self, class_name, method, BEGIN, arguments)
        # The original (renamed) user method is invoked.
        result = fn(self, *args, **kwargs)
        if end and detector.sentry(dynamic, class_name, method, END):
            if arguments is None:
                try:
                    arguments = collect(self, *args, **kwargs)
                except TypeError:
                    arguments = {}
            detector.notify(self, class_name, method, END, arguments)
        return result

    wrapper.__sentinel_wrapped__ = True
    return wrapper


def _method_signature(fn: Callable) -> str:
    """The method identifier used for event matching.

    The paper matches full C++ signatures ("void set_price(float
    price)"); in Python the method name is unambiguous within a class.
    """
    return fn.__name__


class ReactiveMeta(type):
    """Wraps event-declared methods and records the event interface."""

    def __new__(mcls, name, bases, namespace, **kwargs):
        declarations: dict[str, EventDeclaration] = {}
        for base in bases:
            declarations.update(getattr(base, "__sentinel_events__", {}))
        for attr, value in list(namespace.items()):
            declaration = getattr(value, "__sentinel_event__", None)
            if declaration is None:
                continue
            declarations[attr] = declaration
            # Keep the original under user_<name>, as the pre-processor did.
            namespace[f"user_{attr}"] = value
            namespace[attr] = _make_wrapper(value, declaration)
        cls = super().__new__(mcls, name, bases, namespace, **kwargs)
        cls.__sentinel_events__ = declarations
        return cls


class Reactive(metaclass=ReactiveMeta):
    """Base class for event-generating objects (the REACTIVE class).

    Subclasses declare primitive events on methods with :func:`event`;
    invoking those methods notifies the current local event detector.
    Each instance gets a stable ``reactive_id`` used as its identity in
    event parameters when it has no persistent OID.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)

    @property
    def reactive_id(self) -> int:
        rid = getattr(self, "_reactive_id", None)
        if rid is None:
            rid = next(_reactive_ids)
            object.__setattr__(self, "_reactive_id", rid)
        return rid

    @classmethod
    def event_interface(cls) -> dict[str, EventDeclaration]:
        """The declared event interface (method -> declaration)."""
        return dict(cls.__sentinel_events__)

    @classmethod
    def declared_event_names(cls) -> dict[str, tuple[str, EventModifier]]:
        """Map declared event name -> (method, modifier).

        Lets an application register the class-level primitive events
        with a detector using the names from the class definition
        (``STOCK.e1`` style).
        """
        result: dict[str, tuple[str, EventModifier]] = {}
        for method, declaration in cls.__sentinel_events__.items():
            for event_name, modifier in declaration.names():
                result[event_name] = (method, modifier)
        return result

    @classmethod
    def register_events(
        cls,
        detector: LocalEventDetector,
        prefix: Optional[str] = None,
        instance: Any = None,
    ) -> dict[str, Any]:
        """Create primitive event nodes for every declared event.

        Node names are ``<prefix>_<event>`` with the class name as the
        default prefix, matching the paper's generated ``STOCK_e1``
        naming. Pass ``instance`` for instance-level events.
        """
        prefix = prefix if prefix is not None else cls.__name__
        target = instance if instance is not None else cls.__name__
        nodes = {}
        for event_name, (method, modifier) in cls.declared_event_names().items():
            node_name = f"{prefix}_{event_name}" if prefix else event_name
            nodes[event_name] = detector.primitive_event(
                node_name, target, modifier, method
            )
        return nodes
