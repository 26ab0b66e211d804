"""The REACTIVE base class and method-event wrappers.

"Any class whose events are used in rules ... need to be reactive,
i.e., a subclass of the REACTIVE class." In the original system the
Sentinel pre-processor renamed each event-generating method to
``user_<name>`` and generated a wrapper of the original name that
collects the parameters into a PARA_LIST and calls ``Notify`` before
and/or after invoking the user method (paper §3.2.1). Here the same
transformation happens at class-creation time: methods decorated with
:func:`event` are replaced by wrappers doing exactly those calls, and
the original is kept as ``user_<name>``.

Which detector receives the notifications? One local event detector
exists per application; reactive objects signal the *current* detector,
set with :func:`set_current_detector` (the Sentinel facade does this).
Without a current detector, wrapped methods behave passively.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.detector import LocalEventDetector
from repro.core.params import EventModifier

_current = threading.local()
_reactive_ids = itertools.count(1)


def set_current_detector(detector: Optional[LocalEventDetector]) -> None:
    """Route subsequent reactive-method notifications to ``detector``."""
    _current.detector = detector


def get_current_detector() -> Optional[LocalEventDetector]:
    return getattr(_current, "detector", None)


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


def _collect_arguments(bind: Callable, args: tuple, kwargs: dict) -> dict:
    """Bind actual arguments to parameter names (the PARA_LIST content).

    ``bind`` is the method's ``Signature.bind``, resolved once when the
    wrapper is generated: computing a signature costs more than the
    rest of a wrapped call.
    """
    try:
        bound = bind(*args, **kwargs)
        bound.apply_defaults()
        return {k: v for k, v in bound.arguments.items() if k != "self"}
    except TypeError:
        # Let the user method raise its own, better error.
        return {}


def _make_wrapper(fn: Callable, declaration: EventDeclaration) -> Callable:
    """Generate the wrapper method (the post-processor's output).

    The notification names the instance's *dynamic* class so the
    detector can honor the inheritance property by walking the MRO.
    """
    signature = _method_signature(fn)
    bind = inspect.signature(fn).bind

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        detector = get_current_detector()
        if detector is None:
            return fn(self, *args, **kwargs)
        # Parameters are collected in a linked list (PARA_LIST). The
        # notification carries the instance's *dynamic* class; the
        # detector matches up the MRO, giving the paper's inheritance
        # property (a class-level rule fires for subclass instances).
        arguments = _collect_arguments(bind, (self,) + args, kwargs)
        dynamic_class = type(self).__name__
        if declaration.begin_name:
            detector.notify(self, dynamic_class, signature,
                            EventModifier.BEGIN, arguments)
        # The original (renamed) user method is invoked.
        result = fn(self, *args, **kwargs)
        if declaration.end_name:
            detector.notify(self, dynamic_class, signature,
                            EventModifier.END, arguments)
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
