"""Sentinel: an active OODBMS.

Reproduction of S. Chakravarthy, V. Krishnaprasad, Z. Tamizuddin, and
R. H. Badani, "ECA Rule Integration into an OODBMS: Architecture and
Implementation", ICDE 1995 (the Sentinel system, University of Florida).

Quickstart::

    from repro import Sentinel, Reactive, event

    class Stock(Reactive):
        def __init__(self, symbol, price):
            self.symbol, self.price = symbol, price

        @event(begin="e2", end="e3")
        def set_price(self, price):
            self.price = price

    system = Sentinel()
    events = system.register_class(Stock)
    system.rule("R1", events["e2"],
                condition=lambda occ: occ.params.value("price") > 100,
                action=lambda occ: print("price spike", occ))
    with system.transaction():
        Stock("IBM", 50.0).set_price(120.0)   # fires R1
"""

from repro.clock import Clock, LogicalClock, SimulatedClock, WallClock
from repro.core.contexts import ParameterContext
from repro.core.detector import LocalEventDetector
from repro.core.priorities import PriorityScheme
from repro.core.params import (
    CompositeOccurrence,
    EventModifier,
    Occurrence,
    ParamList,
    PrimitiveOccurrence,
)
from repro.core.reactive import (
    Reactive,
    event,
    get_current_detector,
    set_current_detector,
)
from repro.core import conditions
from repro.core.rules import CouplingMode, Rule, RuleScope, TriggerMode, always
from repro.core.scheduler import SerialExecutor, ThreadedExecutor
from repro.errors import SentinelError
from repro.oodb.database import OpenOODB
from repro.oodb.object_model import OID, Persistent
from repro.sentinel import (
    FLUSH_ON_ABORT_RULE,
    FLUSH_ON_COMMIT_RULE,
    Sentinel,
    SentinelTransaction,
    SystemReport,
)
from repro.storage.manager import StorageManager
from repro.monitor import (
    FlightRecorder,
    JsonlSpanExporter,
    MonitorServer,
    RuleProfiler,
    load_events,
)
from repro.telemetry import (
    CounterProcessor,
    MetricsRegistry,
    TelemetryHub,
    TelemetryProcessor,
    TraceLogProcessor,
)

__version__ = "1.0.0"

__all__ = [
    "Sentinel",
    "SentinelTransaction",
    "Reactive",
    "event",
    "Persistent",
    "OID",
    "ParameterContext",
    "CouplingMode",
    "TriggerMode",
    "EventModifier",
    "Occurrence",
    "PrimitiveOccurrence",
    "CompositeOccurrence",
    "ParamList",
    "Rule",
    "RuleScope",
    "always",
    "conditions",
    "LocalEventDetector",
    "PriorityScheme",
    "OpenOODB",
    "StorageManager",
    "SerialExecutor",
    "ThreadedExecutor",
    "Clock",
    "LogicalClock",
    "SimulatedClock",
    "WallClock",
    "SentinelError",
    "set_current_detector",
    "get_current_detector",
    "FLUSH_ON_COMMIT_RULE",
    "FLUSH_ON_ABORT_RULE",
    "SystemReport",
    "TelemetryHub",
    "TelemetryProcessor",
    "CounterProcessor",
    "TraceLogProcessor",
    "MetricsRegistry",
    "MonitorServer",
    "RuleProfiler",
    "FlightRecorder",
    "JsonlSpanExporter",
    "load_events",
    "__version__",
]
