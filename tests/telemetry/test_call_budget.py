"""Call budget: what the default metrics cost in Python calls.

Counts the Python function calls made into ``repro/telemetry/`` while
a default ``Sentinel()`` runs ``test_quiet_default``'s 400-event
stream. The engine counts and times its hot stages itself, so what is
left is the trace-id mint per ingest and transaction, the trace and
span reads per trigger and the histogram observes. A change that makes the default
path call into telemetry more must raise the budget deliberately.
"""

import os
import sys

from repro import Sentinel
from tests.telemetry.test_quiet_default import EVENTS, run

#: calls into repro/telemetry/ over the stream, setup included (28.3
#: per event; the span-per-stage design made 20,756, 51.9 per event)
BUDGET = 11_317


def test_default_telemetry_calls_stay_within_budget():
    system = Sentinel(name="budget")
    package = os.path.join("repro", "telemetry", "")
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and package in frame.f_code.co_filename:
            calls += 1

    sys.setprofile(profile)
    try:
        run(system)
    finally:
        sys.setprofile(None)
        system.close()
    assert calls <= BUDGET, (
        f"{calls} calls into repro/telemetry ({calls / EVENTS:.1f} per "
        f"event) over the budget of {BUDGET} ({BUDGET / EVENTS:.1f})"
    )
