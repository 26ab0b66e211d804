"""The execution context follows each activation across lanes.

A rule's transaction, nesting depth, current rule, trace position and
the current detector are context variables: a ``ThreadedExecutor``
worker runs each activation in a copy of the submitter's context, and
an asyncio-lane task runs in one too. So depth keeps counting across
the hop (a runaway cascade stops at ``MAX_DEPTH`` instead of wedging
the pool), and a reactive method called from an action notifies the
detector the trigger came from. The state stays per detector: two
systems on one thread never see each other's, and a closed system
leaves nothing alive.
"""

import asyncio
import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import repro
from repro import Reactive, event
from repro.core.scheduler import RuleScheduler, ThreadedExecutor
from repro.sentinel import Sentinel

#: two same-priority rules on E whose actions raise E again; prints the
#: phase of the error the trigger raised and the deepest nesting seen
RUNAWAY_CASCADE = """
import json, sys
from repro.core.detector import LocalEventDetector
from repro.core.scheduler import ThreadedExecutor
from repro.errors import RuleExecutionError

lane = sys.argv[1]
executor = None if lane == "async" else ThreadedExecutor(int(lane))
det = LocalEventDetector(executor=executor)
det.explicit_event("E")
if lane == "async":
    async def again(occurrence):
        det.raise_event("E")
else:
    def again(occurrence):
        det.raise_event("E")
det.rule("r1", "E", action=again, priority=1)
det.rule("r2", "E", action=again, priority=1)
try:
    det.raise_event("E")
    phase = None
except RuleExecutionError as error:
    phase = error.phase
print(json.dumps({"phase": phase,
                  "max_depth": det.scheduler.stats.max_depth_seen}))
det.shutdown()
"""


@pytest.mark.parametrize("lane", ["2", "8", "async"],
                         ids=["pool2", "pool8", "async"])
def test_runaway_cascade_stops_at_max_depth(lane):
    """A worker never waits on the pool it occupies: the cascade nests
    on the worker until MAX_DEPTH, and the trigger gets the nesting
    error. Run in a child interpreter: a wedged pool's non-daemon
    workers would otherwise hang this process at exit."""
    src = str(Path(repro.__file__).resolve().parents[1])
    try:
        result = subprocess.run(
            [sys.executable, "-c", RUNAWAY_CASCADE, lane],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"lane {lane}: the cascade did not return in 60 s")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report == {"phase": "nesting",
                      "max_depth": RuleScheduler.MAX_DEPTH}


class Acct(Reactive):
    def __init__(self):
        self.balance = 0

    @event(end="dep")
    def deposit(self, amount):
        self.balance += amount


@pytest.mark.parametrize("lane", ["serial", "pool", "async"])
def test_reactive_method_in_an_action_notifies_the_detector(lane):
    """The current detector follows the activation onto a pool worker
    or the asyncio lane, so the deposit's ``dep`` event is not lost."""
    executor = ThreadedExecutor(max_workers=2) if lane == "pool" else None
    system = Sentinel(name=f"cascade-{lane}", executor=executor)
    try:
        nodes = system.register_class(Acct)
        system.explicit_event("E")
        acct = Acct()
        if lane == "async":
            async def pay(occurrence):
                await asyncio.sleep(0)
                acct.deposit(1)
        else:
            def pay(occurrence):
                acct.deposit(1)
        system.rule("pay1", "E", action=pay, priority=1)
        system.rule("pay2", "E", action=pay, priority=1)
        deposits = []
        system.rule("on_dep", nodes["dep"], action=deposits.append)
        system.raise_event("E")
        assert acct.balance == 2
        assert len(deposits) == 2
    finally:
        system.close()


def test_two_systems_on_one_thread_keep_their_own_context():
    a = Sentinel(name="ctx-a", activate=False)
    b = Sentinel(name="ctx-b", activate=False)
    try:
        a.explicit_event("e")
        seen = []
        a.rule("peek", "e", action=lambda o: seen.append(
            (a.detector.scheduler.current_rule().name,
             b.detector.scheduler.current_rule())))
        with a.transaction():
            assert a.detector.current_transaction() is not None
            assert b.detector.current_transaction() is None
            a.raise_event("e")
        assert seen == [("peek", None)]
    finally:
        a.close()
        b.close()


def test_a_closed_system_leaves_nothing_alive():
    """No context a pool worker, a lane task or the caller ran in keeps
    the system or its detector reachable after close."""
    system = Sentinel(name="ctx-gone",
                      executor=ThreadedExecutor(max_workers=2))
    system.explicit_event("e")
    system.explicit_event("f")
    ran = []

    async def hop(occurrence):
        await asyncio.sleep(0)
        system.raise_event("f")

    system.rule("hop1", "e", action=hop, priority=1)
    system.rule("hop2", "e", action=lambda o: system.raise_event("f"),
                priority=1)
    system.rule("land", "f", action=ran.append)
    with system.transaction():
        system.raise_event("e")
    assert len(ran) == 2
    system.close()
    system_ref = weakref.ref(system)
    detector_ref = weakref.ref(system.detector)
    del system, hop
    gc.collect()
    assert system_ref() is None
    assert detector_ref() is None
