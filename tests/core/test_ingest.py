"""Batch ingestion reaching the async rule lane.

A batch of explicit events goes in through ``Sentinel.raise_events``;
the rules it triggers run after its last event. A triggered async-lane
rule must run its coroutine to completion before the call returns —
also when the producer is itself a coroutine on a running event loop,
where a lane that tried to borrow the caller's loop would deadlock.
"""

import asyncio
import threading

from repro.sentinel import Sentinel


def make_system(**kwargs) -> Sentinel:
    s = Sentinel(name="ingest", **kwargs)
    s.explicit_event("tick")
    return s


def test_ingest_can_trigger_async_rules():
    s = make_system()
    runs: list[int] = []
    ran = threading.Event()

    async def act(occ):
        await asyncio.sleep(0.001)
        runs.append(occ["n"])
        ran.set()

    s.rule("a", "tick", action=act)

    s.raise_events([("tick", {"n": 0})])
    assert ran.is_set()

    async def produce():
        s.raise_events([("tick", {"n": 1}), ("tick", {"n": 2})])

    # a daemon producer thread bounds the wait: a deadlocked lane fails
    # the test instead of hanging the suite
    ran.clear()
    producer = threading.Thread(target=asyncio.run, args=(produce(),),
                                daemon=True)
    producer.start()
    producer.join(timeout=30.0)
    assert not producer.is_alive(), "async lane deadlocked on the producer's loop"
    assert ran.is_set()
    assert runs == [0, 1, 2]
    s.close()
