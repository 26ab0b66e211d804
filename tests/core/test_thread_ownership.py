"""A system owns no thread until it needs one, and none after close().

Detached-rule workers start on the first detached submit, the rule pool
on its first concurrent class and the asyncio lane on its first async
rule; ``close()`` joins every one of them.
"""

import asyncio
import threading

from repro.core.scheduler import ThreadedExecutor
from repro.sentinel import Sentinel


def test_threads_start_on_first_use_and_stop_on_close():
    before = set(threading.enumerate())
    idle = Sentinel(name="idle")
    try:
        assert set(threading.enumerate()) == before
    finally:
        idle.close()

    system = Sentinel(name="busy", executor=ThreadedExecutor(2))
    system.explicit_event("e")

    async def on_lane(occ):
        await asyncio.sleep(0)

    system.rule("pool1", "e", action=lambda occ: None, priority=1)
    system.rule("pool2", "e", action=lambda occ: None, priority=1)
    system.rule("lane", "e", action=on_lane, priority=2)
    system.rule("later", "e", action=lambda occ: None, coupling="detached")
    system.raise_event("e")
    system.wait_detached(timeout=10)
    started = {t.name for t in set(threading.enumerate()) - before}
    assert any(name.startswith("sentinel-rule") for name in started)
    assert any(name.startswith("sentinel-async") for name in started)
    assert any(name.startswith("detached-worker") for name in started)
    system.close()
    assert set(threading.enumerate()) - before == set()
