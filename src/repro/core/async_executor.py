"""The asyncio execution lane for coroutine rule actions.

The paper's Fig-3 scheme runs every rule action on a fixed thread pool,
which caps IO-bound action throughput (webhooks, downstream writes) at
pool size. :class:`AsyncExecutor` is a second lane: one dedicated
event-loop thread on which the actions of ``executor="async"`` rules
run as tasks, so an entire priority class of IO-bound actions overlaps
in one thread while the existing ``SerialExecutor``/``ThreadedExecutor``
lanes keep serving sync rules.

Every task runs in a copy of its submitter's :mod:`contextvars`
context (``run_coroutine_threadsafe`` and ``gather`` copy it), so a
rule coroutine starts with the triggering thread's transaction,
nesting depth, current rule, trace position and current detector, and
whatever it sets stays private to its task.

What the lane itself must solve is a thread problem, nested-lane
routing (:meth:`AsyncExecutor.route`). An async action that
synchronously raises events re-enters the scheduler *on the loop
thread*; blocking there on a future of its own loop would deadlock.
``route()`` answers the lane the calling thread may safely block on:
the executor itself from foreign threads, a lazily created nested lane
from its own loop thread. Nested cascades therefore run depth-first
(the triggering ``notify`` returns only after the nested rules finish),
exactly like the sync lanes.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Coroutine, Optional

__all__ = ["AsyncExecutor"]


class AsyncExecutor:
    """A dedicated event-loop thread that runs rule-action coroutines.

    Unlike :class:`~repro.core.scheduler.ThreadedExecutor` this is not a
    drop-in ``executor=`` for the scheduler — the scheduler routes
    ``executor="async"`` activations here itself (see
    ``RuleScheduler.async_lane``) while sync rules keep their
    configured executor.
    """

    def __init__(self, name: str = "sentinel-async"):
        self.name = name
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._closed = False
        self._nested: Optional["AsyncExecutor"] = None
        self._nested_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._run_loop, name=name, daemon=True
        )
        self._thread.start()
        self._started.wait()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.call_soon(self._started.set)
        try:
            self.loop.run_forever()
        finally:
            # Drain: cancel whatever is still pending, let the
            # cancellations unwind, then close the loop.
            pending = asyncio.all_tasks(self.loop)
            for task in pending:
                task.cancel()
            if pending:
                self.loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self.loop.close()

    # -- submission --------------------------------------------------------

    def submit(self, coro: Coroutine):
        """Schedule ``coro`` on the lane; returns a concurrent Future."""
        if self._closed:
            coro.close()
            raise RuntimeError(f"async lane {self.name!r} is closed")
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def submit_gather(self, coros: list[Coroutine]):
        """Schedule ``coros`` concurrently; the Future resolves to a
        list of results/exceptions in submission order (gather with
        ``return_exceptions=True`` — all tasks run to completion)."""

        async def gather_all():
            tasks = [asyncio.ensure_future(c) for c in coros]
            return await asyncio.gather(*tasks, return_exceptions=True)

        return self.submit(gather_all())

    def run(self, coro: Coroutine):
        """Run ``coro`` on the lane, blocking the calling thread.

        Never call this from this lane's own loop thread — use
        :meth:`route` first, which hands back a nested lane that is
        safe to block on.
        """
        assert threading.current_thread() is not self._thread, (
            "blocking on the lane's own loop thread would deadlock; "
            "call route() first"
        )
        return self.submit(coro).result()

    # -- nested cascades ---------------------------------------------------

    def route(self) -> "AsyncExecutor":
        """The lane of this chain the calling thread may block on.

        A foreign thread gets ``self``. A thread that *is* one of the
        chain's loop threads gets that lane's (lazily created) nested
        lane: blocking a loop thread on its own loop would deadlock
        directly, and blocking it on an ancestor would too — during a
        depth-first cascade every ancestor's thread is already parked
        in :meth:`run` waiting for this level to finish. The walk must
        therefore cover the whole chain, not just ``self``. Chain depth
        is bounded by the scheduler's ``MAX_DEPTH`` cascade limit.
        """
        current = threading.current_thread()
        lane = self
        while True:
            if current is lane._thread:
                with lane._nested_lock:
                    if lane._nested is None:
                        lane._nested = AsyncExecutor(name=f"{lane.name}+")
                    return lane._nested
            with lane._nested_lock:
                nested = lane._nested
            if nested is None:
                return self
            lane = nested

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the loop (nested lanes first) and join the thread."""
        if self._closed:
            return
        self._closed = True
        with self._nested_lock:
            nested = self._nested
            self._nested = None
        if nested is not None:
            nested.shutdown(timeout)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "running"
        return f"AsyncExecutor({self.name!r}, {state})"
