"""The asyncio execution lane for coroutine rule actions.

The paper's Fig-3 scheme runs every rule action on a fixed thread pool,
which caps IO-bound action throughput (webhooks, downstream writes) at
pool size. :class:`AsyncExecutor` is a second lane: one dedicated
event-loop thread on which the actions of ``executor="async"`` rules
run as tasks, so an entire priority class of IO-bound actions overlaps
in one thread while the existing ``SerialExecutor``/``ThreadedExecutor``
lanes keep serving sync rules.

Two pieces make the lane safe without touching the synchronous hot path:

* **Per-task state isolation** (:func:`isolate`). The scheduler keeps
  its execution state — current transaction, rule-nesting depth,
  current rule, telemetry span stack — in *thread* locals, which every
  task on the one loop thread would otherwise share. ``isolate`` drives
  the rule coroutine step by step and swaps each task's private copies
  of those attributes in before every ``send``/``throw`` and back out
  after, so tasks interleaving at ``await`` points never observe each
  other's state. The swap costs only the async lane anything; sync
  rules keep reading plain thread locals.

* **Nested-lane routing** (:meth:`AsyncExecutor.route`). An async
  action that synchronously raises events re-enters the scheduler *on
  the loop thread*; blocking there on a future of its own loop would
  deadlock. ``route()`` answers the lane the calling thread may safely
  block on: the executor itself from foreign threads, a lazily created
  nested lane from its own loop thread. Nested cascades therefore run
  depth-first (the triggering ``notify`` returns only after the nested
  rules finish), exactly like the sync lanes.
"""

from __future__ import annotations

import asyncio
import threading
import types
from typing import Any, Coroutine, Iterable, Optional

__all__ = ["AsyncExecutor", "isolate"]

_MISSING = object()


class _Swap:
    """One thread-local attribute a task owns a private copy of."""

    __slots__ = ("target", "attr", "value")

    def __init__(self, target: Any, attr: str, value: Any):
        self.target = target
        self.attr = attr
        self.value = value


@types.coroutine
def _drive(coro: Coroutine, swaps: list[_Swap]):
    """Step ``coro``, swapping per-task state around every resumption.

    Before each ``send``/``throw`` the task's parked values are
    installed on the thread locals; after the step the (possibly
    mutated) values are parked again and the loop thread's base values
    restored — so whatever runs between tasks (the event loop itself,
    other tasks) sees pristine state.
    """
    send_value: Any = None
    thrown: Optional[BaseException] = None
    while True:
        saved = [getattr(s.target, s.attr, _MISSING) for s in swaps]
        for s in swaps:
            setattr(s.target, s.attr, s.value)
        try:
            if thrown is not None:
                step = coro.throw(thrown)
            else:
                step = coro.send(send_value)
            result = _MISSING
        except StopIteration as stop:
            result = stop.value
        finally:
            for s, previous in zip(swaps, saved):
                s.value = getattr(s.target, s.attr, None)
                if previous is _MISSING:
                    try:
                        delattr(s.target, s.attr)
                    except AttributeError:
                        pass
                else:
                    setattr(s.target, s.attr, previous)
        if result is not _MISSING:
            return result
        try:
            send_value = yield step
            thrown = None
        except BaseException as exc:  # noqa: BLE001 — must reach the coro
            thrown = exc
            send_value = None


def isolate(coro: Coroutine,
            specs: Iterable[tuple[Any, str, Any]]) -> Coroutine:
    """Wrap ``coro`` so it runs with private copies of thread locals.

    ``specs`` is an iterable of ``(target, attribute, initial_value)``
    triples — e.g. ``(scheduler._local, "depth", 3)`` seeds the task
    with the triggering thread's nesting depth. Mutations the coroutine
    makes to a swapped attribute persist across its awaits (they are
    parked with the task), but are invisible to every other task.
    """
    swaps = [_Swap(target, attr, value) for target, attr, value in specs]

    async def runner():
        return await _drive(coro, swaps)

    return runner()


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
