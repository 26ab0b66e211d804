"""The bench-trajectory harness and its regression gate.

Two halves:

* :func:`run_quick` executes the core benchmark set inline — BEAST
  ED-1 (primitive detection overhead), ED-2 (composite operator
  detection), RM-1 (rule-fanout dispatch), MP-8 (eight producer
  threads into one detector), and the serving loopback throughput —
  sized to finish in seconds, and appends one
  schema-versioned point per benchmark to a trajectory file
  (``BENCH_core.json`` at the repo root, via
  :func:`repro.bench.record.record`).

* :func:`check` reads a trajectory file back and compares the latest
  point of each benchmark against the **median of its prior points**,
  sample by sample. A sample regresses when it is worse than the
  median by more than ``tolerance`` (a multiplicative band — CI noise
  on shared runners is large, so the default band is wide; the gate
  catches order-of-magnitude cliffs, not 5% drift). Direction comes
  from the entry's unit: ``us_per_event`` is lower-is-better,
  ``events_per_sec`` higher-is-better.

``tools/bench_trajectory.py`` is the CLI over both halves; the CI
workflow runs it on every push and fails the build on regression.
"""

from __future__ import annotations

import os
import time
from statistics import median
from typing import Any, Callable, Optional, Union

from repro.bench.record import load, record

#: the default trajectory file name at the repo root
CORE_TRAJECTORY = "BENCH_core.json"

#: unit -> which way is better; unknown units are never gated
UNIT_DIRECTION = {
    "us_per_event": "lower",
    "ms": "lower",
    "events_per_sec": "higher",
}


# =========================================================================
# The quick benchmark set
# =========================================================================

def _per_event_us(run: Callable[[], int]) -> float:
    """Run a workload once; microseconds per event it reports."""
    start = time.perf_counter()
    events = run()
    elapsed = time.perf_counter() - start
    return (elapsed / max(events, 1)) * 1e6


def run_ed1(events: int = 3000) -> dict[str, float]:
    """ED-1: wrapped (Notify-inserted) method call cost, us/event."""
    from repro.bench.workload import ReactiveSchema
    from repro.core.detector import LocalEventDetector

    samples: dict[str, float] = {}
    schema = ReactiveSchema(n_classes=1, n_methods=1)

    det = LocalEventDetector(name="ed1-bare")
    schema.install(det)

    def no_rule() -> int:
        for __ in range(events):
            schema.signal(det, 0, 0)
        return events

    samples["no_rule"] = _per_event_us(no_rule)
    det.shutdown()

    det = LocalEventDetector(name="ed1-ruled")
    nodes = schema.install(det)
    det.rule("r", nodes[0], action=lambda occ: None)

    def with_rule() -> int:
        for __ in range(events):
            schema.signal(det, 0, 0)
        return events

    samples["with_rule"] = _per_event_us(with_rule)
    det.shutdown()
    return samples


def run_ed1_facade(events: int = 3000) -> dict[str, float]:
    """ED-1 with a rule through ``Sentinel``: what watching costs.

    The same wrapped call as :func:`run_ed1`'s ``with_rule``, on the
    facade's detector at three telemetry settings — ``metrics=False``
    (dormant hub), the default processors (aggregators only), and the
    default plus a ``TraceLogProcessor`` (every emission materialised
    as a frozen event). The spread between the samples is the price
    of observing, recorded where the default configuration runs.

    Two more samples price the sentry on a default system: a wrapped
    method of a class nobody registered (``unwatched``) and of a
    registered class no rule refers to (``registered_unruled``), both
    per call through the ``@event`` wrapper.
    """
    from repro.bench.workload import ReactiveSchema
    from repro.core.reactive import Reactive, event
    from repro.sentinel import Sentinel
    from repro.telemetry import TraceLogProcessor

    schema = ReactiveSchema(n_classes=1, n_methods=1)
    samples: dict[str, float] = {}
    for setting in ("telemetry_off", "default", "recording"):
        system = Sentinel(
            name=f"ed1-{setting}", metrics=setting != "telemetry_off"
        )
        if setting == "recording":
            system.telemetry.attach(TraceLogProcessor())
        detector = system.detector
        (node,) = schema.install(detector)
        system.rule("r", node, action=lambda occ: None)
        for __ in range(events // 10):  # untimed: lazily built state
            schema.signal(detector, 0, 0)

        def pump() -> int:
            for __ in range(events):
                schema.signal(detector, 0, 0)
            return events

        samples[setting] = _per_event_us(pump)
        system.close()
    for setting in ("unwatched", "registered_unruled"):
        class Quiet(Reactive):
            @event(end="done")
            def op(self, v):
                return v

        system = Sentinel(name=f"ed1-{setting}")
        if setting == "registered_unruled":
            system.register_class(Quiet)
        quiet = Quiet()

        def call() -> int:
            for index in range(events):
                quiet.op(index)
            return events

        call()  # untimed: the route is built on first use
        samples[setting] = _per_event_us(call)
        system.close()
    return samples


def run_ed2(length: int = 1500) -> dict[str, float]:
    """ED-2: composite detection per operator over a stream, us/event."""
    from repro.bench import EventStream, ReactiveSchema, make_expression
    from repro.core.detector import LocalEventDetector

    samples: dict[str, float] = {}
    for operator in ("AND", "SEQ", "NOT"):
        det = LocalEventDetector(name=f"ed2-{operator}")
        schema = ReactiveSchema(n_classes=1, n_methods=3)
        leaves = schema.install(det)
        expr = make_expression(det, operator, leaves)
        det.rule("r", expr, action=lambda occ: None)
        stream = EventStream(schema, length=length, seed=7)
        samples[operator] = _per_event_us(lambda: stream.pump(det))
        assert det.graph.stats.detections > 0
        det.shutdown()
    return samples


def run_rm1(raises: int = 400) -> dict[str, float]:
    """RM-1: rule-fanout dispatch cost, us/event, at 1/10/100 rules."""
    from repro.core.detector import LocalEventDetector

    samples: dict[str, float] = {}
    for n_rules in (1, 10, 100):
        det = LocalEventDetector(name=f"rm1-{n_rules}")
        det.explicit_event("e")
        fired = {"n": 0}
        for i in range(n_rules):
            det.rule(
                f"r{i}", "e",
                action=lambda occ: fired.__setitem__("n", fired["n"] + 1),
            )

        def pump() -> int:
            for __ in range(raises):
                det.raise_event("e")
            return raises

        samples[f"rules_{n_rules}"] = _per_event_us(pump)
        assert fired["n"] >= n_rules * raises
        det.shutdown()
    return samples


def run_mp8(per_thread: int = 1000) -> dict[str, float]:
    """MP-8: eight producer threads into one detector, events/sec.

    Each barrier-released thread raises its own explicit event, so the
    producers share only the detector's ingestion lock. Every
    occurrence must be counted: throughput bought by losing work fails.
    """
    import threading

    from repro.core.detector import LocalEventDetector

    names = [f"mp{i}" for i in range(8)]
    det = LocalEventDetector(name="mp8")
    for name in names:
        det.explicit_event(name)
        det.rule(f"r_{name}", name, action=lambda occ: None)
    barrier = threading.Barrier(len(names) + 1)

    def produce(name: str) -> None:
        barrier.wait(timeout=30)
        for index in range(per_thread):
            det.raise_event(name, n=index)

    threads = [threading.Thread(target=produce, args=(name,), daemon=True)
               for name in names]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=30)
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.perf_counter() - start
    det.shutdown()
    assert not any(thread.is_alive() for thread in threads)
    counted = sum(sum(det.graph.get(name).detections_by_context.values())
                  for name in names)
    assert counted == len(names) * per_thread, counted
    assert det.stats.triggers == counted
    return {"producers_8": counted / elapsed}


def run_serving_loopback(events: int = 1024,
                         batch: int = 32) -> dict[str, float]:
    """Serving loopback ingestion throughput, events/sec."""
    from repro.sentinel import Sentinel
    from repro.serving import SentinelClient, SentinelServer
    from repro.serving.tenancy import Tenant

    system = Sentinel(name="bench-core-serve", detections_capacity=events * 2)
    server = SentinelServer(
        system, tenants=[Tenant("bench", token="bench-tok")]
    ).start()
    client = SentinelClient(
        "127.0.0.1", server.port, tenant="bench", token="bench-tok",
        timeout=60.0,
    )
    try:
        client.primitive_event("op_done", "Account", "end", "op")
        client.watch("audit", "op_done")
        batches, remainder = divmod(events, batch)
        assert remainder == 0
        payloads = [
            [(None, "Account", "op", "end", {"i": i}) for i in range(batch)]
            for __ in range(batches)
        ]
        start = time.perf_counter()
        for payload in payloads:
            client.notify_batch(payload)
        elapsed = time.perf_counter() - start
        detected = len(client.detections("audit", clear=True))
        assert detected == events
        return {f"batch_{batch}": events / elapsed}
    finally:
        client.close()
        server.close()
        system.close()


def run_async_actions(events: int = 64,
                      delay_s: float = 0.004) -> dict[str, float]:
    """Async-lane scaling: IO-bound actions, events/sec per lane.

    One raised event triggers ``events`` rules of one priority class
    whose actions each wait ``delay_s`` (a stand-in for a webhook or
    downstream write). The thread pool is capped at 8 concurrent
    sleeps; the asyncio lane overlaps all of them on one loop thread —
    the recorded pair documents the ceiling and the lane's headroom
    over it.
    """
    import asyncio

    from repro.core.detector import LocalEventDetector
    from repro.core.scheduler import ThreadedExecutor

    samples: dict[str, float] = {}

    det = LocalEventDetector(
        name="async-bench-threaded", executor=ThreadedExecutor(max_workers=8)
    )
    det.explicit_event("go")
    for i in range(events):
        det.rule(f"t{i}", "go", action=lambda occ: time.sleep(delay_s))
    start = time.perf_counter()
    det.raise_event("go")
    samples["threaded_8"] = events / (time.perf_counter() - start)
    det.shutdown()

    det = LocalEventDetector(name="async-bench-lane")
    det.explicit_event("go")

    async def io_action(occ):
        await asyncio.sleep(delay_s)

    for i in range(events):
        det.rule(f"a{i}", "go", action=io_action)
    start = time.perf_counter()
    det.raise_event("go")
    samples["async_lane"] = events / (time.perf_counter() - start)
    det.shutdown()
    return samples


#: name -> (unit, runner); the set the core trajectory tracks.
#: ``ED-1-facade`` prices telemetry through ``Sentinel`` (off /
#: default / recording).
QUICK_BENCHMARKS: dict[str, tuple[str, Callable[[], dict[str, float]]]] = {
    "ED-1": ("us_per_event", run_ed1),
    "ED-1-facade": ("us_per_event", run_ed1_facade),
    "ED-2": ("us_per_event", run_ed2),
    "RM-1": ("us_per_event", run_rm1),
    "MP-8": ("events_per_sec", run_mp8),
    "serving_loopback": ("events_per_sec", run_serving_loopback),
    "async-actions": ("events_per_sec", run_async_actions),
}


def run_quick(path: Union[str, os.PathLike],
              only: Optional[list[str]] = None) -> list[dict]:
    """Run the quick set and append one point per benchmark to ``path``.

    Returns the appended entries. ``only`` restricts to a subset of
    :data:`QUICK_BENCHMARKS` names.
    """
    names = list(QUICK_BENCHMARKS) if only is None else list(only)
    entries = []
    for name in names:
        unit, runner = QUICK_BENCHMARKS[name]
        entries.append(record(path, name, unit, runner()))
    return entries


# =========================================================================
# The regression gate
# =========================================================================

def check(path: Union[str, os.PathLike],
          tolerance: float = 3.0) -> list[dict[str, Any]]:
    """Regressions in the latest point of each benchmark vs history.

    For every benchmark in the trajectory with at least two points,
    each sample of the latest point is compared against the median of
    that sample across all prior points. Worse than the median by more
    than ``tolerance``x flags a regression dict::

        {"benchmark", "sample", "unit", "latest", "median",
         "ratio", "tolerance"}

    ``ratio`` is normalized so > 1.0 always means "worse". Benchmarks
    with a single point, samples absent from history, and units not in
    :data:`UNIT_DIRECTION` are skipped — a new benchmark or sample
    never fails the gate on its first recording.
    """
    if tolerance <= 1.0:
        raise ValueError(f"tolerance must be > 1.0, got {tolerance}")
    by_benchmark: dict[str, list[dict]] = {}
    for entry in load(path):
        name = entry.get("benchmark")
        if isinstance(name, str):
            by_benchmark.setdefault(name, []).append(entry)
    regressions: list[dict[str, Any]] = []
    for name, entries in by_benchmark.items():
        if len(entries) < 2:
            continue
        latest, prior = entries[-1], entries[:-1]
        direction = UNIT_DIRECTION.get(latest.get("unit", ""))
        if direction is None:
            continue
        for sample, value in (latest.get("samples") or {}).items():
            history = [
                e["samples"][sample] for e in prior
                if isinstance(e.get("samples"), dict)
                and isinstance(e["samples"].get(sample), (int, float))
            ]
            if not history or not isinstance(value, (int, float)):
                continue
            baseline = median(history)
            if baseline <= 0 or value <= 0:
                continue
            ratio = (value / baseline if direction == "lower"
                     else baseline / value)
            if ratio > tolerance:
                regressions.append({
                    "benchmark": name,
                    "sample": sample,
                    "unit": latest.get("unit"),
                    "latest": value,
                    "median": baseline,
                    "ratio": round(ratio, 3),
                    "tolerance": tolerance,
                })
    return regressions
