"""Concurrency stress: barrier-synchronized ingestion, no lost work.

All producer threads release from a barrier at once, under a shortened
switch interval, so they contend for the detector's one lock.
Occurrence counts are asserted per parameter context from
``detections_by_context`` (mutated under that lock, so the counts
themselves are the race oracle).
"""

import sys
import threading

from repro.core.contexts import ParameterContext
from repro.core.detector import LocalEventDetector
from repro.sentinel import Sentinel

THREADS = 8
PER_THREAD = 150
CONTEXTS = ("recent", "chronicle", "continuous", "cumulative")


def run_threads(worker, count=THREADS):
    barrier = threading.Barrier(count)
    errors = []

    def body(index):
        try:
            barrier.wait(timeout=10)
            worker(index)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=body, args=(i,), daemon=True)
        for i in range(count)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "stress worker wedged"
    finally:
        sys.setswitchinterval(interval)
    assert errors == [], errors


def test_disjoint_producers_no_lost_occurrences():
    """One event class per thread: every context sees every occurrence."""
    det = LocalEventDetector()
    names = [f"ev{i}" for i in range(THREADS)]
    for name in names:
        det.explicit_event(name)
        for ctx in CONTEXTS:
            det.rule(f"r_{name}:{ctx}", name, context=ctx,
                     action=lambda occ: None)

    run_threads(lambda i: [
        det.raise_event(names[i], n=k) for k in range(PER_THREAD)
    ])

    for name in names:
        node = det.graph.get(name)
        for ctx in ParameterContext:
            assert node.detections_by_context.get(ctx, 0) == PER_THREAD, (
                name, ctx
            )


def test_contended_single_event_no_lost_occurrences():
    """Every thread hammers the same event and the same node state."""
    det = LocalEventDetector()
    det.explicit_event("shared")
    for ctx in CONTEXTS:
        det.rule(f"r:{ctx}", "shared", context=ctx, action=lambda occ: None)

    run_threads(lambda i: [
        det.raise_event("shared", t=i, n=k) for k in range(PER_THREAD)
    ])

    node = det.graph.get("shared")
    for ctx in ParameterContext:
        assert node.detections_by_context.get(ctx, 0) == THREADS * PER_THREAD


def test_per_thread_composite_under_concurrency():
    """Per-thread SEQ over the thread's own event: deterministic pair
    counts per context even while other threads churn."""
    det = LocalEventDetector()
    names = [f"ev{i}" for i in range(THREADS)]
    pair_nodes = {}
    for name in names:
        node = det.explicit_event(name)
        # Each occurrence enters the left port and pairs (as the right
        # port) with its predecessor: N raises -> N - 1 chronicle pairs.
        pair = (node >> node)
        pair_nodes[name] = pair
        det.rule(f"seq_{name}", pair, context="chronicle",
                 action=lambda occ: None)

    run_threads(lambda i: [
        det.raise_event(names[i], n=k) for k in range(PER_THREAD)
    ])

    for name in names:
        pairs = pair_nodes[name].detections_by_context.get(
            ParameterContext.CHRONICLE, 0
        )
        assert pairs == PER_THREAD - 1, name


def test_concurrent_batches():
    """notify_batch from many threads: batch accounting stays exact."""
    det = LocalEventDetector()

    class STOCK:
        def set_price(self, price):
            self.price = price

    det.primitive_event("tick", "STOCK", "end", "set_price")
    for ctx in CONTEXTS:
        det.rule(f"tick:{ctx}", "tick", context=ctx, action=lambda occ: None)
    stock = STOCK()
    batches = 10
    size = 20

    def worker(i):
        for b in range(batches):
            out = det.notify_batch([
                (stock, "STOCK", "set_price", "end", {"price": k})
                for k in range(size)
            ])
            assert len(out) == size

    run_threads(worker)
    node = det.graph.get("tick")
    expected = THREADS * batches * size
    for ctx in ParameterContext:
        assert node.detections_by_context.get(ctx, 0) == expected
    assert det.stats.batches == THREADS * batches
    assert det.stats.notifications == expected


def test_concurrent_raises_with_detached_rules():
    """Full facade under concurrency: detached queue drains everything."""
    system = Sentinel(name="stress", detached_workers=4)
    try:
        hits = []
        hits_lock = threading.Lock()

        def record(occ):
            with hits_lock:
                hits.append(occ.event_name)

        for i in range(4):
            system.explicit_event(f"ev{i}")
            system.rule(f"d{i}", f"ev{i}", coupling="detached",
                        action=record)

        run_threads(lambda i: [
            system.raise_event(f"ev{i % 4}") for __ in range(50)
        ])
        system.wait_detached(timeout=30)
        assert len(hits) == THREADS * 50
        assert system.detached.stats.errors == 0
        assert system.detached.snapshot()["executed"] == THREADS * 50
    finally:
        system.close()
