"""Timing primitives: quartile summaries, the slice window, the span tracer."""

from __future__ import annotations

import statistics
import time

#: fewest timed slices one run may summarise
MIN_SLICES = 7


def _quantiles(values: list, n: int) -> list:
    """``statistics.quantiles`` kept inside the observed range (it
    extrapolates past the ends of a small sample)."""
    if len(values) < 2:
        return [values[0]] * (n - 1)
    return [
        min(max(cut, values[0]), values[-1])
        for cut in statistics.quantiles(values, n=n)
    ]


def summary(rounds: list, unit: str, better: str) -> dict:
    """One metric from its samples, given round by round.

    ``value`` is the decile of all samples on the ``better`` side. The
    host's noise is one-sided and slow: bursts of slowness that last
    seconds (see README.md). A burst moves the median of a window when
    it covers half of it, the better-side decile only when it covers
    nine tenths, so the decile is the figure the program reaches in the
    tenth of its samples the host disturbed least. ``rounds`` holds the
    same decile of each round alone, best first: two rounds that agree
    corroborate the figure (see compare.py). The median and quartiles of
    all samples are kept for the reader.
    """
    side = -1 if better == "higher" else 0
    samples = sorted(value for values in rounds for value in values)
    q1, median, q3 = _quantiles(samples, 4)
    return {
        "value": _quantiles(samples, 10)[side],
        "unit": unit,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "rounds": sorted(
            (_quantiles(sorted(values), 10)[side] for values in rounds),
            reverse=better == "higher",
        ),
    }


def median_cost_us(fn, calls: int, batches: int = 7) -> float:
    """Median over ``batches`` of the mean µs per call of ``fn``.

    ``fn(calls)`` runs the measured call ``calls`` times and returns
    nothing; batching keeps one scheduler hiccup out of the figure.
    """
    costs = []
    for _ in range(batches):
        start = time.perf_counter()
        fn(calls)
        costs.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(costs)


def run_window(workload, seconds: float, min_slices: int,
               on_edge=None) -> dict:
    """Drive ``workload`` closed-loop: one untimed warm-up slice, then
    equal timed slices until ``seconds`` have passed (at least
    ``min_slices``). Inputs for a slice are generated before its clock
    starts, so the generator's work is outside every slice.
    ``on_edge("start")``/``on_edge("end")`` run at the window's edges,
    outside it.

    Returns the raw samples: per-slice ``rates`` (operations per second)
    and ``medians`` (median call latency, µs), and every call's
    ``latencies`` in ns.
    """
    workload.run_slice(workload.prepare_slice(), [])
    if on_edge is not None:
        on_edge("start")
    rates, medians, latencies = [], [], []
    window_start = time.perf_counter()
    while len(rates) < min_slices or time.perf_counter() - window_start < seconds:
        payload = workload.prepare_slice()
        slice_latencies: list = []
        start = time.perf_counter()
        done = workload.run_slice(payload, slice_latencies)
        rates.append(done / (time.perf_counter() - start))
        medians.append(statistics.median(slice_latencies) / 1e3)
        latencies.extend(slice_latencies)
    window_s = time.perf_counter() - window_start
    if on_edge is not None:
        on_edge("end")
    return {"rates": rates, "medians": medians, "latencies": latencies,
            "window_s": window_s}


class Tracer:
    """Benchmark-side spans around calls into the program.

    A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the
    index of the enclosing span (-1 for none) and ``op`` numbers the
    operation it belongs to. Spans stay in memory until the run ends.
    ``edges`` holds, for the traced window's ``"start"`` and ``"end"``,
    the clock and the program's stage totals read there.
    """

    def __init__(self):
        self.spans: list = []
        self.edges: dict = {}
        self.op = 0
        self._stack: list = []

    def wrap(self, name: str, fn, op: bool = False):
        """``fn`` with a span recorded around every call; ``op=True``
        marks the call that starts a new operation."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if op:
                self.op += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def self_times(self, since_ns: int, until_ns: int) -> dict:
        """``name -> [calls, self_ms]`` for spans inside the window; a
        span's self time is its duration minus its children's."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if start < since_ns or end > until_ns:
                continue
            row = totals.setdefault(name, [0, 0.0])
            row[0] += 1
            row[1] += (end - start - child_ns[index]) / 1e6
        return totals
