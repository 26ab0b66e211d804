"""Per-layer costs, timed from outside around each layer's public calls.

A layer is one of this repo's packages. Each figure is measured on the
inputs the workloads generate from the seed and is the median over
several batches of the mean cost of one call. None of them is gated;
they say which layer a change in an end-to-end metric came from (the
prediction table is in README.md).
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from repro import Sentinel
from repro.serving import TokenBucket, occurrence_summary, parse_event_expr
from repro.serving.protocol import encode_frame, get_codec
from repro.serving.tenancy import qualify
from repro.snoop.lexer import tokenize
from repro.snoop.parser import parse

from .measure import median_cost_us
from .oracle import to_text
from .serveproc import EPS, TENANT
from .workloads import (
    BATCH,
    CHURN_POOL,
    STATIC_RULES,
    TOUCHED,
    DetectLocal,
    ServeSingle,
    TxnPersistent,
    fresh,
)

#: name -> (unit, better); the ``per_layer`` list of BENCHMARK.json
METRICS = {
    "serving.codec_us": ("us", "lower"),
    "serving.codec_bytes_per_event": ("bytes", "lower"),
    "serving.codec_batch_us_per_event": ("us", "lower"),
    "serving.codec_batch_bytes_per_event": ("bytes", "lower"),
    "serving.wire_us": ("us", "lower"),
    "serving.quota_us": ("us", "lower"),
    "snoop.parse_us": ("us", "lower"),
    "snoop.spec_parse_us": ("us", "lower"),
    "snoop.watch_unwatch_us": ("us", "lower"),
    "core.detect_us": ("us", "lower"),
    "core.schedule_us": ("us", "lower"),
    "core.activations_per_event": ("ratio", "higher"),
    "telemetry_us": ("us", "lower"),
    "transactions_us": ("us", "lower"),
    "oodb_us": ("us", "lower"),
    "storage.commit_us": ("us", "lower"),
    "storage.wal_bytes_per_txn": ("bytes", "lower"),
    "storage.data_bytes_per_txn": ("bytes", "lower"),
    "storage.buffer_hit_rate": ("ratio", "higher"),
    "storage.buffer_evictions": ("count", "lower"),
    "storage.wal_flushed_lsn": ("count", "lower"),
}

_SNOOP_INFIX = {"seq": ";", "and": "^", "or": "|"}


def _to_snoop(expr) -> str:
    """The expression in the Snoop specification dialect."""
    if isinstance(expr, str):
        return expr
    op, *operands = expr
    if op in _SNOOP_INFIX:
        return "(" + f" {_SNOOP_INFIX[op]} ".join(map(_to_snoop, operands)) + ")"
    first, second, third = map(_to_snoop, operands)
    if op == "not":
        return f"not({second})[{first}, {third}]"
    return f"A*({first}, {second}, {third})"


def _codec(seed: int) -> dict:
    """encode_frame + decode of the serve workloads' request and reply
    frames (JSON, the transport both workloads use)."""
    codec = get_codec("json")
    with Sentinel(metrics=False) as system:
        system.explicit_event("a")
        single = occurrence_summary(system.raise_event("a", v=seed % 100))
    item = [None, "K", "m0", "end", {"v": seed % 100}]
    reply_item = dict(single, event="p0", method="m0", modifier="end")
    reply_item["class"] = "K"
    frames = {
        "single": [
            {"id": 7, "op": "raise_event",
             "args": {"name": "a", "params": {"v": seed % 100}}},
            {"id": 7, "ok": True, "result": single},
        ],
        "batch": [
            {"id": 7, "op": "notify_batch", "args": {"items": [item] * BATCH}},
            {"id": 7, "ok": True, "result": [reply_item] * BATCH},
        ],
    }

    def round_trip(payloads):
        def run(calls: int) -> None:
            for _ in range(calls):
                for payload in payloads:
                    codec.decode(encode_frame(payload, codec)[4:])

        return run

    size = {
        kind: sum(len(encode_frame(p, codec)) for p in payloads)
        for kind, payloads in frames.items()
    }
    return {
        "serving.codec_us": median_cost_us(round_trip(frames["single"]), 2000) / 2,
        "serving.codec_bytes_per_event": size["single"],
        "serving.codec_batch_us_per_event":
            median_cost_us(round_trip(frames["batch"]), 50) / BATCH,
        "serving.codec_batch_bytes_per_event": size["batch"] / BATCH,
    }


def _quota() -> dict:
    bucket = TokenBucket(EPS, EPS)

    def run(calls: int) -> None:
        for _ in range(calls):
            bucket.try_acquire(1)
            qualify(TENANT, "a")

    return {"serving.quota_us": median_cost_us(run, 20000)}


def _wire(seed: int, workdir: Path, out_dir: Path) -> dict:
    """``client.ping()``: frame + socket + session thread, no engine."""
    served = ServeSingle(seed, fresh(workdir / "wire"), out_dir=out_dir)
    served.setup()
    try:
        ping = served.client.ping

        def run(calls: int) -> None:
            for _ in range(calls):
                ping()

        return {"serving.wire_us": median_cost_us(run, 300)}
    finally:
        served.teardown(quick=True)


def _engine(seed: int, workdir: Path, **options) -> DetectLocal:
    engine = DetectLocal(seed, fresh(workdir / "core"))
    engine.options = options
    engine.setup()
    return engine


def _per_event_us(engine: DetectLocal, slices: int = 5) -> float:
    costs = []
    for _ in range(slices):
        steps = engine.steps(600)
        start = time.perf_counter()
        engine.run_slice(steps, [])
        costs.append((time.perf_counter() - start) / 600 * 1e6)
    return statistics.median(costs)


def _core(seed: int, workdir: Path) -> dict:
    """The facade's per-event cost three ways: default, with every rule
    disabled (context counters drop to zero, so this is ingest and
    primitive matching alone), and with ``metrics=False``."""
    enabled = _engine(seed, workdir)
    try:
        events_before = enabled.count
        seen_before = sum(enabled.seen.values())
        enabled_us = _per_event_us(enabled)
        activations = (sum(enabled.seen.values()) - seen_before) / (
            enabled.count - events_before
        )
        enabled.finish()  # commits the open transaction
        system = enabled.system
        expressions = [to_text(expr) for expr, _ in CHURN_POOL]

        def parse_all(calls: int) -> None:
            for index in range(calls):
                parse_event_expr(
                    expressions[index % len(expressions)], system.event
                )

        spec = "\n".join(
            f"event c{k} = {_to_snoop(expr)}"
            for k, (expr, _) in enumerate(CHURN_POOL)
        )

        def parse_spec(calls: int) -> None:
            for _ in range(calls // len(CHURN_POOL)):
                tokenize(spec)
                parse(spec)

        def churn(calls: int) -> None:
            for index in range(calls):
                expr, context = CHURN_POOL[index % len(CHURN_POOL)]
                system.watch("probe", to_text(expr), context=context)
                system.unwatch("probe")

        def empty_transaction(calls: int) -> None:
            for _ in range(calls):
                with system.transaction():
                    pass

        metrics = {
            "snoop.parse_us": median_cost_us(parse_all, 800),
            "snoop.spec_parse_us": median_cost_us(parse_spec, 160),
            "snoop.watch_unwatch_us": median_cost_us(churn, 300),
            "transactions_us": median_cost_us(empty_transaction, 300),
        }
    finally:
        enabled.teardown()
    disabled = _engine(seed, workdir)
    try:
        for rule in STATIC_RULES:
            disabled.system.disable_rule(rule)
        disabled_us = _per_event_us(disabled)
    finally:
        disabled.teardown()
    quiet = _engine(seed, workdir, metrics=False)
    try:
        quiet_us = _per_event_us(quiet)
    finally:
        quiet.teardown()
    metrics.update({
        "core.detect_us": disabled_us,
        "core.schedule_us": (enabled_us - disabled_us) / activations,
        "core.activations_per_event": activations,
        "telemetry_us": enabled_us - quiet_us,
    })
    return metrics


def _storage(seed: int, workdir: Path, transactions: int = 300) -> dict:
    """``lookup`` + ``mark_dirty`` per object, and the commit of a
    transaction with :data:`TOUCHED` dirty objects (fsync durability)."""
    bank = TxnPersistent(seed, fresh(workdir / "storage"))
    bank.setup()
    try:
        system = bank.system
        files = [
            bank.workdir / "db" / name for name in ("wal.log", "data.db")
        ]
        sizes = [path.stat().st_size for path in files]
        touch_us, commit_us = [], []
        clock = time.perf_counter
        for chosen, _, _ in bank.plans(transactions):
            txn = system.begin()
            start = clock()
            for index in chosen:
                account = txn.lookup(f"acct{index}")
                account.balance += 1
                txn.mark_dirty(account)
            touched = clock()
            system.commit(txn)
            commit_us.append((clock() - touched) * 1e6)
            touch_us.append((touched - start) / TOUCHED * 1e6)
        wal, data = (
            (path.stat().st_size - size) / transactions
            for path, size in zip(files, sizes)
        )
        storage = system.health()["storage"]
        return {
            "oodb_us": statistics.median(touch_us),
            "storage.commit_us": statistics.median(commit_us),
            "storage.wal_bytes_per_txn": wal,
            "storage.data_bytes_per_txn": data,
            "storage.buffer_hit_rate": storage["buffer_hit_rate"],
            "storage.buffer_evictions": storage["buffer_evictions"],
            "storage.wal_flushed_lsn": storage["wal_flushed_lsn"],
        }
    finally:
        bank.teardown()


def run_suite(seed: int, workdir: Path, out_dir: Path) -> dict:
    """Every per-layer metric as ``name -> {"value", "unit"}``."""
    values = {}
    values.update(_codec(seed))
    values.update(_quota())
    values.update(_core(seed, workdir))
    values.update(_storage(seed, workdir))
    values.update(_wire(seed, workdir, out_dir))
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _) in METRICS.items()
    }
