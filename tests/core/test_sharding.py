"""Sharded runtime: assignment, parity with the single-shard detector.

The acceptance oracle is the batch replayer: a stored event log run
through a 1-shard detector and an N-shard detector must produce the
same rule triggers in the same order and the same per-node detection
counts in every parameter context.
"""

import pytest

from repro.core.contexts import ParameterContext
from repro.core.detector import LocalEventDetector
from repro.core.sharding import ShardMap, ShardedRuntime
from repro.eventlog.log import EventLog, LoggedEvent
from repro.eventlog.replay import replay

CONTEXTS = ("recent", "chronicle", "continuous", "cumulative")


def build_system(shards: int):
    """A mixed graph (every binary operator plus NOT/A) with one rule
    per (expression, context) pair."""
    det = LocalEventDetector(shards=shards)
    for name in "abcdef":
        det.explicit_event(name)
    e = det.event
    exprs = {
        "and_ab": (e("a") & e("b")),
        "or_cd": (e("c") | e("d")),
        "seq_ef": (e("e") >> e("f")),
        "nested": ((e("a") & e("b")) >> (e("c") | e("d"))),
        "not_acb": det.not_("a", "c", "b"),
        "aper_abc": det.aperiodic("a", "b", "c"),
    }
    for ctx in CONTEXTS:
        for label, node in exprs.items():
            det.rule(f"r_{label}:{ctx}", node, context=ctx,
                     action=lambda occ: None)
    return det


def make_log() -> EventLog:
    log = EventLog()
    pattern = "abacbdcefabfdecbafcdeb" * 3
    for i, name in enumerate(pattern):
        log.append(LoggedEvent(
            event_name=name, at=float(i), class_name="$EXPLICIT",
            instance=None, method_name=None, modifier=None,
            arguments=[["n", i]], txn_id=None,
        ))
    return log


def detections_by_node(det) -> dict:
    return {
        node.display_name: {
            ctx.value: count
            for ctx, count in sorted(
                node.detections_by_context.items(), key=lambda kv: kv[0].value
            )
        }
        for node in det.graph._nodes
    }


# =========================================================================
# Replay parity: the headline acceptance criterion
# =========================================================================

@pytest.mark.parametrize("shards", [2, 4, 7])
def test_replay_parity_all_contexts(shards):
    """Same log, same graph: N shards detect exactly what 1 shard does,
    in every parameter context, triggering rules in the same order."""
    log = make_log()
    single = build_system(1)
    sharded = build_system(shards)
    baseline = replay(log, single, mode="collect")
    candidate = replay(log, sharded, mode="collect")
    assert candidate.events_replayed == baseline.events_replayed
    assert candidate.triggered_rules() == baseline.triggered_rules()
    assert detections_by_node(sharded) == detections_by_node(single)


def test_replay_parity_execute_mode():
    """Rules actually executing (not just collected) agree too."""
    log = make_log()
    results = {}
    for shards in (1, 4):
        det = LocalEventDetector(shards=shards)
        for name in "abcdef":
            det.explicit_event(name)
        fired = []
        det.rule(
            "r", ((det.event("a") & det.event("b")) >> det.event("c")),
            context="chronicle",
            action=lambda occ: fired.append(occ.params.values("n")),
        )
        replay(log, det, mode="execute")
        results[shards] = fired
    assert results[4] == results[1]
    assert results[1]  # the pattern does fire the rule


def test_sharded_occurrence_accounting():
    log = make_log()
    det = build_system(4)
    report = replay(log, det, mode="collect")
    rows = det.runtime.snapshot()
    assert sum(r["occurrences"] for r in rows) == report.events_replayed
    # the graph spreads over more than one shard
    assert sum(1 for r in rows if r["occurrences"]) > 1


# =========================================================================
# Assignment
# =========================================================================

def test_shard_map_is_deterministic():
    m1, m2 = ShardMap(8), ShardMap(8)
    for key in ("a", "STOCK", "end(set_price)", "x" * 50):
        assert m1.shard_for_key(key) == m2.shard_for_key(key)
        assert 0 <= m1.shard_for_key(key) < 8


def test_single_shard_map_pins_everything_to_zero():
    det = build_system(1)
    assert {node.shard for node in det.graph._nodes} == {0}


def test_composite_owned_by_min_child_shard():
    det = LocalEventDetector(shards=4)
    a, b = det.explicit_event("a"), det.explicit_event("b")
    both = (det.event("a") & det.event("b"))
    assert both.shard == min(a.shard, b.shard)


def test_same_class_events_colocate():
    det = LocalEventDetector(shards=4)
    begin = det.primitive_event("s_begin", "STOCK", "begin", "set_price")
    end = det.primitive_event("s_end", "STOCK", "end", "set_price")
    assert begin.shard == end.shard


def test_runtime_rejects_bad_shard_count():
    det = LocalEventDetector()
    with pytest.raises(ValueError):
        ShardedRuntime(det, 0)


# =========================================================================
# Runtime plumbing
# =========================================================================

def test_dormant_runtime_keeps_inline_propagation():
    det = LocalEventDetector(shards=1)
    assert det.runtime.active is False
    assert det.graph.runtime is None  # signal() recurses inline


def test_cross_shard_edges_counted():
    det = LocalEventDetector(shards=4)
    for name in "abcdef":
        det.explicit_event(name)
    fired = []
    det.rule("r", (det.event("a") & det.event("e")),
             action=fired.append, context="chronicle")
    det.raise_event("a")
    det.raise_event("e")
    assert len(fired) == 1
    rows = det.runtime.snapshot()
    crossings = sum(r["cross_shard_out"] for r in rows)
    assert crossings == sum(r["cross_shard_in"] for r in rows)
    # a and e live on different shards for this hash; if the hash ever
    # co-locates them the AND is same-shard and nothing crosses.
    a, e = det.graph.get("a"), det.graph.get("e")
    if a.shard != e.shard:
        assert crossings >= 1
        assert sum(r["forwarded"] for r in rows) == crossings


def test_flush_under_all_locks_sharded():
    det = build_system(4)
    det.raise_event("a")  # half an AND pending
    det.flush()
    det.raise_event("b")
    node = (det.event("a") & det.event("b"))
    assert node.detections_by_context.get(ParameterContext.RECENT, 0) == 0


def test_nested_notify_from_rule_action_sharded():
    """An action raising further events re-enters the driver cleanly
    (depth-first nested frames, as in the seed)."""
    det = LocalEventDetector(shards=4)
    for name in ("a", "b", "done"):
        det.explicit_event(name)
    order = []

    def chain(occ):
        order.append("outer")
        det.raise_event("done")

    det.rule("outer", (det.event("a") & det.event("b")), action=chain,
             context="chronicle")
    det.rule("inner", "done", action=lambda occ: order.append("inner"))
    det.raise_event("a")
    det.raise_event("b")
    assert order == ["outer", "inner"]
