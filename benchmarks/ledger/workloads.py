"""The five workloads: what each builds, drives, and checks.

Every workload is closed-loop from the calling thread: the next
operation starts only when the previous call has returned, which is the
paper's contract (the caller blocks until the immediate rule cascade is
done; the server replies only after it). The rule sets, event ranking
and batch shapes are constants; ``seed`` draws only the stream, so two
seeds do the same kind of work on different inputs.
"""

from __future__ import annotations

import itertools
import json
import random
import resource
import shutil
import threading
import time
import urllib.request
from collections import Counter
from functools import partial
from pathlib import Path

from repro import Persistent, Reactive, Sentinel, SentinelTransaction, event
from repro.errors import RuleExecutionError
from repro.serving import SentinelClient
from repro.storage import PAGE_SIZE

from .oracle import Model, to_text
from .serveproc import TENANT, TOKEN, ServeProcess

CONTEXTS = ("recent", "chronicle", "continuous", "cumulative")

# -- the event vocabulary of detect.local and rules.churn ------------------


def _reactive_class(name: str) -> type:
    """A reactive class with evented methods ``op0..op3`` (events e0..e3)."""

    def method(index: int):
        def op(self, v):
            return v

        op.__name__ = f"op{index}"
        return event(end=f"e{index}")(op)

    return type(Reactive)(
        name, (Reactive,), {f"op{i}": method(i) for i in range(4)}
    )


EVENT_CLASSES = [_reactive_class(f"K{k}") for k in range(4)]
EXPLICIT_EVENTS = ["x0", "x1", "x2", "x3"]

#: the 20 primitive events, hottest first; event ``RANKED[r]`` is drawn
#: with weight 1/(r+1) (Zipf, s=1). Explicit events sit at ranks 2, 6,
#: 10 and 14 so both kinds of signal carry real traffic.
RANKED = [
    "K0_e0", "K1_e0", "x0", "K2_e0", "K3_e0", "K0_e1", "x1", "K1_e1",
    "K2_e1", "K3_e1", "x2", "K0_e2", "K1_e2", "K2_e2", "x3", "K3_e2",
    "K0_e3", "K1_e3", "K2_e3", "K3_e3",
]
_ZIPF = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(20)))

_R = RANKED
#: six expression shapes; each is ruled on in all four contexts (24
#: rules). Ranks 15-19 feed no rule: events nobody listens to.
SHAPES = {
    "seq": ("seq", _R[0], _R[2]),
    "and": ("and", _R[1], _R[3]),
    "or": ("or", _R[4], _R[9]),
    "not": ("not", _R[5], _R[12], _R[6]),
    "astar": ("astar", _R[7], _R[8], _R[10]),
    "nest": ("and", ("seq", _R[11], _R[13]), _R[14]),
}
STATIC_RULES = {
    f"{shape}_{context}": (expr, context)
    for shape, expr in SHAPES.items()
    for context in CONTEXTS
}

TXN_EVENTS = 100
CHURN_EVERY = 50
CHURN_LIVE = 8
#: churn expressions pair a hot event (rank < 8) with a cooler one
#: (rank 8-15), so none is a (sub)expression of a static rule and a
#: freshly watched composite never inherits pending state; an entry
#: comes round again only after it has been unwatched.
CHURN_POOL = [
    (
        (("seq", "and", "or")[k % 3], _R[k % 8], _R[8 + (k * 3) % 8]),
        CONTEXTS[k % 4],
    )
    for k in range(2 * CHURN_LIVE)
]

_BEGIN, _COMMIT, _EVENT, _CHURN = range(4)


def fresh(directory: Path) -> Path:
    """``directory``, emptied: every set-up starts from nothing."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def _leaves(expr) -> set:
    if isinstance(expr, str):
        return {expr}
    return set().union(*(_leaves(child) for child in expr[1:]))


class Workload:
    """What the runner needs from a workload."""

    name = ""
    why = ""
    #: operations per timed slice at full length
    slice_ops = 0
    #: a run is this many rounds, each on a system built from nothing
    rounds = 5
    #: set-ups timed per round; only the last one is then driven
    setups_per_round = 1
    #: operations one timed call carries
    ops_per_call = 1
    #: whose peak RSS is the program's: this process, or its children
    rusage_who = resource.RUSAGE_SELF

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0,
                 tracer=None, out_dir: Path | None = None):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.slice_ops = max(1, int(self.slice_ops * scale))
        self.tracer = tracer
        self.out_dir = out_dir if out_dir is not None else workdir
        self.attempted = 0
        #: operations that raised or were refused
        self.errors: list = []

    def _wrap(self, name: str, fn, op: bool = False):
        """``fn``, spanned under ``name`` when this run is traced."""
        if self.tracer is None:
            return fn
        return self.tracer.wrap(name, fn, op)

    def setup(self) -> None:
        """From an empty ``workdir`` to ready, one priming operation
        included so lazily built state counts as set-up."""
        raise NotImplementedError

    def prepare_slice(self):
        raise NotImplementedError

    def run_slice(self, payload, latencies: list) -> int:
        raise NotImplementedError

    def finish(self) -> None:
        """Barrier after the last slice, before :meth:`check`."""

    def check(self) -> dict:
        """``{"mismatches": n, ...}``: observed against the oracle."""
        raise NotImplementedError

    def stage_totals(self) -> dict:
        """``stage -> (count, total_ms)`` from the program's own
        ``health()["latency"]`` histograms."""
        raise NotImplementedError

    def teardown(self, quick: bool = False) -> float:
        """Stop everything this workload started; returns the seconds."""
        raise NotImplementedError


def _stage_totals(latency: dict) -> dict:
    return {
        stage: (row["count"], row["count"] * row["mean_ms"])
        for stage, row in latency.items()
    }


class _Engine(Workload):
    """The in-process detector under the 24 static rules."""

    slice_ops = 1000
    #: a set-up is a few milliseconds, so several are timed per round
    setups_per_round = 6
    churn = False
    #: Sentinel() keyword arguments; the workloads use the defaults and
    #: only the layer suite sets any (``metrics=False``)
    options: dict = {}

    def setup(self) -> None:
        self.system = system = Sentinel(**self.options)
        instances = {}
        for cls in EVENT_CLASSES:
            system.register_class(cls)
            instances[cls.__name__] = cls()
        for name in EXPLICIT_EVENTS:
            system.explicit_event(name)
        self.seen, self.fired = Counter(), Counter()
        for shape, expr in SHAPES.items():
            node = system.define(f"ev_{shape}", to_text(expr))
            for context in CONTEXTS:
                rule = f"{shape}_{context}"
                system.rule(
                    rule, node, condition=self._condition(rule),
                    action=self._action(rule), context=context,
                )
        raise_event = self._wrap("core.raise_event", system.raise_event, op=True)
        self.calls = []
        for name in RANKED:
            if name in EXPLICIT_EVENTS:
                call = partial(raise_event, name)
            else:
                owner, _, event_name = name.partition("_e")
                call = self._wrap(
                    "core.notify",
                    getattr(instances[owner], f"op{event_name}"), op=True,
                )
            self.calls.append(call)
        self.begin = self._wrap("transactions.begin", system.begin)
        self.commit = self._wrap("transactions.commit", system.commit)
        self.watch = self._wrap("snoop.watch", system.watch)
        self.unwatch = self._wrap("snoop.unwatch", system.unwatch)
        self.detections = self._wrap("core.detections", system.detections)
        self.txn = None
        self.count = 0
        self.history: list = []
        self.live: list = []
        self.recorded = Counter()
        self.run_slice(self.steps(1), [])

    def _condition(self, rule: str):
        def condition(occurrence) -> bool:
            self.seen[rule] += 1
            return occurrence.params.value("v") % 2 == 0

        return condition

    def _action(self, rule: str):
        def action(occurrence) -> None:
            self.fired[rule] += 1

        return action

    def prepare_slice(self):
        return self.steps(self.slice_ops)

    def steps(self, count: int) -> list:
        ranks = self.rng.choices(range(len(RANKED)), cum_weights=_ZIPF, k=count)
        steps = []
        for rank in ranks:
            v = self.rng.randrange(100)
            index = self.count
            if index % TXN_EVENTS == 0:
                steps.append((_BEGIN,))
                self.history.append((_BEGIN,))
            if self.churn and index and index % CHURN_EVERY == 0:
                steps.append((_CHURN, index // CHURN_EVERY))
                self.history.append((_CHURN, index // CHURN_EVERY))
            steps.append((_EVENT, self.calls[rank], v))
            self.history.append((_EVENT, RANKED[rank], v))
            if index % TXN_EVENTS == TXN_EVENTS - 1:
                steps.append((_COMMIT,))
                self.history.append((_COMMIT,))
            self.count += 1
        return steps

    def run_slice(self, steps, latencies: list) -> int:
        clock = time.perf_counter_ns
        done = 0
        for step in steps:
            kind = step[0]
            if kind == _EVENT:
                start = clock()
                try:
                    step[1](v=step[2])
                except Exception as error:  # noqa: BLE001 — counted as failed
                    self.errors.append(repr(error))
                latencies.append(clock() - start)
                done += 1
            elif kind == _BEGIN:
                self.txn = self.begin()
            elif kind == _COMMIT:
                self.commit(self.txn)
                self.txn = None
            else:
                self._churn_step(step[1])
        self.attempted += done
        return done

    def _churn_step(self, number: int) -> None:
        expr, context = CHURN_POOL[number % len(CHURN_POOL)]
        name = f"churn{number}"
        self.watch(name, to_text(expr), context=context)
        self.live.append(name)
        if len(self.live) > CHURN_LIVE:
            self.unwatch(self.live.pop(0))
        self._tally()

    def _tally(self) -> None:
        for detection in self.detections(clear=True):
            self.recorded[detection["rule"]] += 1

    def finish(self) -> None:
        if self.txn is not None:
            self.commit(self.txn)
            self.txn = None
            self.history.append((_COMMIT,))
        self._tally()

    def check(self) -> dict:
        """Replay the executed stream through one naive model per rule:
        every detection evaluates the condition once (``seen``) and
        fires when the triggering event's ``v`` is even (``fired``);
        a watched churn rule records one summary per detection."""
        models = {
            rule: (Model(expr, context), _leaves(expr))
            for rule, (expr, context) in STATIC_RULES.items()
        }
        live: list = []
        seen, fired = Counter(), Counter()
        by_leaf = self._index(models)
        for at, step in enumerate(self.history):
            kind = step[0]
            if kind == _EVENT:
                _, name, v = step
                for rule, model in by_leaf.get(name, ()):
                    hits = model.feed(name, at)
                    if hits:
                        seen[rule] += hits
                        if v % 2 == 0:
                            fired[rule] += hits
            elif kind == _COMMIT:
                for model, _ in models.values():
                    model.flush()
            elif kind == _CHURN:
                expr, context = CHURN_POOL[step[1] % len(CHURN_POOL)]
                models[f"churn{step[1]}"] = (Model(expr, context), _leaves(expr))
                live.append(f"churn{step[1]}")
                if len(live) > CHURN_LIVE:
                    del models[live.pop(0)]
                by_leaf = self._index(models)
        expected_recorded = Counter(
            {rule: n for rule, n in seen.items() if rule.startswith("churn")}
        )
        expected_seen = Counter(
            {rule: n for rule, n in seen.items() if rule in STATIC_RULES}
        )
        expected_fired = Counter(
            {rule: n for rule, n in fired.items() if rule in STATIC_RULES}
        )
        mismatches = sum(
            _distance(expected, observed)
            for expected, observed in (
                (expected_seen, self.seen),
                (expected_fired, self.fired),
                (expected_recorded, self.recorded),
            )
        )
        return {
            "mismatches": mismatches,
            "events": self.count,
            "detections_expected": sum(expected_seen.values()),
            "detections_observed": sum(self.seen.values()),
            "fires_expected": sum(expected_fired.values()),
            "fires_observed": sum(self.fired.values()),
            "churn_rules": sum(1 for s in self.history if s[0] == _CHURN),
            "churn_detections_expected": sum(expected_recorded.values()),
            "churn_detections_observed": sum(self.recorded.values()),
        }

    @staticmethod
    def _index(models: dict) -> dict:
        by_leaf: dict = {}
        for rule, (model, leaves) in models.items():
            for leaf in leaves:
                by_leaf.setdefault(leaf, []).append((rule, model))
        return by_leaf

    def stage_totals(self) -> dict:
        return _stage_totals(self.system.health()["latency"])

    def teardown(self, quick: bool = False) -> float:
        start = time.perf_counter()
        self.system.close()
        return time.perf_counter() - start


def _distance(expected: Counter, observed: Counter) -> int:
    return sum(
        abs(expected[key] - observed[key])
        for key in set(expected) | set(observed)
    )


class DetectLocal(_Engine):
    name = "detect.local"
    why = ("in-process default Sentinel(): 24 rules over SEQ/AND/OR/NOT/A* "
           "in four contexts on a Zipf stream; core and telemetry do the "
           "work, serving and storage none")


class RulesChurn(_Engine):
    name = "rules.churn"
    why = ("detect.local plus one watch(expression string) and one unwatch "
           "every 50 events: the rule base is written while read, so cost "
           "moved into parse or plan build shows as a loss")
    churn = True


# -- txn.persistent ---------------------------------------------------------

ACCOUNTS = 4000
TOUCHED = 4
VETO_SHARE = 0.05
VETO_LIMIT = 1000
OPENING_BALANCE = 10_000
#: Sentinel's default ``pool_size``
POOL_PAGES = 128
#: pads a stored account to about 370 bytes, which puts 4000 of them on
#: 2.8 times the default buffer pool
MEMO = "m" * 192


class Account(Reactive, Persistent):
    def __init__(self, owner: str, balance: int):
        self.owner = owner
        self.balance = balance
        self.memo = MEMO

    @event(begin="depositing", end="deposited")
    def deposit(self, amount):
        self.balance += amount


class Veto(Exception):
    """Raised by the immediate rule on ``depositing`` over the limit."""


class TxnPersistent(Workload):
    name = "txn.persistent"
    why = ("Sentinel(directory=) with fsync commits: 4 Zipf-chosen persistent "
           "accounts per transaction, an immediate veto rule and a deferred "
           "audit rule; storage, oodb and transactions dominate")
    slice_ops = 100
    #: a set-up is seconds, so fewer rounds
    rounds = 3

    def setup(self) -> None:
        self.system = system = Sentinel(directory=self.workdir / "db")
        events = system.register_class(Account)
        self.audits = 0
        self.audited = 0

        def veto(occurrence) -> None:
            raise Veto(occurrence.params.value("amount"))

        def audit(occurrence) -> None:
            self.audits += 1
            self.audited += sum(occurrence.params.values("amount"))

        system.rule(
            "veto", events["depositing"],
            condition=lambda occ: occ.params.value("amount") > VETO_LIMIT,
            action=veto, priority=100,
        )
        system.rule(
            "audit", events["deposited"], action=audit,
            context="cumulative", coupling="deferred",
        )
        with system.transaction() as txn:
            for index in range(ACCOUNTS):
                txn.persist(
                    Account(f"owner{index}", OPENING_BALANCE),
                    name=f"acct{index}",
                )
        self.begin = self._wrap("transactions.begin", system.begin)
        self.commit = self._wrap("transactions.commit", system.commit)
        self.abort = self._wrap("transactions.abort", system.abort)
        self.lookup = self._wrap("oodb.lookup", SentinelTransaction.lookup)
        self.mark_dirty = self._wrap(
            "oodb.mark_dirty", SentinelTransaction.mark_dirty
        )
        self.deposit = self._wrap("core.method_event", Account.deposit)
        self.transact = self._wrap("op", self._transact, op=True)
        self.balances = [OPENING_BALANCE] * ACCOUNTS
        self.committed = 0
        self.committed_amount = 0
        self.vetoed = 0
        self._zipf = list(
            itertools.accumulate(1.0 / (r + 1) for r in range(ACCOUNTS))
        )
        self.run_slice(self.plans(1), [])

    def prepare_slice(self):
        return self.plans(self.slice_ops)

    def plans(self, count: int) -> list:
        plans = []
        for _ in range(count):
            chosen: list = []
            while len(chosen) < TOUCHED:
                (index,) = self.rng.choices(range(ACCOUNTS), cum_weights=self._zipf)
                if index not in chosen:
                    chosen.append(index)
            amounts = [self.rng.randint(1, 100) for _ in chosen]
            veto = self.rng.random() < VETO_SHARE
            if veto:
                amounts[self.rng.randrange(TOUCHED)] = VETO_LIMIT + 1
            plans.append((chosen, amounts, veto))
        return plans

    def _transact(self, chosen, amounts) -> bool:
        """One transaction; True when it committed, False when vetoed."""
        txn = self.begin()
        try:
            for index, amount in zip(chosen, amounts):
                account = self.lookup(txn, f"acct{index}")
                self.deposit(account, amount)
                self.mark_dirty(txn, account)
        except RuleExecutionError as error:
            self.abort(txn)
            if not isinstance(error.cause, Veto):
                raise
            return False
        self.commit(txn)
        return True

    def run_slice(self, plans, latencies: list) -> int:
        clock = time.perf_counter_ns
        for chosen, amounts, veto in plans:
            start = clock()
            try:
                committed = self.transact(chosen, amounts)
            except Exception as error:  # noqa: BLE001 — counted as failed
                self.errors.append(repr(error))
                latencies.append(clock() - start)
                continue
            latencies.append(clock() - start)
            if committed:
                self.committed += 1
                self.committed_amount += sum(amounts)
                for index, amount in zip(chosen, amounts):
                    self.balances[index] += amount
            else:
                self.vetoed += 1
            if committed == veto:
                # An abort is the expected outcome of a planned veto and
                # of nothing else.
                self.errors.append(f"veto planned={veto} committed={committed}")
        self.attempted += len(plans)
        return len(plans)

    def check(self) -> dict:
        """The audit rule fired once per committed transaction over
        exactly the committed amounts, and every stored balance is the
        opening balance plus the committed deposits (vetoed
        transactions left none behind)."""
        wrong = 0
        with self.system.transaction() as txn:
            for index, balance in enumerate(self.balances):
                if txn.lookup(f"acct{index}").balance != balance:
                    wrong += 1
        mismatches = (
            wrong
            + abs(self.audits - self.committed)
            + (self.audited != self.committed_amount)
        )
        storage = self.system.health()["storage"]
        data_pages = (self.workdir / "db" / "data.db").stat().st_size // PAGE_SIZE
        return {
            "mismatches": mismatches,
            "committed": self.committed,
            "vetoed": self.vetoed,
            "audit_fires": self.audits,
            "balances_wrong": wrong,
            "durability": "fsync (the default)",
            "data_file_pages": data_pages,
            "buffer_pool_pages": POOL_PAGES,
            "buffer_hit_rate": storage["buffer_hit_rate"],
            "buffer_evictions": storage["buffer_evictions"],
        }

    def stage_totals(self) -> dict:
        totals = _stage_totals(self.system.health()["latency"])
        flush = self.system.report().metrics["histograms"].get("wal.flush.ms")
        if flush:
            totals["wal_flush"] = (flush["count"], flush["total_ms"])
        return totals

    def teardown(self, quick: bool = False) -> float:
        start = time.perf_counter()
        self.system.close()
        return time.perf_counter() - start


# -- serve.single / serve.batch ---------------------------------------------

BATCH = 64
POLL_EVERY = 256


class _Served(Workload):
    """One ``repro serve`` subprocess, one tenant, one JSON connection."""

    rusage_who = resource.RUSAGE_CHILDREN

    def setup(self) -> None:
        self.server = ServeProcess(
            self.workdir, self.out_dir / f"serve-{self.name}.log",
            monitor=self.tracer is not None,
        )
        host, port = self.server.start()
        self.client = SentinelClient(
            host, port, tenant=TENANT, token=TOKEN, transport="json"
        )
        self.detected = Counter()
        self.models: dict = {}
        self.expected = Counter()
        self.at = 0
        self.define()
        self.run_slice(self._payload(1), [])

    def define(self) -> None:
        raise NotImplementedError

    def prepare_slice(self):
        return self._payload(self.slice_ops)

    def _feed(self, name: str) -> None:
        for rule, model in self.models.items():
            self.expected[rule] += model.feed(name, self.at)
        self.at += 1

    def check(self) -> dict:
        return {
            "mismatches": _distance(self.expected, self.detected),
            "detections_expected": sum(self.expected.values()),
            "detections_observed": sum(self.detected.values()),
            "tenant": self.client.stats(),
        }

    def stage_totals(self) -> dict:
        url = self.server.monitor_url() + "/health"
        with urllib.request.urlopen(url, timeout=10) as reply:
            return _stage_totals(json.load(reply)["latency"])

    def teardown(self, quick: bool = False) -> float:
        self.client.close()
        return self.server.stop(term_deadline=0.0 if quick else 10.0)


class ServeSingle(_Served):
    name = "serve.single"
    why = ("repro serve subprocess, one raise_event per JSON round trip "
           "against a >> b, detections polled every 256 events: serving "
           "(framing, codec, session hand-off, quota) is most of each op")
    slice_ops = 1024

    def define(self) -> None:
        client = self.client
        client.explicit_event("a")
        client.explicit_event("b")
        client.define("ab", "a >> b")
        client.watch("w", "ab")
        self.models = {"w": Model(("seq", "a", "b"), "recent")}
        self.raise_event = self._wrap(
            "serving.raise_event", client.raise_event, op=True
        )
        self.poll = self._wrap("serving.detections", client.detections)
        self.sent = 0

    def _payload(self, count: int) -> list:
        events = [
            (self.rng.choice("ab"), self.rng.randrange(100)) for _ in range(count)
        ]
        for name, _ in events:
            self._feed(name)
        return events

    def run_slice(self, events, latencies: list) -> int:
        clock = time.perf_counter_ns
        for name, v in events:
            start = clock()
            try:
                self.raise_event(name, v=v)
            except Exception as error:  # noqa: BLE001 — counted as failed
                self.errors.append(repr(error))
            latencies.append(clock() - start)
            self.sent += 1
            if self.sent % POLL_EVERY == 0:
                self._poll()
        self.attempted += len(events)
        return len(events)

    def _poll(self) -> None:
        for detection in self.poll(clear=True):
            self.detected[detection["rule"]] += 1

    def finish(self) -> None:
        self._poll()


class ServeBatch(_Served):
    name = "serve.batch"
    why = ("same server, notify_batch of 64 method events per round trip, "
           "detections pushed by subscribe(): serving amortised 64x, so "
           "core dominates per event and the push path is exercised")
    #: events per slice (32 batches)
    slice_ops = 32 * BATCH
    ops_per_call = BATCH

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.slice_ops = max(BATCH, self.slice_ops // BATCH * BATCH)

    def define(self) -> None:
        client = self.client
        for index in range(4):
            client.primitive_event(f"p{index}", "K", "end", f"m{index}")
        client.watch("w_seq", "p0 >> p1")
        client.watch("w_and", "p2 & p3", context="chronicle")
        self.models = {
            "w_seq": Model(("seq", "p0", "p1"), "recent"),
            "w_and": Model(("and", "p2", "p3"), "chronicle"),
        }
        self._pushed = threading.Lock()
        client.add_detection_listener(self._on_push)
        self.notify_batch = self._wrap(
            "serving.notify_batch", client.notify_batch, op=True
        )

    def _on_push(self, detection: dict) -> None:
        # Runs on the client's reader thread.
        with self._pushed:
            self.detected[detection["rule"]] += 1

    def _payload(self, count: int) -> list:
        batches = []
        for _ in range(max(1, count // BATCH)):
            batch = []
            for _ in range(BATCH):
                index = self.rng.randrange(4)
                self._feed(f"p{index}")
                batch.append(
                    (None, "K", f"m{index}", "end", {"v": self.rng.randrange(100)})
                )
            batches.append(batch)
        return batches

    def run_slice(self, batches, latencies: list) -> int:
        clock = time.perf_counter_ns
        for batch in batches:
            start = clock()
            try:
                self.notify_batch(batch)
            except Exception as error:  # noqa: BLE001 — counted as failed
                self.errors.extend([repr(error)] * BATCH)
            latencies.append(clock() - start)
        done = len(batches) * BATCH
        self.attempted += done
        return done

    def finish(self) -> None:
        """Push frames trail the replies; give the last ones time."""
        wanted = sum(self.expected.values())
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with self._pushed:
                if sum(self.detected.values()) >= wanted:
                    return
            time.sleep(0.01)


WORKLOADS = {
    cls.name: cls
    for cls in (DetectLocal, RulesChurn, TxnPersistent, ServeSingle, ServeBatch)
}
