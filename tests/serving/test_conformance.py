"""SentinelAPI conformance: local and remote must be indistinguishable.

Every scenario here is one function written against the
:class:`~repro.serving.api.SentinelAPI` surface only. Each test runs
the same scenario twice — against an in-process
:class:`~repro.sentinel.Sentinel` and against a
:class:`~repro.serving.client.SentinelClient` talking to a server over
loopback — and asserts the results are identical after timestamps are
dropped. Error scenarios assert the *exception type* matches, which
pins the wire protocol's error-code mapping end to end.

Set ``REPRO_SERVE_ADDR`` (plus optional ``REPRO_SERVE_TENANT`` /
``REPRO_SERVE_TOKEN``) to run the remote side against an externally
booted ``python -m repro serve`` instead of the in-process server —
the CI serving job does exactly that. Scenario names are uniqued per
test, so a long-lived shared server works.
"""

import os
import uuid

import pytest

from repro.errors import (
    DuplicateEvent,
    DuplicateRule,
    InvalidEventExpression,
    SentinelError,
    UnknownEvent,
    UnknownRule,
)
from repro.sentinel import Sentinel
from repro.serving import SentinelClient, SentinelServer
from repro.serving.tenancy import Tenant

#: summary keys that legitimately differ between two systems
#: ("trace" because each system mints its own trace ids)
_VOLATILE_KEYS = {"at", "start", "end", "txn_id", "trace"}


def normalize(value):
    """Strip clock-dependent fields so two runs compare equal."""
    if isinstance(value, dict):
        return {
            key: normalize(item)
            for key, item in value.items()
            if key not in _VOLATILE_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [normalize(item) for item in value]
    return value


def make_namer():
    """A per-test name uniquifier (safe on a shared long-lived server)."""
    ns = "c" + uuid.uuid4().hex[:10]

    def n(name: str) -> str:
        return f"{name}_{ns}"

    n.ns = ns
    return n


@pytest.fixture(scope="module")
def served():
    """(address, tenant, token) — external server if configured,
    otherwise an in-process one shared by the module."""
    address = os.environ.get("REPRO_SERVE_ADDR")
    if address:
        yield (
            address,
            os.environ.get("REPRO_SERVE_TENANT", "default"),
            os.environ.get("REPRO_SERVE_TOKEN") or None,
        )
        return
    system = Sentinel(name="conformance")
    server = SentinelServer(
        system, tenants=[Tenant("conf", token="conf-token")]
    ).start()
    try:
        yield (server.address, "conf", "conf-token")
    finally:
        server.close()
        system.close()


@pytest.fixture()
def local():
    system = Sentinel(name="local")
    try:
        yield system
    finally:
        system.close()


@pytest.fixture()
def remote(served):
    address, tenant, token = served
    client = SentinelClient(address, tenant=tenant, token=token)
    try:
        yield client
    finally:
        client.close()


def run_both(local, remote, scenario):
    """The conformance harness: same scenario, same names, both APIs.

    One namer serves both runs — the local system is fresh and the
    remote tenant namespace is otherwise untouched, so identical names
    are what makes the outputs directly comparable.
    """
    namer = make_namer()
    results = {}
    for label, api in (("local", local), ("remote", remote)):
        results[label] = normalize(scenario(api, namer))
    assert results["local"] == results["remote"]
    return results["local"]


def expect_same_error(local, remote, scenario):
    namer = make_namer()
    observed = {}
    for label, api in (("local", local), ("remote", remote)):
        with pytest.raises(SentinelError) as exc_info:
            scenario(api, namer)
        observed[label] = type(exc_info.value)
    assert observed["local"] is observed["remote"]
    return observed["local"]


# =========================================================================
# Detection scenarios — identical summaries on both sides
# =========================================================================

def test_sequence_detection(local, remote):
    def scenario(api, n):
        api.explicit_event(n("deposit"))
        api.explicit_event(n("audit"))
        api.define(n("suspicious"), f"{n('deposit')} >> {n('audit')}")
        api.watch(n("flag"), n("suspicious"))
        api.raise_event(n("deposit"), amount=900)
        api.raise_event(n("audit"), by="cfo")
        return api.detections(n("flag"))

    detections = run_both(local, remote, scenario)
    assert len(detections) == 1
    (hit,) = detections
    assert hit["operator"] == "SEQ"
    assert [c["args"] for c in hit["constituents"]] == [
        {"amount": 900}, {"by": "cfo"},
    ]


def test_conjunction_and_disjunction(local, remote):
    def scenario(api, n):
        for name in ("a", "b", "c"):
            api.explicit_event(n(name))
        api.define(n("both"), f"{n('a')} & {n('b')}")
        api.define(n("either"), f"{n('b')} | {n('c')}")
        api.watch(n("on_both"), n("both"))
        api.watch(n("on_either"), n("either"))
        api.raise_event(n("b"))
        api.raise_event(n("a"))
        return {
            "both": api.detections(n("on_both")),
            "either": api.detections(n("on_either")),
        }

    result = run_both(local, remote, scenario)
    assert len(result["both"]) == 1
    assert len(result["either"]) == 1


def test_watch_accepts_inline_expressions(local, remote):
    def scenario(api, n):
        api.explicit_event(n("x"))
        api.explicit_event(n("y"))
        api.explicit_event(n("z"))
        api.watch(n("combo"), f"({n('x')} | {n('y')}) >> {n('z')}")
        api.raise_events([n("y"), n("z")])
        return api.detections(n("combo"))

    detections = run_both(local, remote, scenario)
    assert len(detections) == 1


def test_raise_events_batch_with_params(local, remote):
    def scenario(api, n):
        api.explicit_event(n("tick"))
        api.watch(n("every"), n("tick"))
        api.raise_events([
            (n("tick"), {"seq": 1}),
            (n("tick"), {"seq": 2}),
            n("tick"),
        ])
        return api.detections(n("every"))

    detections = run_both(local, remote, scenario)
    assert [d["constituents"][0]["args"] for d in detections] == [
        {"seq": 1}, {"seq": 2}, {},
    ]


def test_notify_batch_method_events(local, remote):
    def scenario(api, n):
        api.primitive_event(
            n("stock_set"), n("Inventory"), "end", "set_stock"
        )
        api.watch(n("on_set"), n("stock_set"))
        api.notify_batch([
            (None, n("Inventory"), "set_stock", "end", {"level": 3}),
            (None, n("Inventory"), "set_stock", "end", {"level": 9}),
        ])
        return api.detections(n("on_set"))

    detections = run_both(local, remote, scenario)
    assert [d["constituents"][0]["args"]["level"] for d in detections] == [3, 9]
    # The class name comes back unqualified on both sides.
    assert all(
        d["constituents"][0]["class"].startswith("Inventory_")
        for d in detections
    )
    assert all(
        d["constituents"][0]["method"] == "set_stock" for d in detections
    )


def test_disable_enable_rule(local, remote):
    def scenario(api, n):
        api.explicit_event(n("e"))
        api.watch(n("r"), n("e"))
        api.raise_event(n("e"))
        api.disable_rule(n("r"))
        api.raise_event(n("e"))
        api.enable_rule(n("r"))
        api.raise_event(n("e"))
        return api.detections(n("r"))

    detections = run_both(local, remote, scenario)
    assert len(detections) == 2


def test_detections_clear_consumes(local, remote):
    def scenario(api, n):
        api.explicit_event(n("e"))
        api.watch(n("r"), n("e"))
        api.raise_event(n("e"))
        first = api.detections(n("r"), clear=True)
        after = api.detections(n("r"))
        return {"first": len(first), "after": len(after)}

    assert run_both(local, remote, scenario) == {"first": 1, "after": 0}


def test_unwatch_removes_rule_and_listing(local, remote):
    def scenario(api, n):
        suffix = "_" + n.ns

        def strip(names):
            return [
                name[: -len(suffix)]
                for name in names
                if name.endswith(suffix)
            ]

        api.explicit_event(n("e"))
        api.watch(n("r1"), n("e"))
        api.watch(n("r2"), n("e"))
        api.unwatch(n("r1"))
        return {
            "rules": strip(api.rule_names()),
            "events": strip(api.event_names()),
        }

    result = run_both(local, remote, scenario)
    assert result == {"rules": ["r2"], "events": ["e"]}


def test_chronicle_context(local, remote):
    def scenario(api, n):
        api.explicit_event(n("p"))
        api.explicit_event(n("q"))
        api.watch(
            n("pq"), f"{n('p')} >> {n('q')}", context="chronicle"
        )
        api.raise_event(n("p"), tag="first")
        api.raise_event(n("p"), tag="second")
        api.raise_event(n("q"))
        api.raise_event(n("q"))
        return api.detections(n("pq"))

    detections = run_both(local, remote, scenario)
    # Chronicle pairs occurrences oldest-first without reuse.
    assert [d["constituents"][0]["args"]["tag"] for d in detections] == [
        "first", "second",
    ]


def test_ping_reports_healthy(local, remote):
    for api in (local, remote):
        health = api.ping()
        assert health["healthy"] is True
        assert isinstance(health["name"], str)


# =========================================================================
# Error parity — the same exception type on both sides of the wire
# =========================================================================

def test_unknown_event_parity(local, remote):
    def scenario(api, n):
        api.raise_event(n("never_defined"))

    assert expect_same_error(local, remote, scenario) is UnknownEvent


def test_unknown_event_in_expression_parity(local, remote):
    def scenario(api, n):
        api.explicit_event(n("known"))
        api.define(n("broken"), f"{n('known')} >> {n('ghost')}")

    assert expect_same_error(local, remote, scenario) is UnknownEvent


def test_duplicate_event_parity(local, remote):
    def scenario(api, n):
        api.explicit_event(n("e"))
        api.explicit_event(n("other"))
        api.define(n("e"), n("other"))

    assert expect_same_error(local, remote, scenario) is DuplicateEvent


def test_duplicate_rule_parity(local, remote):
    def scenario(api, n):
        api.explicit_event(n("e"))
        api.watch(n("r"), n("e"))
        api.watch(n("r"), n("e"))

    assert expect_same_error(local, remote, scenario) is DuplicateRule


def test_unknown_rule_parity(local, remote):
    def scenario(api, n):
        api.unwatch(n("no_such_rule"))

    assert expect_same_error(local, remote, scenario) is UnknownRule


def test_enable_unknown_rule_parity(local, remote):
    def scenario(api, n):
        api.enable_rule(n("no_such_rule"))

    assert expect_same_error(local, remote, scenario) is UnknownRule


def test_invalid_expression_parity(local, remote):
    def scenario(api, n):
        api.explicit_event(n("e"))
        api.define(n("bad"), f"{n('e')} >> ")

    assert expect_same_error(
        local, remote, scenario
    ) is InvalidEventExpression


def test_error_messages_speak_the_callers_namespace(remote):
    """Remote error text must not leak the tenant-qualified name."""
    n = make_namer()
    with pytest.raises(UnknownEvent) as exc_info:
        remote.raise_event(n("missing"))
    assert "::" not in str(exc_info.value)
    assert n("missing") in str(exc_info.value)
