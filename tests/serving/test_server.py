"""Multi-tenant server behavior: isolation, auth, quotas, robustness."""

import socket
import struct
import threading
import time
import urllib.request

import pytest

from repro.errors import (
    AuthenticationError,
    ConnectionClosed,
    ProtocolError,
    QuotaExceeded,
    UnknownEvent,
    UnknownRule,
)
from repro.sentinel import Sentinel
from repro.serving import SentinelClient, SentinelServer
from repro.serving.protocol import JsonCodec, recv_frame, send_frame
from repro.serving.tenancy import Tenant, TenantQuota


@pytest.fixture()
def system():
    system = Sentinel(name="served")
    try:
        yield system
    finally:
        system.close()


def make_server(system, *tenants, **kwargs):
    return SentinelServer(system, tenants=list(tenants), **kwargs).start()


def client(server, tenant, token):
    return SentinelClient(
        "127.0.0.1", server.port, tenant=tenant, token=token, timeout=10.0
    )


@pytest.fixture()
def pair(system):
    """A server with two authenticated tenants and a client for each."""
    server = make_server(
        system,
        Tenant("alpha", token="a-tok"),
        Tenant("beta", token="b-tok"),
    )
    alpha = client(server, "alpha", "a-tok")
    beta = client(server, "beta", "b-tok")
    try:
        yield server, alpha, beta
    finally:
        alpha.close()
        beta.close()
        server.close()


# =========================================================================
# Tenant isolation
# =========================================================================

def test_tenants_have_disjoint_namespaces(pair):
    server, alpha, beta = pair
    alpha.explicit_event("e")
    alpha.watch("r", "e")
    # Same names, no conflict — and beta's rule is beta's alone.
    beta.explicit_event("e")
    beta.watch("r", "e")
    alpha.raise_event("e")
    assert len(alpha.detections("r")) == 1
    assert beta.detections("r") == []
    beta.raise_event("e")
    assert len(alpha.detections("r")) == 1
    assert len(beta.detections("r")) == 1


def test_tenant_cannot_reference_other_tenants_events(pair):
    server, alpha, beta = pair
    alpha.explicit_event("private_event")
    with pytest.raises(UnknownEvent):
        beta.raise_event("private_event")
    with pytest.raises(UnknownEvent):
        beta.watch("spy", "private_event")
    with pytest.raises(UnknownRule):
        beta.unwatch("r")  # not defined for beta even if alpha has one


def test_tenant_listings_are_scoped(pair):
    server, alpha, beta = pair
    alpha.explicit_event("a1")
    alpha.watch("ra", "a1")
    beta.explicit_event("b1")
    assert alpha.event_names() == ["a1"]
    assert beta.event_names() == ["b1"]
    assert alpha.rule_names() == ["ra"]
    assert beta.rule_names() == []


def test_primitive_method_events_are_tenant_scoped(pair):
    server, alpha, beta = pair
    alpha.primitive_event("set_evt", "Stock", "end", "set_level")
    alpha.watch("on_set", "set_evt")
    beta.primitive_event("set_evt", "Stock", "end", "set_level")
    # Beta notifying its "Stock" class never reaches alpha's rule.
    beta.notify_batch([(None, "Stock", "set_level", "end", {"v": 1})])
    assert alpha.detections("on_set") == []


def test_names_with_namespace_separator_are_rejected(pair):
    server, alpha, _ = pair
    with pytest.raises(ProtocolError):
        alpha.explicit_event("beta::sneaky")
    with pytest.raises(ProtocolError):
        alpha.raise_event("beta::e")


def test_detection_pushes_stay_within_tenant(pair):
    server, alpha, beta = pair
    alpha.explicit_event("e")
    alpha.watch("r", "e")
    beta.explicit_event("e")
    beta.watch("r", "e")
    alpha_hits, beta_hits = [], []
    alpha.add_detection_listener(alpha_hits.append)
    beta.add_detection_listener(beta_hits.append)
    alpha.raise_event("e")

    deadline = time.time() + 5
    while not alpha_hits and time.time() < deadline:
        time.sleep(0.01)
    assert alpha_hits and alpha_hits[0]["rule"] == "r"
    time.sleep(0.05)  # beta must stay silent
    assert beta_hits == []


# =========================================================================
# Authentication
# =========================================================================

def test_wrong_token_is_rejected(system):
    server = make_server(system, Tenant("alpha", token="secret"))
    try:
        with pytest.raises(AuthenticationError):
            client(server, "alpha", "wrong")
        with pytest.raises(AuthenticationError):
            client(server, "alpha", None)
        with pytest.raises(AuthenticationError):
            client(server, "nobody", "secret")
        # The failures above did not poison the endpoint.
        good = client(server, "alpha", "secret")
        assert good.ping()["healthy"] is True
        good.close()
    finally:
        server.close()


def test_requests_before_hello_are_rejected(system):
    server = make_server(system, Tenant("alpha", token="secret"))
    codec = JsonCodec()
    try:
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        sock.settimeout(5)
        send_frame(sock, {"id": 1, "op": "ping", "args": {}}, codec)
        reply = recv_frame(sock, codec)
        assert reply["ok"] is False
        assert reply["type"] == "AuthenticationError"
        sock.close()
    finally:
        server.close()


def test_open_default_tenant_when_none_configured(system):
    server = SentinelServer(system).start()
    try:
        c = SentinelClient("127.0.0.1", server.port)  # no token needed
        c.explicit_event("e")
        c.watch("r", "e")
        c.raise_event("e")
        assert len(c.detections("r")) == 1
        c.close()
    finally:
        server.close()


# =========================================================================
# Quotas
# =========================================================================

def test_event_rate_quota_is_enforced_and_isolated(system):
    clock_value = [0.0]
    throttled = Tenant(
        "throttled", token="t",
        quota=TenantQuota(events_per_sec=10, burst=5),
        clock=lambda: clock_value[0],
    )
    server = make_server(system, throttled, Tenant("free", token="f"))
    t = client(server, "throttled", "t")
    f = client(server, "free", "f")
    try:
        t.explicit_event("e")
        t.watch("r", "e")
        f.explicit_event("e")
        f.watch("r", "e")
        for _ in range(5):  # burst allows exactly five
            t.raise_event("e")
        with pytest.raises(QuotaExceeded):
            t.raise_event("e")
        # The rejection is structured, the connection stays usable, and
        # the other tenant is completely unaffected.
        for _ in range(20):
            f.raise_event("e")
        assert len(f.detections("r")) == 20
        assert len(t.detections("r")) == 5
        # Refill restores service for the throttled tenant.
        clock_value[0] += 1.0
        t.raise_event("e")
        assert len(t.detections("r")) == 6
        stats = t.stats()
        assert stats["quota_rejections"] == 1
        assert f.stats()["quota_rejections"] == 0
    finally:
        t.close()
        f.close()
        server.close()


def test_batches_charge_their_length(system):
    clock_value = [0.0]
    tenant = Tenant(
        "bulk", token="t",
        quota=TenantQuota(events_per_sec=10, burst=10),
        clock=lambda: clock_value[0],
    )
    server = make_server(system, tenant)
    c = client(server, "bulk", "t")
    try:
        c.explicit_event("e")
        with pytest.raises(QuotaExceeded):
            c.raise_events(["e"] * 11)
        # An over-quota batch is rejected atomically: nothing ingested.
        c.watch("r", "e")
        assert c.detections("r") == []
        assert c.raise_events(["e"] * 10) and len(c.detections("r")) == 10
    finally:
        c.close()
        server.close()


def test_max_rules_quota(system):
    server = make_server(
        system, Tenant("small", token="t", quota=TenantQuota(max_rules=2))
    )
    c = client(server, "small", "t")
    try:
        c.explicit_event("e")
        c.watch("r1", "e")
        c.watch("r2", "e")
        with pytest.raises(QuotaExceeded):
            c.watch("r3", "e")
        # unwatch releases quota
        c.unwatch("r1")
        c.watch("r3", "e")
        assert c.stats()["rules"] == 2
    finally:
        c.close()
        server.close()


def test_failed_watch_does_not_consume_rule_quota(system):
    server = make_server(
        system, Tenant("small", token="t", quota=TenantQuota(max_rules=1))
    )
    c = client(server, "small", "t")
    try:
        with pytest.raises(UnknownEvent):
            c.watch("r", "ghost_event")
        c.explicit_event("e")
        c.watch("r", "e")  # the slot is still free
        assert c.stats()["rules"] == 1
    finally:
        c.close()
        server.close()


# =========================================================================
# Metrics
# =========================================================================

def test_per_tenant_metrics_on_the_monitor_endpoint(pair):
    server, alpha, beta = pair
    system = server.system
    alpha.explicit_event("e")
    alpha.watch("r", "e")
    alpha.raise_event("e")
    beta.explicit_event("e")

    monitor = system.monitor(port=0, spans=False, profile=False)
    body = urllib.request.urlopen(
        f"{monitor.url}/metrics", timeout=5
    ).read().decode()
    assert 'sentinel_tenant_events_total{tenant="alpha"} 1' in body
    assert 'sentinel_tenant_events_total{tenant="beta"} 0' in body
    assert 'sentinel_tenant_detections_total{tenant="alpha"} 1' in body
    assert 'sentinel_tenant_rules{tenant="alpha"} 1' in body
    assert 'sentinel_tenant_quota_rejections_total{tenant="alpha"} 0' in body
    assert "sentinel_serving_connections 2" in body


def test_quota_rejections_metric_increments(system):
    server = make_server(
        system, Tenant("t", token="t", quota=TenantQuota(max_rules=0))
    )
    c = client(server, "t", "t")
    try:
        c.explicit_event("e")
        with pytest.raises(QuotaExceeded):
            c.watch("r", "e")
        lines = server.metric_lines()
        assert 'sentinel_tenant_quota_rejections_total{tenant="t"} 1' in lines
    finally:
        c.close()
        server.close()


def test_server_detaches_metrics_provider_on_close(system):
    server = make_server(system, Tenant("t", token="t"))
    assert server.metric_lines in system.extra_metric_providers
    server.close()
    assert server.metric_lines not in system.extra_metric_providers


# =========================================================================
# Robustness: malformed frames, oversized frames, dying clients
# =========================================================================

def hello(sock, codec, tenant="alpha", token="a-tok"):
    send_frame(sock, {
        "id": 0, "op": "hello",
        "args": {"tenant": tenant, "token": token,
                 "protocol": 1, "transport": "json"},
    }, codec)
    reply = recv_frame(sock, codec)
    assert reply["ok"], reply
    return reply


def test_malformed_body_gets_error_and_connection_survives(pair):
    server, alpha, _ = pair
    codec = JsonCodec()
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    sock.settimeout(5)
    hello(sock, codec)
    # A complete frame whose body is not JSON: error response, but the
    # stream stays framed and the next request still works.
    bad = b"this is not json"
    sock.sendall(struct.pack(">I", len(bad)) + bad)
    reply = recv_frame(sock, codec)
    assert reply["ok"] is False and reply["type"] == "ProtocolError"
    send_frame(sock, {"id": 5, "op": "ping", "args": {}}, codec)
    reply = recv_frame(sock, codec)
    assert reply["ok"] is True and reply["id"] == 5
    sock.close()


def test_oversized_frame_is_rejected_then_connection_closed(system):
    server = make_server(
        system, Tenant("alpha", token="a-tok"), max_frame=4096
    )
    codec = JsonCodec()
    try:
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        sock.settimeout(5)
        hello(sock, codec)
        sock.sendall(struct.pack(">I", 1 << 20))  # header promising 1 MiB
        reply = recv_frame(sock, codec)
        assert reply["ok"] is False and reply["type"] == "FrameTooLarge"
        # The stream is unrecoverable past the lying header: closed.
        with pytest.raises(ConnectionClosed):
            recv_frame(sock, codec)
        sock.close()
        # The endpoint itself is fine.
        c = client(server, "alpha", "a-tok")
        assert c.ping()["healthy"] is True
        c.close()
    finally:
        server.close()


def test_abrupt_disconnect_mid_batch_leaves_other_tenants_served(pair):
    server, alpha, beta = pair
    beta.explicit_event("e")
    beta.watch("r", "e")
    codec = JsonCodec()
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    sock.settimeout(5)
    hello(sock, codec)
    # Send a frame header and half a large batch body, then vanish.
    body = codec.encode({
        "id": 9, "op": "raise_events",
        "args": {"events": ["never_defined"] * 500},
    })
    sock.sendall(struct.pack(">I", len(body)) + body[: len(body) // 2])
    sock.close()
    # The other tenant sees zero disturbance.
    for _ in range(10):
        beta.raise_event("e")
    assert len(beta.detections("r")) == 10
    deadline = time.time() + 5
    while server.connections() > 2 and time.time() < deadline:
        time.sleep(0.01)
    assert server.connections() == 2  # just the two fixture clients


def test_unknown_op_is_a_protocol_error(pair):
    server, alpha, _ = pair
    codec = JsonCodec()
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    sock.settimeout(5)
    hello(sock, codec)
    send_frame(sock, {"id": 1, "op": "launch_missiles", "args": {}}, codec)
    reply = recv_frame(sock, codec)
    assert reply["ok"] is False and reply["type"] == "ProtocolError"
    sock.close()


def test_concurrent_clients_one_tenant(system):
    """Many connections of one tenant hammer the shared detector."""
    server = make_server(system, Tenant("alpha", token="a-tok"))
    setup = client(server, "alpha", "a-tok")
    setup.explicit_event("e")
    setup.watch("r", "e")
    errors: list = []

    def worker():
        try:
            c = client(server, "alpha", "a-tok")
            for _ in range(25):
                c.raise_event("e")
            c.close()
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    try:
        assert errors == []
        assert len(setup.detections("r")) == 100
        assert setup.stats()["events"] == 100
    finally:
        setup.close()
        server.close()


# =========================================================================
# Shutdown
# =========================================================================

def test_close_drains_in_flight_and_stops_serving(pair):
    server, alpha, _ = pair
    alpha.explicit_event("e")
    alpha.watch("r", "e")
    alpha.raise_event("e")
    server.close()
    # New connections are refused...
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", server.port), timeout=1)
    # ...and the old connection reports closure, not a hang.
    with pytest.raises(ConnectionClosed):
        alpha.ping()


def test_close_is_idempotent(system):
    server = make_server(system, Tenant("t", token="t"))
    server.close()
    server.close()


def test_close_with_idle_client_returns_promptly(system):
    """The accept thread sits in accept() while a client idles; close()
    must wake it rather than wait out the drain timeout."""
    server = make_server(system, Tenant("t", token="t"))
    idle = client(server, "t", "t")
    try:
        assert server.connections() == 1
        accept_thread = server._accept_thread
        start = time.perf_counter()
        server.close()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"close() took {elapsed:.2f}s"
        assert not accept_thread.is_alive()
    finally:
        idle.close()
