"""Trace context across the serving wire.

A client constructed with a telemetry hub opens one ``WireRequest``
span per call and sends its trace/span ids in the request frame's
``ctx`` field; the server adopts them, so server-side lifecycle spans
parent into the client's wire span and one detection renders as a
single connected tree — client, server, detection, rule action — under a
single trace id. Peers that send no context, or malformed context,
must be served exactly as before.
"""

import json
import socket
import struct
import time

import pytest

from repro.sentinel import Sentinel
from repro.serving import SentinelClient, SentinelServer
from repro.serving.protocol import available_transports
from repro.serving.tenancy import Tenant
from repro.telemetry import TelemetryHub, TraceLogProcessor
from repro.telemetry.events import WireRequest


@pytest.fixture()
def system():
    system = Sentinel(name="traced-serve")
    yield system
    system.close()


@pytest.fixture()
def server(system):
    server = SentinelServer(
        system, tenants=[Tenant("t", token="tok")]
    ).start()
    yield server
    server.close()


def traced_client(server, transport="json"):
    hub = TelemetryHub()
    trace = hub.attach(TraceLogProcessor())
    client = SentinelClient(
        "127.0.0.1", server.port, tenant="t", token="tok",
        transport=transport, telemetry=hub,
    )
    return client, trace


def single_root(events):
    """The roots of a combined span forest (parent not in the set)."""
    ids = {event.span_id for event in events}
    return [e for e in events if e.parent_span_id not in ids]


@pytest.mark.parametrize(
    "transport",
    ["json", pytest.param(
        "msgpack",
        marks=pytest.mark.skipif(
            "msgpack" not in available_transports(),
            reason="msgpack not installed",
        ),
    )],
)
def test_detection_is_one_tree_across_the_wire(system, server, transport):
    """The acceptance test: client call -> server ingest -> detection ->
    rule action is a single connected tree under a single trace id."""
    server_trace = system.telemetry.attach(TraceLogProcessor())
    client, client_trace = traced_client(server, transport)
    try:
        client.primitive_event("p1", "Alpha", "end", "ping")
        client.primitive_event("p2", "Beta", "end", "pong")
        client.define("both", "p1 & p2")
        client.watch("w", "both")
        client.notify_batch([
            (None, "Alpha", "ping", "end", {}),
            (None, "Beta", "pong", "end", {}),
        ])
        (detection,) = client.detections("w")
        trace_id = detection["trace"]

        client_events = [
            e for e in client_trace.events() if e.trace_id == trace_id
        ]
        server_events = server_trace.for_trace(trace_id)
        assert client_events and server_events
        combined = client_events + server_events
        assert {e.trace_id for e in combined} == {trace_id}

        roots = single_root(combined)
        assert len(roots) == 1
        assert isinstance(roots[0], WireRequest)
        stages = {type(e).__name__ for e in combined}
        assert {"WireRequest", "BatchIngested", "RuleExecution"} <= stages
    finally:
        client.close()


def test_every_call_opens_a_wire_span(system, server):
    client, client_trace = traced_client(server)
    try:
        client.ping()
        client.explicit_event("e")
        wire = [e for e in client_trace.events() if isinstance(e, WireRequest)]
        assert [w.op for w in wire] == ["ping", "explicit_event"]
        assert all(w.ok for w in wire)
        assert all(w.duration_ms > 0 for w in wire)
        assert len({w.trace_id for w in wire}) == 2  # one trace per call
    finally:
        client.close()


def test_failed_call_marks_the_span(system, server):
    from repro.errors import UnknownEvent

    client, client_trace = traced_client(server)
    try:
        with pytest.raises(UnknownEvent):
            client.raise_event("never-defined")
        (wire,) = [
            e for e in client_trace.events() if isinstance(e, WireRequest)
        ]
        assert wire.op == "raise_event" and wire.ok is False
    finally:
        client.close()


def test_push_frames_carry_the_originating_trace(system, server):
    client, __ = traced_client(server)
    try:
        client.explicit_event("e")
        client.watch("w", "e")
        got = []
        client.add_detection_listener(got.append)
        client.raise_event("e")
        deadline = time.monotonic() + 5.0
        while not got and time.monotonic() < deadline:
            time.sleep(0.01)
        assert got and got[0]["trace"]
        assert got[0]["trace"] == client.detections("w")[0]["trace"]
    finally:
        client.close()


def test_client_without_hub_sends_no_ctx(system, server):
    """The default client is unchanged: no spans, no ctx, no stamps
    beyond the server's own."""
    client = SentinelClient(
        "127.0.0.1", server.port, tenant="t", token="tok"
    )
    try:
        assert client.telemetry is None
        client.explicit_event("e")
        client.watch("w", "e")
        client.raise_event("e")
        (detection,) = client.detections("w")
        # The server still stamps its own trace (its hub is active).
        assert "trace" in detection
    finally:
        client.close()


class TestMalformedContext:
    """A hostile or buggy peer's ctx must never break a request."""

    def raw_call(self, server, ctx) -> dict:
        sock = socket.create_connection(("127.0.0.1", server.port), 5.0)
        try:
            def send(frame):
                body = json.dumps(frame).encode()
                sock.sendall(struct.pack(">I", len(body)) + body)

            def recv():
                size = struct.unpack(">I", self._read(sock, 4))[0]
                return json.loads(self._read(sock, size))

            send({"id": 0, "op": "hello",
                  "args": {"tenant": "t", "token": "tok",
                           "protocol": 1, "transport": "json"}})
            assert recv()["ok"]
            request = {"id": 1, "op": "ping", "args": {}}
            if ctx is not ...:
                request["ctx"] = ctx
            send(request)
            return recv()
        finally:
            sock.close()

    @staticmethod
    def _read(sock, n) -> bytes:
        data = b""
        while len(data) < n:
            chunk = sock.recv(n - len(data))
            assert chunk, "connection closed mid-frame"
            data += chunk
        return data

    @pytest.mark.parametrize("ctx", [
        ...,                                # no ctx at all
        None,
        "not-a-dict",
        [],
        {},                                 # missing trace
        {"trace": 17},                      # non-string trace
        {"trace": ""},                      # empty trace
        {"trace": "abc", "span": "NaN"},    # non-int span
        {"trace": "abc", "span": True},     # bool is not a span id
        {"trace": "abc", "span": None},
    ], ids=["absent", "null", "string", "list", "empty", "int-trace",
            "empty-trace", "str-span", "bool-span", "null-span"])
    def test_graceful_fallback(self, system, server, ctx):
        reply = self.raw_call(server, ctx)
        assert reply["ok"] is True
        assert reply["result"]["healthy"] is True

    def test_valid_ctx_adopts_the_trace(self, system, server):
        server_trace = system.telemetry.attach(TraceLogProcessor())
        sock = socket.create_connection(("127.0.0.1", server.port), 5.0)
        try:
            def send(frame):
                body = json.dumps(frame).encode()
                sock.sendall(struct.pack(">I", len(body)) + body)

            def recv():
                size = struct.unpack(">I", self._read(sock, 4))[0]
                return json.loads(self._read(sock, size))

            send({"id": 0, "op": "hello",
                  "args": {"tenant": "t", "token": "tok",
                           "protocol": 1, "transport": "json"}})
            assert recv()["ok"]
            send({"id": 1, "op": "explicit_event", "args": {"name": "e"},
                  "ctx": {"trace": "feedfacefeedface", "span": 424242}})
            assert recv()["ok"]
            send({"id": 2, "op": "raise_event",
                  "args": {"name": "e", "params": {}},
                  "ctx": {"trace": "feedfacefeedface", "span": 424243}})
            assert recv()["ok"]
        finally:
            sock.close()
        adopted = server_trace.for_trace("feedfacefeedface")
        assert adopted
        assert {e.parent_span_id for e in adopted} & {424242, 424243}


class TestServingHealthSlice:
    def test_health_shows_the_serving_slice(self, system, server):
        health = system.health()
        assert health["serving"]["address"] == server.address
        assert health["serving"]["draining"] is False
        assert health["serving"]["connections"] == 0

    def test_draining_is_visible_mid_shutdown(self, system, server):
        # close() flips _closing first, then drains, then unregisters
        # the slice; mid-drain health must show draining=True.
        server._closing.set()
        try:
            assert system.health()["serving"]["draining"] is True
        finally:
            server._closing.clear()

    def test_slice_is_removed_after_close(self, system, server):
        server.close()
        assert "serving" not in system.health()
