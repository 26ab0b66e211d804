"""Client teardown races: a dead reader must fail callers fast.

The regression pinned here: when the reader thread dies (server-side
disconnect) it drains the waiters registered *at that moment* — but a
request registered afterwards used to wait out the full client timeout
because nothing was left to signal it. The client now remembers the
terminal connection error and fails new exchanges immediately.
"""

import socket
import threading
import time

import pytest

from repro.errors import ConnectionClosed
from repro.serving import SentinelClient
from repro.serving.protocol import (
    DEFAULT_MAX_FRAME,
    JsonCodec,
    recv_frame,
    send_frame,
)


class StalledServer:
    """A single-connection fake server that answers the hello and then
    follows a script: ``mode="close"`` drops the connection, while
    ``mode="stall"`` swallows every request without ever replying."""

    def __init__(self, mode):
        assert mode in ("close", "stall")
        self.mode = mode
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.port = self._listener.getsockname()[1]
        self._conn = None
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        codec = JsonCodec()
        try:
            conn, __ = self._listener.accept()
        except OSError:
            return
        self._conn = conn
        try:
            hello = recv_frame(conn, codec, DEFAULT_MAX_FRAME)
            send_frame(
                conn,
                {"id": hello.get("id", 0), "ok": True,
                 "result": {"server": "stalled"}},
                codec, DEFAULT_MAX_FRAME,
            )
            if self.mode == "close":
                conn.close()
                return
            while True:  # stall: read and discard, never reply
                recv_frame(conn, codec, DEFAULT_MAX_FRAME)
        except Exception:
            pass

    def close(self):
        for sock in (self._conn, self._listener):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._thread.join(timeout=5)


def test_request_after_reader_death_fails_fast():
    """A call made after the reader thread has died must raise
    ConnectionClosed immediately, not hang for the client timeout."""
    server = StalledServer("close")
    client = SentinelClient("127.0.0.1", server.port, timeout=5.0)
    try:
        # The server dropped the connection right after hello; wait for
        # the reader thread to observe it and die.
        client._reader.join(timeout=5)
        assert not client._reader.is_alive()
        start = time.monotonic()
        with pytest.raises(ConnectionClosed):
            client.ping()
        assert time.monotonic() - start < 2.0, (
            "request silently waited out the client timeout"
        )
    finally:
        client.close()
        server.close()


def test_close_fails_in_flight_request_promptly():
    """``close()`` racing an in-flight request: the parked caller gets
    ConnectionClosed promptly instead of waiting out its timeout."""
    server = StalledServer("stall")
    client = SentinelClient("127.0.0.1", server.port, timeout=30.0)
    errors = []

    def caller():
        try:
            client.ping()
            errors.append(None)
        except Exception as exc:
            errors.append(exc)

    thread = threading.Thread(target=caller, daemon=True)
    thread.start()
    try:
        deadline = time.monotonic() + 10
        while not client._pending and time.monotonic() < deadline:
            time.sleep(0.005)
        assert client._pending  # the request is registered and parked
        client.close()
        thread.join(timeout=5)
        assert not thread.is_alive(), "in-flight caller is still parked"
        assert isinstance(errors[0], ConnectionClosed)
    finally:
        client.close()
        server.close()
