"""The thin remote implementation of :class:`SentinelAPI`.

:class:`SentinelClient` opens one TCP connection, speaks the
length-prefixed protocol (:mod:`repro.serving.protocol`), and maps each
API method onto one request/response exchange. A background reader
thread demultiplexes the stream: response frames wake the caller
waiting on that request id, push frames (detection notifications after
:meth:`subscribe`) go to the ``notifications`` deque and any registered
listeners.

Pass a :class:`~repro.telemetry.hub.TelemetryHub` via ``telemetry=``
and every call becomes a ``WireRequest`` span whose trace/span ids ride
the request frame's ``ctx`` field; a trace-aware server adopts them, so
server-side detection spans parent into the client's wire span and the
detection summaries (and push frames) carry the originating trace id
back in their ``"trace"`` key.

Error parity is the point: a server-side failure comes back as a
registry code and the client re-raises the *same* exception class a
local :class:`~repro.sentinel.Sentinel` would have raised —
``UnknownEvent`` is ``UnknownEvent`` on both sides of the wire. The
conformance suite pins this.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Iterable, List, Optional

from repro.errors import (
    ConnectionClosed,
    ProtocolError,
    exception_for,
)
from repro.serving.api import DetectionListener, SentinelAPI
from repro.serving.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    get_codec,
    recv_frame,
    send_frame,
)

if TYPE_CHECKING:
    from repro.telemetry.hub import TelemetryHub


class _Waiter:
    """One in-flight request: the caller parks here until its reply."""

    __slots__ = ("ready", "frame", "error")

    def __init__(self):
        self.ready = threading.Event()
        self.frame: Optional[dict] = None
        self.error: Optional[Exception] = None


class SentinelClient(SentinelAPI):
    """A remote Sentinel system, used exactly like a local one."""

    def __init__(
        self,
        host: str,
        port: Optional[int] = None,
        *,
        tenant: str = "default",
        token: Optional[str] = None,
        timeout: float = 10.0,
        transport: str = "json",
        max_frame: int = DEFAULT_MAX_FRAME,
        telemetry: Optional["TelemetryHub"] = None,
    ):
        if port is None:
            host, _, port_text = host.rpartition(":")
            if not host or not port_text.isdigit():
                raise ProtocolError(
                    "address must be host:port when no port is given"
                )
            port = int(port_text)
        self.tenant = tenant
        self.timeout = timeout
        self.max_frame = max_frame
        #: optional hub: when active, calls open WireRequest spans and
        #: request frames carry the trace context (see module docs)
        self.telemetry = telemetry
        #: push notifications received after subscribe(), oldest first
        self.notifications: deque = deque(maxlen=4096)
        self._listeners: List[DetectionListener] = []
        self._codec = get_codec("json")
        self._next_id = 1
        self._pending: dict = {}
        self._state_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._closed = False
        #: terminal connection error, set (under the state lock) when
        #: the reader thread dies; exchanges registered *after* that
        #: moment fail immediately instead of waiting out the timeout
        self._conn_error: Optional[Exception] = None
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # The hello exchange runs synchronously before the reader thread
        # exists, so the codec switch cannot race a concurrent read.
        self.server_info = self._hello(tenant, token, transport)
        self._sock.settimeout(None)
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"sentinel-client:{tenant}@{host}:{port}",
            daemon=True,
        )
        self._reader.start()

    # -- wire plumbing -----------------------------------------------------

    def _hello(self, tenant: str, token: Optional[str],
               transport: str) -> dict:
        request = {
            "id": 0,
            "op": "hello",
            "args": {
                "tenant": tenant,
                "token": token,
                "protocol": PROTOCOL_VERSION,
                "transport": transport,
            },
        }
        send_frame(self._sock, request, self._codec, self.max_frame)
        reply = recv_frame(self._sock, self._codec, self.max_frame)
        if not reply.get("ok"):
            error = exception_for(
                reply.get("code", 1), reply.get("error", "hello failed")
            )
            self._teardown()
            raise error
        self._codec = get_codec(transport)
        return reply.get("result") or {}

    def _read_loop(self) -> None:
        try:
            while True:
                frame = recv_frame(self._sock, self._codec, self.max_frame)
                if "push" in frame:
                    self._on_push(frame)
                    continue
                with self._state_lock:
                    waiter = self._pending.pop(frame.get("id"), None)
                if waiter is not None:
                    waiter.frame = frame
                    waiter.ready.set()
        except (ConnectionClosed, ProtocolError, OSError) as error:
            self._fail_pending(error)
        except Exception as error:  # noqa: BLE001 — surface, don't vanish
            self._fail_pending(error)

    def _fail_pending(self, error: Exception) -> None:
        closed = error if isinstance(error, ConnectionClosed) else (
            ConnectionClosed(f"connection lost: {error}")
        )
        with self._state_lock:
            # Record the terminal error in the same critical section
            # that drains the waiters: a waiter registering concurrently
            # either lands in _pending (drained below) or observes
            # _conn_error in _exchange — it can never slip between.
            self._conn_error = closed
            waiters = list(self._pending.values())
            self._pending.clear()
        for waiter in waiters:
            waiter.error = closed
            waiter.ready.set()

    def _on_push(self, frame: dict) -> None:
        if frame.get("push") != "detection":
            return
        detection = frame.get("detection")
        if not isinstance(detection, dict):
            return
        self.notifications.append(detection)
        for listener in list(self._listeners):
            try:
                listener(detection)
            except Exception:  # noqa: BLE001 — listener bugs stay local
                pass

    def _call(self, op: str, **args: Any):
        hub = self.telemetry
        if hub is None or not hub.active:
            return self._exchange(op, args, None)
        from repro.telemetry.events import WireRequest

        with hub.span(WireRequest, op=op) as span:
            try:
                result = self._exchange(op, args, span)
            except BaseException:
                span.set(ok=False)
                raise
            return result

    def _exchange(self, op: str, args: dict, span) -> Any:
        with self._state_lock:
            if self._closed:
                raise ConnectionClosed("client is closed")
            if self._conn_error is not None:
                raise self._conn_error
            request_id = self._next_id
            self._next_id += 1
            waiter = _Waiter()
            self._pending[request_id] = waiter
        request = {"id": request_id, "op": op, "args": args}
        if span is not None:
            request["ctx"] = {"trace": span.trace_id, "span": span.span_id}
        try:
            with self._send_lock:
                send_frame(self._sock, request, self._codec, self.max_frame)
        except BaseException as exc:
            with self._state_lock:
                self._pending.pop(request_id, None)
            if isinstance(exc, OSError):
                raise ConnectionClosed(f"send failed: {exc}") from exc
            raise
        if not waiter.ready.wait(self.timeout):
            with self._state_lock:
                self._pending.pop(request_id, None)
            raise ConnectionClosed(
                f"no reply to {op!r} within {self.timeout:g}s"
            )
        if waiter.error is not None:
            raise waiter.error
        frame = waiter.frame or {}
        if frame.get("ok"):
            return frame.get("result")
        raise exception_for(
            frame.get("code", 1), frame.get("error", f"{op} failed")
        )

    @property
    def async_lane(self) -> bool:
        """Whether the server supports ``watch(executor="async")``
        (advertised in the hello exchange; False for older servers)."""
        return bool(self.server_info.get("async_lane", False))

    # -- SentinelAPI: event definition -------------------------------------

    def explicit_event(self, name: str) -> str:
        return self._call("explicit_event", name=name)

    def primitive_event(self, name: str, class_or_instance: Any,
                        modifier: str, method_name: str,
                        snapshot_state: bool = False) -> str:
        if not isinstance(class_or_instance, str):
            raise ProtocolError(
                "remote primitive_event takes a class *name* string "
                "(object identity does not cross the wire)"
            )
        return self._call(
            "primitive_event",
            name=name,
            class_name=class_or_instance,
            modifier=modifier,
            method_name=method_name,
            snapshot_state=snapshot_state,
        )

    def define(self, name: str, event: Any) -> str:
        if not isinstance(event, str):
            raise ProtocolError(
                "remote define takes an expression string, e.g. 'a >> b'"
            )
        return self._call("define", name=name, expr=event)

    def event_names(self) -> list:
        return self._call("event_names")

    # -- SentinelAPI: watched rules ----------------------------------------

    def watch(self, name: str, event: Any, *, context: str = "recent",
              coupling: str = "immediate", priority: int = 1,
              executor: str = "sync") -> str:
        if not isinstance(event, str):
            raise ProtocolError(
                "remote watch takes an event name or expression string"
            )
        return self._call(
            "watch", name=name, event=event, context=context,
            coupling=coupling, priority=priority, executor=executor,
        )

    def unwatch(self, name: str) -> None:
        self._call("unwatch", name=name)

    def enable_rule(self, name: str) -> None:
        self._call("enable_rule", name=name)

    def disable_rule(self, name: str) -> None:
        self._call("disable_rule", name=name)

    def rule_names(self) -> list:
        return self._call("rule_names")

    # -- SentinelAPI: ingestion --------------------------------------------

    def raise_event(self, name: str, **params: Any) -> dict:
        return self._call("raise_event", name=name, params=params)

    def raise_events(self, events: Iterable) -> list:
        wire_events = []
        for item in events:
            if isinstance(item, str):
                wire_events.append(item)
            elif isinstance(item, (list, tuple)) and len(item) == 2:
                wire_events.append([item[0], dict(item[1])])
            else:
                raise ProtocolError(
                    "each event must be a name or a (name, params) pair"
                )
        return self._call("raise_events", events=wire_events)

    def notify_batch(self, items: Iterable) -> list:
        wire_items = []
        for item in items:
            parts = list(item)
            if not 4 <= len(parts) <= 5:
                raise ProtocolError(
                    "each item must be (instance, class_name, method_name, "
                    "modifier[, arguments])"
                )
            if parts[0] is not None:
                raise ProtocolError(
                    "remote notify_batch items must carry instance=None "
                    "(object identity does not cross the wire)"
                )
            if len(parts) == 5 and parts[4] is not None:
                parts[4] = dict(parts[4])
            wire_items.append(parts)
        return self._call("notify_batch", items=wire_items)

    # -- SentinelAPI: detections -------------------------------------------

    def detections(self, rule: Optional[str] = None, *,
                   clear: bool = False) -> list:
        return self._call("detections", rule=rule, clear=clear)

    def add_detection_listener(self, listener: DetectionListener) -> None:
        """Register a live-detection callback; implies :meth:`subscribe`."""
        self._listeners.append(listener)
        self.subscribe()

    def remove_detection_listener(self, listener: DetectionListener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def subscribe(self, rules: Optional[Iterable[str]] = None) -> dict:
        """Start receiving detection pushes (all rules, or just some)."""
        return self._call(
            "subscribe", rules=None if rules is None else list(rules)
        )

    def unsubscribe(self) -> dict:
        return self._call("unsubscribe")

    # -- SentinelAPI: lifecycle --------------------------------------------

    def ping(self) -> dict:
        return self._call("ping")

    def stats(self) -> dict:
        """This tenant's server-side counters and quota standing."""
        return self._call("stats")

    def close(self) -> None:
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._call_nowait_bye()
        finally:
            self._teardown()
            # The shutdown socket wakes the reader, which drains the
            # waiters itself — but drain here too so an in-flight
            # request gets ConnectionClosed even if the reader was
            # already gone when it registered.
            self._fail_pending(ConnectionClosed("client is closed"))
            if self._reader is not None:
                self._reader.join(timeout=2.0)

    def _call_nowait_bye(self) -> None:
        try:
            with self._send_lock:
                send_frame(
                    self._sock, {"id": None, "op": "bye", "args": {}},
                    self._codec, self.max_frame,
                )
        except (ConnectionClosed, OSError):
            pass

    def _teardown(self) -> None:
        # shutdown() before close(): closing the fd alone does not wake
        # a reader thread blocked in recv() on Linux — the half-close
        # does, so the reader exits promptly and fails its waiters.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "SentinelClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        peer = "closed"
        if not self._closed:
            try:
                peer = "%s:%s" % self._sock.getpeername()[:2]
            except OSError:
                pass
        return f"SentinelClient(tenant={self.tenant!r}, server={peer})"
