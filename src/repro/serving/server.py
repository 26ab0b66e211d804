"""The multi-tenant Sentinel server.

:class:`SentinelServer` puts one shared :class:`~repro.sentinel.Sentinel`
behind the length-prefixed wire protocol: an accept loop hands each
client connection to its own daemon thread, the first frame must be a
``hello`` carrying the tenant name and bearer token, and every
subsequent request executes against the shared detector under the
calling tenant's namespace (see :mod:`repro.serving.tenancy`).

Request handling is synchronous per connection — a response frame is
written only after the detector finished the request's full immediate
rule cascade, so a client that got its ``raise_event`` response back
can immediately ``detections()`` and observe the result, exactly like
a local caller (this is what makes the conformance suite deterministic
without sleeps).

Isolation and robustness:

* definition operations (events, rules) run under the detector's shard
  locks plus a server-side definition lock, so concurrent tenants
  cannot corrupt the graph;
* quota rejections happen before ingestion — a throttled tenant never
  touches shared detection state;
* per-request errors are answered with the registry code and the
  connection keeps serving; framing errors that desynchronize the
  stream (oversized frames) are answered and then the connection is
  closed; a client dying mid-frame just ends its connection thread;
* :meth:`close` drains: the listener stops, each connection's read
  side is shut down so in-flight requests finish and respond before
  the socket closes.

Per-tenant counters are exported through
:func:`repro.reporting.serving_metric_lines`; attaching the server
registers that provider on the system's ``extra_metric_providers`` so
an existing monitor's ``/metrics`` picks the families up automatically.
"""

from __future__ import annotations

import socket
import threading
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import (
    AuthenticationError,
    ConnectionClosed,
    FrameTooLarge,
    ProtocolError,
    SentinelError,
    error_code,
)
from repro.serving.expr import parse_event_expr
from repro.serving.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    available_transports,
    get_codec,
    recv_frame,
    send_frame,
)
from repro.serving.tenancy import NAMESPACE_SEP, Tenant, TenantRegistry

if TYPE_CHECKING:
    from repro.sentinel import Sentinel


class _Session:
    """One authenticated client connection and its serving thread."""

    _ids = iter(range(1, 1 << 62))

    def __init__(self, server: "SentinelServer", conn: socket.socket,
                 address):
        self.server = server
        self.conn = conn
        self.address = address
        self.session_id = next(self._ids)
        self.codec = get_codec("json")
        #: codec to switch to after the current response is written
        self._pending_codec = None
        self.tenant: Optional[Tenant] = None
        #: None = not subscribed; empty set = all of the tenant's rules
        self.subscription: Optional[set] = None
        self._write_lock = threading.Lock()
        self.thread = threading.Thread(
            target=self._run,
            name=f"sentinel-serve:{self.session_id}",
            daemon=True,
        )

    # -- wire plumbing -----------------------------------------------------

    def send(self, payload: dict) -> None:
        with self._write_lock:
            send_frame(self.conn, payload, self.codec)

    def try_push(self, payload: dict) -> bool:
        """Best-effort push; a dead subscriber must not hurt detection."""
        try:
            self.send(payload)
            return True
        except (ConnectionClosed, OSError):
            return False

    def _send_error(self, request_id, error: SentinelError) -> None:
        message = str(error)
        if self.tenant is not None:
            with self.tenant.lock:
                self.tenant.counters.errors += 1
            # Error text mentions qualified names; clients speak the
            # unqualified ones, so strip the namespace prefix.
            message = message.replace(
                self.tenant.name + NAMESPACE_SEP, ""
            )
        self.send({
            "id": request_id,
            "ok": False,
            "code": error_code(error),
            "type": type(error).__name__,
            "error": message,
        })

    # -- connection loop ---------------------------------------------------

    def _run(self) -> None:
        try:
            while True:
                try:
                    frame = recv_frame(self.conn, self.codec,
                                       self.server.max_frame)
                except ConnectionClosed:
                    break
                except FrameTooLarge as error:
                    # The oversized body was never read, so the stream
                    # is desynchronized: answer, then hang up.
                    self._try_send_error(None, error)
                    break
                except ProtocolError as error:
                    # The body was fully read (framing is intact) but
                    # did not decode; answer and keep serving.
                    self._try_send_error(None, error)
                    continue
                if not self._handle(frame):
                    break
        except (ConnectionClosed, OSError):
            pass
        finally:
            self.server._forget(self)
            try:
                self.conn.close()
            except OSError:
                pass

    def _try_send_error(self, request_id, error: SentinelError) -> None:
        try:
            self._send_error(request_id, error)
        except (ConnectionClosed, OSError):
            pass

    def _handle(self, frame: dict) -> bool:
        """Serve one request frame; False ends the connection."""
        request_id = frame.get("id")
        op = frame.get("op")
        args = frame.get("args") or {}
        keep_going = True
        try:
            if not isinstance(op, str):
                raise ProtocolError("request frame needs a string 'op'")
            if not isinstance(args, dict):
                raise ProtocolError("'args' must be an object")
            if op == "hello":
                result = self.server._op_hello(self, args)
            else:
                if self.tenant is None:
                    raise AuthenticationError(
                        "the first request must be 'hello'"
                    )
                handler = self.server._OPS.get(op)
                if handler is None:
                    raise ProtocolError(f"unknown op {op!r}")
                with self.server._adopt_trace(frame.get("ctx")):
                    result = handler(self.server, self, args)
            if op == "bye":
                keep_going = False
            self.send({"id": request_id, "ok": True, "result": result})
            if self._pending_codec is not None:
                # hello negotiated a transport: the reply above went out
                # in the old codec; everything after speaks the new one.
                self.codec = self._pending_codec
                self._pending_codec = None
        except SentinelError as error:
            self._try_send_error(request_id, error)
            # Failed authentication ends the conversation.
            keep_going = not isinstance(error, AuthenticationError)
        except (ConnectionClosed, OSError):
            return False
        except Exception as error:  # noqa: BLE001 — a bug must not kill serving
            self._try_send_error(
                request_id,
                SentinelError(f"internal server error: {error!r}"),
            )
        return keep_going

    def drain(self) -> None:
        """Stop reading new requests; an in-flight one still answers."""
        try:
            self.conn.shutdown(socket.SHUT_RD)
        except OSError:
            pass


class SentinelServer:
    """Serves one shared active system to many client processes."""

    def __init__(
        self,
        system: "Sentinel",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tenants: Optional[Iterable[Tenant]] = None,
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        self.system = system
        self.max_frame = max_frame
        self.tenants = TenantRegistry(tenants or ())
        self._listener = socket.create_server((host, port))
        self._sessions: set[_Session] = set()
        self._sessions_lock = threading.Lock()
        #: serializes event/rule definition across tenants (signaling
        #: is already serialized by the detector's shard stripes)
        self._define_lock = threading.RLock()
        self._closing = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        system.add_detection_listener(self._on_detection)
        system.extra_metric_providers.append(self.metric_lines)
        system.extra_health_providers.append(self.health_slice)

    # -- lifecycle ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self._listener.getsockname()[0]

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "SentinelServer":
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop,
                name=f"sentinel-serve-accept:{self.port}",
                daemon=True,
            )
            self._accept_thread.start()
        return self

    def close(self, drain_timeout: float = 5.0) -> None:
        """Shut down: stop accepting, drain in-flight requests, detach.

        Every connection's read side is shut down first, so a request
        already being processed finishes and its response is written
        before the socket closes — in-flight batches are never dropped.
        """
        if self._closing.is_set():
            return
        self._closing.set()
        # close() alone leaves the accept thread blocked in accept() on
        # the closed fd; shutdown() wakes it so the join below is
        # immediate instead of waiting out drain_timeout.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._sessions_lock:
            sessions = list(self._sessions)
        for session in sessions:
            session.drain()
        for session in sessions:
            session.thread.join(timeout=drain_timeout)
        for session in sessions:
            try:
                session.conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=drain_timeout)
            self._accept_thread = None
        self.system.remove_detection_listener(self._on_detection)
        try:
            self.system.extra_metric_providers.remove(self.metric_lines)
        except ValueError:
            pass
        try:
            self.system.extra_health_providers.remove(self.health_slice)
        except ValueError:
            pass

    def __enter__(self) -> "SentinelServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, address = self._listener.accept()
            except OSError:
                break  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = _Session(self, conn, address)
            with self._sessions_lock:
                self._sessions.add(session)
            session.thread.start()

    def _forget(self, session: _Session) -> None:
        with self._sessions_lock:
            self._sessions.discard(session)
        if session.tenant is not None:
            with session.tenant.lock:
                session.tenant.connections = max(
                    0, session.tenant.connections - 1
                )
            session.tenant = None

    def connections(self) -> int:
        with self._sessions_lock:
            return len(self._sessions)

    # -- detection fan-out -------------------------------------------------

    def _on_detection(self, summary: dict) -> None:
        """System detection listener: attribute + push to subscribers."""
        tenant = self.tenants.owner_of(summary.get("rule", ""))
        if tenant is None:
            return  # a local (non-tenant) rule on the shared system
        with tenant.lock:
            tenant.counters.detections += 1
        stripped = None
        with self._sessions_lock:
            sessions = [
                s for s in self._sessions
                if s.tenant is tenant and s.subscription is not None
            ]
        for session in sessions:
            rule_name = tenant.unqualify(summary["rule"])
            if session.subscription and rule_name not in session.subscription:
                continue
            if stripped is None:
                stripped = self._strip(tenant, summary)
            session.try_push({"push": "detection", "detection": stripped})

    def _strip(self, tenant: Tenant, summary: dict) -> dict:
        """A detection/occurrence summary with tenant prefixes removed.

        Synthesized composite names embed qualified names inside
        (``(a::x ; a::y)``), so every occurrence of the prefix goes,
        not just a leading one.
        """
        prefix = tenant.name + NAMESPACE_SEP
        out = dict(summary)
        for key in ("rule", "event", "class"):
            value = out.get(key)
            if isinstance(value, str):
                out[key] = value.replace(prefix, "")
        if isinstance(out.get("constituents"), list):
            out["constituents"] = [
                self._strip(tenant, c) for c in out["constituents"]
            ]
        return out

    # -- op implementations ------------------------------------------------

    def _op_hello(self, session: _Session, args: dict) -> dict:
        protocol = args.get("protocol", PROTOCOL_VERSION)
        if protocol != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {protocol!r} "
                f"(server speaks {PROTOCOL_VERSION})"
            )
        transport = args.get("transport", "json")
        codec = get_codec(transport)  # raises ProtocolError when unknown
        tenant = self.tenants.authenticate(
            args.get("tenant", "default"), args.get("token")
        )
        if session.tenant is not None:
            self._forget_tenant(session)
        session.tenant = tenant
        with tenant.lock:
            tenant.connections += 1
        result = {
            "server": self.system.name,
            "tenant": tenant.name,
            "protocol": PROTOCOL_VERSION,
            "transport": transport,
            "transports": available_transports(),
            # capability flag: watch(executor="async") schedules the
            # recording rule on the system's asyncio lane
            "async_lane": True,
            "max_frame": self.max_frame,
            "quota": {
                "max_rules": tenant.quota.max_rules,
                "events_per_sec": tenant.quota.events_per_sec,
            },
        }
        # The hello exchange itself rides the connection's current codec
        # (JSON on a fresh connection); the negotiated codec applies
        # from the frame after the hello response, both directions.
        session._pending_codec = codec
        return result

    def _forget_tenant(self, session: _Session) -> None:
        tenant = session.tenant
        if tenant is not None:
            with tenant.lock:
                tenant.connections = max(0, tenant.connections - 1)
        session.tenant = None

    def _op_ping(self, session: _Session, args: dict) -> dict:
        health = self.system.ping()
        return {
            "name": health["name"],
            "healthy": health["healthy"] and not self._closing.is_set(),
            "tenant": session.tenant.name,
            "protocol": PROTOCOL_VERSION,
        }

    def _op_bye(self, session: _Session, args: dict) -> dict:
        return {"bye": True}

    # event definition ............................................

    def _op_explicit_event(self, session: _Session, args: dict) -> str:
        tenant = session.tenant
        name = tenant.qualify(args.get("name"))
        with self._definitions():
            self.system.explicit_event(name)
        return tenant.unqualify(name)

    def _op_primitive_event(self, session: _Session, args: dict) -> str:
        tenant = session.tenant
        name = tenant.qualify(args.get("name"))
        class_name = tenant.qualify(args.get("class_name"))
        method = args.get("method_name")
        if not isinstance(method, str) or not method:
            raise ProtocolError("primitive_event needs a method_name string")
        with self._definitions():
            self.system.primitive_event(
                name, class_name, args.get("modifier", "end"), method,
                snapshot_state=bool(args.get("snapshot_state", False)),
            )
        return tenant.unqualify(name)

    def _op_define(self, session: _Session, args: dict) -> str:
        tenant = session.tenant
        name = tenant.qualify(args.get("name"))
        expr = args.get("expr")
        if not isinstance(expr, str):
            raise ProtocolError("define needs an expression string")
        graph = self.system.detector.graph
        with self._definitions():
            node = parse_event_expr(
                expr, lambda ref: graph.get(tenant.qualify(ref))
            )
            self.system.define(name, node)
        return tenant.unqualify(name)

    def _op_event_names(self, session: _Session, args: dict) -> list[str]:
        tenant = session.tenant
        return sorted(
            tenant.unqualify(name)
            for name in self.system.detector.graph.names()
            if tenant.owns(name)
        )

    # watched rules ...............................................

    def _op_watch(self, session: _Session, args: dict) -> str:
        tenant = session.tenant
        name = tenant.qualify(args.get("name"))
        event = args.get("event")
        if not isinstance(event, str):
            raise ProtocolError("watch needs an event name or expression")
        graph = self.system.detector.graph
        tenant.charge_rule()
        try:
            with self._definitions():
                node = parse_event_expr(
                    event, lambda ref: graph.get(tenant.qualify(ref))
                )
                self.system.watch(
                    name, node,
                    context=args.get("context", "recent"),
                    coupling=args.get("coupling", "immediate"),
                    priority=args.get("priority", 1),
                    executor=args.get("executor", "sync"),
                )
        except BaseException:
            tenant.release_rule()
            raise
        return tenant.unqualify(name)

    def _op_unwatch(self, session: _Session, args: dict) -> None:
        tenant = session.tenant
        name = tenant.qualify(args.get("name"))
        with self._definitions():
            self.system.unwatch(name)
        tenant.release_rule()
        return None

    def _op_enable_rule(self, session: _Session, args: dict) -> None:
        with self._definitions():
            self.system.enable_rule(session.tenant.qualify(args.get("name")))
        return None

    def _op_disable_rule(self, session: _Session, args: dict) -> None:
        with self._definitions():
            self.system.disable_rule(session.tenant.qualify(args.get("name")))
        return None

    def _op_rule_names(self, session: _Session, args: dict) -> list[str]:
        tenant = session.tenant
        return sorted(
            tenant.unqualify(name)
            for name in self.system.rules.names()
            if tenant.owns(name)
        )

    # ingestion ...................................................

    def _op_raise_event(self, session: _Session, args: dict) -> dict:
        tenant = session.tenant
        name = tenant.qualify(args.get("name"))
        params = args.get("params") or {}
        if not isinstance(params, dict):
            raise ProtocolError("'params' must be an object")
        tenant.charge_events(1)
        from repro.serving.api import occurrence_summary

        occurrence = self.system.raise_event(name, **params)
        return self._strip(tenant, occurrence_summary(occurrence))

    def _op_raise_events(self, session: _Session, args: dict) -> list[dict]:
        tenant = session.tenant
        events = args.get("events")
        if not isinstance(events, list):
            raise ProtocolError("'events' must be a list")
        qualified = []
        for item in events:
            if isinstance(item, str):
                qualified.append((tenant.qualify(item), {}))
            elif isinstance(item, (list, tuple)) and len(item) == 2:
                name, params = item
                if not isinstance(params, dict):
                    raise ProtocolError("event params must be an object")
                qualified.append((tenant.qualify(name), params))
            else:
                raise ProtocolError(
                    "each event must be a name or a [name, params] pair"
                )
        tenant.charge_events(len(qualified))
        with tenant.lock:
            tenant.counters.batches += 1
        from repro.serving.api import occurrence_summary

        occurrences = self.system.raise_events(qualified)
        return [
            self._strip(tenant, occurrence_summary(o)) for o in occurrences
        ]

    def _op_notify_batch(self, session: _Session, args: dict) -> list[dict]:
        tenant = session.tenant
        items = args.get("items")
        if not isinstance(items, list):
            raise ProtocolError("'items' must be a list")
        prepared = []
        for item in items:
            if not isinstance(item, (list, tuple)) or not 4 <= len(item) <= 5:
                raise ProtocolError(
                    "each item must be [instance, class_name, method_name, "
                    "modifier] or [..., arguments]"
                )
            instance, class_name, method, modifier = item[:4]
            if instance is not None:
                raise ProtocolError(
                    "remote notify_batch items must carry instance=null "
                    "(object identity does not cross the wire)"
                )
            arguments = item[4] if len(item) == 5 else {}
            if not isinstance(arguments, dict):
                raise ProtocolError("item arguments must be an object")
            prepared.append((
                None, tenant.qualify(class_name), method, modifier, arguments,
            ))
        tenant.charge_events(len(prepared))
        with tenant.lock:
            tenant.counters.batches += 1
        from repro.serving.api import occurrence_summary

        occurrences = self.system.notify_batch(prepared)
        return [
            self._strip(tenant, occurrence_summary(o)) for o in occurrences
        ]

    # detections ..................................................

    def _op_detections(self, session: _Session, args: dict) -> list[dict]:
        tenant = session.tenant
        rule = args.get("rule")
        if rule is not None:
            qualified = tenant.qualify(rule)
            matches = self.system.detections(
                qualified, clear=bool(args.get("clear", False))
            )
        else:
            matches = self.system.detections(
                match=tenant.owns, clear=bool(args.get("clear", False))
            )
        return [self._strip(tenant, summary) for summary in matches]

    def _op_subscribe(self, session: _Session, args: dict) -> dict:
        rules = args.get("rules")
        if rules is None:
            session.subscription = set()
        elif isinstance(rules, list):
            session.subscription = {str(rule) for rule in rules}
        else:
            raise ProtocolError("'rules' must be a list of rule names or null")
        return {"subscribed": sorted(session.subscription) or "all"}

    def _op_unsubscribe(self, session: _Session, args: dict) -> dict:
        session.subscription = None
        return {"subscribed": False}

    def _op_stats(self, session: _Session, args: dict) -> dict:
        return session.tenant.snapshot()

    # -- shared helpers ----------------------------------------------------

    def _adopt_trace(self, ctx):
        """Adopt a request frame's trace context, defensively.

        ``ctx`` is peer-supplied: anything other than an object with a
        non-empty string ``trace`` (and optionally an integer ``span``)
        is ignored — a missing or malformed context degrades to a
        server-local trace, never to an error. With no processor on the
        system hub the whole thing is a no-op.
        """
        import contextlib

        telemetry = self.system.telemetry
        if not telemetry.active or not isinstance(ctx, dict):
            return contextlib.nullcontext()
        trace = ctx.get("trace")
        if not isinstance(trace, str) or not trace:
            return contextlib.nullcontext()
        span = ctx.get("span")
        if not isinstance(span, int) or isinstance(span, bool):
            span = None
        return telemetry.trace_scope(trace, parent_span_id=span)

    def health_slice(self) -> dict:
        """The serving section of ``health()`` (drain state included)."""
        try:
            address = self.address
        except OSError:  # listener already closed mid-drain
            address = None
        return {
            "serving": {
                "address": address,
                "connections": self.connections(),
                "draining": self._closing.is_set(),
            },
        }

    def _definitions(self):
        """Definition critical section: server lock + all shard locks."""

        class _Guard:
            def __enter__(guard):
                self._define_lock.acquire()
                guard.locks = self.system.detector.runtime.all_locks()
                guard.locks.__enter__()
                return guard

            def __exit__(guard, *exc):
                try:
                    guard.locks.__exit__(*exc)
                finally:
                    self._define_lock.release()

        return _Guard()

    def metric_lines(self, prefix: str = "sentinel") -> list[str]:
        """Per-tenant Prometheus families (see reporting module)."""
        from repro.reporting import serving_metric_lines

        return serving_metric_lines(self, prefix=prefix)

    _OPS = {
        "ping": _op_ping,
        "bye": _op_bye,
        "explicit_event": _op_explicit_event,
        "primitive_event": _op_primitive_event,
        "define": _op_define,
        "event_names": _op_event_names,
        "watch": _op_watch,
        "unwatch": _op_unwatch,
        "enable_rule": _op_enable_rule,
        "disable_rule": _op_disable_rule,
        "rule_names": _op_rule_names,
        "raise_event": _op_raise_event,
        "raise_events": _op_raise_events,
        "notify_batch": _op_notify_batch,
        "detections": _op_detections,
        "subscribe": _op_subscribe,
        "unsubscribe": _op_unsubscribe,
        "stats": _op_stats,
    }
