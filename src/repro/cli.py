"""Command-line tools for the Sentinel specification language.

The original pre-processor was a standalone tool run over application
sources; this CLI exposes the same pipeline:

* ``check``   — parse a spec file, report the events and rules it defines.
* ``codegen`` — emit the generated Python (the pre-processor's output).
* ``graph``   — build the spec and render the event graph as ASCII.
* ``replay``  — run a JSON-lines event log (``repro.eventlog`` format)
  through a spec in collect mode and report which rules would fire.
* ``trace``   — execute an event log through a spec with telemetry on
  and print the resulting span trees plus the metrics summary; with
  ``--export-spans`` the raw spans are also written as JSONL, and with
  ``--spans`` a previously exported JSONL span file is re-rendered
  offline (no spec or log needed).
* ``monitor`` — build a spec, replay a log through it, and serve the
  live introspection endpoints (``/metrics``, ``/health``, ``/spans``,
  ``/graph``, ``/profile``) over HTTP.
* ``serve``   — boot a shared multi-tenant Sentinel system and serve
  the wire protocol (see :mod:`repro.serving`) on TCP, optionally with
  the HTTP monitor alongside.

Conditions and actions referenced by the spec are stubbed (always-true
conditions, counting actions), so specs can be validated without the
application code.

Usage::

    python -m repro check myspec.sentinel
    python -m repro codegen myspec.sentinel
    python -m repro graph myspec.sentinel
    python -m repro replay myspec.sentinel events.jsonl
    python -m repro trace myspec.sentinel events.jsonl
    python -m repro trace --spans exported.jsonl
    python -m repro monitor myspec.sentinel events.jsonl --port 9464
    python -m repro serve --port 7070 --tenant alpha:s3cret:eps=500

Exit codes are stable: 0 success, 1 a Sentinel error (stderr carries
``error: <message> [E<code>]`` with the wire-protocol error code from
:mod:`repro.errors`), 2 usage/file errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Optional

from repro.core.detector import LocalEventDetector
from repro.debugger.visualize import render_event_graph
from repro.errors import SentinelError, cli_exit_code, error_code
from repro.eventlog import EventLog, replay as replay_log
from repro.snoop import ast as snoop_ast
from repro.snoop.builder import SpecBuilder
from repro.snoop.codegen import generate
from repro.snoop.parser import parse


def _stub_namespace(spec: snoop_ast.Spec) -> dict:
    """Always-true conditions and no-op actions for every reference."""
    namespace: dict = {}
    rules = list(spec.rules)
    for class_def in spec.classes:
        rules.extend(class_def.rules)
    for rule in rules:
        namespace.setdefault(rule.condition, lambda occ: True)
        namespace.setdefault(rule.action, lambda occ: None)
    return namespace


def _load_spec(path: str) -> snoop_ast.Spec:
    source = Path(path).read_text()
    return parse(source)


def _build(spec: snoop_ast.Spec) -> tuple[LocalEventDetector, SpecBuilder]:
    detector = LocalEventDetector(name="cli")
    builder = SpecBuilder(detector, _stub_namespace(spec)).build(spec)
    return detector, builder


def cmd_check(args: argparse.Namespace) -> int:
    """Parse and validate a spec; print its inventory and warnings."""
    spec = _load_spec(args.spec)
    detector, builder = _build(spec)
    print(f"{args.spec}: OK")
    print(f"  classes:          {len(spec.classes)}")
    print(f"  primitive events: "
          f"{sum(1 for n in detector.graph.nodes() if not n.children)}")
    print(f"  event graph:      {len(detector.graph)} nodes "
          f"({detector.graph.stats.shared_hits} shared)")
    print(f"  rules:            {len(builder.rules)}")
    for name in sorted(builder.rules):
        rule = builder.rules[name]
        print(f"    {name}: on {rule.event.display_name} "
              f"[{rule.context.value}, {rule.coupling.value}, "
              f"p{rule.priority}]")
    from repro.core.events.analysis import analyze_graph

    warnings = analyze_graph(detector.graph)
    for warning in warnings:
        print(f"  warning: {warning}")
    detector.shutdown()
    return 0


def cmd_codegen(args: argparse.Namespace) -> int:
    """Emit the generated Python for a spec (pre-processor output)."""
    spec = _load_spec(args.spec)
    source = generate(spec)
    if args.output:
        Path(args.output).write_text(source)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(source)
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    """Render a spec's event graph as ASCII."""
    spec = _load_spec(args.spec)
    detector, __ = _build(spec)
    sys.stdout.write(render_event_graph(detector.graph))
    detector.shutdown()
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay an event log against a spec in collect mode."""
    spec = _load_spec(args.spec)
    detector, builder = _build(spec)
    log = EventLog(args.log)
    report = replay_log(log, detector, mode="collect")
    counts = Counter(report.triggered_rules())
    print(f"replayed {report.events_replayed} events from {args.log}")
    if not counts:
        print("no rules would have fired")
    for name, count in counts.most_common():
        print(f"  {name}: {count} firing(s)")
    detector.shutdown()
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Execute an event log with telemetry on; print the span trees.

    With ``--spans FILE`` no replay happens: the exported JSONL span
    stream is loaded and re-rendered offline with the same renderer.
    """
    from repro.telemetry import CounterProcessor, TraceLogProcessor

    if args.spans:
        from repro.monitor import load_events

        events = load_events(args.spans)
        print(f"loaded {len(events)} spans from {args.spans}")
        print()
        sys.stdout.write(TraceLogProcessor().render(events))
        return 0
    if not args.spec or not args.log:
        print("error: trace needs SPEC and LOG (or --spans FILE)",
              file=sys.stderr)
        return 2
    spec = _load_spec(args.spec)
    detector, __ = _build(spec)
    trace_log = detector.telemetry.attach(
        TraceLogProcessor(capacity=args.capacity)
    )
    counters = detector.telemetry.attach(CounterProcessor())
    exporter = None
    if args.export_spans:
        from repro.monitor import JsonlSpanExporter

        exporter = detector.telemetry.attach(
            JsonlSpanExporter(args.export_spans)
        )
    log = EventLog(args.log)
    report = replay_log(log, detector, mode="execute")
    print(f"replayed {report.events_replayed} events from {args.log}")
    print()
    sys.stdout.write(trace_log.render())
    if exporter is not None:
        exporter.close()
        print(f"exported {exporter.exported} spans to {args.export_spans}")
    if args.metrics:
        print()
        print("counters:")
        for name, value in counters.registry.to_dict()["counters"].items():
            print(f"  {name}: {value}")
        print("latency:")
        for name, summary in counters.registry.to_dict()["histograms"].items():
            print(f"  {name}: n={summary['count']} "
                  f"mean={summary['mean_ms']}ms max={summary['max_ms']}ms")
    detector.shutdown()
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """Serve the live introspection endpoints over a spec replay."""
    from repro.monitor import MonitorServer, RuleProfiler
    from repro.telemetry import CounterProcessor, TraceLogProcessor

    spec = _load_spec(args.spec)
    detector, __ = _build(spec)
    trace_log = detector.telemetry.attach(
        TraceLogProcessor(capacity=args.capacity)
    )
    counters = detector.telemetry.attach(CounterProcessor())
    profiler = detector.telemetry.attach(RuleProfiler(slow_ms=args.slow_ms))
    if args.log:
        report = replay_log(EventLog(args.log), detector, mode="execute")
        print(f"replayed {report.events_replayed} events from {args.log}")
    server = MonitorServer(
        registry=counters.registry,
        health=detector.health,
        trace=trace_log,
        graph=detector.graph_snapshot,
        profiler=profiler,
        host=args.host,
        port=args.port,
    ).start()
    print(f"serving on {server.url} "
          f"(/metrics /health /spans /graph /profile)")
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        detector.shutdown()
    if profiler.rules:
        print()
        sys.stdout.write(profiler.report_text())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a shared multi-tenant system over the wire protocol.

    Runs until SIGTERM/SIGINT (or ``--duration``), then drains: the
    listener closes, in-flight requests finish and respond, and the
    system shuts down cleanly — exit code 0.
    """
    import signal
    import threading

    from repro.sentinel import Sentinel
    from repro.serving.server import SentinelServer
    from repro.serving.tenancy import Tenant

    tenants = [Tenant.parse_spec(spec) for spec in args.tenant or []]
    system = Sentinel(
        directory=args.directory, name=args.name, shards=args.shards,
    )
    server = SentinelServer(
        system, args.host, args.port,
        tenants=tenants, max_frame=args.max_frame,
    ).start()
    monitor = None
    if args.monitor_port is not None:
        monitor = system.monitor(port=args.monitor_port, host=args.host)
    if args.port_file:
        Path(args.port_file).write_text(f"{server.host} {server.port}\n")
    tenant_names = ", ".join(t.name for t in server.tenants.all())
    print(f"serving {system.name!r} on {server.address} "
          f"(tenants: {tenant_names}; async lane: on)",
          flush=True)
    if monitor is not None:
        print(f"monitor on {monitor.url}", flush=True)

    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: stop.set())
    try:
        stop.wait(args.duration)
    except KeyboardInterrupt:
        pass
    print("draining...", flush=True)
    server.close()
    system.close()
    print("stopped", flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Sentinel specification-language tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate a spec file")
    check.add_argument("spec")
    check.set_defaults(func=cmd_check)

    codegen = sub.add_parser("codegen", help="emit generated Python")
    codegen.add_argument("spec")
    codegen.add_argument("-o", "--output", default=None)
    codegen.set_defaults(func=cmd_codegen)

    graph = sub.add_parser("graph", help="render the event graph")
    graph.add_argument("spec")
    graph.set_defaults(func=cmd_graph)

    rep = sub.add_parser("replay", help="replay an event log (collect mode)")
    rep.add_argument("spec")
    rep.add_argument("log")
    rep.set_defaults(func=cmd_replay)

    trace = sub.add_parser(
        "trace", help="execute an event log and print trace span trees"
    )
    trace.add_argument("spec", nargs="?", default=None)
    trace.add_argument("log", nargs="?", default=None)
    trace.add_argument("--capacity", type=int, default=4096,
                       help="trace ring-buffer size (default 4096)")
    trace.add_argument("--no-metrics", dest="metrics", action="store_false",
                       help="omit the counter/latency summary")
    trace.add_argument("--export-spans", default=None, metavar="FILE",
                       help="also write the raw spans as JSONL to FILE")
    trace.add_argument("--spans", default=None, metavar="FILE",
                       help="render a previously exported JSONL span file "
                            "instead of replaying")
    trace.set_defaults(func=cmd_trace)

    monitor = sub.add_parser(
        "monitor",
        help="replay a log through a spec and serve /metrics, /health, "
             "/spans, /graph, /profile over HTTP",
    )
    monitor.add_argument("spec")
    monitor.add_argument("log", nargs="?", default=None)
    monitor.add_argument("--host", default="127.0.0.1")
    monitor.add_argument("--port", type=int, default=0,
                         help="0 = OS-assigned (printed on startup)")
    monitor.add_argument("--capacity", type=int, default=4096,
                         help="trace ring-buffer size (default 4096)")
    monitor.add_argument("--slow-ms", type=float, default=None,
                         help="slow-rule threshold for the profiler")
    monitor.add_argument("--duration", type=float, default=None,
                         help="serve for N seconds then exit "
                              "(default: until interrupted)")
    monitor.set_defaults(func=cmd_monitor)

    serve = sub.add_parser(
        "serve",
        help="serve a shared multi-tenant Sentinel system over TCP "
             "(length-prefixed JSON wire protocol)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 = OS-assigned (printed on startup)")
    serve.add_argument("--port-file", default=None, metavar="FILE",
                       help="write 'host port' to FILE once bound "
                            "(for scripts wrapping --port 0)")
    serve.add_argument("--tenant", action="append", default=[],
                       metavar="NAME:TOKEN[:rules=N][:eps=R][:burst=B]",
                       help="add a tenant (repeatable); empty TOKEN means "
                            "no auth; default: one open 'default' tenant")
    serve.add_argument("--max-frame", type=int, default=1 << 20,
                       help="per-frame byte limit (default 1 MiB)")
    serve.add_argument("--monitor-port", type=int, default=None,
                       help="also serve the HTTP monitor on this port")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for N seconds then exit "
                            "(default: until SIGTERM/SIGINT)")
    serve.add_argument("--shards", type=int, default=1,
                       help="detection shards for the shared system")
    serve.add_argument("--directory", default=None,
                       help="database directory (default: in-memory)")
    serve.add_argument("--name", default="served",
                       help="system name (shown in ping/health)")
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as error:
        print(f"error: {error}", file=sys.stderr)
        return cli_exit_code(error)
    except ValueError as error:
        # e.g. a malformed --tenant spec
        print(f"error: {error}", file=sys.stderr)
        return cli_exit_code(error)
    except SentinelError as error:
        # One registry maps exception types to codes for the wire
        # protocol and this suffix alike (see repro.errors).
        print(f"error: {error} [E{error_code(error)}]", file=sys.stderr)
        return cli_exit_code(error)


if __name__ == "__main__":
    raise SystemExit(main())
