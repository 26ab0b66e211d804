"""The shared status-report schema.

Three views of a running active system used to assemble their payloads
independently — ``SystemReport.to_dict()`` (the ``report`` CLI),
``Sentinel.health()`` (the monitor's ``/health``), and
``LocalEventDetector.health()`` (the detector slice nested inside it).
Drift between them meant a key present in one view silently missing
from another. This module is now the single place the shapes are
defined; the three callers delegate here, and the schema tests assert
against these builders only.

Builders return plain JSON-safe dicts. Key names are part of the
public monitoring contract — scrapers and the CLI parse them — so
changes here are API changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional

if TYPE_CHECKING:
    from repro.core.detector import LocalEventDetector
    from repro.sentinel import Sentinel, SystemReport


# =========================================================================
# Building blocks
# =========================================================================

def telemetry_health(telemetry) -> dict[str, Any]:
    return {
        "active": telemetry.active,
        "processors": len(telemetry.processors),
        "dropped": telemetry.dropped,
    }


def faults_health() -> dict[str, Any]:
    """The fault-injection slice: armed state and injection totals."""
    from repro.faults import registry as faults
    from repro.faults.retry import retry_counters

    injected = faults.injected_counts()
    counters = retry_counters()
    return {
        "enabled": faults.ENABLED,
        "injected": sum(injected.values()),
        "points_fired": len(injected),
        "retries": sum(c["retries"] for c in counters.values()),
        "giveups": sum(c["giveups"] for c in counters.values()),
    }


# =========================================================================
# The three public payloads
# =========================================================================

def detector_health(detector: "LocalEventDetector") -> dict[str, Any]:
    """``LocalEventDetector.health()``: the detector slice of /health."""
    return {
        "name": detector.name,
        "suppressed": detector.stats.suppressed,
        "collect_mode": detector.collect_mode,
        "rule_errors": detector.scheduler.stats.failures,
        "telemetry": telemetry_health(detector.telemetry),
    }


def system_health(system: "Sentinel") -> dict[str, Any]:
    """``Sentinel.health()``: the monitor's full /health payload."""
    if system._closed:
        status = "closed"
    elif system._closing:
        status = "closing"
    else:
        status = "ok"
    data: dict[str, Any] = {
        "healthy": status == "ok",
        "status": status,
        "name": system.name,
        "detached_backlog": system.detached.backlog(),
        "detached_queue": system.detached.snapshot(),
        "detector": detector_health(system.detector),
        "faults": faults_health(),
    }
    if system.metrics is not None:
        # p50/p95/p99 per lifecycle stage (ingest, detect, condition,
        # action, action_async, commit, detached_wait, wire); stages with
        # no samples are omitted.
        data["latency"] = system.metrics.percentiles()
    for provider in tuple(getattr(system, "extra_health_providers", ())):
        # e.g. an attached SentinelServer's serving slice (address,
        # connections, draining); a broken provider must not take down
        # the health endpoint.
        try:
            data.update(provider())
        except Exception:  # noqa: BLE001
            continue
    if system.db is not None:
        wal = system.db.storage.wal
        stats = system.db.storage.buffer_pool.stats
        data["storage"] = {
            # records appended but not yet forced to disk
            "wal_flush_lag": max(0, wal.next_lsn - wal.flushed_lsn - 1),
            "wal_flushed_lsn": wal.flushed_lsn,
            "buffer_hit_rate": round(stats.hit_rate(), 4),
            "buffer_evictions": stats.evictions,
        }
    return data


def system_report_dict(report: "SystemReport") -> dict[str, Any]:
    """``SystemReport.to_dict()``: the report CLI / API payload."""
    data: dict[str, Any] = {
        "name": report.name,
        "events": dict(report.events),
        "notifications": dict(report.notifications),
        "rules": dict(report.rules),
    }
    if report.storage is not None:
        data["storage"] = dict(report.storage)
    return data


# =========================================================================
# Prometheus families for the runtime slices
# =========================================================================

def runtime_metric_lines(system: "Sentinel",
                         prefix: str = "sentinel") -> list[str]:
    """Exposition lines for the detached-queue families and the rest.

    The detached queue's depth/capacity gauges and outcome counters are
    read live from the queue at scrape time (not from the metrics
    registry); the registry's, fault and provider families follow.
    """
    from repro.monitor.prometheus import render_gauge

    lines: list[str] = []
    queue = system.detached.snapshot()
    for gauge in ("depth", "active", "capacity"):
        lines.extend(render_gauge(
            f"{prefix}_detached_queue_{gauge}", queue[gauge]
        ))
    for counter in ("submitted", "executed", "dropped", "blocked", "errors"):
        family = f"{prefix}_detached_queue_{counter}_total"
        lines.append(f"# TYPE {family} counter")
        lines.append(f"{family} {queue[counter]}")
    if system.metrics is not None:
        lines.extend(system.metrics.prometheus_lines(prefix))
    lines.extend(fault_metric_lines())
    for provider in tuple(getattr(system, "extra_metric_providers", ())):
        # e.g. an attached SentinelServer's per-tenant families; a
        # broken provider must not take down the whole scrape.
        try:
            lines.extend(provider())
        except Exception:  # noqa: BLE001
            continue
    return lines


def serving_metric_lines(server, prefix: str = "sentinel") -> list[str]:
    """Exposition lines for a :class:`SentinelServer`'s tenant families.

    Per-tenant counters labelled ``{tenant="..."}``:
    ``<prefix>_tenant_events_total``, ``_batches_total``,
    ``_detections_total``, ``_quota_rejections_total``,
    ``_errors_total``; gauges ``<prefix>_tenant_rules`` /
    ``_connections``; plus the server-wide
    ``<prefix>_serving_connections`` gauge.
    """
    from repro.monitor.prometheus import escape_label, render_gauge

    lines: list[str] = []
    snapshots = [tenant.snapshot() for tenant in server.tenants.all()]
    counter_keys = (
        "events", "batches", "detections", "quota_rejections", "errors",
    )
    for key in counter_keys:
        family = f"{prefix}_tenant_{key}_total"
        lines.append(f"# TYPE {family} counter")
        for snapshot in snapshots:
            tenant = escape_label(snapshot["tenant"])
            lines.append(f'{family}{{tenant="{tenant}"}} {snapshot[key]}')
    for key in ("rules", "connections"):
        family = f"{prefix}_tenant_{key}"
        lines.append(f"# TYPE {family} gauge")
        for snapshot in snapshots:
            tenant = escape_label(snapshot["tenant"])
            lines.append(f'{family}{{tenant="{tenant}"}} {snapshot[key]}')
    lines.extend(render_gauge(
        f"{prefix}_serving_connections", server.connections(),
        help_text="Live client connections on the serving endpoint",
    ))
    return lines


def fault_metric_lines(prefix: str = "repro") -> list[str]:
    """Exposition lines for the fault-injection and retry families.

    ``repro_faults_injected_total{point=...}`` counts faults/crashes
    actually raised per site; ``repro_retries_total{site=...}`` counts
    retry attempts the bounded-backoff wrapper absorbed. Both families
    are empty (headers only) when injection has never been armed, so
    production scrapes carry two constant lines of overhead.
    """
    from repro.faults import registry as faults
    from repro.faults.retry import retry_counters

    lines: list[str] = []
    family = f"{prefix}_faults_injected_total"
    lines.append(f"# TYPE {family} counter")
    for point, count in sorted(faults.injected_counts().items()):
        lines.append(f'{family}{{point="{point}"}} {count}')
    family = f"{prefix}_retries_total"
    lines.append(f"# TYPE {family} counter")
    for site, counters in sorted(retry_counters().items()):
        lines.append(f'{family}{{site="{site}"}} {counters["retries"]}')
    return lines
