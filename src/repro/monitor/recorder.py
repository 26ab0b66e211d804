"""Flight recorder: a bounded ring of recent spans, dumped on failure.

Production incidents are diagnosed after the fact; the
:class:`FlightRecorder` keeps the last ``capacity`` trace events in
memory (with a sampling knob for very hot systems) and writes them out
as JSONL the moment something goes wrong:

* a rule subtransaction fails (``RuleExecution`` with outcome
  ``failed`` or ``depth_exceeded``, or a ``SubtransactionBoundary``
  abort), or
* a telemetry processor raises (watched via the hub's ``dropped``
  counter, since a broken processor never sees its own exception).

Dumps are rate-limited by ``min_interval_s`` of the triggering event's
clock so a rule failing in a tight loop produces one snapshot per
window, not one per failure. Trigger events are always recorded,
sampling notwithstanding — the dump must contain the event that caused
it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from repro.monitor.exporter import event_to_dict
from repro.telemetry.events import (
    RuleExecution,
    SubtransactionBoundary,
    TraceEvent,
)
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.processors import TraceLogProcessor


class FlightRecorder(TraceLogProcessor):
    """Bounded span ring with automatic JSONL dumps on failure.

    The ring, its lock and ``events()`` are the trace log's; the
    recorder adds sampling and the dump triggers.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        capacity: int = 2048,
        sample: int = 1,
        hub: Optional[TelemetryHub] = None,
        armed: bool = True,
        min_interval_s: float = 1.0,
    ):
        if sample < 1:
            raise ValueError("sample must be >= 1")
        super().__init__(capacity)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sample = sample
        #: disarm to keep recording without automatic dumps
        self.armed = armed
        self.min_interval_s = min_interval_s
        self.dumps: list[Path] = []
        self._hub = hub
        self._dropped_seen = hub.dropped if hub is not None else 0
        self._seen = 0
        self._serial = 0
        self._last_dump_at: Optional[float] = None

    # -- intake ------------------------------------------------------------

    def handle(self, event: TraceEvent) -> None:
        trigger = self._trigger_reason(event)
        with self._lock:
            self._seen += 1
            if trigger is not None or self._seen % self.sample == 0:
                self._buffer.append(event)
        if trigger is not None and self.armed:
            # Rate-limit on the event's *end* time: a span's ``at`` is
            # its entry timestamp, so a failed rule span closing right
            # after its abort-boundary point would otherwise look older
            # than the dump that point just caused and be swallowed.
            self._maybe_dump(trigger, event.at + event.duration_ms / 1000.0)

    def _trigger_reason(self, event: TraceEvent) -> Optional[str]:
        if isinstance(event, RuleExecution) and event.outcome not in (
            "completed", "rejected"
        ):
            return f"rule:{event.rule_name}:{event.outcome}"
        if isinstance(event, SubtransactionBoundary) and event.kind == "abort":
            return f"subtxn_abort:{event.label}"
        if self._hub is not None and self._hub.dropped > self._dropped_seen:
            self._dropped_seen = self._hub.dropped
            return "processor_error"
        return None

    # -- dumping -----------------------------------------------------------

    def _maybe_dump(self, reason: str, at: float) -> None:
        with self._lock:
            if (
                self._last_dump_at is not None
                and at - self._last_dump_at < self.min_interval_s
            ):
                return
            self._last_dump_at = at
        self.dump(reason)

    def dump(self, reason: str = "manual",
             path: Optional[str | os.PathLike] = None) -> Path:
        """Write the ring to JSONL; returns the file written.

        The first line is a metadata record (not a trace event — the
        loader skips it); the rest are events, oldest first.
        """
        with self._lock:
            events = list(self._buffer)
            self._serial += 1
            serial = self._serial
        target = Path(path) if path is not None else (
            self.directory / f"flight-{serial:04d}.jsonl"
        )
        with open(target, "w", encoding="utf-8") as stream:
            stream.write(json.dumps({
                "type": "FlightRecorderDump",
                "reason": reason,
                "events": len(events),
                "sample": self.sample,
            }, sort_keys=True) + "\n")
            for event in events:
                stream.write(
                    json.dumps(event_to_dict(event), sort_keys=True) + "\n"
                )
        self.dumps.append(target)
        return target
