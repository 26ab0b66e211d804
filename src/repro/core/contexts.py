"""Parameter contexts: how constituent occurrences are grouped.

From the paper (and the companion VLDB'94 semantics paper), a composite
event can be detected in four contexts, which decide *which* occurrences
of constituent events pair up and what the resulting parameter list
contains:

* **RECENT** — only the most recent occurrence of an initiating event is
  used; it is not consumed by detection (a newer occurrence replaces
  it). Default, "due to its low storage requirements".
* **CHRONICLE** — occurrences pair in strict FIFO (chronological) order
  and each occurrence is consumed by the detection it participates in.
* **CONTINUOUS** — every initiator starts its own detection; one
  terminator can complete *all* currently open detections at once.
* **CUMULATIVE** — all occurrences of the constituents accumulate until
  the composite event is detected, which yields a single occurrence
  carrying everything; the accumulated state is then flushed.
"""

from __future__ import annotations

import enum


class ParameterContext(enum.Enum):
    RECENT = "recent"
    CHRONICLE = "chronicle"
    CONTINUOUS = "continuous"
    CUMULATIVE = "cumulative"

    # Every node keys its counters and state by context, so this is
    # hashed several times per event: by identity, in C (members are
    # singletons and compare by identity), not by name in Python.
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, text: str) -> "ParameterContext":
        """Accept the spellings used in Sentinel rule specifications."""
        try:
            return cls[text.strip().upper()]
        except KeyError:
            valid = ", ".join(c.name for c in cls)
            raise ValueError(
                f"unknown parameter context {text!r}; expected one of {valid}"
            ) from None


#: The paper's default ("the recent context is assumed to be the default
#: due to its low storage requirements").
DEFAULT_CONTEXT = ParameterContext.RECENT

ALL_CONTEXTS = tuple(ParameterContext)
