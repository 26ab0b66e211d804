"""Naive reference semantics the workloads are checked against.

An expression is a leaf event name or a tuple ``(op, *operands)`` with
``op`` in ``seq``/``and``/``or``/``not``/``astar``. :class:`Model` feeds a
stream of primitive events through one expression in one parameter
context, by the definitions of the four contexts (recent keeps only the
newest initiator and does not consume it; chronicle pairs oldest-first
and consumes; continuous lets one terminator close every open
initiator, one detection each; cumulative folds every open initiator
into a single detection). It shares nothing with the engine — no
graph, no counters, no sharing between rules — and an occurrence is just
its ``(start, end)`` interval on the stream's index clock, which is all
the counts depend on.
"""

from __future__ import annotations

_CALLS = {"not": "NOT", "astar": "A*"}
_INFIX = {"seq": ">>", "and": "&", "or": "|"}


def to_text(expr) -> str:
    """The expression in the string algebra ``define``/``watch`` accept."""
    if isinstance(expr, str):
        return expr
    op, *operands = expr
    if op in _INFIX:
        return "(" + f" {_INFIX[op]} ".join(map(to_text, operands)) + ")"
    return f"{_CALLS[op]}(" + ", ".join(map(to_text, operands)) + ")"


def _span(*occurrences):
    return (min(o[0] for o in occurrences), max(o[1] for o in occurrences))


class Model:
    """One expression evaluated in one context; ``feed`` counts detections."""

    def __init__(self, expr, context: str):
        self.context = context
        self.leaf = expr if isinstance(expr, str) else None
        if self.leaf is None:
            self.op = expr[0]
            self.children = [Model(child, context) for child in expr[1:]]
        self.flush()

    def flush(self) -> None:
        """Drop pending state (a transaction boundary)."""
        if self.leaf is None:
            self.pending = []
            self.sides = ([], [])
            for child in self.children:
                child.flush()

    def feed(self, name: str, at: int) -> int:
        return len(self._occurrences(name, at))

    def _occurrences(self, name: str, at: int) -> list:
        if self.leaf is not None:
            return [(at, at)] if name == self.leaf else []
        out: list = []
        for port, child in enumerate(self.children):
            for occurrence in child._occurrences(name, at):
                getattr(self, "_" + self.op)(port, occurrence, out)
        return out

    def _take(self, eligible: list, store: list, closing, out: list) -> None:
        """Pair the ``eligible`` open initiators in ``store`` with ``closing``."""
        if not eligible:
            return
        if self.context == "recent":
            out.append(_span(eligible[-1], closing))
        elif self.context == "chronicle":
            store.remove(eligible[0])
            out.append(_span(eligible[0], closing))
        else:
            for initiator in eligible:
                store.remove(initiator)
            if self.context == "continuous":
                out.extend(_span(i, closing) for i in eligible)
            else:
                out.append(_span(*eligible, closing))

    def _open(self, occurrence) -> None:
        if self.context == "recent":
            self.pending.clear()
        self.pending.append(occurrence)

    def _seq(self, port: int, occurrence, out: list) -> None:
        if port == 0:
            self._open(occurrence)
        else:
            before = [p for p in self.pending if p[1] < occurrence[0]]
            self._take(before, self.pending, occurrence, out)

    def _not(self, port: int, occurrence, out: list) -> None:
        if port == 0:
            self._open(occurrence)
        elif port == 1:
            self.pending.clear()  # the forbidden event spoils every window
        else:
            before = [p for p in self.pending if p[1] < occurrence[1]]
            self._take(before, self.pending, occurrence, out)

    def _or(self, port: int, occurrence, out: list) -> None:
        out.append(occurrence)

    def _and(self, port: int, occurrence, out: list) -> None:
        mine, other = self.sides[port], self.sides[1 - port]
        if self.context == "recent":
            mine[:] = [occurrence]
            if other:
                out.append(_span(other[-1], occurrence))
        elif self.context == "chronicle":
            mine.append(occurrence)
            if other:
                out.append(_span(mine.pop(0), other.pop(0)))
        elif self.context == "continuous":
            if other:
                out.extend(_span(i, occurrence) for i in other)
                other.clear()
            else:
                mine.append(occurrence)
        else:
            mine.append(occurrence)
            if other:
                out.append(_span(*mine, *other))
                mine.clear()
                other.clear()

    def _astar(self, port: int, occurrence, out: list) -> None:
        # A window is [initiator, has_middle]; recent and cumulative keep
        # one window, so a new initiator replaces it.
        windows = self.pending
        if port == 0:
            if self.context in ("recent", "cumulative"):
                windows.clear()
            windows.append([occurrence, False])
            return
        live = [w for w in windows if w[0][1] < occurrence[1]]
        if not live:
            return
        if port == 1:
            if self.context == "continuous":
                for window in live:
                    window[1] = True
            else:
                (live[0] if self.context == "chronicle" else live[-1])[1] = True
            return
        closing = live[:1] if self.context == "chronicle" else live
        for window in closing:
            windows.remove(window)
        filled = [w[0] for w in closing if w[1]]
        if self.context == "cumulative":
            if filled:
                out.append(_span(closing[0][0], occurrence))
        else:
            out.extend(_span(initiator, occurrence) for initiator in filled)
