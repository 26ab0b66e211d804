"""Generate Python source from a specification AST.

The original pre-processor emitted C++ that was compiled into the
application (the paper shows the generated event-graph construction for
the STOCK class in §3.2.2). This module emits the equivalent Python:
a module body that, given ``detector`` (a
:class:`~repro.core.detector.LocalEventDetector`) and ``ns`` (the build
namespace with classes, instances, conditions, and actions), constructs
the same events and rules the :class:`~repro.snoop.builder.SpecBuilder`
would.

Use :func:`generate` to obtain the source and :func:`execute` to run it.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import SnoopSemanticError
from repro.snoop import ast
from repro.snoop.parser import parse


def generate(spec: ast.Spec | str) -> str:
    """Emit Python source for ``spec``."""
    if isinstance(spec, str):
        spec = parse(spec)
    return _Generator().generate(spec)


def execute(source: str, detector, namespace: Optional[dict] = None) -> dict:
    """Run generated source; returns its resulting globals."""
    scope: dict[str, Any] = {"detector": detector, "ns": namespace or {}}
    exec(compile(source, "<sentinel-generated>", "exec"), scope)
    return scope


class _Generator:
    def __init__(self):
        self._lines: list[str] = []

    def generate(self, spec: ast.Spec) -> str:
        self._lines = [
            "# Generated by the Sentinel pre-processor. Do not edit.",
            "# Requires in scope: detector (LocalEventDetector), ns (dict).",
            "from repro.core.events import E",
            "from repro.snoop.builder import instrument_class",
            "",
        ]
        for class_def in spec.classes:
            self._emit_class(class_def)
        for app_event in spec.app_events:
            self._emit_app_event(app_event)
        for event_def in spec.event_defs:
            self._emit_event_def(event_def, class_name=None)
        for rule_def in spec.rules:
            self._emit_rule(rule_def, class_name=None)
        return "\n".join(self._lines) + "\n"

    # -- emission helpers --------------------------------------------------------

    def _emit(self, line: str) -> None:
        self._lines.append(line)

    def _emit_class(self, class_def: ast.ClassDef) -> None:
        self._emit(f"# class {class_def.name}")
        for decl in class_def.method_events:
            if_class = f"if {class_def.name!r} in ns:"
            self._emit(if_class)
            self._emit(
                f"    instrument_class(ns[{class_def.name!r}], "
                f"{decl.method.name!r}, begin_name={decl.begin_name!r}, "
                f"end_name={decl.end_name!r})"
            )
            for event_name, modifier in (
                (decl.begin_name, "begin"), (decl.end_name, "end")
            ):
                if event_name is None:
                    continue
                node = f"{class_def.name}_{event_name}"
                self._emit(
                    f"{node} = detector.primitive_event({node!r}, "
                    f"{class_def.name!r}, {modifier!r}, "
                    f"{decl.method.name!r})"
                )
        for event_def in class_def.event_defs:
            self._emit_event_def(event_def, class_name=class_def.name)
        for rule_def in class_def.rules:
            self._emit_rule(rule_def, class_name=class_def.name)
        self._emit("")

    def _emit_app_event(self, decl: ast.AppEventDecl) -> None:
        target = (
            f"ns[{decl.target!r}]" if decl.target_is_instance
            else repr(decl.target)
        )
        self._emit(
            f"{decl.name} = detector.primitive_event({decl.name!r}, "
            f"{target}, {decl.modifier!r}, {decl.method.name!r})"
        )

    def _emit_event_def(self, event_def: ast.EventDef,
                        class_name: Optional[str]) -> None:
        node_name = (
            f"{class_name}_{event_def.name}" if class_name else event_def.name
        )
        expr_code = self._expr_code(event_def.expr, class_name)
        self._emit(f"{node_name} = detector.define({node_name!r}, {expr_code})")

    def _expr_code(self, expr: ast.EventExpr,
                   class_name: Optional[str]) -> str:
        if isinstance(expr, ast.EventRef):
            return self._ref_code(expr, class_name)
        if isinstance(expr, ast.AndExpr):
            return (
                f"({self._expr_code(expr.left, class_name)} & "
                f"{self._expr_code(expr.right, class_name)})"
            )
        if isinstance(expr, ast.OrExpr):
            return (
                f"({self._expr_code(expr.left, class_name)} | "
                f"{self._expr_code(expr.right, class_name)})"
            )
        if isinstance(expr, ast.SeqExpr):
            return (
                f"({self._expr_code(expr.left, class_name)} >> "
                f"{self._expr_code(expr.right, class_name)})"
            )
        if isinstance(expr, ast.NotExpr):
            return (
                f"E.not_("
                f"{self._expr_code(expr.initiator, class_name)}, "
                f"{self._expr_code(expr.forbidden, class_name)}, "
                f"{self._expr_code(expr.terminator, class_name)})"
            )
        if isinstance(expr, ast.AperiodicExpr):
            fn = "A_star" if expr.cumulative else "A"
            return (
                f"E.{fn}("
                f"{self._expr_code(expr.initiator, class_name)}, "
                f"{self._expr_code(expr.middle, class_name)}, "
                f"{self._expr_code(expr.terminator, class_name)})"
            )
        if isinstance(expr, ast.PeriodicExpr):
            fn = "P_star" if expr.cumulative else "P"
            return (
                f"E.{fn}("
                f"{self._expr_code(expr.initiator, class_name)}, "
                f"{expr.period!r}, "
                f"{self._expr_code(expr.terminator, class_name)})"
            )
        if isinstance(expr, ast.PlusExpr):
            return (
                f"E.plus("
                f"{self._expr_code(expr.initiator, class_name)}, "
                f"{expr.delay!r})"
            )
        raise SnoopSemanticError(f"cannot generate code for {expr!r}")

    def _ref_code(self, ref: ast.EventRef, class_name: Optional[str]) -> str:
        if ref.class_name:
            return f"detector.event({ref.resolved_name!r})"
        if class_name:
            # Prefer the class-scoped name, falling back to the global.
            scoped = f"{class_name}_{ref.name}"
            return (
                f"(detector.event({scoped!r}) "
                f"if detector.graph.has({scoped!r}) "
                f"else detector.event({ref.name!r}))"
            )
        return f"detector.event({ref.name!r})"

    def _emit_rule(self, rule_def: ast.RuleDef,
                   class_name: Optional[str]) -> None:
        event_code = self._ref_code(ast.EventRef(rule_def.event), class_name)
        args = [
            repr(rule_def.name),
            event_code,
            f"condition=ns[{rule_def.condition!r}]",
            f"action=ns[{rule_def.action!r}]",
        ]
        if rule_def.context:
            args.append(f"context={rule_def.context.lower()!r}")
        if rule_def.coupling:
            args.append(f"coupling={rule_def.coupling.lower()!r}")
        if rule_def.priority is not None:
            args.append(f"priority={rule_def.priority}")
        if rule_def.trigger_mode:
            args.append(f"trigger_mode={rule_def.trigger_mode.lower()!r}")
        self._emit(f"{rule_def.name} = detector.rule({', '.join(args)})")
