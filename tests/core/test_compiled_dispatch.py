"""Checks kept from the retired compiled dispatch engine's parity suite.

The compiled engine is gone; the interpreted notify/raise_event path is
the only detection engine. These checks pinned behavior the compiled
engine had to share with it — suppression, unknown-name rejection, rule
error policies, detached coupling and collect-mode replay — and they
now run against the one engine that remains. Their names are unchanged
so each check's history stays traceable; ``[interpreted]`` names the
engine the parametrised ones run on.
"""

import pytest

from repro import Sentinel
from repro.core.detector import LocalEventDetector
from repro.errors import RuleExecutionError, UnknownEvent


@pytest.fixture(params=("interpreted",))
def det(request):
    detector = LocalEventDetector()
    yield detector
    detector.shutdown()


def test_suppression_parity(det):
    det.explicit_event("probe")
    seen = []

    def nosy(occ):
        # notifications from inside a condition are suppressed
        assert det.notify(None, "Account", "deposit", "end", {}) == []
        return True

    det.primitive_event("dep", "Account", "end", "deposit")
    det.rule("r", "probe", condition=nosy, action=seen.append)
    det.raise_event("probe")
    assert len(seen) == 1
    assert det.stats.suppressed == 1


def test_raise_event_unknown_name_parity(det):
    with pytest.raises(UnknownEvent):
        det.raise_event("ghost")


def _boom(occ):
    raise ValueError("boom")


def test_rule_error_policy_parity():
    det = LocalEventDetector(error_policy="abort_rule")
    try:
        det.explicit_event("e")
        det.rule("bad", "e", action=_boom)
        det.raise_event("e")
        assert det.scheduler.stats.failures == 1
        assert len(det.scheduler.errors) == 1
        assert "boom" in str(det.scheduler.errors[0])
    finally:
        det.shutdown()


def test_rule_error_raise_policy_compiled():
    det = LocalEventDetector(error_policy="raise")
    try:
        det.explicit_event("e")
        det.rule("bad", "e", action=_boom)
        with pytest.raises(RuleExecutionError, match="action"):
            det.raise_event("e")
    finally:
        det.shutdown()


def test_detached_coupling_in_compiled_mode():
    system = Sentinel(name="fast-detached")
    try:
        system.explicit_event("e")
        hits = []
        system.rule("d", "e", coupling="detached", action=hits.append)
        system.raise_event("e")
        system.wait_detached(timeout=10)
        assert len(hits) == 1
    finally:
        system.close()


def test_collect_mode_in_compiled_mode():
    from repro.eventlog.log import EventLog, LoggedEvent
    from repro.eventlog.replay import replay

    log = EventLog()
    log.append(LoggedEvent(
        event_name="e", at=0.0, class_name="$EXPLICIT", instance=None,
        method_name=None, modifier=None, arguments=[], txn_id=None,
    ))
    det = LocalEventDetector()
    try:
        det.explicit_event("e")
        det.rule("r", "e", action=lambda occ: None)
        report = replay(log, det, mode="collect")
        assert report.triggered_rules() == ["r"]
    finally:
        det.shutdown()
