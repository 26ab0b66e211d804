"""A transaction is bound only where it is in use.

A root ended on another thread cannot be unbound in the context that
began it, so the detector reads a finished root as no transaction; and
a detached trigger asks for no parent, because its rule runs under a
root of its own.
"""

import threading

from repro.sentinel import Sentinel


def test_a_root_committed_on_another_thread_reads_as_none():
    system = Sentinel(name="cross-thread")
    detector = system.detector
    system.explicit_event("e")
    seen = []
    system.rule("r", "e",
                action=lambda o: seen.append(detector.current_transaction()))
    txn = system.begin()
    committer = threading.Thread(target=system.commit, args=(txn,))
    committer.start()
    committer.join()
    assert txn.finished
    assert system.current() is None
    assert detector.transaction_root() is None
    assert detector.current_transaction() is None
    # A rule triggered here, outside any transaction, nests under none.
    occurrence = system.raise_event("e")
    assert occurrence.txn_id is None
    assert seen == [None]
    # The context begins and ends its next transaction as usual.
    with system.transaction() as again:
        system.raise_event("e")
    assert seen[-1].root() is again.root
    assert detector.transaction_root() is None
    system.close()


def test_a_detached_trigger_inside_an_action_begins_no_subtransaction(
        monkeypatch):
    system = Sentinel(name="detached-probe")
    system.explicit_event("a")
    system.explicit_event("d")
    ran = []
    system.rule("act", "a", action=lambda o: system.raise_event("d"))
    system.rule("later", "d", action=ran.append, coupling="detached")
    begun = []
    begin_sub = system.txns.begin_sub

    def counting(parent, label=""):
        begun.append(label)
        return begin_sub(parent, label=label)

    monkeypatch.setattr(system.txns, "begin_sub", counting)
    with system.transaction():
        system.raise_event("a")
    system.wait_detached(timeout=10)
    assert len(ran) == 1
    assert begun == []
    system.close()
