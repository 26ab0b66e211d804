"""Crash recovery: ARIES-style analysis / redo / undo.

Invoked by :class:`~repro.storage.manager.StorageManager` on open. The
protocol follows ARIES in miniature:

1. **Analysis** — scan the log; transactions with a ``BEGIN`` but no
   terminal ``COMMIT``/``ABORT`` record are *losers*.
2. **Redo** — repeat history: every data record (including CLRs) whose
   LSN is newer than its page's LSN is reapplied, bringing the database
   to its state at the crash.
3. **Undo** — roll back the losers, newest record first, writing
   compensation log records (CLRs) so that a crash *during* recovery
   restarts cleanly, then log ``ABORT`` for each loser.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RecoveryError
from repro.faults import registry as faults
from repro.storage.heap import HeapFile, RecordId
from repro.storage.wal import LogRecord, LogRecordType, WriteAheadLog

faults.declare(
    "recovery.analysis.post", "recovery.redo.record", "recovery.undo.clr",
    "recovery.undo.abort", "recovery.flush.pre",
    group="storage",
)


@dataclass
class RecoveryReport:
    """What recovery did, for tests and operator visibility."""

    records_scanned: int = 0
    redone: int = 0
    undone: int = 0
    redo_skipped_by_checkpoint: int = 0
    checkpoint_lsn: int = -1
    #: highest LSN whose page effects the checkpoint guaranteed on disk
    redo_cut: int = -1
    losers: list[int] = field(default_factory=list)
    committed: list[int] = field(default_factory=list)


def recover(wal: WriteAheadLog, heap: HeapFile) -> RecoveryReport:
    """Run full analysis/redo/undo over ``wal`` against ``heap``."""
    report = RecoveryReport()
    records: list[LogRecord] = list(wal.records())
    report.records_scanned = len(records)
    if not records:
        return report
    by_lsn = {r.lsn: r for r in records}

    # ---- analysis ----------------------------------------------------------
    active: dict[int, int] = {}  # txn -> last lsn
    finished: set[int] = set()
    committed: set[int] = set()
    checkpoint_lsn = -1
    redo_cut = -1
    for record in records:
        if record.type is LogRecordType.BEGIN:
            active[record.txn_id] = record.lsn
        elif record.type in (LogRecordType.COMMIT, LogRecordType.ABORT):
            active.pop(record.txn_id, None)
            finished.add(record.txn_id)
            if record.type is LogRecordType.COMMIT:
                committed.add(record.txn_id)
        elif record.type is LogRecordType.CHECKPOINT:
            # The checkpoint's page flush only guarantees durability up
            # to the redo cut it recorded — a record appended while the
            # pages were being flushed has an LSN below the CHECKPOINT
            # record's but may have missed the flush. Logs from before
            # the cut existed carry no guarantee at all: redo everything.
            checkpoint_lsn = record.lsn
            redo_cut = record.extra.get("redo_below", -1)
        elif record.txn_id in active:
            active[record.txn_id] = record.lsn
    report.losers = sorted(active)
    report.committed = sorted(committed)
    report.checkpoint_lsn = checkpoint_lsn
    report.redo_cut = redo_cut
    if faults.ENABLED:
        faults.fault_point("recovery.analysis.post")

    # ---- redo: repeat history ------------------------------------------------
    data_types = (
        LogRecordType.INSERT,
        LogRecordType.UPDATE,
        LogRecordType.DELETE,
        LogRecordType.CLR,
    )
    for record in records:
        if record.type not in data_types or record.page_id < 0:
            continue
        if record.lsn <= redo_cut:
            report.redo_skipped_by_checkpoint += 1
            continue
        rid = RecordId(record.page_id, record.slot)
        if _page_is_current(heap, record):
            continue
        if faults.ENABLED:
            faults.fault_point("recovery.redo.record")
        _apply_redo(heap, record, rid)
        heap.set_page_lsn(record.page_id, record.lsn)
        report.redone += 1

    # ---- undo: roll back losers ------------------------------------------------
    for txn_id in report.losers:
        lsn = active[txn_id]
        # The loser's ABORT record must chain to the last record of its
        # undo history (the final CLR we write, or — if this pass wrote
        # none — its last surviving record), so a crash before the
        # flush lands never leaves an ABORT pointing outside the chain.
        last_lsn = active[txn_id]
        while lsn >= 0:
            record = by_lsn.get(lsn)
            if record is None:
                raise RecoveryError(f"undo chain of txn {txn_id} broken at lsn {lsn}")
            if record.type is LogRecordType.CLR:
                lsn = record.undo_next_lsn
                continue
            if record.type is LogRecordType.BEGIN:
                break
            if record.type in data_types:
                rid = RecordId(record.page_id, record.slot)
                clr = LogRecord(
                    lsn=-1,
                    txn_id=txn_id,
                    type=LogRecordType.CLR,
                    prev_lsn=record.lsn,
                    page_id=record.page_id,
                    slot=record.slot,
                    redo=record.undo,
                    undo_next_lsn=record.prev_lsn,
                    extra={"undo_of": record.type.value},
                )
                if faults.ENABLED:
                    faults.fault_point("recovery.undo.clr")
                clr_lsn = wal.append(clr)
                last_lsn = clr_lsn
                _apply_undo(heap, record, rid)
                heap.set_page_lsn(record.page_id, clr_lsn)
                report.undone += 1
            lsn = record.prev_lsn
        if faults.ENABLED:
            faults.fault_point("recovery.undo.abort")
        wal.append(
            LogRecord(
                lsn=-1, txn_id=txn_id, type=LogRecordType.ABORT,
                prev_lsn=last_lsn,
            )
        )
    if faults.ENABLED:
        faults.fault_point("recovery.flush.pre")
    wal.flush()
    return report


def _page_is_current(heap: HeapFile, record: LogRecord) -> bool:
    """True if the page already reflects this log record."""
    if not heap.has_page(record.page_id):
        return False
    return heap.page_lsn(record.page_id) >= record.lsn


def _apply_redo(heap: HeapFile, record: LogRecord, rid: RecordId) -> None:
    if record.type is LogRecordType.INSERT:
        heap.insert_at(rid, record.redo)
    elif record.type is LogRecordType.UPDATE:
        heap.insert_at(rid, record.redo)
    elif record.type is LogRecordType.DELETE:
        if heap.exists(rid):
            heap.delete(rid)
    elif record.type is LogRecordType.CLR:
        undo_of = record.extra.get("undo_of")
        if undo_of == LogRecordType.INSERT.value:
            if heap.exists(rid):
                heap.delete(rid)
        else:  # undo of update/delete restores the before image
            heap.insert_at(rid, record.redo)


def _apply_undo(heap: HeapFile, record: LogRecord, rid: RecordId) -> None:
    if record.type is LogRecordType.INSERT:
        if heap.exists(rid):
            heap.delete(rid)
    elif record.type is LogRecordType.UPDATE:
        heap.update(rid, record.undo)
    elif record.type is LogRecordType.DELETE:
        heap.insert_at(rid, record.undo)
