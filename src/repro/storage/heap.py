"""Heap files: unordered collections of variable-length records.

A heap file is a set of slotted pages reached through the buffer pool.
Records are addressed by a stable :class:`RecordId` (page, slot).

The file keeps an in-memory free-space map: page id -> the longest record
the page accepts now (:meth:`SlottedPage.room`), or None while unknown.
Every page mutation goes through the heap, which refreshes the page's
entry; a heap opened over existing pages starts with every entry
unknown and learns each the first time an insert reaches it. An insert
skips the pages known to be too full and pins the others clean, so only
the page that takes the record is written back; it lands exactly where a
newest-first scan of every page would put it. The map is a hint: a page
is always asked again before a record goes in.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import PageError, RecordNotFound
from repro.faults import registry as faults
from repro.storage.buffer import BufferPool

faults.declare(
    "heap.insert.pre", "heap.update.pre", "heap.delete.pre",
    group="storage",
)


@dataclass(frozen=True, order=True)
class RecordId:
    """Stable address of a record: page id plus slot number."""

    page_id: int
    slot: int

    def __str__(self) -> str:
        return f"rid({self.page_id},{self.slot})"


class HeapFile:
    """A bag of records stored across slotted pages.

    The heap registers every page it allocates in ``_pages`` so scans
    know which pages belong to this file even when several heaps share
    one buffer pool/disk (the storage manager gives each heap its own
    page-id universe by construction, but the registry keeps the scan
    honest regardless).
    """

    def __init__(self, pool: BufferPool, pages: Optional[list[int]] = None):
        self._pool = pool
        self._pages: list[int] = list(pages) if pages else []
        #: page id -> room for the next insert (None: not yet known); its
        #: keys are the heap's pages, so it answers membership too
        self._room: dict[int, Optional[int]] = dict.fromkeys(self._pages)
        self._lock = threading.RLock()

    @property
    def pages(self) -> list[int]:
        with self._lock:
            return list(self._pages)

    def has_page(self, page_id: int) -> bool:
        return page_id in self._room

    # -- mutation ----------------------------------------------------------------

    def insert(self, record: bytes) -> RecordId:
        """Store ``record``; returns its new :class:`RecordId`."""
        if faults.ENABLED:
            faults.fault_point("heap.insert.pre")
        size = len(record)
        with self._lock:
            # The newest page with room takes it: inserts cluster there.
            for page_id in reversed(self._pages):
                room = self._room[page_id]
                if room is not None and room < size:
                    continue
                page = self._pool.fetch_page(page_id)
                slot = None
                try:
                    if page.can_insert(size):
                        slot = page.insert(record)
                    self._room[page_id] = page.room()
                finally:
                    self._pool.unpin_page(page_id, dirty=slot is not None)
                if slot is not None:
                    return RecordId(page_id, slot)
            page_id, page = self._pool.new_page()
            try:
                slot = page.insert(record)
                self._room[page_id] = page.room()
            finally:
                self._pool.unpin_page(page_id, dirty=True)
            self._pages.append(page_id)
            return RecordId(page_id, slot)

    def insert_at(self, rid: RecordId, record: bytes) -> None:
        """Re-insert a record at a known rid (used by redo recovery).

        Pages are allocated as needed so that replaying an insert after
        a crash lands the record at its original address.
        """
        with self._lock:
            while rid.page_id not in self._room:
                page_id, page = self._pool.new_page()
                self._pool.unpin_page(page_id, dirty=True)
                self._pages.append(page_id)
                self._room[page_id] = None
                if page_id > rid.page_id and rid.page_id not in self._room:
                    raise PageError(
                        f"cannot materialize page {rid.page_id} for redo"
                    )
            with self._pool.page(rid.page_id, dirty=True) as page:
                try:
                    if page.is_slot_live(rid.slot):
                        page.update(rid.slot, record)
                    else:
                        # Replay must hit the exact slot: picking the
                        # lowest free one (plain insert) diverges the
                        # moment a CLR re-creates a deleted record while
                        # lower slots are free — found by the crash
                        # sweep, not hypothetical.
                        page.insert_into(rid.slot, record)
                finally:
                    self._room[rid.page_id] = page.room()

    def read(self, rid: RecordId) -> bytes:
        with self._lock:
            self._check(rid)
            with self._pool.page(rid.page_id) as page:
                try:
                    return page.read(rid.slot)
                except PageError as exc:
                    raise RecordNotFound(str(rid)) from exc

    def update(self, rid: RecordId, record: bytes) -> None:
        if faults.ENABLED:
            faults.fault_point("heap.update.pre")
        with self._lock:
            self._check(rid)
            with self._pool.page(rid.page_id, dirty=True) as page:
                try:
                    page.update(rid.slot, record)
                except PageError as exc:
                    if not page.is_slot_live(rid.slot):
                        raise RecordNotFound(str(rid)) from exc
                    raise
                finally:
                    # A failed update may still have compacted the page.
                    self._room[rid.page_id] = page.room()

    def delete(self, rid: RecordId) -> None:
        if faults.ENABLED:
            faults.fault_point("heap.delete.pre")
        with self._lock:
            self._check(rid)
            with self._pool.page(rid.page_id, dirty=True) as page:
                try:
                    page.delete(rid.slot)
                except PageError as exc:
                    raise RecordNotFound(str(rid)) from exc
                self._room[rid.page_id] = page.room()

    def exists(self, rid: RecordId) -> bool:
        with self._lock:
            if rid.page_id not in self._room:
                return False
            with self._pool.page(rid.page_id) as page:
                return page.is_slot_live(rid.slot)

    def set_page_lsn(self, page_id: int, lsn: int) -> None:
        """Stamp the page with the LSN of the log record that changed it."""
        with self._pool.page(page_id, dirty=True) as page:
            page.lsn = lsn

    def page_lsn(self, page_id: int) -> int:
        with self._pool.page(page_id) as page:
            return page.lsn

    # -- scan ----------------------------------------------------------------------

    def scan(self) -> Iterator[tuple[RecordId, bytes]]:
        """Yield every live record, in page/slot order."""
        for page_id in self.pages:
            with self._pool.page(page_id) as page:
                entries = list(page.records())
            for slot, record in entries:
                yield RecordId(page_id, slot), record

    def __len__(self) -> int:
        return sum(1 for __ in self.scan())

    def _check(self, rid: RecordId) -> None:
        if rid.page_id not in self._room:
            raise RecordNotFound(str(rid))
