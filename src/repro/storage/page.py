"""Slotted pages: the unit of storage and buffering.

Layout (all integers little-endian, offsets in bytes):

::

    0..4    page LSN (uint32)        -- last log record that touched the page
    4..6    slot count (uint16)
    6..8    free-space pointer (uint16, offset of the *end* of free space)
    8..     slot directory, 4 bytes per slot: offset (uint16), length (uint16)
    ...     free space
    ...     record data, growing downward from the end of the page

A deleted slot keeps its directory entry with ``offset == TOMBSTONE`` so
record ids remain stable; the slot can be reused by a later insert.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from repro.errors import PageError

PAGE_SIZE = 4096

_HEADER = struct.Struct("<IHH")  # lsn, slot_count, free_space_end
_SLOT = struct.Struct("<HH")  # offset, length
_HEADER_SIZE = _HEADER.size
_SLOT_SIZE = _SLOT.size
_TOMBSTONE = 0xFFFF
MAX_RECORD = PAGE_SIZE - _HEADER_SIZE - _SLOT_SIZE  # an empty page's room


class SlottedPage:
    """A fixed-size page holding variable-length records in slots.

    The page operates directly on a ``bytearray`` (typically a buffer
    pool frame) so mutations are visible to the pool without copying.
    """

    def __init__(self, data: Optional[bytearray] = None):
        if data is None:
            data = bytearray(PAGE_SIZE)
            self._data = data
            self._write_header(0, 0, PAGE_SIZE)
        else:
            if len(data) != PAGE_SIZE:
                raise PageError(f"page must be {PAGE_SIZE} bytes, got {len(data)}")
            self._data = data
            # A fresh all-zero buffer would decode as free_space_end == 0;
            # normalize it so the page is immediately usable.
            if self.free_space_end == 0 and self.slot_count == 0:
                self._write_header(self.lsn, 0, PAGE_SIZE)

    # -- header -------------------------------------------------------------

    def _write_header(self, lsn: int, slot_count: int, free_end: int) -> None:
        _HEADER.pack_into(self._data, 0, lsn, slot_count, free_end)

    @property
    def data(self) -> bytearray:
        return self._data

    @property
    def lsn(self) -> int:
        return _HEADER.unpack_from(self._data, 0)[0]

    @lsn.setter
    def lsn(self, value: int) -> None:
        _HEADER.pack_into(
            self._data, 0, value & 0xFFFFFFFF, self.slot_count, self.free_space_end
        )

    @property
    def slot_count(self) -> int:
        return _HEADER.unpack_from(self._data, 0)[1]

    @property
    def free_space_end(self) -> int:
        return _HEADER.unpack_from(self._data, 0)[2]

    @property
    def free_space(self) -> int:
        """Usable bytes, assuming the next insert needs a new slot."""
        used_by_slots = _HEADER_SIZE + self.slot_count * _SLOT_SIZE
        return max(0, self.free_space_end - used_by_slots)

    # -- slot directory -----------------------------------------------------

    def _slot(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.slot_count:
            raise PageError(f"slot {index} out of range (count={self.slot_count})")
        return _SLOT.unpack_from(self._data, _HEADER_SIZE + index * _SLOT_SIZE)

    def _set_slot(self, index: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self._data, _HEADER_SIZE + index * _SLOT_SIZE, offset, length)

    def _next_slot(self) -> tuple[int, int]:
        """``(slot, room)`` for the next insert: the lowest tombstoned slot
        (else a new one) and the longest record it then takes, negative
        when none fits.

        The tombstone search reads the directory's offsets as one run of
        uint16s; 0xFFFF reads the same in either byte order.
        """
        __, count, free_end = _HEADER.unpack_from(self._data, 0)
        directory_end = _HEADER_SIZE + count * _SLOT_SIZE
        room = free_end - directory_end
        directory = memoryview(self._data)[_HEADER_SIZE:directory_end]
        offsets = directory.cast("H")[::2].tolist()
        if _TOMBSTONE in offsets:
            return offsets.index(_TOMBSTONE), room
        return count, room - _SLOT_SIZE

    # -- record operations ----------------------------------------------------

    def room(self) -> int:
        """Longest record an insert accepts now (negative when none fits)."""
        return self._next_slot()[1]

    def can_insert(self, length: int) -> bool:
        """True if a record of ``length`` bytes fits on this page."""
        return length <= self.room()

    def insert(self, record: bytes) -> int:
        """Store ``record`` in the lowest free slot and return its number."""
        if not record:
            raise PageError("cannot insert an empty record")
        slot, room = self._next_slot()
        if len(record) > room:
            raise PageError(
                f"record of {len(record)} bytes does not fit "
                f"(free={self.free_space})"
            )
        lsn, count, free_end = _HEADER.unpack_from(self._data, 0)
        new_end = free_end - len(record)
        self._data[new_end:free_end] = record
        self._write_header(lsn, max(count, slot + 1), new_end)
        self._set_slot(slot, new_end, len(record))
        return slot

    def insert_into(self, slot: int, record: bytes) -> None:
        """Place ``record`` in a *specific* slot (recovery replay).

        Unlike :meth:`insert`, which reuses the lowest tombstoned slot,
        replay must land a record exactly where the log says it lived —
        undoing a DELETE re-creates the record at its original slot
        even when lower-numbered slots happen to be free. Grows the
        slot directory (tombstoning any gap) when ``slot`` does not
        exist yet.
        """
        if not record:
            raise PageError("cannot insert an empty record")
        if slot < 0:
            raise PageError(f"slot {slot} out of range")
        if slot < self.slot_count:
            offset, __ = self._slot(slot)
            if offset != _TOMBSTONE:
                raise PageError(f"slot {slot} is live")
            new_slots = 0
        else:
            new_slots = slot + 1 - self.slot_count
        directory_end = _HEADER_SIZE + (self.slot_count + new_slots) * _SLOT_SIZE
        if self.free_space_end - directory_end < len(record):
            self.compact()
            if self.free_space_end - directory_end < len(record):
                raise PageError(
                    f"record of {len(record)} bytes does not fit in slot "
                    f"{slot} (free={self.free_space_end - directory_end})"
                )
        if new_slots:
            count = self.slot_count
            self._write_header(self.lsn, slot + 1, self.free_space_end)
            for gap in range(count, slot + 1):
                self._set_slot(gap, _TOMBSTONE, 0)
        new_end = self.free_space_end - len(record)
        self._data[new_end : new_end + len(record)] = record
        self._write_header(self.lsn, self.slot_count, new_end)
        self._set_slot(slot, new_end, len(record))

    def read(self, slot: int) -> bytes:
        """Return the record stored in ``slot``."""
        offset, length = self._slot(slot)
        if offset == _TOMBSTONE:
            raise PageError(f"slot {slot} is deleted")
        return bytes(self._data[offset : offset + length])

    def delete(self, slot: int) -> None:
        """Tombstone ``slot``; its space is reclaimed on next compaction."""
        offset, __ = self._slot(slot)
        if offset == _TOMBSTONE:
            raise PageError(f"slot {slot} is already deleted")
        self._set_slot(slot, _TOMBSTONE, 0)

    def update(self, slot: int, record: bytes) -> None:
        """Replace the record in ``slot``.

        In-place when the new record is no longer than the old one;
        otherwise the record is re-inserted at the free-space frontier
        (compacting first if fragmentation allows the fit).
        """
        offset, length = self._slot(slot)
        if offset == _TOMBSTONE:
            raise PageError(f"slot {slot} is deleted")
        if len(record) <= length:
            self._data[offset : offset + len(record)] = record
            self._set_slot(slot, offset, len(record))
            return
        # Needs more room: tombstone, compact if necessary, re-insert.
        old = bytes(self._data[offset : offset + length])
        self._set_slot(slot, _TOMBSTONE, 0)
        if self.free_space < len(record):
            self.compact()
        free = self.free_space
        # On no fit the original goes back instead: compaction may have
        # moved other records over its bytes, and it fits in what it freed.
        fits = free >= len(record)
        placed = record if fits else old
        new_end = self.free_space_end - len(placed)
        self._data[new_end : new_end + len(placed)] = placed
        self._write_header(self.lsn, self.slot_count, new_end)
        self._set_slot(slot, new_end, len(placed))
        if not fits:
            raise PageError(
                f"updated record of {len(record)} bytes does not fit "
                f"(free={free})"
            )

    def compact(self) -> None:
        """Squeeze out holes left by deletes/updates; slots keep their ids."""
        live = []
        for i in range(self.slot_count):
            offset, length = self._slot(i)
            if offset != _TOMBSTONE:
                live.append((i, bytes(self._data[offset : offset + length])))
        end = PAGE_SIZE
        for i, record in live:
            end -= len(record)
            self._data[end : end + len(record)] = record
            self._set_slot(i, end, len(record))
        self._write_header(self.lsn, self.slot_count, end)

    # -- iteration ------------------------------------------------------------

    def slots(self) -> Iterator[int]:
        """Yield the slot numbers of live records."""
        for i in range(self.slot_count):
            offset, __ = self._slot(i)
            if offset != _TOMBSTONE:
                yield i

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot, record)`` pairs for live records."""
        for i in self.slots():
            yield i, self.read(i)

    def is_slot_live(self, slot: int) -> bool:
        if not 0 <= slot < self.slot_count:
            return False
        offset, __ = self._slot(slot)
        return offset != _TOMBSTONE
