"""Unit tests for slotted pages."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageError
from repro.storage.page import PAGE_SIZE, SlottedPage


def test_new_page_is_empty():
    page = SlottedPage()
    assert page.slot_count == 0
    assert page.free_space_end == PAGE_SIZE
    assert list(page.records()) == []


def test_insert_and_read_roundtrip():
    page = SlottedPage()
    slot = page.insert(b"hello")
    assert page.read(slot) == b"hello"
    assert page.slot_count == 1


def test_multiple_inserts_get_distinct_slots():
    page = SlottedPage()
    slots = [page.insert(f"rec{i}".encode()) for i in range(10)]
    assert slots == list(range(10))
    for i, slot in enumerate(slots):
        assert page.read(slot) == f"rec{i}".encode()


def test_insert_empty_record_rejected():
    page = SlottedPage()
    with pytest.raises(PageError):
        page.insert(b"")


def test_insert_too_large_rejected():
    page = SlottedPage()
    with pytest.raises(PageError):
        page.insert(b"x" * PAGE_SIZE)


def test_delete_tombstones_slot():
    page = SlottedPage()
    slot = page.insert(b"doomed")
    page.delete(slot)
    with pytest.raises(PageError):
        page.read(slot)
    assert not page.is_slot_live(slot)


def test_double_delete_rejected():
    page = SlottedPage()
    slot = page.insert(b"x")
    page.delete(slot)
    with pytest.raises(PageError):
        page.delete(slot)


def test_deleted_slot_is_reused():
    page = SlottedPage()
    a = page.insert(b"a")
    page.insert(b"b")
    page.delete(a)
    c = page.insert(b"c")
    assert c == a
    assert page.read(c) == b"c"


def test_update_in_place_when_smaller():
    page = SlottedPage()
    slot = page.insert(b"longer-record")
    page.update(slot, b"short")
    assert page.read(slot) == b"short"


def test_update_grows_record():
    page = SlottedPage()
    slot = page.insert(b"tiny")
    page.update(slot, b"a much longer record body")
    assert page.read(slot) == b"a much longer record body"


def test_update_deleted_slot_rejected():
    page = SlottedPage()
    slot = page.insert(b"x")
    page.delete(slot)
    with pytest.raises(PageError):
        page.update(slot, b"y")


def test_failed_growing_update_keeps_the_record():
    page = SlottedPage()
    first = page.insert(b"a" * 100)
    kept = page.insert(b"k" * 100)
    others = [page.insert(bytes([c]) * 1000) for c in b"cd"]
    page.delete(first)
    # Compaction moves the later records up over kept's old bytes and
    # still leaves too little room, so the update fails.
    with pytest.raises(PageError):
        page.update(kept, b"K" * 3500)
    assert page.read(kept) == b"k" * 100
    assert [page.read(s) for s in others] == [b"c" * 1000, b"d" * 1000]


def test_compact_reclaims_space():
    page = SlottedPage()
    slots = [page.insert(b"x" * 200) for __ in range(10)]
    free_before = page.free_space
    for slot in slots[:5]:
        page.delete(slot)
    page.compact()
    assert page.free_space >= free_before + 5 * 200
    # survivors are intact
    for slot in slots[5:]:
        assert page.read(slot) == b"x" * 200


def test_update_triggers_compaction_when_fragmented():
    page = SlottedPage()
    keep = page.insert(b"k" * 100)
    fillers = [page.insert(b"f" * 400) for __ in range(9)]
    for slot in fillers:
        page.delete(slot)
    big = b"B" * (page.free_space_end - 300)
    # Without compaction there is not enough *contiguous* space; update
    # must compact and succeed.
    page.update(keep, big)
    assert page.read(keep) == big


def test_page_fills_up():
    page = SlottedPage()
    count = 0
    while page.can_insert(100):
        page.insert(b"y" * 100)
        count += 1
    assert count > 30
    with pytest.raises(PageError):
        page.insert(b"y" * 100)


def test_lsn_roundtrip():
    page = SlottedPage()
    page.lsn = 12345
    page.insert(b"data")
    assert page.lsn == 12345


def test_rejects_wrong_size_buffer():
    with pytest.raises(PageError):
        SlottedPage(bytearray(100))


def test_page_survives_buffer_roundtrip():
    page = SlottedPage()
    slot = page.insert(b"persisted")
    page.lsn = 7
    reloaded = SlottedPage(bytearray(page.data))
    assert reloaded.read(slot) == b"persisted"
    assert reloaded.lsn == 7


@settings(max_examples=50)
@given(
    st.lists(
        st.binary(min_size=1, max_size=64),
        min_size=1,
        max_size=30,
    )
)
def test_property_insert_read_all(records):
    page = SlottedPage()
    slots = [page.insert(r) for r in records]
    for slot, record in zip(slots, records):
        assert page.read(slot) == record


@settings(max_examples=50)
@given(
    st.lists(st.binary(min_size=1, max_size=64), min_size=2, max_size=20),
    st.data(),
)
def test_property_delete_then_compact_preserves_survivors(records, data):
    page = SlottedPage()
    slots = [page.insert(r) for r in records]
    to_delete = data.draw(
        st.sets(st.sampled_from(slots), max_size=len(slots) - 1)
    )
    for slot in to_delete:
        page.delete(slot)
    page.compact()
    for slot, record in zip(slots, records):
        if slot in to_delete:
            assert not page.is_slot_live(slot)
        else:
            assert page.read(slot) == record
