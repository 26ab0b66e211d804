"""Unit tests for heap files."""

import random
import sys
import threading

import pytest

from repro.errors import PageError, RecordNotFound
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapFile, RecordId


@pytest.fixture()
def heap(tmp_path):
    with DiskManager(tmp_path / "data.db") as disk:
        yield HeapFile(BufferPool(disk, capacity=16))


def test_insert_read_roundtrip(heap):
    rid = heap.insert(b"record")
    assert heap.read(rid) == b"record"


def test_records_spill_to_new_pages(heap):
    rids = [heap.insert(b"x" * 500) for __ in range(20)]
    assert len({rid.page_id for rid in rids}) > 1
    for rid in rids:
        assert heap.read(rid) == b"x" * 500


def test_update(heap):
    rid = heap.insert(b"old")
    heap.update(rid, b"new and longer value")
    assert heap.read(rid) == b"new and longer value"


def test_delete_then_read_raises(heap):
    rid = heap.insert(b"bye")
    heap.delete(rid)
    with pytest.raises(RecordNotFound):
        heap.read(rid)
    assert not heap.exists(rid)


def test_unknown_rid_raises(heap):
    with pytest.raises(RecordNotFound):
        heap.read(RecordId(999, 0))


def test_scan_yields_all_live_records(heap):
    rids = [heap.insert(f"r{i}".encode()) for i in range(10)]
    heap.delete(rids[3])
    heap.delete(rids[7])
    found = dict(heap.scan())
    assert len(found) == 8
    assert rids[3] not in found
    assert found[rids[0]] == b"r0"


def test_len_counts_live_records(heap):
    for i in range(5):
        heap.insert(f"{i}".encode())
    assert len(heap) == 5


def test_insert_at_same_rid_for_redo(heap):
    rid = heap.insert(b"original")
    heap.delete(rid)
    heap.insert_at(rid, b"replayed")
    assert heap.read(rid) == b"replayed"


def test_page_lsn_roundtrip(heap):
    rid = heap.insert(b"x")
    heap.set_page_lsn(rid.page_id, 77)
    assert heap.page_lsn(rid.page_id) == 77


def test_record_id_ordering_and_str():
    a = RecordId(1, 2)
    b = RecordId(1, 3)
    assert a < b
    assert str(a) == "rid(1,2)"


# -- free-space map ---------------------------------------------------------------


def _scan_placement(heap, pool, disk, size):
    """Where a newest-first scan of every page puts a ``size``-byte record.

    Read-only: pages are pinned clean and nothing is written.
    """
    for page_id in reversed(heap.pages):
        with pool.page(page_id) as page:
            if page.can_insert(size):
                free = [s for s in range(page.slot_count) if not page.is_slot_live(s)]
                return RecordId(page_id, free[0] if free else page.slot_count)
    return RecordId(disk.num_pages, 0)


def _drive(heap, pool, disk, rng, live, dead, steps):
    """A seeded mix of inserts, deletes, updates and redo-style insert_at;
    every insert must land where a full scan says it would."""
    for __ in range(steps):
        roll = rng.random()
        if roll < 0.55 or not live:
            record = bytes([rng.randrange(256)]) * rng.randint(1, 900)
            expected = _scan_placement(heap, pool, disk, len(record))
            rid = heap.insert(record)
            assert rid == expected
            live[rid] = record
        elif roll < 0.7:
            rid = rng.choice(sorted(live))
            heap.delete(rid)
            del live[rid]
            dead.append(rid)
        elif roll < 0.9:
            rid = rng.choice(sorted(live))
            record = bytes([rng.randrange(256)]) * rng.randint(1, 1200)
            try:
                heap.update(rid, record)  # grows or shrinks
            except PageError:
                continue  # no room even compacted; the page keeps the old one
            live[rid] = record
        elif dead:
            rid = dead.pop(rng.randrange(len(dead)))
            if rid in live:
                continue  # a later insert reused the slot
            record = bytes([rng.randrange(256)]) * rng.randint(1, 300)
            try:
                heap.insert_at(rid, record)
            except PageError:
                continue
            live[rid] = record


def test_map_keeps_placement_of_a_full_scan_across_reopen(tmp_path):
    rng = random.Random(44)
    live, dead = {}, []
    with DiskManager(tmp_path / "data.db") as disk:
        pool = BufferPool(disk, capacity=4)
        heap = HeapFile(pool)
        _drive(heap, pool, disk, rng, live, dead, steps=700)
        assert disk.num_pages >= 30  # far more pages than frames
        pool.flush_all()
    with DiskManager(tmp_path / "data.db") as disk:
        pool = BufferPool(disk, capacity=4)
        heap = HeapFile(pool, pages=list(range(disk.num_pages)))
        assert dict(heap.scan()) == live
        # The map starts empty, yet an existing page with room still
        # takes a record before a new page is allocated.
        pages = disk.num_pages
        assert _scan_placement(heap, pool, disk, 1).page_id < pages
        rid = heap.insert(b"s")
        assert rid.page_id < pages
        live[rid] = b"s"
        _drive(heap, pool, disk, rng, live, dead, steps=250)
        assert dict(heap.scan()) == live


def test_fill_writes_each_page_back_about_once(tmp_path):
    capacity, pages = 4, 60
    with DiskManager(tmp_path / "data.db") as disk:
        pool = BufferPool(disk, capacity=capacity)
        heap = HeapFile(pool)
        while disk.num_pages < pages:
            heap.insert(b"r" * 300)
        assert pool.stats.flushes <= pages + capacity
        assert pool.stats.misses <= pages  # page reads from the file


def test_probed_page_that_is_not_chosen_stays_clean(tmp_path):
    with DiskManager(tmp_path / "data.db") as disk:
        pool = BufferPool(disk, capacity=4)
        heap = HeapFile(pool)
        roomy = heap.insert(b"a" * 2000)
        full = heap.insert(b"b" * 3000)
        assert full.page_id != roomy.page_id
        pool.flush_all()
        # A second heap over the same pages knows nothing of their room,
        # so it probes the newest page first.
        reopened = HeapFile(pool, pages=heap.pages)
        assert reopened.insert(b"c" * 1500).page_id == roomy.page_id
        flushed = pool.stats.flushes
        pool.flush_all()
        assert pool.stats.flushes - flushed == 1  # the chosen page only


def test_concurrent_mutations_keep_the_map_exact(tmp_path):
    """Threads inserting, updating and deleting at once lose no map update:
    afterwards every insert still lands where a full scan says."""
    models = [{} for __ in range(6)]
    errors = []
    with DiskManager(tmp_path / "data.db") as disk:
        pool = BufferPool(disk, capacity=4)
        heap = HeapFile(pool)

        def worker(seed, model):
            rng = random.Random(seed)
            try:
                for __ in range(150):
                    roll = rng.random()
                    if roll < 0.6 or not model:
                        record = bytes([seed]) * rng.randint(1, 700)
                        model[heap.insert(record)] = record
                    elif roll < 0.8:
                        rid = rng.choice(sorted(model))
                        heap.delete(rid)
                        del model[rid]
                    else:
                        rid = rng.choice(sorted(model))
                        record = bytes([seed]) * rng.randint(1, 300)
                        try:
                            heap.update(rid, record)
                        except PageError:
                            continue  # no room; the page keeps the old one
                        model[rid] = record
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed, model))
                for seed, model in enumerate(models)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        live = {rid: record for model in models for rid, record in model.items()}
        assert dict(heap.scan()) == live
        for size in (1, 200, 700, 2000, 4000):
            expected = _scan_placement(heap, pool, disk, size)
            assert heap.insert(b"z" * size) == expected


def test_oversized_insert_allocates_no_page(tmp_path):
    """A record no page can hold is refused before a page is allocated:
    the data file does not grow, and a reopen adopts no orphan page."""
    with DiskManager(tmp_path / "data.db") as disk:
        heap = HeapFile(BufferPool(disk, capacity=4))
        heap.insert(b"small")
        with pytest.raises(PageError):
            heap.insert(b"x" * 5000)
        assert disk.num_pages == 1
        assert heap.pages == [0]
