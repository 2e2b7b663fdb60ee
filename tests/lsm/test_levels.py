"""Tests for the leveled store: flush intake, compaction, invariants."""

import pytest

from repro.errors import LSMError
from repro.lsm import sstable
from repro.lsm.addressing import AddressCodec, AddressingScheme, ValueAddress
from repro.lsm.levels import LeveledStore
from repro.lsm.space import PageSpace
from repro.lsm.sstable import decode_entries, encode_entry
from repro.nand.flash import NandFlash
from repro.nand.ftl import PageMappedFTL
from repro.nand.geometry import NandGeometry
from repro.sim.clock import SimClock
from repro.sim.latency import LatencyModel
from repro.units import KIB


@pytest.fixture
def store():
    geo = NandGeometry(
        channels=2, ways_per_channel=2, blocks_per_way=32,
        pages_per_block=16, page_size=16 * KIB,
    )
    flash = NandFlash(geo, SimClock(), LatencyModel())
    ftl = PageMappedFTL(flash, gc_reserve_blocks=4)
    space = PageSpace(0, geo.total_pages)
    return LeveledStore(
        ftl, space, AddressingScheme.FINE,
        l0_compaction_trigger=2, l1_page_budget=4,
        level_size_ratio=4, table_page_budget=2,
    )


def addr(n: int) -> ValueAddress:
    return ValueAddress(lpn=n % 1000, offset=0, size=8)


def batch(start: int, count: int, stride: int = 1):
    return [(f"k{start + i * stride:06d}".encode(), addr(start + i)) for i in range(count)]


def check_invariants(store):
    """Structural invariants: L1+ sorted and non-overlapping."""
    for level in range(1, store.max_levels):
        tables = store.levels[level]
        for i in range(len(tables) - 1):
            assert tables[i].max_key < tables[i + 1].min_key, (
                f"level {level} overlap between tables {i} and {i+1}"
            )


class TestFlushIntake:
    def test_flush_lands_in_l0(self, store):
        store.l0_compaction_trigger = 100  # disable compaction
        store.add_flush(batch(0, 10))
        assert len(store.levels[0]) == 1
        found, a = store.get(b"k000003")
        assert found and a == addr(3)

    def test_newest_flush_probed_first(self, store):
        store.l0_compaction_trigger = 100
        store.add_flush([(b"k", addr(1))])
        store.add_flush([(b"k", addr(2))])
        found, a = store.get(b"k")
        assert found and a == addr(2)

    def test_empty_flush_rejected(self, store):
        with pytest.raises(LSMError):
            store.add_flush([])

    def test_flush_counter(self, store):
        store.l0_compaction_trigger = 100
        store.add_flush(batch(0, 5))
        assert store.metrics.counter("flushes").value == 1


class TestCompaction:
    def test_l0_trigger_compacts_into_l1(self, store):
        store.add_flush(batch(0, 200))
        store.add_flush(batch(100, 200))
        assert len(store.levels[0]) < store.l0_compaction_trigger
        assert store.levels[1]
        check_invariants(store)

    def test_compaction_preserves_latest_versions(self, store):
        store.add_flush([(b"dup", addr(1)), (b"only_a", addr(10))])
        store.add_flush([(b"dup", addr(2)), (b"only_b", addr(20))])
        found, a = store.get(b"dup")
        assert found and a == addr(2)
        assert store.get(b"only_a") == (True, addr(10))
        assert store.get(b"only_b") == (True, addr(20))

    def test_tombstones_dropped_at_bottom(self, store):
        store.add_flush([(b"k", addr(1))])
        store.add_flush([(b"k", None)])
        # Both flushes compacted into L1 == lowest populated level.
        found, _ = store.get(b"k")
        assert not found

    def test_deep_ingest_spills_to_lower_levels(self, store):
        for i in range(30):
            store.add_flush(batch(i * 100, 300))
        check_invariants(store)
        deepest = store.lowest_populated_level()
        assert deepest >= 2
        # Spot-check data integrity after multi-level compaction.
        for key_num in (0, 1500, 2900):
            found, _ = store.get(f"k{key_num:06d}".encode())
            assert found

    def test_level_budgets_respected_after_rebalance(self, store):
        for i in range(20):
            store.add_flush(batch(i * 137, 250))
        for level in range(1, store.max_levels - 1):
            assert store.level_pages(level) <= store.level_page_budget(level), (
                f"level {level} over budget"
            )

    def test_compaction_frees_input_tables(self, store):
        for i in range(8):
            store.add_flush(batch(i * 50, 100))
        # Space usage must equal the sum of live tables' pages.
        live_pages = sum(
            t.page_count for level in store.levels for t in level
        )
        assert store.space.pages_in_use == live_pages

    def test_compaction_counter(self, store):
        store.add_flush(batch(0, 200))
        store.add_flush(batch(50, 200))
        assert store.metrics.counter("compactions").value >= 1


class TestReadPath:
    def test_l1_lookup_probes_only_the_one_candidate_table(self, store, monkeypatch):
        store.l1_page_budget = 100  # keep everything in L1
        store.add_flush(batch(0, 4000))
        store.add_flush(batch(4000, 4000))
        assert not store.levels[0] and len(store.levels[1]) >= 3
        probed = []
        real_get = sstable.SSTable.get
        monkeypatch.setattr(
            sstable.SSTable, "get",
            lambda table, key, ftl: probed.append(table) or real_get(table, key, ftl),
        )
        for table in store.levels[1]:
            probed.clear()
            assert store.get(table.max_key)[0]
            assert probed == [table]
        probed.clear()
        assert store.get(b"k999999") == (False, None)  # beyond every table
        assert store.get(b"a") == (False, None)  # before every table
        assert probed == []


class TestRawEntryCompaction:
    """Compaction moves entries as raw bytes; the pages it writes and the
    work it does must be what decode + re-encode produced before."""

    @staticmethod
    def ingest(store):
        """Overwrites and deletes, enough for L0->L1 and L1->L2 merges."""
        model = {}

        def flush(start, count, stride=1, delete_every=0, gen=0):
            items = []
            for j in range(count):
                n = start + j * stride
                dead = delete_every and j % delete_every == 0
                value = None if dead else ValueAddress(
                    lpn=(n + gen) % 1000, offset=(n + gen) % 4096, size=8 + (n + gen) % 50
                )
                items.append((f"k{n:06d}".encode(), value))
            model.update(items)
            store.add_flush(items)

        flush(0, 1500)
        flush(1000, 1500, delete_every=7, gen=1)
        flush(2000, 1500, gen=2)
        flush(0, 1500, stride=3, delete_every=5, gen=3)
        flush(3000, 1500, gen=4)
        flush(500, 1500, stride=2, delete_every=3, gen=5)
        flush(4000, 1400, gen=6)
        flush(100, 900, stride=5, delete_every=2, gen=7)
        return model

    def test_output_pages_equal_reencoded_entries(self, store):
        model = self.ingest(store)
        check_invariants(store)
        page_size = store.ftl.flash.geometry.page_size
        tombstones = [0] * store.max_levels
        for level, tables in enumerate(store.levels):
            for table in tables:
                for lpn in table.lpns:
                    page = store.ftl.read(lpn)
                    entries = decode_entries(page, store.scheme, page_size)
                    blob = b"".join(
                        encode_entry(k, a, store.scheme, page_size) for k, a in entries
                    )
                    expected = len(entries).to_bytes(2, "little") + blob
                    assert page[: len(expected)] == expected
                    assert not any(page[len(expected):])
                    tombstones[level] += sum(a is None for _, a in entries)
        # Dropped at the bottom level only: deletes newer than L2 still
        # shadow it from L1.
        assert store.lowest_populated_level() == 2
        assert tombstones[1] > 0 and tombstones[2] == 0
        for key, value in model.items():
            found, got = store.get(key)
            assert got == value and (found or value is None)

    def test_counters_match_values_recorded_before_the_change(self, store):
        self.ingest(store)
        counter = store.metrics.counter
        assert counter("flushes").value == 8
        assert counter("compactions").value == 7
        assert counter("tables_written").value == 24
        assert store.ftl.flash.page_programs == 43
        assert store.ftl.flash.page_reads == 36

    def test_moved_entries_are_neither_decoded_nor_encoded(self, store, monkeypatch):
        calls = {"address": 0, "pack": 0, "encode_entry": 0}

        def counting(name, wrapped):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return wrapped(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            ValueAddress, "__post_init__", counting("address", ValueAddress.__post_init__)
        )
        monkeypatch.setattr(AddressCodec, "encode", counting("pack", AddressCodec.encode))
        monkeypatch.setattr(
            sstable, "encode_entry", counting("encode_entry", sstable.encode_entry)
        )
        store.l0_compaction_trigger = 100  # hold the merge back
        store.add_flush(batch(0, 400))
        store.add_flush(batch(200, 400) + [(b"k999999", None)])
        assert calls["pack"] == 800  # the flushes are the only producers
        calls.update(address=0, pack=0, encode_entry=0)
        store.l0_compaction_trigger = 2
        store.maybe_compact()
        assert store.metrics.counter("compactions").value == 1
        assert calls == {"address": 0, "pack": 0, "encode_entry": 0}
        # One cold GET decodes the one entry it returns.
        expected = addr(300)
        calls["address"] = 0
        assert store.get(b"k000300") == (True, expected)
        assert calls["address"] == 1


class TestScan:
    def test_iter_sources_cover_all_levels(self, store):
        for i in range(10):
            store.add_flush(batch(i * 100, 150))
        sources = store.iter_sources_from(b"")
        keys = set()
        for src in sources:
            for k, _ in src:
                keys.add(k)
        # Every live key appears in some source.
        found, _ = store.get(b"k000000")
        assert found
        assert b"k000000" in keys


class TestConfigValidation:
    def test_rejects_bad_levels(self, store):
        with pytest.raises(LSMError):
            LeveledStore(store.ftl, store.space, AddressingScheme.FINE, max_levels=1)

    def test_l0_budget_query_rejected(self, store):
        with pytest.raises(LSMError):
            store.level_page_budget(0)
