"""Leveled LSM structure and compaction.

L0 holds whole MemTable flushes (tables may overlap); L1+ are sorted,
non-overlapping runs. Compaction merges index entries only — values stay in
the vLog untouched (key-value separation), which is why the paper's WAF is
dominated by value placement rather than compaction rewrites.

Compaction policy (size-tiered trigger, leveled merge — the shape used by
PinK/iLSM-class devices):

* L0 reaching ``l0_compaction_trigger`` tables → merge all of L0 with the
  overlapping part of L1.
* Level *i* exceeding ``level_page_budget(i)`` pages → merge its oldest
  table with the overlapping part of level *i+1*.
* Tombstones are dropped only when the output level is the lowest
  populated one.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Iterator

from repro.errors import LSMError
from repro.lsm.addressing import AddressingScheme
from repro.lsm.iterators import Entry, drop_tombstones, merge_entries
from repro.lsm.space import PageSpace
from repro.lsm.sstable import RawEntry, SSTable, raw_is_tombstone
from repro.nand.ftl import PageMappedFTL
from repro.sim.stats import MetricSet


_MIN_KEY = attrgetter("min_key")


class LeveledStore:
    """The on-NAND part of the LSM-tree: L0 .. Lmax of SSTables."""

    def __init__(
        self,
        ftl: PageMappedFTL,
        space: PageSpace,
        scheme: AddressingScheme,
        max_levels: int = 6,
        l0_compaction_trigger: int = 4,
        l1_page_budget: int = 64,
        level_size_ratio: int = 10,
        table_page_budget: int = 16,
        journal=None,
    ) -> None:
        if max_levels < 2:
            raise LSMError(f"need at least 2 levels, got {max_levels}")
        if l0_compaction_trigger < 1 or level_size_ratio < 2 or table_page_budget < 1:
            raise LSMError("bad compaction parameters")
        self.ftl = ftl
        self.space = space
        #: Durability journal (crash-consistency mode); when present, dead
        #: tables are *deferred-released* — their pages stay mapped until
        #: the next manifest write, so a crash before the manifest lands
        #: can still recover the previous checkpoint's tables.
        self._journal = journal
        self.scheme = scheme
        self.max_levels = max_levels
        self.l0_compaction_trigger = l0_compaction_trigger
        self.l1_page_budget = l1_page_budget
        self.level_size_ratio = level_size_ratio
        self.table_page_budget = table_page_budget
        #: levels[0] ordered newest-first; levels[1:] ordered by min_key.
        self.levels: list[list[SSTable]] = [[] for _ in range(max_levels)]
        self.metrics = MetricSet("lsm")
        self.metrics.counter("flushes")
        self.metrics.counter("compactions")
        self.metrics.counter("tables_written")

    # --- observation --------------------------------------------------------

    def level_page_budget(self, level: int) -> int:
        if level == 0:
            raise LSMError("L0 is table-count-triggered, not page-budgeted")
        return self.l1_page_budget * self.level_size_ratio ** (level - 1)

    def level_pages(self, level: int) -> int:
        return sum(t.page_count for t in self.levels[level])

    @property
    def table_count(self) -> int:
        return sum(len(lv) for lv in self.levels)

    def lowest_populated_level(self) -> int:
        """Index of the deepest non-empty level (0 if all empty)."""
        for level in range(self.max_levels - 1, -1, -1):
            if self.levels[level]:
                return level
        return 0

    # --- ingestion -----------------------------------------------------------

    def add_flush(self, items: list[Entry]) -> SSTable:
        """Persist a MemTable flush as a new L0 table, then rebalance."""
        if not items:
            raise LSMError("flush of empty item list")
        table = SSTable.build(items, self.ftl, self.space, self.scheme)
        self.levels[0].insert(0, table)  # newest first
        self.metrics.counter("flushes").add(1)
        self.metrics.counter("tables_written").add(1)
        self.maybe_compact()
        return table

    # --- read path -----------------------------------------------------------

    def get(self, key: bytes):
        """(found, address_or_None). Probes newest-to-oldest."""
        for table in self.levels[0]:
            found, addr = table.get(key, self.ftl)
            if found:
                return True, addr
        for tables in self.levels[1:]:
            # Sorted by min_key and non-overlapping: one candidate table.
            idx = bisect_right(tables, key, key=_MIN_KEY) - 1
            if idx >= 0 and tables[idx].may_contain(key):
                found, addr = tables[idx].get(key, self.ftl)
                if found:
                    return True, addr
        return False, None

    def iter_sources_from(self, start_key: bytes) -> list[Iterator[Entry]]:
        """Per-table sorted iterators, newest first (for merged scans)."""
        sources: list[Iterator[Entry]] = []
        for table in self.levels[0]:
            sources.append(table.iter_entries(self.ftl, start_key))
        for level in range(1, self.max_levels):
            for table in self.levels[level]:
                sources.append(table.iter_entries(self.ftl, start_key))
        return sources

    # --- compaction -----------------------------------------------------------

    def maybe_compact(self) -> None:
        """Rebalance until every level is within budget."""
        guard = 0
        while True:
            guard += 1
            if guard > 64:
                raise LSMError("compaction did not converge (loop guard)")
            if len(self.levels[0]) >= self.l0_compaction_trigger:
                self._compact(0, len(self.levels[0]))
                continue
            for level in range(1, self.max_levels - 1):
                if self.level_pages(level) > self.level_page_budget(level):
                    self._compact(level, 1)
                    break
            else:
                return

    def _build_tables(self, entries: Iterator[RawEntry]) -> list[SSTable]:
        """Split a merged raw-entry stream into budget-sized output tables."""
        out: list[SSTable] = []
        batch: list[RawEntry] = []
        batch_bytes = 0
        budget_bytes = self.table_page_budget * self.ftl.flash.geometry.page_size
        for key, raw in entries:
            if batch and batch_bytes + len(raw) > budget_bytes:
                out.append(SSTable.build_raw(batch, self.ftl, self.space, self.scheme))
                batch, batch_bytes = [], 0
            batch.append((key, raw))
            batch_bytes += len(raw)
        if batch:
            out.append(SSTable.build_raw(batch, self.ftl, self.space, self.scheme))
        self.metrics.counter("tables_written").add(len(out))
        return out

    def _compact(self, level: int, count: int) -> None:
        """Merge the first ``count`` tables of ``level`` (all of L0, newest
        first; else the oldest/leftmost table) and the overlapping part of
        ``level + 1`` into new tables there. Entries move as raw bytes:
        every table of this store shares scheme and page size, so nothing
        is decoded or re-encoded on the way."""
        inputs = self.levels[level][:count]
        below = self.levels[level + 1]
        lo = min(t.min_key for t in inputs)
        hi = max(t.max_key for t in inputs)
        overlapping = [t for t in below if t.key_range_overlaps(lo, hi)]
        keep = [t for t in below if not t.key_range_overlaps(lo, hi)]
        merged = merge_entries([t.iter_raw(self.ftl) for t in inputs + overlapping])
        if self.lowest_populated_level() <= level + 1:
            merged = drop_tombstones(merged, raw_is_tombstone)
        new_tables = self._build_tables(merged)
        self.levels[level] = self.levels[level][count:]
        self.levels[level + 1] = sorted(keep + new_tables, key=_MIN_KEY)
        for t in inputs + overlapping:
            self._release(t)
        self.metrics.counter("compactions").add(1)

    def _release(self, table: SSTable) -> None:
        """Free a dead table's pages — immediately, or deferred until the
        next durable manifest in crash-consistency mode."""
        if self._journal is not None:
            self._journal.defer_release(table)
        else:
            table.release(self.ftl, self.space)
