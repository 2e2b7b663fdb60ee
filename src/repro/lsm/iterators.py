"""K-way merge over LSM sources (MemTable + SSTables) with version shadowing.

Sources are supplied **newest first**; on duplicate keys the youngest
version wins and older ones are skipped — the semantics GET, SEEK/NEXT and
compaction all share.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Iterator

from repro.lsm.addressing import ValueAddress

Entry = tuple[bytes, ValueAddress | None]


def merge_entries(sources: list[Iterable[Entry]]) -> Iterator[Entry]:
    """Merge sorted entry streams, newest source first, shadowing duplicates.

    Yields every surviving version including tombstones (address ``None``);
    the caller decides whether tombstones are dropped (bottom-level
    compaction) or kept (intermediate compaction, read path). Only keys are
    compared, so compaction merges ``(key, raw entry bytes)`` the same way.
    """
    iters = [iter(src) for src in sources]
    heap: list[tuple[bytes, int, Any]] = []
    for priority, it in enumerate(iters):
        for key, addr in it:
            heapq.heappush(heap, (key, priority, addr))
            break
    last_key: bytes | None = None
    while heap:
        key, priority, addr = heapq.heappop(heap)
        for next_key, next_addr in iters[priority]:
            heapq.heappush(heap, (next_key, priority, next_addr))
            break
        if key == last_key:
            continue  # an older version of a key already emitted
        last_key = key
        yield key, addr


def drop_tombstones(
    entries: Iterable[Entry],
    is_tombstone: Callable[[Any], bool] = lambda addr: addr is None,
) -> Iterator[Entry]:
    """Strip tombstones (terminal compaction into the bottom level);
    ``is_tombstone`` reads the flag of a still-encoded entry."""
    for key, addr in entries:
        if not is_tombstone(addr):
            yield key, addr
