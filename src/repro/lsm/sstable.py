"""SSTables: immutable sorted runs of (key → vLog address) index entries.

Because values live in the vLog, SSTable entries are small and fixed-shape;
a flush or compaction writes *index* pages only — the key-value-separation
property that keeps compaction write amplification off the value bytes
(paper §2.1, WiscKey [23]).

On-page format (entries never span pages):

    page := entry_count:u16  entry*
    entry := key_size:u8  key  flags:u8  encoded_addr:u64  value_size:u32

Every reader goes through one page walker, :func:`_walk`, which steps over
``key_size``/key/13-byte body and yields ``(key, body offset)`` without
decoding anything. A point lookup bisects in-memory fence keys, reads
exactly one NAND page through the FTL — charging the read latency and
counters the device would really pay — and decodes only the entry the
walker stops at. Nothing decoded is cached: the bytes ``ftl.read`` returns
are the index, so release and remount have nothing to invalidate.
Compaction moves entries as raw bytes (:meth:`SSTable.iter_raw` →
:meth:`SSTable.build_raw`): all tables of one store share scheme and page
size, so an encoded entry means the same in any of them. Scans and
:func:`decode_entries` decode over the same walker.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from typing import Iterable, Iterator

from repro.errors import LSMError
from repro.lsm.addressing import AddressCodec, AddressingScheme, ValueAddress
from repro.lsm.space import PageSpace
from repro.nand.ftl import PageMappedFTL

_FLAG_TOMBSTONE = 0x01
_PAGE_HEADER = struct.Struct("<H")
_ENTRY_FIXED = struct.Struct("<BQI")  # flags, encoded addr, value size
_BODY = _ENTRY_FIXED.size

#: Entry type: (key, address-or-None-for-tombstone).
Entry = tuple[bytes, ValueAddress | None]
#: The same entry still encoded: (key, its on-page bytes).
RawEntry = tuple[bytes, bytes]


def _encode(key: bytes, addr: ValueAddress | None, codec: AddressCodec) -> bytes:
    if not 0 < len(key) <= 255:
        raise LSMError(f"key length {len(key)} not in 1..255")
    if addr is None:
        body = _ENTRY_FIXED.pack(_FLAG_TOMBSTONE, 0, 0)
    else:
        body = _ENTRY_FIXED.pack(0, codec.encode(addr), addr.size)
    return bytes([len(key)]) + key + body


def encode_entry(
    key: bytes, addr: ValueAddress | None, scheme: AddressingScheme, page_size: int
) -> bytes:
    return _encode(key, addr, AddressCodec(scheme, page_size))


def raw_is_tombstone(raw: bytes) -> bool:
    return bool(raw[-_BODY] & _FLAG_TOMBSTONE)


def _walk(
    page: bytes, lpn: int | None = None, start: bytes = b""
) -> Iterator[tuple[bytes, int]]:
    """(key, offset of its 13-byte body) of each entry with key >= start."""
    size = len(page)
    limit = size - _BODY  # no entry body may start past this offset
    pos = _PAGE_HEADER.size
    # A page too short for its header fails like one too short for an entry.
    count = _PAGE_HEADER.unpack_from(page)[0] if size >= pos else 1
    for _ in range(count):
        # pos < limit also means page[pos], the key_size byte, exists.
        if pos >= limit or (body := pos + 1 + page[pos]) > limit:
            raise LSMError(
                f"malformed SSTable page (LPN {lpn}): entry at byte {pos}, one "
                f"of {count} counted, runs past the {size}-byte page"
            )
        key = page[pos + 1 : body]
        if key >= start:
            yield key, body
        pos = body + _BODY


def _decode_body(page: bytes, body: int, codec: AddressCodec) -> ValueAddress | None:
    flags, encoded, vsize = _ENTRY_FIXED.unpack_from(page, body)
    return None if flags & _FLAG_TOMBSTONE else codec.decode(encoded, vsize)


def decode_entries(
    page: bytes, scheme: AddressingScheme, page_size: int
) -> list[Entry]:
    """Parse all entries from one SSTable page."""
    codec = AddressCodec(scheme, page_size)
    return [(key, _decode_body(page, body, codec)) for key, body in _walk(page)]


class SSTable:
    """An immutable sorted run persisted to NAND index pages."""

    _next_id = 0

    def __init__(
        self,
        table_id: int,
        pages: list[tuple[int, bytes, bytes]],
        entry_count: int,
        scheme: AddressingScheme,
        page_size: int,
    ) -> None:
        """``pages``: (lpn, first key, last key) per index page, in order."""
        if not pages:
            raise LSMError("SSTable must have at least one page")
        self.table_id = table_id
        self.lpns = [lpn for lpn, _, _ in pages]
        self._first_keys = [first for _, first, _ in pages]
        self._last_keys = [last for _, _, last in pages]
        self.entry_count = entry_count
        self.scheme = scheme
        self.page_size = page_size
        self._codec = AddressCodec(scheme, page_size)
        self.min_key = self._first_keys[0]
        self.max_key = self._last_keys[-1]

    # --- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        items: Iterable[Entry],
        ftl: PageMappedFTL,
        space: PageSpace,
        scheme: AddressingScheme,
    ) -> "SSTable":
        """Encode sorted ``items`` (a MemTable flush) and serialize them."""
        codec = AddressCodec(scheme, ftl.flash.geometry.page_size)
        raw = ((key, _encode(key, addr, codec)) for key, addr in items)
        return cls.build_raw(raw, ftl, space, scheme)

    @classmethod
    def build_raw(
        cls,
        items: Iterable[RawEntry],
        ftl: PageMappedFTL,
        space: PageSpace,
        scheme: AddressingScheme,
    ) -> "SSTable":
        """Serialize sorted, already-encoded ``items`` into NAND pages via
        the FTL; the entry bytes are copied as they are."""
        page_size = ftl.flash.geometry.page_size
        pages: list[tuple[int, bytes, bytes]] = []
        # Serialization never reads back from the FTL, so page programs are
        # deferred and issued as a single ordered write_many batch at the end.
        pending: list[tuple[int, bytes]] = []
        buf = bytearray(_PAGE_HEADER.size)
        keys_in_page: list[bytes] = []
        entry_count = 0
        prev_key: bytes | None = None

        def flush_page() -> None:
            nonlocal buf, keys_in_page
            if not keys_in_page:
                return
            _PAGE_HEADER.pack_into(buf, 0, len(keys_in_page))
            lpn = space.alloc()
            pending.append((lpn, bytes(buf)))
            pages.append((lpn, keys_in_page[0], keys_in_page[-1]))
            buf = bytearray(_PAGE_HEADER.size)
            keys_in_page = []

        for key, blob in items:
            if prev_key is not None and key <= prev_key:
                raise LSMError(
                    f"SSTable input not strictly sorted: {key!r} after {prev_key!r}"
                )
            prev_key = key
            if len(buf) + len(blob) > page_size:
                flush_page()
            buf += blob
            keys_in_page.append(key)
            entry_count += 1
        flush_page()
        if entry_count == 0:
            raise LSMError("cannot build an empty SSTable")
        ftl.write_many(pending)
        cls._next_id += 1
        return cls(cls._next_id, pages, entry_count, scheme, page_size)

    @classmethod
    def restore(
        cls,
        table_id: int,
        lpns: list[int],
        entry_count: int,
        ftl: PageMappedFTL,
        scheme: AddressingScheme,
    ) -> "SSTable":
        """Reattach a table whose pages are already on NAND (remount): the
        fence keys come from walking each page, one FTL read apiece."""
        pages = []
        for lpn in lpns:
            keys = [key for key, _ in _walk(ftl.read(lpn), lpn)]
            if not keys:
                raise LSMError(f"restored SSTable page {lpn} is empty")
            pages.append((lpn, keys[0], keys[-1]))
        return cls(table_id, pages, entry_count, scheme, ftl.flash.geometry.page_size)

    # --- queries -------------------------------------------------------------

    @property
    def page_count(self) -> int:
        return len(self.lpns)

    def key_range_overlaps(self, lo: bytes, hi: bytes) -> bool:
        return not (self.max_key < lo or hi < self.min_key)

    def may_contain(self, key: bytes) -> bool:
        return self.min_key <= key <= self.max_key

    def get(self, key: bytes, ftl: PageMappedFTL) -> tuple[bool, ValueAddress | None]:
        """(found, address). Reads at most one NAND page."""
        if not self.may_contain(key):
            return False, None
        idx = bisect_right(self._first_keys, key) - 1
        if key > self._last_keys[idx]:
            return False, None
        lpn = self.lpns[idx]
        page = ftl.read(lpn)
        # Sorted page: the first entry >= key is the only candidate.
        hit = next(_walk(page, lpn, key), None)
        if hit is None or hit[0] != key:
            return False, None
        return True, _decode_body(page, hit[1], self._codec)

    def _read_pages(
        self, ftl: PageMappedFTL, start_key: bytes = b""
    ) -> Iterator[tuple[int, bytes]]:
        """(lpn, page) of each page that may hold a key >= start_key, read
        lazily."""
        first = max(0, bisect_right(self._first_keys, start_key) - 1)
        for idx in range(first, len(self.lpns)):
            if self._last_keys[idx] >= start_key:
                yield self.lpns[idx], ftl.read(self.lpns[idx])

    def iter_entries(
        self, ftl: PageMappedFTL, start_key: bytes = b""
    ) -> Iterator[Entry]:
        """All entries with key >= start_key, in order (reads pages lazily)."""
        for lpn, page in self._read_pages(ftl, start_key):
            for key, body in _walk(page, lpn, start_key):
                yield key, _decode_body(page, body, self._codec)

    def iter_raw(self, ftl: PageMappedFTL) -> Iterator[RawEntry]:
        """All entries in order, still encoded (compaction input)."""
        for lpn, page in self._read_pages(ftl):
            for key, body in _walk(page, lpn):
                yield key, page[body - len(key) - 1 : body + _BODY]

    def release(self, ftl: PageMappedFTL, space: PageSpace) -> None:
        """Drop the table's pages (post-compaction cleanup)."""
        for lpn in self.lpns:
            ftl.trim(lpn)
            space.free(lpn)

    def __repr__(self) -> str:
        return (
            f"SSTable(id={self.table_id}, entries={self.entry_count}, "
            f"pages={self.page_count}, range=[{self.min_key!r}, {self.max_key!r}])"
        )
