"""Value addressing over the vLog: page-unit vs fine-grained (paper §3.4).

A KV-separated LSM-tree stores, for each key, *where in the vLog* its value
lives. With block-style packing every value starts at a 4 KiB boundary, so
an address is (logical NAND page, 4 KiB slot) — 2 offset bits for a 16 KiB
page. Fine-grained packing places values at arbitrary byte offsets, so the
offset field must grow to byte granularity (14 bits for 16 KiB) — the
memory-cost trade-off §3.4 argues is worth it. Both schemes are implemented
and bit-accounted so the ablation bench can price the difference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import VLogError
from repro.units import MEM_PAGE_SIZE, is_aligned


@dataclass(frozen=True, order=True)
class ValueAddress:
    """Location of one value in the vLog's logical page space."""

    lpn: int
    offset: int
    size: int

    def __post_init__(self) -> None:
        if self.lpn < 0:
            raise VLogError(f"negative LPN {self.lpn}")
        if self.offset < 0:
            raise VLogError(f"negative offset {self.offset}")
        if self.size <= 0:
            raise VLogError(f"value size must be positive, got {self.size}")

    @property
    def end_offset(self) -> int:
        return self.offset + self.size


class AddressingScheme(enum.Enum):
    """How LSM entries encode a :class:`ValueAddress`."""

    #: Byte-granular offsets — required by fine-grained packing (§3.4).
    FINE = "fine"
    #: 4 KiB-slot offsets — sufficient for the Block baseline only.
    PAGE = "page"

    def offset_bits(self, nand_page_size: int) -> int:
        if self is AddressingScheme.FINE:
            return max(1, (nand_page_size - 1).bit_length())
        slots = nand_page_size // MEM_PAGE_SIZE
        return max(1, (slots - 1).bit_length())

    def lpn_bits(self, vlog_pages: int) -> int:
        return max(1, (vlog_pages - 1).bit_length())

    def entry_addr_bits(self, vlog_pages: int, nand_page_size: int) -> int:
        """Bits per LSM entry spent on the vLog address (excl. size field).

        Paper example (§3.3.3): 1 TB of 16 KiB pages → 26 LPN bits; page
        scheme adds 2 offset bits (28 total), fine scheme adds 14 (40).
        """
        return self.lpn_bits(vlog_pages) + self.offset_bits(nand_page_size)

    def encode(self, addr: ValueAddress, nand_page_size: int) -> int:
        """Pack (lpn, offset) into an integer; size travels separately."""
        return AddressCodec(self, nand_page_size).encode(addr)

    def decode(self, encoded: int, size: int, nand_page_size: int) -> ValueAddress:
        return AddressCodec(self, nand_page_size).decode(encoded, size)


class AddressCodec:
    """An :class:`AddressingScheme` bound to one NAND page size.

    The offset shift and mask are resolved once here, so a caller with a
    fixed scheme and page size (an SSTable) does not recompute them for
    every entry it packs or unpacks.
    """

    __slots__ = ("page_size", "bits", "mask", "unit")

    def __init__(self, scheme: AddressingScheme, nand_page_size: int) -> None:
        self.page_size = nand_page_size
        self.bits = scheme.offset_bits(nand_page_size)
        self.mask = (1 << self.bits) - 1
        #: Bytes per offset step: 1 (FINE) or one 4 KiB slot (PAGE).
        self.unit = 1 if scheme is AddressingScheme.FINE else MEM_PAGE_SIZE

    def encode(self, addr: ValueAddress) -> int:
        if self.unit == 1:
            if addr.offset >= self.page_size:
                raise VLogError(
                    f"offset {addr.offset} outside NAND page of {self.page_size}"
                )
            return (addr.lpn << self.bits) | addr.offset
        if not is_aligned(addr.offset, MEM_PAGE_SIZE):
            raise VLogError(
                f"page-unit addressing cannot encode byte offset {addr.offset}; "
                "fine-grained packing requires AddressingScheme.FINE (§3.4)"
            )
        slot = addr.offset // MEM_PAGE_SIZE
        if slot >= self.page_size // MEM_PAGE_SIZE:
            raise VLogError(f"slot {slot} outside NAND page")
        return (addr.lpn << self.bits) | slot

    def decode(self, encoded: int, size: int) -> ValueAddress:
        return ValueAddress(
            lpn=encoded >> self.bits,
            offset=(encoded & self.mask) * self.unit,
            size=size,
        )
