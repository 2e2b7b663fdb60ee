"""Property: the in-page point lookup agrees with a full decode of the page.

``SSTable.get`` searches the raw page bytes and decodes one entry; the
reference answer is read off ``decode_entries`` of the table's pages. The
inputs lean on what a byte-level search can get wrong: key lengths from 1
to 255 in one page, keys that are prefixes of one another, tombstones,
absent keys inside a page's range, and probe keys whose framed bytes
(``key_size`` byte + key) also occur inside another entry's address or
size field.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.addressing import AddressingScheme, ValueAddress
from repro.lsm.space import PageSpace
from repro.lsm.sstable import SSTable, decode_entries
from repro.nand.flash import NandFlash
from repro.nand.ftl import PageMappedFTL
from repro.nand.geometry import NandGeometry
from repro.sim.clock import SimClock
from repro.sim.latency import LatencyModel
from repro.units import KIB

#: Small pages, so 255-byte keys spread a table over several of them.
PAGE = 4 * KIB
SCHEME = AddressingScheme.FINE
OFFSET_BITS = SCHEME.offset_bits(PAGE)

addresses = st.builds(
    ValueAddress,
    lpn=st.integers(0, 2**40),
    offset=st.integers(0, PAGE - 1),
    size=st.integers(1, 2**32 - 1),
)


def address_spelling(key: bytes, pad: bytes) -> ValueAddress:
    """An address whose encoded u64 starts with ``key``'s framed bytes."""
    encoded = int.from_bytes((bytes([len(key)]) + key + pad)[:8], "little")
    size = max(1, int.from_bytes((key + b"\x01\x01\x01\x01")[:4], "little"))
    return ValueAddress(
        lpn=encoded >> OFFSET_BITS, offset=encoded & (PAGE - 1), size=size
    )


@st.composite
def tables_and_probes(draw):
    bases = draw(st.lists(st.binary(min_size=1, max_size=255), min_size=1, max_size=40))
    keys = set(bases)
    for base in bases:  # prefixes and extensions of present keys
        cut = draw(st.integers(1, len(base)))
        keys.add(base[:cut])
        keys.add((base + draw(st.binary(min_size=1, max_size=4)))[:255])
    absent = set(
        draw(st.lists(st.sampled_from(sorted(keys)), unique=True, max_size=len(keys) // 2))
    )
    entries = {key: draw(st.one_of(st.none(), addresses)) for key in sorted(keys - absent)}
    # Short keys spelled out inside some other entry's address/size bytes;
    # each is itself present or absent as hypothesis pleases.
    planted = draw(st.lists(st.binary(min_size=1, max_size=7), max_size=6))
    for spelled in planted:
        carrier = draw(st.binary(min_size=8, max_size=20))
        if carrier != spelled:
            entries[carrier] = address_spelling(spelled, draw(st.binary(min_size=8, max_size=8)))
    probes = list(entries) + sorted(absent - set(entries)) + planted
    return sorted(entries.items()), probes


@given(case=tables_and_probes())
@settings(max_examples=80, deadline=None)
def test_get_matches_full_decode_and_reads_one_page(case):
    entries, probes = case
    geo = NandGeometry(channels=1, ways_per_channel=2, blocks_per_way=32,
                       pages_per_block=8, page_size=PAGE)
    ftl = PageMappedFTL(NandFlash(geo, SimClock(), LatencyModel()), gc_reserve_blocks=2)
    table = SSTable.build(entries, ftl, PageSpace(0, geo.total_pages), SCHEME)
    pages = [decode_entries(ftl.read(lpn), SCHEME, PAGE) for lpn in table.lpns]
    assert [entry for page in pages for entry in page] == entries
    for key in probes:
        holders = [page for page in pages if page[0][0] <= key <= page[-1][0]]
        expected = [addr for page in holders for k, addr in page if k == key]
        reads_before = ftl.flash.page_reads
        found, addr = table.get(key, ftl)
        assert ftl.flash.page_reads - reads_before == len(holders) <= 1
        assert (found, addr) == ((True, expected[0]) if expected else (False, None))
