"""Seeded op-stream generation for the five ledger workloads.

Everything the program is driven with is built here from ``--seed``
before any timer starts: the same seed gives the same keys, values, op
order and virtual arrival stamps. The program receives only these
inputs; it never sees the seed or the workload's name.

Sizes are chosen so that one timed repeat takes 2-2.5 s on the 2-core
box the benchmark was defined on (see README.md for the measurements);
``smoke=True`` shrinks every count 20x for a functional check.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BandSlimConfig, preset
from repro.loadgen.ops import LoadOp
from repro.serve.server import ServerSettings
from repro.units import GIB
from repro.workloads.distributions import MixGraphSizes

#: Ops per driver call on the in-process workloads.
WINDOW_OPS = 256
#: In-process queue depth (``driver.put_many``/``get_many`` in flight).
QUEUE_DEPTH = 32
#: Largest value any workload writes; also the GET receive-buffer size.
MAX_VALUE_BYTES = 1024
#: put_mixgraph reads back this many keys after each window, drawn from
#: the last few windows' PUTs (read-your-writes probes): they check stored
#: bytes against the oracle across buffer and memtable flushes, and give
#: the write workload its GET latency samples. Probing only the window
#: just written would always hit the page buffer: every seed then reads
#: the same 90 us, to the last digit.
PROBES_PER_WINDOW = 4
PROBE_LOOKBACK_WINDOWS = 4
#: Wire workloads: fixed value size and client send window.
WIRE_VALUE_BYTES = 256
WIRE_SEND_WINDOW = 64
#: Queue depth of the read-back that checks a wire run's final state.
READBACK_QUEUE_DEPTH = 16

SMOKE_SHRINK = 20


@dataclass(frozen=True)
class InprocInputs:
    """One in-process run: preload, then windows of PUTs-then-GETs."""

    config: BandSlimConfig
    preload: list[tuple[bytes, bytes]]
    #: ``driver.flush()`` after the preload (working set on NAND).
    preload_flush: bool
    #: Per window: ``(pairs to put_many, keys to get_many)``.
    windows: list[tuple[list[tuple[bytes, bytes]], list[bytes]]]
    #: ``driver.flush()`` inside the timed section, after the last window.
    flush_in_timed: bool

    @property
    def ops(self) -> int:
        return sum(len(puts) + len(gets) for puts, gets in self.windows)


@dataclass(frozen=True)
class WireInputs:
    """One wire run: preload, then an open-loop stamped request stream."""

    config: BandSlimConfig
    settings: ServerSettings
    preload: list[tuple[bytes, bytes]]
    requests: list[LoadOp]
    #: Virtual arrival stamp (us) of each request.
    arrivals: list[float]
    #: Offered virtual rate the stamps were drawn at.
    rate_rps: float
    #: Ladder of offered rates for ``serve.server.sim_max_rate_rps``.
    ladder_rps: tuple[float, ...]
    ladder_requests: int
    #: Seed of the ladder's own request streams.
    seed: int = 0

    @property
    def ops(self) -> int:
        return len(self.requests)

    @property
    def dispatch_every(self) -> int:
        """Doorbell period for a batching server, 0 for the serial one."""
        batch = self.settings.dispatch_batch
        return min(batch, WIRE_SEND_WINDOW) if batch > 1 else 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line for BENCHMARK.json.
    why: str
    generate: Callable[[int, bool], InprocInputs | WireInputs] = field(
        repr=False
    )


def _device_config(**overrides) -> BandSlimConfig:
    return preset("backfill", nand_capacity_bytes=GIB, **overrides)


def _mixgraph_values(rng: random.Random, count: int) -> list[bytes]:
    """``count`` values with MixGraph sizes, cut from one seeded blob."""
    sizes = MixGraphSizes(cap=MAX_VALUE_BYTES).sample(
        np.random.default_rng(rng.getrandbits(63)), count
    )
    blob = rng.randbytes(1 << 16)
    top = len(blob) - MAX_VALUE_BYTES
    out = []
    for size in sizes.tolist():
        start = rng.randrange(top)
        out.append(blob[start : start + size])
    return out


def _half_and_half(rng: random.Random, count: int) -> list[bool]:
    """Exactly ``count // 2`` True (GET) flags in seeded order."""
    flags = [True] * (count // 2) + [False] * (count - count // 2)
    rng.shuffle(flags)
    return flags


def _put_mixgraph(seed: int, smoke: bool) -> InprocInputs:
    puts = 100_000 // (SMOKE_SHRINK if smoke else 1)
    rng = random.Random(seed)
    keys: set[bytes] = set()
    while len(keys) < puts:
        keys.add(b"%014x" % rng.getrandbits(56))
    ordered = sorted(keys)
    rng.shuffle(ordered)
    pairs = list(zip(ordered, _mixgraph_values(rng, puts)))
    lookback = PROBE_LOOKBACK_WINDOWS * WINDOW_OPS
    windows = []
    for base in range(0, puts, WINDOW_OPS):
        end = min(base + WINDOW_OPS, puts)
        probes = rng.sample(range(max(0, end - lookback), end),
                            PROBES_PER_WINDOW)
        windows.append((pairs[base:end], [pairs[i][0] for i in probes]))
    return InprocInputs(
        config=_device_config(queue_depth=QUEUE_DEPTH),
        preload=[],
        preload_flush=False,
        windows=windows,
        flush_in_timed=True,
    )


def _mixed(
    seed: int, keys: int, ops: int, *, flush: bool, put_new_keys: bool
) -> InprocInputs:
    rng = random.Random(seed)
    preload_keys = [b"p%013d" % index for index in range(keys)]
    preload = list(zip(preload_keys, _mixgraph_values(rng, keys)))
    values = iter(_mixgraph_values(rng, ops - ops // 2))
    is_get = _half_and_half(rng, ops)
    new_keys = 0
    windows = []
    for base in range(0, ops, WINDOW_OPS):
        puts: list[tuple[bytes, bytes]] = []
        gets: list[bytes] = []
        for get in is_get[base : base + WINDOW_OPS]:
            if get:
                gets.append(preload_keys[rng.randrange(keys)])
            elif put_new_keys:
                puts.append((b"n%013d" % new_keys, next(values)))
                new_keys += 1
            else:
                puts.append((preload_keys[rng.randrange(keys)], next(values)))
        windows.append((puts, gets))
    return InprocInputs(
        config=_device_config(queue_depth=QUEUE_DEPTH),
        preload=preload,
        preload_flush=flush,
        windows=windows,
        flush_in_timed=False,
    )


def _mixed_hot(seed: int, smoke: bool) -> InprocInputs:
    shrink = SMOKE_SHRINK if smoke else 1
    return _mixed(
        seed, 4_000 // shrink, 200_000 // shrink,
        flush=False, put_new_keys=False,
    )


def _mixed_cold(seed: int, smoke: bool) -> InprocInputs:
    shrink = SMOKE_SHRINK if smoke else 1
    return _mixed(
        seed, 60_000 // shrink, 2_000 // shrink,
        flush=True, put_new_keys=True,
    )


def wire_requests(
    seed: int, count: int, keys: int, rate_rps: float
) -> tuple[list[LoadOp], list[float]]:
    """A 50/50 GET/SET stream over ``keys`` with Poisson arrival stamps.

    Not ``loadgen.generate_ops``/``poisson_arrivals``: those belong to the
    program under test, and a change to them must not change its inputs.
    """
    rng = random.Random(seed)
    requests = []
    for get in _half_and_half(rng, count):
        key = b"k%010d" % rng.randrange(keys)
        if get:
            requests.append(LoadOp(kind="GET", key=key))
        else:
            requests.append(
                LoadOp(kind="SET", key=key,
                       value=rng.randbytes(WIRE_VALUE_BYTES))
            )
    rate_per_us = rate_rps / 1e6
    now = 0.0
    arrivals = []
    for _ in range(count):
        now += rng.expovariate(rate_per_us)
        arrivals.append(now)
    return requests, arrivals


def _wire(
    seed: int, smoke: bool, *, shards: int, settings: ServerSettings,
    requests: int, rate_rps: float, ladder_rps: tuple[float, ...],
) -> WireInputs:
    shrink = SMOKE_SHRINK if smoke else 1
    keys = 2_000 // shrink
    rng = random.Random(seed ^ 0x5EED)
    preload = [
        (b"k%010d" % index, rng.randbytes(WIRE_VALUE_BYTES))
        for index in range(keys)
    ]
    stream, arrivals = wire_requests(seed, requests // shrink, keys, rate_rps)
    return WireInputs(
        config=_device_config(array_shards=shards),
        settings=settings,
        preload=preload,
        requests=stream,
        arrivals=arrivals,
        rate_rps=rate_rps,
        ladder_rps=ladder_rps,
        ladder_requests=10_000 // shrink,
        seed=seed,
    )


def _wire_batched(seed: int, smoke: bool) -> WireInputs:
    return _wire(
        seed, smoke, shards=4,
        settings=ServerSettings(dispatch_batch=32, server_qd=16),
        requests=20_000, rate_rps=384_000.0,
        ladder_rps=(128_000.0, 256_000.0, 512_000.0, 1_024_000.0),
    )


def _wire_serial(seed: int, smoke: bool) -> WireInputs:
    return _wire(
        seed, smoke, shards=1, settings=ServerSettings(),
        requests=7_500, rate_rps=6_000.0,
        ladder_rps=(2_000.0, 4_000.0, 8_000.0, 16_000.0),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "put_mixgraph",
            "the paper's W(M) write path: transfer, packing, vLog, memtable "
            "flushes, compactions, FTL and NAND programs do the work; reads "
            "are 1.5% read-your-writes probes of the last 4 windows",
            _put_mixgraph,
        ),
        Workload(
            "mixed_hot",
            "working set fits the memtable (0 flushes): per-op driver and "
            "sim.engine overhead dominate, the SSTable path does nothing",
            _mixed_hot,
        ),
        Workload(
            "mixed_cold",
            "working set on NAND after 6 flushes: every GET probes SSTables, "
            "so lsm lookup, nand.ftl reads and the NAND read timeline dominate",
            _mixed_cold,
        ),
        Workload(
            "wire_batched",
            "loopback TCP, 4 shards, dispatch_batch=32/server_qd=16: loadgen, "
            "serve.*, asyncio and array routing take most of the host time",
            _wire_batched,
        ),
        Workload(
            "wire_serial",
            "same stack, 1 shard, serial worker: one op per call through "
            "execute -> ArrayStore.put/get -> driver.put/get",
            _wire_serial,
        ),
    )
}
