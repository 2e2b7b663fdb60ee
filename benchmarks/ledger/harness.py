"""Repeats of one workload: set-up, timed section, oracle, accounting.

Measurement hygiene, the same for every workload:

* one process, one connection, no worker threads;
* every repeat builds and preloads a fresh store, so repeats are
  identical as far as the model is concerned — every sim and count figure
  must agree across the repeats of a run or the run aborts;
* op streams and values exist before any timer starts;
* ``gc.collect()`` before each timed section, the collector left on;
* ``time.perf_counter_ns`` for host time, and every timed stretch also in
  reference seconds (``timing.py``), because this host's speed is not
  constant;
* the first repeat is a discarded warm-up (the first ``mixed_hot`` repeat
  of a process measured 73k ops/s against 103k warm);
* outputs are checked against a plain-dict reference model after the
  timer stops, from results collected while it ran.
"""

from __future__ import annotations

import asyncio
import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from functools import cached_property

from repro.array.store import ArrayStore
from repro.device.kvssd import KVSSD
from repro.errors import ReproError
from repro.loadgen.client import run_client
from repro.pcie.metrics import TrafficCategory
from repro.serve.backend import StoreBackend
from repro.serve.server import KVServer

from .timing import SAMPLE_PERIOD_S, CalibratedTimer, Stretch
from .trace import Tracer
from .workloads import (
    MAX_VALUE_BYTES,
    READBACK_QUEUE_DEPTH,
    WINDOW_OPS,
    WIRE_SEND_WINDOW,
    InprocInputs,
    WireInputs,
    wire_requests,
)

#: Fewest timed repeats of a run, whatever ``--seconds`` says.
MIN_TIMED_REPEATS = 3
#: ``serve.server.sim_max_rate_rps``: a rung passes with sim p99 at or
#: under the limit and at most this share of requests refused.
LADDER_P99_LIMIT_US = 1_000.0
LADDER_REFUSED_LIMIT = 0.01

PCIE_CATEGORIES = tuple(category.value for category in TrafficCategory)


class DeterminismError(RuntimeError):
    """A sim or count figure differed between two repeats of one run."""


def percentile(sorted_samples: list[float], p: float) -> float:
    """Exact order statistic (nearest rank) of an ascending sample list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_samples)))
    return sorted_samples[rank - 1]


@dataclass
class Repeat:
    """Everything one repeat observed."""

    ops: int
    failed: int
    #: Set-up, and the timed section.
    setup: Stretch
    wall: Stretch
    sim_span_us: float
    put_latencies_us: list[float]
    get_latencies_us: list[float]
    #: Snapshot deltas over the timed section (sim/count figures only).
    counts: dict[str, float]
    #: Busy-time delta of every NAND way over the timed section (us).
    way_busy_us: list[float]
    #: Value bytes written in the timed section / since the store was built.
    timed_value_bytes: int
    total_value_bytes: int
    #: ``nand.bytes_programmed`` after the final flush, since the build.
    nand_bytes_total: float
    #: Host ns of each window of the timed section (in-process only).
    window_ns: list[int] = field(default_factory=list)
    #: Host-side server figures (wire only; not part of the sim check).
    inflight_peak: float = 0.0
    busy_rejected: int = 0

    @cached_property
    def sim_figures(self) -> dict[str, float]:
        """The figures that must repeat exactly at a fixed seed."""
        puts = sorted(self.put_latencies_us)
        gets = sorted(self.get_latencies_us)
        out = {
            "sim_ops_per_s": self.ops / (self.sim_span_us / 1e6),
            "sim_put_mean_us": statistics.fmean(puts),
            "sim_put_p99_us": percentile(puts, 99),
            "sim_get_mean_us": statistics.fmean(gets),
            "sim_get_p99_us": percentile(gets, 99),
            "pcie_bytes_per_value_byte":
                self.counts["pcie.total_bytes"] / self.timed_value_bytes,
            "nand_bytes_per_value_byte":
                self.nand_bytes_total / self.total_value_bytes,
        }
        out.update(self.counts)
        return out


def _delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Counter deltas; gauges, means and percentiles are left out."""
    skip = (".mean", ".min", ".max", ".stdev", ".p50", ".p99", "_us",
            "free_blocks", "free_block_low_water", ".up")
    return {
        key: value - before.get(key, 0.0)
        for key, value in after.items()
        if not key.endswith(skip) and not key.startswith("shard")
    }


def _check_conservation(counts: dict[str, float], ops: int) -> None:
    categories = sum(counts[f"pcie.{c}.bytes"] for c in PCIE_CATEGORIES)
    if categories != counts["pcie.total_bytes"]:
        raise DeterminismError(
            f"PCIe categories sum to {categories}, "
            f"pcie.total_bytes is {counts['pcie.total_bytes']}"
        )
    done = counts["driver.puts"] + counts["driver.gets"]
    if done != ops:
        raise DeterminismError(
            f"driver.puts + driver.gets = {done} for {ops} operations"
        )


def _way_busy(devices) -> list[float]:
    return [
        busy
        for device in devices
        for busy in device.flash.timeline.way_busy_total_us
    ]


# --- in-process ------------------------------------------------------------


def _run_inproc(inputs: InprocInputs, tracer: Tracer | None) -> Repeat:
    timer = CalibratedTimer()
    timer.sample()
    device = KVSSD.build(config=inputs.config)
    driver = device.driver
    for base in range(0, len(inputs.preload), WINDOW_OPS):
        driver.put_many(inputs.preload[base : base + WINDOW_OPS])
        timer.tick()
    if inputs.preload_flush:
        driver.flush()
    timer.sample()
    setup = timer.reset()

    before = device.snapshot()
    busy_before = _way_busy([device])
    put_results = []
    get_results = []
    window_ns = []
    put_many = driver.put_many
    get_many = driver.get_many
    gc.collect()
    if tracer is not None:
        tracer.begin_root("harness")
    timer.sample()
    mark = time.perf_counter_ns()
    for index, (puts, gets) in enumerate(inputs.windows):
        if tracer is not None:
            tracer.window = index
        put_results.append(put_many(puts))
        get_results.append(get_many(gets, max_size=MAX_VALUE_BYTES))
        window_ns.append(time.perf_counter_ns() - mark)
        timer.tick()
        mark = time.perf_counter_ns()
    if inputs.flush_in_timed:
        driver.flush()
    timer.sample()
    if tracer is not None:
        tracer.end_root()
    wall = timer.reset()
    after = device.snapshot()
    busy_after = _way_busy([device])
    driver.flush()
    nand_bytes_total = device.snapshot()["nand.bytes_programmed"]

    # Oracle: PUTs of a window land before its GETs.
    model = dict(inputs.preload)
    failed = 0
    timed_value_bytes = 0
    put_latencies = []
    get_latencies = []
    for (puts, gets), put_out, get_out in zip(
        inputs.windows, put_results, get_results
    ):
        for (key, value), result in zip(puts, put_out):
            put_latencies.append(result.latency_us)
            if result.ok:
                model[key] = value
                timed_value_bytes += len(value)
            else:
                failed += 1
        for key, result in zip(gets, get_out):
            get_latencies.append(result.latency_us)
            if not result.ok or result.value != model[key]:
                failed += 1
    counts = _delta(before, after)
    _check_conservation(counts, inputs.ops)
    return Repeat(
        ops=inputs.ops,
        failed=failed,
        setup=setup,
        wall=wall,
        sim_span_us=after["clock.now_us"] - before["clock.now_us"],
        put_latencies_us=put_latencies,
        get_latencies_us=get_latencies,
        counts=counts,
        way_busy_us=[b - a for a, b in zip(busy_before, busy_after)],
        timed_value_bytes=timed_value_bytes,
        total_value_bytes=timed_value_bytes
        + sum(len(value) for _, value in inputs.preload),
        nand_bytes_total=nand_bytes_total,
        window_ns=window_ns,
    )


# --- wire --------------------------------------------------------------------


@dataclass
class _WireRun:
    """What one served request stream left behind."""

    store: ArrayStore
    server_stats: dict[str, float]
    outcomes: list
    parse_errors: int
    setup: Stretch
    wall: Stretch
    counts: dict[str, float]
    way_busy_us: list[float]


async def _sample_forever(timer: CalibratedTimer) -> None:
    """Keep the timer's speed samples coming while the event loop runs."""
    while True:
        await asyncio.sleep(SAMPLE_PERIOD_S)
        timer.sample()


async def _serve_and_drive(
    inputs: WireInputs, requests, arrivals, tracer: Tracer | None
) -> _WireRun:
    """Build and preload a store, serve it, drive one request stream."""
    timer = CalibratedTimer()
    timer.sample()
    store = ArrayStore.build(config=inputs.config)
    for key, value in inputs.preload:
        store.put(key, value)
        timer.tick()
    server = KVServer(StoreBackend(store), inputs.settings)
    host, port = await server.start()
    sampler = asyncio.get_running_loop().create_task(_sample_forever(timer))
    try:
        timer.sample()
        setup = timer.reset()
        devices = [shard.device for shard in store.devices]
        before = store.snapshot()
        busy_before = _way_busy(devices)
        gc.collect()
        if tracer is not None:
            tracer.begin_root("serve.server")
        timer.sample()
        try:
            result = await run_client(
                host, port, requests, arrivals, conns=1,
                window=WIRE_SEND_WINDOW,
                dispatch_every=inputs.dispatch_every,
            )
        finally:
            timer.sample()
            if tracer is not None:
                tracer.end_root()
        wall = timer.reset()
        counts = _delta(before, store.snapshot())
        busy_after = _way_busy(devices)
    finally:
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)
        await server.stop()
    return _WireRun(
        store=store,
        server_stats=server.stats(),
        outcomes=result.outcomes,
        parse_errors=result.parse_errors,
        setup=setup,
        wall=wall,
        counts=counts,
        way_busy_us=[b - a for a, b in zip(busy_before, busy_after)],
    )


def _run_wire(inputs: WireInputs, tracer: Tracer | None) -> Repeat:
    run = asyncio.run(
        _serve_and_drive(inputs, inputs.requests, inputs.arrivals, tracer)
    )

    # Oracle: one connection, FCFS, so the last STORED write of a key wins.
    expected = {"SET": "STORED", "GET": "VALUE"}
    model = dict(inputs.preload)
    failed = run.parse_errors
    busy_rejected = 0
    timed_value_bytes = 0
    put_latencies = []
    get_latencies = []
    sim_span_us = 0.0
    for outcome in run.outcomes:
        request = inputs.requests[outcome.op_index]
        if outcome.kind != expected[request.kind]:
            failed += 1
            busy_rejected += outcome.kind == "SERVER_BUSY"
            continue
        sim_span_us = max(sim_span_us, outcome.arrival_us + outcome.latency_us)
        if request.kind == "SET":
            model[request.key] = request.value
            timed_value_bytes += len(request.value)
            put_latencies.append(outcome.latency_us)
        else:
            get_latencies.append(outcome.latency_us)
    store = run.store
    keys = list(model)
    for key, entry in zip(
        keys, store.get_many(keys, queue_depth=READBACK_QUEUE_DEPTH)
    ):
        if isinstance(entry, ReproError) or not entry[0] \
                or entry[1] != model[key]:
            failed += 1
    store.flush()
    counts = run.counts
    for name in ("serve.batches", "serve.batch_size.count"):
        counts[name] = run.server_stats.get(name, 0.0)
    _check_conservation(counts, len(inputs.requests) - busy_rejected)
    return Repeat(
        ops=len(inputs.requests),
        failed=failed,
        setup=run.setup,
        wall=run.wall,
        sim_span_us=sim_span_us,
        put_latencies_us=put_latencies,
        get_latencies_us=get_latencies,
        counts=counts,
        way_busy_us=run.way_busy_us,
        timed_value_bytes=timed_value_bytes,
        total_value_bytes=timed_value_bytes
        + sum(len(value) for _, value in inputs.preload),
        nand_bytes_total=store.snapshot()["nand.bytes_programmed"],
        inflight_peak=run.server_stats["serve.inflight_peak"],
        busy_rejected=busy_rejected,
    )


def sim_max_rate_rps(inputs: WireInputs) -> float:
    """Highest ladder rung that meets the latency limit, 0 if none does.

    Each rung is its own fresh store, server and seeded request stream;
    a refused request counts as missing the limit.
    """
    best = 0.0
    for rung, rate in enumerate(inputs.ladder_rps):
        requests, arrivals = wire_requests(
            inputs.seed + 1 + rung, inputs.ladder_requests,
            len(inputs.preload), rate,
        )
        run = asyncio.run(_serve_and_drive(inputs, requests, arrivals, None))
        served = sorted(
            o.latency_us for o in run.outcomes
            if o.kind in ("STORED", "VALUE")
        )
        refused = len(requests) - len(served)
        if (served and refused <= LADDER_REFUSED_LIMIT * len(requests)
                and percentile(served, 99) <= LADDER_P99_LIMIT_US):
            best = max(best, rate)
    return best


# --- repeats -----------------------------------------------------------------


def run_repeat(inputs, tracer: Tracer | None = None) -> Repeat:
    if isinstance(inputs, InprocInputs):
        return _run_inproc(inputs, tracer)
    return _run_wire(inputs, tracer)


def run_repeats(inputs, seconds: float) -> tuple[Repeat, list[Repeat]]:
    """One warm-up repeat, then timed repeats for ``seconds`` seconds.

    Returns ``(warm-up, timed repeats)``; the warm-up's timings are to be
    discarded, its failures are not. Raises :class:`DeterminismError`
    naming the first sim or count figure that differs between two timed
    repeats.
    """
    warmup = run_repeat(inputs)
    repeats: list[Repeat] = []
    timed_ns = 0
    while len(repeats) < MIN_TIMED_REPEATS or timed_ns < seconds * 1e9:
        repeat = run_repeat(inputs)
        timed_ns += repeat.wall.raw_ns
        repeats.append(repeat)
    reference = repeats[0].sim_figures
    for index, repeat in enumerate(repeats[1:], start=2):
        figures = repeat.sim_figures
        for name in sorted(reference.keys() | figures.keys()):
            if reference.get(name) != figures.get(name):
                raise DeterminismError(
                    f"{name} differs between repeats: {reference.get(name)!r} "
                    f"in repeat 1, {figures.get(name)!r} in repeat {index}"
                )
    return warmup, repeats
