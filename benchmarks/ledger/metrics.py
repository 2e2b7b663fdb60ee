"""Every metric the ledger reports: name, unit, clock, direction, bound.

``BENCHMARK.json`` at the repository root carries the same names, units,
directions and bounds (``tests/test_ledger.py`` holds the two together);
the clock and the one-line definition live only here and in the README.

Clocks: *host* is ``time.perf_counter_ns`` wall time of this process,
in reference seconds where the definition says so (``timing.py``), or
``ru_maxrss``; *sim* is the model's virtual microseconds, *count* is a
tally or a ratio of tallies. Sim and count metrics repeat exactly at a
fixed seed; host metrics carry the sandbox's noise.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str  # "host" | "sim" | "count"
    better: str  # "higher" | "lower"
    definition: str
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only).
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "host", "lower",
           "op-stream generation + median over repeats of store build, preload"
           " and server start, in reference seconds", bound=0.25),
    Metric("wall_ops_per_s", "ops/s", "host", "higher",
           "operations completed / reference seconds of the timed section",
           bound=0.20),
    Metric("peak_rss_mb", "MiB", "host", "lower",
           "ru_maxrss of the process at exit", bound=0.15),
    Metric("sim_ops_per_s", "ops/s", "sim", "higher",
           "operations completed / simulated span of the timed section",
           bound=0.20),
    Metric("sim_put_mean_us", "us", "sim", "lower",
           "mean client-observed PUT/SET latency", bound=0.15),
    Metric("sim_put_p99_us", "us", "sim", "lower",
           "99th percentile client-observed PUT/SET latency", bound=0.25),
    Metric("sim_get_mean_us", "us", "sim", "lower",
           "mean client-observed GET latency", bound=0.20),
    Metric("sim_get_p99_us", "us", "sim", "lower",
           "99th percentile client-observed GET latency", bound=0.25),
    Metric("pcie_bytes_per_value_byte", "ratio", "count", "lower",
           "pcie.total_bytes of the timed section / value bytes written in it"
           " (the paper's TAF)", bound=0.25),
    Metric("nand_bytes_per_value_byte", "ratio", "count", "lower",
           "nand.bytes_programmed after the final flush / value bytes written"
           " since the store was built (the paper's WAF)", bound=0.10),
)


def _layer(prefix: str, rows) -> tuple[Metric, ...]:
    return tuple(
        Metric(f"{prefix}.{name}", unit, clock, better, definition)
        for name, unit, clock, better, definition in rows
    )


_SELF = ("self_s", "s", "host", "lower",
         "host seconds in the layer's spans minus their child spans")

PER_LAYER = (
    *_layer("harness", [
        ("self_s", "s", "host", "lower",
         "timed wall minus every span, in-process workloads: the benchmark's"
         " own window loop"),
    ]),
    *_layer("loadgen", [
        ("self_s", "s", "host", "lower",
         "encode_*_request, ResponseParser.feed and the client tasks' steps"),
        ("encode_calls", "count", "count", "lower",
         "protocol.encode_*_request calls"),
        ("parse_feed_calls", "count", "count", "lower",
         "ResponseParser.feed calls"),
    ]),
    *_layer("serve.protocol", [
        _SELF,
        ("request_feed_calls", "count", "count", "lower",
         "RequestParser.feed calls"),
        ("encode_calls", "count", "count", "lower",
         "response encoder calls (encode_stored/value/...)"),
    ]),
    *_layer("serve.server", [
        ("self_s", "s", "host", "lower",
         "timed wall minus every other span, wire workloads: asyncio,"
         " sockets, admission, workers"),
        ("batches", "count", "count", "higher",
         "multi-op sub-batches executed"),
        ("mean_batch_ops", "ops", "count", "higher",
         "requests / executed sub-batches (1 on the serial worker)"),
        ("inflight_peak", "count", "host", "lower",
         "most admitted-but-unserved requests at once"),
        ("busy_rejected", "count", "count", "lower",
         "SERVER_BUSY responses in the timed section"),
        ("sim_max_rate_rps", "req/s", "sim", "higher",
         "highest ladder rung with sim p99 <= 1000 us and <= 1% refused"),
    ]),
    *_layer("serve.backend", [
        _SELF,
        ("execute_calls", "count", "count", "lower",
         "StoreBackend.execute calls"),
        ("execute_batch_calls", "count", "count", "lower",
         "StoreBackend.execute_batch calls"),
        ("ops_per_batch", "ops", "count", "higher",
         "requests handed to execute_batch / execute_batch calls"),
    ]),
    *_layer("array", [
        _SELF,
        ("put_many_calls", "count", "count", "lower",
         "ArrayStore.put_many calls"),
        ("get_many_calls", "count", "count", "lower",
         "ArrayStore.get_many calls"),
        ("single_op_calls", "count", "count", "lower",
         "ArrayStore.put + get + delete calls"),
        ("ring_lookups", "count", "count", "lower",
         "HashRing.replicas calls"),
    ]),
    *_layer("core.driver", [
        _SELF,
        ("put_many_calls", "count", "count", "lower",
         "BandSlimDriver.put_many calls"),
        ("get_many_calls", "count", "count", "lower",
         "BandSlimDriver.get_many calls"),
        ("serial_put_calls", "count", "count", "lower",
         "BandSlimDriver.put calls"),
        ("serial_get_calls", "count", "count", "lower",
         "BandSlimDriver.get calls"),
        ("fused_batch_frac", "fraction", "count", "higher",
         "FusedBatchEngine batch calls / driver put_many + get_many calls"),
        ("window_us_per_op_p50", "us/op", "host", "lower",
         "median host us per op over the 256-op windows, untraced repeats"),
        ("window_us_per_op_p99", "us/op", "host", "lower",
         "99th percentile of the same; far above p50 marks flush stalls"),
    ]),
    *_layer("sim.engine", [
        _SELF,
        ("put_batch_calls", "count", "count", "lower",
         "FusedBatchEngine.put_batch calls"),
        ("get_batch_calls", "count", "count", "lower",
         "FusedBatchEngine.get_batch calls"),
    ]),
    *_layer("core.controller", [
        _SELF,
        ("commands", "count", "count", "lower",
         "controller.commands_processed"),
        ("memcpy_bytes", "bytes", "count", "lower",
         "controller.memcpy_bytes"),
    ]),
    *_layer("memory.host", [
        ("alloc_page_calls", "count", "count", "lower",
         "HostMemory.alloc_page calls"),
    ]),
    *_layer("core.packing", [
        ("values_placed", "count", "count", "higher",
         "packing.backfill.values_placed"),
        ("backfill_bytes", "bytes", "count", "higher",
         "packing.backfill.backfill_bytes"),
        ("fragmentation_bytes", "bytes", "count", "lower",
         "packing.backfill.fragmentation_bytes"),
        ("buffer_flushes", "count", "count", "lower", "buffer.flushes"),
        ("forced_flushes", "count", "count", "lower",
         "buffer.forced_flushes"),
    ]),
    *_layer("pcie", [
        ("sq_entry_bytes", "bytes", "count", "lower", "pcie.sq_entry.bytes"),
        ("cq_entry_bytes", "bytes", "count", "lower", "pcie.cq_entry.bytes"),
        ("doorbell_bytes", "bytes", "count", "lower", "pcie.doorbell.bytes"),
        ("dma_h2d_bytes", "bytes", "count", "lower", "pcie.dma_h2d.bytes"),
        ("dma_d2h_bytes", "bytes", "count", "lower", "pcie.dma_d2h.bytes"),
    ]),
    *_layer("lsm", [
        _SELF,
        ("get_address_calls", "count", "count", "lower",
         "LSMTree.get_address calls"),
        ("sstable_get_calls", "count", "count", "lower",
         "SSTable.get calls"),
        ("sstable_probes_per_get", "ratio", "count", "lower",
         "SSTable.get calls / LSMTree.get_address calls"),
        ("vlog_reads", "count", "count", "lower", "vlog.reads"),
        ("flushes", "count", "count", "lower", "lsm.flushes"),
        ("compactions", "count", "count", "lower", "lsm.compactions"),
        ("flush_compact_s", "s", "host", "lower",
         "host seconds inside LSMTree.flush_memtable spans, children"
         " included"),
    ]),
    *_layer("nand.ftl", [
        _SELF,
        ("reads", "count", "count", "lower", "PageMappedFTL.read calls"),
        ("logical_writes", "count", "count", "lower", "ftl.logical_writes"),
        ("gc_collections", "count", "count", "lower", "gc.collections"),
        ("gc_pages_relocated", "count", "count", "lower",
         "gc.pages_relocated"),
    ]),
    *_layer("nand.flash", [
        _SELF,
        ("page_programs", "count", "count", "lower", "nand.page_programs"),
        ("page_reads", "count", "count", "lower", "nand.page_reads"),
        ("coalesced_reads", "count", "count", "higher",
         "nand.coalesced_reads"),
        ("block_erases", "count", "count", "lower", "nand.block_erases"),
    ]),
    *_layer("sim.timeline", [
        ("way_util_mean", "fraction", "sim", "lower",
         "mean over ways of NAND way busy time / simulated span"),
        ("way_util_max", "fraction", "sim", "lower",
         "busiest way's busy time / simulated span"),
    ]),
    *_layer("trace", [
        ("overhead_frac", "fraction", "host", "lower",
         "traced timed wall / untraced median timed wall - 1"),
        ("spans", "count", "count", "lower",
         "spans recorded in the traced repeat"),
    ]),
    *_layer("host", [
        ("raw_wall_ops_per_s", "ops/s", "host", "higher",
         "operations / raw wall seconds, median of the untraced repeats"),
        ("calibration_ops_per_s", "ops/s", "host", "higher",
         "bench_throughput's pure-Python calibration loop; context only"),
        ("nproc", "count", "host", "higher", "os.cpu_count()"),
    ]),
)

#: Layers whose ``self_s`` partition the traced timed wall.
SELF_TIME_LAYERS = tuple(
    m.name[: -len(".self_s")] for m in PER_LAYER if m.name.endswith(".self_s")
)
