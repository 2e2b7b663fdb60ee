"""Command line of the ledger: one workload per process, or A/A of all.

``--workload W --seed N --seconds S --trace 0`` prints every end-to-end
metric of one workload; ``--trace 1`` prints every per-layer metric from
one traced repeat instead. Either way the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is 1 when any operation failed or any output was wrong, 2 when
a sim or count figure differed between repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.bench_throughput import _calibrate

from . import metrics as M
from .harness import (
    PCIE_CATEGORIES,
    DeterminismError,
    Repeat,
    percentile,
    run_repeat,
    run_repeats,
    sim_max_rate_rps,
)
from .timing import CalibratedTimer
from .trace import Tracer
from .workloads import WORKLOADS, InprocInputs, WireInputs

OUT_DIR = Path(__file__).resolve().parent / "out"
#: Times the op stream is generated (and timed) per run.
GENERATION_REPEATS = 3


def _spread(values: list[float], raw: list[float]) -> str:
    return (f"median of {len(values)} [min {min(values):.6g}, "
            f"max {max(values):.6g}]; raw median {statistics.median(raw):.6g}"
            f" [min {min(raw):.6g}, max {max(raw):.6g}]")


def end_to_end(
    repeats: list[Repeat], generate_ns: int, generate_ref_s: float
) -> tuple[dict[str, float], dict[str, str]]:
    """``(values, notes)`` of every end-to-end metric of a run."""
    first = repeats[0]
    figures = first.sim_figures
    rates = [r.ops / r.wall.ref_s for r in repeats]
    setups = [generate_ref_s + r.setup.ref_s for r in repeats]
    values = {
        "setup_s": statistics.median(setups),
        "wall_ops_per_s": statistics.median(rates),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": _spread(
            setups, [(generate_ns + r.setup.raw_ns) / 1e9 for r in repeats]),
        "wall_ops_per_s": _spread(
            rates, [r.ops / (r.wall.raw_ns / 1e9) for r in repeats]),
        "peak_rss_mb": "at exit",
    }
    for metric in M.END_TO_END:
        if metric.name in figures:
            values[metric.name] = figures[metric.name]
            notes[metric.name] = f"identical in {len(repeats)} repeats"
    puts, gets = len(first.put_latencies_us), len(first.get_latencies_us)
    for name in ("sim_put_mean_us", "sim_put_p99_us"):
        notes[name] += f", n={puts}"
    for name in ("sim_get_mean_us", "sim_get_p99_us"):
        notes[name] += f", n={gets}"
    return values, notes


def per_layer(
    inputs, untraced: list[Repeat], traced: Repeat, tracer: Tracer
) -> dict[str, float]:
    """Every per-layer metric, from one traced and the untraced repeats."""
    calls = tracer.calls
    counts = traced.counts
    wire = isinstance(inputs, WireInputs)
    sub_batches = counts.get("serve.batch_size.count", 0.0) or (
        traced.ops if wire else 0.0
    )
    batch_calls = calls["StoreBackend.execute_batch"]
    driver_batches = (calls["BandSlimDriver.put_many"]
                      + calls["BandSlimDriver.get_many"])
    fused = (calls["FusedBatchEngine.put_batch"]
             + calls["FusedBatchEngine.get_batch"])
    lookups = calls["LSMTree.get_address"]
    windows = sorted(
        ns / 1e3 / (len(puts) + len(gets))
        for repeat in untraced
        for ns, (puts, gets) in zip(repeat.window_ns, inputs.windows)
    ) if isinstance(inputs, InprocInputs) else []
    span_us = traced.sim_span_us
    way_util = [busy / span_us for busy in traced.way_busy_us]
    untraced_wall = statistics.median(r.wall.ref_s for r in untraced)
    out = {f"{layer}.self_s": tracer.self_seconds(layer)
           for layer in M.SELF_TIME_LAYERS}
    out.update({
        "loadgen.encode_calls": sum(
            calls[f"protocol.encode_{kind}_request"]
            for kind in ("set", "get", "del")),
        "loadgen.parse_feed_calls": calls["ResponseParser.feed"],
        "serve.protocol.request_feed_calls": calls["RequestParser.feed"],
        "serve.protocol.encode_calls": sum(
            calls[f"protocol.encode_{kind}"]
            for kind in ("stored", "value", "deleted", "not_found", "busy",
                         "error")),
        "serve.server.batches": counts.get("serve.batches", 0.0),
        "serve.server.mean_batch_ops":
            traced.ops / sub_batches if sub_batches else 0.0,
        "serve.server.inflight_peak": traced.inflight_peak,
        "serve.server.busy_rejected": traced.busy_rejected,
        "serve.server.sim_max_rate_rps":
            sim_max_rate_rps(inputs) if wire else 0.0,
        "serve.backend.execute_calls": calls["StoreBackend.execute"],
        "serve.backend.execute_batch_calls": batch_calls,
        "serve.backend.ops_per_batch":
            tracer.batched_requests / batch_calls if batch_calls else 0.0,
        "array.put_many_calls": calls["ArrayStore.put_many"],
        "array.get_many_calls": calls["ArrayStore.get_many"],
        "array.single_op_calls": calls["ArrayStore.put"]
            + calls["ArrayStore.get"] + calls["ArrayStore.delete"],
        "array.ring_lookups": calls["HashRing.replicas"],
        "core.driver.put_many_calls": calls["BandSlimDriver.put_many"],
        "core.driver.get_many_calls": calls["BandSlimDriver.get_many"],
        "core.driver.serial_put_calls": calls["BandSlimDriver.put"],
        "core.driver.serial_get_calls": calls["BandSlimDriver.get"],
        "core.driver.fused_batch_frac":
            fused / driver_batches if driver_batches else 0.0,
        "core.driver.window_us_per_op_p50":
            percentile(windows, 50) if windows else 0.0,
        "core.driver.window_us_per_op_p99":
            percentile(windows, 99) if windows else 0.0,
        "sim.engine.put_batch_calls": calls["FusedBatchEngine.put_batch"],
        "sim.engine.get_batch_calls": calls["FusedBatchEngine.get_batch"],
        "core.controller.commands": counts["controller.commands_processed"],
        "core.controller.memcpy_bytes": counts["controller.memcpy_bytes"],
        "memory.host.alloc_page_calls": calls["HostMemory.alloc_page"],
        "core.packing.values_placed":
            counts["packing.backfill.values_placed"],
        "core.packing.backfill_bytes":
            counts["packing.backfill.backfill_bytes"],
        "core.packing.fragmentation_bytes":
            counts["packing.backfill.fragmentation_bytes"],
        "core.packing.buffer_flushes": counts["buffer.flushes"],
        "core.packing.forced_flushes": counts["buffer.forced_flushes"],
        "lsm.get_address_calls": lookups,
        "lsm.sstable_get_calls": calls["SSTable.get"],
        "lsm.sstable_probes_per_get":
            calls["SSTable.get"] / lookups if lookups else 0.0,
        "lsm.vlog_reads": counts["vlog.reads"],
        "lsm.flushes": counts["lsm.flushes"],
        "lsm.compactions": counts["lsm.compactions"],
        "lsm.flush_compact_s":
            tracer.inclusive_ns["LSMTree.flush_memtable"] / 1e9,
        "nand.ftl.reads": calls["PageMappedFTL.read"],
        "nand.ftl.logical_writes": counts["ftl.logical_writes"],
        "nand.ftl.gc_collections": counts["gc.collections"],
        "nand.ftl.gc_pages_relocated": counts["gc.pages_relocated"],
        "nand.flash.page_programs": counts["nand.page_programs"],
        "nand.flash.page_reads": counts["nand.page_reads"],
        "nand.flash.coalesced_reads": counts.get("nand.coalesced_reads", 0.0),
        "nand.flash.block_erases": counts["nand.block_erases"],
        "sim.timeline.way_util_mean": statistics.fmean(way_util),
        "sim.timeline.way_util_max": max(way_util),
        "trace.overhead_frac": traced.wall.ref_s / untraced_wall - 1.0,
        "trace.spans": tracer.span_count,
        "host.raw_wall_ops_per_s": statistics.median(
            r.ops / (r.wall.raw_ns / 1e9) for r in untraced),
        "host.calibration_ops_per_s": _calibrate(),
        "host.nproc": os.cpu_count() or 1,
    })
    for category in PCIE_CATEGORIES:
        out[f"pcie.{category}_bytes"] = counts[f"pcie.{category}.bytes"]
    return out


def _report(table, values: dict[str, float], notes: dict[str, str]) -> dict:
    """Print one line per metric; return the JSON ``metrics`` object."""
    mismatch = {m.name for m in table} ^ values.keys()
    if mismatch:
        raise RuntimeError(f"metrics out of step with metrics.py: {mismatch}")
    out = {}
    for metric in table:
        value = float(values[metric.name])
        bound = f"  bound {metric.bound:.0%}" if metric.bound else ""
        note = notes.get(metric.name, "")
        print(f"  {metric.name:<36} {value:>16.6f} {metric.unit:<9}"
              f"{metric.clock:<6}{metric.better:<7}{note}{bound}")
        out[metric.name] = {"value": value, "unit": metric.unit}
    return out


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> int:
    """Run one workload, print its metrics; returns the exit code."""
    # Generation is deterministic, so it can be timed like every other
    # part of set-up: several times, keeping the median.
    timer = CalibratedTimer()
    generations = []
    for _ in range(GENERATION_REPEATS):
        timer.sample()
        inputs = WORKLOADS[name].generate(seed, smoke)
        timer.sample()
        generations.append(timer.reset())
    generate_ns, generate_ref_s = map(statistics.median, zip(*generations))
    try:
        # The traced run spends half its budget on the untraced repeats it
        # compares the traced one with.
        warmup, repeats = run_repeats(inputs, seconds / 2 if trace else seconds)
    except DeterminismError as exc:
        print(f"ledger: {name}: {exc}", file=sys.stderr)
        return 2
    measured = [warmup, *repeats]
    print(f"ledger workload={name} seed={seed} trace={int(trace)} "
          f"ops_per_repeat={inputs.ops} timed_repeats={len(repeats)} "
          f"(+1 warm-up discarded) smoke={int(smoke)}")
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_repeat(inputs, tracer)
        finally:
            tracer.uninstall()
        measured.append(traced)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(spans_path)
        values = per_layer(inputs, repeats, traced, tracer)
        self_total = sum(values[f"{layer}.self_s"]
                         for layer in M.SELF_TIME_LAYERS)
        print(f"  traced timed wall {traced.wall.raw_ns / 1e9:.6f} s, self times "
              f"sum to {self_total:.6f} s; spans in {spans_path}")
        table, notes = M.PER_LAYER, {}
    else:
        values, notes = end_to_end(repeats, generate_ns, generate_ref_s)
        table = M.END_TO_END
    reported = _report(table, values, notes)
    attempted = sum(r.ops for r in measured)
    failed = sum(r.failed for r in measured)
    print(f"  failed_ops_frac {failed / attempted:.6f} "
          f"({failed} of {attempted} operations, warm-up included)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": reported,
    }))
    return 0 if failed == 0 else 1


def _last_json(argv: list[str]) -> dict:
    """Run the benchmark as its own process; its result line, parsed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("__main__.py")), *argv],
        capture_output=True, text=True,
    )
    if not done.stdout.strip():  # aborted before any result (exit 2)
        raise SystemExit(done.stderr.strip() or f"exit {done.returncode}")
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def run_aa(seed: int, seconds: float, smoke: bool) -> int:
    """Run every workload twice, untraced, each run in its own process.

    Prints the relative difference of every metric beside its bound and
    returns 1 when a metric of the second run is worse than the first by
    more than the bound (sim and count metrics must be identical).
    """
    worst = 0
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        if smoke:
            argv.append("--smoke")
        first, second = _last_json(argv), _last_json(argv)
        for metric in M.END_TO_END:
            a = first["metrics"][metric.name]["value"]
            b = second["metrics"][metric.name]["value"]
            worse = (a - b) / a if metric.better == "higher" else (b - a) / a
            if metric.clock == "host":
                ok = worse <= metric.bound
            else:
                ok = a == b
            worst |= not ok
            print(f"{name:<14}{metric.name:<28}{a:>16.6f}{b:>16.6f}"
                  f"{worse:>+10.2%}  bound {metric.bound:.0%}"
                  f"{'' if metric.clock == 'host' else ' (must be equal)'}"
                  f"  {'ok' if ok else 'EXCEEDED'}")
        for run in (first, second):
            worst |= not run["correct"]
    return int(worst)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.ledger", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds of timed repeats (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced repeat, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload 20x (functional check)")
    parser.add_argument("--aa", action="store_true",
                        help="run all workloads twice and compare")
    args = parser.parse_args(argv)
    if args.aa:
        return run_aa(args.seed, args.seconds, args.smoke)
    if args.workload is None:
        parser.error("--workload is required unless --aa is given")
    return run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
