"""Functional checks of the ledger benchmark, on 20x-shrunk workloads.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger/tests`` from
the repository root (``benchmarks/conftest.py`` imports ``repro``). The
directory is outside tier-1's ``testpaths`` on purpose: each test starts
the benchmark as its own process, as the driver does.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.ledger import metrics as M  # noqa: E402
from benchmarks.ledger.timing import CalibratedTimer  # noqa: E402
from benchmarks.ledger.trace import Tracer  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_ledger(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*MANIFEST["command"], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int, seed: int = 3) -> dict:
    done = run_ledger("--workload", workload, "--seed", str(seed),
                      "--seconds", "0", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    # Every metric is also printed by name, with its unit.
    for name, entry in result["metrics"].items():
        assert re.search(rf"^\s+{re.escape(name)}\s.*{re.escape(entry['unit'])}",
                         done.stdout, re.M), name
    return {name: entry["value"] for name, entry in result["metrics"].items()}


# --- the manifest ------------------------------------------------------------


def test_manifest_matches_the_metric_tables():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    for entry in MANIFEST["workloads"]:
        assert entry == {"name": entry["name"],
                         "why": WORKLOADS[entry["name"]].why}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in M.END_TO_END
    ]
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in M.PER_LAYER
    ]


def test_manifest_stays_inside_the_contract():
    names = [m.name for m in (*M.END_TO_END, *M.PER_LAYER)]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    for metric in (*M.END_TO_END, *M.PER_LAYER):
        assert NAME.match(metric.name) and UNIT.match(metric.unit), metric
        assert metric.better in ("higher", "lower")
    assert all(0 < m.bound <= 0.25 for m in M.END_TO_END)
    setup = next(m for m in M.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in M.END_TO_END)
    assert 2 <= len(WORKLOADS) <= 8
    assert len(M.END_TO_END) <= 16 and len(M.PER_LAYER) <= 128
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_readme_names_every_metric_and_workload():
    readme = (ROOT / "benchmarks/ledger/README.md").read_text()
    for name in (*WORKLOADS, *(m.name for m in (*M.END_TO_END, *M.PER_LAYER))):
        assert f"`{name}`" in readme, name
    assert "unvalidated" in readme


# --- untraced runs -----------------------------------------------------------


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    values = smoke(workload, trace=0)
    assert list(values) == [m.name for m in M.END_TO_END]
    assert all(value > 0 for value in values.values())


def test_same_seed_same_sim_figures_other_seed_other_inputs():
    exact = [m.name for m in M.END_TO_END if m.clock != "host"]
    first = smoke("wire_batched", trace=0)
    again = smoke("wire_batched", trace=0)
    other = smoke("wire_batched", trace=0, seed=4)
    assert [first[name] for name in exact] == [again[name] for name in exact]
    assert [first[name] for name in exact] != [other[name] for name in exact]


# --- traced runs -------------------------------------------------------------


#: What the layers a workload bypasses must read, and the ones it is
#: there to exercise must not.
ZERO = {
    "put_mixgraph": [],
    "mixed_hot": ["lsm.sstable_get_calls", "lsm.flushes"],
    "mixed_cold": [],
    "wire_batched": [],
    "wire_serial": ["sim.engine.put_batch_calls", "sim.engine.get_batch_calls",
                    "serve.backend.execute_batch_calls",
                    "core.driver.fused_batch_frac"],
}
NONZERO = {
    "put_mixgraph": ["core.packing.values_placed", "lsm.flushes"],
    "mixed_hot": ["sim.engine.get_batch_calls", "pcie.dma_d2h_bytes"],
    "mixed_cold": ["sim.engine.get_batch_calls"],
    "wire_batched": ["serve.backend.execute_batch_calls",
                     "serve.server.sim_max_rate_rps", "array.put_many_calls"],
    "wire_serial": ["core.driver.serial_put_calls", "array.single_op_calls",
                    "memory.host.alloc_page_calls"],
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    values = smoke(workload, trace=1)
    assert list(values) == [m.name for m in M.PER_LAYER]
    assert [n for n in ZERO[workload] if values[n] != 0] == []
    assert [n for n in NONZERO[workload] if values[n] <= 0] == []
    if workload != "wire_serial":
        assert values["core.driver.fused_batch_frac"] == 1.0
    wire = workload.startswith("wire_")
    for layer in ("loadgen", "serve.protocol", "serve.server",
                  "serve.backend", "array"):
        assert (values[f"{layer}.self_s"] > 0) == wire, layer
    assert (values["harness.self_s"] > 0) == (not wire)
    categories = [name for name in values if name.startswith("pcie.")]
    assert len(categories) == 5 and sum(values[n] for n in categories) > 0
    assert values["trace.spans"] > 0

    spans = [json.loads(line) for line in
             (ROOT / f"benchmarks/ledger/out/spans-{workload}-seed3.jsonl")
             .read_text().splitlines()]
    assert len(spans) == values["trace.spans"]
    assert spans[0]["parent"] == -1
    assert all(0 <= s["parent"] < s["span"] for s in spans[1:])
    assert all(s["end_ns"] >= s["start_ns"] for s in spans)
    # The self times of the reported layers partition the traced timed
    # wall: the root span less the timer's own calibration samples.
    root = spans[0]["end_ns"] - spans[0]["start_ns"]
    calibration = sum(s["end_ns"] - s["start_ns"] for s in spans
                      if s["layer"] == "calibration")
    self_total = sum(values[f"{layer}.self_s"] for layer in M.SELF_TIME_LAYERS)
    assert self_total == pytest.approx((root - calibration) / 1e9, rel=0.02)


# --- pieces ------------------------------------------------------------------


def test_tracer_self_times_partition_the_root_span():
    class Stack:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return sum(range(2_000))

    tracer = Tracer()
    tracer._patch(Stack, "outer", Stack.outer,
                  tracer._span_wrapper(Stack.outer, "Stack.outer", "top"))
    tracer._patch(Stack, "inner", Stack.inner,
                  tracer._span_wrapper(Stack.inner, "Stack.inner", "bottom"))
    try:
        Stack().outer()  # outside a root: not recorded
        assert tracer.span_count == 0
        tracer.begin_root("root")
        Stack().outer()
        tracer.end_root()
    finally:
        tracer.uninstall()
    assert Stack.outer.__name__ == "outer"
    assert tracer.calls == {"Stack.outer": 1, "Stack.inner": 2,
                            "root.timed_section": 1}
    root = tracer.inclusive_ns["root.timed_section"]
    assert sum(tracer.self_ns.values()) == root
    assert tracer.self_ns["bottom"] == tracer.inclusive_ns["Stack.inner"]
    assert tracer.self_ns["top"] == (tracer.inclusive_ns["Stack.outer"]
                                     - tracer.inclusive_ns["Stack.inner"])


def test_calibrated_timer_leaves_its_own_samples_out():
    timer = CalibratedTimer()
    start = time.perf_counter_ns()
    timer.sample()
    sum(range(200_000))
    timer.tick()
    timer.sample()
    elapsed = time.perf_counter_ns() - start
    first = timer.reset()
    assert 0 < first.raw_ns < elapsed  # the samples took time too
    assert first.ref_s > 0
    timer.sample()
    timer.sample()
    assert timer.reset().raw_ns < first.raw_ns  # reset forgot the work


# --- the contract's edges ------------------------------------------------------


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks/ledger", tmp_path / "benchmarks/ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_ledger("--workload", "mixed_hot", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_aa_mode_compares_two_runs_of_every_workload():
    done = run_ledger("--aa", "--smoke", "--seconds", "0", "--seed", "5")
    rows = [line for line in done.stdout.splitlines() if " bound " in line]
    assert len(rows) == len(WORKLOADS) * len(M.END_TO_END)
    exact = [row for row in rows if "(must be equal)" in row]
    assert exact and all(row.endswith("ok") for row in exact)
    # Host metrics of 20x-shrunk runs are too short to hold their bounds;
    # the exit code only has to agree with the rows.
    assert done.returncode == int(any(row.endswith("EXCEEDED") for row in rows))
