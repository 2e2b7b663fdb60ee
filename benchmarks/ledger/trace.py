"""Host-time spans around the layers' public entry points.

The traced run measures each layer from outside: :meth:`Tracer.install`
replaces the entry points named in ``_targets`` with wrappers, at class
or module level, so that every instance built afterwards is seen (the
fused engine binds ``lsm.put``/``lsm.get_address``/``vlog.read`` afresh
per batch, so it sees them too). Nothing in ``src/`` knows about it.

One span = ``(name, start_ns, end_ns, parent, window)``. Spans nest by
call stack (one thread; the wrapped functions are synchronous, so an
asyncio task switch never happens inside one). A layer's *self time* is
the duration of its spans minus the part covered by their child spans.
The timed section itself is the root span, so the self times of all
layers add up to it exactly; the root's own self time is whatever no
wrapper covers — the benchmark's window loop in process (layer
``harness``), asyncio, sockets and the server's coroutines on the wire
(layer ``serve.server``). The timer's speed samples (``timing.py``) are
spans of a layer of their own, ``calibration``, which is reported nowhere:
the other layers add up to the timed wall with the samples left out, the
same wall the untraced repeats report.

Packing, transfer, PCIe and DMA are inlined by the fused engine and have
no entry point to wrap; they are reported as counts only.
"""

from __future__ import annotations

import asyncio
import json
import time
from array import array
from asyncio import events
from collections import Counter
from pathlib import Path

from repro.array.ring import HashRing
from repro.array.store import ArrayStore
from repro.core.controller import BandSlimController
from repro.core.driver import BandSlimDriver
from repro.lsm.sstable import SSTable
from repro.lsm.tree import LSMTree
from repro.lsm.vlog import VLog
from repro.memory.host import HostMemory
from repro.nand.flash import NandFlash
from repro.nand.ftl import PageMappedFTL
from repro.serve import protocol
from repro.serve.backend import StoreBackend
from repro.sim.engine import FusedBatchEngine

from .timing import CalibratedTimer

_FIELDS = 5  # name id, start ns, end ns, parent index, window id

#: Coroutines whose task steps belong to the load generator.
_CLIENT_COROUTINES = frozenset({
    "run_client",
    "_run_connection",
    "_run_connection.<locals>.read_loop",
})


def _targets():
    """``(owner, attribute, layer)`` for every wrapped entry point."""
    rows = [
        # The timer's speed samples are not the program's time: their
        # layer is reported nowhere and left out of the timed wall.
        (CalibratedTimer, "sample", "calibration"),
        (protocol.ResponseParser, "feed", "loadgen"),
        (protocol.RequestParser, "feed", "serve.protocol"),
        (StoreBackend, "execute", "serve.backend"),
        (StoreBackend, "execute_batch", "serve.backend"),
        (HashRing, "replicas", "array"),
        (FusedBatchEngine, "put_batch", "sim.engine"),
        (FusedBatchEngine, "get_batch", "sim.engine"),
        (BandSlimController, "process_next", "core.controller"),
        (BandSlimController, "process_next_deferred", "core.controller"),
        (LSMTree, "put", "lsm"),
        (LSMTree, "get_address", "lsm"),
        (LSMTree, "flush_memtable", "lsm"),
        (SSTable, "get", "lsm"),
        (VLog, "read", "lsm"),
        (PageMappedFTL, "read", "nand.ftl"),
        (PageMappedFTL, "write", "nand.ftl"),
        (PageMappedFTL, "write_many", "nand.ftl"),
        (NandFlash, "program", "nand.flash"),
        (NandFlash, "read", "nand.flash"),
        (NandFlash, "erase_block", "nand.flash"),
    ]
    for name in ("encode_set_request", "encode_get_request",
                 "encode_del_request"):
        rows.append((protocol, name, "loadgen"))
    for name in ("encode_stored", "encode_value", "encode_deleted",
                 "encode_not_found", "encode_busy", "encode_error"):
        rows.append((protocol, name, "serve.protocol"))
    for name in ("put", "get", "delete", "put_many", "get_many"):
        rows.append((ArrayStore, name, "array"))
    for name in ("put", "get", "delete", "put_many", "get_many", "flush"):
        rows.append((BandSlimDriver, name, "core.driver"))
    return rows


def span_name(owner, attribute: str) -> str:
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attribute}"


class Tracer:
    """Installs the wrappers, records spans, attributes self time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        #: Calls and inclusive nanoseconds per span name.
        self.calls: Counter[str] = Counter()
        self.inclusive_ns: Counter[str] = Counter()
        #: Self nanoseconds per layer.
        self.self_ns: Counter[str] = Counter()
        #: Requests handed to ``StoreBackend.execute_batch``.
        self.batched_requests = 0
        #: Window (in process) or request batch (wire) the spans belong to.
        self.window = -1
        #: Open spans, innermost last: ``[span index, child ns, name id]``.
        self._stack: list[list[int]] = []
        self._root: list[int] | None = None
        self._recording = False
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers ----------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def _enter(self, name_id: int) -> list[int]:
        spans = self.spans
        stack = self._stack
        frame = [len(spans) // _FIELDS, 0, name_id]
        spans.extend((
            name_id, time.perf_counter_ns(), 0,
            stack[-1][0] if stack else -1, self.window,
        ))
        stack.append(frame)
        return frame

    def _exit(self, frame: list[int]) -> None:
        end = time.perf_counter_ns()
        spans = self.spans
        stack = self._stack
        stack.pop()
        base = frame[0] * _FIELDS
        spans[base + 2] = end
        duration = end - spans[base + 1]
        name_id = frame[2]
        name = self.names[name_id]
        self.calls[name] += 1
        self.inclusive_ns[name] += duration
        self.self_ns[self.layers[name_id]] += duration - frame[1]
        if stack:
            stack[-1][1] += duration

    def _span_wrapper(self, fn, name: str, layer: str, on_enter=None):
        name_id = self._name_id(name, layer)

        def wrapper(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args)
            frame = self._enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name: str):
        def wrapper(*args, **kwargs):
            if self._recording:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _handle_run_wrapper(self, run):
        """Spans around the event-loop steps of the load generator's tasks.

        ``run_client`` is a coroutine, so a wrapper around it would cover
        the server's work too; its tasks' individual steps are what the
        client itself spends.
        """
        name_id = self._name_id("loadgen.task_step", "loadgen")

        def wrapper(handle):
            if not self._recording:
                return run(handle)
            owner = getattr(handle._callback, "__self__", None)
            if not (isinstance(owner, asyncio.Task)
                    and getattr(owner.get_coro(), "__qualname__", "")
                    in _CLIENT_COROUTINES):
                return run(handle)
            frame = self._enter(name_id)
            try:
                return run(handle)
            finally:
                self._exit(frame)

        return wrapper

    def _new_request_batch(self, args) -> None:
        # StoreBackend.execute inside execute_batch stays in its batch.
        stack = self._stack
        if not stack or self.layers[stack[-1][2]] != "serve.backend":
            self.window += 1

    def _new_batch_of(self, args) -> None:
        self.window += 1
        self.batched_requests += len(args[1])

    def install(self) -> None:
        """Patch every target; spans are recorded only inside a root."""
        hooks = {
            (StoreBackend, "execute"): self._new_request_batch,
            (StoreBackend, "execute_batch"): self._new_batch_of,
        }
        for owner, attribute, layer in _targets():
            original = getattr(owner, attribute)
            wrapper = self._span_wrapper(
                original, span_name(owner, attribute), layer,
                hooks.get((owner, attribute)),
            )
            self._patch(owner, attribute, original, wrapper)
        original = HostMemory.alloc_page
        self._patch(
            HostMemory, "alloc_page", original,
            self._count_wrapper(original, "HostMemory.alloc_page"),
        )
        original = events.Handle._run
        self._patch(
            events.Handle, "_run", original,
            self._handle_run_wrapper(original),
        )

    def _patch(self, owner, attribute, original, wrapper) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # --- the timed section -------------------------------------------------

    def begin_root(self, layer: str) -> None:
        """Open the root span: the traced timed section starts here."""
        self._recording = True
        self._root = self._enter(self._name_id(f"{layer}.timed_section", layer))

    def end_root(self) -> None:
        """Close the root span: the traced timed section ends here."""
        self._exit(self._root)
        self._recording = False

    # --- results -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.spans) // _FIELDS

    def self_seconds(self, layer: str) -> float:
        return self.self_ns[layer] / 1e9

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.spans
        names = self.names
        with path.open("w", encoding="utf-8") as out:
            for index in range(self.span_count):
                name_id, start, end, parent, window = spans[
                    index * _FIELDS : (index + 1) * _FIELDS
                ]
                out.write(json.dumps({
                    "span": index, "name": names[name_id],
                    "layer": self.layers[name_id], "start_ns": start,
                    "end_ns": end, "parent": parent, "window": window,
                }))
                out.write("\n")
