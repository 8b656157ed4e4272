"""Span recording for the benchmark's per-layer (span) run.

A *span* is a timed interval around one call into a layer's entry
function.  The recorder wraps those functions from the outside — it
patches class attributes and module globals for the duration of one
run and restores them afterwards — so nothing under ``src/`` changes.
("Span" is deliberately not "trace": the simulator's own event tracing
is a workload property here, see ``fig5_traced``.)

Every span is kept in memory as one row of four integer arrays — entry
id, parent span, start and end (``perf_counter_ns``) — and written out
when the run ends.  A layer's self time is its spans' durations minus
the durations of their child spans.  Python GC pauses are timed from
outside through :data:`gc.callbacks` and charged to ``runtime.gc`` as
children of whatever span was open when the collector ran.
"""

from __future__ import annotations

import gc
import importlib
from array import array
from time import perf_counter_ns
from typing import Dict, Iterator, List, Tuple

import numpy as np

#: Layer -> entry functions, as ``(module, qualified attribute)``.  The
#: layer names are module-based; ``runtime.gc`` and ``unattributed`` have
#: no entry function.  Order is report order.
LAYER_ENTRIES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "workloads": (
        ("repro.workloads.random_access", "request_batches"),
    ),
    "host.run": (("repro.host.host", "Host.run"),),
    "host.send": (("repro.host.host", "Host.send_request"),),
    "host.recv": (("repro.host.host", "Host.drain_responses"),),
    "core.link": (
        ("repro.core.simulator", "HMCSim.send"),
        ("repro.core.simulator", "HMCSim.recv"),
        ("repro.core.simulator", "HMCSim.recv_all"),
    ),
    "core.clock": (("repro.core.simulator", "HMCSim.clock"),),
    "core.xbar": (("repro.core.crossbar", "CrossbarUnit.route_requests"),),
    "core.vault.scan": (
        ("repro.core.vault", "Vault.stage34"),
        ("repro.core.vault", "Vault.recognize_conflicts"),
        ("repro.core.vault", "Vault.process_requests"),
    ),
    "core.vault.execute": (("repro.core.vault", "Vault._execute"),),
    "core.bank": (
        ("repro.core.bank", "Bank.read"),
        ("repro.core.bank", "Bank.write"),
        ("repro.core.bank", "Bank.masked_write"),
        ("repro.core.bank", "Bank.atomic_add16"),
        ("repro.core.bank", "Bank.atomic_2add8"),
    ),
    "core.respond": (
        ("repro.core.clock", "ClockEngine._register_device_responses"),
    ),
    "trace.sink": (("repro.trace.tracer", "Tracer.flush"),),
    "service.frontend": (
        ("repro.service.frontend", "MemoryService.serve_sync"),
    ),
    "service.admission": (
        ("repro.service.frontend", "MemoryService._grant_leases"),
        ("repro.service.admission", "AdmissionController.release_parked"),
        ("repro.service.admission", "TokenBucket.ready"),
        ("repro.service.admission", "TokenBucket.consume"),
        ("repro.service.admission", "FabricPort.admit"),
    ),
    "service.pump": (
        ("repro.service.shard", "Shard.pump"),
        ("repro.service.shard", "Shard._send_phase"),
    ),
    "service.checkpoint": (
        ("repro.service.shard", "Shard._take_epoch"),
        ("repro.service.shard", "Shard._restore_epoch"),
        ("repro.service.sessions", "SessionPool.spin_up"),
    ),
    "service.accounting": (
        ("repro.service.frontend", "MemoryService._resolve"),
        ("repro.service.shard", "Shard._attribute_faults"),
        ("repro.service.frontend", "MemoryService.report"),
    ),
}

GC_LAYER = "runtime.gc"
UNATTRIBUTED = "unattributed"
#: Every layer the span output reports, in order.
LAYERS: Tuple[str, ...] = tuple(LAYER_ENTRIES) + (GC_LAYER, UNATTRIBUTED)

#: Entry ids: one per wrapped function, plus the per-item stream entry.
ENTRIES: List[Tuple[str, str]] = [
    (layer, f"{mod}:{attr}")
    for layer, fns in LAYER_ENTRIES.items()
    for mod, attr in fns
] + [("workloads", "stream.__next__")]
_ENTRY_ID = {name: i for i, (_, name) in enumerate(ENTRIES)}
_STREAM_ENTRY = _ENTRY_ID["stream.__next__"]
_GENERATORS = {"repro.workloads.random_access:request_batches"}


def _collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


class SpanRecorder:
    """Records spans while installed; computes per-layer self times."""

    def __init__(self) -> None:
        self.entry = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.gc_parent = array("q")
        self.gc_start = array("q")
        self.gc_end = array("q")
        #: Open spans; the bottom sentinel -1 is the parent of roots.
        self._stack = [-1]
        self._saved: List[Tuple[object, str, object]] = []
        #: Bytes of shard epoch checkpoints taken while installed.
        self.snapshot_bytes = 0
        #: Collections the interpreter counted while installed.
        self.gc_collections = 0

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, eid: int):
        entry, parent, start, end = self.entry, self.parent, self.start, self.end
        stack = self._stack

        def spanned(*args, **kwargs):
            sid = len(start)
            entry.append(eid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()

        spanned.__wrapped__ = fn
        return spanned

    def _wrap_generator(self, fn, eid: int):
        """Span each ``next()`` of the generator *fn* returns."""

        def spanned(*args, **kwargs):
            return self.iterate(fn(*args, **kwargs), eid)

        spanned.__wrapped__ = fn
        return spanned

    def iterate(self, it, eid: int = _STREAM_ENTRY) -> Iterator:
        """Yield from *it*, spanning each item's production."""
        entry, parent, start, end = self.entry, self.parent, self.start, self.end
        stack = self._stack
        it = iter(it)
        while True:
            sid = len(start)
            entry.append(eid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            start.append(perf_counter_ns())
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()
            yield item

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.gc_parent.append(self._stack[-1])
            self.gc_start.append(perf_counter_ns())
        elif len(self.gc_end) < len(self.gc_start):
            self.gc_end.append(perf_counter_ns())

    def install(self) -> None:
        """Patch every entry function and hook the garbage collector."""
        for eid, (_, name) in enumerate(ENTRIES):
            if ":" not in name:
                continue
            mod_name, attr = name.split(":")
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrap = self._wrap_generator if name in _GENERATORS else self._wrap
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, wrap(original, eid))
        shard = importlib.import_module("repro.service.shard")
        snapshot_bundle = shard.snapshot_bundle

        def counted_snapshot(*args, **kwargs):
            blob = snapshot_bundle(*args, **kwargs)
            self.snapshot_bytes += len(blob)
            return blob

        self._saved.append((shard, "snapshot_bundle", snapshot_bundle))
        shard.snapshot_bundle = counted_snapshot
        self.gc_collections -= _collections()
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every patched attribute and unhook the collector."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
            self.gc_collections += _collections()
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    # The recorder is the span run's timing window: installed on entry,
    # restored on exit, so spans cover exactly the timed interval.
    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (the written-out form)."""
        n_gc = len(self.gc_end)
        return {
            "entry": np.frombuffer(self.entry, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "gc_parent": np.frombuffer(self.gc_parent, dtype=np.int64)[:n_gc].copy(),
            "gc_start_ns": np.frombuffer(self.gc_start, dtype=np.int64)[:n_gc].copy(),
            "gc_end_ns": np.frombuffer(self.gc_end, dtype=np.int64).copy(),
            "entry_names": np.array([name for _, name in ENTRIES]),
            "entry_layers": np.array([layer for layer, _ in ENTRIES]),
        }

    def layer_table(self, wall_s: float) -> Dict[str, Dict[str, float]]:
        """``{layer: {calls, self_s, share}}`` over a window of *wall_s*.

        ``unattributed`` is the part of the window no span covers, so
        the self times of all layers add up to *wall_s* exactly.
        """
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        gc_dur = a["gc_end_ns"] - a["gc_start_ns"]
        gc_has_parent = a["gc_parent"] >= 0
        np.add.at(child, a["gc_parent"][gc_has_parent], gc_dur[gc_has_parent])
        self_ns = dur - child
        layer_of_entry = {layer: i for i, layer in enumerate(LAYERS)}
        entry_layer = np.array(
            [layer_of_entry[layer] for layer, _ in ENTRIES], dtype=np.int64
        )
        span_layer = entry_layer[a["entry"]]
        n = len(LAYERS)
        calls = np.bincount(span_layer, minlength=n)
        self_s = np.bincount(span_layer, weights=self_ns, minlength=n) / 1e9
        gc_i = layer_of_entry[GC_LAYER]
        calls[gc_i] = len(gc_dur)
        self_s[gc_i] = gc_dur.sum() / 1e9
        un_i = layer_of_entry[UNATTRIBUTED]
        self_s[un_i] = wall_s - self_s.sum()
        return {
            layer: {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "share": float(self_s[i] / wall_s) if wall_s > 0 else 0.0,
            }
            for i, layer in enumerate(LAYERS)
        }

    def entry_calls(self, name: str) -> int:
        """Spans recorded for one entry function (``module:attr``)."""
        a = np.frombuffer(self.entry, dtype=np.int32)
        return int(np.count_nonzero(a == _ENTRY_ID[name]))

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())
