"""Simulation checkpoint / restore.

Long paper-scale runs (2^25 requests take ~30 minutes in pure Python)
benefit from checkpointing: snapshot the complete simulation state, resume
later — or fork a state to explore two what-if continuations.  Because
the engine is fully deterministic, a restored simulation continues
bit-identically to the original.

Snapshots serialise the :class:`~repro.core.simulator.HMCSim` object
graph with :mod:`pickle`.  Tracer sinks may hold OS resources (open
files), so snapshotting detaches the tracer (its mask is preserved,
its sinks are not) — reattach sinks after restore.  Components that
keep their own reference to the tracer (the RAS controller does) are
detached through the same stand-in, so the whole restored graph shares
one tracer and no sink object ever enters the pickle stream.  Host-side
objects (:class:`~repro.host.host.Host` etc.) hold a reference to the
sim and must be checkpointed *with* it via :func:`snapshot_bundle` to
keep the object graph consistent; its ``buffers=[]`` (used by service
epochs) shares banks' cached, immutable storage images by reference.

The in-band link fault machinery (:mod:`repro.faults.inband`) is part
of the pickled graph: per-direction retry pointers, cached replay
words, the degradation-ladder position and the LRS register mirrors
all round-trip, so a simulation restored mid-degradation resumes
bit-identically — a HALF link stays HALF with its doubled FLIT
serialization, it does not silently reset to FULL
(tests/test_link_inband.py::TestCheckpointRoundTrip).

Every blob starts with a versioned magic header (:data:`MAGIC`), so a
corrupt, truncated, or incompatible blob raises a typed
:class:`~repro.core.errors.CheckpointError` instead of leaking a raw
pickle traceback — callers (the service recovery layer in particular)
can catch one exception type and decide whether to retry, rebuild, or
abort.
"""

from __future__ import annotations

import pickle
from typing import Any, List, Tuple

from repro.core.errors import CheckpointError
from repro.core.simulator import HMCSim
from repro.trace.tracer import Tracer

#: Versioned magic header prepended to every snapshot blob.  Bump the
#: trailing version byte when the pickled payload shape changes
#: incompatibly; :func:`restore` rejects blobs from other versions.
MAGIC = b"HMCSNAP\x01"


def _strip_magic(blob: bytes, kind: str) -> bytes:
    """Validate and remove the magic header; raises CheckpointError."""
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise CheckpointError(
            f"{kind}: expected bytes, got {type(blob).__name__}"
        )
    blob = bytes(blob)
    if len(blob) < len(MAGIC):
        raise CheckpointError(
            f"{kind}: blob truncated ({len(blob)} bytes, "
            f"shorter than the {len(MAGIC)}-byte header)"
        )
    if blob[: len(MAGIC) - 1] != MAGIC[:-1]:
        raise CheckpointError(
            f"{kind}: bad magic {blob[:len(MAGIC)]!r} — not a snapshot blob"
        )
    if blob[len(MAGIC) - 1] != MAGIC[-1]:
        raise CheckpointError(
            f"{kind}: snapshot format version {blob[len(MAGIC) - 1]} "
            f"is not supported (want {MAGIC[-1]})"
        )
    return blob[len(MAGIC):]


def _unpickle(payload: bytes, kind: str, buffers=None) -> Any:
    """Deserialise a validated payload; raises CheckpointError."""
    try:
        return pickle.loads(payload, buffers=buffers)
    except Exception as exc:
        raise CheckpointError(
            f"{kind}: payload is corrupt or truncated ({exc})"
        ) from exc


def _tracer_holders(sim: HMCSim) -> List[Any]:
    """Components holding their own ``.tracer`` reference.

    ``sim.tracer`` is swapped for a sinkless stand-in during pickling;
    any component that cached the tracer at construction must be
    swapped through the *same* stand-in or the original tracer (and
    its possibly unpicklable sinks) rides into the pickle stream — and
    the restored component would log to a ghost tracer nobody reads.
    """
    holders = []
    for d in sim.devices:
        ras = getattr(d, "ras", None)
        if ras is not None and getattr(ras, "tracer", None) is not None:
            holders.append(ras)
    return holders


def _pickle_detached(sim: HMCSim, payload_of, buffers=None) -> bytes:
    """Pickle ``payload_of(sim)`` with every tracer reference detached."""
    # Sharded engines (SimConfig.workers > 1) keep authoritative bank
    # state in worker processes; pull it into this process first so the
    # pickled storage is current.  Serial engines have no such hook.
    sync = getattr(sim.engine, "sync_for_snapshot", None)
    if sync is not None:
        sync()
    saved_tracer = sim.tracer
    standin = Tracer(mask=saved_tracer.mask)  # sinkless stand-in
    holders = _tracer_holders(sim)
    sim.tracer = standin
    for h in holders:
        h.tracer = standin
    def share(buf):  # out of band by reference: immutable bytes only
        data = buf.raw().obj
        return type(data) is not bytes or buffers.append(data)
    try:
        return MAGIC + pickle.dumps(
            payload_of(sim), protocol=pickle.HIGHEST_PROTOCOL,
            buffer_callback=None if buffers is None else share)
    finally:
        sim.tracer = saved_tracer
        for h in holders:
            h.tracer = saved_tracer


def _rewire_tracer(sim: HMCSim) -> None:
    """Point every component-held tracer reference at ``sim.tracer``.

    New snapshots already share one stand-in tracer across the graph;
    this also heals blobs written before holders were detached, where
    a component could come back with a private tracer copy.
    """
    for h in _tracer_holders(sim):
        h.tracer = sim.tracer


def snapshot(sim: HMCSim) -> bytes:
    """Serialise *sim* (tracer sinks detached) to bytes."""
    return _pickle_detached(sim, lambda s: s)


def restore(blob: bytes) -> HMCSim:
    """Reconstruct a simulation from :func:`snapshot` bytes.

    The restored object has a sinkless tracer with the original mask;
    attach sinks with :meth:`HMCSim.add_trace_sink` as needed.  Raises
    :class:`~repro.core.errors.CheckpointError` on a corrupt, truncated
    or version-incompatible blob.
    """
    sim = _unpickle(_strip_magic(blob, "restore"), "restore")
    if not isinstance(sim, HMCSim):
        raise CheckpointError(
            f"restore: snapshot does not contain an HMCSim: {type(sim)!r}"
        )
    _rewire_tracer(sim)
    return sim


def snapshot_bundle(sim: HMCSim, *extras: Any, buffers: list = None) -> bytes:
    """Snapshot *sim* together with host-side objects referencing it.

    Pickling them in one pass preserves shared references (a restored
    Host still points at the restored HMCSim)::

        blob = snapshot_bundle(sim, host)
        sim2, (host2,) = restore_bundle(blob)

    *buffers* (a list) takes the immutable bank images by reference, out
    of the blob; restore with the same list.  Without it, blob bytes are
    unchanged.
    """
    return _pickle_detached(sim, lambda s: (s, tuple(extras)), buffers)


def restore_bundle(blob: bytes, buffers: list = None) -> Tuple[HMCSim, tuple]:
    """Inverse of :func:`snapshot_bundle`; raises
    :class:`~repro.core.errors.CheckpointError` on a bad blob."""
    payload = _unpickle(_strip_magic(blob, "restore_bundle"), "restore_bundle", buffers)
    try:
        sim, extras = payload
    except (TypeError, ValueError):
        raise CheckpointError(
            f"restore_bundle: blob does not contain a (sim, extras) "
            f"bundle: {type(payload)!r}"
        ) from None
    if not isinstance(sim, HMCSim):
        raise CheckpointError(
            f"restore_bundle: snapshot does not contain an HMCSim: "
            f"{type(sim)!r}"
        )
    _rewire_tracer(sim)
    return sim, extras


def save(sim: HMCSim, path: str) -> None:
    """Write a snapshot to *path*."""
    with open(path, "wb") as fh:
        fh.write(snapshot(sim))


def load(path: str) -> HMCSim:
    """Read a snapshot from *path*."""
    with open(path, "rb") as fh:
        return restore(fh.read())
