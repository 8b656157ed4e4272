"""Generate the compact-codec, 4 KiB-page checkpoint compatibility fixture.

This script was run against the tree whose ``Bank`` pickled with the
compact per-bank codec (one flat tuple: slot names, DRAM count, page
indices, one word buffer, one bit-packed touched map, slot values) while
pages still held 256 atoms (512 words, 4 KiB of payload), producing:

- ``compact_4k_snapshot.bin`` — a small :func:`snapshot_bundle` of a
  mid-flight simulation + host (requests in flight, banks written);
- ``compact_4k_expect.json`` — the snapshot's cycle and bank digest,
  and the observables of the deterministic continuation from
  ``gen_pre_flat_core.run_continuation`` replayed on a *restored* copy.

Pages have since shrunk to 128 B, so nothing else in the test suite
produces a 4 KiB-page blob; ``tests/test_checkpoint_compat.py`` restores
this one (its banks keep their recorded page length) and checks the
continuation bit-for-bit.  Re-running the script on a newer tree would
overwrite the fixture with a blob in the current layout and defeat the
test — keep the committed outputs.

Run from the repository root::

    PYTHONPATH=src python -m tests.fixtures.gen_compact_4k
"""

from __future__ import annotations

import json
import os

from repro.core.checkpoint import restore_bundle, snapshot_bundle
from repro.workloads.random_access import (
    RandomAccessConfig,
    random_access_requests,
)
from tests.fixtures.gen_pre_flat_core import (
    build_sim,
    run_continuation,
    storage_fingerprint,
)

HERE = os.path.dirname(os.path.abspath(__file__))
BLOB_PATH = os.path.join(HERE, "compact_4k_snapshot.bin")
EXPECT_PATH = os.path.join(HERE, "compact_4k_expect.json")

#: Words per page in the recorded blob (256 atoms x 2 words).
PAGE_WORDS = 512

#: Pre-snapshot phases: few requests so the blob stays small.  The
#: first is write-heavy and drained, so the banks hold real content;
#: the second is left in flight.
PHASE_A = RandomAccessConfig(num_requests=24, read_fraction=0.25, seed=31)
PHASE_A_INFLIGHT = RandomAccessConfig(num_requests=32, read_fraction=0.5,
                                      seed=32)


def main() -> None:
    sim, host = build_sim()
    capacity = sim.config.device.capacity_bytes
    host.run(random_access_requests(capacity, PHASE_A), cub=0)
    # drain=False: the snapshot also carries loaded queues and
    # outstanding tags.
    host.run(random_access_requests(capacity, PHASE_A_INFLIGHT), cub=0,
             drain=False)
    blob = snapshot_bundle(sim, host)
    with open(BLOB_PATH, "wb") as fh:
        fh.write(blob)

    sim2, (host2,) = restore_bundle(blob)
    expect = {
        "snapshot_cycle": sim.clock_value,
        "snapshot_storage_sha256": storage_fingerprint(sim2),
        "blob_bytes": len(blob),
    }
    expect.update(run_continuation(sim2, host2))
    with open(EXPECT_PATH, "w") as fh:
        json.dump(expect, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(expect, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
