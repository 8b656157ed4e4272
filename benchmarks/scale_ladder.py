"""Scale ladder: peak RSS and cycles/request of the Table I harness.

Runs the paper's §VI.A random-access experiment on each Table I
configuration at each requested size.  Every (configuration, size) pair
runs in a fresh interpreter, so ``ru_maxrss`` is that run's own peak.
Prints a Markdown table.  Run from the repository root::

    PYTHONPATH=src python benchmarks/scale_ladder.py --log2 14 16 18 20
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from repro.core.config import PAPER_CONFIGS

_CHILD = """
import json, resource, sys, time
from repro.core.config import PAPER_CONFIGS
from repro.workloads.random_access import RandomAccessConfig, run_random_access
label, n, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
t0 = time.perf_counter()
res = run_random_access(PAPER_CONFIGS[label],
                        RandomAccessConfig(num_requests=n, seed=seed))
print(json.dumps({
    "cycles": res.cycles,
    "wall_s": time.perf_counter() - t0,
    "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def run_one(label: str, num_requests: int, seed: int) -> dict:
    """One fresh-process run: ``{"cycles", "wall_s", "peak_rss_mib"}``."""
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, label, str(num_requests), str(seed)],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log2", type=int, nargs="+", default=[14, 16, 18],
                        help="request counts as powers of two")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    print("| config | requests | cycles | cycles/request "
          "| peak RSS (MiB) | wall (s) |")
    print("|---|---|---|---|---|---|")
    for label in PAPER_CONFIGS:
        for k in args.log2:
            r = run_one(label, 1 << k, args.seed)
            print(f"| {label} | 2^{k} | {r['cycles']} "
                  f"| {r['cycles'] / (1 << k):.4f} | {r['peak_rss_mib']:.0f} "
                  f"| {r['wall_s']:.1f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
