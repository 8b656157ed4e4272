"""The benchmark of record: one workload, one process, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 35 --trace 0

``--trace 0`` repeats the workload for about ``--seconds`` (set-up, then
the timed window, each repetition) and reports the end-to-end metrics
as medians over repetitions.  ``--trace 1`` does the same plain
repetitions, then one *span run* of the same workload that reports the
per-layer metrics (see spans.py).  Both modes check the outputs outside
every timed window; the last stdout line is the JSON result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A run manifest, every metric with its unit and the check results are
also printed above it and written to ``perfbench/out/``.  ``--size tiny``
is the self-test size; the benchmark of record is ``--size full``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: At least this many plain repetitions, however long they take.
MIN_REPS = 3
#: Set-ups per repetition: set-up is short and noisy, so it is sampled
#: more often than the timed window and reported as a median.
SETUPS_PER_REP = 3
#: Largest share of the span-run wall no layer may cover.
MAX_UNATTRIBUTED = 0.05

E2E_UNITS = {
    "req_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sim_cycles": "cycles",
    "sim_lat_p50_cycles": "cycles",
    "sim_lat_p99_cycles": "cycles",
}

COUNTER_UNITS = {
    "core.xbar.moved": "count",
    "core.vault.conflicts": "count",
    "core.vault.issued": "count",
    "core.vault.issue_ratio": "ratio",
    "host.send.attempts": "count",
    "host.send.accept_ratio": "ratio",
    "core.bank.touched_mib": "MiB",
    "trace.records": "count",
    "trace.mib": "MiB",
    "service.checkpoint.epochs": "count",
    "service.checkpoint.mib": "MiB",
    "service.replayed_requests": "count",
    "runtime.gc.collections": "count",
    "span.overhead": "ratio",
}


def _import_program():
    """Import the simulator from this checkout's ``src`` (exit 2 if absent)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)


def _git(*args: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, env=env, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def manifest(args, config: dict) -> dict:
    """What ran: revision, interpreter, host, seed, config hash, argv."""
    import numpy

    rev = _git("rev-parse", "HEAD")
    return {
        "git_rev": rev or None,
        "git_dirty": bool(_git("status", "--porcelain")) if rev else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "argv": sys.argv,
    }


def measure(workload, seconds: float):
    """Plain repetitions filling about *seconds*, at least ``MIN_REPS``.

    Each repetition sets up ``SETUPS_PER_REP`` times and runs the last
    set-up, so set-up times are sampled across the whole run.  Returns
    ``(reps, setup_times)``.
    """
    reps, setups = [], []
    start = perf_counter()
    while True:
        for _ in range(SETUPS_PER_REP):
            gc.collect()
            t0 = perf_counter()
            state = workload.setup()
            setups.append(perf_counter() - t0)
        reps.append(workload.run(state))
        del state
        elapsed = perf_counter() - start
        # Stop where the run ends closest to *seconds*.
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) / 2 > seconds:
            break
    return reps, setups


def span_run(workload):
    """One repetition with spans recorded: ``(rep, recorder)``."""
    from spans import SpanRecorder

    recorder = SpanRecorder()
    gc.collect()
    state = workload.setup(recorder)
    rep = workload.run(state, window=recorder)
    return rep, recorder


def end_to_end(reps, setups) -> Dict[str, float]:
    from workloads import nearest_rank

    lat = sorted(reps[0].latencies)
    return {
        "req_per_s": statistics.median(r.completed / r.wall_s for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_cycles": reps[0].sim_cycles,
        "sim_lat_p50_cycles": nearest_rank(lat, 0.5),
        "sim_lat_p99_cycles": nearest_rank(lat, 0.99),
    }


def per_layer(rep, recorder, plain_wall: float):
    from spans import LAYERS, UNATTRIBUTED

    layers = recorder.layer_table(rep.wall_s)
    out: Dict[str, tuple] = {}
    for layer in LAYERS:
        row = layers[layer]
        if layer != UNATTRIBUTED:
            out[f"{layer}.calls"] = (row["calls"], "count")
        out[f"{layer}.self_s"] = (row["self_s"], "s")
        out[f"{layer}.share"] = (row["share"], "fraction")
    c = rep.counters
    attempts = recorder.entry_calls("repro.host.host:Host.send_request")
    issued, conflicts = c["core.vault.issued"], c["core.vault.conflicts"]
    counters = {
        "core.xbar.moved": c["core.xbar.moved"],
        "core.vault.conflicts": conflicts,
        "core.vault.issued": issued,
        "core.vault.issue_ratio":
            issued / (issued + conflicts) if issued + conflicts else 1.0,
        "host.send.attempts": attempts,
        "host.send.accept_ratio": c["host.sent"] / attempts if attempts else 1.0,
        "core.bank.touched_mib": c["core.bank.touched_mib"],
        "trace.records": c.get("trace.records", 0),
        "trace.mib": c.get("trace.mib", 0.0),
        "service.checkpoint.epochs":
            recorder.entry_calls("repro.service.shard:Shard._take_epoch"),
        "service.checkpoint.mib": recorder.snapshot_bytes / (1 << 20),
        "service.replayed_requests": c.get("service.replayed_requests", 0),
        "runtime.gc.collections": recorder.gc_collections,
        "span.overhead": rep.wall_s / plain_wall,
    }
    for name, value in counters.items():
        out[name] = (value, COUNTER_UNITS[name])
    return out, layers


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(want one of {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed, args.size)
    info = manifest(args, workload.config())
    print("manifest " + json.dumps(info, sort_keys=True))

    reps, setups = measure(workload, args.seconds)
    e2e = end_to_end(reps, setups)
    problems: List[str] = []
    for i, rep in enumerate(reps):
        problems += [f"rep {i}: {p}" for p in rep.problems]
    signatures = {rep.sim_signature() for rep in reps}
    if len(signatures) != 1:
        problems.append(f"simulated results differ across reps: {signatures}")

    # Every end-to-end metric is printed; the result line carries them
    # in a plain run and the per-layer metrics in a span run.
    printed = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
    metrics = printed
    layers = None
    if args.trace:
        rep, recorder = span_run(workload)
        problems += [f"span run: {p}" for p in rep.problems]
        if rep.sim_signature() != reps[0].sim_signature():
            problems.append(
                f"span run simulated {rep.sim_signature()}, plain run "
                f"{reps[0].sim_signature()}")
        plain_wall = statistics.median(r.wall_s for r in reps)
        metrics, layers = per_layer(rep, recorder, plain_wall)
        unattributed = metrics["unattributed.share"][0]
        if unattributed > MAX_UNATTRIBUTED:
            problems.append(f"unattributed share {unattributed:.3f} > "
                            f"{MAX_UNATTRIBUTED}")
        printed = {**printed, **metrics}
        reps.append(rep)

    problems += workload.check_schedulers()

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    print(f"reps {len(reps)}  walls_s "
          f"{[round(r.wall_s, 3) for r in reps]}  failed_frac "
          f"{failed / attempted:.6f}")
    for name, (value, unit) in printed.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        recorder.save(str(stem) + ".spans.npz")
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in printed.items()}
    with open(str(stem) + ".json", "w") as fh:
        json.dump({
            "manifest": info,
            "reps": [{"wall_s": r.wall_s, "attempted": r.attempted,
                      "completed": r.completed, "failed": r.failed,
                      "sim_cycles": r.sim_cycles} for r in reps],
            "setup_s": setups,
            "failed_frac": failed / attempted,
            "metrics": as_json,
            "layers": layers,
            "problems": problems,
        }, fh, indent=1)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: as_json[k] for k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
