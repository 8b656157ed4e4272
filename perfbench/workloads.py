"""The benchmark's three workloads: set-up, one timed repetition, checks.

Each workload is a fixed amount of simulated work made from the seed.
``setup`` builds everything a repetition needs (timed as ``setup_s``);
``run`` times the window that ``req_per_s`` divides (inside the
*window* context it is given: the span recorder, in a span run), then
checks the outputs and returns a :class:`Rep`; ``check_schedulers`` re-runs a
short prefix of the stream on both engine schedulers.  No check runs
inside a timed window.

Why these three (see README.md for the layer table):

* ``table1`` — the paper's §VI.A harness on the four Table I configs,
  untraced: host, crossbar, vault and bank do nearly all the work.
* ``fig5_traced`` — the same stream on 4L/8B/2GB with the STANDARD
  trace mask into a BinarySink plus TraceStats: same core work plus the
  trace pipeline, so a trace change shows here and not on ``table1``.
* ``serve_chaos`` — 128 mixed tenants under token buckets on the
  memory service, resilience armed and a crash/watchdog/crash chaos
  campaign: the service layers dominate, and the core sees sequential,
  read-heavy, rate-limited traffic over many small sims.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.core.config import PAPER_CONFIGS, DeviceConfig, SimConfig
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.trace.binfmt import BinarySink
from repro.trace.events import EventType
from repro.trace.stats import TraceStats
from repro.trace.tracer import StatsSink
from repro.workloads.random_access import RandomAccessConfig, random_access_requests

#: Requests per repetition (per Table I config), by size.  ``full`` is
#: what the benchmark of record runs; ``tiny`` is the self-test size.
SIZES = {
    "full": {"requests": 1 << 14, "tenants": 128, "tenant_requests": 16,
             "prefix": 1024, "prefix_tenants": 8},
    "tiny": {"requests": 256, "tenants": 8, "tenant_requests": 16,
             "prefix": 128, "prefix_tenants": 4},
}

#: The tenant fleet (classes, kinds, rates, read fractions) is part of
#: the workload's definition and fixed; the benchmark seed varies every
#: tenant's request stream.
FLEET_SEED = 1

FIG5_CONFIG = "4-Link; 8-Bank; 2GB"


@dataclass
class Rep:
    """What one timed repetition did."""

    wall_s: float
    attempted: int
    completed: int
    failed: int
    sim_cycles: int
    latencies: List[int]
    #: Layer counters (work done, for the span output).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Output-check failures, found after the timed window closed.
    problems: List[str] = field(default_factory=list)

    def sim_signature(self) -> tuple:
        """The simulated outcome, which must repeat exactly."""
        lat = sorted(self.latencies)
        return (self.sim_cycles, len(lat), sum(lat), nearest_rank(lat, 0.5),
                nearest_rank(lat, 0.99))


def nearest_rank(sorted_values: List[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list (an observed value)."""
    if not sorted_values:
        return 0
    k = max(1, -(-int(q * 1_000_000) * len(sorted_values) // 1_000_000))
    return sorted_values[k - 1]


def bank_digest(sim: HMCSim) -> str:
    """Hash of every bank's stored contents, in device/vault/bank order."""
    h = hashlib.blake2b(digest_size=16)
    for dev in sim.devices:
        for vault in dev.vaults:
            for bank in vault.banks:
                for pg, words, touched in bank.export_storage():
                    h.update(f"{dev.dev_id}.{vault.vault_id}."
                             f"{bank.bank_id}.{pg}|".encode())
                    h.update(words.tobytes())
                    h.update(touched.tobytes())
    return h.hexdigest()


def _core_counters(sims: List[HMCSim]) -> Dict[str, float]:
    moved = conflicts = issued = pages = 0
    for sim in sims:
        sc = sim.engine.stage_counts
        moved += sc[1] + sc[2]
        conflicts += sc[3]
        issued += sc[4]
        for dev in sim.devices:
            for vault in dev.vaults:
                for bank in vault.banks:
                    pages += sum(p.nbytes for p in bank._pages.values())
    return {
        "core.xbar.moved": moved,
        "core.vault.conflicts": conflicts,
        "core.vault.issued": issued,
        "core.bank.touched_mib": pages / (1 << 20),
    }


class _Discard:
    """Write-only byte stream that keeps nothing (trace bytes are counted
    by the sink itself)."""

    def write(self, blob: bytes) -> int:
        return len(blob)

    def flush(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Random-access harness: table1 and fig5_traced.
# ---------------------------------------------------------------------------


@dataclass
class _Drive:
    """One sim + host ready to run the harness stream."""

    label: str
    device: DeviceConfig
    sim: HMCSim
    host: Host
    binary: Optional[BinarySink] = None
    stats: Optional[TraceStats] = None


def _build_drive(label: str, device: DeviceConfig, scheduler: str,
                 traced: bool, stream=None) -> _Drive:
    sim = HMCSim(SimConfig(device=device, scheduler=scheduler))
    for link in range(device.num_links):
        sim.attach_host(0, link)
    drive = _Drive(label, device, sim, Host(sim, max_outstanding=512))
    if traced:
        sim.set_trace_mask(EventType.STANDARD)
        drive.binary = sim.add_trace_sink(
            BinarySink(stream or _Discard(), device.num_vaults))
        drive.stats = TraceStats(num_vaults=device.num_vaults)
        sim.add_trace_sink(StatsSink(drive.stats))
    return drive


class RandomAccessWorkload:
    """The paper's closed-loop harness: 64 B requests, 50/50 read/write,
    round-robin over every host link, at most 512 tags outstanding per
    link (the host's 9-bit tag space)."""

    def __init__(self, name: str, labels: List[str], traced: bool,
                 seed: int, size: str) -> None:
        self.name = name
        self.labels = labels
        self.traced = traced
        self.seed = seed
        self.size = SIZES[size]
        self.ra = RandomAccessConfig(
            num_requests=self.size["requests"], request_bytes=64,
            read_fraction=0.5, seed=seed, max_outstanding=512)

    def config(self) -> dict:
        return {
            "workload": self.name,
            "configs": self.labels,
            "requests_per_config": self.ra.num_requests,
            "request_bytes": self.ra.request_bytes,
            "read_fraction": self.ra.read_fraction,
            "max_outstanding_per_link": self.ra.max_outstanding,
            "trace_mask": "STANDARD" if self.traced else "NONE",
            "scheduler": "active",
        }

    def setup(self, recorder=None) -> List[_Drive]:
        return [_build_drive(label, PAPER_CONFIGS[label], "active", self.traced)
                for label in self.labels]

    def run(self, drives: List[_Drive], window=nullcontext()) -> Rep:
        with window:
            t0 = perf_counter()
            results = [
                d.host.run(random_access_requests(d.device.capacity_bytes,
                                                  self.ra), cub=0)
                for d in drives
            ]
            wall = perf_counter() - t0
        attempted = completed = failed = cycles = 0
        latencies: List[int] = []
        counters = {"host.sent": 0, "trace.records": 0, "trace.mib": 0.0}
        for d, res in zip(drives, results):
            attempted += self.ra.num_requests
            completed += res.responses_received - res.errors_received
            failed += (self.ra.num_requests - res.responses_received
                       + res.errors_received)
            cycles += res.cycles
            latencies.extend(res.latencies)
            counters["host.sent"] += d.host.sent
            if d.binary is not None:
                counters["trace.records"] += d.binary.records
                counters["trace.mib"] += d.binary.bytes_written / (1 << 20)
        counters.update(_core_counters([d.sim for d in drives]))
        rep = Rep(wall, attempted, completed, failed, cycles, latencies,
                  counters)
        rep.problems = self._check_outputs(drives, rep)
        for d in drives:
            d.sim.free()
        return rep

    def _check_outputs(self, drives: List[_Drive], rep: Rep) -> List[str]:
        problems = []
        if rep.completed != rep.attempted or rep.failed:
            problems.append(
                f"{rep.attempted - rep.completed} of {rep.attempted} "
                f"requests unanswered or failed")
        for d in drives:
            if d.stats is not None and d.binary is not None:
                if d.binary.records != d.stats.events_seen:
                    problems.append(
                        f"{d.label}: BinarySink records {d.binary.records} "
                        f"!= TraceStats.events_seen {d.stats.events_seen}")
                if d.binary.records == 0:
                    problems.append(f"{d.label}: no trace records")
        return problems

    def check_schedulers(self) -> List[str]:
        """A stream prefix on ``naive`` and ``active``: same cycles, same
        bank contents (and, traced, the same trace bytes)."""
        import io
        import itertools

        from repro.packets import packet as packet_mod

        problems = []
        prefix = RandomAccessConfig(
            num_requests=self.size["prefix"], request_bytes=64,
            read_fraction=0.5, seed=self.seed, max_outstanding=512)
        for label in self.labels:
            seen = {}
            for scheduler in ("naive", "active"):
                # Trace records carry packet serials from one global
                # counter: restart it so both runs number packets alike.
                packet_mod._packet_serial = itertools.count()
                buf = io.BytesIO()
                d = _build_drive(label, PAPER_CONFIGS[label], scheduler,
                                 self.traced, stream=buf)
                res = d.host.run(random_access_requests(
                    d.device.capacity_bytes, prefix), cub=0)
                d.sim.tracer.flush()
                seen[scheduler] = (res.cycles, bank_digest(d.sim),
                                   hashlib.sha256(buf.getvalue()).hexdigest())
                d.sim.free()
            if seen["naive"] != seen["active"]:
                problems.append(f"{label}: naive/active prefix differs: {seen}")
        return problems


# ---------------------------------------------------------------------------
# serve_chaos: the memory service, resilience armed, chaos campaign.
# ---------------------------------------------------------------------------


class ServeChaosWorkload:
    """128 tenants on the memory service with crash recovery, failover
    and breakers armed and a crash/watchdog/crash campaign on shard 0."""

    name = "serve_chaos"

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = SIZES[size]

    def _service_config(self, scheduler: str):
        from repro.faults.chaos import ChaosEvent, ChaosSchedule
        from repro.service import ServiceConfig

        campaign = ChaosSchedule([
            ChaosEvent(at=40, kind="shard_crash", shard=0),
            ChaosEvent(at=90, kind="watchdog_trip", shard=0),
            ChaosEvent(at=140, kind="shard_crash", shard=0),
        ])
        return ServiceConfig(
            device=DeviceConfig(num_links=4, num_banks=8, capacity=2),
            devs_per_shard=2, slots_per_shard=2, max_shards=4,
            provision_requests=512, scheduler=scheduler,
            checkpoint_interval=256, failover_retries=2,
            breaker_threshold=3, chaos=campaign,
        )

    def _profiles(self, tenants: int) -> List[dict]:
        from repro.workloads.mixes import tenant_mix_profiles

        profiles = tenant_mix_profiles(
            tenants, seed=FLEET_SEED,
            base_requests=self.size["tenant_requests"])
        for i, p in enumerate(profiles):
            p["seed"] = self.seed * 1_000_003 + i * 7919 + 1
        return profiles

    def config(self) -> dict:
        cfg = self._service_config("active")
        return {
            "workload": self.name,
            "tenants": self.size["tenants"],
            "fleet_seed": FLEET_SEED,
            "base_requests": self.size["tenant_requests"],
            "device": cfg.device.label(),
            "devs_per_shard": cfg.devs_per_shard,
            "slots_per_shard": cfg.slots_per_shard,
            "max_shards": cfg.max_shards,
            "provision_requests": cfg.provision_requests,
            "checkpoint_interval": cfg.checkpoint_interval,
            "failover_retries": cfg.failover_retries,
            "breaker_threshold": cfg.breaker_threshold,
            "chaos": cfg.chaos.as_dict(),
            "scheduler": "active",
        }

    def _build(self, scheduler: str, tenants: int, wrap: Callable = None):
        from repro.service import MemoryService, specs_from_profiles

        cfg = self._service_config(scheduler)
        service = MemoryService(cfg)
        service.pool.template_blob()
        profiles = self._profiles(tenants)
        specs = specs_from_profiles(profiles, cfg)
        if wrap is not None:
            for spec in specs:
                spec.requests = wrap(spec.requests)
        return service, specs, profiles

    def setup(self, recorder=None):
        return self._build("active", self.size["tenants"],
                           recorder.iterate if recorder is not None else None)

    def run(self, state, window=nullcontext()) -> Rep:
        from repro.core.checkpoint import restore

        service, specs, profiles = state
        with window:
            t0 = perf_counter()
            report = service.serve_sync(specs)
            wall = perf_counter() - t0
        accounts = service.ledger.accounts
        totals = report["accounting"]["totals"]
        attempted = sum(int(p["requests"]) for p in profiles)
        unsent = attempted - sum(accounts[p["tenant_id"]].requests_sent
                                 for p in profiles)
        counters = _core_counters([sh.sim for sh in service.shards])
        # Every shard sim descends from the provisioned template: count
        # only the work done since spin-up.
        template = _core_counters([restore(service.pool.template_blob())])
        for key in ("core.xbar.moved", "core.vault.conflicts",
                    "core.vault.issued"):
            counters[key] -= template[key] * len(service.shards)
        # Accepted sends: requests sent, plus those re-sent after a
        # restore rewound the count.
        counters["host.sent"] = (totals["requests_sent"]
                                 + totals["replayed_requests"])
        counters["service.replayed_requests"] = totals["replayed_requests"]
        rep = Rep(
            wall_s=wall,
            attempted=attempted,
            completed=totals["responses"] - totals["errors"],
            failed=(totals["errors"] + totals["lost_inflight"]
                    + totals["deadline_misses"] + unsent),
            sim_cycles=sum(s["sim_cycles"] for s in report["shards"]),
            latencies=[lat for p in profiles
                       for lat in accounts[p["tenant_id"]].latencies],
            counters=counters,
        )
        rep.problems = self._check_outputs(service, profiles, report, rep)
        return rep

    @staticmethod
    def _check_outputs(service, profiles, report, rep: Rep) -> List[str]:
        problems = []
        bad = [k for k, ok in report["consistency"].items()
               if k.endswith("_match") and not ok]
        if bad:
            problems.append(f"consistency mismatches: {bad}")
        if not report["audit"]["ok"]:
            problems.append(f"audit: {report['audit']['violations'][:5]}")
        not_done = [p["tenant_id"] for p in profiles
                    if service.ledger.accounts[p["tenant_id"]].status != "done"]
        if not_done:
            problems.append(f"tenants not done: {not_done[:8]}")
        if rep.completed != rep.attempted or rep.failed:
            problems.append(
                f"{rep.attempted - rep.completed} of {rep.attempted} "
                f"requests unanswered or failed")
        if report["recovery"]["crashes"] != 3:
            problems.append(
                f"chaos campaign fired {report['recovery']['crashes']} "
                f"crashes, want 3")
        return problems

    def check_schedulers(self) -> List[str]:
        """The first tenants, chaos included, on ``naive`` and ``active``:
        same per-shard cycles, bank contents and accounting totals."""
        seen = {}
        for scheduler in ("naive", "active"):
            service, specs, _ = self._build(scheduler,
                                            self.size["prefix_tenants"])
            report = service.serve_sync(specs)
            seen[scheduler] = (
                [s["sim_cycles"] for s in report["shards"]],
                [bank_digest(sh.sim) for sh in service.shards],
                report["accounting"]["totals"],
            )
        if seen["naive"] != seen["active"]:
            return [f"naive/active prefix differs: {seen}"]
        return []


def make(name: str, seed: int, size: str = "full"):
    """The workload called *name*."""
    if name == "table1":
        return RandomAccessWorkload(name, list(PAPER_CONFIGS), False, seed, size)
    if name == "fig5_traced":
        return RandomAccessWorkload(name, [FIG5_CONFIG], True, seed, size)
    if name == "serve_chaos":
        return ServeChaosWorkload(seed, size)
    raise KeyError(name)


WORKLOADS = ("table1", "fig5_traced", "serve_chaos")
