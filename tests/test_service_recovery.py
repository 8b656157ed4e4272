"""Self-healing service: chaos campaigns, crash recovery, failover.

The PR-8 resilience contracts, end to end:

* chaos campaigns are bit-identical across repeated runs and across
  both engine schedulers (the tentpole determinism criterion);
* an armed shard survives crashes by epoch restore + journal replay,
  and every recovery is billed (``crash_recoveries`` / ``replayed_requests``)
  without breaking the integer consistency block;
* a terminal shard death displaces its sessions, which fail over to a
  respun shard under bounded retries — conservation
  (``requests_sent == responses + lost_inflight``) holds throughout;
* the end-of-serve auditor proves every admitted tenant terminated
  exactly once, even under a scripted multi-crash campaign;
* arming the machinery without injecting faults does not change the
  simulated outcome (disarmed-parity criterion);
* per-request deadlines, circuit breakers and resilience-knob
  validation behave as documented.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os

import pytest

from repro.analysis.tenants import (
    audit_report,
    check_consistency,
    deterministic_view,
    slo_report,
)
from repro.core.checkpoint import snapshot_bundle
from repro.core.config import DeviceConfig
from repro.core.errors import E_DEADLINE, DeadlineError, InitError
from repro.faults.chaos import ChaosEvent, ChaosSchedule
from repro.packets.commands import CMD
from repro.service import (
    BreakerState,
    CircuitBreaker,
    MemoryService,
    PriorityClass,
    ServiceConfig,
    SessionPool,
    Shard,
    TenantAccount,
    TenantSpec,
    specs_from_profiles,
)
from repro.workloads.mixes import tenant_mix_profiles

_DEVICE = DeviceConfig(num_links=4, num_banks=8, capacity=2)


def _config(**overrides) -> ServiceConfig:
    base = dict(
        device=_DEVICE,
        devs_per_shard=2,
        slots_per_shard=2,
        max_shards=2,
        provision_requests=32,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def _serve(num_tenants=8, seed=5, base_requests=16, **overrides) -> dict:
    config = _config(**overrides)
    profiles = tenant_mix_profiles(
        num_tenants, seed=seed, base_requests=base_requests
    )
    return MemoryService(config).serve_sync(
        specs_from_profiles(profiles, config)
    )


def _crash_campaign():
    """Scripted three-crash campaign against shard 0."""
    return ChaosSchedule([
        ChaosEvent(at=60, kind="shard_crash", shard=0),
        ChaosEvent(at=140, kind="watchdog_trip", shard=0),
        ChaosEvent(at=220, kind="shard_crash", shard=0),
    ])


def _edge_campaign():
    """Crash on the first pump after the first lease, then a watchdog
    trip on the next pumped cycle: both restore the lease epoch."""
    return ChaosSchedule([
        ChaosEvent(at=0, kind="shard_crash", shard=0),
        ChaosEvent(at=1, kind="watchdog_trip", shard=0),
    ])


#: Campaigns pinned in tests/fixtures/recovery_oracle.json.
ORACLE_CAMPAIGNS = {
    "crash_campaign": _crash_campaign,
    "edge_campaign": _edge_campaign,
}

_ARMED = dict(checkpoint_interval=64, failover_retries=2,
              breaker_threshold=3)

_ORACLE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "fixtures", "recovery_oracle.json",
)


def _canonical_lines(view: dict) -> list:
    """*view* as sorted, indented JSON lines.

    Comparing the JSON text (rather than the parsed objects) keeps
    tuples vs lists, int vs str dict keys and NaN percentiles from
    making equal reports compare unequal; per-shard ``epochs`` is
    dropped because it counts checkpoint work, not simulated results.
    """
    view = copy.deepcopy(view)
    for shard in view.get("shards", []):
        shard.pop("epochs", None)
    return json.dumps(view, indent=1, sort_keys=True).splitlines()


class TestChaosDeterminism:
    def test_campaign_bit_identical_across_runs(self):
        a = _serve(chaos=_crash_campaign(), **_ARMED)
        b = _serve(chaos=_crash_campaign(), **_ARMED)
        assert a["recovery"]["crashes"] > 0
        assert deterministic_view(a) == deterministic_view(b)

    def test_campaign_invariant_across_schedulers(self):
        a = _serve(chaos=_crash_campaign(), scheduler="active", **_ARMED)
        b = _serve(chaos=_crash_campaign(), scheduler="naive", **_ARMED)
        assert deterministic_view(a, ignore_config=True) == \
            deterministic_view(b, ignore_config=True)

    def test_campaign_stamps_invariant_across_cycles_per_yield(self):
        # Events are stamped in per-shard pumped cycles, so the front
        # end's yield granularity cannot move them.  (Lease-grant
        # timing — and hence accounting — legitimately varies with the
        # tick size, exactly as it did before chaos existed.)
        a = _serve(chaos=_crash_campaign(), cycles_per_yield=16, **_ARMED)
        b = _serve(chaos=_crash_campaign(), cycles_per_yield=128, **_ARMED)
        assert a["chaos"] == b["chaos"]
        assert a["chaos"]["fired"]
        for ev in a["chaos"]["fired"]:
            assert ev["fired_at"] == ev["at"]

    def test_armed_fault_free_matches_disarmed(self):
        # Journaling + checkpointing + breakers armed but no chaos:
        # the simulated outcome must be exactly the disarmed one.
        armed = _serve(**_ARMED)
        disarmed = _serve()
        va = deterministic_view(armed, ignore_config=True)
        vd = deterministic_view(disarmed, ignore_config=True)
        assert va["accounting"] == vd["accounting"]
        assert va["consistency"] == vd["consistency"]


class TestPinnedRecoveryOracle:
    """Armed chaos serves against reports pinned in a committed fixture.

    The determinism tests above compare a run with another run, so a
    change that shifts every run the same way passes them; this oracle
    does not.  Regenerate only with tests/fixtures/gen_recovery_oracle.py
    on a tree known to be right.
    """

    @pytest.fixture(scope="class")
    def oracle(self):
        with open(_ORACLE_PATH) as fh:
            return json.load(fh)

    @pytest.mark.parametrize("scheduler", ["active", "naive"])
    @pytest.mark.parametrize("campaign", sorted(ORACLE_CAMPAIGNS))
    def test_matches_pinned_report(self, oracle, campaign, scheduler):
        report = _serve(chaos=ORACLE_CAMPAIGNS[campaign](),
                        scheduler=scheduler, **_ARMED)
        assert report["recovery"]["recoveries"] > 0
        assert _canonical_lines(
            deterministic_view(report, ignore_config=True)
        ) == _canonical_lines(oracle[campaign])

    @pytest.mark.parametrize("campaign", sorted(ORACLE_CAMPAIGNS))
    def test_epoch_count_bounded_and_scheduler_free(self, campaign):
        epochs = {}
        for scheduler in ("active", "naive"):
            report = _serve(chaos=ORACLE_CAMPAIGNS[campaign](),
                            scheduler=scheduler, **_ARMED)
            shards = report["shards"]
            for sh in shards:
                assert isinstance(sh["epochs"], int)
                # At most one epoch per pumped cycle, plus the lease
                # epoch taken on the first pump.
                assert sh["epochs"] <= sh["cycles_pumped"] + 1
            epochs[scheduler] = [sh["epochs"] for sh in shards]
        assert epochs["active"] == epochs["naive"]
        assert sum(epochs["active"]) > 0
        disarmed = _serve(chaos=ORACLE_CAMPAIGNS[campaign]())
        assert all(sh["epochs"] == 0 for sh in disarmed["shards"])

    def test_edge_campaign_crashes_on_first_pump(self, oracle):
        fired = oracle["edge_campaign"]["chaos"]["fired"]
        assert [(ev["kind"], ev["fired_at"]) for ev in fired] == [
            ("shard_crash", 0), ("watchdog_trip", 1)]


class TestCrashRecovery:
    def test_crashes_recover_and_complete(self):
        rep = _serve(chaos=_crash_campaign(), **_ARMED)
        rec = rep["recovery"]
        assert rec["crashes"] >= 1
        assert rec["recoveries"] >= 1
        statuses = {a["status"]
                    for a in rep["accounting"]["tenants"].values()}
        assert statuses <= {"done"}
        assert not check_consistency(rep)

    def test_retirement_epoch_survives_crash_without_lease(self):
        # A short and a long tenant share shard 0 and nothing is
        # waiting, so no lease follows the short one's retirement.  A
        # crash before the next interval boundary must restore the
        # retirement epoch, not the lease epoch from cycle 0.
        def specs():
            out = []
            for i, n in enumerate((4, 40)):
                reqs = [(CMD.WR64, k * 64 + i * 4096, [k] * 8) if k % 2
                        else (CMD.RD64, k * 64 + i * 4096, None)
                        for k in range(n)]
                out.append(TenantSpec(tenant_id=f"t{i}",
                                      requests=iter(reqs), rate=0.5))
            return out

        chaos = ChaosSchedule([ChaosEvent(at=40, kind="shard_crash",
                                          shard=0)])
        rep = MemoryService(_config(chaos=chaos, **_ARMED)).serve_sync(
            specs())
        short = rep["accounting"]["tenants"]["t0"]
        assert short["status"] == "done"
        (event,) = rep["recovery"]["events"]
        assert event["restored_to"] == short["slot_cycles"] > 0
        assert event["replayed_requests"] == 0
        assert not check_consistency(rep)
        assert rep["audit"]["ok"]

    def test_recovery_is_billed(self):
        rep = _serve(chaos=_crash_campaign(), **_ARMED)
        totals = rep["accounting"]["totals"]
        assert totals["crash_recoveries"] >= 1
        assert totals["replay_cycles"] >= 0
        events = rep["recovery"]["events"]
        assert any(ev["kind"] == "crash_recovered" for ev in events)

    def test_auditor_passes_multi_crash_campaign(self):
        rep = _serve(chaos=_crash_campaign(), **_ARMED)
        assert rep["audit"]["ok"], rep["audit"]["violations"]
        for acct in rep["accounting"]["tenants"].values():
            assert acct["terminations"] == 1

    def test_recovery_budget_exhaustion_turns_terminal(self):
        # One allowed restore, three crashes: the shard eventually
        # retires; failover still lands everyone.
        rep = _serve(chaos=_crash_campaign(), checkpoint_interval=64,
                     max_shard_recoveries=1, failover_retries=2)
        assert any(s["dead"] for s in rep["shards"])
        assert rep["audit"]["ok"], rep["audit"]["violations"]

    def test_chaos_events_fire_exactly_once(self):
        rep = _serve(chaos=_crash_campaign(), **_ARMED)
        fired = rep["chaos"]["fired"]
        assert len(fired) == 3
        # A restore rewinds pumped cycles past an already-fired stamp;
        # one-shot semantics mean no stamp appears twice.
        stamps = [(ev["shard"], ev["at"], ev["kind"]) for ev in fired]
        assert len(stamps) == len(set(stamps))


class TestFailover:
    def test_displaced_sessions_fail_over_and_finish(self):
        chaos = ChaosSchedule([ChaosEvent(at=120, kind="shard_crash")])
        rep = _serve(chaos=chaos, failover_retries=2)
        totals = rep["accounting"]["totals"]
        assert totals["failovers"] >= 1
        statuses = {a["status"]
                    for a in rep["accounting"]["tenants"].values()}
        assert statuses <= {"done"}
        assert rep["audit"]["ok"], rep["audit"]["violations"]

    def test_pool_respins_replacement_shard(self):
        chaos = ChaosSchedule([ChaosEvent(at=120, kind="shard_crash")])
        rep = _serve(chaos=chaos, failover_retries=2)
        assert any(s["dead"] for s in rep["shards"])
        assert any(not s["dead"] for s in rep["shards"])
        assert any(ev["kind"] == "shard_retired"
                   for ev in rep["recovery"]["events"])

    def test_conservation_holds_with_lost_inflight(self):
        chaos = ChaosSchedule([ChaosEvent(at=120, kind="shard_crash")])
        rep = _serve(chaos=chaos, failover_retries=2)
        for acct in rep["accounting"]["tenants"].values():
            assert acct["requests_sent"] == \
                acct["responses"] + acct["lost_inflight"]

    def test_failover_disarmed_is_terminal(self):
        chaos = ChaosSchedule([ChaosEvent(at=120, kind="shard_crash")])
        rep = _serve(chaos=chaos)
        statuses = [a["status"]
                    for a in rep["accounting"]["tenants"].values()]
        assert "crashed" in statuses
        assert rep["audit"]["ok"], rep["audit"]["violations"]

    def test_failover_determinism(self):
        chaos = ChaosSchedule([ChaosEvent(at=120, kind="shard_crash")])
        a = _serve(chaos=chaos, failover_retries=2)
        b = _serve(chaos=chaos, failover_retries=2)
        assert deterministic_view(a) == deterministic_view(b)


class TestLinkAndLatencyChaos:
    def test_link_kill_strands_slot_session(self):
        chaos = ChaosSchedule([
            ChaosEvent(at=60, kind="link_kill", dev=0, link=0),
        ])
        rep = _serve(chaos=chaos)
        statuses = [a["status"]
                    for a in rep["accounting"]["tenants"].values()]
        assert "link_failed" in statuses
        assert rep["audit"]["ok"], rep["audit"]["violations"]

    def test_link_kill_with_failover_completes(self):
        chaos = ChaosSchedule([
            ChaosEvent(at=60, kind="link_kill", dev=0, link=0),
        ])
        rep = _serve(chaos=chaos, failover_retries=2)
        statuses = {a["status"]
                    for a in rep["accounting"]["tenants"].values()}
        assert statuses <= {"done"}
        assert rep["accounting"]["totals"]["failovers"] >= 1

    def test_latency_spike_adds_network_delay(self):
        chaos = ChaosSchedule([
            ChaosEvent(at=16, kind="latency_spike",
                       extra_delay=32, duration=512),
        ])
        base = _serve()
        spiked = _serve(chaos=chaos)
        assert (spiked["accounting"]["totals"]["network_delay_cycles"]
                > base["accounting"]["totals"]["network_delay_cycles"])
        assert spiked["audit"]["ok"]

    def test_link_degrade_is_billed(self):
        chaos = ChaosSchedule([
            ChaosEvent(at=60, kind="link_degrade", dev=0, link=0),
        ])
        rep = _serve(chaos=chaos)
        totals = rep["accounting"]["totals"]
        assert totals["degradations_seen"] + sum(
            s["unattributed_degradations"] for s in rep["shards"]
        ) >= 1
        assert not check_consistency(rep)


class TestDeadlines:
    def test_e_deadline_constant(self):
        assert E_DEADLINE == -7
        assert DeadlineError("late").errno == E_DEADLINE

    def test_deadline_misses_counted(self):
        profiles = tenant_mix_profiles(4, seed=5, base_requests=16)
        for p in profiles:
            p["deadline_cycles"] = 1  # brutally tight: everything misses
        config = _config()
        rep = MemoryService(config).serve_sync(
            specs_from_profiles(profiles, config)
        )
        assert rep["accounting"]["totals"]["deadline_misses"] > 0
        assert rep["audit"]["ok"], rep["audit"]["violations"]

    def test_no_deadline_no_misses(self):
        rep = _serve()
        assert rep["accounting"]["totals"]["deadline_misses"] == 0

    def test_negative_deadline_rejected(self):
        with pytest.raises(InitError, match="deadline_cycles"):
            TenantSpec(tenant_id="t", requests=iter(()),
                       deadline_cycles=-1)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        brk = CircuitBreaker(threshold=3, cooldown=100)
        for _ in range(2):
            brk.record_failure(now=10)
        assert brk.state is BreakerState.CLOSED
        brk.record_failure(now=10)
        assert brk.state is BreakerState.OPEN
        assert not brk.try_acquire(now=50)

    def test_half_open_probe_then_close(self):
        brk = CircuitBreaker(threshold=1, cooldown=100)
        brk.record_failure(now=0)
        assert brk.try_acquire(now=100)  # cooldown over: the probe
        assert brk.state is BreakerState.HALF_OPEN
        assert not brk.try_acquire(now=100)  # only one probe
        brk.record_success(now=150)
        assert brk.state is BreakerState.CLOSED
        assert brk.try_acquire(now=150)

    def test_half_open_failure_reopens(self):
        brk = CircuitBreaker(threshold=1, cooldown=100)
        brk.record_failure(now=0)
        assert brk.try_acquire(now=100)
        brk.record_failure(now=120)
        assert brk.state is BreakerState.OPEN
        assert brk.opened_at == 120
        assert not brk.try_acquire(now=219)
        assert brk.try_acquire(now=220)

    def test_success_resets_failure_streak(self):
        brk = CircuitBreaker(threshold=2, cooldown=10)
        brk.record_failure(now=0)
        brk.record_success(now=1)
        brk.record_failure(now=2)
        assert brk.state is BreakerState.CLOSED

    def test_breaker_in_service_run(self):
        chaos = ChaosSchedule([ChaosEvent(at=120, kind="shard_crash")])
        rep = _serve(chaos=chaos, failover_retries=2, breaker_threshold=2,
                     breaker_cooldown=256)
        breakers = rep["recovery"]["breakers"]
        assert "0" in breakers
        assert rep["audit"]["ok"], rep["audit"]["violations"]


class TestKnobValidation:
    @pytest.mark.parametrize("field,value", [
        ("checkpoint_interval", -1),
        ("max_shard_recoveries", -1),
        ("failover_retries", -1),
        ("failover_backoff", 0),
        ("breaker_threshold", -1),
        ("breaker_cooldown", 0),
    ])
    def test_bad_knob_names_field(self, field, value):
        with pytest.raises(InitError, match=field):
            _config(**{field: value})

    def test_chaos_type_checked(self):
        with pytest.raises(InitError, match="ChaosSchedule"):
            _config(chaos=[ChaosEvent(at=1, kind="shard_crash")])


class TestSloAndAudit:
    def test_slo_report_fault_free(self):
        rep = _serve()
        for row in rep["slo"].values():
            assert row["met"]
            assert row["success_rate"] == 1.0
            assert row["error_budget_burn"] == 0.0

    def test_slo_report_counts_failures(self):
        chaos = ChaosSchedule([ChaosEvent(at=120, kind="shard_crash")])
        rep = _serve(chaos=chaos)  # disarmed: crash is terminal
        slo = slo_report(rep)
        assert sum(row["failed"] for row in slo.values()) >= 1
        assert any(not row["met"] for row in slo.values())

    def test_audit_flags_fabricated_violation(self):
        rep = _serve(num_tenants=2)
        tid, acct = next(iter(rep["accounting"]["tenants"].items()))
        acct["terminations"] = 2
        acct["requests_sent"] += 5
        audit = audit_report(rep)
        assert not audit["ok"]
        joined = " ".join(audit["violations"])
        assert "terminated 2 times" in joined
        assert "conservation" in joined

    def test_rejected_tenants_terminate_once(self):
        rep = _serve(num_tenants=12, max_waiting=2, max_shards=1,
                     slots_per_shard=2)
        statuses = [a["status"]
                    for a in rep["accounting"]["tenants"].values()]
        assert "rejected" in statuses
        assert rep["audit"]["ok"], rep["audit"]["violations"]


def _bank_digest(sim) -> str:
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


_EPOCH_TENANT_FIELDS = ("requests_sent", "responses", "errors", "bytes_read",
                        "bytes_written", "slot_cycles", "throttle_cycles")


class TestEpochIsolation:
    """Epochs share bank images with the live sim instead of copying
    them; a write after the epoch must never leak into a restore."""

    @staticmethod
    def _leased_shard():
        config = _config(checkpoint_interval=64)
        sim, _ = SessionPool(config).spin_up()
        shard = Shard(0, sim, config)
        reqs = [(CMD.WR64, k * 64, [k] * 8) if k % 2
                else (CMD.RD64, k * 64, None) for k in range(48)]
        shard.lease(TenantSpec(tenant_id="t0", requests=iter(reqs)),
                    TenantAccount("t0"))
        return shard

    @staticmethod
    def _finish(shard):
        acct = shard.sessions[0].account
        for _ in range(100_000):
            if not shard.busy:
                break
            shard.pump()
        assert not shard.busy
        return (shard.sim.clock_value, _bank_digest(shard.sim),
                {f: getattr(acct, f) for f in _EPOCH_TENANT_FIELDS})

    @pytest.mark.parametrize("in_band", [False, True],
                             ids=["out_of_band", "in_band"])
    def test_write_after_epoch_does_not_leak_into_restore(self, in_band):
        reference = self._finish(self._leased_shard())

        shard = self._leased_shard()
        at_epoch = (shard.sim.clock_value, _bank_digest(shard.sim))
        shard._take_epoch()  # the lease epoch the first pump would take
        ep = shard._epoch
        hosts = {slot: s.host for slot, s in shard.sessions.items()}
        in_band_blob = snapshot_bundle(shard.sim, hosts)
        assert ep["buffers"] and len(ep["blob"]) < len(in_band_blob)
        if in_band:
            ep["blob"], ep["buffers"] = in_band_blob, None
        for _ in range(30):
            shard.pump()
        # A provisioned bank untouched since the epoch still holds the
        # very image the epoch shares; write into one of its pages.
        bank = next(b for dev in shard.sim.devices for v in dev.vaults
                    for b in v.banks if b._image is not None and b._pages)
        if not in_band:
            words = bank._image[1].raw().obj
            assert any(buf is words for buf in ep["buffers"])
        atom = bank.touched_atoms()[0]
        bank.write(atom * 16, [0xDEAD, 0xBEEF])
        assert _bank_digest(shard.sim) != at_epoch[1]

        assert shard._crash("test crash") == []
        assert (shard.sim.clock_value, _bank_digest(shard.sim)) == at_epoch
        assert self._finish(shard) == reference

    def test_epoch_after_write_carries_the_write(self):
        # The write drops the bank's cached image, so the next epoch
        # re-encodes it rather than sharing the stale one.
        shard = self._leased_shard()
        for _ in range(30):
            shard.pump()
        bank = next(b for dev in shard.sim.devices for v in dev.vaults
                    for b in v.banks if b._image is not None and b._pages)
        bank.write(bank.touched_atoms()[0] * 16, [0xDEAD, 0xBEEF])
        shard._take_epoch()
        at_epoch = (shard.sim.clock_value, _bank_digest(shard.sim))
        for _ in range(10):
            shard.pump()
        assert shard._crash("test crash") == []
        assert (shard.sim.clock_value, _bank_digest(shard.sim)) == at_epoch


class TestServeDriverErrors:
    @pytest.mark.timeout(60)
    def test_pump_exception_propagates_from_serve(self, monkeypatch):
        # An exception in the driver used to strand every tenant future:
        # serve_sync then blocked forever instead of raising.
        calls = [0]
        real_pump = Shard.pump

        def failing_pump(self):
            calls[0] += 1
            if calls[0] == 5:
                raise RuntimeError("injected pump fault")
            return real_pump(self)

        monkeypatch.setattr(Shard, "pump", failing_pump)
        with pytest.raises(RuntimeError, match="injected pump fault"):
            _serve(num_tenants=4)
