"""Fault-tolerant regression execution: supervision, quarantine, chaos.

Drives seeded :class:`~repro.core.faults.FaultPlan`\\ s through serial
and fleet-sharded runs and asserts the contract the supervision layer
promises: the matrix always completes, healthy cells keep
byte-identical verdicts vs a fault-free run, and faulty cells surface
as retried / quarantined bookkeeping instead of raw tracebacks.
"""

import pickle

import pytest

from logtools import VERDICT, rot_record, segments
from repro.core.durable import parse_segment
from repro.core.faults import (
    ACTION_CORRUPT,
    ACTION_HANG,
    ACTION_KILL,
    ACTION_RAISE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    SITE_CACHE_READ,
    SITE_CACHE_WRITE,
    SITE_SESSION_RUN,
    corrupt_bytes,
)
from repro.core.scheduler import RegressionScheduler, ResultCache, result_to_payload
from repro.core.workloads import make_nvm_environment, make_uart_environment
from repro.platforms import RunStatus
from repro.soc.derivatives import SC88A
from repro.store import WorkList


def make_environments():
    return {
        "NVM": make_nvm_environment(2),
        "UART": make_uart_environment(1),
    }


def payload_matrix(report):
    """(env, cell, target) -> full serialized result, for byte-identity
    comparisons across executors and fault plans."""
    return {
        key: result_to_payload(result)
        for key, result in report.results.items()
    }


@pytest.fixture(scope="module")
def baseline_report():
    """One fault-free serial run of the full matrix to compare against."""
    return RegressionScheduler().run_system(make_environments(), SC88A)


def assert_healthy_cells_identical(report, baseline, faulty_targets=()):
    base = payload_matrix(baseline)
    got = payload_matrix(report)
    assert set(got) == set(base)
    for key, payload in got.items():
        if key[2] in faulty_targets:
            continue
        assert payload == base[key], f"healthy cell {key} diverged"


# --------------------------------------------------------------------------
# the injector itself
# --------------------------------------------------------------------------

class TestFaultInjector:
    def test_plan_validates_sites_and_actions(self):
        with pytest.raises(ValueError):
            FaultSpec(site="nonsense", action=ACTION_RAISE)
        with pytest.raises(ValueError):
            FaultSpec(site=SITE_SESSION_RUN, action="explode")

    def test_plan_is_picklable(self):
        plan = FaultPlan(
            seed=7,
            specs=[
                FaultSpec(site=SITE_SESSION_RUN, action=ACTION_KILL,
                          match="rtl#run0"),
            ],
        )
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_injected_fault_survives_pickling(self):
        fault = InjectedFault(SITE_SESSION_RUN, "rtl#run0")
        clone = pickle.loads(pickle.dumps(fault))
        assert clone.site == fault.site
        assert clone.key == fault.key
        assert str(clone) == str(fault)

    def test_after_times_window(self):
        plan = FaultPlan(specs=[
            FaultSpec(site=SITE_SESSION_RUN, action=ACTION_RAISE,
                      after=1, times=2),
        ])
        injector = FaultInjector(plan)
        injector.fire(SITE_SESSION_RUN, "golden#run0")  # hit 1: armed
        with pytest.raises(InjectedFault):
            injector.fire(SITE_SESSION_RUN, "golden#run1")  # hit 2
        with pytest.raises(InjectedFault):
            injector.fire(SITE_SESSION_RUN, "golden#run2")  # hit 3
        injector.fire(SITE_SESSION_RUN, "golden#run3")  # window spent

    def test_match_filters_and_does_not_advance_counter(self):
        plan = FaultPlan(specs=[
            FaultSpec(site=SITE_SESSION_RUN, action=ACTION_RAISE,
                      match="rtl"),
        ])
        injector = FaultInjector(plan)
        for _ in range(5):
            injector.fire(SITE_SESSION_RUN, "golden#run0")
        with pytest.raises(InjectedFault):
            injector.fire(SITE_SESSION_RUN, "rtl#run0")
        injector.fire(SITE_SESSION_RUN, "rtl#run1")

    def test_sites_are_independent(self):
        plan = FaultPlan(specs=[
            FaultSpec(site=SITE_CACHE_WRITE, action=ACTION_RAISE),
        ])
        injector = FaultInjector(plan)
        injector.fire(SITE_SESSION_RUN, "x")
        injector.fire(SITE_CACHE_READ, "x")
        with pytest.raises(InjectedFault):
            injector.fire(SITE_CACHE_WRITE, "x")

    def test_kill_degrades_to_raise_outside_worker(self):
        plan = FaultPlan(specs=[
            FaultSpec(site=SITE_SESSION_RUN, action=ACTION_KILL),
        ])
        injector = FaultInjector(plan)
        # In the main process this must not SIGKILL the test runner.
        with pytest.raises(InjectedFault):
            injector.fire(SITE_SESSION_RUN, "rtl#run0")

    def test_hang_uses_injectable_sleep(self):
        slept = []
        plan = FaultPlan(specs=[
            FaultSpec(site=SITE_SESSION_RUN, action=ACTION_HANG,
                      hang_seconds=12.5),
        ])
        injector = FaultInjector(plan, sleep=slept.append)
        injector.fire(SITE_SESSION_RUN, "golden#run0")
        assert slept == [12.5]
        assert injector.fired == [
            (SITE_SESSION_RUN, "golden#run0", ACTION_HANG)
        ]

    def test_corruption_is_deterministic_per_seed(self):
        data = bytes(range(64))
        a = corrupt_bytes(data, 1, SITE_CACHE_READ, "k", 4)
        b = corrupt_bytes(data, 1, SITE_CACHE_READ, "k", 4)
        c = corrupt_bytes(data, 2, SITE_CACHE_READ, "k", 4)
        assert a == b
        assert a != data
        assert c != a
        assert corrupt_bytes(b"", 1, SITE_CACHE_READ, "k", 4) != b""


# --------------------------------------------------------------------------
# supervised executors
# --------------------------------------------------------------------------

class TestSerialSupervision:
    def test_transient_fault_is_retried(self, baseline_report):
        plan = FaultPlan(specs=[
            FaultSpec(site=SITE_SESSION_RUN, action=ACTION_RAISE,
                      match="rtl", times=1),
        ])
        report = RegressionScheduler(
            fault_plan=plan, sleep=lambda _s: None
        ).run_system(make_environments(), SC88A)
        assert report.retried_runs >= 1
        assert report.quarantined_runs == 0
        assert_healthy_cells_identical(report, baseline_report)

    def test_persistent_fault_quarantines_only_its_cells(
        self, baseline_report
    ):
        plan = FaultPlan(specs=[
            FaultSpec(site=SITE_SESSION_RUN, action=ACTION_RAISE,
                      match="rtl", times=999),
        ])
        report = RegressionScheduler(
            fault_plan=plan, retries=1, sleep=lambda _s: None
        ).run_system(make_environments(), SC88A)
        assert report.total_runs == baseline_report.total_runs
        rtl_cells = [
            result
            for key, result in report.results.items()
            if key[2] == "rtl"
        ]
        assert rtl_cells and all(
            r.status is RunStatus.FAULT
            and r.fault_reason.startswith("quarantined:")
            for r in rtl_cells
        )
        assert report.quarantined_runs == len(rtl_cells)
        assert_healthy_cells_identical(
            report, baseline_report, faulty_targets={"rtl"}
        )
        assert "quarantined" in report.summary()

    def test_quarantined_cells_do_not_pollute_divergences(self):
        plan = FaultPlan(specs=[
            FaultSpec(site=SITE_SESSION_RUN, action=ACTION_RAISE,
                      match="rtl", times=999),
        ])
        report = RegressionScheduler(
            fault_plan=plan, retries=0, sleep=lambda _s: None
        ).run_environment(make_nvm_environment(1), SC88A)
        # The quarantine is an infrastructure fault, not an rtl bug.
        assert report.suspect_platforms() == {}
        assert not report.clean  # but the fault is still surfaced

    def test_zero_overhead_wiring_when_disabled(self):
        scheduler = RegressionScheduler()
        assert scheduler._injector is None
        report = scheduler.run_environment(make_nvm_environment(1), SC88A)
        assert report.retried_runs == 0
        assert report.quarantined_runs == 0


# --------------------------------------------------------------------------
# cache integrity
# --------------------------------------------------------------------------

class TestCacheIntegrity:
    def run_once(self, cache):
        return RegressionScheduler(cache=cache).run_environment(
            make_nvm_environment(1), SC88A
        )

    def test_corrupt_entry_counted_and_quarantined_aside(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.run_once(cache)
        cache.close()
        for nth in range(2):
            rot_record(tmp_path, VERDICT, nth)
        cache = ResultCache(tmp_path)
        report = self.run_once(cache)
        assert cache.corrupt == 2
        assert report.clean
        # The segment holding them was renamed aside, its intact
        # records carried over: nothing is left to re-fail.
        assert cache.quarantined == 1
        assert len(list(tmp_path.glob("*.corrupt"))) == 1
        cache.close()
        cache = ResultCache(tmp_path)
        report = self.run_once(cache)
        assert cache.corrupt == 0
        assert report.executed_runs == 0

    def test_checksum_mismatch_is_not_a_clean_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.run_once(cache)
        cache.close()
        (segment,) = segments(tmp_path)
        key = parse_segment(segment.read_bytes())[0][0][2]
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is not None
        assert fresh.corrupt == 0
        # Flip payload bytes under the checksum.
        segment.write_bytes(
            segment.read_bytes().replace(b'"status"', b'"sTatus"', 1)
        )
        probe = ResultCache(tmp_path)
        assert probe.get(key) is None
        assert probe.corrupt == 1
        assert probe.misses == 0

    def test_injected_read_corruption_reexecutes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = self.run_once(cache)
        plan = FaultPlan(specs=[
            FaultSpec(site=SITE_CACHE_READ, action=ACTION_CORRUPT,
                      times=2),
        ])
        cache = ResultCache(tmp_path)
        warm = RegressionScheduler(
            cache=cache, fault_plan=plan
        ).run_environment(make_nvm_environment(1), SC88A)
        assert cache.corrupt == 2
        assert warm.executed_runs == 2
        assert warm.cached_runs == cold.total_runs - 2
        assert payload_matrix(warm) == payload_matrix(cold)

    def test_write_failure_degrades_to_cold_cache(self, tmp_path):
        plan = FaultPlan(specs=[
            FaultSpec(site=SITE_CACHE_WRITE, action=ACTION_RAISE,
                      times=1),
        ])
        cache = ResultCache(tmp_path)
        scheduler = RegressionScheduler(cache=cache, fault_plan=plan)
        env = make_nvm_environment(1)
        cold = scheduler.run_environment(env, SC88A)
        assert cold.executed_runs == cold.total_runs
        assert cache.write_errors == 1
        warm = scheduler.run_environment(env, SC88A)
        # The one unwritten verdict re-executes; the rest are warm.
        assert warm.executed_runs == 1
        assert warm.cached_runs == warm.total_runs - 1


# --------------------------------------------------------------------------
# the acceptance chaos plan
# --------------------------------------------------------------------------

CHAOS_PLAN = FaultPlan(
    seed=42,
    specs=[
        # Every rtl run fails: its cells must end up quarantined, never
        # aborting the matrix.
        FaultSpec(site=SITE_SESSION_RUN, action=ACTION_RAISE,
                  match="rtl#", times=999),
        # One gatelevel run fails once; its retry succeeds.
        FaultSpec(site=SITE_SESSION_RUN, action=ACTION_RAISE,
                  match="gatelevel#", times=1),
    ],
)


class TestChaosAcceptance:
    @pytest.mark.parametrize("mode,peers", [
        ("serial", 1),
        ("fleet", 2),
    ])
    def test_chaos_matrix_completes_everywhere(
        self, mode, peers, baseline_report, tmp_path
    ):
        def worklist(cache):
            return WorkList(cache) if mode == "fleet" else None

        cache = ResultCache(tmp_path / "cache")
        report = RegressionScheduler(
            cache=cache,
            fault_plan=CHAOS_PLAN,
            retries=1,
            backoff_base=0.001,
            worklist=worklist(cache),
        ).run_system(make_environments(), SC88A)
        assert report.total_runs == baseline_report.total_runs
        for key, result in report.results.items():
            if key[2] == "rtl":
                assert result.status is RunStatus.FAULT
                assert result.fault_reason.startswith("quarantined:")
            else:
                assert result.status is not RunStatus.FAULT
        assert_healthy_cells_identical(
            report, baseline_report, faulty_targets={"rtl"}
        )
        rtl_cells = sum(1 for key in report.results if key[2] == "rtl")
        assert report.quarantined_runs == rtl_cells
        assert report.retried_runs == rtl_cells + 1
        # Quarantined verdicts are never cached, nor published to the
        # fleet: a fault-free re-run — the fleet's second peer too —
        # executes exactly the quarantined cells and reads every other
        # verdict from the shared cache.
        cache = ResultCache(tmp_path / "cache")
        rerun = RegressionScheduler(
            cache=cache, worklist=worklist(cache)
        ).run_system(make_environments(), SC88A)
        assert rerun.executed_runs == rtl_cells
        assert rerun.cached_runs == rerun.total_runs - rtl_cells
        assert_healthy_cells_identical(rerun, baseline_report)
