"""Tests for cross-platform regressions and divergence attribution."""

import pytest

from repro.core.reporting import regression_matrix, render_table
from repro.core.scheduler import RegressionScheduler
from repro.core.targets import TARGET_GOLDEN, TARGET_RTL, target
from repro.core.workloads import make_nvm_environment, make_uart_environment
from repro.isa.instructions import Opcode
from repro.platforms import GateLevelSim, NetlistFault
from repro.platforms.base import RunStatus
from repro.soc.derivatives import SC88A, SC88B


def regress(env, derivative, target_names=None):
    """One environment's regression over the named targets (default:
    all six)."""
    targets = [target(name) for name in target_names or ()]
    return RegressionScheduler(targets=targets).run_environment(
        env, derivative
    )


class TestHealthyRegression:
    def test_all_platforms_agree(self):
        env = make_nvm_environment(1)
        report = regress(env, SC88A)
        assert report.divergences == []
        assert report.clean
        assert report.total_runs == 6

    def test_subset_of_targets(self):
        env = make_nvm_environment(1)
        report = regress(env, SC88A, ["golden", "rtl"])
        assert report.total_runs == 2
        assert report.clean

    def test_runs_keyed_by_env_cell_target(self):
        env = make_nvm_environment(1)
        report = regress(env, SC88A, ["golden"])
        assert ("NVM", "TEST_NVM_PAGE_001", "golden") in report.results

    def test_summary_text(self):
        env = make_nvm_environment(1)
        report = regress(env, SC88A, ["golden", "rtl"])
        assert "2/2 runs ok" in report.summary()


class TestDivergenceAttribution:
    def faulty_scheduler(self):
        fault = NetlistFault(
            opcode=int(Opcode.SETB),
            xor_mask=0x1,
            description="stuck bit in bit-set unit",
        )
        return RegressionScheduler(
            platform_overrides={"gatelevel": GateLevelSim(fault=fault)}
        )

    def test_faulty_platform_attributed(self):
        env = make_nvm_environment(2)
        report = self.faulty_scheduler().run_environment(env, SC88A)
        assert report.divergences
        assert set(report.suspect_platforms()) == {"gatelevel"}
        assert report.suspect_platforms()["gatelevel"] == 2

    def test_divergence_description(self):
        env = make_nvm_environment(1)
        report = self.faulty_scheduler().run_environment(env, SC88A)
        text = str(report.divergences[0])
        assert "gatelevel" in text and "golden" in text

    def test_unaffected_tests_stay_clean(self):
        # A UART-only suite never executes SETB via the NVM path, so the
        # injected NVM-ish fault must not show up there.
        env = make_uart_environment(1)
        report = self.faulty_scheduler().run_environment(env, SC88A)
        affected = {d.test_name for d in report.divergences}
        assert "TEST_UART_BANNER" not in affected

    def test_no_data_platform_never_diverges(self):
        # Product silicon reporting NO_DATA must not be flagged.
        env = make_nvm_environment(1)
        scheduler = RegressionScheduler(
            targets=[TARGET_GOLDEN, target("silicon")]
        )
        report = scheduler.run_environment(env, SC88A)
        assert not report.divergences


class TestSystemRegression:
    def test_run_system_combines_reports(self):
        scheduler = RegressionScheduler(targets=[TARGET_GOLDEN])
        environments = {
            "NVM": make_nvm_environment(1),
            "UART": make_uart_environment(1),
        }
        report = scheduler.run_system(environments, SC88B)
        env_names = {key[0] for key in report.results}
        assert env_names == {"NVM", "UART"}


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(
            ["name", "value"], [["alpha", "1"], ["b", "222"]]
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4

    def test_regression_matrix(self):
        env = make_nvm_environment(1)
        report = regress(env, SC88A, ["golden", "rtl"])
        matrix = regression_matrix(report)
        assert "NVM/TEST_NVM_PAGE_001" in matrix
        assert "golden" in matrix and "rtl" in matrix
        assert "pass" in matrix
