"""C1 — §1 claim: one assembler suite runs on all development platforms.

Runs the NVM suite on all six platforms; every platform that can report a
verdict reports PASS, and the relative simulation-speed spread matches the
paper-era ordering (golden >> RTL >> gates).
"""

from repro.core.scheduler import RegressionScheduler
from repro.core.workloads import make_nvm_environment
from repro.platforms import PLATFORM_CLASSES
from repro.platforms.base import RunStatus
from repro.soc.derivatives import SC88A

from conftest import shape


def test_c1_suite_runs_on_all_six_platforms(benchmark):
    env = make_nvm_environment(2)
    report = benchmark.pedantic(
        RegressionScheduler().run_environment,
        args=(env, SC88A),
        rounds=1,
        iterations=1,
    )
    assert report.total_runs == 2 * 6
    statuses = {r.status for r in report.results.values()}
    assert statuses == {RunStatus.PASS}
    assert report.divergences == []
    shape(
        f"C1: {report.total_runs}/{report.total_runs} runs pass across "
        "golden/rtl/gatelevel/accelerator/bondout/silicon; 0 divergences"
    )


def test_c1_platform_speed_ordering(benchmark):
    """The platforms span orders of magnitude in simulated speed — the
    reason one portable suite matters."""
    speeds = benchmark.pedantic(
        lambda: {
            name: cls.relative_speed
            for name, cls in PLATFORM_CLASSES.items()
        },
        rounds=1,
        iterations=1,
    )
    assert speeds["golden"] / speeds["rtl"] >= 100
    assert speeds["rtl"] / speeds["gatelevel"] >= 10
    assert speeds["silicon"] > speeds["golden"]
    ordering = sorted(speeds, key=speeds.get)
    shape(f"C1: simulation speed ordering (slow -> fast): {ordering}")


def test_c1_cycle_counts_differ_but_verdicts_agree(benchmark):
    """Timing differs per platform (wait states on RTL/gates); verdicts
    must not."""
    from repro.core.targets import TARGET_GOLDEN, TARGET_RTL

    env = make_nvm_environment(1)

    def run_both():
        golden = env.run_test("TEST_NVM_PAGE_001", SC88A, "golden")
        rtl = env.run_test("TEST_NVM_PAGE_001", SC88A, "rtl")
        return golden, rtl

    golden, rtl = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert golden.status is rtl.status is RunStatus.PASS
    # Wait states make RTL cycles-per-instruction higher; status-polling
    # loops therefore spin fewer times, so instruction counts legitimately
    # differ while the verdict does not.
    assert rtl.cycles / rtl.instructions > golden.cycles / golden.instructions
    shape(
        "C1: identical verdicts; cycles/instr = "
        f"{golden.cycles / golden.instructions:.1f} (golden) vs "
        f"{rtl.cycles / rtl.instructions:.1f} (rtl) for the same test"
    )
