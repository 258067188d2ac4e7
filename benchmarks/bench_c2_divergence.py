"""C2 — §1/§2 claim: cross-platform divergence means a platform bug.

Injects a netlist fault into the gate-level simulator only; the
regression must flag exactly that platform, on exactly the tests whose
stimulus reaches the faulty logic.
"""

from repro.core.scheduler import RegressionScheduler
from repro.core.workloads import make_nvm_environment, make_uart_environment
from repro.isa.instructions import Opcode
from repro.platforms import GateLevelSim, NetlistFault

from conftest import shape

FAULT = NetlistFault(
    opcode=int(Opcode.SETB),
    xor_mask=0x1,
    description="mis-synthesized bit-set unit: output bit 0 crossed",
)


def faulty_runner():
    return RegressionScheduler(
        platform_overrides={"gatelevel": GateLevelSim(fault=FAULT)},
    )


def test_c2_fault_attributed_to_gatelevel(benchmark):
    env = make_nvm_environment(3)
    report = benchmark.pedantic(
        faulty_runner().run_environment, args=(env, __import__(
            "repro.soc.derivatives", fromlist=["SC88A"]).SC88A),
        rounds=1,
        iterations=1,
    )
    suspects = report.suspect_platforms()
    assert set(suspects) == {"gatelevel"}
    assert suspects["gatelevel"] == 3
    shape(
        "C2: injected netlist fault -> regression attributes "
        f"{suspects['gatelevel']} divergent tests to 'gatelevel' only"
    )


def test_c2_unrelated_suite_unaffected(benchmark):
    """Tests that never exercise the faulty unit stay green everywhere —
    divergence localises both the platform AND the functional area."""
    from repro.soc.derivatives import SC88A

    env = make_uart_environment(2)
    report = benchmark.pedantic(
        faulty_runner().run_environment,
        args=(env, SC88A),
        rounds=1,
        iterations=1,
    )
    assert report.divergences == []
    shape(
        "C2: UART suite (no SETB in its stimulus) shows 0 divergences "
        "on the same faulty netlist"
    )


def test_c2_healthy_fleet_is_silent(benchmark):
    from repro.soc.derivatives import SC88A

    env = make_nvm_environment(2)
    report = benchmark.pedantic(
        RegressionScheduler().run_environment,
        args=(env, SC88A),
        rounds=1,
        iterations=1,
    )
    assert report.clean
    shape("C2 control: healthy fleet -> 0 divergences")
