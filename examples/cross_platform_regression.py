#!/usr/bin/env python3
"""One test suite, six platforms — and divergence means a platform bug.

Reproduces the paper's Section 1 story:

1. run a module regression across all six development platforms
   (golden model, RTL, gate level, accelerator, bondout, product
   silicon) — one binary image per test, loaded verbatim everywhere;
2. inject a netlist fault into the gate-level simulator and re-run: the
   regression attributes the divergence to that platform alone.

Run:  python examples/cross_platform_regression.py
"""

from repro.core import make_nvm_environment, regression_matrix
from repro.core.scheduler import RegressionScheduler
from repro.isa.instructions import Opcode
from repro.platforms import GateLevelSim, NetlistFault
from repro.soc import SC88A


def main() -> None:
    env = make_nvm_environment(num_tests=3)

    print("=== healthy fleet ===")
    report = RegressionScheduler().run_environment(env, SC88A)
    print(regression_matrix(report))
    print(report.summary())

    print("\n=== gate-level netlist fault injected ===")
    fault = NetlistFault(
        opcode=int(Opcode.SETB),
        xor_mask=0x1,
        description="mis-synthesized bit-set unit (output bit 0 crossed)",
    )
    scheduler = RegressionScheduler(
        platform_overrides={"gatelevel": GateLevelSim(fault=fault)}
    )
    faulty_report = scheduler.run_environment(env, SC88A)
    print(regression_matrix(faulty_report))
    print(faulty_report.summary())

    print("\ndivergences:")
    for divergence in faulty_report.divergences:
        print("  -", divergence)

    suspects = faulty_report.suspect_platforms()
    assert set(suspects) == {"gatelevel"}
    print(
        "\nconclusion: the suite localised the bug to the gate-level "
        "netlist — 'a bug or issue has been found in that particular "
        "simulation domain'."
    )


if __name__ == "__main__":
    main()
