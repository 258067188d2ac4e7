"""Gate-level (post-synthesis) simulation platform.

Same cycle-accurate behaviour as RTL, another order of magnitude slower,
and — uniquely — it can carry **injected netlist faults**.  A fault is a
synthesis/netlist bug that makes this platform's behaviour diverge from
every other platform running the same test image; the ADVM regression
layer must attribute the divergence to this platform (the paper: "if they
don't [execute the code in the same way] then a bug or issue has been
found in that particular simulation domain").
"""

from __future__ import annotations

from typing import NamedTuple

from repro.platforms.base import Platform
from repro.platforms.cpu import CpuCore
from repro.soc.device import SystemOnChip


class NetlistFault(NamedTuple):
    """A stuck-at / wrong-wiring style fault in the synthesized ALU.

    ``opcode`` limits the fault to one operation (e.g. only INSERT results
    are corrupted — a classic mis-synthesized bit-field unit); ``xor_mask``
    flips result bits, modelling crossed wires.
    """

    opcode: int
    xor_mask: int
    description: str = ""

    def apply(self, executed_opcode: int, result: int) -> int:
        if executed_opcode == self.opcode:
            return result ^ self.xor_mask
        return result


class GateLevelSim(Platform):
    name = "gatelevel"
    description = "post-synthesis gate-level simulation"
    sees_registers = True
    sees_memory = True
    sees_uart = True
    sees_trace = True
    cycle_accurate = True
    relative_speed = 1e-4  # ~10x slower again than RTL

    def __init__(self, fault: NetlistFault | None = None):
        self.fault = fault

    def configure_cpu(self, cpu: CpuCore, soc: SystemOnChip) -> None:
        if self.fault is not None:
            cpu.alu_fault_hook = self.fault.apply
