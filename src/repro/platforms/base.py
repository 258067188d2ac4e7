"""Execution-platform interface.

The paper lists six development platforms that all run the same compiled
test code: golden reference model, HDL-RTL simulation, gate-level
simulation, hardware accelerator, bondout silicon and product silicon.
Each platform here implements :class:`Platform` and differs along the
axes real platforms differ:

=================  ========  ==========  =========================
platform           timing    visibility  special
=================  ========  ==========  =========================
golden model       instr     full        reference semantics
rtl                cycles    full        wait states, traces
gate level         cycles    full        slow factor, fault inject
accelerator        instr     memory      no register/trace access
bondout            instr     debug port  post-run register reads
product silicon    instr     pins only   pass/fail via GPIO + UART
=================  ========  ==========  =========================

The verdict a run produces is a :class:`~repro.verdict.RunResult`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.assembler.linker import MemoryImage
from repro.platforms.cpu import CpuCore
from repro.soc.bus import BusTrace
from repro.soc.derivatives import Derivative
from repro.soc.device import FAIL_MAGIC, PASS_MAGIC, SystemOnChip
from repro.verdict import DEFAULT_MAX_INSTRUCTIONS, RunResult, RunStatus


class Platform(ABC):
    """One execution platform.

    Each ``run`` call builds a fresh device and runs it on the default
    engine (:class:`~repro.platforms.session.ExecutionSession` selects
    the engine); the previous run's device and core remain inspectable
    via :attr:`last_soc` / :attr:`last_cpu` (the software equivalent of
    walking up to the bench after the test), which the
    functional-coverage collector uses on platforms with visibility.
    """

    name: str = "platform"
    description: str = ""
    #: Visibility axes (drive what RunResult fields get populated).
    sees_registers: bool = True
    sees_memory: bool = True
    sees_uart: bool = True
    sees_trace: bool = False
    #: Timing fidelity: charge bus wait states cycle-accurately.
    cycle_accurate: bool = False
    #: Relative wall-clock cost of simulating one instruction (the paper's
    #: platforms span orders of magnitude; benches report this).
    relative_speed: float = 1.0
    #: When True, ``run`` records every bus access into
    #: :attr:`last_bus_trace` (a flat :class:`~repro.soc.bus.BusTrace`
    #: ring buffer; coverage drains it lazily).
    record_bus_trace: bool = False
    last_soc: SystemOnChip | None = None
    last_cpu: CpuCore | None = None
    #: Bus-access recording of the last run (``BusTrace`` from ``run``;
    #: any iterable of ``BusAccess`` is accepted by consumers).
    last_bus_trace: "BusTrace | list | None" = None

    def build_soc(self, derivative: Derivative) -> SystemOnChip:
        return SystemOnChip(derivative)

    def configure_cpu(self, cpu: CpuCore, soc: SystemOnChip) -> None:
        """Hook for subclasses (fault injection, tracing)."""

    def run(
        self,
        image: MemoryImage,
        derivative: Derivative,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        entry_symbol: str = "_main",
    ) -> RunResult:
        """Load *image* into a fresh device and execute until HALT.

        Implemented as a single-use
        :class:`~repro.platforms.session.ExecutionSession`; callers that
        run many images on one platform should hold a session themselves
        to amortise device construction.
        """
        from repro.platforms.session import ExecutionSession

        return ExecutionSession(self, derivative).run(
            image,
            max_instructions=max_instructions,
            entry_symbol=entry_symbol,
        )

    # -- overridable observation points -----------------------------------
    def judge(self, cpu: CpuCore, soc: SystemOnChip) -> RunStatus:
        """Derive the verdict from what this platform can see."""
        if self.sees_registers:
            signature = cpu.regs.data[0]
        elif self.sees_memory:
            signature = soc.result_word()
        else:
            if soc.done_pin():
                return (
                    RunStatus.PASS if soc.pass_pin() else RunStatus.FAIL
                )
            return RunStatus.NO_DATA
        if signature == PASS_MAGIC:
            return RunStatus.PASS
        if signature == FAIL_MAGIC:
            return RunStatus.FAIL
        return RunStatus.FAIL

    def collect(
        self,
        cpu: CpuCore,
        soc: SystemOnChip,
        derivative: Derivative,
        status: RunStatus,
        fault_reason: str | None,
    ) -> RunResult:
        return RunResult(
            platform=self.name,
            derivative=derivative.name,
            status=status,
            instructions=cpu.instructions_retired,
            cycles=cpu.cycles,
            signature=cpu.regs.data[0] if self.sees_registers else None,
            result_word=soc.result_word() if self.sees_memory else None,
            uart_output=soc.uart_output() if self.sees_uart else None,
            done_pin=soc.done_pin(),
            pass_pin=soc.pass_pin(),
            fault_reason=fault_reason,
            trace=cpu.trace if self.sees_trace else None,
            registers=cpu.regs.snapshot() if self.sees_registers else None,
        )
