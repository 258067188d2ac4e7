"""Interrupt controller.

Collects the peripheral interrupt lines, masks them with the enable
register and presents the highest-priority (lowest-numbered) pending line
to the CPU, which vectors through ``IRQ_VECTOR_BASE + line``.  The global
layer's trap-handler library installs the vector table; module test
environments enable only the lines they exercise.
"""

from __future__ import annotations

from repro.soc.layouts import (
    LINE_GPIO,
    LINE_NVM,
    LINE_TIMER,
    LINE_UART,
    LINE_WDT,
    NUM_LINES,
    make_intc_layout,
)
from repro.soc.peripherals.base import Peripheral
from repro.soc.registers import PeripheralLayout


class InterruptController(Peripheral):
    def __init__(self, layout: PeripheralLayout | None = None):
        layout = layout or make_intc_layout()
        regs = layout.register_names()
        self._enable, self._pending, self._vector = regs
        super().__init__(layout, name="INTC")

    def raise_line(self, line: int) -> None:
        if 0 <= line < NUM_LINES:
            self.set_reg(
                self._pending, self.reg_value(self._pending) | (1 << line)
            )

    def pending_line(self) -> int | None:
        """Lowest-numbered line that is both pending and enabled."""
        active = self.reg_value(self._pending) & self.reg_value(self._enable)
        if not active:
            return None
        return (active & -active).bit_length() - 1

    def acknowledge(self, line: int) -> None:
        self.set_reg(
            self._pending, self.reg_value(self._pending) & ~(1 << line)
        )

    def on_read(self, reg, value: int) -> int:
        if reg.name == self._vector:
            line = self.pending_line()
            if line is None:
                return 0
            vector_def = self.layout.register_named(self._vector)
            out = vector_def.field_named("LINE").insert(0, line)
            return vector_def.field_named("VALID").insert(out, 1)
        return value
