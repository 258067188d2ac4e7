"""GPIO block.

Besides being a test target itself, GPIO is the **product-silicon
reporting channel**: on platforms with no debug visibility (the paper's
final product silicon) a test can only signal pass/fail by driving pins.
The ADVM base functions drive ``DONE_PIN`` and ``PASS_PIN`` here, and the
:class:`~repro.platforms.silicon.ProductSilicon` platform reads only these
pins to produce its verdict.
"""

from __future__ import annotations

from repro.soc.layouts import DONE_PIN, NUM_PINS, PASS_PIN, make_gpio_layout
from repro.soc.peripherals.base import Peripheral
from repro.soc.registers import PeripheralLayout


class Gpio(Peripheral):
    def __init__(self, layout: PeripheralLayout | None = None):
        layout = layout or make_gpio_layout()
        regs = layout.register_names()
        self._out, self._in, self._dir = regs
        super().__init__(layout, name="GPIO")
        #: History of OUT values, newest last (platform probes sample it).
        self.out_history: list[int] = []

    def reset(self) -> None:
        super().reset()
        self.out_history = []

    def on_write(self, reg, value: int) -> None:
        if reg.name == self._out:
            self.out_history.append(value & 0xFFFF)

    # -- host-side helpers ---------------------------------------------------
    def drive_input(self, pins: int) -> None:
        """Drive the input pins from outside.  It bypasses the register
        port, so it is for standalone use or between runs."""
        self.set_reg(self._in, pins & 0xFFFF)

    def pin(self, index: int) -> int:
        """Sample an output pin as the outside world sees it (respects
        the direction register: inputs read as 0 from outside)."""
        out = self.reg_value(self._out)
        direction = self.reg_value(self._dir)
        return (out & direction) >> index & 1
