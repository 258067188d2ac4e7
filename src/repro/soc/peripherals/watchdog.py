"""Watchdog timer.

Chip-card firmware must service the watchdog periodically; tests that run
long (NVM programming waits) use the base-function wrapper
``Base_WDT_Service`` rather than touching the service register directly —
derivative D changes the service key, and only the abstraction layer
needs to know.
"""

from __future__ import annotations

from repro.soc.layouts import make_wdt_layout
from repro.soc.peripherals.base import Peripheral
from repro.soc.registers import PeripheralLayout

DEFAULT_SERVICE_KEY = 0xA5
DEFAULT_TIMEOUT = 100_000


class Watchdog(Peripheral):
    def __init__(
        self,
        layout: PeripheralLayout | None = None,
        service_key: int = DEFAULT_SERVICE_KEY,
    ):
        layout = layout or make_wdt_layout()
        regs = layout.register_names()
        self._ctrl, self._service, self._count = regs
        self.service_key = service_key
        super().__init__(layout, name="WDT")
        self.expired = False
        self.services = 0

    def reset(self) -> None:
        super().reset()
        self.expired = False
        self.services = 0
        self.set_reg(self._count, DEFAULT_TIMEOUT)

    def _timeout(self) -> int:
        configured = self.field_value(self._ctrl, "TIMEOUT")
        return configured if configured else DEFAULT_TIMEOUT

    def on_write(self, reg, value: int) -> None:
        if reg.name == self._service:
            if (value & 0xFF) == self.service_key:
                self.set_reg(self._count, self._timeout())
                self.services += 1
            # A wrong key is ignored: real watchdogs treat it as a miss.
        elif reg.name == self._ctrl:
            self.set_reg(self._count, self._timeout())

    def event_horizon(self) -> int | None:
        if self.expired or self.field_value(self._ctrl, "EN") != 1:
            return None
        # Expiry latches once cumulative ticking reaches the count.
        return max(self.reg_value(self._count), 1)

    def armed(self) -> bool:
        return not self.expired and self.field_value(self._ctrl, "EN") == 1

    def tick(self, cycles: int = 1) -> None:
        if self.field_value(self._ctrl, "EN") != 1 or self.expired:
            return
        count = self.reg_value(self._count)
        if count > cycles:
            self.set_reg(self._count, count - cycles)
            return
        self.set_reg(self._count, 0)
        self.expired = True
        self.irq = True
