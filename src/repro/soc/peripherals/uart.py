"""UART peripheral.

The paper's system environment includes a "UART Test Environment" as one
of its module environments (Figure 5); this model gives those tests real
behaviour to check: a transmit path captured by the host platform, a
loopback mode that reflects transmitted bytes into the receive FIFO, a
baud-rate divisor, receive-interrupt generation and an overrun flag.
"""

from __future__ import annotations

from collections import deque

from repro.soc.layouts import make_uart_layout
from repro.soc.peripherals.base import Peripheral
from repro.soc.registers import PeripheralLayout

RX_FIFO_DEPTH = 8


class Uart(Peripheral):
    """Behavioural UART with host-visible transmit log."""

    def __init__(self, layout: PeripheralLayout | None = None):
        layout = layout or make_uart_layout()
        regs = layout.register_names()
        self._ctrl, self._stat, self._data, self._baud = regs
        super().__init__(layout, name="UART")
        self.tx_log: list[int] = []
        self.rx_fifo: deque[int] = deque()
        self.overrun = False

    def reset(self) -> None:
        super().reset()
        self.tx_log = []
        self.rx_fifo = deque()
        self.overrun = False

    # -- host-side API (platforms inject received bytes here) -------------
    def host_receive(self, byte: int) -> None:
        """A byte arrives on the wire from the outside world.

        This bypasses the register port, so on a SoC with a bound core
        it cannot arm the receive interrupt: call it on a standalone
        UART or between runs (before ``attach_cpu``)."""
        if self.field_value(self._ctrl, "RXEN") != 1:
            return
        if len(self.rx_fifo) >= RX_FIFO_DEPTH:
            self.overrun = True
            return
        self.rx_fifo.append(byte & 0xFF)

    def transmitted_text(self) -> str:
        return bytes(self.tx_log).decode("latin-1")

    # -- register behaviour ----------------------------------------------------
    def on_write(self, reg, value: int) -> None:
        if reg.name != self._data:
            return
        ctrl = self.reg_value(self._ctrl)
        layout_ctrl = self.layout.register_named(self._ctrl)
        enabled = layout_ctrl.field_named("EN").extract(ctrl)
        txen = layout_ctrl.field_named("TXEN").extract(ctrl)
        if not (enabled and txen):
            return
        byte = value & 0xFF
        self.tx_log.append(byte)
        if layout_ctrl.field_named("LOOP").extract(ctrl):
            if len(self.rx_fifo) >= RX_FIFO_DEPTH:
                self.overrun = True
            else:
                self.rx_fifo.append(byte)

    def on_read(self, reg, value: int) -> int:
        if reg.name == self._stat:
            status = 0
            layout_stat = self.layout.register_named(self._stat)
            status = layout_stat.field_named("TXRDY").insert(status, 1)
            status = layout_stat.field_named("RXAVL").insert(
                status, int(bool(self.rx_fifo))
            )
            status = layout_stat.field_named("OVR").insert(
                status, int(self.overrun)
            )
            return status
        if reg.name == self._data:
            if self.rx_fifo:
                return self.rx_fifo.popleft()
            return 0
        return value

    def event_horizon(self, line_pending: bool = False) -> int | None:
        # The receive interrupt is level-sensitive on FIFO occupancy:
        # while data is pending with RXIE set, every tick re-raises the
        # line (a no-op while the line is pending already); otherwise
        # ticking changes nothing (the FIFO only moves on register
        # accesses, which settle deferred time themselves).
        if (
            not line_pending
            and self.rx_fifo
            and self.field_value(self._ctrl, "RXIE") == 1
        ):
            return 1
        return None

    def armed(self) -> bool:
        # Ticking recomputes the level-sensitive receive interrupt.
        return self.irq or (
            bool(self.rx_fifo) and self.field_value(self._ctrl, "RXIE") == 1
        )

    def tick(self, cycles: int = 1) -> None:
        rxie = self.field_value(self._ctrl, "RXIE")
        self.irq = bool(rxie and self.rx_fifo)
