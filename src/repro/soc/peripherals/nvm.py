"""NVM (non-volatile memory) page-program controller.

This is the peripheral behind the paper's Figure 6 example: a control
register carries a ``PAGE`` field whose **position and width differ
between derivatives** (the paper's example widens it from 5 to 6 bits for
a derivative with more pages and discusses a specification change shifting
its position).  The layout factory takes both as parameters, and the
register's *name* is also parameterised because a later derivative renames
it — all three are change classes the ADVM abstraction layer absorbs.

Programming model (chip-card style page flash):

1. write the target page number into the ``PAGE`` field of the control
   register,
2. fill the 128-byte page buffer via ``NVM_ADDR``/``NVM_DATA``,
3. set ``CMD`` to PROG (or ERASE) and pulse ``START``,
4. poll ``BUSY`` / wait for ``DONE`` in the status register.

The NVM array itself is memory-mapped read-only; only the controller can
alter it, after a programming delay in core cycles (so cycle-accurate
platforms observe a realistic busy window).
"""

from __future__ import annotations

from repro.soc.bus import Memory
from repro.soc.layouts import CMD_ERASE, CMD_IDLE, CMD_PROG, make_nvm_layout
from repro.soc.memorymap import NVM_PAGE_BYTES
from repro.soc.peripherals.base import Peripheral
from repro.soc.registers import PeripheralLayout

PROGRAM_CYCLES = 64
ERASE_CYCLES = 96


class NvmController(Peripheral):
    """Behavioural page-flash controller bound to its array."""

    def __init__(
        self,
        layout: PeripheralLayout | None = None,
        pages: int = 32,
        array: Memory | None = None,
    ):
        layout = layout or make_nvm_layout()
        regs = layout.register_names()
        self._ctrl, self._stat, self._addr, self._data = regs
        self.pages = pages
        self.array = array or Memory(pages * NVM_PAGE_BYTES, read_only=True)
        super().__init__(layout, name="NVM")
        self.page_buffer = bytearray(NVM_PAGE_BYTES)
        self.busy_cycles = 0
        self.pending_cmd = CMD_IDLE
        self.pending_page = 0
        self.done = False
        self.error = False
        #: Pages programmed/erased since reset — functional coverage reads it.
        self.operation_log: list[tuple[str, int]] = []

    def reset(self) -> None:
        super().reset()
        self.page_buffer = bytearray(NVM_PAGE_BYTES)
        self.busy_cycles = 0
        self.pending_cmd = CMD_IDLE
        self.pending_page = 0
        self.done = False
        self.error = False
        self.operation_log = []

    # -- register behaviour ---------------------------------------------------
    def on_write(self, reg, value: int) -> None:
        if reg.name == self._data:
            offset = self.reg_value(self._addr) % NVM_PAGE_BYTES
            offset &= ~3
            self.page_buffer[offset : offset + 4] = (
                value & 0xFFFF_FFFF
            ).to_bytes(4, "little")
            self.set_reg(self._addr, offset + 4)
            return
        if reg.name != self._ctrl:
            return
        ctrl_def = self.layout.register_named(self._ctrl)
        if not ctrl_def.field_named("START").extract(value):
            return
        # START pulse: capture page + command, go busy.
        page = ctrl_def.field_named("PAGE").extract(value)
        cmd = ctrl_def.field_named("CMD").extract(value)
        # Clear the self-clearing START bit.
        self.set_field(self._ctrl, "START", 0)
        if self.busy_cycles > 0:
            self.error = True
            return
        if cmd not in (CMD_PROG, CMD_ERASE) or page >= self.pages:
            self.error = True
            return
        self.pending_cmd = cmd
        self.pending_page = page
        self.busy_cycles = (
            PROGRAM_CYCLES if cmd == CMD_PROG else ERASE_CYCLES
        )
        self.done = False
        self.error = False

    def on_read(self, reg, value: int) -> int:
        if reg.name == self._stat:
            stat_def = self.layout.register_named(self._stat)
            status = 0
            status = stat_def.field_named("BUSY").insert(
                status, int(self.busy_cycles > 0)
            )
            status = stat_def.field_named("DONE").insert(
                status, int(self.done)
            )
            status = stat_def.field_named("ERR").insert(
                status, int(self.error)
            )
            return status
        return value

    def event_horizon(self, line_pending: bool = False) -> int | None:
        # The only tick-driven event is operation completion (DONE +
        # interrupt + array update) after the programming delay.
        return self.busy_cycles if self.busy_cycles > 0 else None

    def armed(self) -> bool:
        return self.busy_cycles > 0

    def tick(self, cycles: int = 1) -> None:
        if self.busy_cycles <= 0:
            return
        self.busy_cycles -= cycles
        if self.busy_cycles > 0:
            return
        self.busy_cycles = 0
        base = self.pending_page * NVM_PAGE_BYTES
        if self.pending_cmd == CMD_PROG:
            self.array.load(base, bytes(self.page_buffer))
            self.operation_log.append(("prog", self.pending_page))
        elif self.pending_cmd == CMD_ERASE:
            self.array.load(base, b"\xff" * NVM_PAGE_BYTES)
            self.operation_log.append(("erase", self.pending_page))
        self.pending_cmd = CMD_IDLE
        self.done = True
        self.irq = True  # NVM-done interrupt line

    def page_bytes(self, page: int) -> bytes:
        """Backdoor page read for checkers and coverage."""
        base = page * NVM_PAGE_BYTES
        return bytes(self.array.data[base : base + NVM_PAGE_BYTES])
