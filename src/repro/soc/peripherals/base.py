"""Peripheral base class.

A peripheral owns a :class:`~repro.soc.registers.PeripheralLayout` and a
value per register; the base class implements bus access with the layout's
access semantics (read-only registers ignore writes, write-1-to-clear
status registers clear on write).  Subclasses hook :meth:`on_write` /
:meth:`on_read` for side effects and :meth:`tick` for time-based
behaviour, and raise their interrupt line via :attr:`irq`.
"""

from __future__ import annotations

from repro.soc.bus import BusError
from repro.soc.registers import Access, PeripheralLayout, RegisterDef


class Peripheral:
    """Register-block device with layout-driven access semantics.

    A subclass that overrides :meth:`tick` also overrides :meth:`armed`,
    the predicate saying whether ticking can change anything.  The state
    that can arm a peripheral changes only through a register write
    (on a :class:`~repro.soc.device.SystemOnChip`, through its
    ``SfrPort``) or a reset; the SoC relies on that to walk only armed
    peripherals.  Host-side helpers that change such state directly are
    for standalone peripherals or for use between runs.
    """

    def __init__(self, layout: PeripheralLayout, name: str | None = None):
        self.layout = layout
        self.name = name or layout.name
        self.values: dict[str, int] = {}
        self.irq = False
        self.reset()

    # -- lifecycle -----------------------------------------------------------
    def reset(self) -> None:
        self.values = {r.name: r.reset for r in self.layout.registers}
        self.irq = False

    # -- bus protocol ----------------------------------------------------------
    def read(self, offset: int, size: int) -> int:
        if size != 4:
            raise BusError(
                f"{self.name}: registers require word access", offset
            )
        reg = self.layout.register_at(offset)
        if reg is None:
            raise BusError(
                f"{self.name}: no register at offset {offset:#x}", offset
            )
        if reg.access == Access.WO:
            return 0
        value = self.on_read(reg, self.values[reg.name])
        return value & 0xFFFF_FFFF

    def write(self, offset: int, value: int, size: int) -> None:
        if size != 4:
            raise BusError(
                f"{self.name}: registers require word access", offset
            )
        reg = self.layout.register_at(offset)
        if reg is None:
            raise BusError(
                f"{self.name}: no register at offset {offset:#x}", offset
            )
        value &= 0xFFFF_FFFF
        if reg.access == Access.RO:
            return  # writes to read-only registers are ignored
        if reg.access == Access.W1C:
            self.values[reg.name] &= ~value
            self.on_write(reg, value)
            return
        self.values[reg.name] = value
        self.on_write(reg, value)

    # -- subclass hooks -----------------------------------------------------
    def on_read(self, reg: RegisterDef, value: int) -> int:
        """Override to compute read side effects; returns the visible value."""
        return value

    def on_write(self, reg: RegisterDef, value: int) -> None:
        """Override for write side effects (after the store)."""

    def tick(self, cycles: int = 1) -> None:
        """Advance model time by *cycles* core clocks."""

    def armed(self) -> bool:
        """Whether :meth:`tick` can change anything.  When ``False``,
        ``tick(n)`` must be a no-op for every *n* and
        :meth:`event_horizon` must be ``None``; a subclass that
        overrides ``tick`` defines this next to it."""
        return False

    def event_horizon(self, line_pending: bool = False) -> int | None:
        """Core cycles until this peripheral's ticking next changes
        externally *observable* state — raises its interrupt line or
        trips a latched condition (watchdog expiry) — or ``None`` when
        no amount of ticking can (the SoC then defers ticking it until
        a register access or probe settles the debt).  Register values
        that merely count down are not events: the SFR ports flush
        pending time before any read, so they are never seen stale.
        Must be exact or an *underestimate*; flushing early is always
        equivalent, flushing late is not.

        *line_pending* says the interrupt controller already holds this
        peripheral's line pending.  Raising a pending line again changes
        nothing, so a level-sensitive re-raise is then not an event.
        That rests on one rule of the SoC: a pending bit is cleared only
        by a register write (a write-1-to-clear of the controller's
        pending register), and every register write settles time and
        recomputes the horizon before the core runs on."""
        return None

    # -- register/field helpers for subclasses -----------------------------
    def reg_value(self, name: str) -> int:
        return self.values[name]

    def set_reg(self, name: str, value: int) -> None:
        self.values[name] = value & 0xFFFF_FFFF

    # Field access resolves through the layout's cached decode table;
    # on a miss the by-name lookup re-raises its descriptive KeyError
    # (unknown register, or unknown field of a known register).
    def field_value(self, register: str, field: str) -> int:
        try:
            mask, pos = self.layout.field_masks[register, field]
        except KeyError:
            self.layout.register_named(register).field_named(field)
            raise
        return (self.values[register] & mask) >> pos

    def set_field(self, register: str, field: str, value: int) -> None:
        try:
            mask, pos = self.layout.field_masks[register, field]
        except KeyError:
            self.layout.register_named(register).field_named(field)
            raise
        self.values[register] = (self.values[register] & ~mask) | (
            (value << pos) & mask
        )
