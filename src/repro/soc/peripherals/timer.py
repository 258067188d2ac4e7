"""Down-counting timer with interrupt generation.

Derivatives differ in counter width (a later SC88 widens it from 24 to 32
bits), which is published to tests through the global defines as
``TIMER_COUNTER_WIDTH`` / ``TIMER_MAX_COUNT``.
"""

from __future__ import annotations

from repro.soc.layouts import make_timer_layout
from repro.soc.peripherals.base import Peripheral
from repro.soc.registers import PeripheralLayout


class Timer(Peripheral):
    """Cycle-driven down counter."""

    def __init__(self, layout: PeripheralLayout | None = None):
        layout = layout or make_timer_layout()
        regs = layout.register_names()
        self._ctrl, self._count, self._reload, self._stat = regs
        counter_field = layout.register_named(self._count).field_named("COUNT")
        self.max_count = counter_field.max_value
        # Single-bit masks: tick and horizon decode CTRL/STAT once each.
        masks = layout.field_masks
        self._en = masks[self._ctrl, "EN"][0]
        self._ie = masks[self._ctrl, "IE"][0]
        self._oneshot = masks[self._ctrl, "ONESHOT"][0]
        self._ovf = masks[self._stat, "OVF"][0]
        super().__init__(layout, name="TIMER")
        self.underflows = 0

    def reset(self) -> None:
        super().reset()
        self.underflows = 0

    def on_write(self, reg, value: int) -> None:
        if reg.name == self._reload:
            # Writing the reload also primes the counter, like most MCUs.
            self.set_reg(self._count, value & self.max_count)
        elif reg.name == self._ctrl:
            pass  # EN/IE take effect on the next tick

    def event_horizon(self) -> int | None:
        values = self.values
        ctrl = values[self._ctrl]
        if not ctrl & self._en:
            return None  # disabled: ticking is a no-op
        if not ctrl & self._ie:
            return None  # counts, but can never raise an interrupt
        if values[self._stat] & self._ovf:
            # Level-sensitive: every tick re-raises the line until the
            # handler clears OVF, so ticking cannot be deferred.
            return 1
        # Underflow fires on the cycle after the counter hits zero.
        return values[self._count] + 1

    def armed(self) -> bool:
        # A disabled timer's tick only drops a pending irq.
        return self.irq or bool(self.values[self._ctrl] & self._en)

    def tick(self, cycles: int = 1) -> None:
        # Closed-form advance: one batched tick must cost O(1), not
        # O(underflows) — event-horizon scheduling and idle fast-forward
        # can hand a free-running timer millions of deferred cycles in a
        # single flush.  The first underflow consumes ``count + 1``
        # cycles; every further reload period consumes ``reload + 1``.
        values = self.values
        ctrl = values[self._ctrl]
        if not ctrl & self._en:
            self.irq = False
            return
        count = values[self._count]
        if cycles <= count:
            count -= cycles
        else:
            self.underflows += 1
            values[self._stat] |= self._ovf
            if ctrl & self._oneshot:
                values[self._ctrl] = ctrl & ~self._en
                count = 0
            else:
                reload = values[self._reload] & self.max_count
                extra, leftover = divmod(cycles - (count + 1), reload + 1)
                self.underflows += extra
                count = reload - leftover
        values[self._count] = count
        self.irq = bool(ctrl & self._ie and values[self._stat] & self._ovf)
