"""The assembled SC88 device: CPU-visible bus with all peripherals.

:class:`SystemOnChip` wires one derivative's memories and peripherals
onto a bus and offers the services every execution platform needs: image
loading, peripheral ticking with interrupt collection, and the
result-reporting probes (result word in RAM, GPIO pass/fail pins, UART
output).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.assembler.linker import MemoryImage
from repro.soc.bus import Bus, Memory
from repro.soc.derivatives import Derivative
from repro.soc.memorymap import MemoryMap
from repro.soc.peripherals.gpio import DONE_PIN, Gpio, PASS_PIN
from repro.soc.peripherals.intc import (
    InterruptController,
    LINE_GPIO,
    LINE_NVM,
    LINE_TIMER,
    LINE_UART,
    LINE_WDT,
)
from repro.soc.peripherals.nvm import NvmController
from repro.soc.peripherals.timer import Timer
from repro.soc.peripherals.uart import Uart
from repro.soc.peripherals.watchdog import Watchdog

#: Result signatures written by tests (also published via Globals.inc).
PASS_MAGIC = 0x600D_C0DE
FAIL_MAGIC = 0xBAD0_BAD0

#: Wait states charged by the cycle-accurate platforms, per region.
ROM_WAIT_STATES = 1
RAM_WAIT_STATES = 0
NVM_WAIT_STATES = 3
SFR_WAIT_STATES = 1


@dataclass
class IrqLine:
    line: int
    device: object  # Peripheral with an ``irq`` attribute


class SfrPort:
    """Bus port wrapping one peripheral register block.

    Under event-horizon scheduling the SoC defers peripheral ticking
    until the next observable event; this port settles the pending
    cycle debt *before* any register access, so software (and probes)
    never observe stale peripheral state.  Writes additionally end the
    core's current block-run: a store may reconfigure the peripheral
    (enable a timer, start an NVM operation) and move the event
    horizon, which the scheduler must recompute before running on.

    When no core is bound (legacy per-tick driving, direct SoC use)
    both hooks are no-ops and the port is a transparent pass-through.
    """

    __slots__ = ("soc", "peripheral")

    def __init__(self, soc: "SystemOnChip", peripheral):
        self.soc = soc
        self.peripheral = peripheral

    def read(self, offset: int, size: int) -> int:
        self.soc.flush_ticks()
        return self.peripheral.read(offset, size)

    def write(self, offset: int, value: int, size: int) -> None:
        soc = self.soc
        soc.flush_ticks()
        self.peripheral.write(offset, value, size)
        soc.horizon_changed()


class SystemOnChip:
    """One SC88 device instance for a given derivative."""

    def __init__(self, derivative: Derivative):
        self.derivative = derivative
        self.memory_map: MemoryMap = derivative.memory_map()
        self.register_map = derivative.register_map()
        self.bus = Bus()

        memory_map = self.memory_map
        self.rom = Memory(memory_map.rom.size, read_only=True)
        self.ram = Memory(memory_map.ram.size)
        self.bus.attach(
            "rom",
            memory_map.rom.base,
            memory_map.rom.size,
            self.rom,
            ROM_WAIT_STATES,
        )
        self.bus.attach(
            "ram",
            memory_map.ram.base,
            memory_map.ram.size,
            self.ram,
            RAM_WAIT_STATES,
        )

        self.nvm = NvmController(
            layout=derivative.nvm_layout(), pages=derivative.nvm_pages
        )
        self.bus.attach(
            "nvm_array",
            memory_map.nvm.base,
            memory_map.nvm.size,
            self.nvm.array,
            NVM_WAIT_STATES,
        )

        self.intc = InterruptController(derivative.intc_layout())
        self.uart = Uart(derivative.uart_layout())
        self.timer = Timer(derivative.timer_layout())
        self.gpio = Gpio(derivative.gpio_layout())
        self.wdt = Watchdog(
            derivative.wdt_layout(), service_key=derivative.wdt_service_key
        )

        register_map = self.register_map
        for instance_name, device in (
            ("INTC", self.intc),
            ("UART", self.uart),
            ("NVM", self.nvm),
            ("TIMER", self.timer),
            ("GPIO", self.gpio),
            ("WDT", self.wdt),
        ):
            instance = register_map.instance(instance_name)
            self.bus.attach(
                instance_name.lower(),
                instance.base,
                instance.layout.size,
                SfrPort(self, device),
                SFR_WAIT_STATES,
            )

        self.irq_lines = [
            IrqLine(LINE_UART, self.uart),
            IrqLine(LINE_TIMER, self.timer),
            IrqLine(LINE_NVM, self.nvm),
            IrqLine(LINE_GPIO, self.gpio),
            IrqLine(LINE_WDT, self.wdt),
        ]

        #: Event-horizon scheduling state: the bound core whose cycle
        #: counter peripheral time follows (None = legacy per-tick
        #: driving), the cycle count peripherals have been ticked
        #: through, and the cycles-after-that of the next observable
        #: peripheral event (None = no event pending).
        self._cpu = None
        self._ticked_cycles = 0
        self._horizon: int | None = None

        #: :meth:`full_reset` telemetry: resets that had to rewrite all
        #: of ROM (its load extents were not kept), and resets that
        #: rebuilt the bus page table (a mapping had changed).
        self.reset_fallbacks = 0
        self.dispatch_rebuilds = 0

    # -- lifecycle ------------------------------------------------------------
    def reset(self) -> None:
        for peripheral in (
            self.intc,
            self.uart,
            self.nvm,
            self.timer,
            self.gpio,
            self.wdt,
        ):
            peripheral.reset()
        self.ram.wipe()

    def full_reset(self) -> None:
        """Return the device to its just-constructed state.

        Beyond :meth:`reset` (peripherals + RAM), this also clears ROM
        and the NVM array and the bus bookkeeping, so one SoC instance
        can host many independent runs — an
        :class:`~repro.platforms.session.ExecutionSession` calls this
        between images instead of rebuilding the whole device.

        The cost follows what the last run touched.  ROM is written only
        by image loads, so only the extents they loaded are restored;
        after a whole-ROM load or more loads than
        :data:`~repro.soc.bus.LOAD_EXTENT_CAP`, all of ROM is rewritten
        and :attr:`reset_fallbacks` counts it.  RAM and the NVM array,
        which bus stores and NVM programming write directly, are always
        rewritten whole (64 KiB and a few KiB).  Every memory returns to
        its construction fill.  The page table is rebuilt only if a
        mapping changed since its last build, counted in
        :attr:`dispatch_rebuilds`.
        """
        self.reset()
        if self.rom.restore():
            self.reset_fallbacks += 1
        self.nvm.array.wipe()
        self.bus.access_count = 0
        if not self.bus.dispatch_current():
            self.bus.rebuild_dispatch()
            self.dispatch_rebuilds += 1
        self._cpu = None
        self._ticked_cycles = 0
        self._horizon = None

    def load_image(self, image: MemoryImage) -> None:
        """Backdoor-load a linked image into ROM/RAM/NVM."""
        for segment in image.segments:
            region = self.memory_map.region_of(segment.base)
            if region is None:
                raise ValueError(
                    f"image segment {segment.name!r} at {segment.base:#010x} "
                    "is outside every memory region"
                )
            offset = segment.base - region.base
            if region.name == "rom":
                self.rom.load(offset, segment.data)
            elif region.name == "ram":
                self.ram.load(offset, segment.data)
            elif region.name == "nvm":
                self.nvm.array.load(offset, segment.data)
            else:
                raise ValueError(
                    f"cannot load image segment into region {region.name!r}"
                )

    # -- time -------------------------------------------------------------------
    def tick(self, cycles: int = 1) -> None:
        """Advance peripheral time and collect interrupt lines."""
        for irq_line in self.irq_lines:
            irq_line.device.tick(cycles)
            if irq_line.device.irq:
                self.intc.raise_line(irq_line.line)
                irq_line.device.irq = False

    # -- event-horizon scheduling ---------------------------------------------
    #
    # Per-instruction peripheral ticking walks every peripheral on every
    # retire even though almost all ticks change nothing observable.
    # With a core bound, the SoC instead *defers* ticking: peripherals
    # report the cycle distance to their next observable event (timer
    # underflow, watchdog expiry, level-sensitive interrupt re-raise,
    # NVM completion), the session runs the core in blocks bounded by
    # that horizon, and the accumulated cycle debt is settled in one
    # linear ``tick`` at the boundary.  Every peripheral ``tick``
    # implementation is linear in the sense ``tick(a); tick(b)`` ==
    # ``tick(a + b)`` between observable events, so batched and
    # per-instruction ticking retire byte-identical state; the SFR
    # ports and the probes below settle the debt before any read, so
    # observed register state is never stale.

    def attach_cpu(self, cpu) -> None:
        """Bind *cpu* as the cycle source for deferred ticking; the
        caller must have reset the core first."""
        self._cpu = cpu
        self._ticked_cycles = cpu.cycles
        self._horizon = self._compute_horizon()

    def detach_cpu(self) -> None:
        """Return to legacy per-tick driving (flushing any debt)."""
        self.flush_ticks()
        self._cpu = None

    def flush_ticks(self) -> None:
        """Settle deferred peripheral time up to the bound core's
        current cycle count, then recompute the event horizon.

        With zero debt the flush is a no-op: no peripheral saw new
        cycles, so the horizon computed at the last settle (or by
        :meth:`horizon_changed` after the last register write) still
        holds.  Skipping the recompute keeps back-to-back probes and
        polls from paying a full peripheral walk each.
        """
        cpu = self._cpu
        if cpu is None:
            return
        debt = cpu.cycles - self._ticked_cycles
        if debt <= 0:
            return
        self._ticked_cycles += debt
        self.tick(debt)
        self._horizon = self._compute_horizon()

    def horizon_changed(self) -> None:
        """Recompute the event horizon after a peripheral register
        write and end the core's current block so the session picks up
        the new bound (a store may have armed a nearer event)."""
        cpu = self._cpu
        if cpu is None:
            return
        self._horizon = self._compute_horizon()
        cpu.cut_block()

    def run_budget(self) -> int | None:
        """Cycles the bound core may execute before peripheral time
        must be settled; ``None`` when no observable event is pending."""
        horizon = self._horizon
        if horizon is None:
            return None
        debt = self._cpu.cycles - self._ticked_cycles
        remaining = horizon - debt
        return remaining if remaining > 0 else 1

    def _compute_horizon(self) -> int | None:
        horizon: int | None = None
        for irq_line in self.irq_lines:
            distance = irq_line.device.event_horizon()
            if distance is not None and (
                horizon is None or distance < horizon
            ):
                horizon = distance
        return horizon

    # -- probes -------------------------------------------------------------
    #
    # Every probe settles pending peripheral time first, so state
    # observed mid-run (watchdog polling, interleaved host checks) is
    # never stale under deferred ticking.

    def result_word(self) -> int:
        """The test-result signature word in RAM."""
        self.flush_ticks()
        return self.bus.peek_word(self.memory_map.result_address)

    def done_pin(self) -> int:
        self.flush_ticks()
        return self.gpio.pin(DONE_PIN)

    def pass_pin(self) -> int:
        self.flush_ticks()
        return self.gpio.pin(PASS_PIN)

    def uart_output(self) -> str:
        self.flush_ticks()
        return self.uart.transmitted_text()

    @property
    def watchdog_expired(self) -> bool:
        self.flush_ticks()
        return self.wdt.expired
