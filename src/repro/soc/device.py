"""The assembled SC88 device: CPU-visible bus with all peripherals.

:class:`SystemOnChip` wires one derivative's memories and peripherals
onto a bus and offers the services every execution platform needs: image
loading, peripheral ticking with interrupt collection, and the
result-reporting probes (result word in RAM, GPIO pass/fail pins, UART
output).
"""

from __future__ import annotations

from repro.assembler.linker import MemoryImage
from repro.soc.bus import Bus, Memory
from repro.soc.derivatives import Derivative
from repro.soc.memorymap import FAIL_MAGIC, PASS_MAGIC, MemoryMap
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

#: Wait states charged by the cycle-accurate platforms, per region.
ROM_WAIT_STATES = 1
RAM_WAIT_STATES = 0
NVM_WAIT_STATES = 3
SFR_WAIT_STATES = 1


class IrqLine:
    __slots__ = ("line", "device", "armed")

    def __init__(self, line: int, device: object):
        self.line = line
        self.device = device  # Peripheral with an ``irq`` attribute
        #: Whether the device was armed (``device.armed()``) when the
        #: bound core last re-evaluated it; only armed lines are walked.
        self.armed = False


class SfrPort:
    """Bus port wrapping one peripheral register block.

    Under event-horizon scheduling the SoC defers peripheral ticking
    until the next observable event; this port settles the pending
    cycle debt *before* any register access, so software (and probes)
    never observe stale peripheral state.  Writes additionally
    recompute the event horizon: a store may reconfigure the
    peripheral (enable a timer, start an NVM operation, clear an
    interrupt-pending bit) and bring the next event nearer, which then
    lowers the core's window deadline (:meth:`SystemOnChip.
    horizon_changed`).  A store that moves no event nearer leaves the
    window running.

    A write through this port (or a reset) is the only way a
    peripheral becomes armed during a run, so the write hook also
    re-evaluates whether *irq_line*'s device is armed (see
    :meth:`~repro.soc.peripherals.base.Peripheral.armed`).  Host-side
    backdoors that change that state without a port write
    (``Uart.host_receive``, ``Gpio.drive_input``) are for standalone
    peripherals or for use between runs, before ``attach_cpu``.

    When no core is bound (legacy per-tick driving, direct SoC use)
    both hooks are no-ops and the port is a transparent pass-through.
    """

    __slots__ = ("soc", "peripheral", "irq_line")

    def __init__(
        self,
        soc: "SystemOnChip",
        peripheral,
        irq_line: IrqLine | None = None,
    ):
        self.soc = soc
        self.peripheral = peripheral
        self.irq_line = irq_line

    def read(self, offset: int, size: int) -> int:
        self.soc.flush_ticks()
        return self.peripheral.read(offset, size)

    def write(self, offset: int, value: int, size: int) -> None:
        soc = self.soc
        soc.flush_ticks()
        self.peripheral.write(offset, value, size)
        soc.horizon_changed(self.irq_line)


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

        self.irq_lines = [
            IrqLine(LINE_UART, self.uart),
            IrqLine(LINE_TIMER, self.timer),
            IrqLine(LINE_NVM, self.nvm),
            IrqLine(LINE_GPIO, self.gpio),
            IrqLine(LINE_WDT, self.wdt),
        ]
        line_of = {irq_line.device: irq_line for irq_line in self.irq_lines}

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
                SfrPort(self, device, line_of.get(device)),
                SFR_WAIT_STATES,
            )

        #: Event-horizon scheduling state: the bound core whose cycle
        #: counter peripheral time follows (None = legacy per-tick
        #: driving), the cycle count peripherals have been ticked
        #: through, and the cycles-after-that of the next observable
        #: peripheral event (None = no event pending), and the armed
        #: IRQ lines — the only ones deferred ticking walks.
        self._cpu = None
        self._ticked_cycles = 0
        self._horizon: int | None = None
        self._armed: list[IrqLine] = []

        #: :meth:`full_reset` telemetry: resets that had to rewrite all
        #: of ROM (its load extents were not kept).
        self.reset_fallbacks = 0

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
        its construction fill.  The bus forgets the pages it memoised,
        as a fresh bus has none.
        """
        self.reset()
        if self.rom.restore():
            self.reset_fallbacks += 1
        self.nvm.array.wipe()
        self.bus.access_count = 0
        self.bus.page_table.clear()
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
        """Advance peripheral time and collect interrupt lines.

        With no core bound every peripheral is walked (the reference
        interpreter's one walk per step); with one bound only the armed
        lines are, since ticking an unarmed peripheral is a no-op.
        """
        intc = self.intc
        for irq_line in self.irq_lines if self._cpu is None else self._armed:
            device = irq_line.device
            device.tick(cycles)
            if device.irq:
                intc.raise_line(irq_line.line)
                device.irq = False

    # -- event-horizon scheduling ---------------------------------------------
    #
    # Per-instruction peripheral ticking walks every peripheral on every
    # retire even though almost all ticks change nothing observable.
    # With a core bound, the SoC instead *defers* ticking: peripherals
    # report the cycle distance to their next observable event (timer
    # underflow, watchdog expiry, level-sensitive interrupt re-raise,
    # NVM completion), the session runs the core in blocks bounded by
    # that horizon, and the accumulated cycle debt is settled in one
    # linear ``tick`` at the boundary.  A level-sensitive line the INTC
    # already holds pending is not an event: re-raising it changes
    # nothing, and only a register write (which recomputes the horizon)
    # clears a pending bit.  Every peripheral ``tick``
    # implementation is linear in the sense ``tick(a); tick(b)`` ==
    # ``tick(a + b)`` between observable events, so batched and
    # per-instruction ticking retire byte-identical state; the SFR
    # ports and the probes below settle the debt before any read, so
    # observed register state is never stale.
    #
    # Settling and the horizon walk only the *armed* lines: those whose
    # device's ``tick`` is not a no-op.  A device can become armed only
    # at reset or through a register write, so membership is
    # re-evaluated for every line in :meth:`attach_cpu` and for the
    # written device in :meth:`horizon_changed`.  A device that disarms
    # itself by ticking (NVM completion, watchdog expiry, a one-shot
    # timer) or by a register read (draining the UART FIFO) stays
    # listed until its next write, which is sound: ticking it changes
    # nothing and its horizon is ``None``.

    def attach_cpu(self, cpu) -> None:
        """Bind *cpu* as the cycle source for deferred ticking; the
        caller must have reset the core first."""
        self._cpu = cpu
        self._ticked_cycles = cpu.cycles
        for irq_line in self.irq_lines:
            irq_line.armed = irq_line.device.armed()
        self._armed = [line for line in self.irq_lines if line.armed]
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
        polls from paying a full peripheral walk each; with nothing
        armed no peripheral is walked at all.
        """
        cpu = self._cpu
        if cpu is None:
            return
        debt = cpu.cycles - self._ticked_cycles
        if debt <= 0:
            return
        self._ticked_cycles += debt
        if self._armed:
            self.tick(debt)
            self._horizon = self._compute_horizon()

    def horizon_changed(self, irq_line: IrqLine | None = None) -> None:
        """Re-evaluate whether the device on *irq_line* (the one just
        written) is armed and recompute the event horizon.  When the
        new horizon is nearer than the end of the core's current
        window, the window's deadline moves to it, so the core stops
        where the event falls; a farther horizon leaves the deadline
        alone (flushing early is always equivalent).  Called right after
        the port settled time, so the horizon counts from now."""
        cpu = self._cpu
        if cpu is None:
            return
        if irq_line is not None:
            armed = irq_line.device.armed()
            if armed != irq_line.armed:
                irq_line.armed = armed
                self._armed = [
                    line for line in self.irq_lines if line.armed
                ]
        horizon = self._horizon = self._compute_horizon()
        if horizon is not None:
            deadline = self._ticked_cycles + horizon
            current = cpu._block_deadline
            if current is None or deadline < current:
                cpu._block_deadline = deadline

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
        pending = self.intc.pending_lines()
        for irq_line in self._armed:
            distance = irq_line.device.event_horizon(
                bool(pending >> irq_line.line & 1)
            )
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
