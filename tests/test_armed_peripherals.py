"""Deferred ticking walks only armed peripherals.

With a core bound, :class:`SystemOnChip` settles peripheral time and
computes the event horizon over the *armed* interrupt sources only.
That is sound only if an unarmed peripheral's ``tick`` is a no-op and
its ``event_horizon`` is ``None`` — held here over random register
values and internal state — and if every way a device becomes armed
mid-run (a register write through its port) or between runs (a reset
or a host-side backdoor before ``attach_cpu``) re-evaluates it.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.platforms.cpu import CpuCore
from repro.soc.bus import Memory
from repro.soc.derivatives import SC88A
from repro.soc.device import SystemOnChip
from repro.soc.peripherals.gpio import Gpio
from repro.soc.peripherals.intc import (
    LINE_NVM,
    LINE_TIMER,
    LINE_UART,
    LINE_WDT,
)
from repro.soc.peripherals.nvm import (
    CMD_ERASE,
    CMD_PROG,
    NvmController,
    PROGRAM_CYCLES,
)
from repro.soc.peripherals.timer import Timer
from repro.soc.peripherals.uart import RX_FIFO_DEPTH, Uart
from repro.soc.peripherals.watchdog import Watchdog

_WORD = st.integers(0, 0xFFFF_FFFF)
_SMALL = st.integers(0, 300)
#: Register words biased to the low control bits the predicates read.
_CTRL = st.integers(0, 0x3F) | _WORD


def _timer(values, irq, underflows) -> Timer:
    timer = Timer()
    ctrl, count, reload, stat = values
    timer.set_reg(timer._ctrl, ctrl)
    timer.set_reg(timer._count, count & timer.max_count)
    timer.set_reg(timer._reload, reload & timer.max_count)
    timer.set_reg(timer._stat, stat)
    timer.irq = irq
    timer.underflows = underflows
    return timer


def _watchdog(values, irq, expired, services) -> Watchdog:
    wdt = Watchdog()
    ctrl, count = values
    wdt.set_reg(wdt._ctrl, ctrl)
    wdt.set_reg(wdt._count, count)
    wdt.irq = irq
    wdt.expired = expired
    wdt.services = services
    return wdt


def _nvm(values, irq, busy, cmd, page, done, error, buffer) -> NvmController:
    nvm = NvmController()
    ctrl, addr = values
    nvm.set_reg(nvm._ctrl, ctrl)
    nvm.set_reg(nvm._addr, addr)
    nvm.irq = irq
    nvm.busy_cycles = busy
    nvm.pending_cmd = cmd
    nvm.pending_page = page
    nvm.done = done
    nvm.error = error
    nvm.page_buffer[: len(buffer)] = buffer
    return nvm


def _uart(values, irq, fifo, overrun) -> Uart:
    uart = Uart()
    ctrl, baud = values
    uart.set_reg(uart._ctrl, ctrl)
    uart.set_reg(uart._baud, baud)
    uart.irq = irq
    uart.rx_fifo.extend(fifo)
    uart.overrun = overrun
    return uart


def _gpio(values, irq) -> Gpio:
    gpio = Gpio()
    for name, value in zip((gpio._out, gpio._in, gpio._dir), values):
        gpio.set_reg(name, value)
    gpio.irq = irq
    return gpio


PERIPHERALS = st.one_of(
    st.builds(
        _timer,
        st.tuples(_CTRL, _WORD | _SMALL, _WORD | _SMALL, _CTRL),
        st.booleans(),
        _SMALL,
    ),
    st.builds(
        _watchdog,
        st.tuples(_CTRL, _WORD | _SMALL),
        st.booleans(),
        st.booleans(),
        _SMALL,
    ),
    st.builds(
        _nvm,
        st.tuples(_WORD, st.integers(0, 0x7F)),
        st.booleans(),
        st.integers(-3, 200),
        st.sampled_from((0, CMD_PROG, CMD_ERASE, 3)),
        st.integers(0, 31),
        st.booleans(),
        st.booleans(),
        st.binary(max_size=16),
    ),
    st.builds(
        _uart,
        st.tuples(_CTRL, _WORD),
        st.booleans(),
        st.lists(st.integers(0, 0xFF), max_size=RX_FIFO_DEPTH),
        st.booleans(),
    ),
    st.builds(_gpio, st.tuples(_WORD, _WORD, _WORD), st.booleans()),
)


def _state(peripheral) -> dict:
    """Everything ``tick`` could change, as comparable values."""
    state = {}
    for name, value in vars(peripheral).items():
        if name == "layout":
            continue
        if isinstance(value, Memory):
            value = bytes(value.data)
        state[name] = copy.deepcopy(value)
    return state


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    peripheral=PERIPHERALS,
    cycles=st.integers(1, 5) | st.integers(1, 10_000_000),
)
def test_unarmed_peripheral_tick_is_a_no_op(peripheral, cycles):
    if peripheral.armed():
        return
    assert peripheral.event_horizon() is None
    before = _state(peripheral)
    peripheral.tick(cycles)
    assert _state(peripheral) == before


# --------------------------------------------------------------------------
# SoC level: a store mid-run arms the device before the next block
# --------------------------------------------------------------------------

def _bound_soc():
    soc = SystemOnChip(SC88A)
    cpu = CpuCore(soc.bus, intc=soc.intc)
    soc.attach_cpu(cpu)
    return soc, cpu


def _store(soc, register: str, value: int) -> None:
    soc.bus.write_word(soc.register_map.register_address(register), value)


def _pending(soc) -> int:
    return soc.intc.reg_value(soc.intc._pending)


def _run(soc, cpu, cycles: int) -> None:
    """Retire *cycles* core cycles and settle them, as the session's
    event-horizon loop does at a block boundary."""
    cpu.cycles += cycles
    soc.flush_ticks()


def test_nothing_armed_settles_without_walking(monkeypatch):
    soc, cpu = _bound_soc()
    for irq_line in soc.irq_lines:
        monkeypatch.setattr(irq_line.device, "tick", _no_tick)
        monkeypatch.setattr(irq_line.device, "event_horizon", _no_tick)
    _run(soc, cpu, 1_000)
    _store(soc, "GPIO.GPIO_OUT", 3)  # never arms anything
    _run(soc, cpu, 1_000)
    assert soc.run_budget() is None


def _no_tick(*_args):
    raise AssertionError("an unarmed peripheral was walked")


def test_reference_walk_still_ticks_every_peripheral(monkeypatch):
    soc = SystemOnChip(SC88A)  # no core bound: the reference interpreter
    walked = []
    for irq_line in soc.irq_lines:
        device = irq_line.device
        monkeypatch.setattr(
            device, "tick", lambda cycles, d=device: walked.append(d)
        )
    soc.tick(1)
    assert walked == [irq_line.device for irq_line in soc.irq_lines]


def test_timer_store_arms_before_next_block():
    soc, cpu = _bound_soc()
    assert soc.run_budget() is None
    cpu._block_deadline = None
    _store(soc, "TIMER.TIM_RELOAD", 9)
    _store(soc, "TIMER.TIM_CTRL", 0b11)  # EN | IE
    assert cpu._block_deadline is not None  # the block was cut
    assert soc.run_budget() == 10
    _run(soc, cpu, 10)
    assert _pending(soc) == 1 << LINE_TIMER
    _store(soc, "TIMER.TIM_CTRL", 0)  # disarm: counting stops
    _run(soc, cpu, 50)
    count = soc.register_map.register_address("TIMER.TIM_CNT")
    assert soc.bus.read_word(count)[0] == 9
    assert soc.run_budget() is None


def test_watchdog_store_arms_before_next_block():
    soc, cpu = _bound_soc()
    _store(soc, "WDT.WDT_CTRL", 40 << 8 | 1)  # EN, 40-cycle timeout
    assert soc.run_budget() == 40
    _run(soc, cpu, 39)
    assert not soc.wdt.expired
    _run(soc, cpu, 1)
    assert soc.wdt.expired
    assert _pending(soc) == 1 << LINE_WDT


@pytest.mark.parametrize("cmd", [CMD_PROG, CMD_ERASE])
def test_nvm_start_arms_before_next_block(cmd):
    soc, cpu = _bound_soc()
    ctrl = soc.nvm.layout.register_named(soc.nvm._ctrl)
    value = ctrl.field_named("PAGE").insert(0, 3)
    value = ctrl.field_named("CMD").insert(value, cmd)
    value = ctrl.field_named("START").insert(value, 1)
    _store(soc, f"NVM.{soc.nvm._ctrl}", value)
    busy = soc.nvm.busy_cycles
    assert busy >= PROGRAM_CYCLES
    assert soc.run_budget() == busy
    _run(soc, cpu, busy)
    assert soc.nvm.done
    assert _pending(soc) == 1 << LINE_NVM
    assert soc.nvm.operation_log == [
        ("prog" if cmd == CMD_PROG else "erase", 3)
    ]


def _uart_ctrl(soc, *flags: str) -> int:
    ctrl = soc.uart.layout.register_named(soc.uart._ctrl)
    value = 0
    for flag in flags:
        value = ctrl.field_named(flag).insert(value, 1)
    return value


def test_uart_loopback_byte_arms_receive_interrupt():
    soc, cpu = _bound_soc()
    _store(
        soc, "UART.UART_CTRL", _uart_ctrl(soc, "EN", "LOOP", "TXEN", "RXIE")
    )
    assert soc.run_budget() is None  # RXIE alone: the FIFO is empty
    _store(soc, "UART.UART_DATA", 0x41)  # looped back into the FIFO
    assert soc.run_budget() == 1
    _run(soc, cpu, 1)
    assert _pending(soc) == 1 << LINE_UART
    data = soc.register_map.register_address("UART.UART_DATA")
    assert soc.bus.read_word(data)[0] == 0x41  # drains the FIFO


def test_byte_received_between_runs_arms_uart_at_attach():
    """``host_receive`` bypasses the port, so it is used between runs:
    ``attach_cpu`` re-evaluates every line and picks the byte up."""
    soc = SystemOnChip(SC88A)
    _store(soc, "UART.UART_CTRL", _uart_ctrl(soc, "EN", "RXEN", "RXIE"))
    soc.uart.host_receive(0x5A)
    cpu = CpuCore(soc.bus, intc=soc.intc)
    soc.attach_cpu(cpu)
    assert soc.run_budget() == 1
    _run(soc, cpu, 1)
    assert _pending(soc) == 1 << LINE_UART
