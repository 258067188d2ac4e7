"""The window rule of the superblock engine.

A window (one ``CpuCore.run`` call) ends only where an observable
peripheral event can fall: a level-sensitive line the interrupt
controller already holds pending is not an event, and an SFR write
lowers the window's deadline only when it brings the next event
nearer.  A chain prediction carried between windows is checked against
the live pc, so it is never followed stale.

Every engine outcome here is compared with the reference interpreter
(``use_superblocks=False``) under the instruction trace, a bus trace
and wait-state charging.
"""

import pytest

from repro.assembler.assembler import Assembler
from repro.assembler.linker import Linker
from repro.core.targets import all_targets
from repro.core.workloads import make_timer_environment
from repro.isa.decodecache import decode_cache_for
from repro.platforms import ExecutionSession, GoldenModel, RtlSim
from repro.platforms.cpu import CpuCore
from repro.soc.derivatives import SC88A
from repro.soc.device import PASS_MAGIC, SystemOnChip
from repro.soc.peripherals.intc import LINE_TIMER, LINE_UART

MEMORY_MAP = SC88A.memory_map()
REGISTERS = SC88A.register_map()
TARGETS = {target.name: target for target in all_targets()}


def link_source(source: str):
    obj = Assembler().assemble_source(source, "t.asm")
    return Linker(
        text_base=MEMORY_MAP.text_base, data_base=MEMORY_MAP.data_base
    ).link([obj])


def outcome(platform, image, superblocks: bool):
    session = ExecutionSession(platform, SC88A, use_superblocks=superblocks)
    result = session.run(image)
    trace = platform.last_bus_trace
    return (
        result.status,
        result.signature,
        result.instructions,
        result.cycles,
        None if result.trace is None else list(result.trace),
        None if trace is None else list(trace.raw()),
    ), session


def traced(platform_class, bus_trace: bool):
    platform = platform_class()
    platform.record_bus_trace = bus_trace
    return platform


# --------------------------------------------------------------------------
# window rule
# --------------------------------------------------------------------------

def test_pending_line_is_not_an_event():
    soc = SystemOnChip(SC88A)
    cpu = CpuCore(soc.bus, intc=soc.intc)
    timer = soc.timer
    timer.write(0x08, 3, 4)  # reload/count
    timer.write(0x00, 0b11, 4)  # EN | IE
    timer.tick(10)
    assert timer.event_horizon() == 1
    assert timer.event_horizon(line_pending=True) is None
    soc.intc.raise_line(LINE_TIMER)
    soc.attach_cpu(cpu)
    assert soc.run_budget() is None


def test_sfr_write_lowers_the_deadline_only_when_the_horizon_nears():
    soc = SystemOnChip(SC88A)
    cpu = CpuCore(soc.bus, intc=soc.intc)
    soc.attach_cpu(cpu)
    cpu._block_deadline = 500
    soc.bus.write_word(REGISTERS.register_address("GPIO.GPIO_OUT"), 1)
    assert cpu._block_deadline == 500  # no event moved: window runs on
    soc.bus.write_word(REGISTERS.register_address("TIMER.TIM_RELOAD"), 9)
    soc.bus.write_word(REGISTERS.register_address("TIMER.TIM_CTRL"), 0b11)
    assert cpu._block_deadline == 10  # the underflow is nearer
    soc.bus.write_word(REGISTERS.register_address("TIMER.TIM_RELOAD"), 99)
    assert cpu._block_deadline == 10  # a farther horizon leaves it


@pytest.mark.parametrize("target", ["rtl", "gatelevel"])
def test_timer_irq_cell_matches_reference_in_few_windows(target):
    env = make_timer_environment()
    image = env.build_image("TEST_TIMER_IRQ", SC88A, TARGETS[target]).image
    platform_class = type(TARGETS[target].make_platform())
    fast, session = outcome(platform_class(), image, True)
    reference, _ = outcome(platform_class(), image, False)
    assert fast == reference
    windows = []
    run = session.cpu.run

    def counting(*args, **kwargs):
        windows.append(1)
        return run(*args, **kwargs)

    session.cpu.run = counting
    session.run(image)
    assert len(windows) <= 250


TIMER_MID_WINDOW = f"""\
_main:
    LOAD a1, {REGISTERS.register_address("TIMER.TIM_RELOAD"):#x}
    LOAD a2, {REGISTERS.register_address("TIMER.TIM_CTRL"):#x}
    MOVI d2, 23
    ST.W [a1], d2
    MOVI d2, 3
    ST.W [a2], d2
    LOAD d1, 40
spin:
    ADDI d3, d3, 1
    DJNZ d1, spin
    LOAD a3, {REGISTERS.register_address("INTC.INT_PEND"):#x}
    LD.W d4, [a3]
    LOAD d0, {PASS_MAGIC:#x}
    HALT
"""

UART_PENDING = f"""\
_main:
    LOAD a1, {REGISTERS.register_address("UART.UART_CTRL"):#x}
    LOAD a2, {REGISTERS.register_address("UART.UART_DATA"):#x}
    LOAD d2, 0x3F
    ST.W [a1], d2
    MOVI d2, 0x41
    ST.W [a2], d2
    LOAD d1, 30
spin:
    ADDI d3, d3, 1
    DJNZ d1, spin
    LOAD a3, {REGISTERS.register_address("INTC.INT_PEND"):#x}
    MOVI d5, {1 << LINE_UART}
    ST.W [a3], d5
    LD.W d4, [a3]
    LD.W d6, [a2]
    ST.W [a3], d5
    LD.W d7, [a3]
    LOAD d0, {PASS_MAGIC:#x}
    HALT
"""

# A body with a RAM store, a push, a direct call and a return value
# popped back, then an indexed store that lands on the GPIO page and
# must leave the body before the access.
BODY_SOURCE = f"""\
_main:
    LOAD a1, {MEMORY_MAP.data_base + 0x40:#x}
    LOAD a2, {REGISTERS.register_address("GPIO.GPIO_OUT") - 8:#x}
    MOVI d2, 5
    ST.W [a1], d2
    PUSH d2
    CALL func
    ST.W [a2+8], d2
    POP d3
    LD.W d4, [a1]
    JMP done
func:
    ADDI d2, d2, 1
    RET
done:
    LOAD d0, {PASS_MAGIC:#x}
    HALT
"""


@pytest.mark.parametrize(
    "source", [TIMER_MID_WINDOW, UART_PENDING, BODY_SOURCE],
    ids=["timer-mid-window", "uart-pending", "ram-body"],
)
@pytest.mark.parametrize("platform_class", [GoldenModel, RtlSim], ids=str)
@pytest.mark.parametrize("bus_trace", [False, True], ids=["", "bus-trace"])
def test_engine_matches_reference(source, platform_class, bus_trace):
    image = link_source(source)
    fast, _ = outcome(traced(platform_class, bus_trace), image, True)
    reference, _ = outcome(traced(platform_class, bus_trace), image, False)
    assert fast == reference
    assert fast[1] is not None


def test_stale_chain_prediction_is_never_followed():
    image = link_source(BODY_SOURCE)
    rom = MEMORY_MAP.rom
    cache = decode_cache_for(image, rom.base, rom.base + rom.size)
    soc = SystemOnChip(SC88A)
    soc.load_image(image)
    cpu = CpuCore(soc.bus, intc=soc.intc)
    cpu.decode_cache = cache
    cpu.reset(image.entry, MEMORY_MAP.stack_top)
    # A prediction for another pc (as an SFR write that moved the world
    # would leave behind) is checked against the live pc and dropped.
    cpu._sb_resume = (cache, cache.block_at(image.symbol("done")))
    cpu.run()
    assert cpu.halted
    assert cpu.regs.data[0] == PASS_MAGIC
    assert cpu.regs.data[3] == 5 and cpu.regs.data[2] == 6
