"""Execution-core dispatch + event-horizon scheduling tests (ISSUE 3).

Four properties the tentpole hangs on:

(a) executor-table dispatch retires byte-identical
    ``(signature, cycles, trace, ...)`` to the reference ``if/elif``
    chain, and the block-run/event-horizon session loop retires
    byte-identical results to the per-step/per-tick loop — across the
    example suites (timer overflow IRQ, watchdog expiry, UART output)
    on golden and RTL;
(b) batched peripheral ticking is *linear*: ``tick(a); tick(b)`` equals
    ``tick(a + b)``, and the per-peripheral ``event_horizon`` distances
    predict the first observable event exactly;
(c) probes and peripheral register accesses interleaved mid-run settle
    the deferred cycle debt first, so observed state is never stale;
(d) the byte/halfword memory micro-ops (``LD.B/LD.H/ST.B/ST.H``)
    zero-extend/truncate correctly on both the direct-buffer fast path
    and the traced bus path.
"""

import pytest

from repro.assembler.assembler import Assembler
from repro.assembler.linker import Linker
from repro.core.workloads import (
    make_datapath_environment,
    make_nvm_environment,
    make_timer_environment,
    make_uart_environment,
)
from repro.core.targets import TARGET_GOLDEN, TARGET_RTL
from repro.isa.decodecache import (
    EXECUTORS,
    MEM_LD_B,
    MEM_LD_H,
    MEM_ST_B,
    MEM_ST_H,
    decode_cache_for,
)
from repro.isa.instructions import Opcode
from repro.platforms import (
    ExecutionSession,
    GoldenModel,
    RtlSim,
    RunStatus,
)
from repro.platforms.cpu import CpuCore
from repro.soc.derivatives import SC88A, SC88B
from repro.soc.device import PASS_MAGIC, SystemOnChip
from repro.soc.peripherals.nvm import CMD_PROG, NvmController, PROGRAM_CYCLES
from repro.soc.peripherals.timer import Timer
from repro.soc.peripherals.uart import Uart
from repro.soc.peripherals.watchdog import Watchdog

MEMORY_MAP = SC88A.memory_map()


def link_source(source: str):
    obj = Assembler().assemble_source(source, "t.asm")
    return Linker(
        text_base=MEMORY_MAP.text_base, data_base=MEMORY_MAP.data_base
    ).link([obj])


def strip(result):
    """The comparable engine-visible outcome of a run."""
    return (
        result.status,
        result.signature,
        result.result_word,
        result.instructions,
        result.cycles,
        result.uart_output,
        result.done_pin,
        result.pass_pin,
        None
        if result.trace is None
        else [(t.pc, t.opcode, t.mnemonic, t.cycles) for t in result.trace],
    )


def reference_session(platform, derivative) -> ExecutionSession:
    """The reference interpreter: bus fetch and the ``if/elif`` chain on
    every retire, one peripheral walk per instruction."""
    return ExecutionSession(platform, derivative, use_superblocks=False)


ENVIRONMENT_FACTORIES = [
    lambda: make_nvm_environment(2),
    lambda: make_uart_environment(1),
    lambda: make_timer_environment(),
    lambda: make_datapath_environment(1),
]


# ---------------------------------------------------------------------------
# property (a): table dispatch + event horizons vs per-step/per-tick
# ---------------------------------------------------------------------------

class TestEngineEquivalence:
    @pytest.mark.parametrize("make_env", ENVIRONMENT_FACTORIES)
    @pytest.mark.parametrize(
        "tgt, platform_cls",
        [(TARGET_GOLDEN, GoldenModel), (TARGET_RTL, RtlSim)],
        ids=["golden", "rtl"],
    )
    @pytest.mark.parametrize(
        "derivative", [SC88A, SC88B], ids=lambda d: d.name
    )
    def test_new_engine_matches_reference(
        self, make_env, tgt, platform_cls, derivative
    ):
        env = make_env()
        for cell_name in env.cells:
            image = env.build_image(cell_name, derivative, tgt).image
            fast = ExecutionSession(platform_cls(), derivative).run(image)
            reference = reference_session(platform_cls(), derivative).run(
                image
            )
            assert strip(fast) == strip(reference), cell_name
            assert fast.status is RunStatus.PASS

    def test_block_run_bus_trace_identical(self):
        """The event-horizon loop records the same bus access stream
        (fetch replay included) as the reference interpreter's real
        bus fetches."""
        env = make_timer_environment()
        image = env.build_image("TEST_TIMER_IRQ", SC88A, TARGET_GOLDEN).image
        traces = []
        for use_block in (True, False):
            platform = GoldenModel()
            platform.record_bus_trace = True
            session = ExecutionSession(
                platform, SC88A, use_superblocks=use_block
            )
            result = session.run(image)
            assert result.passed
            traces.append(platform.last_bus_trace.raw())
        assert traces[0] == traces[1]

    def test_executor_table_covers_every_opcode(self):
        assert set(EXECUTORS) == {int(op) for op in Opcode}

    def test_run_respects_cycle_budget_and_instruction_limit(self):
        image = link_source(
            "_main:\nloop:\n    ADDI d2, d2, 1\n    JMP loop\n"
        )
        soc = SystemOnChip(SC88A)
        soc.load_image(image)
        cpu = CpuCore(soc.bus, intc=soc.intc)
        rom = MEMORY_MAP.rom
        cpu.decode_cache = decode_cache_for(image, rom.base, rom.end)
        cpu.reset(image.entry, MEMORY_MAP.stack_top)

        consumed = cpu.run(cycle_budget=10)
        # Stops at the first retire boundary at/after the budget.
        assert 10 <= consumed <= 12
        before = cpu.instructions_retired
        cpu.run(instruction_limit=before + 5)
        assert cpu.instructions_retired == before + 5


# ---------------------------------------------------------------------------
# property (b): tick linearity + exact event horizons
# ---------------------------------------------------------------------------

def make_timer(reload=9, oneshot=False, ie=True) -> Timer:
    timer = Timer()
    timer.write(0x08, reload, 4)  # reload primes the counter
    ctrl = 0b001 | (0b010 if ie else 0) | (0b100 if oneshot else 0)
    timer.write(0x00, ctrl, 4)
    return timer


class TestTickLinearity:
    @pytest.mark.parametrize("total", [1, 5, 10, 37, 200])
    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_timer_chunked_equals_batched(self, total, chunk):
        batched = make_timer()
        chunked = make_timer()
        batched.tick(total)
        remaining = total
        while remaining:
            step = min(chunk, remaining)
            chunked.tick(step)
            remaining -= step
        assert batched.values == chunked.values
        assert batched.underflows == chunked.underflows
        assert batched.irq == chunked.irq

    @pytest.mark.parametrize("total", [1, 49, 50, 51, 120])
    def test_watchdog_chunked_equals_batched(self, total):
        def make_wdt():
            wdt = Watchdog()
            wdt.write(0x00, (50 << 8) | 1, 4)  # EN, TIMEOUT=50
            return wdt

        batched, chunked = make_wdt(), make_wdt()
        batched.tick(total)
        for _ in range(total):
            chunked.tick(1)
        assert batched.values == chunked.values
        assert batched.expired == chunked.expired
        assert batched.irq == chunked.irq

    def test_nvm_chunked_equals_batched(self):
        def make_busy_nvm():
            nvm = NvmController()
            nvm.write(0x08, 0, 4)  # NVM_ADDR
            nvm.write(0x0C, 0xDEAD_BEEF, 4)  # page buffer word
            ctrl = (CMD_PROG << 16) | (1 << 31) | 3  # page 3, START
            nvm.write(0x00, ctrl, 4)
            return nvm

        batched, chunked = make_busy_nvm(), make_busy_nvm()
        batched.tick(PROGRAM_CYCLES + 5)
        for _ in range(PROGRAM_CYCLES + 5):
            chunked.tick(1)
        assert batched.done and chunked.done
        assert bytes(batched.array.data) == bytes(chunked.array.data)
        assert batched.operation_log == chunked.operation_log


class TestEventHorizons:
    def test_timer_horizon_predicts_first_irq_exactly(self):
        per_cycle = make_timer(reload=13)
        cycles_to_irq = 0
        while not per_cycle.irq:
            per_cycle.tick(1)
            cycles_to_irq += 1

        batched = make_timer(reload=13)
        horizon = batched.event_horizon()
        assert horizon == cycles_to_irq
        batched.tick(horizon - 1)
        assert not batched.irq
        batched.tick(1)
        assert batched.irq

    def test_timer_horizon_gating(self):
        disabled = Timer()
        assert disabled.event_horizon() is None
        no_ie = make_timer(ie=False)
        assert no_ie.event_horizon() is None
        # Level-active: OVF latched with IE set re-raises every tick.
        level = make_timer(reload=3)
        level.tick(10)
        assert level.irq
        assert level.event_horizon() == 1

    def test_watchdog_horizon_predicts_expiry_exactly(self):
        def make_wdt():
            wdt = Watchdog()
            wdt.write(0x00, (37 << 8) | 1, 4)
            return wdt

        per_cycle = make_wdt()
        cycles_to_expiry = 0
        while not per_cycle.expired:
            per_cycle.tick(1)
            cycles_to_expiry += 1

        batched = make_wdt()
        horizon = batched.event_horizon()
        assert horizon == cycles_to_expiry
        batched.tick(horizon - 1)
        assert not batched.expired
        batched.tick(1)
        assert batched.expired
        assert batched.event_horizon() is None  # latched
        assert Watchdog().event_horizon() is None  # disabled

    def test_uart_horizon_is_level_sensitive(self):
        uart = Uart()
        assert uart.event_horizon() is None
        uart.write(0x00, 0b11001, 4)  # EN | RXEN | RXIE
        assert uart.event_horizon() is None  # FIFO empty
        uart.host_receive(0x41)
        assert uart.event_horizon() == 1
        uart.read(0x08, 4)  # drain the byte
        assert uart.event_horizon() is None

    def test_nvm_horizon_is_busy_window(self):
        nvm = NvmController()
        assert nvm.event_horizon() is None
        ctrl = (CMD_PROG << 16) | (1 << 31) | 1
        nvm.write(0x00, ctrl, 4)
        assert nvm.event_horizon() == PROGRAM_CYCLES
        nvm.tick(PROGRAM_CYCLES)
        assert nvm.event_horizon() is None


# ---------------------------------------------------------------------------
# property (c): probes and SFR accesses settle deferred time
# ---------------------------------------------------------------------------

def run_with_probes(image, use_block: bool, probe_every: int):
    """Session-style loop that probes the SoC every *probe_every*
    cycles (at the first retire boundary crossing each threshold):
    the superblock loop over a decode cache when *use_block*, else the
    reference interpreter, one :meth:`CpuCore.step` per instruction;
    returns (probe list, final cpu, final soc)."""
    soc = SystemOnChip(SC88A)
    soc.load_image(image)
    cpu = CpuCore(soc.bus, intc=soc.intc)
    if use_block:
        rom = MEMORY_MAP.rom
        cpu.decode_cache = decode_cache_for(image, rom.base, rom.end)
    cpu.reset(image.entry, MEMORY_MAP.stack_top)

    probes = []

    def probe():
        probes.append(
            (
                cpu.cycles,
                soc.result_word(),
                soc.done_pin(),
                soc.pass_pin(),
                soc.uart_output(),
                soc.watchdog_expired,
                # Raw register state: stale values would differ here.
                soc.timer.values.copy(),
                soc.wdt.values.copy(),
                soc.intc.values.copy(),
            )
        )

    next_probe = probe_every
    limit = 100_000
    if use_block:
        soc.attach_cpu(cpu)
        while not cpu.halted and cpu.instructions_retired < limit:
            budget = soc.run_budget()
            to_probe = next_probe - cpu.cycles
            if budget is None or to_probe < budget:
                budget = max(to_probe, 1)
            cpu.run(budget, limit)
            soc.flush_ticks()
            if cpu.cycles >= next_probe:
                probe()
                while next_probe <= cpu.cycles:
                    next_probe += probe_every
            if soc.wdt.expired:
                break
        soc.detach_cpu()
    else:
        while not cpu.halted and cpu.instructions_retired < limit:
            consumed = cpu.step()
            soc.tick(max(consumed, 1))
            if cpu.cycles >= next_probe:
                probe()
                while next_probe <= cpu.cycles:
                    next_probe += probe_every
            if soc.watchdog_expired:
                break
    return probes, cpu, soc


class TestMidRunProbes:
    @pytest.mark.parametrize(
        "cell_name", ["TEST_TIMER_IRQ", "TEST_WDT_SERVICE", "TEST_TIMER_DELAY_001"]
    )
    @pytest.mark.parametrize("probe_every", [17, 64])
    def test_probe_streams_identical(self, cell_name, probe_every):
        env = make_timer_environment()
        image = env.build_image(cell_name, SC88A, TARGET_GOLDEN).image
        batched, batched_cpu, _ = run_with_probes(image, True, probe_every)
        stepped, stepped_cpu, _ = run_with_probes(image, False, probe_every)
        assert batched, "probe cadence never fired"
        assert batched == stepped
        assert (batched_cpu.cycles, batched_cpu.instructions_retired) == (
            stepped_cpu.cycles,
            stepped_cpu.instructions_retired,
        )
        assert batched_cpu.regs.data[0] == PASS_MAGIC

    def test_sfr_read_flushes_cycle_debt(self):
        """A bus read of a peripheral page mid-window settles deferred
        time: the timer count must reflect every cycle the core has
        consumed, not the last flush."""
        soc = SystemOnChip(SC88A)
        cpu = CpuCore(soc.bus, intc=soc.intc)
        timer_count = soc.register_map.register_address("TIMER.TIM_CNT")
        timer_reload = soc.register_map.register_address("TIMER.TIM_RELOAD")
        timer_ctrl = soc.register_map.register_address("TIMER.TIM_CTRL")
        soc.bus.poke_word(timer_reload, 50_000)
        soc.bus.poke_word(timer_ctrl, 0b01)  # EN only: far horizon
        soc.attach_cpu(cpu)
        cpu.cycles = 123  # core ran ahead; peripherals owe 123 cycles
        value, _ = soc.bus.read_word(timer_count)
        assert value == 50_000 - 123

    def test_sfr_write_ends_block_and_moves_horizon(self):
        """Arming a peripheral mid-block must cut the core's block so
        the new, nearer horizon takes effect."""
        soc = SystemOnChip(SC88A)
        cpu = CpuCore(soc.bus, intc=soc.intc)
        soc.attach_cpu(cpu)
        assert soc.run_budget() is None  # nothing armed
        cpu._block_deadline = None
        timer_reload = soc.register_map.register_address("TIMER.TIM_RELOAD")
        timer_ctrl = soc.register_map.register_address("TIMER.TIM_CTRL")
        soc.bus.write_word(timer_reload, 9)
        soc.bus.write_word(timer_ctrl, 0b11)  # EN | IE
        assert soc.run_budget() == 10  # reload + 1 cycles to underflow
        assert cpu._block_deadline is not None  # block was cut

    def test_sfr_write_flushes_cached_superblock_chain(self):
        """cut_block() invalidation covers the superblock chain: an SFR
        write mid-run must drop the cached successor prediction (the
        store may have rescheduled the world) as well as cut the block."""
        soc = SystemOnChip(SC88A)
        cpu = CpuCore(soc.bus, intc=soc.intc)
        soc.attach_cpu(cpu)
        cpu._sb_resume = ("sentinel-cache", "sentinel-block")
        epoch = cpu._sb_epoch
        timer_reload = soc.register_map.register_address("TIMER.TIM_RELOAD")
        soc.bus.write_word(timer_reload, 9)
        assert cpu._sb_resume is None
        assert cpu._sb_epoch == epoch + 1

    def test_sfr_write_mid_superblock_observes_settled_state(self):
        """A store that lands on an SFR page between superblocks must
        see peripheral time fully settled — including every cycle the
        idle fast-forward warped past — and the registers read back
        afterwards must match the per-step reference exactly."""
        source = f"""\
_main:
    LOAD d2, 60000
    STORE [TIM_RELOAD], d2
    LOAD d3, 1
    STORE [TIM_CTRL], d3                        ;; EN only: no IRQ horizon
    LOAD d4, 1000
spin:
    DJNZ d4, spin                               ;; warped when hoisted
    LOAD d5, [TIM_CNT]                          ;; read: settled count
    LOAD d6, 1
    STORE [TIM_STAT], d6                        ;; write mid-run: cut + settle
    LOAD d7, [TIM_CNT]                          ;; read again after the cut
    LOAD d0, {PASS_MAGIC:#x}
    HALT
"""
        timer_base = {
            name: SC88A.register_map().register_address(f"TIMER.{name}")
            for name in ("TIM_RELOAD", "TIM_CTRL", "TIM_CNT", "TIM_STAT")
        }
        for symbol, address in timer_base.items():
            source = source.replace(symbol, f"{address:#x}")
        image = link_source(source)

        def run(use_block: bool):
            soc = SystemOnChip(SC88A)
            soc.load_image(image)
            cpu = CpuCore(soc.bus, intc=soc.intc)
            if use_block:
                rom = MEMORY_MAP.rom
                cpu.decode_cache = decode_cache_for(image, rom.base, rom.end)
            cpu.reset(image.entry, MEMORY_MAP.stack_top)
            if use_block:
                soc.attach_cpu(cpu)
                while not cpu.halted and cpu.instructions_retired < 100_000:
                    cpu.run(soc.run_budget(), 100_000)
                    soc.flush_ticks()
                soc.detach_cpu()
            else:
                while not cpu.halted and cpu.instructions_retired < 100_000:
                    consumed = cpu.step()
                    soc.tick(max(consumed, 1))
            return cpu

        fast = run(use_block=True)
        reference = run(use_block=False)
        assert fast.ff_warps > 0  # the spin really was fast-forwarded
        data = fast.regs.data
        # The first TIM_CNT read reflects every warped cycle...
        assert data[5] == reference.regs.data[5]
        assert data[5] < 60000  # ...i.e. the counter visibly moved.
        # The post-write read agrees too, and the engines retire
        # identical totals.
        assert data[7] == reference.regs.data[7]
        assert (fast.cycles, fast.instructions_retired) == (
            reference.cycles,
            reference.instructions_retired,
        )


# ---------------------------------------------------------------------------
# property (d): byte/halfword micro-ops
# ---------------------------------------------------------------------------

SUBWORD_SOURCE = f"""\
_main:
    LOAD a1, {MEMORY_MAP.ram.base:#x}
    LOAD d2, 0xF2345678
    ST.W [a1], d2
    LD.B d3, [a1]
    LD.B d4, [a1 + 3]
    LD.H d5, [a1]
    LD.H d6, [a1 + 2]
    ST.B [a1 + 4], d2
    ST.H [a1 + 8], d2
    LD.W d7, [a1 + 4]
    LD.W d8, [a1 + 8]
    LOAD d0, {PASS_MAGIC:#x}
    HALT
"""

EXPECTED_SUBWORD_REGS = {
    "d3": 0x78,  # byte loads zero-extend
    "d4": 0xF2,  # ...even with the sign bit set
    "d5": 0x5678,  # halfword loads zero-extend
    "d6": 0xF234,
    "d7": 0x78,  # byte store truncated to 8 bits
    "d8": 0x5678,  # halfword store truncated to 16 bits
}


class TestSubWordMicroOps:
    def test_classified_as_micro_ops(self):
        image = link_source(SUBWORD_SOURCE)
        rom = MEMORY_MAP.rom
        cache = decode_cache_for(image, rom.base, rom.end)
        cache.predecode_all()
        kinds = {entry.mem_kind for entry in cache._entries.values()}
        assert {MEM_LD_B, MEM_LD_H, MEM_ST_B, MEM_ST_H} <= kinds

    @pytest.mark.parametrize(
        "platform_cls", [GoldenModel, RtlSim], ids=["golden", "rtl"]
    )
    def test_semantics_on_fast_path(self, platform_cls):
        image = link_source(SUBWORD_SOURCE)
        result = ExecutionSession(platform_cls(), SC88A).run(image)
        assert result.status is RunStatus.PASS
        for reg, expected in EXPECTED_SUBWORD_REGS.items():
            assert result.registers[reg] == expected, reg

    def test_traced_bus_path_matches_fast_path(self):
        """With a bus trace armed the micro-ops route through the bus;
        values and cycle counts must not change, and the accesses must
        appear in the trace with their architectural sizes."""
        image = link_source(SUBWORD_SOURCE)
        fast = ExecutionSession(GoldenModel(), SC88A).run(image)
        platform = GoldenModel()
        platform.record_bus_trace = True
        traced = ExecutionSession(platform, SC88A).run(image)
        assert strip(fast) == strip(traced)
        ram = MEMORY_MAP.ram
        sized = [
            (access.kind, access.size)
            for access in platform.last_bus_trace
            if ram.contains(access.address, 1) and access.size in (1, 2)
        ]
        assert ("read", 1) in sized and ("write", 1) in sized
        assert ("read", 2) in sized and ("write", 2) in sized

    def test_reference_chain_agrees(self):
        image = link_source(SUBWORD_SOURCE)
        fast = ExecutionSession(GoldenModel(), SC88A).run(image)
        reference = reference_session(GoldenModel(), SC88A).run(image)
        assert strip(fast) == strip(reference)
