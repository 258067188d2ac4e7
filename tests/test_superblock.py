"""Superblock chaining + idle fast-forward tests (ISSUE 4).

The contract under test:

(a) **Formation** — superblocks are maximal straight-line runs of
    pure-register instructions; memory micro-ops, control flow, traps
    and interrupt-enable writers terminate them; a bare ``DJNZ rX, .``
    self-loop is classified as an idle spin.
(b) **Equivalence** — the superblock engine (fusion + chaining + idle
    fast-forward) retires byte-identical signature / cycles /
    IRQ-delivery timing to the ``use_superblocks=False`` reference
    interpreter across **all six platforms**, on timer-delay and
    busy-wait workloads whose wall-clock is dominated by fast-forwarded
    iterations.
(c) **Observation** (ISSUE 5) — the superblock engine (fusion, chaining
    and the idle fast-forward) keeps running under instruction traces,
    bus traces and wait-state charging, replaying each block's
    precomputed observation templates in bulk; the retire trace and bus
    access stream are byte-identical to the per-step reference.  Only
    the per-step loop itself (``use_superblocks=False``) and fault hooks
    remain reference baselines where no warp fires.
(d) **Exactness** — warps land retire counts and cycle counts exactly
    on instruction limits and block deadlines, so event-horizon
    scheduling (and therefore interrupt delivery) is unperturbed.
(e) **Chaining/invalidation** — successor links are validated against
    the live pc, and :meth:`CpuCore.reset` drops the cached chain.
"""

import pytest

from repro.assembler.assembler import Assembler
from repro.assembler.linker import Linker
from repro.core.targets import TARGET_GOLDEN, all_targets
from repro.core.workloads import (
    make_delay_environment,
    make_timer_environment,
)
from repro.isa.decodecache import Superblock, decode_cache_for
from repro.isa.instructions import Opcode
from repro.platforms import (
    ExecutionSession,
    PLATFORM_CLASSES,
    GoldenModel,
    RunStatus,
)
from repro.platforms.cpu import CpuCore
from repro.soc.derivatives import SC88A, SC88B
from repro.soc.device import PASS_MAGIC, SystemOnChip

MEMORY_MAP = SC88A.memory_map()

TARGETS_BY_NAME = {target.name: target for target in all_targets()}


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


def cache_for(image):
    rom = MEMORY_MAP.rom
    return decode_cache_for(image, rom.base, rom.base + rom.size)


# ---------------------------------------------------------------------------
# (a) formation
# ---------------------------------------------------------------------------

FORMATION_SOURCE = f"""\
_main:
    ADDI d2, d2, 3
    XOR d3, d3, d2
    SHLI d4, d2, 5
    CMPI d4, 0
    ST.W [a1], d4
    ADDI d5, d5, 1
    JMP over
over:
    LOAD d6, 7
spin:
    DJNZ d6, spin
    EI
    HALT
"""


class TestFormation:
    def test_bodies_end_at_memory_and_control_flow(self):
        image = link_source(FORMATION_SOURCE)
        cache = cache_for(image)
        entry = image.entry

        first = cache.block_at(entry)
        # Four pure ALU/flag ops, then the ST.W micro-op terminates.
        assert first.body_count == 4
        assert [e.mnemonic for e in first.body] == [
            "ADDI", "XOR", "SHLI", "CMPI",
        ]
        assert first.terminator.mnemonic == "ST.W"
        assert first.body_cycles == sum(e.base_cycles for e in first.body)
        assert first.spin_reg == -1

        after_store = cache.block_at(first.terminator.next_pc)
        assert [e.mnemonic for e in after_store.body] == ["ADDI"]
        assert after_store.terminator.mnemonic == "JMP"

    def test_idle_spin_detection(self):
        image = link_source(FORMATION_SOURCE)
        cache = cache_for(image)
        spin_pc = image.symbol("spin")
        spin = cache.block_at(spin_pc)
        assert spin.body_count == 0
        assert spin.terminator.opcode == Opcode.DJNZ
        assert spin.spin_reg == spin.terminator.r1
        assert spin.spin_cost == spin.terminator.base_cycles + 1

        # A DJNZ that targets another address is not an idle spin.
        other = link_source(
            "_main:\nback:\n    ADDI d2, d2, 1\n"
            "    DJNZ d1, back\n    HALT\n"
        )
        other_cache = cache_for(other)
        djnz_block = other_cache.block_at(other.symbol("back"))
        # Body [ADDI], DJNZ terminator pointing at the block start but
        # with a nonempty body: analytic warp does not apply.
        assert djnz_block.terminator.opcode == Opcode.DJNZ
        assert djnz_block.spin_reg == -1

    def test_interrupt_enable_writers_terminate(self):
        image = link_source(FORMATION_SOURCE)
        cache = cache_for(image)
        spin_pc = image.symbol("spin")
        spin = cache.block_at(spin_pc)
        after_spin = cache.block_at(spin.terminator.next_pc)
        assert after_spin.body_count == 0
        assert after_spin.terminator.mnemonic == "EI"

    def test_uncacheable_address_has_no_block(self):
        image = link_source(FORMATION_SOURCE)
        cache = cache_for(image)
        ram_base = MEMORY_MAP.ram.base
        assert cache.block_at(ram_base) is None


# ---------------------------------------------------------------------------
# (b) cross-platform equivalence on delay-heavy workloads
# ---------------------------------------------------------------------------

def make_envs():
    return [
        make_delay_environment(delay_ticks=(900,), spin_loops=(4_000,)),
        make_timer_environment(),
    ]


class TestDelayEquivalenceAcrossPlatforms:
    @pytest.mark.parametrize(
        "platform_name", sorted(PLATFORM_CLASSES), ids=str
    )
    @pytest.mark.parametrize(
        "derivative", [SC88A, SC88B], ids=lambda d: d.name
    )
    def test_fast_forward_matches_per_step_reference(
        self, platform_name, derivative
    ):
        """The satellite property: fast-forwarded ``Base_Timer_Delay``
        (and pure busy-wait) runs retire byte-identical signature,
        cycles and IRQ-delivery timing vs the ``use_superblocks=False``
        reference on every platform.  ``TEST_TIMER_IRQ`` exercises
        interrupt delivery; cycle equality pins its timing."""
        platform_cls = PLATFORM_CLASSES[platform_name]
        tgt = TARGETS_BY_NAME[platform_name]
        for env in make_envs():
            for cell_name in env.cells:
                image = env.build_image(cell_name, derivative, tgt).image
                fast = ExecutionSession(platform_cls(), derivative).run(
                    image
                )
                reference = ExecutionSession(
                    platform_cls(), derivative, use_superblocks=False
                ).run(image)
                assert strip(fast) == strip(reference), (
                    platform_name,
                    cell_name,
                )
                assert fast.status is RunStatus.PASS, (
                    platform_name,
                    cell_name,
                )


IRQ_DURING_SPIN_SOURCE = """\
;; timer interrupts must land mid-spin at reference-exact cycles
.INCLUDE Globals.inc
_main:
    LOAD a11, IRQ_COUNT_ADDR
    LOAD d11, 0
    ST.W [a11], d11
    LOAD d4, IRQ_LINE_TIMER_MASK
    CALL Base_Enable_IRQ
    LOAD a4, TIM_RELOAD_ADDR
    LOAD d4, 700
    CALL Base_Init_Register
    LOAD a4, TIM_CTRL_ADDR
    LOAD d4, TIMER_CTRL_IRQ_VALUE
    CALL Base_Init_Register
    LOAD d4, 20000
    CALL Base_Spin
    DI
    ;; at least two interrupts must have been counted during the spin
    LOAD d4, [IRQ_COUNT_ADDR]
    CMPI d4, 2
    JLT Base_Report_Fail
    JMP Base_Report_Pass
"""


class TestIrqDeliveryDuringFastForward:
    def test_spin_warp_respects_irq_horizons(self):
        from repro.core.environment import ModuleTestEnvironment, TestCell

        env = ModuleTestEnvironment("DELAYIRQ")
        env.add_test(
            TestCell(name="TEST_IRQ_DURING_SPIN", source=IRQ_DURING_SPIN_SOURCE)
        )
        image = env.build_image(
            "TEST_IRQ_DURING_SPIN", SC88A, TARGET_GOLDEN
        ).image
        sessions = {}
        results = {}
        for label, kw in (
            ("fast", {}),
            ("reference", {"use_superblocks": False}),
        ):
            session = ExecutionSession(GoldenModel(), SC88A, **kw)
            results[label] = session.run(image)
            sessions[label] = session
        assert strip(results["fast"]) == strip(results["reference"])
        assert results["fast"].status is RunStatus.PASS


# ---------------------------------------------------------------------------
# (c) observation rides the fast path; per-step/hook baselines never warp
# ---------------------------------------------------------------------------

SPIN_ONLY_SOURCE = f"""\
_main:
    LOAD d1, 5000
spin:
    DJNZ d1, spin
    LOAD d0, {PASS_MAGIC:#x}
    HALT
"""


def direct_cpu(image, *, trace: bool = False) -> tuple[CpuCore, SystemOnChip]:
    soc = SystemOnChip(SC88A)
    soc.load_image(image)
    cpu = CpuCore(soc.bus, intc=soc.intc)
    cpu.decode_cache = cache_for(image)
    cpu.reset(image.entry, MEMORY_MAP.stack_top)
    if trace:
        cpu.enable_trace()
    return cpu, soc


class TestObservedFastPath:
    def test_warps_fire_under_instruction_trace(self):
        """The ISSUE 5 tentpole at its smallest: a traced run still
        warps the idle spin, and the synthesized trace records are
        byte-identical to per-instruction recording."""
        image = link_source(SPIN_ONLY_SOURCE)
        cpu, _ = direct_cpu(image, trace=True)
        cpu.run()
        assert cpu.halted
        assert cpu.ff_warps > 0
        # Every retire is in the trace — the warped iterations were
        # synthesized, not skipped.
        assert len(cpu.trace) == cpu.instructions_retired
        reference, _ = direct_cpu(image, trace=True)
        reference.decode_cache = None
        reference.run()
        assert reference.ff_warps == 0
        assert cpu.trace.raw() == reference.trace.raw()
        assert (cpu.cycles, cpu.regs.data[0]) == (
            reference.cycles,
            reference.regs.data[0],
        )

    def test_no_warps_in_per_step_reference_session(self):
        image = link_source(SPIN_ONLY_SOURCE)
        session = ExecutionSession(GoldenModel(), SC88A, use_superblocks=False)
        result = session.run(image)
        assert result.signature == PASS_MAGIC
        assert session.cpu.ff_warps == 0

    def test_warps_fire_on_the_hoisted_path(self):
        image = link_source(SPIN_ONLY_SOURCE)
        cpu, _ = direct_cpu(image)
        cpu.run()
        assert cpu.halted
        assert cpu.ff_warps > 0
        # LOAD + 5000 DJNZ retires + LOAD + HALT
        assert cpu.instructions_retired == 1 + 5000 + 2


class TestEngineSurface:
    """One engine argument remains: ``use_superblocks`` (False = the
    reference interpreter)."""

    @pytest.mark.parametrize(
        "keyword",
        ["use_decode_cache", "use_block_run", "use_fast_forward", "use_jit"],
    )
    def test_removed_session_keywords_raise(self, keyword):
        with pytest.raises(TypeError):
            ExecutionSession(GoldenModel(), SC88A, **{keyword: False})

    @pytest.mark.parametrize(
        "platform_name", sorted(PLATFORM_CLASSES), ids=str
    )
    def test_sb_replays_count_only_observed_runs(self, platform_name):
        """One loop serves both cases; template replays (and their
        count) happen only when a trace or wait-state charging is
        on."""
        env = make_delay_environment(delay_ticks=(900,), spin_loops=(4_000,))
        tgt = TARGETS_BY_NAME[platform_name]
        platform = PLATFORM_CLASSES[platform_name]()
        session = ExecutionSession(platform, SC88A)
        for cell_name in env.cells:
            session.run(env.build_image(cell_name, SC88A, tgt).image)
            stats = session.stats()
            assert stats["sb_blocks"] > 0, cell_name
            if platform.sees_trace or platform.cycle_accurate:
                assert stats["sb_replays"] > 0, cell_name
            else:
                assert stats["sb_replays"] == 0, cell_name


# ---------------------------------------------------------------------------
# (d) warp exactness on limits and deadlines
# ---------------------------------------------------------------------------

class TestWarpExactness:
    def test_instruction_limit_lands_mid_spin(self):
        image = link_source(SPIN_ONLY_SOURCE)
        cpu, _ = direct_cpu(image)
        # 1 LOAD + 2000 DJNZ retires: the ceiling lands mid-warp.
        cpu.run(instruction_limit=2001)
        assert cpu.instructions_retired == 2001
        assert not cpu.halted
        # LOAD (2 cycles) + 2000 taken DJNZ (2 cycles each).
        assert cpu.cycles == 2 + 2000 * 2
        cpu.run()  # finish
        assert cpu.halted
        assert cpu.regs.data[0] == PASS_MAGIC
        assert cpu.instructions_retired == 1 + 5000 + 2

    def test_cycle_budget_lands_mid_spin(self):
        image = link_source(SPIN_ONLY_SOURCE)
        cpu, _ = direct_cpu(image)
        consumed = cpu.run(cycle_budget=501)
        # Stops at the first retire boundary at/after the budget,
        # exactly like per-instruction stepping.
        assert 501 <= consumed <= 502
        reference_cpu, _ = direct_cpu(image)
        reference_cpu.decode_cache = None
        reference_consumed = reference_cpu.run(cycle_budget=501)
        assert consumed == reference_consumed
        assert cpu.instructions_retired == reference_cpu.instructions_retired

    def test_zero_counter_wraps_like_reference(self):
        source = f"""\
_main:
    LOAD d1, 0
spin:
    DJNZ d1, spin
    LOAD d0, {PASS_MAGIC:#x}
    HALT
"""
        image = link_source(source)
        fast_cpu, _ = direct_cpu(image)
        fast_cpu.run(instruction_limit=10_000)
        slow_cpu, _ = direct_cpu(image)
        slow_cpu.decode_cache = None
        slow_cpu.run(instruction_limit=10_000)
        assert fast_cpu.instructions_retired == 10_000
        assert (fast_cpu.cycles, fast_cpu.regs.data[1]) == (
            slow_cpu.cycles,
            slow_cpu.regs.data[1],
        )


# ---------------------------------------------------------------------------
# (e) chaining + invalidation
# ---------------------------------------------------------------------------

class TestChaining:
    def test_successor_links_memoised_and_validated(self):
        source = f"""\
_main:
    LOAD d1, 50
loop:
    ADDI d2, d2, 3
    XOR d3, d3, d2
    DJNZ d1, loop
    LOAD d0, {PASS_MAGIC:#x}
    HALT
"""
        image = link_source(source)
        cpu, _ = direct_cpu(image)
        cpu.run()
        assert cpu.halted
        cache = cpu.decode_cache
        loop_block = cache.block_at(image.symbol("loop"))
        # The DJNZ taken edge was chained back to the loop head...
        assert loop_block.succ_taken is loop_block
        # ...and the fall-through edge to the epilogue block.
        assert loop_block.succ_fall is not None
        assert loop_block.succ_fall.start == loop_block.terminator.next_pc

    def test_reset_flushes_cached_chain(self):
        image = link_source(SPIN_ONLY_SOURCE)
        cpu, _ = direct_cpu(image)
        cpu.run(instruction_limit=10)
        assert cpu._sb_resume is not None
        cpu.reset(image.entry, MEMORY_MAP.stack_top)
        assert cpu._sb_resume is None


# ---------------------------------------------------------------------------
# (f) ISSUE 5: traced + wait-state runs stay on the superblock engine,
#     byte-identical to the per-step reference across all six platforms
# ---------------------------------------------------------------------------

def stripped_bus_trace(platform):
    """The recorded bus access stream as comparable raw tuples."""
    trace = platform.last_bus_trace
    return None if trace is None else list(trace.raw())


class TestObservedMatrixAcrossPlatforms:
    @pytest.mark.parametrize(
        "platform_name", sorted(PLATFORM_CLASSES), ids=str
    )
    @pytest.mark.parametrize(
        "derivative", [SC88A, SC88B], ids=lambda d: d.name
    )
    def test_traced_run_matches_per_step_reference(
        self, platform_name, derivative
    ):
        """With a bus trace recorded (and the platform's natural
        instruction-trace / wait-state configuration active), the
        superblock engine must execute the run — telemetry shows
        blocks and no silent fallbacks — and retire a byte-identical
        outcome, retire trace and bus access stream vs the per-step
        reference."""
        platform_cls = PLATFORM_CLASSES[platform_name]
        tgt = TARGETS_BY_NAME[platform_name]
        for env in make_envs():
            for cell_name in env.cells:
                image = env.build_image(cell_name, derivative, tgt).image
                fast_platform = platform_cls()
                fast_platform.record_bus_trace = True
                fast_session = ExecutionSession(fast_platform, derivative)
                fast = fast_session.run(image)
                ref_platform = platform_cls()
                ref_platform.record_bus_trace = True
                reference = ExecutionSession(
                    ref_platform, derivative, use_superblocks=False
                ).run(image)
                assert strip(fast) == strip(reference), (
                    platform_name,
                    cell_name,
                )
                assert stripped_bus_trace(fast_platform) == (
                    stripped_bus_trace(ref_platform)
                ), (platform_name, cell_name)
                stats = fast_session.stats()
                assert stats["sb_blocks"] > 0, (platform_name, cell_name)
                assert stats["sb_fallback_steps"] == 0, (
                    platform_name,
                    cell_name,
                )
                assert fast.status is RunStatus.PASS

    def test_wait_state_run_warps_on_the_fast_path(self):
        """Cycle-accurate platforms (nonzero folded fetch waits) warp
        idle spins and retire reference-exact cycle counts."""
        from repro.platforms import RtlSim

        image = link_source(SPIN_ONLY_SOURCE)
        fast_session = ExecutionSession(RtlSim(), SC88A)
        fast = fast_session.run(image)
        reference = ExecutionSession(
            RtlSim(), SC88A, use_superblocks=False
        ).run(image)
        assert strip(fast) == strip(reference)
        assert fast.signature == PASS_MAGIC
        assert fast_session.cpu.charge_wait_states
        assert fast_session.cpu.ff_warps > 0
        # ROM fetches cost wait states on this platform: the folded
        # spin cost must exceed the base-cycle figure, i.e. the run is
        # genuinely charging waits on the warped path.
        cache = fast_session.cpu.decode_cache
        spin = cache.block_at(image.symbol("spin"))
        assert spin.spin_cost_w > spin.spin_cost

    def test_irq_lands_mid_spin_while_traced(self):
        """An interrupt delivered inside a warped spin, with both the
        instruction trace and a bus trace active: delivery timing,
        handler retires and every recorded event must match the
        per-step reference."""
        from repro.core.environment import ModuleTestEnvironment, TestCell

        env = ModuleTestEnvironment("DELAYIRQTRACE")
        env.add_test(
            TestCell(
                name="TEST_IRQ_DURING_SPIN_TRACED",
                source=IRQ_DURING_SPIN_SOURCE,
            )
        )
        image = env.build_image(
            "TEST_IRQ_DURING_SPIN_TRACED", SC88A, TARGET_GOLDEN
        ).image
        fast_platform = GoldenModel()
        fast_platform.record_bus_trace = True
        fast_session = ExecutionSession(fast_platform, SC88A)
        fast = fast_session.run(image)
        ref_platform = GoldenModel()
        ref_platform.record_bus_trace = True
        reference = ExecutionSession(
            ref_platform, SC88A, use_superblocks=False
        ).run(image)
        assert strip(fast) == strip(reference)
        assert stripped_bus_trace(fast_platform) == (
            stripped_bus_trace(ref_platform)
        )
        assert fast.status is RunStatus.PASS
        # The engine really was on: spins warped while traced, and the
        # trace carries the synthesized spin retires.
        assert fast_session.cpu.ff_warps > 0
        assert fast_session.stats()["sb_fallback_steps"] == 0
