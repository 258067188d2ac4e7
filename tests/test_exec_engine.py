"""Execution-engine tests: predecode cache, sessions, and the
equivalence property between the predecoded and legacy decode paths."""

import pytest

from repro.assembler.assembler import Assembler
from repro.assembler.linker import Linker
from repro.core.targets import TARGET_GOLDEN, TARGET_RTL
from repro.core.workloads import (
    make_datapath_environment,
    make_nvm_environment,
    make_timer_environment,
    make_uart_environment,
)
from repro.isa.decodecache import (
    BASE_CYCLES,
    DecodeCache,
    decode_cache_for,
)
from repro.isa.instructions import Opcode
from repro.platforms import ExecutionSession, GoldenModel, RtlSim, RunStatus
from repro.soc.derivatives import SC88A, SC88B
from repro.soc.device import PASS_MAGIC

MEMORY_MAP = SC88A.memory_map()


def link_source(source: str):
    obj = Assembler().assemble_source(source, "t.asm")
    return Linker(
        text_base=MEMORY_MAP.text_base, data_base=MEMORY_MAP.data_base
    ).link([obj])


def rom_region():
    rom = MEMORY_MAP.rom
    return rom.base, rom.base + rom.size


class TestDecodeCache:
    def test_lazy_then_memoised(self):
        image = link_source("_main:\n    ADD d1, d2, d3\n    HALT\n")
        base, end = rom_region()
        cache = DecodeCache(image, base, end)
        assert len(cache) == 0
        entry = cache.get(image.entry)
        assert entry is not None
        assert entry.opcode == Opcode.ADD
        assert (entry.r1, entry.r2, entry.r3) == (1, 2, 3)
        assert entry.base_cycles == BASE_CYCLES[int(Opcode.ADD)]
        assert cache.get(image.entry) is entry
        assert len(cache) == 1

    def test_two_word_instruction_carries_literal(self):
        image = link_source("_main:\n    LOAD d4, 0x12345678\n    HALT\n")
        base, end = rom_region()
        cache = DecodeCache(image, base, end, wait_states=1)
        entry = cache.get(image.entry)
        assert entry.opcode == Opcode.LOAD_D
        assert entry.fetch_events[1] == (
            "read", image.entry + 4, 4, 0x12345678
        )
        assert entry.size_bytes == 8
        # Two fetched words at one ROM wait state each.
        assert entry.fetch_waits == 2

    def test_out_of_region_address_misses(self):
        image = link_source("_main:\n    HALT\n")
        base, end = rom_region()
        cache = DecodeCache(image, base, end)
        assert cache.get(MEMORY_MAP.ram.base) is None
        assert cache.get(image.entry + 1) is None  # misaligned

    def test_predecode_all_covers_program(self):
        image = link_source(
            "_main:\n    ADD d1, d2, d3\n    SUB d1, d2, d3\n    HALT\n"
        )
        base, end = rom_region()
        cache = DecodeCache(image, base, end)
        assert cache.predecode_all() >= 3

    def test_registry_shares_by_digest(self):
        source = "_main:\n    HALT\n"
        first = link_source(source)
        second = link_source(source)
        base, end = rom_region()
        assert first is not second
        assert first.digest() == second.digest()
        assert decode_cache_for(first, base, end) is decode_cache_for(
            second, base, end
        )
        # Different wait states (cycle-accurate platforms) get their own.
        assert decode_cache_for(first, base, end) is not decode_cache_for(
            first, base, end, wait_states=1
        )


def _strip(result):
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


ENVIRONMENT_FACTORIES = [
    lambda: make_nvm_environment(2),
    lambda: make_uart_environment(1),
    lambda: make_timer_environment(),
    lambda: make_datapath_environment(1),
]


class TestEngineEquivalence:
    """The predecoded engine must retire identical (signature, cycles,
    trace) to the reference interpreter's per-step bus decode — the
    property the whole tentpole hangs on."""

    @pytest.mark.parametrize("make_env", ENVIRONMENT_FACTORIES)
    @pytest.mark.parametrize(
        "tgt, platform_cls",
        [(TARGET_GOLDEN, GoldenModel), (TARGET_RTL, RtlSim)],
        ids=["golden", "rtl"],
    )
    @pytest.mark.parametrize("derivative", [SC88A, SC88B], ids=lambda d: d.name)
    def test_predecoded_matches_legacy(
        self, make_env, tgt, platform_cls, derivative
    ):
        env = make_env()
        for cell_name in env.cells:
            image = env.build_image(cell_name, derivative, tgt).image
            fast = ExecutionSession(
                platform_cls(), derivative, use_superblocks=True
            ).run(image)
            legacy = ExecutionSession(
                platform_cls(), derivative, use_superblocks=False
            ).run(image)
            assert _strip(fast) == _strip(legacy), cell_name
            assert fast.status is RunStatus.PASS

    def test_fast_path_actually_used(self):
        env = make_nvm_environment(1)
        image = env.build_image(
            "TEST_NVM_PAGE_001", SC88A, TARGET_GOLDEN
        ).image
        session = ExecutionSession(GoldenModel(), SC88A)
        session.run(image)
        cache = session.cpu.decode_cache
        assert cache is not None
        assert cache.hits > 0


RAM_EXECUTION_SOURCE = f"""\
_main:
    JMP ram_code
.SECTION data
ram_code:
    LOAD d0, {PASS_MAGIC:#x}
    HALT
"""


class TestRamExecutionFallback:
    def test_code_in_ram_runs_via_legacy_path(self):
        image = link_source(RAM_EXECUTION_SOURCE)
        session = ExecutionSession(GoldenModel(), SC88A)
        result = session.run(image)
        assert result.status is RunStatus.PASS
        # The RAM instructions must not be served by the ROM cache.
        assert len(session.cpu.decode_cache) <= 1  # just the JMP

    def test_self_modifying_ram_code_sees_new_bytes(self):
        # The program patches the RAM instruction it is about to run:
        # a LOAD of FAIL-ish 0 is overwritten with `LOAD d0, PASS_MAGIC`'s
        # literal word before execution reaches it.
        source = f"""\
_main:
    LOAD d1, {PASS_MAGIC:#x}
    STORE [patch_me + 4], d1    ;; rewrite the literal word in RAM
    JMP ram_code
.SECTION data
ram_code:
patch_me:
    LOAD d0, 0
    HALT
"""
        image = link_source(source)
        result = GoldenModel().run(image, SC88A)
        assert result.signature == PASS_MAGIC
        assert result.status is RunStatus.PASS


class TestExecutionSessionReuse:
    def test_many_runs_one_device(self):
        env = make_nvm_environment(2)
        session = ExecutionSession(GoldenModel(), SC88A)
        fresh = GoldenModel()
        for cell_name in env.cells:
            image = env.build_image(cell_name, SC88A, TARGET_GOLDEN).image
            reused = session.run(image)
            baseline = fresh.run(image, SC88A)
            assert _strip(reused) == _strip(baseline)
        assert session.runs_completed == 2

    def test_state_isolation_between_runs(self):
        # A failing image then a passing one: the second run must not
        # inherit RAM, ROM, peripheral or register state from the first.
        fail_image = link_source("_main:\n    LOAD d0, 0\n    HALT\n")
        pass_env = make_uart_environment(1)
        pass_image = pass_env.build_image(
            "TEST_UART_LOOP_001", SC88A, TARGET_GOLDEN
        ).image
        session = ExecutionSession(GoldenModel(), SC88A)
        first = session.run(fail_image)
        assert first.status is RunStatus.FAIL
        second = session.run(pass_image)
        assert second.status is RunStatus.PASS
        assert _strip(second) == _strip(
            GoldenModel().run(pass_image, SC88A)
        )

    def test_cycle_accurate_session_matches_fresh_platform(self):
        env = make_nvm_environment(1)
        image = env.build_image(
            "TEST_NVM_PAGE_001", SC88A, TARGET_RTL
        ).image
        session = ExecutionSession(RtlSim(), SC88A)
        assert _strip(session.run(image)) == _strip(
            RtlSim().run(image, SC88A)
        )


class TestWaitStateProfile:
    """A wait-charging core must refuse a decode cache decoded for a
    different fetch wait-state profile than its bus: cached entries
    carry their fetch waits, so a mismatched cache would silently
    charge wrong cycles (about half, on a ROM-resident ALU loop)."""

    LOOP = (
        "_main:\n    LOAD d1, 400\nloop:\n    ADD d2, d2, d1\n"
        "    XOR d3, d3, d2\n    DJNZ d1, loop\n    HALT\n"
    )

    def charging_core(self, image):
        from repro.platforms.cpu import CpuCore
        from repro.soc.device import SystemOnChip

        soc = SystemOnChip(SC88A)
        soc.load_image(image)
        cpu = CpuCore(soc.bus, intc=soc.intc, charge_wait_states=True)
        return soc, cpu

    def run_cycles(self, image, cache) -> int:
        soc, cpu = self.charging_core(image)
        cpu.decode_cache = cache
        cpu.reset(image.entry, MEMORY_MAP.stack_top)
        while not cpu.halted:
            cpu.run(instruction_limit=cpu.instructions_retired + 10_000)
        return cpu.cycles

    def test_mismatched_profile_raises(self):
        image = link_source(self.LOOP)
        base, end = rom_region()
        _soc, cpu = self.charging_core(image)
        with pytest.raises(ValueError, match="wait state"):
            cpu.decode_cache = DecodeCache(image, base, end, wait_states=0)
        assert cpu.decode_cache is None

    def test_matching_profile_charges_reference_cycles(self):
        image = link_source(self.LOOP)
        base, end = rom_region()
        soc, _cpu = self.charging_core(image)
        waits = soc.bus.mapping_for(base, 1).wait_states
        assert waits > 0
        cached = self.run_cycles(
            image, DecodeCache(image, base, end, wait_states=waits)
        )
        assert cached == self.run_cycles(image, None)

    def test_non_charging_core_accepts_any_profile(self):
        from repro.platforms.cpu import CpuCore
        from repro.soc.device import SystemOnChip

        image = link_source(self.LOOP)
        base, end = rom_region()
        soc = SystemOnChip(SC88A)
        soc.load_image(image)
        cpu = CpuCore(soc.bus, intc=soc.intc)
        cache = DecodeCache(image, base, end, wait_states=0)
        cpu.decode_cache = cache
        assert cpu.decode_cache is cache
