"""Tests for the six execution platforms."""

import pytest

from repro.assembler.assembler import Assembler
from repro.assembler.linker import Linker
from repro.isa.instructions import Opcode
from repro.platforms import (
    Accelerator,
    Bondout,
    GateLevelSim,
    GoldenModel,
    NetlistFault,
    PLATFORM_CLASSES,
    ProductSilicon,
    RtlSim,
    RunStatus,
    all_platforms,
    make_platform,
)
from repro.soc.derivatives import SC88A
from repro.soc.device import FAIL_MAGIC, PASS_MAGIC


def build_image(body: str, derivative=SC88A):
    memory_map = derivative.memory_map()
    asm = Assembler()
    obj = asm.assemble_source(f"_main:\n{body}", "t.asm")
    return Linker(
        text_base=memory_map.text_base, data_base=memory_map.data_base
    ).link([obj])


def reporting_body(magic: int, pins: int) -> str:
    memory_map = SC88A.memory_map()
    register_map = SC88A.register_map()
    return (
        f"    LOAD d0, {magic:#x}\n"
        f"    STORE [{memory_map.result_address:#x}], d0\n"
        "    LOAD d1, 3\n"
        f"    STORE [{register_map.register_address('GPIO.GPIO_DIR'):#x}], d1\n"
        f"    LOAD d1, {pins}\n"
        f"    STORE [{register_map.register_address('GPIO.GPIO_OUT'):#x}], d1\n"
        "    HALT\n"
    )


PASS_IMAGE = build_image(reporting_body(PASS_MAGIC, 0b11))
FAIL_IMAGE = build_image(reporting_body(FAIL_MAGIC, 0b01))


class TestRegistry:
    def test_six_platforms(self):
        assert len(PLATFORM_CLASSES) == 6
        assert set(PLATFORM_CLASSES) == {
            "golden", "rtl", "gatelevel", "accelerator", "bondout", "silicon",
        }

    def test_make_platform(self):
        assert isinstance(make_platform("golden"), GoldenModel)
        with pytest.raises(KeyError, match="available"):
            make_platform("fpga")

    def test_all_platforms_golden_first(self):
        fleet = all_platforms()
        assert isinstance(fleet[0], GoldenModel)
        assert len(fleet) == 6


class TestVerdicts:
    @pytest.mark.parametrize("name", sorted(PLATFORM_CLASSES))
    def test_pass_verdict_on_every_platform(self, name):
        result = make_platform(name).run(PASS_IMAGE, SC88A)
        assert result.status is RunStatus.PASS, name

    @pytest.mark.parametrize("name", sorted(PLATFORM_CLASSES))
    def test_fail_verdict_on_every_platform(self, name):
        result = make_platform(name).run(FAIL_IMAGE, SC88A)
        assert result.status is RunStatus.FAIL, name

    def test_timeout(self):
        image = build_image("loop:\n    JMP loop\n")
        result = GoldenModel().run(image, SC88A, max_instructions=100)
        assert result.status is RunStatus.TIMEOUT

    def test_fault_on_unhandled_trap(self):
        image = build_image("    TRAP 9\n    HALT\n")
        result = GoldenModel().run(image, SC88A)
        assert result.status is RunStatus.FAULT
        assert "unhandled trap" in result.fault_reason

    def test_watchdog_status(self):
        register_map = SC88A.register_map()
        wdt_ctrl = register_map.register_address("WDT.WDT_CTRL")
        image = build_image(
            f"    LOAD d1, 1 | (50 << 8)\n"
            f"    STORE [{wdt_ctrl:#x}], d1\n"
            "loop:\n    JMP loop\n"
        )
        result = GoldenModel().run(image, SC88A)
        assert result.status is RunStatus.WATCHDOG

    def test_silicon_no_data_without_pins(self):
        image = build_image(f"    LOAD d0, {PASS_MAGIC:#x}\n    HALT\n")
        result = ProductSilicon().run(image, SC88A)
        assert result.status is RunStatus.NO_DATA
        # ... while the golden model still sees the register signature.
        assert GoldenModel().run(image, SC88A).status is RunStatus.PASS


class TestVisibility:
    def test_golden_sees_everything(self):
        result = GoldenModel().run(PASS_IMAGE, SC88A)
        assert result.signature == PASS_MAGIC
        assert result.result_word == PASS_MAGIC
        assert result.registers["d0"] == PASS_MAGIC
        assert result.trace is not None

    def test_accelerator_hides_registers(self):
        result = Accelerator().run(PASS_IMAGE, SC88A)
        assert result.signature is None
        assert result.registers is None
        assert result.result_word == PASS_MAGIC

    def test_silicon_pins_only(self):
        result = ProductSilicon().run(PASS_IMAGE, SC88A)
        assert result.signature is None
        assert result.result_word is None
        assert (result.done_pin, result.pass_pin) == (1, 1)

    def test_bondout_debug_port(self):
        result = Bondout().run(PASS_IMAGE, SC88A)
        assert result.registers is not None
        assert result.trace is None


class TestTimingModels:
    def test_rtl_charges_wait_states(self):
        golden = GoldenModel().run(PASS_IMAGE, SC88A)
        rtl = RtlSim().run(PASS_IMAGE, SC88A)
        assert rtl.instructions == golden.instructions
        assert rtl.cycles > golden.cycles

    def test_relative_speed_ordering(self):
        # golden > accelerator > rtl > gatelevel in simulation speed.
        assert GoldenModel.relative_speed > RtlSim.relative_speed
        assert RtlSim.relative_speed > GateLevelSim.relative_speed


class TestFaultInjection:
    def test_clean_gatelevel_matches_golden(self):
        clean = GateLevelSim().run(PASS_IMAGE, SC88A)
        assert clean.status is RunStatus.PASS

    def test_fault_changes_behaviour(self):
        image = build_image(
            "    LOAD d1, 0\n"
            "    INSERT d1, d1, 3, 0, 5\n"
            "    CMPI d1, 3\n"
            "    JZ good\n"
            + reporting_body(FAIL_MAGIC, 0b01)
            + "good:\n"
            + reporting_body(PASS_MAGIC, 0b11)
        )
        fault = NetlistFault(
            opcode=int(Opcode.INSERT), xor_mask=0x4, description="bad bit 2"
        )
        assert GateLevelSim().run(image, SC88A).status is RunStatus.PASS
        assert (
            GateLevelSim(fault=fault).run(image, SC88A).status
            is RunStatus.FAIL
        )

    def test_fault_limited_to_opcode(self):
        fault = NetlistFault(opcode=int(Opcode.MUL), xor_mask=0xFF)
        result = GateLevelSim(fault=fault).run(PASS_IMAGE, SC88A)
        assert result.status is RunStatus.PASS  # no MUL in the image


class TestRunResult:
    def test_verdict_key_is_status_only(self):
        golden = GoldenModel().run(PASS_IMAGE, SC88A)
        silicon = ProductSilicon().run(PASS_IMAGE, SC88A)
        assert golden.verdict_key() == silicon.verdict_key()

    def test_passed_helper(self):
        assert GoldenModel().run(PASS_IMAGE, SC88A).passed
        assert not GoldenModel().run(FAIL_IMAGE, SC88A).passed

    def test_last_soc_inspectable(self):
        platform = GoldenModel()
        platform.run(PASS_IMAGE, SC88A)
        assert platform.last_soc is not None
        assert platform.last_soc.result_word() == PASS_MAGIC

    def test_bus_trace_recording(self):
        platform = GoldenModel()
        platform.record_bus_trace = True
        platform.run(PASS_IMAGE, SC88A)
        assert platform.last_bus_trace
        kinds = {access.kind for access in platform.last_bus_trace}
        assert kinds == {"read", "write"}


#: A cell for the fault-hooked engine: word and byte loads and stores
#: to RAM, the four faulted ALU operations in a hot loop, and a timer
#: interrupt that lands in the middle of it.
HOOKED_CELL_SOURCE = """\
.INCLUDE Globals.inc
_main:
    LOAD a11, IRQ_COUNT_ADDR
    LOAD d11, 0
    ST.W [a11], d11
    LOAD d4, IRQ_LINE_TIMER_MASK
    CALL Base_Enable_IRQ
    LOAD a4, TIM_RELOAD_ADDR
    LOAD d4, 250
    CALL Base_Init_Register
    LOAD a4, TIM_CTRL_ADDR
    LOAD d4, TIMER_CTRL_IRQ_VALUE
    CALL Base_Init_Register
    LOAD a5, 0x10008000
    LOAD d1, 0x1234
    LOAD d2, 7
    LOAD d8, 0
    LOAD d9, 60
loop:
    ADD d1, d1, d2
    MUL d3, d1, d2
    XOR d8, d8, d3
    INSERT d3, d1, 5, 4, 4
    SETB d3, 9
    ST.W [a5 + 0], d3
    ST.B [a5 + 5], d1
    LD.W d7, [a5 + 0]
    LD.B d6, [a5 + 5]
    ADD d8, d8, d7
    XOR d8, d8, d6
    DJNZ d9, loop
    DI
    STORE [0x10008010], d8
    LOAD d4, [IRQ_COUNT_ADDR]
    CMPI d4, 2
    JLT Base_Report_Fail
    JMP Base_Report_Pass
"""

#: Faulted opcode -> the result bits its netlist fault flips.
HOOKED_FAULTS = {
    Opcode.ADD: 0x10,
    Opcode.INSERT: 0x4,
    Opcode.SETB: 0x1,
    Opcode.MUL: 0x100,
}


@pytest.fixture(scope="module")
def hooked_cell_image():
    from repro.core.environment import ModuleTestEnvironment, TestCell
    from repro.core.targets import target

    env = ModuleTestEnvironment("HOOKED")
    env.add_test(TestCell(name="TEST_HOOKED_ALU", source=HOOKED_CELL_SOURCE))
    return env.build_image("TEST_HOOKED_ALU", SC88A, target("gatelevel")).image


def run_gatelevel(image, fault, **engine):
    """One gate-level run with its bus recorded; returns the result
    payload, the bus trace and the session's engine counters."""
    from repro.core.scheduler import result_to_payload
    from repro.platforms import ExecutionSession

    platform = GateLevelSim(fault=fault)
    platform.record_bus_trace = True
    session = ExecutionSession(platform, SC88A, **engine)
    result = session.run(image, max_instructions=20_000)
    return (
        result_to_payload(result),
        platform.last_bus_trace.raw(),
        session.stats(),
    )


class TestFaultHookedEngine:
    """A core with an ALU fault hook runs every instruction on the
    reference interpreter, so the default engine and the oracle
    (``use_superblocks=False``) agree on faulted runs byte for byte."""

    @pytest.mark.parametrize(
        "opcode", list(HOOKED_FAULTS), ids=lambda op: op.name
    )
    def test_hooked_default_engine_matches_reference(
        self, hooked_cell_image, opcode
    ):
        fault = NetlistFault(
            opcode=int(opcode), xor_mask=HOOKED_FAULTS[opcode]
        )
        payload, bus, stats = run_gatelevel(hooked_cell_image, fault)
        oracle, oracle_bus, _ = run_gatelevel(
            hooked_cell_image, fault, use_superblocks=False
        )
        assert payload["trace"] and payload["trace"] == oracle["trace"]
        assert payload["cycles"] == oracle["cycles"]
        assert bus and bus == oracle_bus
        assert payload == oracle
        assert stats["sb_blocks"] == 0
        # The fault reached the run: it differs from an unfaulted one.
        clean, _, _ = run_gatelevel(hooked_cell_image, None)
        assert clean["status"] == "pass"
        assert payload != clean
