"""Workload generators: the directed tests of the reproduction.

Each generator renders the *same test intent* in two coding styles:

- **ADVM style** — the test references only ``Globals.inc`` defines and
  ``Base_*`` functions; it is derivative- and target-independent and is
  what populates the module test environments;
- **hardwired style** — the ablation baseline: every value is a literal
  resolved for one specific (derivative, target), base functions are
  inlined, and firmware is called directly.  This is the coding style the
  paper's methodology replaces, and the porting benchmarks measure the
  difference.

Both styles are produced from one parametric template, so they are
semantically identical by construction; the hardwired renderer pulls its
literals from :meth:`repro.core.defines.GlobalDefines.resolved_for`, the
same table the ADVM build resolves through the assembler.
"""

from __future__ import annotations

from repro.core.defines import GlobalDefines
from repro.core.environment import (
    GlobalLayer,
    ModuleTestEnvironment,
    TestCell,
)
from repro.core.targets import Target, all_targets
from repro.soc.derivatives import Derivative, all_derivatives
from repro.soc.device import FAIL_MAGIC, PASS_MAGIC
from repro.soc.memorymap import NVM_PAGE_BYTES

PATTERN_SEED = 0x5EED_0100

#: Pages chosen to be valid on the *narrowest* derivative (32 pages), so
#: one test suite runs everywhere — distinct per test for coverage.
def page_for_test(index: int) -> int:
    return (7 + 3 * index) % 32


# --------------------------------------------------------------------------
# NVM page tests (the Figure 6 workload)
# --------------------------------------------------------------------------

def nvm_test_advm(index: int) -> TestCell:
    """Figure 6's test shape: select a page via the abstraction layer,
    program a pattern, verify the array contents."""
    source = f"""\
;; Code for test {index} -- program and verify an NVM page (Figure 6)
.INCLUDE Globals.inc
TEST_PAGE .EQU TEST{index}_TARGET_PAGE     ;; local control placeholder
_main:
    ;; create the control value exactly as Figure 6 shows
    LOAD d14, 0
    INSERT d14, d14, TEST_PAGE, PAGE_FIELD_START_POSITION, PAGE_FIELD_SIZE
    LOAD a11, NVM_CTRL_ADDR
    ST.W [a11], d14
    ;; stage a recognisable word in the page buffer
    LOAD d4, 0
    LOAD d5, PATTERN_SEED + {index}
    CALL Base_NVM_Write_Buffer_Word
    ;; program via the base functions and check status
    LOAD d4, TEST_PAGE
    CALL Base_NVM_Program_Page
    CMPI d2, 0
    JNZ test_fail
    ;; read back from the memory-mapped array and verify
    LOAD a4, NVM_ARRAY_BASE + TEST_PAGE * NVM_PAGE_BYTES
    LD.W d4, [a4]
    LOAD d5, PATTERN_SEED + {index}
    CALL Base_Check_EQ
    JMP Base_Report_Pass
test_fail:
    JMP Base_Report_Fail
"""
    return TestCell(
        name=f"TEST_NVM_PAGE_{index:03d}",
        source=source,
        description=f"program/verify NVM page (pattern {index})",
        testplan_ids=(f"NVM_{index:03d}",),
    )


def nvm_test_hardwired(
    index: int,
    defines: GlobalDefines,
    derivative: Derivative,
    tgt: Target,
) -> str:
    """The same test with every value hardwired for one derivative."""
    table = defines.resolved_for(derivative, tgt)
    page = page_for_test(index)
    pattern = PATTERN_SEED + index
    pos = table["PAGE_FIELD_START_POSITION"]
    width = table["PAGE_FIELD_SIZE"]
    cmd_pos = table["NVM_CMD_FIELD_POS"]
    cmd_width = table["NVM_CMD_FIELD_SIZE"]
    page_address = table["NVM_ARRAY_BASE"] + page * NVM_PAGE_BYTES
    return f"""\
;; test {index} hardwired for {derivative.name}/{tgt.name} (no abstraction)
_main:
    LOAD d14, 0
    INSERT d14, d14, {page}, {pos}, {width}
    LOAD a11, {table['NVM_CTRL_ADDR']:#x}
    ST.W [a11], d14
    LOAD a11, {table['NVM_ADDRREG_ADDR']:#x}
    LOAD d11, 0
    ST.W [a11], d11
    LOAD a11, {table['NVM_DATA_ADDR']:#x}
    LOAD d11, {pattern:#x}
    ST.W [a11], d11
    INSERT d14, d14, 1, {cmd_pos}, {cmd_width}
    SETB d14, {table['NVM_START_BIT_POS']}
    LOAD a11, {table['NVM_CTRL_ADDR']:#x}
    ST.W [a11], d14
    LOAD d13, {table['POLL_LIMIT']}
    LOAD a11, {table['NVM_STAT_ADDR']:#x}
test_poll:
    LD.W d2, [a11]
    TSTB d2, {table['NVM_STAT_BUSY_BIT']}
    JZ test_settle
    DJNZ d13, test_poll
    JMP test_fail
test_settle:
    LD.W d2, [a11]
    TSTB d2, {table['NVM_STAT_ERR_BIT']}
    JNZ test_fail
    LOAD a4, {page_address:#x}
    LD.W d4, [a4]
    LOAD d5, {pattern:#x}
    CMP d4, d5
    JNZ test_fail
    LOAD d0, {PASS_MAGIC:#x}
    STORE [{table['RESULT_ADDR']:#x}], d0
    LOAD d1, 3
    STORE [{table['GPIO_DIR_ADDR']:#x}], d1
    STORE [{table['GPIO_OUT_ADDR']:#x}], d1
    HALT
test_fail:
    LOAD d0, {FAIL_MAGIC:#x}
    STORE [{table['RESULT_ADDR']:#x}], d0
    LOAD d1, 3
    STORE [{table['GPIO_DIR_ADDR']:#x}], d1
    LOAD d1, 1
    STORE [{table['GPIO_OUT_ADDR']:#x}], d1
    HALT
"""


# --------------------------------------------------------------------------
# Register-init tests (the Figure 7 workload)
# --------------------------------------------------------------------------

def reginit_test_advm(index: int, register_define: str) -> TestCell:
    """Figure 7's test shape: initialise a register through the wrapped
    embedded-software function, then verify."""
    source = f"""\
;; Code for test {index} -- register init via firmware wrapper (Figure 7)
.INCLUDE Globals.inc
_main:
    LOAD a4, {register_define}
    LOAD d4, REG_TEST_VALUE_{index}
    CALL Base_Init_Register
    LOAD d4, [{register_define}]
    LOAD d5, REG_TEST_VALUE_{index}
    CALL Base_Check_EQ
    JMP Base_Report_Pass
"""
    return TestCell(
        name=f"TEST_REG_INIT_{index:03d}",
        source=source,
        description=f"init {register_define} via firmware and verify",
        testplan_ids=(f"REG_{index:03d}",),
    )


def reginit_test_hardwired(
    index: int,
    register_define: str,
    value: int,
    defines: GlobalDefines,
    derivative: Derivative,
    tgt: Target,
) -> str:
    """Baseline: calls the firmware entry point directly with literal
    registers — the Figure 2 'abuse' that porting must then repair."""
    table = defines.resolved_for(derivative, tgt)
    address = table[register_define]
    abi = derivative.es_abi
    return f"""\
;; test {index} hardwired for {derivative.name}: direct firmware call
_main:
    LOAD {abi.init_addr_reg}, {address:#x}
    LOAD {abi.init_value_reg}, {value:#x}
    LOAD A12, {abi.init_register_symbol}
    CALL A12
    LOAD d4, [{address:#x}]
    LOAD d5, {value:#x}
    CMP d4, d5
    JNZ test_fail
    LOAD d0, {PASS_MAGIC:#x}
    STORE [{table['RESULT_ADDR']:#x}], d0
    LOAD d1, 3
    STORE [{table['GPIO_DIR_ADDR']:#x}], d1
    STORE [{table['GPIO_OUT_ADDR']:#x}], d1
    HALT
test_fail:
    LOAD d0, {FAIL_MAGIC:#x}
    STORE [{table['RESULT_ADDR']:#x}], d0
    LOAD d1, 3
    STORE [{table['GPIO_DIR_ADDR']:#x}], d1
    LOAD d1, 1
    STORE [{table['GPIO_OUT_ADDR']:#x}], d1
    HALT
"""


# --------------------------------------------------------------------------
# UART / timer / watchdog / data-path tests
# --------------------------------------------------------------------------

def uart_loopback_test(index: int) -> TestCell:
    byte = 0x41 + (index % 26)  # 'A'..'Z'
    source = f"""\
;; UART loopback test {index}
.INCLUDE Globals.inc
TEST_BYTE .EQU {byte:#x}
_main:
    CALL Base_UART_Enable_Loopback
    LOAD d4, TEST_BYTE
    CALL Base_UART_Send
    CALL Base_UART_Recv
    MOV d4, d2
    LOAD d5, TEST_BYTE
    CALL Base_Check_EQ
    JMP Base_Report_Pass
"""
    return TestCell(
        name=f"TEST_UART_LOOP_{index:03d}",
        source=source,
        description=f"UART loopback of byte {byte:#x}",
        testplan_ids=(f"UART_{index:03d}",),
    )


def uart_banner_test() -> TestCell:
    source = """\
;; UART banner: visible on every platform with a serial pod
.INCLUDE Globals.inc
_main:
    CALL Base_UART_Enable
    LOAD a4, banner
    CALL Base_UART_Print
    JMP Base_Report_Pass
.SECTION data
banner:
    .ASCIIZ "ADVM"
"""
    return TestCell(
        name="TEST_UART_BANNER",
        source=source,
        description="print a banner over the UART",
        testplan_ids=("UART_900",),
    )


def timer_delay_test(index: int, ticks: int = 50) -> TestCell:
    source = f"""\
;; timer one-shot delay test {index}
.INCLUDE Globals.inc
TEST_TICKS .EQU {ticks}
_main:
    LOAD d4, TEST_TICKS
    CALL Base_Timer_Delay
    ;; the timer must be stopped again afterwards
    LOAD d4, [TIM_CTRL_ADDR]
    LOAD d5, 0
    CALL Base_Check_EQ
    JMP Base_Report_Pass
"""
    return TestCell(
        name=f"TEST_TIMER_DELAY_{index:03d}",
        source=source,
        description=f"one-shot delay of {ticks} ticks",
        testplan_ids=(f"TIMER_{index:03d}",),
    )


def spin_burn_test(index: int, loops: int = 4096) -> TestCell:
    """Calibrated busy-wait: burn *loops* pure-spin iterations, verify
    the counter ran to zero.  The delay shape embedded software uses
    between device operations — and the worst case for an emulator that
    retires every iteration, which is exactly what the idle fast-forward
    exists to elide."""
    source = f"""\
;; busy-wait burn test {index}: {loops} pure spin iterations
.INCLUDE Globals.inc
SPIN_LOOPS .EQU {loops}
_main:
    LOAD d4, SPIN_LOOPS
    CALL Base_Spin
    ;; the spin counter must have run down to exactly zero
    MOV d4, d11
    LOAD d5, 0
    CALL Base_Check_EQ
    JMP Base_Report_Pass
"""
    return TestCell(
        name=f"TEST_SPIN_BURN_{index:03d}",
        source=source,
        description=f"pure busy-wait of {loops} spin iterations",
        testplan_ids=(f"DELAY_{index:03d}",),
    )


_WORD = 0xFFFF_FFFF


def _xorshift_checksum(seed: int, loops: int) -> int:
    """Python mirror of the ``compute_burn_test`` kernel: xorshift32
    state updates with a running additive checksum, all arithmetic
    masked to the 32-bit register width."""
    x = seed & _WORD
    acc = 0
    for _ in range(loops):
        x ^= (x << 13) & _WORD
        x ^= x >> 17
        x ^= (x << 5) & _WORD
        acc = (acc + x) & _WORD
    return acc


def compute_burn_test(
    index: int, loops: int = 4096, seed: int = PATTERN_SEED
) -> TestCell:
    """ALU-saturated burn: *loops* xorshift32 rounds with a running
    checksum, verified against the Python mirror of the kernel.  Every
    iteration does real data-dependent arithmetic, so no closed form
    (and no idle fast-forward) applies — an emulator goes faster here
    only by retiring the ALU work itself faster."""
    expect = _xorshift_checksum(seed, loops)
    source = f"""\
;; compute burn test {index}: {loops} xorshift32+checksum rounds
.INCLUDE Globals.inc
COMPUTE_LOOPS .EQU {loops}
COMPUTE_SEED .EQU {seed:#x}
COMPUTE_EXPECT .EQU {expect:#x}
_main:
    LOAD d2, COMPUTE_SEED
    LOAD d3, 0
    LOAD d6, COMPUTE_LOOPS
compute_loop:
    SHLI d4, d2, 13
    XOR d2, d2, d4
    SHRI d5, d2, 17
    XOR d2, d2, d5
    SHLI d4, d2, 5
    XOR d2, d2, d4
    ADD d3, d3, d2
    DJNZ d6, compute_loop
    MOV d4, d3
    LOAD d5, COMPUTE_EXPECT
    CALL Base_Check_EQ
    JMP Base_Report_Pass
"""
    return TestCell(
        name=f"TEST_COMPUTE_BURN_{index:03d}",
        source=source,
        description=f"{loops} xorshift32 rounds with checksum",
        testplan_ids=(f"COMPUTE_{index:03d}",),
    )


def timer_irq_test() -> TestCell:
    source = """\
;; timer interrupt test: two ticks must be counted by the global handler
.INCLUDE Globals.inc
_main:
    ;; clear the IRQ counter
    LOAD a11, IRQ_COUNT_ADDR
    LOAD d11, 0
    ST.W [a11], d11
    LOAD d4, IRQ_LINE_TIMER_MASK
    CALL Base_Enable_IRQ
    ;; free-running timer with interrupt enable
    LOAD a4, TIM_RELOAD_ADDR
    LOAD d4, 40
    CALL Base_Init_Register
    LOAD a4, TIM_CTRL_ADDR
    LOAD d4, TIMER_CTRL_IRQ_VALUE
    CALL Base_Init_Register
    ;; wait until the global handler has counted two interrupts
    LOAD d13, POLL_LIMIT
test_spin:
    LOAD d4, [IRQ_COUNT_ADDR]
    CMPI d4, 2
    JGE test_enough
    DJNZ d13, test_spin
    JMP Base_Report_Fail
test_enough:
    ;; stop the timer via the firmware path
    LOAD a4, TIM_CTRL_ADDR
    LOAD d4, 0
    CALL Base_Init_Register
    DI
    JMP Base_Report_Pass
"""
    return TestCell(
        name="TEST_TIMER_IRQ",
        source=source,
        description="timer interrupts are delivered and counted",
        testplan_ids=("TIMER_900",),
    )


def watchdog_service_test() -> TestCell:
    source = """\
;; watchdog: enable with a short timeout and keep it serviced
.INCLUDE Globals.inc
WDT_TEST_CTRL .EQU 1 | (4000 << 8)    ;; EN | timeout=4000 cycles
_main:
    LOAD a4, WDT_CTRL_ADDR
    LOAD d4, WDT_TEST_CTRL
    CALL Base_Init_Register
    LOAD d12, 5                       ;; service five times
test_loop:
    LOAD d4, 20
    CALL Base_Timer_Delay
    CALL Base_WDT_Service
    DJNZ d12, test_loop
    ;; the counter must have been reloaded recently (> 0)
    LOAD d4, [WDT_CNT_ADDR]
    CMPI d4, 0
    JZ Base_Report_Fail
    JMP Base_Report_Pass
"""
    return TestCell(
        name="TEST_WDT_SERVICE",
        source=source,
        description="watchdog stays serviced through delays",
        testplan_ids=("WDT_001",),
    )


def pattern_block_test(index: int, words: int = 16) -> TestCell:
    source = f"""\
;; data-path test {index}: fill two RAM blocks and compare via wrappers
.INCLUDE Globals.inc
BLOCK_WORDS .EQU {words}
_main:
    LOAD a4, SCRATCH_ADDR
    LOAD d4, PATTERN_SEED
    LOAD d5, BLOCK_WORDS
    CALL Base_Fill_Pattern
    LOAD a4, SCRATCH_ADDR + BLOCK_WORDS * 4
    LOAD d4, PATTERN_SEED
    LOAD d5, BLOCK_WORDS
    CALL Base_Fill_Pattern
    LOAD a4, SCRATCH_ADDR
    LOAD a5, SCRATCH_ADDR + BLOCK_WORDS * 4
    LOAD d4, BLOCK_WORDS
    CALL Base_Compare_Block
    MOV d4, d2
    LOAD d5, 0
    CALL Base_Check_EQ
    ;; checksum must be stable and non-zero for this pattern
    LOAD a4, SCRATCH_ADDR
    LOAD d4, BLOCK_WORDS
    CALL Base_Checksum
    CMPI d2, 0
    JZ Base_Report_Fail
    JMP Base_Report_Pass
"""
    return TestCell(
        name=f"TEST_PATTERN_BLOCK_{index:03d}",
        source=source,
        description=f"pattern fill/compare/checksum over {words} words",
        testplan_ids=(f"DATA_{index:03d}",),
    )


def register_rw_test(index: int, register_define: str, pattern: int) -> TestCell:
    source = f"""\
;; register read/write test {index}: {register_define}
.INCLUDE Globals.inc
TEST_PATTERN .EQU {pattern:#x}
_main:
    LOAD a4, {register_define}
    LOAD d4, TEST_PATTERN
    CALL Base_Init_Register
    LOAD d4, [{register_define}]
    LOAD d5, TEST_PATTERN
    CALL Base_Check_EQ
    JMP Base_Report_Pass
"""
    return TestCell(
        name=f"TEST_REG_RW_{index:03d}",
        source=source,
        description=f"walk pattern {pattern:#x} through {register_define}",
        testplan_ids=(f"REGRW_{index:03d}",),
    )


# --------------------------------------------------------------------------
# Environment factories (the module environments of Figure 5)
# --------------------------------------------------------------------------

def make_nvm_environment(
    num_tests: int = 4,
    derivatives: list[Derivative] | None = None,
    targets: list[Target] | None = None,
    global_layer: GlobalLayer | None = None,
    page_overrides: dict[int, int] | None = None,
) -> ModuleTestEnvironment:
    """The paper's NVM module environment with *num_tests* page tests."""
    derivatives = list(derivatives or all_derivatives())
    extras: dict[str, int] = {"PATTERN_SEED": PATTERN_SEED}
    for index in range(1, num_tests + 1):
        page = (page_overrides or {}).get(index, page_for_test(index))
        extras[f"TEST{index}_TARGET_PAGE"] = page
    env = ModuleTestEnvironment(
        "NVM",
        derivatives=derivatives,
        targets=targets,
        extras=extras,
        global_layer=global_layer,
    )
    for index in range(1, num_tests + 1):
        env.add_test(nvm_test_advm(index))
    return env


#: Registers the register-init environment exercises, with test patterns
#: sized to the narrowest derivative's field widths.
REGINIT_TARGETS: list[tuple[str, int]] = [
    ("UART_BAUD_ADDR", 0x0000_1234),
    ("TIM_RELOAD_ADDR", 0x000A_BCDE),
    ("GPIO_OUT_ADDR", 0x0000_A5A5),
    ("INT_EN_ADDR", 0x0000_0003),
]


def make_reginit_environment(
    derivatives: list[Derivative] | None = None,
    targets: list[Target] | None = None,
    global_layer: GlobalLayer | None = None,
) -> ModuleTestEnvironment:
    """The Figure 7 environment: firmware-based register initialisation."""
    extras = {
        f"REG_TEST_VALUE_{i + 1}": value
        for i, (_, value) in enumerate(REGINIT_TARGETS)
    }
    env = ModuleTestEnvironment(
        "REGINIT",
        derivatives=derivatives,
        targets=targets,
        extras=extras,
        global_layer=global_layer,
    )
    for i, (register_define, _) in enumerate(REGINIT_TARGETS):
        env.add_test(reginit_test_advm(i + 1, register_define))
    return env


def make_uart_environment(
    num_tests: int = 3,
    derivatives: list[Derivative] | None = None,
    targets: list[Target] | None = None,
    global_layer: GlobalLayer | None = None,
) -> ModuleTestEnvironment:
    env = ModuleTestEnvironment(
        "UART",
        derivatives=derivatives,
        targets=targets,
        global_layer=global_layer,
    )
    for index in range(1, num_tests + 1):
        env.add_test(uart_loopback_test(index))
    env.add_test(uart_banner_test())
    return env


def make_timer_environment(
    derivatives: list[Derivative] | None = None,
    targets: list[Target] | None = None,
    global_layer: GlobalLayer | None = None,
) -> ModuleTestEnvironment:
    env = ModuleTestEnvironment(
        "TIMER",
        derivatives=derivatives,
        targets=targets,
        global_layer=global_layer,
    )
    env.add_test(timer_delay_test(1, ticks=50))
    env.add_test(timer_delay_test(2, ticks=200))
    env.add_test(timer_irq_test())
    env.add_test(watchdog_service_test())
    return env


def make_delay_environment(
    delay_ticks: tuple[int, ...] = (20_000, 60_000),
    spin_loops: tuple[int, ...] = (50_000, 200_000),
    derivatives: list[Derivative] | None = None,
    targets: list[Target] | None = None,
    global_layer: GlobalLayer | None = None,
) -> ModuleTestEnvironment:
    """Delay-heavy module environment: long one-shot timer delays plus
    pure busy-wait burns.  Wall-clock here is dominated by cycles the
    program only counts, so this is the workload the superblock engine's
    idle fast-forward is benchmarked (and equivalence-tested) on."""
    env = ModuleTestEnvironment(
        "DELAY",
        derivatives=derivatives,
        targets=targets,
        global_layer=global_layer,
    )
    for index, ticks in enumerate(delay_ticks, 1):
        env.add_test(timer_delay_test(index, ticks=ticks))
    for index, loops in enumerate(spin_loops, 1):
        env.add_test(spin_burn_test(index, loops=loops))
    return env


def make_compute_environment(
    compute_loops: tuple[int, ...] = (2_000, 20_000),
    derivatives: list[Derivative] | None = None,
    targets: list[Target] | None = None,
    global_layer: GlobalLayer | None = None,
) -> ModuleTestEnvironment:
    """Compute-heavy module environment: ALU-saturated xorshift burns
    where every retired instruction does data-dependent work.  The
    closed-form warps of the delay environment cannot elide anything
    here, so this is the workload the superblock body loop is
    equivalence-tested on."""
    env = ModuleTestEnvironment(
        "COMPUTE",
        derivatives=derivatives,
        targets=targets,
        global_layer=global_layer,
    )
    for index, loops in enumerate(compute_loops, 1):
        env.add_test(compute_burn_test(index, loops=loops))
    return env


def make_datapath_environment(
    num_tests: int = 2,
    derivatives: list[Derivative] | None = None,
    targets: list[Target] | None = None,
    global_layer: GlobalLayer | None = None,
) -> ModuleTestEnvironment:
    env = ModuleTestEnvironment(
        "DATAPATH",
        derivatives=derivatives,
        targets=targets,
        extras={"PATTERN_SEED": PATTERN_SEED},
        global_layer=global_layer,
    )
    for index in range(1, num_tests + 1):
        env.add_test(pattern_block_test(index, words=8 * index))
    return env


def make_register_environment(
    derivatives: list[Derivative] | None = None,
    targets: list[Target] | None = None,
    global_layer: GlobalLayer | None = None,
) -> ModuleTestEnvironment:
    """The 'control and status register test' class environment the
    paper gives as an example of a test-class (not module) environment."""
    env = ModuleTestEnvironment(
        "REGCHECK",
        derivatives=derivatives,
        targets=targets,
        global_layer=global_layer,
    )
    patterns = [0x0000_A5A5, 0x0000_5A5A, 0x0000_FFFF]
    registers = ["GPIO_OUT_ADDR", "UART_BAUD_ADDR", "TIM_RELOAD_ADDR"]
    index = 1
    for register_define in registers:
        for pattern in patterns:
            if register_define == "TIM_RELOAD_ADDR":
                pattern &= 0x00FF_FFFF  # narrowest timer width
            env.add_test(register_rw_test(index, register_define, pattern))
            index += 1
    return env
