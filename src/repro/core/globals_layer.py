"""The global layer: code the test-environment owner does *not* control.

Figure 4 of the paper shows the shared global layer under all module test
environments: embedded software (see :mod:`repro.soc.embedded`), customer
API functions, "good test methods", trap/interrupt handlers and useful
common functions, plus the global register definitions.

This module provides the two global *libraries* of Figure 5:

- ``Trap_Handlers.asm`` — the trap vector table plus default handlers.
  An unhandled trap fails the test visibly on every platform; the timer
  interrupt handler counts into a well-known RAM word and acknowledges
  the hardware.
- ``Global_Test_Functions.asm`` — shared helpers (pattern fill, block
  compare) that module environments *wrap* via their base functions.

Global-layer code does not include any module's ``Globals.inc`` — it is
upstream of the abstraction layer and owns its own constants.  That is
exactly why tests must not call it directly: these constants and entry
points change without notice (Figure 7's scenario).
"""

from __future__ import annotations

from repro.soc.derivatives import Derivative
from repro.soc.layouts import LINE_NVM, LINE_TIMER
from repro.soc.memorymap import FAIL_MAGIC, VECTOR_COUNT

#: Vector numbers with dedicated handlers.
TIMER_VECTOR = 8 + LINE_TIMER
NVM_VECTOR = 8 + LINE_NVM


def generate_trap_handlers(derivatives: list[Derivative]) -> str:
    """Render ``Trap_Handlers.asm`` (vector table + default handlers)."""
    sample_map = derivatives[0].memory_map()
    lines: list[str] = [
        ";; Trap_Handlers.asm -- global layer library (not module-owned).",
        ";; Installs the trap vector table and default handlers.",
        "",
        ";; private constants (the global layer owns its own values)",
        f"GL_FAIL_MAGIC .EQU {FAIL_MAGIC:#x}",
        f"GL_RESULT_ADDR .EQU {sample_map.result_address:#x}",
        f"GL_IRQ_COUNT_ADDR .EQU {sample_map.result_address + 4:#x}",
        f"GL_TRAP_ID_ADDR .EQU {sample_map.result_address + 8:#x}",
    ]
    for derivative in derivatives:
        register_map = derivative.register_map()
        lines += [
            f".IFDEF {derivative.predefine}",
            f"GL_GPIO_OUT_ADDR .EQU "
            f"{register_map.register_address('GPIO.GPIO_OUT'):#x}",
            f"GL_GPIO_DIR_ADDR .EQU "
            f"{register_map.register_address('GPIO.GPIO_DIR'):#x}",
            f"GL_TIM_STAT_ADDR .EQU "
            f"{register_map.register_address('TIMER.TIM_STAT'):#x}",
            f"GL_INT_PEND_ADDR .EQU "
            f"{register_map.register_address('INTC.INT_PEND'):#x}",
            ".ENDIF",
        ]
    lines += [
        "",
        ";; ---- vector table at the bottom of ROM ----",
        ".SECTION vectors",
        ".ORG 0",
    ]
    for vector in range(VECTOR_COUNT):
        if vector == 0:
            lines.append(".WORD 0                      ;; 0: reset (unused)")
        elif vector == TIMER_VECTOR:
            lines.append(
                f".WORD GL_IRQ_Timer_Handler   ;; {vector}: timer interrupt"
            )
        elif vector == NVM_VECTOR:
            lines.append(
                f".WORD GL_IRQ_Nvm_Handler     ;; {vector}: NVM-done interrupt"
            )
        else:
            lines.append(
                f".WORD GL_Default_Trap_Handler ;; {vector}"
            )
    lines += [
        "",
        ".SECTION text",
        ";; Any unexpected trap is a test failure on every platform.",
        "GL_Default_Trap_Handler:",
        "    LOAD d0, GL_FAIL_MAGIC",
        "    LOAD a10, GL_RESULT_ADDR",
        "    ST.W [a10], d0",
        "    LOAD a10, GL_GPIO_DIR_ADDR",
        "    LOAD d1, 3",
        "    ST.W [a10], d1",
        "    LOAD a10, GL_GPIO_OUT_ADDR",
        "    LOAD d1, 1                  ;; done=1 pass=0",
        "    ST.W [a10], d1",
        "    HALT",
        "",
        ";; Timer tick: count it, acknowledge device + controller, resume.",
        "GL_IRQ_Timer_Handler:",
        "    PUSH d6",
        "    PUSH a6",
        "    LOAD a6, GL_TIM_STAT_ADDR",
        "    LOAD d6, 1",
        "    ST.W [a6], d6               ;; W1C timer OVF",
        "    LOAD a6, GL_INT_PEND_ADDR",
        f"    LOAD d6, {1 << LINE_TIMER:#x}",
        "    ST.W [a6], d6               ;; W1C pending line",
        "    LOAD a6, GL_IRQ_COUNT_ADDR",
        "    LD.W d6, [a6]",
        "    ADDI d6, d6, 1",
        "    ST.W [a6], d6",
        "    POP a6",
        "    POP d6",
        "    RETI",
        "",
        ";; NVM operation complete: count it and acknowledge.",
        "GL_IRQ_Nvm_Handler:",
        "    PUSH d6",
        "    PUSH a6",
        "    LOAD a6, GL_INT_PEND_ADDR",
        f"    LOAD d6, {1 << LINE_NVM:#x}",
        "    ST.W [a6], d6",
        "    LOAD a6, GL_IRQ_COUNT_ADDR",
        "    LD.W d6, [a6]",
        "    ADDI d6, d6, 1",
        "    ST.W [a6], d6",
        "    POP a6",
        "    POP d6",
        "    RETI",
        "",
    ]
    return "\n".join(lines)


GLOBAL_TEST_FUNCTIONS = """\
;; Global_Test_Functions.asm -- shared helper library (global layer).
;; Module environments wrap these via Base_Functions (never call direct).

;; Fill d5 words at a4 with a rolling pattern seeded by d4.
Global_Fill_Pattern:
Global_Fill_Pattern_loop:
    ST.W [a4], d4
    ADDI d4, d4, 0x0101
    ADDA a4, a4, 4
    DJNZ d5, Global_Fill_Pattern_loop
    RETURN

;; Compare d4 words at a4 vs a5; d2 = 0 equal / 1 different.
Global_Compare_Block:
Global_Compare_Block_loop:
    LD.W d2, [a4]
    LD.W d3, [a5]
    CMP d2, d3
    JNZ Global_Compare_Block_diff
    ADDA a4, a4, 4
    ADDA a5, a5, 4
    DJNZ d4, Global_Compare_Block_loop
    LOAD d2, 0
    RETURN
Global_Compare_Block_diff:
    LOAD d2, 1
    RETURN
"""


def generate_global_test_functions() -> str:
    return GLOBAL_TEST_FUNCTIONS
