"""The ``Base_Functions.asm`` generator — the abstraction layer's library.

The paper: *"a library of functions ... common tasks that are required by
multiple tests.  Once this library has been created the development time
of new tests for this environment decreases considerably ... critically,
these functions do not contain hardwired values as they use the same
Global Defines file that is used by the tests."*

Every function below references **only** ``Globals.inc`` names.  The
global-layer entry points (embedded software ``ES_*`` and the shared
``Global_*`` library) are *wrapped*, never called from tests directly —
and the Figure 7 change (firmware renames ``ES_Init_Register`` and swaps
its input registers in derivative D) is absorbed right here in a
``.IFDEF`` block, leaving every test untouched.

Register conventions (documented for test authors):

- arguments in ``d4``/``d5`` and ``a4``/``a5``;
- results in ``d2`` (0 = success unless stated otherwise);
- ``d11``/``d13``/``a11`` are base-function scratch — tests must not
  keep live values there across a ``CALL``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.soc.embedded import es_abi

if TYPE_CHECKING:
    from repro.soc.derivatives import Derivative

HEADER = """\
;; Base_Functions.asm -- ADVM abstraction layer function library.
;; Functions use only Globals.inc names; no hardwired values (Figure 2).
.INCLUDE Globals.inc
"""

REPORTING = """\
;; ---- result reporting -------------------------------------------------
;; Deposits the verdict everywhere any platform can see it: d0 signature,
;; RAM result word, GPIO done/pass pins; then halts.
Base_Report_Pass:
    LOAD d0, PASS_MAGIC
    LOAD a11, RESULT_ADDR
    ST.W [a11], d0
    LOAD a11, GPIO_DIR_ADDR
    LOAD d11, GPIO_REPORT_MASK
    ST.W [a11], d11
    LOAD a11, GPIO_OUT_ADDR
    LOAD d11, GPIO_REPORT_MASK      ;; done=1 pass=1
    ST.W [a11], d11
    HALT

Base_Report_Fail:
    LOAD d0, FAIL_MAGIC
    LOAD a11, RESULT_ADDR
    ST.W [a11], d0
    LOAD a11, GPIO_DIR_ADDR
    LOAD d11, GPIO_REPORT_MASK
    ST.W [a11], d11
    LOAD a11, GPIO_OUT_ADDR
    LOAD d11, GPIO_DONE_MASK        ;; done=1 pass=0
    ST.W [a11], d11
    HALT

;; Compare d4 against d5; report failure and halt on mismatch.
Base_Check_EQ:
    CMP d4, d5
    JNZ Base_Report_Fail
    RETURN
"""


def _init_register_wrapper(derivatives: list[Derivative]) -> str:
    """The Figure 7 wrapper, with per-derivative ``.IFDEF`` adaptation.

    Canonical ABI (what tests see, forever): address in ``a4``, value in
    ``d4``.  Firmware v2 renamed the entry point and moved the inputs to
    ``a5``/``d5``; the wrapper re-maps.
    """
    v2_derivatives = [d for d in derivatives if d.es_version == 2]
    lines = [
        ";; ---- embedded-software wrappers (Figure 7) ----------------------",
        ";; Initialise a register via firmware: a4 = address, d4 = value.",
        "Base_Init_Register:",
    ]
    if v2_derivatives:
        condition = v2_derivatives[0].predefine
        lines += [
            f".IFDEF {condition}",
            "    ;; firmware v2: entry renamed, inputs swapped to a5/d5",
            "    MOV a5, a4",
            "    MOV d5, d4",
            f"    LOAD CallAddr, {es_abi(2).init_register_symbol}",
            "    CALL CallAddr",
            ".ELSE",
            f"    LOAD CallAddr, {es_abi(1).init_register_symbol}",
            "    CALL CallAddr",
            ".ENDIF",
        ]
        # Additional v2 derivatives share the same block via the guard
        # below; generate a chain if more than one exists.
        for extra in v2_derivatives[1:]:
            # Defensive: the simple .IFDEF above keys on the first v2
            # derivative only; emit an .ERROR if others appear unhandled.
            lines += [
                f".IFDEF {extra.predefine}",
                '.ERROR "Base_Init_Register: unhandled v2 derivative"',
                ".ENDIF",
            ]
    else:
        lines += [
            f"    LOAD CallAddr, {es_abi(1).init_register_symbol}",
            "    CALL CallAddr",
        ]
    lines += [
        "    RETURN",
        "",
        ";; Firmware version into d2.",
        "Base_Get_ES_Version:",
        "    LOAD CallAddr, ES_Get_Version",
        "    CALL CallAddr",
        "    RETURN",
        "",
    ]
    return "\n".join(lines)


NVM_FUNCTIONS = """\
;; ---- NVM page programming (Figure 6 machinery) ---------------------------
;; Select a page: read-modify-write the PAGE field. d4 = page number.
Base_Select_Page:
    LOAD a11, NVM_CTRL_ADDR
    LD.W d11, [a11]
    INSERTR d11, d11, d4, PAGE_FIELD_START_POSITION, PAGE_FIELD_SIZE
    ST.W [a11], d11
    RETURN

;; Stage one word of page data: d4 = byte offset, d5 = value.
Base_NVM_Write_Buffer_Word:
    LOAD a11, NVM_ADDRREG_ADDR
    ST.W [a11], d4
    LOAD a11, NVM_DATA_ADDR
    ST.W [a11], d5
    RETURN

;; Execute an NVM command: d4 = page, d5 = command; d2 = 0 ok / 1 fail.
Base_NVM_Execute:
    LOAD d11, 0
    INSERTR d11, d11, d4, PAGE_FIELD_START_POSITION, PAGE_FIELD_SIZE
    INSERTR d11, d11, d5, NVM_CMD_FIELD_POS, NVM_CMD_FIELD_SIZE
    SETB d11, NVM_START_BIT_POS
    LOAD a11, NVM_CTRL_ADDR
    ST.W [a11], d11
    LOAD d13, POLL_LIMIT
    LOAD a11, NVM_STAT_ADDR
Base_NVM_Execute_poll:
    LD.W d2, [a11]
    TSTB d2, NVM_STAT_BUSY_BIT
    JZ Base_NVM_Execute_settle
    DJNZ d13, Base_NVM_Execute_poll
    LOAD d2, 1                      ;; poll budget exhausted
    RETURN
Base_NVM_Execute_settle:
    LD.W d2, [a11]
    TSTB d2, NVM_STAT_ERR_BIT
    JNZ Base_NVM_Execute_fail
    LOAD d2, 0
    RETURN
Base_NVM_Execute_fail:
    LOAD d2, 1
    RETURN

;; Program the staged buffer into page d4; d2 = 0 ok / 1 fail.
Base_NVM_Program_Page:
    LOAD d5, NVM_CMD_PROG
    JMP Base_NVM_Execute

;; Erase page d4 to 0xFF; d2 = 0 ok / 1 fail.
Base_NVM_Erase_Page:
    LOAD d5, NVM_CMD_ERASE
    JMP Base_NVM_Execute
"""

UART_FUNCTIONS = """\
;; ---- UART ------------------------------------------------------------------
Base_UART_Enable_Loopback:
    LOAD a11, UART_CTRL_ADDR
    LOAD d11, UART_CTRL_LOOPBACK_VALUE
    ST.W [a11], d11
    RETURN

Base_UART_Enable:
    LOAD a11, UART_CTRL_ADDR
    LOAD d11, UART_CTRL_PLAIN_VALUE
    ST.W [a11], d11
    RETURN

;; Transmit byte d4.
Base_UART_Send:
    LOAD a11, UART_DATA_ADDR
    ST.W [a11], d4
    RETURN

;; Receive into d2; 0xFFFFFFFF on poll timeout.
Base_UART_Recv:
    LOAD d13, POLL_LIMIT
    LOAD a11, UART_STAT_ADDR
Base_UART_Recv_poll:
    LD.W d2, [a11]
    TSTB d2, UART_STAT_RXAVL_BIT
    JNZ Base_UART_Recv_ready
    DJNZ d13, Base_UART_Recv_poll
    LOAD d2, 0xFFFFFFFF
    RETURN
Base_UART_Recv_ready:
    LOAD a11, UART_DATA_ADDR
    LD.W d2, [a11]
    RETURN

;; Transmit the ASCIIZ string at a4.
Base_UART_Print:
Base_UART_Print_loop:
    LD.B d11, [a4]
    CMPI d11, 0
    JZ Base_UART_Print_done
    LOAD a11, UART_DATA_ADDR
    ST.W [a11], d11
    ADDA a4, a4, 1
    JMP Base_UART_Print_loop
Base_UART_Print_done:
    RETURN
"""

TIMER_WDT_FUNCTIONS = """\
;; ---- timer / watchdog ----------------------------------------------------
;; Burn roughly 2*d4 cycles in a pure register spin: no loads, no
;; stores, no SFR traffic.  The canonical calibrated busy-wait -- and,
;; because the loop body is a bare DJNZ, exactly the shape the
;; emulation core's idle fast-forward elides (d4 = 0 spins nothing).
Base_Spin:
    MOV d11, d4
    CMPI d11, 0
    JZ Base_Spin_done
Base_Spin_loop:
    DJNZ d11, Base_Spin_loop
Base_Spin_done:
    RETURN

;; Block for d4 timer ticks (one-shot), then stop the timer.  Between
;; status polls the function burns DELAY_LOOPS iterations in a pure
;; spin (per-target calibration from Globals.inc): hammering TIM_STAT
;; every few cycles is bus noise a real delay loop avoids, and the
;; spin is idle-loop-shaped so emulation fast-forwards it.
Base_Timer_Delay:
    LOAD a11, TIM_RELOAD_ADDR
    ST.W [a11], d4
    LOAD a11, TIM_STAT_ADDR
    LOAD d11, 1
    ST.W [a11], d11                 ;; clear stale OVF (W1C)
    LOAD a11, TIM_CTRL_ADDR
    LOAD d11, TIMER_CTRL_ONESHOT_VALUE
    ST.W [a11], d11
    LOAD d13, POLL_LIMIT
    LOAD a11, TIM_STAT_ADDR
Base_Timer_Delay_poll:
    LOAD d11, DELAY_LOOPS
Base_Timer_Delay_spin:
    DJNZ d11, Base_Timer_Delay_spin ;; idle superblock: fast-forwarded
    LD.W d11, [a11]
    TSTB d11, 0
    JNZ Base_Timer_Delay_done
    DJNZ d13, Base_Timer_Delay_poll
Base_Timer_Delay_done:
    LOAD d11, 1
    ST.W [a11], d11                 ;; ack OVF
    LOAD a11, TIM_CTRL_ADDR
    LOAD d11, 0
    ST.W [a11], d11
    RETURN

;; Service the watchdog with the derivative's key.
Base_WDT_Service:
    LOAD a11, WDT_SERVICE_ADDR
    LOAD d11, WDT_SERVICE_KEY
    ST.W [a11], d11
    RETURN

;; Enable interrupt lines (mask in d4) and set the global IE bit.
Base_Enable_IRQ:
    LOAD a11, INT_EN_ADDR
    ST.W [a11], d4
    EI
    RETURN
"""

GLOBAL_WRAPPERS = """\
;; ---- wrappers for the shared global function library ---------------------
;; (tests never call Global_* directly -- Figure 2 rule)
;; Fill d5 words at a4 with a pattern seeded by d4.
Base_Fill_Pattern:
    LOAD CallAddr, Global_Fill_Pattern
    CALL CallAddr
    RETURN

;; Compare d4 words at a4 vs a5; d2 = 0 equal / 1 different.
Base_Compare_Block:
    LOAD CallAddr, Global_Compare_Block
    CALL CallAddr
    RETURN

;; XOR checksum of d4 words at a4 into d2 (wraps firmware ES_Checksum).
Base_Checksum:
"""


def _checksum_wrapper(derivatives: list[Derivative]) -> str:
    """ES_Checksum wrapper: v2 firmware moved its inputs to a5/d5."""
    v2 = [d for d in derivatives if d.es_version == 2]
    lines = []
    if v2:
        lines += [
            f".IFDEF {v2[0].predefine}",
            "    MOV a5, a4",
            "    MOV d5, d4",
            ".ENDIF",
        ]
    lines += [
        "    LOAD CallAddr, ES_Checksum",
        "    CALL CallAddr",
        "    RETURN",
    ]
    return "\n".join(lines) + "\n"


def generate_base_functions(
    derivatives: list[Derivative],
    extra_functions: str = "",
) -> str:
    """Render ``Base_Functions.asm`` for a module environment.

    ``extra_functions`` lets a module add its own library entries (the
    abstraction layer grows iteratively, per the paper's Section 2).
    """
    parts = [
        HEADER,
        REPORTING,
        _init_register_wrapper(derivatives),
        NVM_FUNCTIONS,
        UART_FUNCTIONS,
        TIMER_WDT_FUNCTIONS,
        GLOBAL_WRAPPERS.rstrip("\n"),
        _checksum_wrapper(derivatives),
    ]
    if extra_functions:
        parts.append(";; ---- module-specific base functions ----")
        parts.append(extra_functions)
    return "\n".join(parts)
