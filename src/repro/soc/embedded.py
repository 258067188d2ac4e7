"""Embedded-software ROM library (the paper's global layer).

The paper's Figure 7 shows a test needing a function that lives in the
embedded software — code the verification team does **not** control.  Its
worked example is a function whose *input registers get swapped around*
by a firmware rewrite; the abstraction layer absorbs the change by
wrapping the function in ``Base_Functions.asm``.

This module provides that embedded software as real SC88 assembler
source, in two versions:

- **version 1** (derivatives A/B/C): ``ES_Init_Register`` takes the
  target address in ``a4`` and the value in ``d4``;
- **version 2** (derivative D): the function is *renamed* to
  ``ES_InitRegister`` and its inputs are *swapped* to ``a5``/``d5`` —
  exactly the change classes §4 of the paper enumerates.

The ABI description (:class:`EsAbi`) is what the ADVM base-functions
generator consults to build the correct wrapper for each derivative.
"""

from __future__ import annotations

from typing import NamedTuple

from repro import assembler as toolchain
from repro.soc.memorymap import ES_ROM_BASE


class EsAbi(NamedTuple):
    """Calling convention of the embedded-software entry points."""

    version: int
    init_register_symbol: str
    init_addr_reg: str
    init_value_reg: str
    delay_count_reg: str
    checksum_src_reg: str
    checksum_count_reg: str
    checksum_out_reg: str


ES_ABI_V1 = EsAbi(
    version=1,
    init_register_symbol="ES_Init_Register",
    init_addr_reg="a4",
    init_value_reg="d4",
    delay_count_reg="d4",
    checksum_src_reg="a4",
    checksum_count_reg="d4",
    checksum_out_reg="d2",
)

#: Version 2: renamed entry point and swapped input registers (Figure 7's
#: "input registers have been swapped around" scenario).
ES_ABI_V2 = EsAbi(
    version=2,
    init_register_symbol="ES_InitRegister",
    init_addr_reg="a5",
    init_value_reg="d5",
    delay_count_reg="d5",
    checksum_src_reg="a5",
    checksum_count_reg="d5",
    checksum_out_reg="d2",
)


def es_abi(version: int) -> EsAbi:
    if version == 1:
        return ES_ABI_V1
    if version == 2:
        return ES_ABI_V2
    raise ValueError(f"unknown embedded-software version {version}")


def es_source(version: int) -> str:
    """Assembler source of the embedded-software ROM for *version*."""
    abi = es_abi(version)
    return f"""\
;; Embedded_Software.asm -- firmware library, version {abi.version}
;; NOT under verification-team control (global layer).
.SECTION estext
.ORG {ES_ROM_BASE:#x}

;; Initialise a register: address in {abi.init_addr_reg}, value in {abi.init_value_reg}.
{abi.init_register_symbol}:
    ST.W [{abi.init_addr_reg}], {abi.init_value_reg}
    RETURN

;; Report the firmware version in d2.
ES_Get_Version:
    LOAD d2, {abi.version}
    RETURN

;; Busy-wait: loop count in {abi.delay_count_reg} (clobbers it).
ES_Delay:
ES_Delay_loop:
    DJNZ {abi.delay_count_reg}, ES_Delay_loop
    RETURN

;; XOR checksum over words: src in {abi.checksum_src_reg}, word count in
;; {abi.checksum_count_reg}; result in {abi.checksum_out_reg}.
ES_Checksum:
    LOAD {abi.checksum_out_reg}, 0
ES_Checksum_loop:
    LD.W d3, [{abi.checksum_src_reg}]
    XOR {abi.checksum_out_reg}, {abi.checksum_out_reg}, d3
    ADDA {abi.checksum_src_reg}, {abi.checksum_src_reg}, 4
    DJNZ {abi.checksum_count_reg}, ES_Checksum_loop
    RETURN
"""


def assemble_embedded_software(
    version: int, assembler: toolchain.Assembler | None = None
) -> toolchain.ObjectFile:
    """Assemble the embedded-software ROM object for *version*.

    The object's ``estext`` section carries ``.ORG`` at the fixed ES ROM
    base, so linking it with any test image places the firmware exactly
    where real silicon would have it.
    """
    asm = assembler or toolchain.Assembler()
    return asm.assemble_source(
        es_source(version), name=f"Embedded_Software_v{version}.asm"
    )
