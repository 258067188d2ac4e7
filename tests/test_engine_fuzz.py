"""Differential fuzzing across the execution engines.

Byte-identity between the engines must rest on generated programs, not
only on the hand-written workloads (Csmith's lesson: random programs
find what curated suites miss).  A ``hypothesis`` strategy builds
directed-test cells out of snippets that cover the whole engine surface:

- random initial registers, ALU and immediate operations, forward
  conditional branches;
- word, half and byte loads and stores to RAM and to the GPIO SFR page;
- register writes that arm and disarm the other interrupt sources: the
  timer (RELOAD, CTRL with EN/IE/ONESHOT, STAT write-1-to-clear), the
  watchdog (CTRL enable, SERVICE with the right or a wrong key), the NVM
  controller (a START of program or erase, then polling DONE) and the
  UART (CTRL with LOOP/RXIE, then DATA), plus interrupt-controller
  enables and reads of the pending lines;
- PUSH/POP, CALL/RET (direct and through an address register), DIVU,
  every branch, and the address-register moves, ``ADDA`` and absolute
  ``LOAD``/``STORE``;
- at most one trailing fault: a zero divisor, an access past the end of
  RAM, a half/byte SFR access (SFRs need word access), or a ``TRAP``
  to a returning, ending, unhandled or out-of-range vector;
- EI/DI/WRPSW with the timer interrupt armed;
- the cell's own vector table: the global layer links none, each cell
  writes all 32 entries and points up to three of them (fault traps,
  interrupt lines, software traps) at handlers in its own code, in ROM
  or in RAM, that acknowledge, count their entry and return or halt;
  mid-program ``TRAP`` instructions then dispatch through them;
- ``DJNZ`` loops of 1–200 iterations, so superblocks chain to their
  memoised successors, and idle spins, so the fast-forward warps fire;
- a RAM-resident code fragment, optionally patched before it runs.

Each cell is built as a :class:`ModuleTestEnvironment` cell (the global
trap and interrupt handlers are linked in) and run on both engines —
the default (superblocks) and the reference interpreter
(``use_superblocks=False``) — on golden (instruction and
bus trace), rtl (traced and cycle-accurate) and the accelerator
(unobserved).  The cached result payload and the recorded bus trace
must be identical.  Failures found here are committed as plain
regression tests below the property.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.environment import GlobalLayer, ModuleTestEnvironment, TestCell
from repro.core.globals_layer import NVM_VECTOR, TIMER_VECTOR
from repro.core.scheduler import result_to_payload
from repro.core.targets import target
from repro.isa.instructions import Opcode
from repro.platforms import ExecutionSession, RunStatus
from repro.soc.derivatives import SC88A
from repro.soc.memorymap import (
    IRQ_VECTOR_BASE,
    TRAP_BUS_ERROR,
    TRAP_DIV_ZERO,
    TRAP_ILLEGAL_OPCODE,
    TRAP_MISALIGNED,
    TRAP_WATCHDOG,
    VECTOR_COUNT,
)
from repro.soc.peripherals.intc import (
    LINE_NVM,
    LINE_TIMER,
    LINE_UART,
    LINE_WDT,
)

#: Engines every generated program runs on; the last is the oracle.
ENGINES = (
    ("default", {}),
    ("reference", {"use_superblocks": False}),
)

#: (target, records a bus trace): golden and rtl fully observed (rtl
#: also charges wait states), the accelerator on the unobserved path.
TARGETS = (("golden", True), ("rtl", True), ("accelerator", False))

#: Retire ceiling per run: generated programs are a few thousand
#: instructions; an interrupt storm times out identically everywhere.
MAX_INSTRUCTIONS = 20_000

RAM_BUFFER = 0x1000_8000  # middle of RAM: clear of data, stack, result
RAM_END = 0x1001_0000
GPIO_BASE_REG = "GPIO_OUT_ADDR"
#: RAM word the cell's own handlers count their entries in; the program
#: loads it into ``d13`` last, so the register snapshot shows them.
HANDLER_COUNT = RAM_BUFFER + 0x100

#: d10 is the loop counter, d11 scratch, d12 the flag fold.
_DATA = st.integers(0, 9)
_IMM16 = st.integers(0, 0xFFFF)
_SIMM16 = st.integers(-0x8000, 0x7FFF)
#: Words biased to the sign and carry boundaries, where flags differ.
_WORD = st.sampled_from(
    (0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF, 0x8000_0001, 1)
) | st.integers(0, 0xFFFF_FFFF)


def _rrr(op):
    return st.tuples(_DATA, _DATA, _DATA).map(
        lambda t: f"{op} d{t[0]}, d{t[1]}, d{t[2]}"
    )


def _ri(op, imm=_IMM16):
    return st.tuples(_DATA, _DATA, imm).map(
        lambda t: f"{op} d{t[0]}, d{t[1]}, {t[2]}"
    )


_BIT = st.integers(0, 31)
_FIELD = st.tuples(st.integers(0, 27), st.integers(1, 4))
#: Any address register may be read; a7-a9 are free to write (a2/a3
#: hold the RAM and GPIO bases, a4-a6 and a11 are snippet scratch, a15
#: is the stack pointer).
_AREG = st.integers(0, 15)
_SCRATCH_AREG = st.integers(7, 9)

#: One instruction of an ALU run: pure-register (superblock body
#: material), or an absolute load or store, which ends a block.
ALU = st.one_of(
    *(_rrr(op) for op in ("ADD", "SUB", "AND", "OR", "XOR", "MUL")),
    *(_rrr(op) for op in ("SHL", "SHR", "SAR")),
    _ri("ADDI", _SIMM16),
    *(_ri(op) for op in ("ANDI", "ORI", "XORI")),
    *(_ri(op, _BIT) for op in ("SHLI", "SHRI", "SARI")),
    st.tuples(_DATA, _WORD).map(lambda t: f"LOAD d{t[0]}, {t[1]:#x}"),
    st.tuples(_DATA, _SIMM16).map(lambda t: f"MOVI d{t[0]}, {t[1]}"),
    st.tuples(_DATA, _IMM16).map(lambda t: f"MOVHI d{t[0]}, {t[1]}"),
    st.tuples(_DATA, _DATA).map(lambda t: f"MOV d{t[0]}, d{t[1]}"),
    st.tuples(_DATA, _DATA).map(lambda t: f"CMP d{t[0]}, d{t[1]}"),
    st.tuples(_DATA, _SIMM16).map(lambda t: f"CMPI d{t[0]}, {t[1]}"),
    st.tuples(st.sampled_from(("SETB", "CLRB", "TGLB", "TSTB")), _DATA, _BIT)
    .map(lambda t: f"{t[0]} d{t[1]}, {t[2]}"),
    st.tuples(st.sampled_from(("EXTRU", "EXTRS")), _DATA, _DATA, _FIELD).map(
        lambda t: f"{t[0]} d{t[1]}, d{t[2]}, {t[3][0]}, {t[3][1]}"
    ),
    st.tuples(_DATA, _DATA, st.integers(0, 0xFF), _FIELD).map(
        lambda t: f"INSERT d{t[0]}, d{t[1]}, {t[2]}, {t[3][0]}, {t[3][1]}"
    ),
    _DATA.map(lambda r: f"RDPSW d{r}"),
    st.sampled_from(("NOP", "BRK")),
    st.tuples(st.sampled_from(("NOT", "NEG")), _DATA, _DATA).map(
        lambda t: f"{t[0]} d{t[1]}, d{t[2]}"
    ),
    st.tuples(_SCRATCH_AREG, _AREG, _SIMM16).map(
        lambda t: f"ADDA a{t[0]}, a{t[1]}, {t[2]}"
    ),
    st.tuples(_DATA, _DATA, _DATA, _FIELD).map(
        lambda t: f"INSERTR d{t[0]}, d{t[1]}, d{t[2]}, {t[3][0]}, {t[3][1]}"
    ),
    st.tuples(_DATA, _AREG).map(lambda t: f"MOV d{t[0]}, a{t[1]}"),
    st.tuples(_SCRATCH_AREG, _DATA).map(lambda t: f"MOV a{t[0]}, d{t[1]}"),
    st.tuples(_SCRATCH_AREG, _AREG).map(lambda t: f"MOV a{t[0]}, a{t[1]}"),
    st.tuples(st.integers(0, 15), st.sampled_from("da"), _DATA).map(
        lambda t: f"STORE [{RAM_BUFFER + 4 * t[0]:#x}], {t[1]}{t[2]}"
    ),
    st.tuples(st.integers(0, 15), _DATA).map(
        lambda t: f"LOAD d{t[1]}, [{RAM_BUFFER + 4 * t[0]:#x}]"
    ),
    st.tuples(st.integers(0, 15), _SCRATCH_AREG).map(
        lambda t: f"LOAD a{t[1]}, [{RAM_BUFFER + 4 * t[0]:#x}]"
    ),
)

_ALU_RUN = st.lists(ALU, min_size=1, max_size=6)

_RAM_ACCESS = st.one_of(
    st.tuples(st.sampled_from(("LD.W", "ST.W")), st.integers(0, 15).map(
        lambda i: 4 * i
    )),
    st.tuples(st.sampled_from(("LD.H", "ST.H")), st.integers(0, 31).map(
        lambda i: 2 * i
    )),
    st.tuples(st.sampled_from(("LD.B", "ST.B")), st.integers(0, 63)),
)

#: GPIO OUT/IN/DIR word offsets.
_SFR_ACCESS = st.tuples(
    st.sampled_from(("LD.W", "ST.W")), st.sampled_from((0, 4, 8))
)

#: Writes (and settled reads) on the peripherals behind the interrupt
#: lines: each arms or disarms a device's deferred ticking mid-run.
#: The UART control value is EN|LOOP|TXEN|RXEN|RXIE, bits 0-4, biased
#: to loopback with and without the receive interrupt.
_IRQ_LINES = ("TIMER", "NVM", "UART", "WDT")
_UART_CTRL = st.sampled_from((0b10111, 0b00111)) | st.integers(0, 31)
PERIPHERAL = st.one_of(
    st.tuples(st.just("timer-reload"), st.integers(0, 3_000)),
    st.tuples(st.just("timer-ctrl"), st.integers(0, 7)),
    st.tuples(st.just("timer-stat"), st.integers(0, 1)),
    st.tuples(st.just("timer-cnt"), _DATA),
    st.tuples(st.just("wdt-ctrl"), st.integers(0, 1), st.integers(0, 4_000)),
    st.tuples(st.just("wdt-service"), st.booleans()),
    st.tuples(
        st.just("nvm"),
        st.sampled_from(("NVM_CMD_PROG", "NVM_CMD_ERASE")),
        st.integers(0, 33),  # 32 pages: the last two are rejected
        st.integers(1, 60),
        _DATA,
    ),
    st.tuples(
        st.just("uart"),
        _UART_CTRL,
        st.lists(st.integers(0, 0xFF), max_size=3),
        st.none() | _DATA,
    ),
    st.tuples(
        st.just("intc-en"),
        st.lists(st.sampled_from(_IRQ_LINES), unique=True),
    ),
    st.tuples(st.just("intc-pend"), _DATA),
)

#: Trap numbers: the timer and NVM vectors (handlers that return), the
#: default handler (ends the run), vector 0 (unhandled) and numbers past
#: the vector table (out of range); both of the last fault the core.
_TRAP_NUMBER = st.sampled_from((9, 10, 5, 31, 0, 32, 255)) | st.integers(
    0, 255
)

#: Snippets that trap on purpose; the global default handler then ends
#: the run, so a program carries at most one, last.
FAULT = st.one_of(
    st.tuples(st.just("divu0"), _DATA, _DATA, _DATA),
    st.tuples(
        st.just("oob"),
        st.sampled_from(("LD.W", "ST.W", "LD.B")),
        st.integers(0, 64),
    ),
    st.tuples(st.just("sfr-sized"), st.sampled_from(("LD.H", "ST.B")), _DATA),
    st.tuples(st.just("trap"), _TRAP_NUMBER),
)

#: Vectors a cell may point at its own handler: the core's fault traps,
#: four interrupt lines and two software-trap numbers.
_IRQ_VECTORS = {
    IRQ_VECTOR_BASE + LINE_UART: "UART",
    IRQ_VECTOR_BASE + LINE_TIMER: "TIMER",
    IRQ_VECTOR_BASE + LINE_NVM: "NVM",
    IRQ_VECTOR_BASE + LINE_WDT: "WDT",
}
OWN_VECTORS = (
    TRAP_DIV_ZERO, TRAP_ILLEGAL_OPCODE, TRAP_MISALIGNED, TRAP_BUS_ERROR,
    TRAP_WATCHDOG, *_IRQ_VECTORS, 20, 31,
)

#: ``vector -> (body, placement, ending)`` of the cell's own handlers.
VECTORS = st.dictionaries(
    st.sampled_from(OWN_VECTORS),
    st.tuples(
        _ALU_RUN, st.sampled_from(("rom", "ram")),
        st.sampled_from(("reti", "reti", "halt")),
    ),
    max_size=3,
)

SNIPPET = st.one_of(
    st.tuples(st.just("alu"), _ALU_RUN),
    st.tuples(st.just("ram"), _RAM_ACCESS, _DATA),
    st.tuples(st.just("sfr"), _SFR_ACCESS, _DATA),
    PERIPHERAL,
    st.tuples(st.just("push"), _DATA),
    st.tuples(st.just("pop"), _DATA),
    st.tuples(st.just("call"), _ALU_RUN, st.booleans()),
    st.tuples(st.just("divu"), _DATA, _DATA, _DATA),
    st.tuples(
        st.just("psw"),
        st.sampled_from(("EI", "DI", "WRPSW")),
        st.integers(0, 0xFF),
    ),
    st.tuples(st.just("loop"), st.integers(1, 200), _ALU_RUN),
    st.tuples(st.just("spin"), st.integers(1, 1_000)),
    # A loop of software traps to the cell's own handler of this index
    # (among its handled vectors, in order), so the handler gets hot;
    # no-op without own handlers.
    st.tuples(st.just("vtrap"), st.integers(0, 2), st.integers(1, 40)),
    st.tuples(
        st.just("fragment"), _ALU_RUN, st.none() | st.integers(0, 0xFFFF)
    ),
    st.tuples(
        st.just("branch"),
        st.sampled_from(
            (
                "JZ", "JNZ", "JC", "JNC", "JN", "JNN", "JV", "JNV",
                "JGE", "JLT", "JGT", "JLE", "JMP",
            )
        ),
        _ALU_RUN,
    ),
)

#: ``(timer reload or None for no timer, initial d0-d9, snippets, fold
#: flags, own vectors or None for the global layer's table)``.  With
#: *fold flags*, every generated ALU instruction is followed by a fold
#: of the PSW into ``d12``, so a flag computed wrong anywhere — even one
#: the program never branches on — reaches the register snapshot.
PROGRAMS = st.tuples(
    st.none() | st.integers(200, 2_000),
    st.lists(_WORD, min_size=10, max_size=10),
    st.tuples(
        st.lists(SNIPPET, min_size=3, max_size=16), st.none() | FAULT
    ).map(lambda t: t[0] + ([] if t[1] is None else [t[1]])),
    st.booleans(),
    st.none() | VECTORS.filter(bool) | VECTORS,
)


def vector_table(handlers) -> list[str]:
    """The cell's own ``vectors`` section: the global layer's entries
    (:func:`~repro.core.globals_layer.generate_trap_handlers`), except
    each vector in *handlers* points at the cell's ``vec_<n>``."""
    defaults = {
        0: "0",
        TIMER_VECTOR: "GL_IRQ_Timer_Handler",
        NVM_VECTOR: "GL_IRQ_Nvm_Handler",
    }
    lines = [".SECTION vectors", ".ORG 0"]
    for vector in range(VECTOR_COUNT):
        default = defaults.get(vector, "GL_Default_Trap_Handler")
        entry = f"vec_{vector}" if vector in handlers else default
        lines.append(f".WORD {entry}")
    return lines + [".SECTION text"]


def handler_lines(vector: int, body: list[str], ending: str) -> list[str]:
    """One own handler (``body`` already rendered): saves its scratch,
    acknowledges its interrupt line, counts its entry in
    :data:`HANDLER_COUNT`, then returns or ends the run."""
    lines = [f"vec_{vector}:", "    PUSH d11", "    PUSH a6", *body]
    line = _IRQ_VECTORS.get(vector)
    if line == "TIMER":
        lines += [
            "    LOAD a6, TIM_STAT_ADDR",
            "    LOAD d11, 1",
            "    ST.W [a6], d11",
        ]
    if line is not None:
        lines += [
            "    LOAD a6, INT_PEND_ADDR",
            f"    LOAD d11, IRQ_LINE_{line}_MASK",
            "    ST.W [a6], d11",
        ]
    lines += [
        f"    LOAD a6, {HANDLER_COUNT:#x}",
        "    LD.W d11, [a6]",
        "    ADDI d11, d11, 1",
        "    ST.W [a6], d11",
        "    POP a6",
        "    POP d11",
        "    RETI" if ending == "reti" else "    HALT",
    ]
    return lines


def render(program) -> str:
    """Assembly source of one generated cell."""
    timer_reload, registers, snippets, fold_flags, handlers = program

    def alu(lines: list[str]) -> list[str]:
        out = []
        for line in lines:
            out.append(f"    {line}")
            if fold_flags:
                out += ["    RDPSW d11", "    XOR d12, d12, d11"]
        return out

    main = [
        ".INCLUDE Globals.inc",
        "_main:",
        f"    LOAD a2, {RAM_BUFFER:#x}",
        f"    LOAD a3, {GPIO_BASE_REG}",
    ]
    main += [f"    LOAD d{i}, {value:#x}" for i, value in enumerate(registers)]
    if timer_reload is not None:
        main += [
            "    LOAD a11, INT_EN_ADDR",
            "    LOAD d11, IRQ_LINE_TIMER_MASK",
            "    ST.W [a11], d11",
            "    LOAD a11, TIM_RELOAD_ADDR",
            f"    LOAD d11, {timer_reload}",
            "    ST.W [a11], d11",
            "    LOAD a11, TIM_CTRL_ADDR",
            "    LOAD d11, TIMER_CTRL_IRQ_VALUE",
            "    ST.W [a11], d11",
            "    EI",
        ]
    tail: list[str] = []  # subroutines, after the final HALT
    data: list[str] = []  # RAM-resident fragments
    for index, snippet in enumerate(snippets):
        kind = snippet[0]
        if kind == "alu":
            main += alu(snippet[1])
        elif kind in ("ram", "sfr"):
            (op, offset), reg = snippet[1:]
            base = "a2" if kind == "ram" else "a3"
            if op.startswith("LD"):
                main.append(f"    {op} d{reg}, [{base} + {offset}]")
            else:
                main.append(f"    {op} [{base} + {offset}], d{reg}")
        elif kind == "push":
            main.append(f"    PUSH d{snippet[1]}")
        elif kind == "pop":
            main.append(f"    POP d{snippet[1]}")
        elif kind == "call":
            if snippet[2]:  # through an address register
                main += [f"    LOAD a7, sub_{index}", "    CALL a7"]
            else:
                main.append(f"    CALL sub_{index}")
            tail += [f"sub_{index}:"]
            tail += alu(snippet[1])
            tail.append("    RET")
        elif kind in ("divu", "divu0"):
            _, r1, r2, r3 = snippet
            if kind == "divu":
                main.append(f"    ORI d{r3}, d{r3}, 1")
            else:
                main.append(f"    LOAD d{r3}, 0")
            main.append(f"    DIVU d{r1}, d{r2}, d{r3}")
        elif kind == "oob":
            _, op, offset = snippet
            main.append(f"    LOAD a4, {RAM_END + offset:#x}")
            if op.startswith("LD"):
                main.append(f"    {op} d1, [a4]")
            else:
                main.append(f"    {op} [a4], d1")
        elif kind == "trap":
            main.append(f"    TRAP {snippet[1]}")
        elif kind == "vtrap":
            if handlers:
                _, pick, count = snippet
                vectors = sorted(handlers)
                main += [
                    f"    LOAD d10, {count}",
                    f"vtrap_{index}:",
                    f"    TRAP {vectors[pick % len(vectors)]}",
                    f"    DJNZ d10, vtrap_{index}",
                ]
        elif kind == "sfr-sized":
            # SFRs require word access: a bus-error trap.
            _, op, reg = snippet
            if op.startswith("LD"):
                main.append(f"    {op} d{reg}, [a3]")
            else:
                main.append(f"    {op} [a3], d{reg}")
        elif kind == "psw":
            _, op, value = snippet
            if op == "WRPSW":
                main += [f"    LOAD d11, {value:#x}", "    WRPSW d11"]
            else:
                main.append(f"    {op}")
        elif kind == "loop":
            _, count, body = snippet
            main += [f"    LOAD d10, {count}", f"loop_{index}:"]
            main += alu(body)
            main.append(f"    DJNZ d10, loop_{index}")
        elif kind == "spin":
            main += [
                f"    LOAD d10, {snippet[1]}",
                f"spin_{index}:",
                f"    DJNZ d10, spin_{index}",
            ]
        elif kind == "fragment":
            _, body, patch = snippet
            if patch is not None:
                # Rewrite the fragment's first literal before it runs.
                main += [
                    f"    LOAD a5, ram_{index}",
                    f"    LOAD d11, {patch}",
                    "    ST.W [a5 + 4], d11",
                ]
            main.append(f"    CALL ram_{index}")
            data += [f"ram_{index}:", "    LOAD d9, 0x5a5a"]
            data += alu(body)
            data.append("    RET")
        elif kind.startswith(("timer", "wdt", "nvm", "uart", "intc")):
            main += render_peripheral(snippet, index)
        elif kind == "branch":
            _, cond, body = snippet
            main.append(f"    {cond} skip_{index}")
            main += alu(body)
            main.append(f"skip_{index}:")
    # The pending interrupt lines, read last, expose when each device
    # raised its line even if no handler ran.
    main += ["    LOAD a6, INT_PEND_ADDR", "    LD.W d11, [a6]"]
    if handlers:
        # Every own handler table is dispatched through at least once.
        main.append(f"    TRAP {min(handlers)}")
    if handlers is not None:
        main += [f"    LOAD a6, {HANDLER_COUNT:#x}", "    LD.W d13, [a6]"]
        for vector, (body, placement, ending) in sorted(handlers.items()):
            lines = handler_lines(vector, alu(body), ending)
            (data if placement == "ram" else tail).extend(lines)
    main.append("    HALT")
    source = main + tail
    if data:
        source += [".SECTION data"] + data + [".SECTION text"]
    if handlers is not None:
        source += vector_table(handlers)
    return "\n".join(source) + "\n"


def render_peripheral(snippet, index: int) -> list[str]:
    """Lines of one peripheral snippet; ``a6`` and ``d11`` are scratch
    (the global interrupt handlers save and restore ``a6``)."""
    kind = snippet[0]

    def store(register: str, value) -> list[str]:
        return [
            f"    LOAD a6, {register}",
            f"    LOAD d11, {value}",
            "    ST.W [a6], d11",
        ]

    def load(register: str, reg: int) -> list[str]:
        return [f"    LOAD a6, {register}", f"    LD.W d{reg}, [a6]"]

    if kind == "timer-reload":
        return store("TIM_RELOAD_ADDR", snippet[1])
    if kind == "timer-ctrl":
        return store("TIM_CTRL_ADDR", snippet[1])
    if kind == "timer-stat":
        return store("TIM_STAT_ADDR", snippet[1])
    if kind == "timer-cnt":
        return load("TIM_CNT_ADDR", snippet[1])
    if kind == "wdt-ctrl":
        _, enable, timeout = snippet
        return store("WDT_CTRL_ADDR", f"{timeout << 8 | enable:#x}")
    if kind == "wdt-service":
        key = "WDT_SERVICE_KEY" if snippet[1] else "WDT_SERVICE_KEY + 1"
        return store("WDT_SERVICE_ADDR", key)
    if kind == "nvm":
        _, command, page, polls, reg = snippet
        start = (
            f"(1 << NVM_START_BIT_POS) | ({command} << NVM_CMD_FIELD_POS)"
            f" | ({page} << PAGE_FIELD_START_POSITION)"
        )
        return store("NVM_CTRL_ADDR", start) + [
            "    LOAD a6, NVM_STAT_ADDR",
            f"    LOAD d11, {polls}",
            f"nvm_poll_{index}:",
            f"    LD.W d{reg}, [a6]",
            f"    TSTB d{reg}, NVM_STAT_DONE_BIT",
            f"    JNZ nvm_done_{index}",
            f"    DJNZ d11, nvm_poll_{index}",
            f"nvm_done_{index}:",
        ]
    if kind == "uart":
        _, ctrl, data, reg = snippet
        lines = store("UART_CTRL_ADDR", ctrl)
        lines.append("    LOAD a6, UART_DATA_ADDR")
        for byte in data:
            lines += [f"    LOAD d11, {byte}", "    ST.W [a6], d11"]
        if reg is not None:
            lines.append(f"    LD.W d{reg}, [a6]")  # pops the FIFO
        return lines
    if kind == "intc-en":
        mask = " | ".join(
            [f"IRQ_LINE_{line}_MASK" for line in snippet[1]] or ["0"]
        )
        return store("INT_EN_ADDR", mask)
    return load("INT_PEND_ADDR", snippet[1])


class OwnVectorsLayer(GlobalLayer):
    """The global layer without its vector table: a cell linked against
    it writes every entry itself (:func:`vector_table`)."""

    def __init__(self):
        super().__init__()
        head, table = self._trap_handlers.split(".SECTION vectors\n", 1)
        self._trap_handlers = head + table[table.index(".SECTION text"):]


#: Shared, so its objects are assembled once per target.
OWN_VECTORS_LAYER = OwnVectorsLayer()


def run_engines(source: str, totals: Counter | None = None) -> dict:
    """Run *source* on every engine and target; assert identity.
    Returns ``{(target, engine): (result, session stats)}``.  A source
    with its own ``vectors`` section links against
    :data:`OWN_VECTORS_LAYER`."""
    own = ".SECTION vectors" in source
    env = ModuleTestEnvironment(
        "FUZZ", global_layer=OWN_VECTORS_LAYER if own else None
    )
    env.add_test(TestCell(name="TEST_FUZZ", source=source))
    runs = {}
    for target_name, bus_trace in TARGETS:
        tgt = target(target_name)
        image = env.build_image("TEST_FUZZ", SC88A, tgt).image
        outcomes = {}
        for engine, flags in ENGINES:
            platform = tgt.make_platform()
            platform.record_bus_trace = bus_trace
            session = ExecutionSession(platform, SC88A, **flags)
            result = session.run(image, max_instructions=MAX_INSTRUCTIONS)
            outcomes[engine] = (
                result_to_payload(result),
                None if not bus_trace else platform.last_bus_trace.raw(),
            )
            runs[target_name, engine] = (result, session.stats())
            if totals is not None and engine == "default":
                totals.update(session.stats())
                if own and result.registers:
                    totals["own_handler_entries"] += result.registers["d13"]
        oracle = outcomes["reference"]
        for engine, outcome in outcomes.items():
            assert outcome[0] == oracle[0], (target_name, engine, source)
            assert outcome[1] == oracle[1], (target_name, engine, source)
    return runs


def fuzz_campaign(max_examples: int, derandomize: bool = True) -> Counter:
    """Run *max_examples* generated programs; returns the summed engine
    telemetry of the default-engine runs."""
    totals: Counter = Counter()

    @settings(
        max_examples=max_examples,
        derandomize=derandomize,
        deadline=None,
        database=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
        ],
    )
    @given(program=PROGRAMS)
    def check(program):
        run_engines(render(program), totals)

    check()
    return totals


def test_engines_agree_on_generated_programs():
    totals = fuzz_campaign(max_examples=20)
    # The net must reach the tiers it guards: superblocks ran and idle
    # spins were warped somewhere in the campaign, and traps or
    # interrupts dispatched through a cell's own vector entries.
    assert totals["sb_blocks"] > 0, totals
    assert totals["ff_warps"] > 0, totals
    assert totals["own_handler_entries"] > 0, totals


#: A fixed cell whose hot ``DJNZ`` loop retires every opcode but HALT
#: (which ends the run): body operations at their fold boundaries
#: (shift by 0 and 31, a full-width field at pos 0, immediates with bit
#: 15 set), every memory micro-op, every conditional branch, both
#: calls, and a ``TRAP`` to the timer vector, whose handler returns
#: with ``RETI``.  Forty passes run every block on its memoised chain.
EVERY_OPCODE_SOURCE = f"""\
.INCLUDE Globals.inc
_main:
    LOAD a2, {RAM_BUFFER:#x}
    LOAD a8, every_sub
    LOAD d1, 0x12345678
    LOAD d2, 0x9abcdef0
    LOAD d3, 7
    LOAD d10, 40
every_loop:
    NOP
    BRK
    DI
    MOV d4, d1
    MOV a7, a2
    MOV d5, a7
    MOV a9, d4
    LOAD a9, {RAM_BUFFER + 0x40:#x}
    MOVI d7, -3
    MOVHI d8, 0x8001
    ADD d4, d1, d2
    SUB d5, d1, d2
    AND d6, d4, d5
    OR d6, d6, d1
    XOR d1, d1, d6
    SHL d4, d2, d3
    SHR d5, d2, d3
    SAR d6, d2, d3
    MUL d7, d1, d3
    NOT d8, d1
    NEG d9, d2
    ADDI d2, d2, -0x1235
    SHLI d4, d1, 5
    SHRI d5, d1, 31
    SARI d6, d2, 0
    ANDI d7, d1, 0xff0f
    ORI d8, d2, 0x8000
    XORI d9, d1, 0x1234
    ADDA a7, a7, -4
    ORI d3, d3, 1
    DIVU d4, d1, d3
    CMP d1, d2
    CMPI d3, -1
    INSERT d5, d1, 0xa5, 4, 8
    INSERTR d6, d2, d1, 0, 32
    EXTRU d7, d1, 0, 32
    EXTRS d8, d2, 3, 9
    SETB d9, 31
    CLRB d9, 0
    TGLB d9, 7
    TSTB d9, 7
    LD.W d4, [a2 + 0]
    LD.H d5, [a2 + 2]
    LD.B d6, [a2 + 3]
    ST.W [a2 + 4], d1
    ST.H [a2 + 8], d2
    ST.B [a2 + 9], d3
    LOAD d7, [{RAM_BUFFER + 4:#x}]
    STORE [{RAM_BUFFER + 12:#x}], d7
    LOAD a9, [{RAM_BUFFER + 12:#x}]
    STORE [{RAM_BUFFER + 16:#x}], a7
    PUSH d1
    PUSH a7
    POP a9
    POP d5
    JMP every_jmp
every_jmp:
    CMP d1, d2
""" + "".join(
    f"    {cond} every_{cond}\nevery_{cond}:\n"
    for cond in (
        "JZ", "JNZ", "JC", "JNC", "JN", "JNN", "JV", "JNV",
        "JGE", "JLT", "JGT", "JLE",
    )
) + """\
    CALL every_sub
    CALL a8
    TRAP 9
    RDPSW d11
    XOR d12, d12, d11
    WRPSW d11
    EI
    DJNZ d10, every_loop
    HALT
every_sub:
    ADDI d3, d3, 1
    RET
"""


def test_every_opcode_cell_agrees_on_every_engine():
    runs = run_engines(EVERY_OPCODE_SOURCE)
    for target_name, _ in TARGETS:
        stats = runs[target_name, "default"][1]
        assert stats["sb_blocks"] > 0, target_name
    golden, _ = runs["golden", "reference"]
    assert {record.opcode for record in golden.trace} == {
        int(op) for op in Opcode
    }


#: A fixed cell that owns its vector table: a hot loop divides by zero
#: (vector 1, a handler in RAM), raises software trap 20 (a ROM handler)
#: and runs under a timer whose interrupt enters the cell's own timer
#: handler.  Every handler returns, so the loop, and the superblocks
#: over it, keep dispatching through the cell's entries.
OWN_VECTORS_SOURCE = "\n".join([
    ".INCLUDE Globals.inc",
    "_main:",
    f"    LOAD a2, {RAM_BUFFER:#x}",
    "    LOAD a11, INT_EN_ADDR",
    "    LOAD d11, IRQ_LINE_TIMER_MASK",
    "    ST.W [a11], d11",
    "    LOAD a11, TIM_RELOAD_ADDR",
    "    LOAD d11, 150",
    "    ST.W [a11], d11",
    "    LOAD a11, TIM_CTRL_ADDR",
    "    LOAD d11, TIMER_CTRL_IRQ_VALUE",
    "    ST.W [a11], d11",
    "    EI",
    "    LOAD d10, 40",
    "own_loop:",
    "    ADDI d1, d1, 3",
    "    XOR d2, d2, d1",
    "    LOAD d3, 0",
    "    DIVU d4, d1, d3",
    "    TRAP 20",
    "    DJNZ d10, own_loop",
    f"    LOAD a6, {HANDLER_COUNT:#x}",
    "    LD.W d13, [a6]",
    "    HALT",
    *handler_lines(20, ["    ADD d5, d5, d1", "    SHLI d6, d5, 3"], "reti"),
    *handler_lines(TIMER_VECTOR, ["    ADDI d7, d7, 1"], "reti"),
    ".SECTION data",
    *handler_lines(TRAP_DIV_ZERO, ["    XOR d8, d8, d2"], "reti"),
    ".SECTION text",
    *vector_table({TRAP_DIV_ZERO, TIMER_VECTOR, 20}),
]) + "\n"


def test_own_vector_table_dispatch_agrees_on_every_engine():
    runs = run_engines(OWN_VECTORS_SOURCE)
    for target_name, _ in TARGETS:
        assert runs[target_name, "default"][1]["sb_blocks"] > 0
    golden = runs["golden", "reference"][0]
    # 40 divide traps + 40 software traps + the timer's interrupts.
    assert golden.registers["d13"] > 80
    assert golden.registers["d7"] > 0


# ---------------------------------------------------------------------------
# Regressions found by the fuzzer (plain tests, every engine and target)
# ---------------------------------------------------------------------------

#: A data access ending a superblock faults into a trap whose frame
#: cannot be pushed: the executor must store the fall-through pc first,
#: exactly like the interpreter, or the fault reports the stale pc of
#: the block (the PUSH terminator).  The stack starts 256 bytes above
#: the bottom of RAM, so the loop's blocks chain to each other and run
#: off RAM within 64 pushes.
STACK_RUNAWAY_SOURCE = """\
_main:
    LOAD a15, 0x10000100
    JMP loop
loop:
    PUSH d9
    DJNZ d10, loop
"""
STACK_RUNAWAY_FAULT_PC = 0x214  # the DJNZ after the faulting PUSH

#: A CALL whose return-address push faults, then a RET whose pop
#: faults: both trap from the fall-through pc on every engine.
CALL_RUNAWAY_SOURCE = """\
_main:
    LOAD a15, 0x10000000
    CALL sub
    HALT
sub:
    HALT
"""

RET_RUNAWAY_SOURCE = """\
_main:
    LOAD a15, 0xfffffffc
    RET
"""


@pytest.mark.parametrize("target_name", ["golden", "rtl", "gatelevel"])
def test_faulting_chain_access_reports_fall_through_pc(target_name):
    env = ModuleTestEnvironment("PCFAULT")
    env.add_test(TestCell(name="TEST_RUNAWAY", source=STACK_RUNAWAY_SOURCE))
    tgt = target(target_name)
    image = env.build_image("TEST_RUNAWAY", SC88A, tgt).image
    payloads = {}
    for engine, flags in ENGINES:
        session = ExecutionSession(tgt.make_platform(), SC88A, **flags)
        result = session.run(image)
        assert result.status is RunStatus.FAULT, engine
        assert result.registers["pc"] == STACK_RUNAWAY_FAULT_PC, engine
        if engine == "default":
            assert session.stats()["sb_blocks"] > 0
        payloads[engine] = result_to_payload(result)
    assert payloads["default"] == payloads["reference"]


@pytest.mark.parametrize(
    "source", [CALL_RUNAWAY_SOURCE, RET_RUNAWAY_SOURCE], ids=["call", "ret"]
)
def test_faulting_stack_control_flow_matches_reference(source):
    run_engines(source)


#: Once its superblocks are formed and chained (the decode cache is
#: shared across sessions), a retire ceiling swept over the first
#: passes lands inside, right after and right before each block's
#: body: the superblock loop must stop exactly where the reference
#: interpreter does, never running a body twice.
LIMIT_LOOP_SOURCE = """\
_main:
    LOAD d1, 1000
loop:
    ADDI d2, d2, 1
    XOR d3, d3, d2
    DJNZ d1, loop
    HALT
"""


@pytest.mark.parametrize("target_name", ["golden", "rtl", "accelerator"])
def test_instruction_limit_inside_a_superblock(target_name):
    env = ModuleTestEnvironment("LIMIT")
    env.add_test(TestCell(name="TEST_LIMIT", source=LIMIT_LOOP_SOURCE))
    tgt = target(target_name)
    image = env.build_image("TEST_LIMIT", SC88A, tgt).image
    warm = ExecutionSession(tgt.make_platform(), SC88A)
    warm.run(image)  # forms the blocks and memoises their successors
    assert warm.stats()["sb_blocks"] > 0
    for limit in range(1, 31):
        payloads = {}
        for engine, flags in ENGINES:
            platform = tgt.make_platform()
            platform.record_bus_trace = True
            result = ExecutionSession(platform, SC88A, **flags).run(
                image, max_instructions=limit
            )
            assert result.status is RunStatus.TIMEOUT
            payloads[engine] = (
                result_to_payload(result),
                platform.last_bus_trace.raw(),
            )
        for engine, payload in payloads.items():
            assert payload == payloads["reference"], (limit, engine)
