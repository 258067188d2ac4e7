"""One table defines each opcode; the fast engine is rendered from it.

Every opcode has one :class:`Row` in :data:`ROWS`: its effect written as
Python source over the ``data``/``addr``/``psw``/``cpu`` locals, with
operands taken from the *operand binding* ``o`` (``o.r1``, ``o.imm_u``,
``o.mem_disp``, ...; the field names of
:class:`~repro.isa.decodecache.DecodedInstruction`).  A row is rendered
once, for the decode cache's executor table: ``o`` is
:data:`EXEC_OPERANDS`, whose fields are the source text ``e.r1``,
``e.imm_u``, ..., so one generated ``_x_<opcode>(cpu, e)`` per opcode
reads its operands off the decoded entry at run time
(:func:`executor_source`).

A row has up to three parts besides its effect: ``cond``, the
taken-condition of a conditional branch (the target is ``o.imm_u``);
``target``, the pc expression a jump stores after its effect; and
``taken``, the executor's return value when it is neither (default
``False``, or ``True`` for a jump).

``CpuCore._execute`` stays hand-written: it is the oracle the rendered
executors are fuzzed against, so adding an opcode means one row here
plus one ``_execute`` branch.
"""

from __future__ import annotations

import re
from types import SimpleNamespace
from typing import Callable, NamedTuple

from repro.isa.instructions import Opcode
from repro.isa.registers import STACK_POINTER_INDEX, WORD_MASK
from repro.soc.memorymap import TRAP_DIV_ZERO

_M = WORD_MASK
_S = 0x8000_0000
_SPI = STACK_POINTER_INDEX

#: Operand fields a row may read off its binding.
OPERAND_FIELDS = (
    "pc", "next_pc", "r1", "r2", "r3", "imm_s", "imm_u", "pos", "width",
    "mem_disp",
)

#: The operand binding: every operand is read off the decoded entry.
EXEC_OPERANDS = SimpleNamespace(
    **{name: f"e.{name}" for name in OPERAND_FIELDS}
)


def _none(o) -> list[str]:
    return []


class Row(NamedTuple):
    """One opcode's semantics (see the module docstring)."""

    effect: Callable[[object], list[str]] = _none
    cond: str | None = None
    target: Callable[[object], str] | None = None
    taken: str | None = None


# ---------------------------------------------------------------------------
# Flag helpers: inlined PSW updates.
# ---------------------------------------------------------------------------

def _sign(value, negative: bool) -> str:
    return f"{value} & {_S} {'!=' if negative else '=='} 0"


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def logic_flags(value: str) -> list[str]:
    """``PSW.set_logic_flags`` over an already-masked *value*."""
    return [
        f"psw.zero = {value} == 0",
        f"psw.negative = {_sign(value, True)}",
        "psw.carry = False",
        "psw.overflow = False",
    ]


def sub_flags(lhs, rhs: str, res: str) -> list[str]:
    """``PSW.set_sub_flags(lhs, rhs)`` with ``res = (lhs - rhs) & M``;
    a literal *lhs* (``NEG``'s zero) has its sign folded."""
    lines = [
        f"psw.zero = {res} == 0",
        f"psw.negative = {_sign(res, True)}",
        f"psw.carry = {lhs} < {rhs}",
    ]
    if isinstance(lhs, int):
        negative = bool(lhs & _S)
        lines.append(
            f"psw.overflow = {_sign(rhs, not negative)}"
            f" and {_sign(res, not negative)}"
        )
    else:
        lines += [
            f"_s = {_sign(lhs, True)}",
            f"psw.overflow = _s != ({_sign(rhs, True)})"
            f" and ({_sign(res, True)}) != _s",
        ]
    return lines


def add_flags(lhs: str, rhs: str, raw: str, res: str) -> list[str]:
    """``PSW.set_add_flags(lhs, rhs, raw)`` with ``res = raw & M``."""
    return [
        f"psw.zero = {res} == 0",
        f"psw.negative = {_sign(res, True)}",
        f"psw.carry = {raw} > {_M}",
        f"_s = {_sign(lhs, True)}",
        f"psw.overflow = _s == ({_sign(rhs, True)})"
        f" and ({_sign(res, True)}) != _s",
    ]


def _shifted(kind: str, value: str, amount) -> tuple[str, str]:
    # (result, carry out) of a shift by 1..31.
    if kind == "shl":
        return (
            f"({value} << {amount}) & {_M}",
            f"({value} >> (32 - {amount})) & 1 != 0",
        )
    if kind == "shr":
        result = f"{value} >> {amount}"
    else:
        result = (
            f"(({value} - {1 << 32} if {value} & {_S} else {value})"
            f" >> {amount}) & {_M}"
        )
    return result, f"({value} >> ({amount} - 1)) & 1 != 0"


def shift(kind: str, value: str, amount: str) -> list[str]:
    """``CpuCore._shift`` of local *value* into ``_v`` (a zero shift
    leaves the value unchanged and the carry clear)."""
    result, carry = _shifted(kind, value, "_k")
    return [
        f"_k = {amount}",
        "if _k:",
        f"    _v = {result}",
        f"    psw.carry = {carry}",
        "else:",
        f"    _v = {value}",
        "    psw.carry = False",
        "psw.zero = _v == 0",
        f"psw.negative = {_sign('_v', True)}",
        "psw.overflow = False",
    ]


def _field_mask(width: str) -> tuple[list[str], str]:
    # (setup lines, mask) of a bit field *width* bits wide.
    return [f"_m = (1 << {width}) - 1 if {width} < 32 else {_M}"], "_m"


# ---------------------------------------------------------------------------
# Row builders shared by several opcodes.
# ---------------------------------------------------------------------------

def _store_logic(o, expr: str) -> list[str]:
    # data[r1] = expr, with logic flags.
    return [f"_v = {expr}", f"data[{o.r1}] = _v", *logic_flags("_v")]


def _rrr(op: str) -> Row:
    return Row(lambda o: _store_logic(o, f"data[{o.r2}] {op} data[{o.r3}]"))


def _rri(op: str) -> Row:
    return Row(lambda o: _store_logic(o, f"data[{o.r2}] {op} {o.imm_u}"))


def _bit(op: str) -> Row:
    return Row(
        lambda o: _store_logic(o, f"data[{o.r1}] {op} (1 << {o.imm_u})")
    )


def _shift_row(kind: str, by_register: bool) -> Row:
    def effect(o):
        amount = f"data[{o.r3}] & 31" if by_register else o.imm_u
        return [
            f"_a = data[{o.r2}]",
            *shift(kind, "_a", amount),
            f"data[{o.r1}] = _v",
        ]

    return Row(effect)


def _insert(value) -> Row:
    def effect(o):
        setup, mask = _field_mask(o.width)
        src = value(o)
        return setup + _store_logic(
            o,
            f"data[{o.r2}] & ~(({mask} << {o.pos}) & {_M})"
            f" | (({src} & {mask}) << {o.pos}) & {_M}",
        )

    return Row(effect)


def _extrs(o) -> list[str]:
    # imm_s is the field's sign bit (0 for a full-width field).
    return [
        f"_v = data[{o.r2}] >> {o.pos} & {o.imm_u}",
        f"if _v & {o.imm_s}:",
        f"    _v |= {_M} & ~{o.imm_u}",
        f"data[{o.r1}] = _v",
        *logic_flags("_v"),
    ]


def _indexed(o) -> str:
    return f"(addr[{o.r2}] + {o.mem_disp}) & {_M}"


def _load(reader: str, bank: str = "data", address=_indexed) -> Row:
    return Row(
        lambda o: [f"{bank}[{o.r1}] = cpu.{reader}({address(o)})"]
    )


def _store(writer: str, bank: str = "data", address=_indexed) -> Row:
    return Row(
        lambda o: [f"cpu.{writer}({address(o)}, {bank}[{o.r1}])"]
    )


def _absolute(o) -> str:
    return f"{o.mem_disp}"


def _push(bank: str) -> Row:
    return Row(lambda o: [
        f"_v = {bank}[{o.r1}]",  # before the sp update (PUSH sp)
        f"_p = (addr[{_SPI}] - 4) & {_M}",
        f"addr[{_SPI}] = _p",
        "cpu._write_word_fast(_p, _v)",
    ])


def _pop(bank: str) -> Row:
    return Row(lambda o: [
        f"_v = cpu._read_word_fast(addr[{_SPI}])",
        f"addr[{_SPI}] = (addr[{_SPI}] + 4) & {_M}",
        f"{bank}[{o.r1}] = _v",
    ])


def _move(dst: str, src: str) -> Row:
    return Row(lambda o: [f"{dst}[{o.r1}] = {src}[{o.r2}]"])


def _set(bank: str) -> Row:
    return Row(lambda o: [f"{bank}[{o.r1}] = {o.imm_u}"])


def _call(target: Callable[[object], str]) -> Row:
    return Row(lambda o: [f"cpu._push({o.next_pc})"], target=target)


def _imm_target(o) -> str:
    return f"{o.imm_u}"


def _divu(o) -> list[str]:
    return [
        f"_b = data[{o.r3}]",
        "if _b:",
        *_indent(_store_logic(o, f"data[{o.r2}] // _b")),
        "else:",
        f"    cpu.take_trap({TRAP_DIV_ZERO}, {o.next_pc})",
    ]


def _add(o) -> list[str]:
    return [
        f"_l = data[{o.r2}]",
        f"_b = data[{o.r3}]",
        "_r = _l + _b",
        f"_v = _r & {_M}",
        *add_flags("_l", "_b", "_r", "_v"),
        f"data[{o.r1}] = _v",
    ]


def _addi(o) -> list[str]:
    return [
        f"_l = data[{o.r2}]",
        f"_r = _l + {o.imm_s}",
        f"_v = _r & {_M}",
        *add_flags("_l", o.imm_u, "_r", "_v"),
        f"data[{o.r1}] = _v",
    ]


def _subtract(lhs: str, rhs: str) -> list[str]:
    # _v = (lhs - rhs) & M with subtraction flags; rhs is read once.
    return [
        f"_l = {lhs}",
        f"_b = {rhs}",
        f"_v = (_l - _b) & {_M}",
        *sub_flags("_l", "_b", "_v"),
    ]


def _neg(o) -> list[str]:
    return [
        f"_b = data[{o.r2}]",
        f"_v = -_b & {_M}",
        *sub_flags(0, "_b", "_v"),
        f"data[{o.r1}] = _v",
    ]


def _djnz(o) -> list[str]:
    return _store_logic(o, f"(data[{o.r1}] - 1) & {_M}")


#: Opcode -> its row: the single definition of every opcode's effect
#: outside the reference ``CpuCore._execute``.
ROWS: dict[Opcode, Row] = {
    Opcode.NOP: Row(),
    Opcode.HALT: Row(lambda o: ["cpu.halted = True"]),
    Opcode.BRK: Row(lambda o: [f"cpu.brk_events.append({o.pc})"]),
    Opcode.DI: Row(lambda o: ["psw.interrupt_enable = False"]),
    Opcode.EI: Row(lambda o: ["psw.interrupt_enable = True"]),
    # A faulting pop traps from the fall-through pc, stored first.
    Opcode.RET: Row(target=lambda o: "cpu._pop()"),
    Opcode.RETI: Row(
        lambda o: ["psw.value = cpu._pop()"], target=lambda o: "cpu._pop()"
    ),
    # -- moves -------------------------------------------------------------
    Opcode.MOV_DD: Row(lambda o: _store_logic(o, f"data[{o.r2}]")),
    Opcode.MOV_AA: _move("addr", "addr"),
    Opcode.MOV_DA: _move("data", "addr"),
    Opcode.MOV_AD: _move("addr", "data"),
    Opcode.LOAD_D: _set("data"),
    Opcode.LOAD_A: _set("addr"),
    Opcode.MOVI: _set("data"),  # imm_u is the extended immediate
    Opcode.MOVHI: _set("data"),  # imm_u is imm16 << 16
    # -- memory micro-ops --------------------------------------------------
    Opcode.LD_W: _load("_read_word_fast"),
    Opcode.LD_H: _load("_read_half_fast"),
    Opcode.LD_B: _load("_read_byte_fast"),
    Opcode.ST_W: _store("_write_word_fast"),
    Opcode.ST_H: _store("_write_half_fast"),
    Opcode.ST_B: _store("_write_byte_fast"),
    Opcode.LDABS_D: _load("_read_word_fast", address=_absolute),
    Opcode.STABS_D: _store("_write_word_fast", address=_absolute),
    Opcode.LDABS_A: _load("_read_word_fast", "addr", _absolute),
    Opcode.STABS_A: _store("_write_word_fast", "addr", _absolute),
    Opcode.PUSH_D: _push("data"),
    Opcode.PUSH_A: _push("addr"),
    Opcode.POP_D: _pop("data"),
    Opcode.POP_A: _pop("addr"),
    # -- ALU ---------------------------------------------------------------
    Opcode.ADD: Row(_add),
    Opcode.SUB: Row(
        lambda o: _subtract(f"data[{o.r2}]", f"data[{o.r3}]")
        + [f"data[{o.r1}] = _v"]
    ),
    Opcode.AND: _rrr("&"),
    Opcode.OR: _rrr("|"),
    Opcode.XOR: _rrr("^"),
    Opcode.SHL: _shift_row("shl", True),
    Opcode.SHR: _shift_row("shr", True),
    Opcode.SAR: _shift_row("sar", True),
    Opcode.MUL: Row(
        lambda o: _store_logic(o, f"(data[{o.r2}] * data[{o.r3}]) & {_M}")
    ),
    Opcode.NOT: Row(lambda o: _store_logic(o, f"~data[{o.r2}] & {_M}")),
    Opcode.NEG: Row(_neg),
    Opcode.ADDI: Row(_addi),
    Opcode.SHLI: _shift_row("shl", False),
    Opcode.SHRI: _shift_row("shr", False),
    Opcode.SARI: _shift_row("sar", False),
    Opcode.ANDI: _rri("&"),
    Opcode.ORI: _rri("|"),
    Opcode.XORI: _rri("^"),
    Opcode.ADDA: Row(
        lambda o: [f"addr[{o.r1}] = (addr[{o.r2}] + {o.imm_s}) & {_M}"]
    ),
    Opcode.DIVU: Row(_divu, taken="not _b"),
    Opcode.CMP: Row(lambda o: _subtract(f"data[{o.r1}]", f"data[{o.r2}]")),
    Opcode.CMPI: Row(lambda o: _subtract(f"data[{o.r1}]", o.imm_u)),
    # -- bit fields --------------------------------------------------------
    Opcode.INSERT: _insert(lambda o: o.imm_u),
    Opcode.INSERTR: _insert(lambda o: f"data[{o.r3}]"),
    Opcode.EXTRU: Row(
        lambda o: _store_logic(o, f"data[{o.r2}] >> {o.pos} & {o.imm_u}")
    ),
    Opcode.EXTRS: Row(_extrs),
    Opcode.SETB: _bit("|"),
    Opcode.CLRB: Row(
        lambda o: _store_logic(o, f"data[{o.r1}] & ~(1 << {o.imm_u})")
    ),
    Opcode.TGLB: _bit("^"),
    Opcode.TSTB: Row(
        lambda o: [f"psw.zero = not (data[{o.r1}] >> {o.imm_u} & 1)"]
    ),
    # -- control flow ------------------------------------------------------
    Opcode.JMP: Row(target=_imm_target),
    Opcode.JZ: Row(cond="psw.zero"),
    Opcode.JNZ: Row(cond="not psw.zero"),
    Opcode.JC: Row(cond="psw.carry"),
    Opcode.JNC: Row(cond="not psw.carry"),
    Opcode.JN: Row(cond="psw.negative"),
    Opcode.JNN: Row(cond="not psw.negative"),
    Opcode.JV: Row(cond="psw.overflow"),
    Opcode.JNV: Row(cond="not psw.overflow"),
    Opcode.JGE: Row(cond="psw.negative == psw.overflow"),
    Opcode.JLT: Row(cond="psw.negative != psw.overflow"),
    Opcode.JGT: Row(cond="not psw.zero and psw.negative == psw.overflow"),
    Opcode.JLE: Row(cond="psw.zero or psw.negative != psw.overflow"),
    # A faulting push traps from the fall-through pc, stored first.
    Opcode.CALL_ABS: _call(_imm_target),
    Opcode.CALL_IND: _call(lambda o: f"addr[{o.r1}]"),
    Opcode.DJNZ: Row(_djnz, cond="_v"),
    # -- system ------------------------------------------------------------
    Opcode.TRAP: Row(
        lambda o: [f"cpu.take_trap({o.imm_u}, {o.next_pc})"], taken="True"
    ),
    Opcode.RDPSW: Row(lambda o: [f"data[{o.r1}] = psw.value"]),
    Opcode.WRPSW: Row(lambda o: [f"psw.value = data[{o.r1}]"]),
}

assert set(ROWS) == set(Opcode), "semantics table incomplete"


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------

#: Locals a rendered function hoists, when its body names them.
_LOCALS = (("data", "data"), ("addr", "address"), ("psw", "psw"))


def function_lines(row: Row) -> list[str]:
    """Unindented body of ``(cpu, e) -> taken`` for *row*: the pc
    store, the effect and the taken flag."""
    o = EXEC_OPERANDS
    effect = row.effect(o)
    if row.cond is not None:
        return effect + [
            f"if {row.cond}:",
            f"    regs.pc = {o.imm_u}",
            "    return True",
            f"regs.pc = {o.next_pc}",
            "return False",
        ]
    lines = [f"regs.pc = {o.next_pc}", *effect]
    taken = row.taken
    if row.target is not None:
        lines.append(f"regs.pc = {row.target(o)}")
        taken = taken or "True"
    lines.append(f"return {taken or 'False'}")
    return lines


def function_source(name: str, row: Row) -> str:
    """Source of ``def name(cpu, e)`` rendering *row*, hoisting only the
    register-file locals its body uses."""
    body = function_lines(row)
    text = "\n".join(body)
    prelude = ["regs = cpu.regs"] + [
        f"{local} = regs.{attr}"
        for local, attr in _LOCALS
        if re.search(rf"\b{local}\b", text)
    ]
    return f"def {name}(cpu, e):\n" + "".join(
        f"    {line}\n" for line in prelude + body
    )


def executor_name(op: Opcode) -> str:
    """The table executor's name (its pickle identity in
    ``repro.isa.decodecache``)."""
    return f"_x_{op.name.lower()}"


def executor_source() -> str:
    """Every executor's source, one module for one ``compile()``."""
    return "\n".join(
        function_source(executor_name(op), row)
        for op, row in ROWS.items()
    )
