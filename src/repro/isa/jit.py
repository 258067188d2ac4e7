"""Trace-level compilation: a template JIT for hot superblock chains.

Superblocks (PR 4/5) fuse straight-line code, but the block loop in
``CpuCore._run_superblocks`` still executes entry-by-entry: one
``entry.exec(cpu, entry)`` indirection, a handful of attribute loads and
a successor-memo validation per instruction.  This module promotes hot,
pc-validated *chains* of superblocks into one specialized Python
function per chain via source generation + :func:`compile`:

- register indices, immediates, branch targets and cycle costs are baked
  into the generated source as constants;
- per-instruction ``exec`` indirection and operand attribute loads are
  gone — each decoded instruction becomes two-to-eight plain statements
  over the hoisted ``data``/``addr``/``psw`` locals, with the PSW flag
  algebra inlined and constant-folded against known immediates;
- intermediate ``regs.pc`` writes are elided (bodies are pure-register;
  every exit point re-establishes the architectural pc exactly);
- exactly one deadline/limit/interrupt probe runs per block boundary, in
  the same order the superblock loop performs them, so stop points and
  interrupt delivery stay byte-identical;
- a chain whose last continuing edge returns to its own head compiles
  into a ``while True:`` loop — the whole hot loop body runs with zero
  dispatch until a probe or an off-chain branch exits.

Chains are built over the existing ``succ_taken``/``succ_fall`` memo
graph and stored on the :class:`~repro.isa.decodecache.Superblock`
itself (``jit_u``/``jit_ot``/``jit_ow`` variant slots), which means they
live in the digest-keyed :func:`~repro.isa.decodecache.decode_cache_for`
registry alongside the blocks: shared across sessions and platforms,
dropped wholesale with the cache on registry eviction, and — because the
generated code re-reads ``cpu._block_deadline`` at every boundary and
side exit — cut mid-chain by the same ``cut_block()`` path that flushes
the superblock resume memo.

Observation composes: the ``jit_ot``/``jit_ow`` variants replay each
block's ``trace_tmpl``/``fetch_events`` observation templates (PR 5) in
bulk from inside the compiled body, with wait-state charging baked into
the ``_w`` variant's costs.  Terminators the compiler does not model as
*continuing* edges (``RET``, ``RETI``, ``CALL_IND``, ``TRAP``, ``DIVU``,
``HALT``, ``EI``, ``WRPSW``) end a chain as a generic-exec tail: the
chain still inlines everything before them and finishes the odd
terminator through its bound executor, byte-identically.

The superblock engine itself (``use_jit=False``) is the baseline the
JIT is measured and fuzzed against; the reference interpreter
(``ExecutionSession(use_superblocks=False)``) is the oracle for both.
"""

from __future__ import annotations

from repro.isa.decodecache import (
    DecodeCache,
    DecodedInstruction,
    MEM_LD_B,
    MEM_LD_H,
    MEM_LD_W,
    MEM_LDABS_A,
    MEM_LDABS_D,
    MEM_POP_A,
    MEM_POP_D,
    MEM_PUSH_A,
    MEM_PUSH_D,
    MEM_ST_B,
    MEM_ST_H,
    MEM_ST_W,
    MEM_STABS_A,
    MEM_STABS_D,
    Superblock,
)
from repro.isa.instructions import Opcode
from repro.isa.registers import STACK_POINTER_INDEX, WORD_MASK
from repro.soc.bus import BusError
from repro.soc.memorymap import TRAP_BUS_ERROR

#: Block executions before a chain is compiled from that head.  Counted
#: per superblock in the JIT-enabled loops (``sb.heat``); one compile is
#: attempted exactly when the counter *equals* the threshold, so heads
#: the builder declines (spins, cold junk) are never retried.
JIT_THRESHOLD = 16

#: Chain length cap: bounds generated-source size and compile latency.
JIT_MAX_BLOCKS = 16

#: Per-cache cap on compiled chains — a backstop against pathological
#: images burning compile time; real workloads have a handful of hot
#: loops.
JIT_MAX_CHAINS = 128

_TAKEN_EXTRA = 1  # mirrors decodecache._JUMP_TAKEN_EXTRA

_JMP = int(Opcode.JMP)
_CALL_ABS = int(Opcode.CALL_ABS)
_DJNZ = int(Opcode.DJNZ)

#: Conditional branch opcode -> taken-condition over the ``psw`` local.
_COND_EXPR = {
    int(Opcode.JZ): "psw.zero",
    int(Opcode.JNZ): "not psw.zero",
    int(Opcode.JC): "psw.carry",
    int(Opcode.JNC): "not psw.carry",
    int(Opcode.JN): "psw.negative",
    int(Opcode.JNN): "not psw.negative",
    int(Opcode.JV): "psw.overflow",
    int(Opcode.JNV): "not psw.overflow",
    int(Opcode.JGE): "psw.negative == psw.overflow",
    int(Opcode.JLT): "psw.negative != psw.overflow",
    int(Opcode.JGT): "not psw.zero and psw.negative == psw.overflow",
    int(Opcode.JLE): "psw.zero or psw.negative != psw.overflow",
}

_M = WORD_MASK  # 4294967295
_S = 0x8000_0000


# ---------------------------------------------------------------------------
# Per-opcode statement emitters.  Each returns unindented source lines
# that reproduce the bound executor's architectural effects exactly —
# minus the ``regs.pc`` write, which the chain re-establishes at every
# exit point.  ``data``/``addr``/``psw`` are function locals.
# ---------------------------------------------------------------------------

def _logic_flags(var: str) -> list[str]:
    # Inlined PSW.set_logic_flags over an already-masked value.
    return [
        f"psw.zero = {var} == 0",
        f"psw.negative = {var} & {_S} != 0",
        "psw.carry = False",
        "psw.overflow = False",
    ]


def _sub_flags(lhs: str, rhs: str, res: str) -> list[str]:
    # Inlined PSW.set_sub_flags(lhs, rhs) with result precomputed.
    return [
        f"psw.zero = {res} == 0",
        f"psw.negative = {res} & {_S} != 0",
        f"psw.carry = {lhs} < {rhs}",
        f"_s = {lhs} & {_S} != 0",
        f"psw.overflow = _s != ({rhs} & {_S} != 0)"
        f" and ({res} & {_S} != 0) != _s",
    ]


def _sub_flags_const_rhs(lhs: str, rhs: int, res: str) -> list[str]:
    # set_sub_flags with the rhs (and therefore its sign) baked in.
    lines = [
        f"psw.zero = {res} == 0",
        f"psw.negative = {res} & {_S} != 0",
        f"psw.carry = {lhs} < {rhs}",
    ]
    if rhs & _S:
        lines.append(
            f"psw.overflow = {lhs} & {_S} == 0 and {res} & {_S} != 0"
        )
    else:
        lines.append(
            f"psw.overflow = {lhs} & {_S} != 0 and {res} & {_S} == 0"
        )
    return lines


def _add_flags_const_rhs(lhs: str, rhs_u: int, raw: str, res: str) -> list[str]:
    # set_add_flags with the rhs sign folded to a constant.
    lines = [
        f"psw.zero = {res} == 0",
        f"psw.negative = {res} & {_S} != 0",
        f"psw.carry = {raw} > {_M}",
    ]
    if rhs_u & _S:
        lines.append(
            f"psw.overflow = {lhs} & {_S} != 0 and {res} & {_S} == 0"
        )
    else:
        lines.append(
            f"psw.overflow = {lhs} & {_S} == 0 and {res} & {_S} != 0"
        )
    return lines


def _b_nop(e):
    return []


def _b_brk(e):
    return [f"cpu.brk_events.append({e.pc})"]


def _b_di(e):
    return ["psw.interrupt_enable = False"]


def _b_mov_dd(e):
    return [f"_v = data[{e.r2}]", f"data[{e.r1}] = _v", *_logic_flags("_v")]


def _b_mov_aa(e):
    return [f"addr[{e.r1}] = addr[{e.r2}]"]


def _b_mov_da(e):
    return [f"data[{e.r1}] = addr[{e.r2}]"]


def _b_mov_ad(e):
    return [f"addr[{e.r1}] = data[{e.r2}]"]


def _b_load_d(e):
    return [f"data[{e.r1}] = {e.imm_u}"]


def _b_load_a(e):
    return [f"addr[{e.r1}] = {e.imm_u}"]


def _b_add(e):
    return [
        f"_l = data[{e.r2}]",
        f"_b = data[{e.r3}]",
        "_r = _l + _b",
        f"_v = _r & {_M}",
        "psw.zero = _v == 0",
        f"psw.negative = _v & {_S} != 0",
        f"psw.carry = _r > {_M}",
        f"_s = _l & {_S} != 0",
        f"psw.overflow = _s == (_b & {_S} != 0) and (_v & {_S} != 0) != _s",
        f"data[{e.r1}] = _v",
    ]


def _b_sub(e):
    return [
        f"_l = data[{e.r2}]",
        f"_b = data[{e.r3}]",
        f"_v = (_l - _b) & {_M}",
        *_sub_flags("_l", "_b", "_v"),
        f"data[{e.r1}] = _v",
    ]


def _bitop(e, op: str) -> list[str]:
    return [
        f"_v = data[{e.r2}] {op} data[{e.r3}]",
        f"data[{e.r1}] = _v",
        *_logic_flags("_v"),
    ]


def _b_and(e):
    return _bitop(e, "&")


def _b_or(e):
    return _bitop(e, "|")


def _b_xor(e):
    return _bitop(e, "^")


def _b_shl(e):
    return [f"data[{e.r1}] = cpu._shift(_SHL, data[{e.r2}], data[{e.r3}] & 31)"]


def _b_shr(e):
    return [f"data[{e.r1}] = cpu._shift(_SHR, data[{e.r2}], data[{e.r3}] & 31)"]


def _b_sar(e):
    return [f"data[{e.r1}] = cpu._shift(_SAR, data[{e.r2}], data[{e.r3}] & 31)"]


def _shift_imm(e, kind: str) -> list[str]:
    amount = e.imm_u
    if amount == 0:
        # _shift(value, 0): logic flags over the unchanged value.
        return [
            f"_v = data[{e.r2}]",
            *_logic_flags("_v"),
            f"data[{e.r1}] = _v",
        ]
    lines = [f"_a = data[{e.r2}]"]
    if kind == "shl":
        lines += [
            f"_v = (_a << {amount}) & {_M}",
            f"_c = _a >> {32 - amount} & 1 != 0",
        ]
    elif kind == "shr":
        lines += [
            f"_v = _a >> {amount}",
            f"_c = _a >> {amount - 1} & 1 != 0",
        ]
    else:  # sar
        lines += [
            f"_v = ((_a - {1 << 32} if _a & {_S} else _a) >> {amount})"
            f" & {_M}",
            f"_c = _a >> {amount - 1} & 1 != 0",
        ]
    lines += [
        "psw.zero = _v == 0",
        f"psw.negative = _v & {_S} != 0",
        "psw.overflow = False",
        "psw.carry = _c",
        f"data[{e.r1}] = _v",
    ]
    return lines


def _b_shli(e):
    return _shift_imm(e, "shl")


def _b_shri(e):
    return _shift_imm(e, "shr")


def _b_sari(e):
    return _shift_imm(e, "sar")


def _b_mul(e):
    return [
        f"_v = (data[{e.r2}] * data[{e.r3}]) & {_M}",
        f"data[{e.r1}] = _v",
        *_logic_flags("_v"),
    ]


def _b_not(e):
    return [
        f"_v = ~data[{e.r2}] & {_M}",
        f"data[{e.r1}] = _v",
        *_logic_flags("_v"),
    ]


def _b_neg(e):
    # set_sub_flags(0, rhs) with lhs_sign == False folded out.
    return [
        f"_b = data[{e.r2}]",
        f"_v = -_b & {_M}",
        "psw.zero = _v == 0",
        f"psw.negative = _v & {_S} != 0",
        "psw.carry = 0 < _b",
        f"psw.overflow = _b & {_S} != 0 and _v & {_S} != 0",
        f"data[{e.r1}] = _v",
    ]


def _b_addi(e):
    return [
        f"_l = data[{e.r2}]",
        f"_r = _l + {e.imm_s}",
        f"_v = _r & {_M}",
        *_add_flags_const_rhs("_l", e.imm_u, "_r", "_v"),
        f"data[{e.r1}] = _v",
    ]


def _bitop_imm(e, op: str) -> list[str]:
    return [
        f"_v = data[{e.r2}] {op} {e.imm_u}",
        f"data[{e.r1}] = _v",
        *_logic_flags("_v"),
    ]


def _b_andi(e):
    return _bitop_imm(e, "&")


def _b_ori(e):
    return _bitop_imm(e, "|")


def _b_xori(e):
    return _bitop_imm(e, "^")


def _b_adda(e):
    return [f"addr[{e.r1}] = (addr[{e.r2}] + {e.imm_s}) & {_M}"]


def _b_cmp(e):
    return [
        f"_l = data[{e.r1}]",
        f"_b = data[{e.r2}]",
        f"_v = (_l - _b) & {_M}",
        *_sub_flags("_l", "_b", "_v"),
    ]


def _b_cmpi(e):
    return [
        f"_l = data[{e.r1}]",
        f"_v = (_l - {e.imm_u}) & {_M}",
        *_sub_flags_const_rhs("_l", e.imm_u, "_v"),
    ]


def _insert_mask(e) -> tuple[int, int]:
    mask = ((1 << e.width) - 1) if e.width < 32 else _M
    keep = _M & ~((mask << e.pos) & _M)
    return mask, keep


def _b_insert(e):
    mask, keep = _insert_mask(e)
    merged = ((e.imm_u & mask) << e.pos) & _M
    return [
        f"_v = data[{e.r2}] & {keep} | {merged}",
        f"data[{e.r1}] = _v",
        *_logic_flags("_v"),
    ]


def _b_insertr(e):
    mask, keep = _insert_mask(e)
    return [
        f"_v = data[{e.r2}] & {keep}"
        f" | (data[{e.r3}] & {mask}) << {e.pos} & {_M}",
        f"data[{e.r1}] = _v",
        *_logic_flags("_v"),
    ]


def _b_extru(e):
    return [
        f"_v = data[{e.r2}] >> {e.pos} & {e.imm_u}",
        f"data[{e.r1}] = _v",
        *_logic_flags("_v"),
    ]


def _b_extrs(e):
    lines = [f"_v = data[{e.r2}] >> {e.pos} & {e.imm_u}"]
    if e.imm_s:
        lines += [
            f"if _v & {e.imm_s}:",
            f"    _v |= {_M & ~e.imm_u}",
        ]
    lines += [f"data[{e.r1}] = _v", *_logic_flags("_v")]
    return lines


def _b_setb(e):
    return [
        f"_v = data[{e.r1}] | {1 << e.imm_u}",
        f"data[{e.r1}] = _v",
        *_logic_flags("_v"),
    ]


def _b_clrb(e):
    return [
        f"_v = data[{e.r1}] & {_M & ~(1 << e.imm_u)}",
        f"data[{e.r1}] = _v",
        *_logic_flags("_v"),
    ]


def _b_tglb(e):
    return [
        f"_v = data[{e.r1}] ^ {1 << e.imm_u}",
        f"data[{e.r1}] = _v",
        *_logic_flags("_v"),
    ]


def _b_tstb(e):
    return [f"psw.zero = not (data[{e.r1}] >> {e.imm_u} & 1)"]


def _b_rdpsw(e):
    return [f"data[{e.r1}] = psw.value"]


_BODY_EMITTERS = {
    int(Opcode.NOP): _b_nop,
    int(Opcode.BRK): _b_brk,
    int(Opcode.DI): _b_di,
    int(Opcode.MOV_DD): _b_mov_dd,
    int(Opcode.MOV_AA): _b_mov_aa,
    int(Opcode.MOV_DA): _b_mov_da,
    int(Opcode.MOV_AD): _b_mov_ad,
    int(Opcode.LOAD_D): _b_load_d,
    int(Opcode.LOAD_A): _b_load_a,
    int(Opcode.MOVI): _b_load_d,  # value precomputed, same move shape
    int(Opcode.MOVHI): _b_load_d,
    int(Opcode.ADD): _b_add,
    int(Opcode.SUB): _b_sub,
    int(Opcode.AND): _b_and,
    int(Opcode.OR): _b_or,
    int(Opcode.XOR): _b_xor,
    int(Opcode.SHL): _b_shl,
    int(Opcode.SHR): _b_shr,
    int(Opcode.SAR): _b_sar,
    int(Opcode.SHLI): _b_shli,
    int(Opcode.SHRI): _b_shri,
    int(Opcode.SARI): _b_sari,
    int(Opcode.MUL): _b_mul,
    int(Opcode.NOT): _b_not,
    int(Opcode.NEG): _b_neg,
    int(Opcode.ADDI): _b_addi,
    int(Opcode.ANDI): _b_andi,
    int(Opcode.ORI): _b_ori,
    int(Opcode.XORI): _b_xori,
    int(Opcode.ADDA): _b_adda,
    int(Opcode.CMP): _b_cmp,
    int(Opcode.CMPI): _b_cmpi,
    int(Opcode.INSERT): _b_insert,
    int(Opcode.INSERTR): _b_insertr,
    int(Opcode.EXTRU): _b_extru,
    int(Opcode.EXTRS): _b_extrs,
    int(Opcode.SETB): _b_setb,
    int(Opcode.CLRB): _b_clrb,
    int(Opcode.TGLB): _b_tglb,
    int(Opcode.TSTB): _b_tstb,
    int(Opcode.RDPSW): _b_rdpsw,
}


def _body_lines(e: DecodedInstruction, env: dict, tag: str) -> list[str]:
    emitter = _BODY_EMITTERS.get(e.opcode)
    if emitter is not None:
        return emitter(e)
    # An opcode without a template (can only happen if a new pure
    # body opcode lands without one): fall back to its bound executor.
    # The redundant ``regs.pc`` store it performs is overwritten by the
    # chain's next exit point, so semantics are unchanged.
    name = f"_x{tag}"
    env[name] = e
    return [f"{name}.exec(cpu, {name})"]


# Memory micro-op statements (terminator position only; bodies are
# pure-register by construction).  Mirrors the ``_x_*`` executors minus
# the pc store.
_SPI = STACK_POINTER_INDEX


def _mem_lines(e: DecodedInstruction) -> list[str]:
    kind = e.mem_kind
    if kind == MEM_LD_W:
        return [
            f"data[{e.r1}] = cpu._read_word_fast("
            f"(addr[{e.r2}] + {e.mem_disp}) & {_M})"
        ]
    if kind == MEM_ST_W:
        return [
            f"cpu._write_word_fast("
            f"(addr[{e.r2}] + {e.mem_disp}) & {_M}, data[{e.r1}])"
        ]
    if kind == MEM_LD_H:
        return [
            f"data[{e.r1}] = cpu._read_half_fast("
            f"(addr[{e.r2}] + {e.mem_disp}) & {_M})"
        ]
    if kind == MEM_LD_B:
        return [
            f"data[{e.r1}] = cpu._read_byte_fast("
            f"(addr[{e.r2}] + {e.mem_disp}) & {_M})"
        ]
    if kind == MEM_ST_H:
        return [
            f"cpu._write_half_fast("
            f"(addr[{e.r2}] + {e.mem_disp}) & {_M}, data[{e.r1}])"
        ]
    if kind == MEM_ST_B:
        return [
            f"cpu._write_byte_fast("
            f"(addr[{e.r2}] + {e.mem_disp}) & {_M}, data[{e.r1}])"
        ]
    if kind == MEM_PUSH_D:
        return [
            f"_p = (addr[{_SPI}] - 4) & {_M}",
            f"addr[{_SPI}] = _p",
            f"cpu._write_word_fast(_p, data[{e.r1}])",
        ]
    if kind == MEM_PUSH_A:
        return [
            f"_v = addr[{e.r1}]",
            f"_p = (addr[{_SPI}] - 4) & {_M}",
            f"addr[{_SPI}] = _p",
            "cpu._write_word_fast(_p, _v)",
        ]
    if kind == MEM_POP_D:
        return [
            f"data[{e.r1}] = cpu._read_word_fast(addr[{_SPI}])",
            f"addr[{_SPI}] = (addr[{_SPI}] + 4) & {_M}",
        ]
    if kind == MEM_POP_A:
        return [
            f"_v = cpu._read_word_fast(addr[{_SPI}])",
            f"addr[{_SPI}] = (addr[{_SPI}] + 4) & {_M}",
            f"addr[{e.r1}] = _v",
        ]
    if kind == MEM_LDABS_D:
        return [f"data[{e.r1}] = cpu._read_word_fast({e.mem_disp})"]
    if kind == MEM_LDABS_A:
        return [f"addr[{e.r1}] = cpu._read_word_fast({e.mem_disp})"]
    if kind == MEM_STABS_D:
        return [f"cpu._write_word_fast({e.mem_disp}, data[{e.r1}])"]
    # MEM_STABS_A
    return [f"cpu._write_word_fast({e.mem_disp}, addr[{e.r1}])"]


# ---------------------------------------------------------------------------
# Chain tracing over the superblock graph.
# ---------------------------------------------------------------------------

def trace_chain(
    cache: DecodeCache, head: Superblock
) -> tuple[list[Superblock], list[str | None]] | None:
    """The block sequence and continuation edges for a chain at *head*.

    Returns ``(blocks, links)`` where ``links[i]`` is ``"taken"`` or
    ``"fall"`` when control continues from ``blocks[i]`` to
    ``blocks[i + 1]`` (or, for the final block of a cyclic chain, back
    to the head), and ``None`` when ``blocks[i]`` ends the chain.
    ``None`` is returned when *head* is not worth chaining (an idle
    spin, which the analytic warp already handles).

    At a conditional terminator the builder commits to one edge — warm
    successor memos first, then the loop-shaped edge (``DJNZ`` taken /
    backward target) — since a wrong pick only costs a side exit, never
    correctness: the generated code exits the chain on the other edge
    with the architectural pc re-established.
    """
    if head.spin_reg >= 0:
        return None
    blocks = [head]
    links: list[str | None] = []
    seen = {head.start}
    cur = head
    while True:
        term = cur.terminator
        edge: str | None = None
        if term is None:
            pass  # body-only tail: next address is not cacheable
        elif term.mem_kind:
            edge = "fall"
        elif term.opcode == _JMP or term.opcode == _CALL_ABS:
            edge = "taken"
        elif term.opcode == _DJNZ or term.opcode in _COND_EXPR:
            edge = _pick_edge(cur, term)
        # else: generic tail (RET/RETI/CALL_IND/TRAP/DIVU/HALT/EI/WRPSW)
        if edge is None:
            links.append(None)
            return blocks, links
        next_pc = term.imm_u if edge == "taken" else term.next_pc
        if next_pc == head.start:
            links.append(edge)  # cyclic: close the loop on the head
            return blocks, links
        if len(blocks) >= JIT_MAX_BLOCKS or next_pc in seen:
            links.append(None)
            return blocks, links
        succ = cache.block_at(next_pc)
        if succ is None or succ.spin_reg >= 0:
            links.append(None)
            return blocks, links
        links.append(edge)
        blocks.append(succ)
        seen.add(next_pc)
        cur = succ


def _pick_edge(cur: Superblock, term: DecodedInstruction) -> str:
    taken_pc = term.imm_u
    st, sf = cur.succ_taken, cur.succ_fall
    taken_warm = st is not None and st.start == taken_pc
    fall_warm = sf is not None and sf.start == term.next_pc
    if taken_warm != fall_warm:
        return "taken" if taken_warm else "fall"
    if term.opcode == _DJNZ:
        return "taken"  # loop continuation
    return "taken" if taken_pc <= cur.start else "fall"


# ---------------------------------------------------------------------------
# Source generation.
# ---------------------------------------------------------------------------

class _Emitter:
    def __init__(self):
        self.lines: list[str] = []
        self.indent = 1

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def block(self, lines: list[str]) -> None:
        for line in lines:
            self.w(line)


def generate_chain_source(
    blocks: list[Superblock],
    links: list[str | None],
    observed: bool,
    charge: bool,
) -> tuple[str, dict]:
    """Source + injected globals for one chain variant.

    The generated ``_chain(cpu, limit)`` returns the number of blocks it
    completed (0 only when the entry block's budget precheck refused to
    start, with no state touched — the caller then takes the
    interpreter's narrow path).  Counter commits are block-granular and
    ordered exactly as the superblock loop orders them, so faults,
    SFR-settlement reads and trap exits observe identical state.
    """
    env: dict = {
        "BusError": BusError,
        "_SHL": Opcode.SHL,
        "_SHR": Opcode.SHR,
        "_SAR": Opcode.SAR,
    }
    cyclic = links[-1] is not None
    src = _Emitter()
    src.lines.append("def _chain(cpu, limit):")
    src.w("regs = cpu.regs")
    src.w("data = regs.data")
    src.w("addr = regs.address")
    src.w("psw = regs.psw")
    src.w("intc = cpu.intc")
    if observed:
        src.w("_bus = cpu.bus")
        src.w("_bt = _bus.trace_buffer")
        src.w("_tr = cpu.trace")
    src.w("_n = 0")
    if cyclic:
        src.w("while True:")
        src.indent += 1
    last = len(blocks) - 1
    for i, sb in enumerate(blocks):
        _emit_block(src, env, i, sb, links[i], blocks, observed, charge)
        if i < last or cyclic:
            next_start = blocks[i + 1].start if i < last else blocks[0].start
            _emit_probes(src, next_start)
    return "\n".join(src.lines) + "\n", env


def _emit_probes(src: _Emitter, next_start: int) -> None:
    # One deadline/limit/interrupt probe per block boundary, in the
    # exact order the superblock loop performs them (loop bottom, then
    # loop top).  ``_block_deadline`` is re-read every time: a mem
    # terminator's SFR side effects may have cut the block mid-chain.
    src.w("_d = cpu._block_deadline")
    src.w("if _d is not None and cpu.cycles >= _d:")
    src.w(f"    regs.pc = {next_start}")
    src.w("    return _n")
    src.w("if limit is not None and cpu.instructions_retired >= limit:")
    src.w(f"    regs.pc = {next_start}")
    src.w("    return _n")
    src.w(
        "if intc is not None and psw.interrupt_enable"
        " and intc.pending_line() is not None:"
    )
    src.w(f"    regs.pc = {next_start}")
    src.w("    return _n")


def _emit_block(
    src: _Emitter,
    env: dict,
    i: int,
    sb: Superblock,
    link: str | None,
    blocks: list[Superblock],
    observed: bool,
    charge: bool,
) -> None:
    term = sb.terminator
    if sb.body_count:
        body_cycles = sb.body_cycles_w if charge else sb.body_cycles
        # All-or-nothing budget precheck, mirroring the fused body loop:
        # a window narrower than the body exits to the interpreter's
        # single-step narrow path with nothing executed.
        src.w(
            f"if limit is not None and"
            f" cpu.instructions_retired + {sb.body_count} > limit:"
        )
        src.w(f"    regs.pc = {sb.start}")
        src.w("    return _n")
        src.w("_d = cpu._block_deadline")
        src.w(f"if _d is not None and cpu.cycles + {body_cycles} >= _d:")
        src.w(f"    regs.pc = {sb.start}")
        src.w("    return _n")
        for k, entry in enumerate(sb.body):
            src.block(_body_lines(entry, env, f"{i}_{k}"))
        src.w(f"cpu.instructions_retired += {sb.body_count}")
        src.w(f"cpu.cycles += {body_cycles}")
        if observed:
            src.w("cpu.sb_replays += 1")
            if sb.fetch_events:
                env[f"_fe{i}"] = sb.fetch_events
                src.w("if _bt is not None:")
                src.w(f"    _bus.access_count += {len(sb.fetch_events)}")
                src.w(f"    _bt.extend_raw(_fe{i})")
            tmpl = sb.trace_tmpl_w if charge else sb.trace_tmpl
            if tmpl:
                env[f"_tt{i}"] = tmpl
                src.w("if _tr is not None:")
                src.w(f"    _tr.extend_raw(_tt{i})")
        # Post-body retire ceiling: the superblock loop breaks here with
        # the pc already on the next instruction (the terminator, or the
        # uncacheable next address when there is none).  The body ran,
        # so the block counts: returning 0 from the head block would
        # send the caller down the narrow path to run the body again.
        after_pc = term.pc if term is not None else sb.body[-1].next_pc
        src.w("if limit is not None and cpu.instructions_retired >= limit:")
        src.w(f"    regs.pc = {after_pc}")
        src.w("    return _n + 1")
    if term is None:
        # Next address not cacheable: hand back to the outer loop.
        src.w(f"regs.pc = {sb.body[-1].next_pc}")
        src.w("return _n + 1")
        return
    _emit_terminator(src, env, i, sb, term, link, observed, charge)


def _record(src: _Emitter, term, cost, indent: str = "") -> None:
    src.w(
        f"{indent}if _tr is not None:"
    )
    src.w(
        f"{indent}    _tr.record({term.pc}, {term.opcode},"
        f" {term.mnemonic!r}, {cost})"
    )


def _emit_terminator(
    src: _Emitter,
    env: dict,
    i: int,
    sb: Superblock,
    term: DecodedInstruction,
    link: str | None,
    observed: bool,
    charge: bool,
) -> None:
    # Fetch replay precedes execution, exactly as step() emits it.
    if observed and term.fetch_events:
        env[f"_ft{i}"] = term.fetch_events
        src.w("if _bt is not None:")
        src.w(f"    _bus.access_count += {len(term.fetch_events)}")
        src.w(f"    _bt.extend_raw(_ft{i})")
    waits = term.fetch_waits if charge else 0
    cost_fall = term.base_cycles + waits
    cost_taken = cost_fall + _TAKEN_EXTRA

    def exit_edge(pc_expr: int, cost: int, indent: str) -> None:
        src.w(f"{indent}cpu.cycles += {cost}")
        if observed:
            _record(src, term, cost, indent)
        src.w(f"{indent}regs.pc = {pc_expr}")
        src.w(f"{indent}return _n + 1")

    def continue_edge(cost: int) -> None:
        src.w(f"cpu.cycles += {cost}")
        if observed:
            _record(src, term, cost)
        src.w("_n += 1")

    def bus_guard(op_lines: list[str]) -> None:
        # The step()-identical BusError protocol: the fall-through pc
        # stored (as the interpreter's executors do before the access,
        # so an unhandled trap faults with the same pc), architectural
        # trap, two cycles, one retire, no trace record.
        src.w("try:")
        for line in op_lines:
            src.w(f"    {line}")
        src.w("except BusError:")
        src.w(f"    regs.pc = {term.next_pc}")
        src.w(f"    cpu.take_trap({TRAP_BUS_ERROR}, {term.next_pc})")
        src.w("    cpu.cycles += 2")
        src.w("    cpu.instructions_retired += 1")
        src.w("    return _n + 1")

    opcode = term.opcode
    if term.mem_kind:
        if charge:
            # step() zeroes pending waits per instruction then adds the
            # fetch waits; inside a chain that collapses to assignment.
            src.w(f"cpu._pending_waits = {term.fetch_waits}")
        bus_guard(_mem_lines(term))
        src.w("cpu.instructions_retired += 1")
        if charge:
            src.w(f"_c = {term.base_cycles} + cpu._pending_waits")
            src.w("cpu.cycles += _c")
            if observed:
                _record(src, term, "_c")
        else:
            src.w(f"cpu.cycles += {term.base_cycles}")
            if observed:
                _record(src, term, term.base_cycles)
        if link is None:
            src.w(f"regs.pc = {term.next_pc}")
            src.w("return _n + 1")
        else:
            src.w("_n += 1")
        return

    if opcode == _JMP:
        src.w("cpu.instructions_retired += 1")
        if link is None:
            exit_edge(term.imm_u, cost_taken, "")
        else:
            continue_edge(cost_taken)
        return

    if opcode == _CALL_ABS:
        if charge:
            src.w(f"cpu._pending_waits = {term.fetch_waits}")
        bus_guard([f"cpu._push({term.next_pc})"])
        src.w("cpu.instructions_retired += 1")
        if charge:
            src.w(
                f"_c = {term.base_cycles + _TAKEN_EXTRA}"
                f" + cpu._pending_waits"
            )
            src.w("cpu.cycles += _c")
            if observed:
                _record(src, term, "_c")
        else:
            src.w(f"cpu.cycles += {term.base_cycles + _TAKEN_EXTRA}")
            if observed:
                _record(src, term, term.base_cycles + _TAKEN_EXTRA)
        if link is None:
            src.w(f"regs.pc = {term.imm_u}")
            src.w("return _n + 1")
        else:
            src.w("_n += 1")
        return

    if opcode == _DJNZ:
        src.w(f"_v = (data[{term.r1}] - 1) & {_M}")
        src.w(f"data[{term.r1}] = _v")
        src.block(_logic_flags("_v"))
        src.w("cpu.instructions_retired += 1")
        taken_cond = "_v"
        _emit_conditional_edges(
            src, term, taken_cond, link, cost_taken, cost_fall,
            exit_edge, continue_edge,
        )
        return

    cond = _COND_EXPR.get(opcode)
    if cond is not None:
        src.w("cpu.instructions_retired += 1")
        _emit_conditional_edges(
            src, term, cond, link, cost_taken, cost_fall,
            exit_edge, continue_edge,
        )
        return

    # Generic tail: RET/RETI/CALL_IND/TRAP/DIVU/HALT/EI/WRPSW — run the
    # bound executor once and exit the chain (always the last block).
    name = f"_tk{i}"
    env[name] = term
    if charge:
        src.w(f"cpu._pending_waits = {term.fetch_waits}")
    bus_guard([f"_t = {name}.exec(cpu, {name})"])
    src.w("cpu.instructions_retired += 1")
    if charge:
        src.w(f"_c = {term.base_cycles} + cpu._pending_waits")
        src.w("if _t:")
        src.w(f"    _c += {_TAKEN_EXTRA}")
    else:
        src.w(
            f"_c = {term.base_cycles + _TAKEN_EXTRA} if _t"
            f" else {term.base_cycles}"
        )
    src.w("cpu.cycles += _c")
    if observed:
        _record(src, term, "_c")
    src.w("return _n + 1")


def _emit_conditional_edges(
    src: _Emitter,
    term: DecodedInstruction,
    taken_cond: str,
    link: str | None,
    cost_taken: int,
    cost_fall: int,
    exit_edge,
    continue_edge,
) -> None:
    if link == "taken":
        # Off-chain edge is fall-through: exit when the branch is NOT
        # taken, fall into the next block otherwise.
        src.w(f"if not ({taken_cond}):")
        exit_edge(term.next_pc, cost_fall, "    ")
        continue_edge(cost_taken)
    elif link == "fall":
        src.w(f"if {taken_cond}:")
        exit_edge(term.imm_u, cost_taken, "    ")
        continue_edge(cost_fall)
    else:
        # Chain ends here: both edges exit.
        src.w(f"if {taken_cond}:")
        exit_edge(term.imm_u, cost_taken, "    ")
        exit_edge(term.next_pc, cost_fall, "")


# ---------------------------------------------------------------------------
# Compilation + installation.
# ---------------------------------------------------------------------------

def _compile_variant(
    blocks: list[Superblock],
    links: list[str | None],
    observed: bool,
    charge: bool,
):
    source, env = generate_chain_source(blocks, links, observed, charge)
    tag = "o" if observed else "u"
    if charge:
        tag += "w"
    code = compile(
        source, f"<jit-chain {blocks[0].start:#x} {tag}>", "exec"
    )
    exec(code, env)
    return env["_chain"]


def _worth_compiling(
    blocks: list[Superblock], links: list[str | None]
) -> bool:
    if links[-1] is not None:
        return True  # cyclic: the whole hot loop runs dispatch-free
    if len(blocks) >= 2:
        return True
    return blocks[0].body_count >= 4


def compile_chain(cache: DecodeCache, head: Superblock) -> bool:
    """Build and install every variant of the chain headed at *head*.

    Returns ``True`` when a chain was installed.  Declines idle spins
    (the analytic warp owns them), single blocks too small to beat the
    function-call overhead, and caches at :data:`JIT_MAX_CHAINS`.
    Concurrent duplicate compilation (shared caches across pool
    workers) is benign, like concurrent block formation: both threads
    install identical functions.
    """
    if cache.jit_chains >= JIT_MAX_CHAINS:
        return False
    traced = trace_chain(cache, head)
    if traced is None:
        return False
    blocks, links = traced
    if not _worth_compiling(blocks, links):
        return False
    try:
        jit_u = _compile_variant(blocks, links, False, False)
        jit_ot = _compile_variant(blocks, links, True, False)
        jit_ow = _compile_variant(blocks, links, True, True)
    except Exception:
        # A codegen hole must degrade to the superblock engine, never
        # kill the run; tests assert jit_exec_steps > 0, so silent
        # regressions here still surface.
        return False
    _memoise_edges(cache, blocks)
    head.jit_u = jit_u
    head.jit_ot = jit_ot
    head.jit_ow = jit_ow
    cache.jit_chains += 1
    return True


def _memoise_edges(cache: DecodeCache, blocks: list[Superblock]) -> None:
    """Pre-warm the successor memos for every static edge of the chain.

    Side exits retire inside the compiled body, so the superblock loop
    never observes those transitions; memoising both edges here keeps
    the chain graph as warm as interpreted execution would have left it
    (``block_at`` returns ``None`` for uncacheable targets, matching
    the runtime memo rule)."""
    for sb in blocks:
        term = sb.terminator
        if term is None:
            continue
        if term.mem_kind:
            if sb.succ_fall is None:
                sb.succ_fall = cache.block_at(term.next_pc)
        elif term.opcode == _JMP or term.opcode == _CALL_ABS:
            if sb.succ_taken is None:
                sb.succ_taken = cache.block_at(term.imm_u)
        elif term.opcode == _DJNZ or term.opcode in _COND_EXPR:
            if sb.succ_taken is None:
                sb.succ_taken = cache.block_at(term.imm_u)
            if sb.succ_fall is None:
                sb.succ_fall = cache.block_at(term.next_pc)
