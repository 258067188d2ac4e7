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
  gone — each decoded instruction becomes its row of
  :data:`repro.isa.semantics.ROWS` rendered with the entry as the
  operand binding: plain statements over the hoisted ``data``/``addr``/
  ``psw`` locals, operands as literals, the PSW flag algebra inlined and
  folded against known immediates, and no pc store.  Body instructions
  and memory terminators use a row's effect, conditional branches and
  ``DJNZ`` its taken-condition; the decode cache's executors are the
  same rows rendered with operands read at run time;
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

Generated source is compiled at most once per process
(:func:`~repro.isa.decodecache.chain_code`): the three variants of
every chain are generated, but the same chain over the same bytes in
another wait-state profile's cache, or in another image that shares
the code, costs no second ``compile()``; each chain still binds its
own globals (its blocks' entries and observation templates).

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

import types

from repro.isa.decodecache import (
    JIT_THRESHOLD,  # defined beside the heat counter it governs
    DecodeCache,
    DecodedInstruction,
    Superblock,
    chain_code,
)
from repro.isa.instructions import Opcode
from repro.soc.bus import BusError
from repro.soc.memorymap import TRAP_BUS_ERROR

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

#: ``isa/semantics.py``'s opcode table and the opcodes of its rows with
#: a taken-condition (conditional branches and ``DJNZ``), imported on
#: the first chain trace so importing the JIT stays cheap.
_ROWS: dict | None = None
_CONDITIONAL: frozenset[int] = frozenset()


def _rows() -> dict:
    global _ROWS, _CONDITIONAL
    if _ROWS is None:
        from repro.isa.semantics import ROWS

        _CONDITIONAL = frozenset(
            int(op) for op, row in ROWS.items() if row.cond is not None
        )
        _ROWS = ROWS
    return _ROWS


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
    _rows()
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
        elif term.opcode in _CONDITIONAL:
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
    _rows()
    env: dict = {"BusError": BusError}
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
        for entry in sb.body:
            src.block(_ROWS[entry.opcode].effect(entry))
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
        bus_guard(_ROWS[opcode].effect(term))
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
        bus_guard(_ROWS[opcode].effect(term))
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

    row = _ROWS[opcode]
    if row.cond is not None:
        src.block(row.effect(term))  # DJNZ's count-down; none for Jcc
        src.w("cpu.instructions_retired += 1")
        _emit_conditional_edges(
            src, term, row.cond, link, cost_taken, cost_fall,
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
    """Generate one variant of a chain and bind it to its own globals;
    the code object is shared with every chain that renders the same
    source (:func:`~repro.isa.decodecache.chain_code`)."""
    source, env = generate_chain_source(blocks, links, observed, charge)
    tag = "o" if observed else "u"
    if charge:
        tag += "w"
    code = chain_code(source, f"<jit-chain {blocks[0].start:#x} {tag}>")
    env["__builtins__"] = __builtins__
    return types.FunctionType(code, env, "_chain")


def _worth_compiling(
    blocks: list[Superblock], links: list[str | None]
) -> bool:
    if links[-1] is not None:
        return True  # cyclic: the whole hot loop runs dispatch-free
    if len(blocks) >= 2:
        return True
    return blocks[0].body_count >= 4


def compile_chain(cache: DecodeCache, head: Superblock, core=None) -> bool:
    """Build and install every variant of the chain headed at *head*.

    Returns ``True`` when a chain was installed.  Declines idle spins
    (the analytic warp owns them), single blocks too small to beat the
    function-call overhead, and caches at :data:`JIT_MAX_CHAINS`.
    Concurrent duplicate compilation (the daemon's jobs share caches)
    is benign, like concurrent block formation: both threads install
    identical functions.
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
        # A codegen hole degrades to the superblock engine, never kills
        # the run; *core* (the CpuCore whose trigger this was) counts it
        # in ``jit_codegen_failures`` so the fallback is not silent.
        if core is not None:
            core.jit_codegen_failures += 1
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
        elif term.opcode in _CONDITIONAL:
            if sb.succ_taken is None:
                sb.succ_taken = cache.block_at(term.imm_u)
            if sb.succ_fall is None:
                sb.succ_fall = cache.block_at(term.next_pc)
