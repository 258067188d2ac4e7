"""SC88 CPU core: the shared instruction executor.

Every execution platform — golden model, RTL, gate level, accelerator,
bondout, product silicon — runs this same core, because the paper's
premise is that one assembler test suite executes identically across all
platforms; platforms differ in *timing*, *visibility* and *fidelity*
(fault injection), not in instruction semantics.

Timing model: each instruction has a base cycle cost; bus wait states are
added on top when the platform enables them (``charge_wait_states``).
Functional platforms run with zero wait states; the cycle-accurate "RTL"
and "gate-level" platforms charge them.

Trap model: vectors live at the bottom of ROM, one 32-bit handler address
per vector.  Trap entry pushes the return PC then the PSW and clears the
interrupt-enable bit; ``RETI`` unwinds in reverse.  A trap whose vector
is zero is *unhandled* and raises :class:`CpuFault`, ending the run.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.isa.decodecache import (
    BASE_CYCLES,
    DecodeCache,
    _JUMP_TAKEN_EXTRA,
)
from repro.isa.encoding import decode_word, opcode_of, sign_extend_16
from repro.isa.instructions import Opcode, lookup_opcode
from repro.isa.registers import RegisterFile, WORD_MASK
from repro.soc.bus import (
    Bus,
    BusError,
    PAGE_SHIFT,
    u16_pack_into as _u16_pack_into,
    u16_unpack_from as _u16_unpack_from,
    u32_pack_into as _u32_pack_into,
    u32_unpack_from as _u32_unpack_from,
)
from repro.soc.memorymap import (
    IRQ_VECTOR_BASE,
    TRAP_BUS_ERROR,
    TRAP_DIV_ZERO,
    TRAP_ILLEGAL_OPCODE,
    TRAP_MISALIGNED,
    VECTOR_BASE,
    VECTOR_COUNT,
)
from repro.soc.peripherals.intc import InterruptController


class CpuFault(Exception):
    """Unrecoverable CPU condition (unhandled trap, bad vector)."""

    def __init__(self, reason: str, pc: int):
        super().__init__(f"{reason} at pc={pc:#010x}")
        self.reason = reason
        self.pc = pc


class TraceEntry(NamedTuple):
    """One retired instruction, for platforms with waveform visibility."""

    pc: int
    opcode: int
    mnemonic: str
    cycles: int


class InstructionTrace:
    """Flat retire log: ``(pc, opcode, mnemonic, cycles)`` tuples.

    Recording appends one tuple per retired instruction instead of a
    :class:`TraceEntry` object; consumers that want objects get them
    lazily through the sequence protocol, and bulk consumers
    (:mod:`repro.core.tracediff`) destructure :meth:`raw` directly."""

    __slots__ = ("_events", "_limit")

    def __init__(self, limit: int = 100_000):
        self._events: list[tuple[int, int, str, int]] = []
        self._limit = limit

    @classmethod
    def from_raw(cls, rows: list) -> "InstructionTrace":
        """A full trace over already-recorded ``(pc, opcode, mnemonic,
        cycles)`` *rows* (such as a cached verdict's JSON lists), each
        made a tuple: no per-row object until a consumer asks for one."""
        trace = cls(limit=len(rows))
        trace._events = list(map(tuple, rows))
        return trace

    def record(self, pc: int, opcode: int, mnemonic: str, cycles: int) -> None:
        if len(self._events) < self._limit:
            self._events.append((pc, opcode, mnemonic, cycles))

    def extend_raw(
        self, records: "list[tuple] | tuple[tuple, ...]"
    ) -> None:
        """Bulk append: identical to one :meth:`record` call per record
        (records past the limit are dropped), in one ``list.extend``.
        The superblock engine emits a whole block's retire records from
        its precomputed template this way."""
        events = self._events
        space = self._limit - len(events)
        if space <= 0:
            return
        if len(records) <= space:
            events.extend(records)
        else:
            events.extend(records[:space])

    def extend_repeat(
        self, record: tuple[int, int, str, int], count: int
    ) -> None:
        """Append *record* *count* times — the retire stream of a warped
        idle spin, synthesized closed-form and clamped to the limit so a
        huge warp costs at most one buffer's worth of work."""
        events = self._events
        space = self._limit - len(events)
        if space <= 0 or count <= 0:
            return
        events.extend([record] * min(count, space))

    def raw(self) -> list[tuple[int, int, str, int]]:
        """The event list, oldest first — treat as read-only."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __eq__(self, other) -> bool:
        if isinstance(other, InstructionTrace):
            return self._events == other._events
        return NotImplemented

    def __iter__(self):
        for event in self._events:
            yield TraceEntry(*event)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [TraceEntry(*event) for event in self._events[index]]
        return TraceEntry(*self._events[index])


#: Base cycle cost per opcode — owned by the ISA decode layer so decode
#: and cycle lookup cache together; re-exported here for compatibility.
_BASE_CYCLES = BASE_CYCLES


class CpuCore:
    """One SC88 core attached to a bus and an interrupt controller."""

    def __init__(
        self,
        bus: Bus,
        intc: InterruptController | None = None,
        charge_wait_states: bool = False,
    ):
        self.bus = bus
        self.intc = intc
        self.charge_wait_states = charge_wait_states
        self.regs = RegisterFile()
        self.halted = False
        self.instructions_retired = 0
        self.cycles = 0
        self.brk_events: list[int] = []
        self.trace: InstructionTrace | None = None
        self._pending_waits = 0
        #: Optional fault-injection hook: called with (opcode, result) and
        #: may return a corrupted result.  Used by the gate-level platform.
        self.alu_fault_hook: Callable[[int, int], int] | None = None
        #: Backing field of :attr:`decode_cache` (the engines read it
        #: directly; attaching goes through the validating setter).
        self._decode_cache: DecodeCache | None = None
        #: Idle-spin warps performed (telemetry for tests/benchmarks).
        self.ff_warps = 0
        #: Superblocks executed through the block engine (telemetry:
        #: nonzero proves the fast path engaged, not a silent fallback).
        self.sb_blocks = 0
        #: Bulk observation-template replays (body template emissions
        #: + warped spin syntheses); zero on an unobserved run.
        self.sb_replays = 0
        #: Legacy per-step fallbacks taken inside the superblock loop
        #: (RAM execution / uncacheable addresses) — fast-path coverage
        #: regressions show up here as silent nonzero counts.
        self.sb_fallback_steps = 0
        #: Cycle deadline of the current :meth:`run` block; the SoC
        #: lowers it when an SFR write moves the next event horizon
        #: nearer (``SystemOnChip.horizon_changed``).
        self._block_deadline: int | None = None
        #: Superblock chain memo carried between :meth:`run` blocks:
        #: ``(decode_cache, predicted_next_block)``.  Validated against
        #: the live cache and pc before use; dropped by :meth:`reset`.
        self._sb_resume: tuple | None = None

    @property
    def decode_cache(self) -> DecodeCache | None:
        """Predecoded-instruction cache over the loaded image's ROM; when
        set, fetch/decode for cached addresses skips the bus entirely
        (a traced bus gets the elided fetch events replayed instead).
        RAM execution and self-modifying code miss it and take the
        legacy per-step decode path.  A wait-charging core refuses a
        cache decoded for another fetch wait-state profile."""
        return self._decode_cache

    @decode_cache.setter
    def decode_cache(self, cache: DecodeCache | None) -> None:
        if cache is not None and self.charge_wait_states:
            cache.check_wait_states(self.bus)
        self._decode_cache = cache

    # -- lifecycle ---------------------------------------------------------
    def reset(self, entry: int, stack_pointer: int) -> None:
        self.regs.reset(sp_init=stack_pointer)
        self.regs.pc = entry
        self.halted = False
        self.instructions_retired = 0
        self.cycles = 0
        self.brk_events = []
        self._pending_waits = 0
        self.ff_warps = 0
        self.sb_blocks = 0
        self.sb_replays = 0
        self.sb_fallback_steps = 0
        self._sb_resume = None

    def enable_trace(self, limit: int = 100_000) -> None:
        self.trace = InstructionTrace(limit)

    # -- bus helpers -----------------------------------------------------------
    # Word accesses (fetch fallback, stack, word loads/stores) take the
    # bus's word-specialised fast path; other sizes use the generic one.
    def _read(self, address: int, size: int) -> int:
        if size == 4:
            value, waits = self.bus.read_word(address)
        else:
            value, waits = self.bus.read(address, size)
        if self.charge_wait_states:
            self._pending_waits += waits
        return value

    def _write(self, address: int, value: int, size: int) -> None:
        if size == 4:
            waits = self.bus.write_word(address, value)
        else:
            waits = self.bus.write(address, value, size)
        if self.charge_wait_states:
            self._pending_waits += waits

    def _push(self, value: int) -> None:
        sp = (self.regs.sp - 4) & WORD_MASK
        self.regs.sp = sp
        waits = self.bus.write_word(sp, value & WORD_MASK)
        if self.charge_wait_states:
            self._pending_waits += waits

    def _pop(self) -> int:
        value, waits = self.bus.read_word(self.regs.sp)
        if self.charge_wait_states:
            self._pending_waits += waits
        self.regs.sp = (self.regs.sp + 4) & WORD_MASK
        return value

    # Direct word accessors for the predecoded memory micro-ops: when
    # the access is untraced, aligned and lands on a Memory-backed page,
    # read/write the mapping's byte buffer in place — no bus method
    # call, no (value, waits) tuple.  Anything else (peripherals,
    # partial pages, active tracing, misalignment) takes the bus's word
    # path, which preserves full semantics.
    def _read_word_fast(self, address: int) -> int:
        bus = self.bus
        if bus.trace_buffer is None and not address & 3:
            mapping = bus.page_table.get(address >> PAGE_SHIFT)
            if mapping is not None and mapping.word_buf is not None:
                bus.access_count += 1
                if self.charge_wait_states:
                    self._pending_waits += mapping.wait_states
                return _u32_unpack_from(
                    mapping.word_buf, address - mapping.base
                )[0]
        value, waits = bus.read_word(address)
        if self.charge_wait_states:
            self._pending_waits += waits
        return value

    def _write_word_fast(self, address: int, value: int) -> None:
        bus = self.bus
        if bus.trace_buffer is None and not address & 3:
            mapping = bus.page_table.get(address >> PAGE_SHIFT)
            if mapping is not None and mapping.word_wbuf is not None:
                bus.access_count += 1
                if self.charge_wait_states:
                    self._pending_waits += mapping.wait_states
                _u32_pack_into(
                    mapping.word_wbuf,
                    address - mapping.base,
                    value & 0xFFFF_FFFF,
                )
                return
        waits = self.bus.write_word(address, value)
        if self.charge_wait_states:
            self._pending_waits += waits

    # Halfword/byte flavours for the LD.H/LD.B/ST.H/ST.B micro-ops.
    # An aligned halfword (or any byte) can never straddle a 256-byte
    # page, so a page-table hit proves the access is inside the
    # mapping's buffer.  Loads zero-extend, stores truncate — matching
    # the bus's generic sized access exactly.
    def _read_half_fast(self, address: int) -> int:
        bus = self.bus
        if bus.trace_buffer is None and not address & 1:
            mapping = bus.page_table.get(address >> PAGE_SHIFT)
            if mapping is not None and mapping.word_buf is not None:
                bus.access_count += 1
                if self.charge_wait_states:
                    self._pending_waits += mapping.wait_states
                return _u16_unpack_from(
                    mapping.word_buf, address - mapping.base
                )[0]
        value, waits = bus.read(address, 2)
        if self.charge_wait_states:
            self._pending_waits += waits
        return value

    def _write_half_fast(self, address: int, value: int) -> None:
        bus = self.bus
        if bus.trace_buffer is None and not address & 1:
            mapping = bus.page_table.get(address >> PAGE_SHIFT)
            if mapping is not None and mapping.word_wbuf is not None:
                bus.access_count += 1
                if self.charge_wait_states:
                    self._pending_waits += mapping.wait_states
                _u16_pack_into(
                    mapping.word_wbuf,
                    address - mapping.base,
                    value & 0xFFFF,
                )
                return
        waits = bus.write(address, value, 2)
        if self.charge_wait_states:
            self._pending_waits += waits

    def _read_byte_fast(self, address: int) -> int:
        bus = self.bus
        if bus.trace_buffer is None:
            mapping = bus.page_table.get(address >> PAGE_SHIFT)
            if mapping is not None and mapping.word_buf is not None:
                bus.access_count += 1
                if self.charge_wait_states:
                    self._pending_waits += mapping.wait_states
                return mapping.word_buf[address - mapping.base]
        value, waits = bus.read(address, 1)
        if self.charge_wait_states:
            self._pending_waits += waits
        return value

    def _write_byte_fast(self, address: int, value: int) -> None:
        bus = self.bus
        if bus.trace_buffer is None:
            mapping = bus.page_table.get(address >> PAGE_SHIFT)
            if mapping is not None and mapping.word_wbuf is not None:
                bus.access_count += 1
                if self.charge_wait_states:
                    self._pending_waits += mapping.wait_states
                mapping.word_wbuf[address - mapping.base] = value & 0xFF
                return
        waits = bus.write(address, value, 1)
        if self.charge_wait_states:
            self._pending_waits += waits

    # -- traps / interrupts --------------------------------------------------
    def take_trap(self, number: int, return_pc: int) -> None:
        if not 0 <= number < VECTOR_COUNT:
            raise CpuFault(f"trap number {number} out of range", return_pc)
        vector_address = VECTOR_BASE + 4 * number
        handler = self._read(vector_address, 4)
        if handler == 0:
            raise CpuFault(f"unhandled trap {number}", return_pc)
        try:
            self._push(return_pc)
            self._push(self.regs.psw.value)
        except BusError as exc:
            # Trap-frame push failed (stack ran off mapped memory): a
            # double fault — unrecoverable by architecture.
            raise CpuFault(
                f"double fault: cannot push trap {number} frame "
                f"({exc})",
                return_pc,
            ) from exc
        self.regs.psw.interrupt_enable = False
        self.regs.pc = handler

    def _check_interrupts(self) -> bool:
        if self.intc is None or not self.regs.psw.interrupt_enable:
            return False
        line = self.intc.pending_line()
        if line is None:
            return False
        self.take_trap(IRQ_VECTOR_BASE + line, self.regs.pc)
        self.cycles += 4  # interrupt entry latency
        return True

    # -- main step -----------------------------------------------------------
    def step(self) -> int:
        """Execute one instruction on the reference interpreter; returns
        cycles consumed (including interrupt entry if one was taken
        first).

        Every instruction is fetched and decoded through the bus
        (:meth:`_step_uncached`), whether or not a decode cache is
        attached: the cache serves only :meth:`run`'s superblock loop.
        """
        if self.halted:
            return 0
        start_cycles = self.cycles
        self._pending_waits = 0
        self._check_interrupts()
        return self._step_uncached(self.regs.pc, start_cycles)

    def _step_uncached(self, pc: int, start_cycles: int) -> int:
        """Fetch/decode through the bus and execute via the reference
        chain — the reference interpreter: every :meth:`step` (so every
        instruction of a core with an ALU fault hook armed, the only
        place the hook is applied) and the superblock loop's cache
        misses."""
        try:
            word = self._read(pc, 4)
        except BusError:
            self.take_trap(TRAP_BUS_ERROR, pc)
            self.cycles += 2
            return self.cycles - start_cycles

        opcode = opcode_of(word)
        try:
            spec = lookup_opcode(opcode)
        except KeyError:
            self.take_trap(TRAP_ILLEGAL_OPCODE, pc + 4)
            self.cycles += 2
            return self.cycles - start_cycles

        literal = None
        if spec.fmt.has_literal:
            try:
                literal = self._read(pc + 4, 4)
            except BusError:
                # Truncated two-word instruction at the end of
                # mapped memory: same architectural outcome as a
                # failed opcode-word fetch.
                self.take_trap(TRAP_BUS_ERROR, pc)
                self.cycles += 2
                return self.cycles - start_cycles
        next_pc = pc + spec.size_bytes
        fields = decode_word(spec.fmt, word)

        try:
            taken = self._execute(Opcode(opcode), fields, literal, next_pc)
        except BusError:
            self.take_trap(TRAP_BUS_ERROR, next_pc)
            self.cycles += 2
            self.instructions_retired += 1
            return self.cycles - start_cycles

        self.instructions_retired += 1
        cost = _BASE_CYCLES[opcode] + self._pending_waits
        if taken:
            cost += _JUMP_TAKEN_EXTRA
        self.cycles += cost

        if self.trace is not None:
            self.trace.record(pc, opcode, spec.mnemonic, cost)
        return self.cycles - start_cycles

    # -- block execution ------------------------------------------------------
    def run(
        self,
        cycle_budget: int | None = None,
        instruction_limit: int | None = None,
    ) -> int:
        """Execute a block of instructions; returns cycles consumed.

        Stops at HALT, when *instruction_limit* (an absolute
        ``instructions_retired`` ceiling) is reached, or — checked after
        each retired instruction, exactly where the per-step loop
        ticked peripherals — once *cycle_budget* cycles have been
        consumed or the deadline the SoC lowered mid-run (an SFR write
        that moved the event horizon nearer) is reached.  Engine
        selection: the superblock loop runs whenever a decode cache is
        attached and no ALU fault hook is armed — observation
        (instruction trace, bus trace buffer, wait-state charging) only
        switches it to template replay.  Anything else (no decode cache, or a hooked core)
        steps through :meth:`step`, the reference interpreter.
        """
        if self.halted:
            return 0
        start_cycles = self.cycles
        self._block_deadline = (
            None if cycle_budget is None else start_cycles + cycle_budget
        )
        if self._decode_cache is not None and self.alu_fault_hook is None:
            self._run_superblocks(
                instruction_limit,
                self.trace is not None
                or self.charge_wait_states
                or self.bus.trace_buffer is not None,
            )
            return self.cycles - start_cycles

        while not self.halted:
            if (
                instruction_limit is not None
                and self.instructions_retired >= instruction_limit
            ):
                break
            self.step()
            deadline = self._block_deadline
            if deadline is not None and self.cycles >= deadline:
                break
        return self.cycles - start_cycles

    def _run_superblocks(self, limit: int | None, observed: bool) -> None:
        """Superblock execution loop (decode cache attached, no fault
        hook).

        Retires instructions block-at-a-time: the interrupt probe and
        the limit check run once per superblock (sound because body
        instructions are pure-register — they cannot raise bus traffic,
        flush peripheral time, take traps, or arm the interrupt-enable
        bit), the straight-line body executes as one fused loop with
        cycles and retire counts batched, and the terminator chains
        directly to its cached successor block.  When the window ends
        inside a body, only the prefix that retires before the stop
        point is fused and the entry after it runs as the terminator of
        the block's :meth:`~repro.isa.decodecache.Superblock.cut`, so
        stop points stay exactly where :meth:`step` puts them.

        Idle spins (``DJNZ rX, .``) are fast-forwarded: the remaining
        taken iterations are warped analytically — counter, logic
        flags, cycle counter and retire count all land exactly where
        per-instruction execution would put them — clamped to the
        block deadline (the SoC's event horizon) and the retire limit
        so interrupt delivery and stop points are byte-identical.  The
        final, not-taken iteration always executes normally.

        *observed* (an instruction trace, a bus trace buffer and/or
        wait-state charging is active) replays each block's
        precomputed observation templates in bulk and counts the
        replays in ``sb_replays``: the body's concatenated fetch events
        land in the bus trace through one wrap-correct slice append,
        its retire-trace records come from the block's static template
        (cost = base cycles, with fetch waits folded in the
        cycle-accurate variant), and a warped spin synthesizes its
        repeated fetch/retire records closed-form, clamped to each
        ring's capacity.  Only data-access waits are charged inline
        (and only terminators can incur them).  The one asymmetry with
        :meth:`step` is wait debt left by an interrupt entry (vector
        read + frame pushes): ``step`` folds it into the next
        instruction's cost, which a static template cannot carry, so
        that first instruction retires as the terminator of an empty
        prefix.
        """
        regs = self.regs
        psw = regs.psw
        intc = self.intc
        cache = self._decode_cache
        block_at = cache.block_at
        resume = self._sb_resume
        sb = resume[1] if resume is not None and resume[0] is cache else None
        bus = self.bus
        bus_trace = bus.trace_buffer
        trace = self.trace
        charge = self.charge_wait_states
        while not self.halted:
            retired = self.instructions_retired
            if limit is not None and retired >= limit:
                break
            self._pending_waits = 0
            if intc is not None and psw.interrupt_enable:
                self._check_interrupts()
            pc = regs.pc
            if sb is None or sb.start != pc:
                sb = block_at(pc)
                if sb is None:
                    # RAM execution / trap-prone address: one reference
                    # step (it records its own trace entry and charges
                    # its own waits, interrupt-entry debt included).
                    self.sb_fallback_steps += 1
                    self._step_uncached(pc, self.cycles)
                    deadline = self._block_deadline
                    if deadline is not None and self.cycles >= deadline:
                        break
                    continue
            self.sb_blocks += 1
            pending = self._pending_waits
            if sb.spin_reg >= 0 and not pending:
                counter = regs.data[sb.spin_reg]
                warp = (counter - 1) & WORD_MASK
                if limit is not None and warp > limit - retired:
                    warp = limit - retired
                cost = sb.spin_cost_w if charge else sb.spin_cost
                deadline = self._block_deadline
                if deadline is not None:
                    room = deadline - self.cycles
                    # First iteration count whose retire lands at or
                    # past the deadline — exactly where per-instruction
                    # stepping stops.
                    boundary = -(-room // cost) if room > 0 else 0
                    if warp > boundary:
                        warp = boundary
                if warp > 0:
                    term = sb.terminator
                    value = (counter - warp) & WORD_MASK
                    regs.data[sb.spin_reg] = value
                    psw.set_logic_flags(value)
                    self.instructions_retired = retired + warp
                    self.cycles += warp * cost
                    cache.hits += warp
                    self.ff_warps += 1
                    if observed:
                        self.sb_replays += 1
                    if bus_trace is not None:
                        bus.access_count += warp * len(term.fetch_events)
                        bus_trace.extend_repeat(term.fetch_events, warp)
                    if trace is not None:
                        trace.extend_repeat(
                            (term.pc, term.opcode, term.mnemonic, cost),
                            warp,
                        )
                    if deadline is not None and self.cycles >= deadline:
                        break
                    continue  # remaining iterations retire normally
            body = sb.body
            if body:
                deadline = self._block_deadline
                if (
                    pending
                    or (limit is not None and retired + sb.body_count > limit)
                    or (
                        deadline is not None
                        and self.cycles
                        + (sb.body_cycles_w if charge else sb.body_cycles)
                        >= deadline
                    )
                ):
                    # The window ends inside the body, or interrupt-entry
                    # wait debt the static template cannot carry: fuse
                    # the prefix that retires before the stop point, and
                    # retire the entry after it as the terminator.
                    most = sb.body_count - 1
                    if pending:
                        most = 0
                    elif limit is not None and limit - retired - 1 < most:
                        most = limit - retired - 1
                    if deadline is not None and most:
                        most = sb.prefix_before(
                            deadline - self.cycles, most, charge
                        )
                    sb = sb.cut(body[most])
                    body = sb.body
                for entry in body:
                    entry.exec(self, entry)
                count = sb.body_count
                if count:
                    retired += count
                    self.instructions_retired = retired
                    self.cycles += sb.body_cycles_w if charge else sb.body_cycles
                    cache.hits += count
                    if observed:
                        self.sb_replays += 1
                    if bus_trace is not None:
                        bus.access_count += len(sb.fetch_events)
                        bus_trace.extend_raw(sb.fetch_events)
                    if trace is not None:
                        trace.extend_raw(
                            sb.trace_tmpl_w if charge else sb.trace_tmpl
                        )
                    if limit is not None and retired >= limit:
                        break  # retire ceiling reached before the terminator
            term = sb.terminator
            if term is None:
                # Next address not cacheable: resolve it at the top of
                # the loop (legacy step or a fresh block).
                sb = None
                deadline = self._block_deadline
                if deadline is not None and self.cycles >= deadline:
                    break
                continue
            # Terminator: per-instruction, step()-equivalent.  Data
            # accesses route through the traced bus (recording their
            # own events and charging their own waits); fetch events
            # are replayed first, exactly as step() emits them.
            if charge:
                self._pending_waits += term.fetch_waits
            if bus_trace is not None:
                bus.access_count += len(term.fetch_events)
                bus_trace.extend_raw(term.fetch_events)
            try:
                taken = term.exec(self, term)
            except BusError:
                self.take_trap(TRAP_BUS_ERROR, term.next_pc)
                self.cycles += 2
                self.instructions_retired += 1
                sb = None
            else:
                self.instructions_retired += 1
                cost = term.base_cycles + self._pending_waits
                if taken:
                    cost += _JUMP_TAKEN_EXTRA
                self.cycles += cost
                cache.hits += 1
                if trace is not None:
                    trace.record(term.pc, term.opcode, term.mnemonic, cost)
                # Chain: ride the cached successor when it matches the
                # live pc, otherwise resolve and memoise it.
                succ = sb.succ_taken if taken else sb.succ_fall
                next_pc = regs.pc
                if succ is None or succ.start != next_pc:
                    succ = block_at(next_pc)
                    if succ is not None:
                        if taken:
                            sb.succ_taken = succ
                        else:
                            sb.succ_fall = succ
                sb = succ
            deadline = self._block_deadline
            if deadline is not None and self.cycles >= deadline:
                break
        # Persist the predicted chain for the next block run (validated
        # against the live pc before it is followed).
        self._sb_resume = None if sb is None else (cache, sb)

    # -- execution ---------------------------------------------------------
    def _execute(
        self,
        opcode: Opcode,
        fields: dict[str, int],
        literal: int | None,
        next_pc: int,
    ) -> bool:
        """Execute; returns True when a branch was taken (extra cycle)."""
        regs = self.regs
        data = regs.data
        addr = regs.address
        psw = regs.psw
        regs.pc = next_pc  # default fall-through; control flow overrides
        r1 = fields.get("r1", 0)
        r2 = fields.get("r2", 0)
        r3 = fields.get("r3", 0)

        def alu_result(value: int) -> int:
            value &= WORD_MASK
            if self.alu_fault_hook is not None:
                value = self.alu_fault_hook(int(opcode), value) & WORD_MASK
            return value

        if opcode is Opcode.NOP:
            return False
        if opcode is Opcode.HALT:
            self.halted = True
            return False
        if opcode is Opcode.BRK:
            self.brk_events.append(next_pc - 4)
            return False
        if opcode is Opcode.DI:
            psw.interrupt_enable = False
            return False
        if opcode is Opcode.EI:
            psw.interrupt_enable = True
            return False
        if opcode is Opcode.RET:
            regs.pc = self._pop()
            return True
        if opcode is Opcode.RETI:
            psw.value = self._pop()
            regs.pc = self._pop()
            return True

        # -- moves ------------------------------------------------------------
        if opcode is Opcode.MOV_DD:
            data[r1] = alu_result(data[r2])
            psw.set_logic_flags(data[r1])
            return False
        if opcode is Opcode.MOV_AA:
            addr[r1] = addr[r2]
            return False
        if opcode is Opcode.MOV_DA:
            data[r1] = addr[r2]
            return False
        if opcode is Opcode.MOV_AD:
            addr[r1] = data[r2]
            return False
        if opcode in (Opcode.LOAD_D, Opcode.LOAD_A):
            assert literal is not None
            bank = data if opcode is Opcode.LOAD_D else addr
            bank[r1] = literal & WORD_MASK
            return False
        if opcode is Opcode.MOVI:
            data[r1] = sign_extend_16(fields["imm16"]) & WORD_MASK
            return False
        if opcode is Opcode.MOVHI:
            data[r1] = (fields["imm16"] << 16) & WORD_MASK
            return False

        # -- memory ---------------------------------------------------------
        if opcode in (Opcode.LD_W, Opcode.LD_H, Opcode.LD_B):
            size = {Opcode.LD_W: 4, Opcode.LD_H: 2, Opcode.LD_B: 1}[opcode]
            address = (addr[r2] + sign_extend_16(fields["imm16"])) & WORD_MASK
            data[r1] = self._read(address, size)
            return False
        if opcode in (Opcode.ST_W, Opcode.ST_H, Opcode.ST_B):
            size = {Opcode.ST_W: 4, Opcode.ST_H: 2, Opcode.ST_B: 1}[opcode]
            address = (addr[r2] + sign_extend_16(fields["imm16"])) & WORD_MASK
            self._write(address, data[r1], size)
            return False
        if opcode is Opcode.LDABS_D:
            assert literal is not None
            data[r1] = self._read(literal & WORD_MASK, 4)
            return False
        if opcode is Opcode.LDABS_A:
            assert literal is not None
            addr[r1] = self._read(literal & WORD_MASK, 4)
            return False
        if opcode is Opcode.STABS_D:
            assert literal is not None
            self._write(literal & WORD_MASK, data[r1], 4)
            return False
        if opcode is Opcode.STABS_A:
            assert literal is not None
            self._write(literal & WORD_MASK, addr[r1], 4)
            return False

        # -- ALU ----------------------------------------------------------------
        if opcode is Opcode.ADD:
            raw = data[r2] + data[r3]
            psw.set_add_flags(data[r2], data[r3], raw)
            data[r1] = alu_result(raw)
            return False
        if opcode is Opcode.SUB:
            psw.set_sub_flags(data[r2], data[r3])
            data[r1] = alu_result(data[r2] - data[r3])
            return False
        if opcode is Opcode.AND:
            data[r1] = alu_result(data[r2] & data[r3])
            psw.set_logic_flags(data[r1])
            return False
        if opcode is Opcode.OR:
            data[r1] = alu_result(data[r2] | data[r3])
            psw.set_logic_flags(data[r1])
            return False
        if opcode is Opcode.XOR:
            data[r1] = alu_result(data[r2] ^ data[r3])
            psw.set_logic_flags(data[r1])
            return False
        if opcode in (Opcode.SHL, Opcode.SHR, Opcode.SAR):
            amount = data[r3] & 31
            data[r1] = alu_result(self._shift(opcode, data[r2], amount))
            return False
        if opcode in (Opcode.SHLI, Opcode.SHRI, Opcode.SARI):
            amount = fields["imm16"] & 31
            mapped = {
                Opcode.SHLI: Opcode.SHL,
                Opcode.SHRI: Opcode.SHR,
                Opcode.SARI: Opcode.SAR,
            }[opcode]
            data[r1] = alu_result(self._shift(mapped, data[r2], amount))
            return False
        if opcode is Opcode.MUL:
            data[r1] = alu_result(data[r2] * data[r3])
            psw.set_logic_flags(data[r1])
            return False
        if opcode is Opcode.NOT:
            data[r1] = alu_result(~data[r2])
            psw.set_logic_flags(data[r1])
            return False
        if opcode is Opcode.NEG:
            psw.set_sub_flags(0, data[r2])
            data[r1] = alu_result(-data[r2])
            return False
        if opcode is Opcode.ADDI:
            imm = sign_extend_16(fields["imm16"])
            raw = data[r2] + imm
            psw.set_add_flags(data[r2], imm & WORD_MASK, raw)
            data[r1] = alu_result(raw)
            return False
        if opcode is Opcode.ANDI:
            data[r1] = alu_result(data[r2] & fields["imm16"])
            psw.set_logic_flags(data[r1])
            return False
        if opcode is Opcode.ORI:
            data[r1] = alu_result(data[r2] | fields["imm16"])
            psw.set_logic_flags(data[r1])
            return False
        if opcode is Opcode.XORI:
            data[r1] = alu_result(data[r2] ^ fields["imm16"])
            psw.set_logic_flags(data[r1])
            return False
        if opcode is Opcode.ADDA:
            addr[r1] = (addr[r2] + sign_extend_16(fields["imm16"])) & WORD_MASK
            return False
        if opcode is Opcode.DIVU:
            if data[r3] == 0:
                self.take_trap(TRAP_DIV_ZERO, next_pc)
                return True
            data[r1] = alu_result(data[r2] // data[r3])
            psw.set_logic_flags(data[r1])
            return False
        if opcode is Opcode.CMP:
            psw.set_sub_flags(data[r1], data[r2])
            return False
        if opcode is Opcode.CMPI:
            psw.set_sub_flags(data[r1], sign_extend_16(fields["imm16"]) & WORD_MASK)
            return False

        # -- bit fields -------------------------------------------------------
        if opcode is Opcode.INSERT:
            assert literal is not None
            data[r1] = alu_result(
                self._insert(data[r2], literal, fields["pos"], fields["width"])
            )
            psw.set_logic_flags(data[r1])
            return False
        if opcode is Opcode.INSERTR:
            data[r1] = alu_result(
                self._insert(data[r2], data[r3], fields["pos"], fields["width"])
            )
            psw.set_logic_flags(data[r1])
            return False
        if opcode in (Opcode.EXTRU, Opcode.EXTRS):
            pos, width = fields["pos"], fields["width"]
            mask = ((1 << width) - 1) if width < 32 else WORD_MASK
            value = (data[r2] >> pos) & mask
            if opcode is Opcode.EXTRS and width < 32 and value & (
                1 << (width - 1)
            ):
                value |= WORD_MASK & ~mask
            data[r1] = alu_result(value)
            psw.set_logic_flags(data[r1])
            return False
        if opcode in (Opcode.SETB, Opcode.CLRB, Opcode.TGLB, Opcode.TSTB):
            bit = fields["imm16"] & 31
            if opcode is Opcode.SETB:
                data[r1] = alu_result(data[r1] | (1 << bit))
                psw.set_logic_flags(data[r1])
            elif opcode is Opcode.CLRB:
                data[r1] = alu_result(data[r1] & ~(1 << bit))
                psw.set_logic_flags(data[r1])
            elif opcode is Opcode.TGLB:
                data[r1] = alu_result(data[r1] ^ (1 << bit))
                psw.set_logic_flags(data[r1])
            else:  # TSTB
                psw.zero = not (data[r1] >> bit) & 1
            return False

        # -- control flow -------------------------------------------------------
        if opcode is Opcode.JMP:
            assert literal is not None
            regs.pc = literal & WORD_MASK
            return True
        condition = self._condition(opcode)
        if condition is not None:
            assert literal is not None
            if condition:
                regs.pc = literal & WORD_MASK
                return True
            return False
        if opcode is Opcode.CALL_ABS:
            assert literal is not None
            self._push(next_pc)
            regs.pc = literal & WORD_MASK
            return True
        if opcode is Opcode.CALL_IND:
            self._push(next_pc)
            regs.pc = addr[r1]
            return True
        if opcode is Opcode.DJNZ:
            assert literal is not None
            data[r1] = (data[r1] - 1) & WORD_MASK
            psw.set_logic_flags(data[r1])
            if data[r1] != 0:
                regs.pc = literal & WORD_MASK
                return True
            return False

        # -- stack ---------------------------------------------------------------
        if opcode is Opcode.PUSH_D:
            self._push(data[r1])
            return False
        if opcode is Opcode.PUSH_A:
            self._push(addr[r1])
            return False
        if opcode is Opcode.POP_D:
            data[r1] = self._pop()
            return False
        if opcode is Opcode.POP_A:
            addr[r1] = self._pop()
            return False

        # -- system ---------------------------------------------------------------
        if opcode is Opcode.TRAP:
            self.take_trap(fields["imm8"], next_pc)
            return True
        if opcode is Opcode.RDPSW:
            data[r1] = psw.value
            return False
        if opcode is Opcode.WRPSW:
            psw.value = data[r1]
            return False

        raise CpuFault(f"unimplemented opcode {opcode!r}", next_pc - 4)

    # -- helpers -----------------------------------------------------------
    def _shift(self, opcode: Opcode, value: int, amount: int) -> int:
        psw = self.regs.psw
        if amount == 0:
            psw.set_logic_flags(value)
            return value
        if opcode is Opcode.SHL:
            result = (value << amount) & WORD_MASK
            carry = bool((value >> (32 - amount)) & 1)
        elif opcode is Opcode.SHR:
            result = (value >> amount) & WORD_MASK
            carry = bool((value >> (amount - 1)) & 1)
        else:  # SAR
            signed = value - (1 << 32) if value & 0x8000_0000 else value
            result = (signed >> amount) & WORD_MASK
            carry = bool((value >> (amount - 1)) & 1)
        psw.set_logic_flags(result)
        psw.carry = carry
        return result

    @staticmethod
    def _insert(base: int, value: int, pos: int, width: int) -> int:
        mask = ((1 << width) - 1) if width < 32 else WORD_MASK
        mask_shifted = (mask << pos) & WORD_MASK
        return (base & ~mask_shifted) | ((value & mask) << pos) & WORD_MASK

    def _condition(self, opcode: Opcode) -> bool | None:
        psw = self.regs.psw
        table: dict[Opcode, Callable[[], bool]] = {
            Opcode.JZ: lambda: psw.zero,
            Opcode.JNZ: lambda: not psw.zero,
            Opcode.JC: lambda: psw.carry,
            Opcode.JNC: lambda: not psw.carry,
            Opcode.JN: lambda: psw.negative,
            Opcode.JNN: lambda: not psw.negative,
            Opcode.JV: lambda: psw.overflow,
            Opcode.JNV: lambda: not psw.overflow,
            Opcode.JGE: lambda: psw.negative == psw.overflow,
            Opcode.JLT: lambda: psw.negative != psw.overflow,
            Opcode.JGT: lambda: not psw.zero
            and psw.negative == psw.overflow,
            Opcode.JLE: lambda: psw.zero or psw.negative != psw.overflow,
        }
        checker = table.get(opcode)
        return checker() if checker is not None else None
