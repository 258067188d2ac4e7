"""Predecoded-instruction cache: decode once per ROM word, not per retire.

The interpreter's hot loop used to re-run opcode extraction, format-field
unpacking and the base-cycle lookup on every retired instruction.  All of
that is a pure function of the instruction word(s) — and test images
execute from read-only ROM — so the work can be done once per distinct
program-counter value and reused for every subsequent retire of that
address (loops, repeated calls, and every later run of the same image).

Beyond fields, each cache entry is bound to a per-opcode **executor
function** drawn from the :data:`EXECUTORS` table — the Python analogue
of a computed-goto dispatch table.  Operands are precomputed at decode
time (register indices, sign/zero-extended immediates, branch targets,
bit-field masks), so the execute stage is ``entry.exec(cpu, entry)``:
one dict-free indirect call instead of the core's ~300-line ``if/elif``
opcode chain, which survives in :meth:`CpuCore._execute` as the
reference interpreter and the fault-injection path.  The executors are
not written here: each is rendered from its opcode's row in
:mod:`repro.isa.semantics` and all of them are compiled in one
``compile()`` the first time an entry is decoded or unpickled.

:class:`DecodeCache` is *lazy*: an address is decoded the first time the
core fetches it, then memoised.  Laziness matters because images carry
far more words (base functions, trap handlers, embedded software) than a
short directed test ever executes; eager predecode of the whole ROM
would cost more than it saves on the paper's small test cells.
:meth:`DecodeCache.predecode_all` exists for benchmarks and tools that
do want every word decoded up front.

Caches only cover addresses inside the read-only region they were built
for (ROM).  RAM/NVM execution — including self-modifying code — misses
the cache and falls back to the core's legacy fetch-decode path, which
reads through the bus every time.

Caches are shared across platforms via :func:`decode_cache_for`, keyed
by the image's content digest: the six platforms of one regression run
the same linked image, so the decode work is paid once per image, not
once per platform.

On top of the per-address entries the cache stitches **superblocks**
(:class:`Superblock`): maximal straight-line runs of pure-register
instructions plus one terminator (a branch, call, trap, memory micro-op,
or interrupt-enable writer).  The core's block runner executes a
superblock body as one fused loop — no per-instruction cache probe,
interrupt probe, or budget check — and chains block-to-block across
taken branches by caching the successor block on the branch's
superblock (validated against the live program counter on every
transition, so dynamic targets like ``RET`` stay correct).  Superblocks
whose entire architectural effect is counting a register down
(``DJNZ rX, .`` self-loops) are flagged as *idle spins* so the core can
fast-forward them analytically.  Like entries, superblocks are pure
functions of the image bytes: the digest key that shares the cache also
invalidates every block when the image changes.

Each superblock additionally carries **observation templates** —
concatenated fetch-event tuples, static retire-trace record templates,
and fetch-wait-folded cycle totals — so the core can execute blocks at
full speed under a bus trace, an instruction trace, or wait-state
charging, replaying a block's observable side effects with bulk ring
appends instead of per-instruction recording.
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping

from repro.isa.encoding import decode_word, opcode_of, sign_extend_16
from repro.isa.instructions import Opcode, lookup_opcode
from repro.isa.registers import WORD_MASK

#: Base cycle cost per opcode (before wait states).  Owned by the ISA
#: layer so decode + cycle lookup are a single cached step.
BASE_CYCLES: dict[int, int] = {}


def _cycles_for(opcode: Opcode) -> int:
    two_cycle = {
        Opcode.LD_W, Opcode.LD_H, Opcode.LD_B,
        Opcode.ST_W, Opcode.ST_H, Opcode.ST_B,
        Opcode.LDABS_D, Opcode.STABS_D, Opcode.LDABS_A, Opcode.STABS_A,
        Opcode.LOAD_D, Opcode.LOAD_A,
        Opcode.PUSH_D, Opcode.PUSH_A, Opcode.POP_D, Opcode.POP_A,
        Opcode.INSERT,
    }
    three_cycle = {
        Opcode.CALL_ABS, Opcode.CALL_IND, Opcode.RET, Opcode.RETI,
        Opcode.TRAP, Opcode.MUL,
    }
    if opcode in two_cycle:
        return 2
    if opcode in three_cycle:
        return 3
    if opcode is Opcode.DIVU:
        return 12
    return 1


for _op in Opcode:
    BASE_CYCLES[int(_op)] = _cycles_for(_op)


#: Memory micro-op classification (``DecodedInstruction.mem_kind``).
#: Kinds 1..10 are the word-size micro-ops, 11..14 the byte/halfword
#: loads and stores (zero-extended on load, truncated on store).  A
#: nonzero kind ends a superblock (the access may land on an SFR page);
#: ``mem_disp`` carries the precomputed displacement or absolute
#: address.
MEM_NONE = 0
MEM_LD_W = 1
MEM_ST_W = 2
MEM_PUSH_D = 3
MEM_POP_D = 4
MEM_PUSH_A = 5
MEM_POP_A = 6
MEM_LDABS_D = 7
MEM_LDABS_A = 8
MEM_STABS_D = 9
MEM_STABS_A = 10
MEM_LD_H = 11
MEM_LD_B = 12
MEM_ST_H = 13
MEM_ST_B = 14

_MEM_KINDS: dict[Opcode, int] = {
    Opcode.LD_W: MEM_LD_W,
    Opcode.ST_W: MEM_ST_W,
    Opcode.PUSH_D: MEM_PUSH_D,
    Opcode.POP_D: MEM_POP_D,
    Opcode.PUSH_A: MEM_PUSH_A,
    Opcode.POP_A: MEM_POP_A,
    Opcode.LDABS_D: MEM_LDABS_D,
    Opcode.LDABS_A: MEM_LDABS_A,
    Opcode.STABS_D: MEM_STABS_D,
    Opcode.STABS_A: MEM_STABS_A,
    Opcode.LD_H: MEM_LD_H,
    Opcode.LD_B: MEM_LD_B,
    Opcode.ST_H: MEM_ST_H,
    Opcode.ST_B: MEM_ST_B,
}

#: Kinds whose displacement is the sign-extended ``imm16`` (indexed
#: addressing) vs. the absolute literal address.
_MEM_INDEXED_KINDS = frozenset(
    {MEM_LD_W, MEM_ST_W, MEM_LD_H, MEM_LD_B, MEM_ST_H, MEM_ST_B}
)
_MEM_ABSOLUTE_KINDS = frozenset(
    {MEM_LDABS_D, MEM_LDABS_A, MEM_STABS_D, MEM_STABS_A}
)


class DecodedInstruction:
    """One fully decoded instruction, ready for the execute stage.
    Immutable once decoded: one entry is shared by every cache.

    ``fetch_waits`` is the bus wait-state cost a real fetch of this
    instruction's word(s) would have charged; cycle-accurate cores add
    it so cached and uncached execution retire identical cycle counts.

    ``exec`` is the opcode's executor from :data:`EXECUTORS` (rendered
    from :mod:`repro.isa.semantics`, pickled by reference as
    ``repro.isa.decodecache._x_<opcode>``); the core calls
    ``entry.exec(cpu, entry)`` and gets back the branch-taken flag.
    Executor operands are precomputed at decode time: ``r1``/``r2``/
    ``r3`` register indices, ``imm_s`` (the sign-extended immediate as a
    signed Python int, or an extract's sign bit), ``imm_u`` (the
    opcode-specific unsigned operand: masked immediate, branch target,
    shift amount, bit index, or extract mask), and ``pos``/``width`` for
    bit-field operations.
    """

    __slots__ = (
        "opcode", "mnemonic", "size_bytes", "base_cycles", "fetch_waits",
        "fetch_events", "mem_kind", "mem_disp", "pc", "next_pc", "r1", "r2",
        "r3", "imm_s", "imm_u", "pos", "width", "exec",
    )

    def __init__(
        self,
        opcode: int,
        mnemonic: str,
        size_bytes: int,
        base_cycles: int,
        fetch_waits: int,
        fetch_events: tuple[tuple[str, int, int, int], ...] = (),
        mem_kind: int = MEM_NONE,
        mem_disp: int = 0,
        pc: int = 0,
        next_pc: int = 0,
        r1: int = 0,
        r2: int = 0,
        r3: int = 0,
        imm_s: int = 0,
        imm_u: int = 0,
        pos: int = 0,
        width: int = 0,
        exec: Callable | None = None,
    ):
        self.opcode = opcode
        self.mnemonic = mnemonic
        self.size_bytes = size_bytes
        self.base_cycles = base_cycles
        self.fetch_waits = fetch_waits
        #: The bus events a real fetch of this instruction would have
        #: recorded — ``("read", pc, 4, word)`` per fetched word.  The
        #: superblock loop replays them into the bus trace when one is
        #: active (a block's body in one bulk append of the block's
        #: concatenated ``fetch_events``), so the cache can stay enabled
        #: under observation.
        self.fetch_events = fetch_events
        #: Memory micro-op classification (``MEM_*``; 0 = not a memory
        #: micro-op).  ``mem_disp`` is the sign-extended displacement
        #: (indexed forms) or the absolute address (LDABS/STABS forms);
        #: the register operands are ``r1`` (the data/address register
        #: moved) and ``r2`` (the base register).
        self.mem_kind = mem_kind
        self.mem_disp = mem_disp
        #: Executor binding + precomputed operands (see class docstring).
        self.pc = pc
        self.next_pc = next_pc
        self.r1 = r1
        self.r2 = r2
        self.r3 = r3
        self.imm_s = imm_s
        self.imm_u = imm_u
        self.pos = pos
        self.width = width
        self.exec = exec

    def __getstate__(self) -> list:
        """Every slot, in slot order (the unrolled ``__setstate__``'s
        layout)."""
        return [getattr(self, slot) for slot in self.__slots__]


def _unrolled_setstate(names):
    """A ``__setstate__`` with one inline store per slot.  An
    artifact-store restore unpickles thousands of entries and blocks; a
    Python-level ``zip``+``setattr`` loop over 14-18 slots per object
    was the hottest piece of a warm process start.  A state of any other
    length (another slot layout) raises ``ValueError``, so it can never
    land in shifted slots."""
    source = (
        "def _setstate(self, state):\n"
        f"    if len(state) != {len(names)}:\n"
        "        raise ValueError('pickled state has the wrong field count')\n"
    ) + "\n".join(
        f"    self.{name} = state[{index}]" for index, name in enumerate(names)
    )
    namespace: dict = {}
    exec(source, namespace)
    return namespace["_setstate"]


# Bound post-class so the generated source can enumerate the slots.
DecodedInstruction.__setstate__ = _unrolled_setstate(
    DecodedInstruction.__slots__
)


# ---------------------------------------------------------------------------
# Executor table — computed-goto-style dispatch targets.
#
# Each executor ``_x_<opcode>(cpu, e)`` performs the full architectural
# effect of the instruction (including setting ``pc``: fall-through
# first, control flow overrides) and returns the branch-taken flag that
# costs the extra cycle.  They are rendered from ``isa/semantics.py``
# (operands read off ``e``) and compiled together on first use — the
# first decode or the first artifact-store unpickle, never at import.
# With an artifact store installed the compiled table is loaded from it
# (keyed by the source's SHA-256 and the interpreter's bytecode tag, so
# an edited table is a new key) and compiled, then saved, only on a
# miss: one marshal load per process instead of one ``compile()``.
# They are defined into this module's namespace, so a pickled entry's
# ``exec`` resolves as ``repro.isa.decodecache._x_<opcode>`` through
# :func:`__getattr__`.  None of them consult ``alu_fault_hook``: a core
# with a fault hook armed never dispatches them, because ``CpuCore.step``
# then runs every instruction through the reference interpreter.
# ---------------------------------------------------------------------------

_EXECUTORS: dict[int, Callable] | None = None
_EXECUTORS_LOCK = threading.Lock()


def _executors() -> dict[int, Callable]:
    """Opcode value -> executor, built once per process."""
    global _EXECUTORS
    with _EXECUTORS_LOCK:
        if _EXECUTORS is None:
            from repro.isa import semantics

            source = semantics.executor_source()
            store = _artifact_store()
            code = None if store is None else store.load_code(source)
            if code is None:
                code = compile(source, "<opcode executors>", "exec")
                if store is not None:
                    store.save_code(source, code)
            namespace = globals()
            exec(code, namespace)
            _DECODED.clear()
            _EXECUTORS = {
                int(op): namespace[semantics.executor_name(op)]
                for op in Opcode
            }
    return _EXECUTORS


def __getattr__(name: str):
    # ``EXECUTORS`` and the ``_x_*`` executors exist once built.
    if name == "EXECUTORS":
        return _executors()
    if name.startswith("_x_"):
        _executors()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Superblocks — straight-line fusion over decoded entries.
# ---------------------------------------------------------------------------

#: Opcodes that end a superblock.  Control flow ends a block because the
#: next pc is decided at run time; ``HALT`` because the runner's loop
#: condition must see it; ``EI``/``WRPSW``/``RETI`` because they can
#: turn the interrupt-enable bit on (the runner probes interrupts once
#: per block, which is only sound while no body instruction can arm
#: them); ``DIVU``/``TRAP`` because they can enter a trap handler.
#: Memory micro-ops (``mem_kind != MEM_NONE``) also terminate: a load or
#: store may land on an SFR page, flushing deferred peripheral time,
#: raising interrupt lines, or moving the window's deadline nearer — all
#: of which the runner must re-check before retiring another
#: instruction.
_SB_BARRIER_OPCODES = frozenset(
    int(op)
    for op in (
        Opcode.JMP, Opcode.JZ, Opcode.JNZ, Opcode.JC, Opcode.JNC,
        Opcode.JN, Opcode.JNN, Opcode.JV, Opcode.JNV,
        Opcode.JGE, Opcode.JLT, Opcode.JGT, Opcode.JLE,
        Opcode.CALL_ABS, Opcode.CALL_IND, Opcode.DJNZ,
        Opcode.RET, Opcode.RETI, Opcode.TRAP, Opcode.HALT,
        Opcode.EI, Opcode.WRPSW, Opcode.DIVU,
    )
)

#: Body length cap: bounds formation cost and the cost of the prefix
#: search a window that ends mid-body pays.
_SB_MAX_BODY = 64

_DJNZ_OPCODE = int(Opcode.DJNZ)
#: The extra cycle a taken branch costs, for both engines.
_JUMP_TAKEN_EXTRA = 1


class Superblock:
    """One straight-line run of decoded instructions plus its terminator.

    ``body`` entries are pure-register operations: no bus access, no
    trap, no control flow, no interrupt-enable writes — executing them
    cannot change anything the block runner's hoisted checks observe,
    which is what makes the fused body loop sound.  ``terminator`` is
    the instruction that ends the block (``None`` when the next address
    is not cacheable and the runner must fall back to the legacy step).

    ``succ_taken``/``succ_fall`` memoise the successor superblock after
    the terminator's taken/fall-through edge.  They are a *prediction*,
    not an invariant: the runner validates ``succ.start`` against the
    live pc on every transition, so shared caches, dynamic branch
    targets and interrupt redirections all stay correct.

    A block that is exactly ``DJNZ rX, .`` (empty body, terminator
    looping to its own start) is an **idle spin**: its only
    architectural effect per taken iteration is ``rX -= 1``, the logic
    flags of the result, and ``spin_cost`` cycles.  ``spin_reg`` holds
    the counter register index (-1 otherwise) so the core can
    fast-forward the loop analytically.

    **Observation templates** (computed once at formation) let the core
    run a block under a bus trace, an instruction trace, or wait-state
    charging without dropping to per-instruction execution:

    - ``fetch_events`` concatenates every body entry's replayed fetch
      events into one tuple, so a traced block emits its whole fetch
      stream with a single bulk ring append;
    - ``trace_tmpl`` / ``trace_tmpl_w`` are the body's retire-trace
      records ``(pc, opcode, mnemonic, cost)`` — all four fields are
      static for body entries (pure-register: no data waits, never a
      taken branch), the ``_w`` variant folding each entry's fetch wait
      states into its cost for cycle-accurate cores;
    - ``body_cycles_w`` / ``spin_cost_w`` fold the static fetch-wait
      cycles into the block totals, so under wait-state charging only
      *data-access* waits are left to charge inline (and only the
      terminator can incur those).

    The folded variants are correct per cache instance because fetch
    waits are a segment property baked into each entry at decode time —
    and :func:`decode_cache_for` keys the registry on the wait-state
    figure, so differently-waited platforms resolve distinct caches and
    therefore distinct, correctly folded blocks.
    """

    __slots__ = (
        "start", "body", "body_count", "body_cycles", "body_cycles_w",
        "terminator", "succ_taken", "succ_fall", "spin_reg", "spin_cost",
        "spin_cost_w", "fetch_events", "trace_tmpl", "trace_tmpl_w",
        "cuts",
    )

    def __init__(
        self,
        start: int,
        body: tuple[DecodedInstruction, ...],
        terminator: DecodedInstruction | None,
    ):
        self.start = start
        self.body = body
        self.body_count = len(body)
        self.body_cycles = sum(entry.base_cycles for entry in body)
        self.terminator = terminator
        self.succ_taken: Superblock | None = None
        self.succ_fall: Superblock | None = None
        #: body pc -> the block :meth:`cut` at that entry, formed lazily.
        self.cuts: dict[int, Superblock] = {}
        fetch_events: tuple[tuple[str, int, int, int], ...] = ()
        for entry in body:
            fetch_events += entry.fetch_events
        self.fetch_events = fetch_events
        self.trace_tmpl = tuple(
            (entry.pc, entry.opcode, entry.mnemonic, entry.base_cycles)
            for entry in body
        )
        self.trace_tmpl_w = tuple(
            (
                entry.pc,
                entry.opcode,
                entry.mnemonic,
                entry.base_cycles + entry.fetch_waits,
            )
            for entry in body
        )
        self.body_cycles_w = self.body_cycles + sum(
            entry.fetch_waits for entry in body
        )
        if (
            not body
            and terminator is not None
            and terminator.opcode == _DJNZ_OPCODE
            and terminator.imm_u == start
        ):
            self.spin_reg = terminator.r1
            self.spin_cost = terminator.base_cycles + _JUMP_TAKEN_EXTRA
            self.spin_cost_w = self.spin_cost + terminator.fetch_waits
        else:
            self.spin_reg = -1
            self.spin_cost = 0
            self.spin_cost_w = 0

    def cut(self, entry: DecodedInstruction) -> "Superblock":
        """This block ended at body *entry*: a block of the same start
        whose body is the prefix before *entry* and whose terminator is
        *entry*.  The runner retires through it what fits of this body
        when a window ends inside the body.  Memoised per entry (benign
        duplicates under concurrency, like :meth:`DecodeCache.block_at`)."""
        block = self.cuts.get(entry.pc)
        if block is None:
            body = self.body
            block = Superblock(self.start, body[: body.index(entry)], entry)
            self.cuts[entry.pc] = block
        return block

    def prefix_before(self, room: int, most: int, charge: bool) -> int:
        """The length of the longest body prefix (at most *most*
        entries) that ends within *room* cycles.  Per-step execution
        retires that prefix and the entry after it before it sees the
        window's end, so that entry becomes the terminator of a
        :meth:`cut`."""
        template = self.trace_tmpl_w if charge else self.trace_tmpl
        count = used = 0
        while count < most:
            used += template[count][3]
            if used >= room:
                break
            count += 1
        return count

    def __getstate__(self) -> list:
        """Every slot, in slot order (the unrolled ``__setstate__``'s
        layout)."""
        return [getattr(self, slot) for slot in self.__slots__]


# Same unrolled-stores trick as ``DecodedInstruction``.
Superblock.__setstate__ = _unrolled_setstate(Superblock.__slots__)


#: Opcodes whose ``imm_u`` is the sign-extended-and-masked immediate.
_SIGNED_IMM_OPS = frozenset({Opcode.ADDI, Opcode.CMPI})
#: Opcodes whose ``imm_u`` is the raw zero-extended ``imm16``.
_UNSIGNED_IMM_OPS = frozenset({Opcode.ANDI, Opcode.ORI, Opcode.XORI})
#: Opcodes whose ``imm_u`` is ``imm16 & 31`` (shift amounts, bit indices).
_FIVE_BIT_IMM_OPS = frozenset(
    {
        Opcode.SHLI, Opcode.SHRI, Opcode.SARI,
        Opcode.SETB, Opcode.CLRB, Opcode.TGLB, Opcode.TSTB,
    }
)
#: Opcodes whose ``imm_u`` is the masked 32-bit literal (branch target
#: or absolute immediate value).
_LITERAL_OPS = frozenset(
    {
        Opcode.LOAD_D, Opcode.LOAD_A,
        Opcode.JMP, Opcode.JZ, Opcode.JNZ, Opcode.JC, Opcode.JNC,
        Opcode.JN, Opcode.JNN, Opcode.JV, Opcode.JNV,
        Opcode.JGE, Opcode.JLT, Opcode.JGT, Opcode.JLE,
        Opcode.CALL_ABS, Opcode.DJNZ,
    }
)


def _precomputed_operands(
    op: Opcode, fields: Mapping[str, int], literal: int | None
) -> tuple[int, int]:
    """``(imm_s, imm_u)`` for *op* — see :class:`DecodedInstruction`."""
    if op in _LITERAL_OPS:
        return 0, (literal or 0) & WORD_MASK
    if op is Opcode.INSERT:
        return 0, (literal or 0)
    imm16 = fields.get("imm16")
    if imm16 is not None:
        if op is Opcode.MOVI:
            return 0, sign_extend_16(imm16) & WORD_MASK
        if op is Opcode.MOVHI:
            return 0, (imm16 << 16) & WORD_MASK
        if op in _SIGNED_IMM_OPS or op is Opcode.ADDA:
            signed = sign_extend_16(imm16)
            return signed, signed & WORD_MASK
        if op in _UNSIGNED_IMM_OPS:
            return 0, imm16
        if op in _FIVE_BIT_IMM_OPS:
            return 0, imm16 & 31
    if op in (Opcode.EXTRU, Opcode.EXTRS):
        width = fields["width"]
        mask = ((1 << width) - 1) if width < 32 else WORD_MASK
        sign_bit = (
            1 << (width - 1) if op is Opcode.EXTRS and width < 32 else 0
        )
        return sign_bit, mask
    if op is Opcode.TRAP:
        return 0, fields["imm8"]
    return 0, 0


class DecodeCache:
    """Lazy pc -> :class:`DecodedInstruction` map over one image's ROM.

    Shared across platforms (and the daemon's concurrent jobs) for one
    image.
    Entries are deterministic, so concurrent use is safe; the miss path
    is locked to avoid duplicate decode work, while the per-retire hit
    path stays lock-free — which makes :attr:`hits` approximate under
    concurrency (telemetry, not semantics).
    """

    __slots__ = ("_entries", "_skip", "_segments", "_miss_lock",
                 "_blocks", "hits", "misses")

    def __init__(
        self,
        image,
        region_base: int,
        region_end: int,
        wait_states: int = 0,
    ):
        #: (base, end, data, wait_states) per cacheable image segment.
        self._segments: list[tuple[int, int, bytes, int]] = []
        for segment in image.segments:
            if segment.base >= region_end or segment.end <= region_base:
                continue
            self._segments.append(
                (
                    max(segment.base, region_base),
                    min(segment.end, region_end),
                    bytes(segment.data),
                    wait_states,
                )
            )
        self._segments.sort()
        self._entries: dict[int, DecodedInstruction] = {}
        #: pc -> superblock starting at that address (lazy, see
        #: :meth:`block_at`).
        self._blocks: dict[int, Superblock] = {}
        #: Addresses proven non-cacheable (data words, illegal opcodes,
        #: truncated two-word instructions) — never retried.
        self._skip: set[int] = set()
        self._miss_lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, pc: int) -> DecodedInstruction | None:
        """The decoded instruction at *pc*, or ``None`` when the address
        must go through the legacy bus-fetch path."""
        entry = self._entries.get(pc)
        if entry is not None:
            self.hits += 1
            return entry
        if pc in self._skip:
            return None
        with self._miss_lock:
            entry = self._entries.get(pc)
            if entry is not None:
                return entry
            entry = self._decode(pc)
            if entry is None:
                self._skip.add(pc)
                return None
            self._entries[pc] = entry
            self.misses += 1
        return entry

    def check_wait_states(self, bus) -> None:
        """Raise ``ValueError`` unless every cached segment was decoded
        with the fetch wait states *bus* charges there — a cache built
        for another wait-state profile would silently charge wrong
        cycles on a wait-charging core."""
        for base, _end, _data, waits in self._segments:
            bus_waits = bus.mapping_for(base, 1).wait_states
            if waits != bus_waits:
                raise ValueError(
                    f"decode cache decoded {base:#x} with {waits} fetch "
                    f"wait state(s) but the bus charges {bus_waits}"
                )

    def block_at(self, pc: int) -> Superblock | None:
        """The superblock starting at *pc*, formed lazily; ``None`` when
        the address itself is not cacheable (the caller falls back to
        the legacy fetch-decode step).

        Formation happens outside the miss lock — entries are decoded
        through the thread-safe :meth:`get` and blocks are deterministic
        functions of the image bytes, so concurrent duplicate formation
        is benign (both threads store an identical block).
        """
        block = self._blocks.get(pc)
        if block is not None:
            return block
        first = self.get(pc)
        if first is None:
            return None
        block = self._form_block(pc, first)
        self._blocks[pc] = block
        return block

    def _form_block(self, pc: int, first: DecodedInstruction) -> Superblock:
        body: list[DecodedInstruction] = []
        entry: DecodedInstruction | None = first
        terminator: DecodedInstruction | None = None
        while entry is not None:
            if (
                entry.mem_kind != MEM_NONE
                or entry.opcode in _SB_BARRIER_OPCODES
            ):
                terminator = entry
                break
            body.append(entry)
            if len(body) >= _SB_MAX_BODY:
                break
            entry = self.get(entry.next_pc)
        return Superblock(pc, tuple(body), terminator)

    def predecode_all(self) -> int:
        """Eagerly decode every aligned word (benchmarks/tools); returns
        the number of cacheable entries."""
        for base, end, _data, _waits in self._segments:
            start = base + (-base % 4)
            for pc in range(start, end - 3, 4):
                self.get(pc)
        return len(self._entries)

    # -- internals ---------------------------------------------------------
    def _word_at(self, pc: int) -> tuple[int, int] | None:
        """(word, wait_states) for the aligned word at *pc*, or None."""
        for base, end, data, waits in self._segments:
            if base <= pc and pc + 4 <= end:
                offset = pc - base
                return (
                    int.from_bytes(data[offset : offset + 4], "little"),
                    waits,
                )
        return None

    def _decode(self, pc: int) -> DecodedInstruction | None:
        if pc % 4:
            return None  # misaligned fetch: legacy path raises the trap
        fetched = self._word_at(pc)
        if fetched is None:
            return None
        word, waits = fetched
        opcode = opcode_of(word)
        try:
            spec = lookup_opcode(opcode)
        except KeyError:
            return None  # illegal opcode: legacy path takes the trap
        literal: int | None = None
        fetch_waits = waits
        fetch_events = (("read", pc, 4, word),)
        if spec.fmt.has_literal:
            second = self._word_at(pc + 4)
            if second is None:
                return None  # truncated literal: legacy path's business
            literal, literal_waits = second
            fetch_waits += literal_waits
            fetch_events += (("read", pc + 4, 4, literal),)
        memo_key = (pc, word, literal, fetch_waits)
        entry = _DECODED.get(memo_key)
        if entry is not None:
            return entry
        executors = _EXECUTORS if _EXECUTORS is not None else _executors()
        op = Opcode(opcode)
        fields = decode_word(spec.fmt, word)
        mem_kind = _MEM_KINDS.get(op, MEM_NONE)
        mem_disp = 0
        if mem_kind in _MEM_INDEXED_KINDS:
            mem_disp = sign_extend_16(fields["imm16"])
        elif mem_kind in _MEM_ABSOLUTE_KINDS:
            mem_disp = literal & WORD_MASK if literal is not None else 0
        imm_s, imm_u = _precomputed_operands(op, fields, literal)
        entry = DecodedInstruction(
            opcode=opcode,
            mnemonic=spec.mnemonic,
            size_bytes=spec.size_bytes,
            base_cycles=BASE_CYCLES[opcode],
            fetch_waits=fetch_waits,
            fetch_events=fetch_events,
            mem_kind=mem_kind,
            mem_disp=mem_disp,
            pc=pc,
            next_pc=pc + spec.size_bytes,
            r1=fields.get("r1", 0),
            r2=fields.get("r2", 0),
            r3=fields.get("r3", 0),
            imm_s=imm_s,
            imm_u=imm_u,
            pos=fields.get("pos", 0),
            width=fields.get("width", 0),
            exec=executors[opcode],
        )
        if len(_DECODED) >= _DECODED_LIMIT:
            _DECODED.clear()
        _DECODED[memo_key] = entry
        return entry


#: (pc, word, literal, fetch waits) -> the one immutable
#: :class:`DecodedInstruction` they decode to, shared by every cache
#: (images of one workspace hold the same library code at the same
#: addresses).  Emptied when full, by :func:`reset_registry` and by a
#: rebuild of the executor table its entries are bound to.
_DECODED: dict[tuple, DecodedInstruction] = {}
_DECODED_LIMIT = 65536


#: digest-keyed registry so the six platforms of a regression (and many
#: runs of one session) share decode work — predecoded entries and
#: superblocks — for the same linked image.
#: Bounded LRU: the dict's insertion order is recency order (every hit
#: re-inserts), so warm session pools cycling through many images
#: evict the coldest cache instead of growing without limit.
_REGISTRY: dict[tuple, DecodeCache] = {}
_REGISTRY_LIMIT = 256
_REGISTRY_LOCK = threading.Lock()
_REGISTRY_EVICTIONS = 0

def _artifact_store():
    """The installed persistent artifact store
    (:func:`repro.store.artifact_store`), or ``None``: consulted by
    :func:`decode_cache_for` on a registry miss, so a fresh process
    warm-starts from disk instead of re-paying predecode and superblock
    formation, and by :func:`_executors` for the compiled executor
    table; drained by :func:`persist_registry`."""
    from repro.store import artifact_store

    return artifact_store()


def _evict_to_limit_locked() -> None:
    """Caller holds :data:`_REGISTRY_LOCK`."""
    global _REGISTRY_EVICTIONS
    while len(_REGISTRY) >= _REGISTRY_LIMIT:
        _REGISTRY.pop(next(iter(_REGISTRY)))
        _REGISTRY_EVICTIONS += 1


def decode_cache_for(
    image,
    region_base: int,
    region_end: int,
    wait_states: int = 0,
) -> DecodeCache:
    """The shared :class:`DecodeCache` for *image* over one ROM region.

    Keyed by the image's content digest plus the region bounds and fetch
    wait states, so distinct derivatives (different memory maps) never
    collide and cycle-accurate platforms see correct fetch costs.
    Resolving a cache marks it most-recently-used; when the registry is
    full the least-recently-resolved cache is evicted (dropping its
    blocks with it).

    With an artifact store installed
    (:func:`repro.store.set_artifact_store`), a
    registry miss first tries the store: a hit restores the persisted
    predecode/superblock state and the fresh process skips the cold
    start entirely.  The store names a snapshot by this key and the
    code's :func:`~repro.core.durable.model_digest`, so one written by
    other code is a miss.  Store failures of any kind fall through to
    a normal cold build — the store degrades, it never breaks a run.
    """
    key = (image.digest(), region_base, region_end, wait_states)
    with _REGISTRY_LOCK:
        cache = _REGISTRY.pop(key, None)
        if cache is None:
            store = _artifact_store()
            if store is not None:
                cache = store.load_decode_cache(key)
            if cache is None:
                cache = DecodeCache(
                    image, region_base, region_end, wait_states
                )
            _evict_to_limit_locked()
        _REGISTRY[key] = cache
    return cache


def persist_registry() -> int:
    """Save every changed registered cache to the installed artifact
    store as one pack; returns how many snapshots it holds (0 without
    a store).

    The store skips unchanged caches via a cheap content stamp, so
    calling this after every regression costs one stamp compare per
    warm image, and no file when nothing changed."""
    store = _artifact_store()
    if store is None:
        return 0
    with _REGISTRY_LOCK:
        items = list(_REGISTRY.items())
    for key, cache in items:
        store.save_decode_cache(key, cache)
    return store.save_decode_pack()


def registry_stats() -> dict[str, int]:
    """Registry occupancy gauges for ``stats()`` surfaces."""
    return {
        "registry_size": len(_REGISTRY),
        "registry_evictions": _REGISTRY_EVICTIONS,
    }


def reset_registry() -> int:
    """Drop every registered cache and the decode memo; returns how
    many caches were discarded.

    Benchmark/test hook: the registry is what makes the second run of
    an image warm (predecode and superblocks live here), so an honest
    cold-start measurement must clear it between samples — including
    the :func:`registry_stats` eviction counter, which would otherwise
    report a previous sample's evictions against the fresh registry.
    Production code never calls this."""
    global _REGISTRY_EVICTIONS
    with _REGISTRY_LOCK:
        dropped = len(_REGISTRY)
        _REGISTRY.clear()
        _REGISTRY_EVICTIONS = 0
        _DECODED.clear()
    return dropped
