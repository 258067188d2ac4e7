"""The SC88 opcode table.

Each machine operation is described by one :class:`InstructionSpec` giving
its surface mnemonic, binary opcode, word :class:`~repro.isa.encoding.Format`
and operand signature.  Several surface mnemonics are *overloaded* — e.g.
``LOAD`` accepts a data or an address register destination and either an
immediate or an absolute memory source, exactly as the paper's examples
use it (``LOAD CallAddr, ES_Init_Register`` loads a symbol's address into
an address register).  Overloads map to distinct opcodes; the assembler
picks the spec whose operand pattern matches.

Operand kinds double as the contract between the parser and the encoder:
each operand is routed to the encoding slot named in the spec's
``slots`` tuple (``r1``/``r2``/``r3``/``imm16``/``literal``/``pos``/
``width``/``imm8``/``mem``).
"""

from __future__ import annotations

import enum

from repro.isa.encoding import Format


class OperandKind(enum.Enum):
    """Operand categories as seen by the assembler's matcher."""

    DREG = "data register"
    AREG = "address register"
    IMM16S = "signed 16-bit immediate"
    IMM16U = "unsigned 16-bit immediate"
    IMM32 = "32-bit immediate"
    POS = "bit position (0..31)"
    WIDTH = "field width (1..32)"
    MEMIND = "register-indirect memory operand"
    MEMABS = "absolute memory operand"
    TRAPNUM = "trap number (0..255)"


class Opcode(enum.IntEnum):
    """Binary opcode values (first-word bits [31:24])."""

    NOP = 0x00
    HALT = 0x01
    BRK = 0x02
    DI = 0x03
    EI = 0x04
    RET = 0x05
    RETI = 0x06

    MOV_DD = 0x10
    MOV_AA = 0x11
    MOV_DA = 0x12
    MOV_AD = 0x13
    LOAD_D = 0x14
    LOAD_A = 0x15
    MOVI = 0x16
    MOVHI = 0x17

    LD_W = 0x20
    LD_H = 0x21
    LD_B = 0x22
    ST_W = 0x23
    ST_H = 0x24
    ST_B = 0x25
    LDABS_D = 0x26
    STABS_D = 0x27
    LDABS_A = 0x28
    STABS_A = 0x29

    ADD = 0x30
    SUB = 0x31
    AND = 0x32
    OR = 0x33
    XOR = 0x34
    SHL = 0x35
    SHR = 0x36
    SAR = 0x37
    MUL = 0x38
    NOT = 0x39
    NEG = 0x3A
    ADDI = 0x3B
    SHLI = 0x3C
    SHRI = 0x3D
    SARI = 0x3E
    ANDI = 0x3F
    ORI = 0x40
    XORI = 0x41
    ADDA = 0x42
    DIVU = 0x43
    CMP = 0x44
    CMPI = 0x45

    INSERT = 0x50
    INSERTR = 0x51
    EXTRU = 0x52
    EXTRS = 0x53
    SETB = 0x54
    CLRB = 0x55
    TGLB = 0x56
    TSTB = 0x57

    JMP = 0x60
    JZ = 0x61
    JNZ = 0x62
    JC = 0x63
    JNC = 0x64
    JN = 0x65
    JNN = 0x66
    JV = 0x67
    JNV = 0x68
    JGE = 0x69
    JLT = 0x6A
    JGT = 0x6B
    JLE = 0x6C
    CALL_ABS = 0x6D
    CALL_IND = 0x6E
    DJNZ = 0x6F

    PUSH_D = 0x70
    PUSH_A = 0x71
    POP_D = 0x72
    POP_A = 0x73

    TRAP = 0x78
    RDPSW = 0x79
    WRPSW = 0x7A


class InstructionSpec:
    """Static description of one machine operation."""

    __slots__ = (
        "name", "mnemonic", "opcode", "fmt", "operands", "slots",
        "description", "sets_flags",
    )

    def __init__(
        self,
        name: str,
        mnemonic: str,
        opcode: Opcode,
        fmt: Format,
        operands: tuple[OperandKind, ...],
        slots: tuple[str, ...],
        description: str,
        sets_flags: str = "",
    ):
        if len(operands) != len(slots):
            raise ValueError(f"{name}: operands/slots length mismatch")
        self.name = name
        self.mnemonic = mnemonic
        self.opcode = opcode
        self.fmt = fmt
        self.operands = operands
        self.slots = slots
        self.description = description
        self.sets_flags = sets_flags

    @property
    def words(self) -> int:
        return self.fmt.words

    @property
    def size_bytes(self) -> int:
        return 4 * self.words


_D = OperandKind.DREG
_A = OperandKind.AREG
_I16S = OperandKind.IMM16S
_I16U = OperandKind.IMM16U
_I32 = OperandKind.IMM32
_POS = OperandKind.POS
_WID = OperandKind.WIDTH
_MI = OperandKind.MEMIND
_MA = OperandKind.MEMABS
_TN = OperandKind.TRAPNUM


def _spec(
    name: str,
    opcode: Opcode,
    fmt: Format,
    operands: tuple[OperandKind, ...],
    slots: tuple[str, ...],
    description: str,
    sets_flags: str = "",
    mnemonic: str | None = None,
) -> InstructionSpec:
    surface = mnemonic if mnemonic is not None else name.split(".")[0]
    return InstructionSpec(
        name=name,
        mnemonic=surface,
        opcode=opcode,
        fmt=fmt,
        operands=operands,
        slots=slots,
        description=description,
        sets_flags=sets_flags,
    )


#: Every machine operation, keyed by unique spec name.
OPCODE_TABLE: dict[str, InstructionSpec] = {
    spec.name: spec
    for spec in [
        # -- no-operand control ------------------------------------------
        _spec("NOP", Opcode.NOP, Format.NONE, (), (), "no operation"),
        _spec(
            "HALT",
            Opcode.HALT,
            Format.NONE,
            (),
            (),
            "stop execution; d0 carries the result signature",
        ),
        _spec("BRK", Opcode.BRK, Format.NONE, (), (), "breakpoint event"),
        _spec("DI", Opcode.DI, Format.NONE, (), (), "disable interrupts"),
        _spec("EI", Opcode.EI, Format.NONE, (), (), "enable interrupts"),
        _spec(
            "RET",
            Opcode.RET,
            Format.NONE,
            (),
            (),
            "return: pop PC from the stack",
            mnemonic="RET",
        ),
        _spec(
            "RETURN",
            Opcode.RET,
            Format.NONE,
            (),
            (),
            "alias of RET (paper spelling)",
            mnemonic="RETURN",
        ),
        _spec(
            "RETI",
            Opcode.RETI,
            Format.NONE,
            (),
            (),
            "return from interrupt: pop PSW then PC",
        ),
        # -- moves ---------------------------------------------------------
        _spec(
            "MOV.DD",
            Opcode.MOV_DD,
            Format.RR,
            (_D, _D),
            ("r1", "r2"),
            "rd <- rs (data to data)",
            "ZN",
            mnemonic="MOV",
        ),
        _spec(
            "MOV.AA",
            Opcode.MOV_AA,
            Format.RR,
            (_A, _A),
            ("r1", "r2"),
            "ad <- as (address to address)",
            mnemonic="MOV",
        ),
        _spec(
            "MOV.DA",
            Opcode.MOV_DA,
            Format.RR,
            (_D, _A),
            ("r1", "r2"),
            "rd <- as (address to data)",
            mnemonic="MOV",
        ),
        _spec(
            "MOV.AD",
            Opcode.MOV_AD,
            Format.RR,
            (_A, _D),
            ("r1", "r2"),
            "ad <- rs (data to address)",
            mnemonic="MOV",
        ),
        _spec(
            "LOAD.D",
            Opcode.LOAD_D,
            Format.ABS,
            (_D, _I32),
            ("r1", "literal"),
            "rd <- imm32 (immediate or symbol address)",
            mnemonic="LOAD",
        ),
        _spec(
            "LOAD.A",
            Opcode.LOAD_A,
            Format.ABS,
            (_A, _I32),
            ("r1", "literal"),
            "ad <- imm32 (immediate or symbol address)",
            mnemonic="LOAD",
        ),
        _spec(
            "MOVI",
            Opcode.MOVI,
            Format.I16,
            (_D, _I16S),
            ("r1", "imm16"),
            "rd <- sign-extended imm16",
        ),
        _spec(
            "MOVHI",
            Opcode.MOVHI,
            Format.I16,
            (_D, _I16U),
            ("r1", "imm16"),
            "rd <- imm16 << 16",
        ),
        # -- memory ----------------------------------------------------------
        _spec(
            "LD.W",
            Opcode.LD_W,
            Format.MEM,
            (_D, _MI),
            ("r1", "mem"),
            "rd <- word at [aN + simm16]",
            mnemonic="LD.W",
        ),
        _spec(
            "LD.H",
            Opcode.LD_H,
            Format.MEM,
            (_D, _MI),
            ("r1", "mem"),
            "rd <- zero-extended halfword at [aN + simm16]",
            mnemonic="LD.H",
        ),
        _spec(
            "LD.B",
            Opcode.LD_B,
            Format.MEM,
            (_D, _MI),
            ("r1", "mem"),
            "rd <- zero-extended byte at [aN + simm16]",
            mnemonic="LD.B",
        ),
        _spec(
            "ST.W",
            Opcode.ST_W,
            Format.MEM,
            (_MI, _D),
            ("mem", "r1"),
            "word at [aN + simm16] <- rs",
            mnemonic="ST.W",
        ),
        _spec(
            "ST.H",
            Opcode.ST_H,
            Format.MEM,
            (_MI, _D),
            ("mem", "r1"),
            "halfword at [aN + simm16] <- rs[15:0]",
            mnemonic="ST.H",
        ),
        _spec(
            "ST.B",
            Opcode.ST_B,
            Format.MEM,
            (_MI, _D),
            ("mem", "r1"),
            "byte at [aN + simm16] <- rs[7:0]",
            mnemonic="ST.B",
        ),
        _spec(
            "LOAD.MEMD",
            Opcode.LDABS_D,
            Format.ABS,
            (_D, _MA),
            ("r1", "literal"),
            "rd <- word at absolute address",
            mnemonic="LOAD",
        ),
        _spec(
            "STORE.D",
            Opcode.STABS_D,
            Format.ABS,
            (_MA, _D),
            ("literal", "r1"),
            "word at absolute address <- rs (paper's STORE [ADDR], reg)",
            mnemonic="STORE",
        ),
        _spec(
            "LOAD.MEMA",
            Opcode.LDABS_A,
            Format.ABS,
            (_A, _MA),
            ("r1", "literal"),
            "ad <- word at absolute address",
            mnemonic="LOAD",
        ),
        _spec(
            "STORE.A",
            Opcode.STABS_A,
            Format.ABS,
            (_MA, _A),
            ("literal", "r1"),
            "word at absolute address <- as",
            mnemonic="STORE",
        ),
        # -- ALU -------------------------------------------------------------
        _spec(
            "ADD",
            Opcode.ADD,
            Format.RRR,
            (_D, _D, _D),
            ("r1", "r2", "r3"),
            "rd <- rs1 + rs2",
            "CZNV",
        ),
        _spec(
            "SUB",
            Opcode.SUB,
            Format.RRR,
            (_D, _D, _D),
            ("r1", "r2", "r3"),
            "rd <- rs1 - rs2",
            "CZNV",
        ),
        _spec(
            "AND",
            Opcode.AND,
            Format.RRR,
            (_D, _D, _D),
            ("r1", "r2", "r3"),
            "rd <- rs1 & rs2",
            "ZN",
        ),
        _spec(
            "OR",
            Opcode.OR,
            Format.RRR,
            (_D, _D, _D),
            ("r1", "r2", "r3"),
            "rd <- rs1 | rs2",
            "ZN",
        ),
        _spec(
            "XOR",
            Opcode.XOR,
            Format.RRR,
            (_D, _D, _D),
            ("r1", "r2", "r3"),
            "rd <- rs1 ^ rs2",
            "ZN",
        ),
        _spec(
            "SHL",
            Opcode.SHL,
            Format.RRR,
            (_D, _D, _D),
            ("r1", "r2", "r3"),
            "rd <- rs1 << (rs2 & 31)",
            "CZN",
        ),
        _spec(
            "SHR",
            Opcode.SHR,
            Format.RRR,
            (_D, _D, _D),
            ("r1", "r2", "r3"),
            "rd <- rs1 >> (rs2 & 31), logical",
            "CZN",
        ),
        _spec(
            "SAR",
            Opcode.SAR,
            Format.RRR,
            (_D, _D, _D),
            ("r1", "r2", "r3"),
            "rd <- rs1 >> (rs2 & 31), arithmetic",
            "CZN",
        ),
        _spec(
            "MUL",
            Opcode.MUL,
            Format.RRR,
            (_D, _D, _D),
            ("r1", "r2", "r3"),
            "rd <- (rs1 * rs2)[31:0]",
            "ZN",
        ),
        _spec(
            "NOT",
            Opcode.NOT,
            Format.RR,
            (_D, _D),
            ("r1", "r2"),
            "rd <- ~rs",
            "ZN",
        ),
        _spec(
            "NEG",
            Opcode.NEG,
            Format.RR,
            (_D, _D),
            ("r1", "r2"),
            "rd <- -rs (two's complement)",
            "CZNV",
        ),
        _spec(
            "ADDI",
            Opcode.ADDI,
            Format.RI16,
            (_D, _D, _I16S),
            ("r1", "r2", "imm16"),
            "rd <- rs + sign-extended imm16",
            "CZNV",
        ),
        _spec(
            "SHLI",
            Opcode.SHLI,
            Format.RI16,
            (_D, _D, _I16U),
            ("r1", "r2", "imm16"),
            "rd <- rs << (imm & 31)",
            "CZN",
        ),
        _spec(
            "SHRI",
            Opcode.SHRI,
            Format.RI16,
            (_D, _D, _I16U),
            ("r1", "r2", "imm16"),
            "rd <- rs >> (imm & 31), logical",
            "CZN",
        ),
        _spec(
            "SARI",
            Opcode.SARI,
            Format.RI16,
            (_D, _D, _I16U),
            ("r1", "r2", "imm16"),
            "rd <- rs >> (imm & 31), arithmetic",
            "CZN",
        ),
        _spec(
            "ANDI",
            Opcode.ANDI,
            Format.RI16,
            (_D, _D, _I16U),
            ("r1", "r2", "imm16"),
            "rd <- rs & zero-extended imm16",
            "ZN",
        ),
        _spec(
            "ORI",
            Opcode.ORI,
            Format.RI16,
            (_D, _D, _I16U),
            ("r1", "r2", "imm16"),
            "rd <- rs | zero-extended imm16",
            "ZN",
        ),
        _spec(
            "XORI",
            Opcode.XORI,
            Format.RI16,
            (_D, _D, _I16U),
            ("r1", "r2", "imm16"),
            "rd <- rs ^ zero-extended imm16",
            "ZN",
        ),
        _spec(
            "ADDA",
            Opcode.ADDA,
            Format.RI16,
            (_A, _A, _I16S),
            ("r1", "r2", "imm16"),
            "ad <- as + sign-extended imm16 (address arithmetic)",
        ),
        _spec(
            "DIVU",
            Opcode.DIVU,
            Format.RRR,
            (_D, _D, _D),
            ("r1", "r2", "r3"),
            "rd <- rs1 / rs2 unsigned; divide-by-zero raises trap 1",
            "ZN",
        ),
        _spec(
            "CMP",
            Opcode.CMP,
            Format.RR,
            (_D, _D),
            ("r1", "r2"),
            "flags <- rs1 - rs2 (no register write)",
            "CZNV",
        ),
        _spec(
            "CMPI",
            Opcode.CMPI,
            Format.I16,
            (_D, _I16S),
            ("r1", "imm16"),
            "flags <- rs - sign-extended imm16",
            "CZNV",
        ),
        # -- bit fields (the Figure 6 workhorses) ------------------------------
        _spec(
            "INSERT",
            Opcode.INSERT,
            Format.BIT,
            (_D, _D, _I32, _POS, _WID),
            ("r1", "r2", "literal", "pos", "width"),
            "rd <- rs with bits [pos+width-1:pos] replaced by imm value",
            "ZN",
        ),
        _spec(
            "INSERTR",
            Opcode.INSERTR,
            Format.BITR,
            (_D, _D, _D, _POS, _WID),
            ("r1", "r2", "r3", "pos", "width"),
            "rd <- rs with bits [pos+width-1:pos] replaced by rv",
            "ZN",
        ),
        _spec(
            "EXTRU",
            Opcode.EXTRU,
            Format.BITR,
            (_D, _D, _POS, _WID),
            ("r1", "r2", "pos", "width"),
            "rd <- zero-extended bits [pos+width-1:pos] of rs",
            "ZN",
        ),
        _spec(
            "EXTRS",
            Opcode.EXTRS,
            Format.BITR,
            (_D, _D, _POS, _WID),
            ("r1", "r2", "pos", "width"),
            "rd <- sign-extended bits [pos+width-1:pos] of rs",
            "ZN",
        ),
        _spec(
            "SETB",
            Opcode.SETB,
            Format.I16,
            (_D, _I16U),
            ("r1", "imm16"),
            "set bit (imm & 31) of rd",
            "ZN",
        ),
        _spec(
            "CLRB",
            Opcode.CLRB,
            Format.I16,
            (_D, _I16U),
            ("r1", "imm16"),
            "clear bit (imm & 31) of rd",
            "ZN",
        ),
        _spec(
            "TGLB",
            Opcode.TGLB,
            Format.I16,
            (_D, _I16U),
            ("r1", "imm16"),
            "toggle bit (imm & 31) of rd",
            "ZN",
        ),
        _spec(
            "TSTB",
            Opcode.TSTB,
            Format.I16,
            (_D, _I16U),
            ("r1", "imm16"),
            "Z <- not bit (imm & 31) of rs",
            "Z",
        ),
        # -- control flow ------------------------------------------------------
        _spec(
            "JMP",
            Opcode.JMP,
            Format.ABS,
            (_I32,),
            ("literal",),
            "PC <- target",
        ),
        _spec("JZ", Opcode.JZ, Format.ABS, (_I32,), ("literal",), "jump if Z"),
        _spec(
            "JNZ", Opcode.JNZ, Format.ABS, (_I32,), ("literal",), "jump if !Z"
        ),
        _spec("JC", Opcode.JC, Format.ABS, (_I32,), ("literal",), "jump if C"),
        _spec(
            "JNC", Opcode.JNC, Format.ABS, (_I32,), ("literal",), "jump if !C"
        ),
        _spec("JN", Opcode.JN, Format.ABS, (_I32,), ("literal",), "jump if N"),
        _spec(
            "JNN", Opcode.JNN, Format.ABS, (_I32,), ("literal",), "jump if !N"
        ),
        _spec("JV", Opcode.JV, Format.ABS, (_I32,), ("literal",), "jump if V"),
        _spec(
            "JNV", Opcode.JNV, Format.ABS, (_I32,), ("literal",), "jump if !V"
        ),
        _spec(
            "JGE",
            Opcode.JGE,
            Format.ABS,
            (_I32,),
            ("literal",),
            "jump if signed >= (N == V)",
        ),
        _spec(
            "JLT",
            Opcode.JLT,
            Format.ABS,
            (_I32,),
            ("literal",),
            "jump if signed < (N != V)",
        ),
        _spec(
            "JGT",
            Opcode.JGT,
            Format.ABS,
            (_I32,),
            ("literal",),
            "jump if signed > (!Z and N == V)",
        ),
        _spec(
            "JLE",
            Opcode.JLE,
            Format.ABS,
            (_I32,),
            ("literal",),
            "jump if signed <= (Z or N != V)",
        ),
        _spec(
            "CALL.ABS",
            Opcode.CALL_ABS,
            Format.ABS,
            (_I32,),
            ("literal",),
            "push return address, PC <- target",
            mnemonic="CALL",
        ),
        _spec(
            "CALL.IND",
            Opcode.CALL_IND,
            Format.R,
            (_A,),
            ("r1",),
            "push return address, PC <- aN (paper's CALL CallAddr)",
            mnemonic="CALL",
        ),
        _spec(
            "DJNZ",
            Opcode.DJNZ,
            Format.ABS,
            (_D, _I32),
            ("r1", "literal"),
            "rd <- rd - 1; jump if rd != 0",
            "ZN",
        ),
        # -- stack -------------------------------------------------------------
        _spec(
            "PUSH.D",
            Opcode.PUSH_D,
            Format.R,
            (_D,),
            ("r1",),
            "push rs (SP -= 4)",
            mnemonic="PUSH",
        ),
        _spec(
            "PUSH.A",
            Opcode.PUSH_A,
            Format.R,
            (_A,),
            ("r1",),
            "push as (SP -= 4)",
            mnemonic="PUSH",
        ),
        _spec(
            "POP.D",
            Opcode.POP_D,
            Format.R,
            (_D,),
            ("r1",),
            "pop into rd (SP += 4)",
            mnemonic="POP",
        ),
        _spec(
            "POP.A",
            Opcode.POP_A,
            Format.R,
            (_A,),
            ("r1",),
            "pop into ad (SP += 4)",
            mnemonic="POP",
        ),
        # -- system ------------------------------------------------------------
        _spec(
            "TRAP",
            Opcode.TRAP,
            Format.TRAP,
            (_TN,),
            ("imm8",),
            "software trap through vector table entry imm8",
        ),
        _spec(
            "RDPSW",
            Opcode.RDPSW,
            Format.R,
            (_D,),
            ("r1",),
            "rd <- PSW",
        ),
        _spec(
            "WRPSW",
            Opcode.WRPSW,
            Format.R,
            (_D,),
            ("r1",),
            "PSW <- rs",
            "CZNV",
        ),
    ]
}


#: Surface mnemonic -> overload list, in declaration order.
_MNEMONIC_INDEX: dict[str, list[InstructionSpec]] = {}
for _s in OPCODE_TABLE.values():
    _MNEMONIC_INDEX.setdefault(_s.mnemonic.upper(), []).append(_s)

#: Opcode value -> spec (RET/RETURN share an opcode; first wins).
_BY_OPCODE: dict[int, InstructionSpec] = {}
for _s in OPCODE_TABLE.values():
    _BY_OPCODE.setdefault(int(_s.opcode), _s)


def mnemonics() -> list[str]:
    """All surface mnemonics, sorted."""
    return sorted(_MNEMONIC_INDEX)


def specs_for_mnemonic(mnemonic: str) -> list[InstructionSpec]:
    """Overload list for a surface mnemonic (empty when unknown)."""
    return list(_MNEMONIC_INDEX.get(mnemonic.upper(), ()))


def lookup_opcode(opcode: int) -> InstructionSpec:
    """Spec for a binary opcode; raises ``KeyError`` for illegal opcodes."""
    return _BY_OPCODE[opcode]


def is_mnemonic(word: str) -> bool:
    return word.upper() in _MNEMONIC_INDEX
