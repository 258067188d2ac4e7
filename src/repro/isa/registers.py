"""Register model for the SC88 core.

The core has two sixteen-entry register banks: data registers ``d0``-``d15``
and address registers ``a0``-``a15``.  The paper's code examples rely on
being able to alias a register with a symbolic name (``.DEFINE CallAddr
A12``), so register parsing accepts any case and both banks.

``a15`` is the architectural stack pointer; platforms initialise it to the
top of RAM at reset.
"""

from __future__ import annotations

import enum

WORD_MASK = 0xFFFF_FFFF
NUM_REGS_PER_CLASS = 16
STACK_POINTER_INDEX = 15


class RegisterClass(enum.Enum):
    """The two SC88 register banks."""

    DATA = "d"
    ADDRESS = "a"


class Register:
    """A single architectural register (bank + index)."""

    __slots__ = ("cls", "index")

    def __init__(self, cls: RegisterClass, index: int):
        if not 0 <= index < NUM_REGS_PER_CLASS:
            raise ValueError(f"register index out of range: {index}")
        self.cls = cls
        self.index = index

    def __eq__(self, other) -> bool:
        if not isinstance(other, Register):
            return NotImplemented
        return self.cls is other.cls and self.index == other.index

    def __hash__(self) -> int:
        return hash((self.cls, self.index))

    @property
    def name(self) -> str:
        return f"{self.cls.value}{self.index}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


def DataRegister(index: int) -> Register:
    """Convenience constructor for ``d<index>``."""
    return Register(RegisterClass.DATA, index)


def AddressRegister(index: int) -> Register:
    """Convenience constructor for ``a<index>``."""
    return Register(RegisterClass.ADDRESS, index)


STACK_POINTER = AddressRegister(STACK_POINTER_INDEX)


def parse_register(text: str) -> Register | None:
    """Parse a register name such as ``d14`` or ``A12``.

    Returns ``None`` when *text* is not a register name, which lets callers
    fall back to symbol lookup (the assembler needs this for ``.DEFINE``
    register aliases).
    """
    if len(text) < 2:
        return None
    prefix = text[0].lower()
    if prefix not in ("d", "a"):
        return None
    digits = text[1:]
    if not digits.isdigit():
        return None
    index = int(digits)
    if index >= NUM_REGS_PER_CLASS:
        return None
    cls = RegisterClass.DATA if prefix == "d" else RegisterClass.ADDRESS
    return Register(cls, index)


class ProcessorStatusWord:
    """PSW with the four ALU flags and the interrupt-enable bit.

    The word layout is ``[C=bit0, Z=bit1, N=bit2, V=bit3, IE=bit7]``; the
    remaining bits read back as zero.  Tests store and restore the PSW via
    ``RETI``, so round-tripping through :attr:`value` must be lossless.
    """

    __slots__ = ("carry", "zero", "negative", "overflow", "interrupt_enable")

    def __init__(
        self,
        carry: bool = False,
        zero: bool = False,
        negative: bool = False,
        overflow: bool = False,
        interrupt_enable: bool = False,
    ):
        self.carry = carry
        self.zero = zero
        self.negative = negative
        self.overflow = overflow
        self.interrupt_enable = interrupt_enable

    _C_BIT = 1 << 0
    _Z_BIT = 1 << 1
    _N_BIT = 1 << 2
    _V_BIT = 1 << 3
    _IE_BIT = 1 << 7

    @property
    def value(self) -> int:
        word = 0
        if self.carry:
            word |= self._C_BIT
        if self.zero:
            word |= self._Z_BIT
        if self.negative:
            word |= self._N_BIT
        if self.overflow:
            word |= self._V_BIT
        if self.interrupt_enable:
            word |= self._IE_BIT
        return word

    @value.setter
    def value(self, word: int) -> None:
        self.carry = bool(word & self._C_BIT)
        self.zero = bool(word & self._Z_BIT)
        self.negative = bool(word & self._N_BIT)
        self.overflow = bool(word & self._V_BIT)
        self.interrupt_enable = bool(word & self._IE_BIT)

    def set_logic_flags(self, result: int) -> None:
        """Flag update used by logical and move operations."""
        result &= WORD_MASK
        self.zero = result == 0
        self.negative = bool(result & 0x8000_0000)
        self.carry = False
        self.overflow = False

    def set_add_flags(self, lhs: int, rhs: int, result: int) -> None:
        """Flag update for addition, *result* not yet masked."""
        masked = result & WORD_MASK
        self.zero = masked == 0
        self.negative = bool(masked & 0x8000_0000)
        self.carry = result > WORD_MASK
        lhs_sign = bool(lhs & 0x8000_0000)
        rhs_sign = bool(rhs & 0x8000_0000)
        out_sign = bool(masked & 0x8000_0000)
        self.overflow = lhs_sign == rhs_sign and out_sign != lhs_sign

    def set_sub_flags(self, lhs: int, rhs: int) -> None:
        """Flag update for subtraction/compare (``lhs - rhs``)."""
        result = (lhs - rhs) & WORD_MASK
        self.zero = result == 0
        self.negative = bool(result & 0x8000_0000)
        self.carry = lhs < rhs  # borrow
        lhs_sign = bool(lhs & 0x8000_0000)
        rhs_sign = bool(rhs & 0x8000_0000)
        out_sign = bool(result & 0x8000_0000)
        self.overflow = lhs_sign != rhs_sign and out_sign != lhs_sign

    def copy(self) -> "ProcessorStatusWord":
        clone = ProcessorStatusWord()
        clone.value = self.value
        return clone


class RegisterFile:
    """The full architectural register state of one SC88 core."""

    __slots__ = ("data", "address", "pc", "psw")

    def __init__(self) -> None:
        self.data = [0] * NUM_REGS_PER_CLASS
        self.address = [0] * NUM_REGS_PER_CLASS
        self.pc = 0
        self.psw = ProcessorStatusWord()

    def read(self, reg: Register) -> int:
        bank = self.data if reg.cls is RegisterClass.DATA else self.address
        return bank[reg.index]

    def write(self, reg: Register, value: int) -> None:
        bank = self.data if reg.cls is RegisterClass.DATA else self.address
        bank[reg.index] = value & WORD_MASK

    @property
    def sp(self) -> int:
        return self.address[STACK_POINTER_INDEX]

    @sp.setter
    def sp(self, value: int) -> None:
        self.address[STACK_POINTER_INDEX] = value & WORD_MASK

    def snapshot(self) -> dict[str, int]:
        """Flat name→value view used by trace capture and debug ports."""
        view: dict[str, int] = {}
        for i, value in enumerate(self.data):
            view[f"d{i}"] = value
        for i, value in enumerate(self.address):
            view[f"a{i}"] = value
        view["pc"] = self.pc
        view["psw"] = self.psw.value
        return view

    def reset(self, sp_init: int = 0) -> None:
        for i in range(NUM_REGS_PER_CLASS):
            self.data[i] = 0
            self.address[i] = 0
        self.pc = 0
        self.psw.value = 0
        if sp_init:
            self.sp = sp_init
