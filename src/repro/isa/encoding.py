"""Instruction word formats and field packing for the SC88.

Every SC88 instruction occupies one or two 32-bit words.  The first word
always carries the opcode in bits ``[31:24]``; the remaining bits are laid
out according to the instruction's :class:`Format`.  Two-word instructions
carry a full 32-bit literal (immediate value or absolute address) in the
second word — this is how ``LOAD rd, <symbol>``, absolute ``STORE``,
jumps, calls and the immediate form of ``INSERT`` obtain 32-bit operands,
and it is the only place the linker ever needs to relocate.

Formats
-------
======  ==========================================  ======
name    first-word fields                           words
======  ==========================================  ======
NONE    —                                           1
R       r1                                          1
RR      r1, r2                                      1
RRR     r1, r2, r3                                  1
RI16    r1, r2, imm16                               1
I16     r1, imm16                                   1
MEM     r1, r2, imm16  (r2 is the address register) 1
BITR    r1, r2, r3, pos, width                      1
BIT     r1, r2, pos, width                          2
ABS     r1                                          2
TRAP    imm8                                        1
======  ==========================================  ======

``width`` fields store ``width - 1`` so the full 1..32 range fits in five
bits.  Packing helpers below take the *architectural* width (1..32) and
perform the bias internally, so callers never see the bias.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

WORD_BITS = 32
WORD_MASK = 0xFFFF_FFFF
OPCODE_SHIFT = 24
OPCODE_MASK = 0xFF

#: Field name -> (high bit, low bit), inclusive, within the first word.
_FIELD_SLOTS: dict[str, tuple[int, int]] = {
    "r1": (23, 20),
    "r2": (19, 16),
    "r3": (15, 12),
    "imm16": (15, 0),
    "imm8": (7, 0),
    "pos": (11, 7),
    "width": (6, 2),
}

#: Fields whose encoded value is biased by -1 (``width`` stores width-1).
_BIASED_FIELDS = frozenset({"width"})


class Format(enum.Enum):
    """Instruction word formats (see module docstring)."""

    NONE = enum.auto()
    R = enum.auto()
    RR = enum.auto()
    RRR = enum.auto()
    RI16 = enum.auto()
    I16 = enum.auto()
    MEM = enum.auto()
    BITR = enum.auto()
    BIT = enum.auto()
    ABS = enum.auto()
    TRAP = enum.auto()

    @property
    def fields(self) -> tuple[str, ...]:
        return _FORMAT_FIELDS[self]

    @property
    def has_literal(self) -> bool:
        """True for two-word formats carrying a 32-bit literal."""
        return self in (Format.BIT, Format.ABS)

    @property
    def words(self) -> int:
        return 2 if self.has_literal else 1


#: First-word field layout per format (see module docstring table).
_FORMAT_FIELDS: dict[Format, tuple[str, ...]] = {
    Format.NONE: (),
    Format.R: ("r1",),
    Format.RR: ("r1", "r2"),
    Format.RRR: ("r1", "r2", "r3"),
    Format.RI16: ("r1", "r2", "imm16"),
    Format.I16: ("r1", "imm16"),
    Format.MEM: ("r1", "r2", "imm16"),
    Format.BITR: ("r1", "r2", "r3", "pos", "width"),
    Format.BIT: ("r1", "r2", "pos", "width"),
    Format.ABS: ("r1",),
    Format.TRAP: ("imm8",),
}


def field_mask(high: int, low: int) -> int:
    """Mask covering bits ``high..low`` inclusive."""
    return ((1 << (high - low + 1)) - 1) << low


def encode_word(fmt: Format, opcode: int, **fields: int) -> int:
    """Pack *opcode* and *fields* into the first instruction word.

    Raises :class:`ValueError` for unknown fields, missing fields, or
    out-of-range values; the assembler converts these into source-located
    diagnostics.
    """
    if not 0 <= opcode <= OPCODE_MASK:
        raise ValueError(f"opcode out of range: {opcode:#x}")
    expected = set(fmt.fields)
    supplied = set(fields)
    if supplied != expected:
        missing = expected - supplied
        extra = supplied - expected
        parts = []
        if missing:
            parts.append(f"missing fields {sorted(missing)}")
        if extra:
            parts.append(f"unexpected fields {sorted(extra)}")
        raise ValueError(f"format {fmt.name}: " + ", ".join(parts))

    word = opcode << OPCODE_SHIFT
    for name, value in fields.items():
        high, low = _FIELD_SLOTS[name]
        encoded = value - 1 if name in _BIASED_FIELDS else value
        limit = 1 << (high - low + 1)
        if not 0 <= encoded < limit:
            raise ValueError(
                f"field {name}={value} out of range for format {fmt.name}"
            )
        word |= encoded << low
    return word


def decode_word(fmt: Format, word: int) -> dict[str, int]:
    """Unpack the first instruction word into a field dictionary.

    The inverse of :func:`encode_word`; biased fields come back in
    architectural units (``width`` in 1..32).
    """
    fields: dict[str, int] = {}
    for name in fmt.fields:
        high, low = _FIELD_SLOTS[name]
        raw = (word & field_mask(high, low)) >> low
        fields[name] = raw + 1 if name in _BIASED_FIELDS else raw
    return fields


def opcode_of(word: int) -> int:
    """Extract the opcode byte from an instruction word."""
    return (word >> OPCODE_SHIFT) & OPCODE_MASK


def sign_extend_16(value: int) -> int:
    """Sign-extend a 16-bit immediate to a Python int."""
    value &= 0xFFFF
    return value - 0x1_0000 if value & 0x8000 else value


class EncodedInstruction(NamedTuple):
    """One fully encoded instruction: first word plus optional literal."""

    word: int
    literal: int | None = None

    @property
    def words(self) -> tuple[int, ...]:
        if self.literal is None:
            return (self.word,)
        return (self.word, self.literal & WORD_MASK)

    @property
    def size_bytes(self) -> int:
        return 4 * len(self.words)
