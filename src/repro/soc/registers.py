"""Named control/status register and bit-field model.

The ADVM paper's Figure 6 turns on exactly this information: a control
register has a named field at a position and width that may move or grow
between derivatives, and the abstraction layer publishes those facts as
assembler defines.  This module is the single source of truth the ADVM
``Globals.inc`` generator reads.

A :class:`PeripheralLayout` describes one peripheral's register block
(offsets, fields, access modes).  A :class:`RegisterMap` binds layouts to
base addresses for one concrete derivative and answers queries like
"address of NVM_CTRL" or "position/width of its PAGE field".
"""

from __future__ import annotations

from typing import NamedTuple


class Access:
    """Register/field access modes."""

    RW = "rw"
    RO = "r"
    WO = "w"
    W1C = "w1c"  # write-1-to-clear (status registers)


class Field:
    """A named bit field inside a register."""

    __slots__ = ("name", "pos", "width", "access", "doc")

    def __init__(
        self,
        name: str,
        pos: int,
        width: int,
        access: str = Access.RW,
        doc: str = "",
    ):
        if not 0 <= pos < 32:
            raise ValueError(f"field {name}: pos out of range")
        if not 1 <= width <= 32 or pos + width > 32:
            raise ValueError(f"field {name}: width out of range")
        self.name = name
        self.pos = pos
        self.width = width
        self.access = access
        self.doc = doc

    @property
    def mask(self) -> int:
        return ((1 << self.width) - 1) << self.pos

    @property
    def max_value(self) -> int:
        return (1 << self.width) - 1

    def extract(self, register_value: int) -> int:
        return (register_value & self.mask) >> self.pos

    def insert(self, register_value: int, field_value: int) -> int:
        return (register_value & ~self.mask) | (
            (field_value << self.pos) & self.mask
        )


class RegisterDef:
    """One register inside a peripheral block."""

    __slots__ = ("name", "offset", "fields", "access", "reset", "doc")

    def __init__(
        self,
        name: str,
        offset: int,
        fields: tuple[Field, ...] = (),
        access: str = Access.RW,
        reset: int = 0,
        doc: str = "",
    ):
        if offset % 4:
            raise ValueError(f"register {name}: offset must be aligned")
        seen: set[str] = set()
        used_bits = 0
        for fld in fields:
            if fld.name in seen:
                raise ValueError(f"register {name}: duplicate field {fld.name}")
            seen.add(fld.name)
            if used_bits & fld.mask:
                raise ValueError(f"register {name}: field {fld.name} overlaps")
            used_bits |= fld.mask
        self.name = name
        self.offset = offset
        self.fields = fields
        self.access = access
        self.reset = reset
        self.doc = doc

    def field_named(self, name: str) -> Field:
        for fld in self.fields:
            if fld.name == name:
                return fld
        raise KeyError(f"register {self.name} has no field {name!r}")


class PeripheralLayout:
    """A peripheral's register block: the *version-controlled* interface.

    Derivatives carry different layout versions — renamed registers,
    moved fields — and the ADVM global defines absorb the difference.
    """

    __slots__ = (
        "name", "registers", "size", "doc", "registers_by_name",
        "registers_by_offset", "field_masks",
    )

    def __init__(
        self,
        name: str,
        registers: tuple[RegisterDef, ...],
        size: int = 0x100,
        doc: str = "",
    ):
        # Decode tables, shared by every peripheral bound to the layout.
        self.registers_by_name: dict[str, RegisterDef] = {}
        self.registers_by_offset: dict[int, RegisterDef] = {}
        for reg in registers:
            if reg.name in self.registers_by_name:
                raise ValueError(f"{name}: duplicate register {reg.name}")
            if reg.offset in self.registers_by_offset:
                raise ValueError(f"{name}: duplicate offset {reg.offset:#x}")
            if reg.offset >= size:
                raise ValueError(f"{name}: register {reg.name} outside block")
            self.registers_by_name[reg.name] = reg
            self.registers_by_offset[reg.offset] = reg
        self.name = name
        self.registers = registers
        self.size = size
        self.doc = doc
        #: ``(register, field) -> (mask, pos)`` for every field.
        self.field_masks = {
            (reg.name, fld.name): (fld.mask, fld.pos)
            for reg in registers
            for fld in reg.fields
        }

    def register_named(self, name: str) -> RegisterDef:
        try:
            return self.registers_by_name[name]
        except KeyError:
            raise KeyError(
                f"peripheral {self.name} has no register {name!r}"
            ) from None

    def register_at(self, offset: int) -> RegisterDef | None:
        return self.registers_by_offset.get(offset)

    def register_names(self) -> list[str]:
        return [r.name for r in self.registers]


class Instance(NamedTuple):
    """A peripheral layout bound to a base address."""

    name: str
    layout: PeripheralLayout
    base: int

    def register_address(self, register_name: str) -> int:
        return self.base + self.layout.register_named(register_name).offset


class RegisterMap:
    """All register instances of one derivative, queryable by name.

    Names use ``INSTANCE.REGISTER`` (``NVM.NVM_CTRL``) or, when
    unambiguous, the bare register name (``NVM_CTRL``) — the latter is
    what assembler defines are generated from.
    """

    __slots__ = ("instances",)

    def __init__(self) -> None:
        self.instances: dict[str, Instance] = {}

    def add(self, instance: Instance) -> None:
        if instance.name in self.instances:
            raise ValueError(f"duplicate instance {instance.name!r}")
        self.instances[instance.name] = instance

    def instance(self, name: str) -> Instance:
        try:
            return self.instances[name]
        except KeyError:
            raise KeyError(f"no peripheral instance {name!r}") from None

    def _split(self, name: str) -> tuple[Instance, str]:
        if "." in name:
            instance_name, register_name = name.split(".", 1)
            return self.instance(instance_name), register_name
        matches = [
            inst
            for inst in self.instances.values()
            if register_name_in(inst.layout, name)
        ]
        if not matches:
            raise KeyError(f"no register named {name!r} in any peripheral")
        if len(matches) > 1:
            names = [m.name for m in matches]
            raise KeyError(f"register {name!r} is ambiguous across {names}")
        return matches[0], name

    def register_address(self, name: str) -> int:
        instance, register_name = self._split(name)
        return instance.register_address(register_name)

    def register_def(self, name: str) -> RegisterDef:
        instance, register_name = self._split(name)
        return instance.layout.register_named(register_name)

    def field_of(self, register_name: str, field_name: str) -> Field:
        return self.register_def(register_name).field_named(field_name)

    def all_register_addresses(self) -> dict[str, int]:
        """Flat ``INSTANCE.REGISTER -> address`` view (for coverage and
        for generating complete register-test environments)."""
        out: dict[str, int] = {}
        for inst in self.instances.values():
            for reg in inst.layout.registers:
                out[f"{inst.name}.{reg.name}"] = inst.base + reg.offset
        return out


def register_name_in(layout: PeripheralLayout, name: str) -> bool:
    return name in layout.registers_by_name
