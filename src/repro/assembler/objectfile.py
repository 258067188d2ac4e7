"""Relocatable object format produced by the assembler.

An :class:`ObjectFile` is the unit the linker consumes: named sections of
raw bytes, exported symbols (labels) at section-relative offsets,
relocation records for 32-bit literal words that reference symbols the
assembler could not resolve locally, and bookkeeping the ADVM layer needs
(the set of files each object pulled in via ``.INCLUDE`` — the
abstraction-violation checker of the paper's Figure 2 is built on it).

:meth:`ObjectFile.to_plain` and :meth:`ObjectFile.from_plain` convert an
object to and from nested tuples of ``str``/``int``/``bytes`` — the form
``marshal`` stores, so an artifact store can keep assembled objects
without pickling them.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.assembler.errors import LinkError, SourceLocation, UNKNOWN_LOCATION

TEXT_SECTION = "text"
DATA_SECTION = "data"
VECTOR_SECTION = "vectors"


class Symbol(NamedTuple):
    """An exported label: section-relative until the object is linked."""

    name: str
    section: str
    offset: int
    location: SourceLocation = UNKNOWN_LOCATION


class Relocation(NamedTuple):
    """Patch request: write ``resolve(symbol) + addend`` into the 32-bit
    word at ``section[offset]`` at link time."""

    section: str
    offset: int
    symbol: str
    addend: int = 0
    location: SourceLocation = UNKNOWN_LOCATION


class Section:
    """One contiguous chunk of assembled output."""

    __slots__ = ("name", "data", "org")

    def __init__(
        self,
        name: str,
        data: bytearray | None = None,
        org: int | None = None,
    ):
        self.name = name
        self.data = bytearray() if data is None else data
        #: Absolute base address requested via ``.ORG``; ``None`` floats
        #: and is placed by the linker according to the memory map.
        self.org = org

    def __eq__(self, other) -> bool:
        if not isinstance(other, Section):
            return NotImplemented
        return (self.name, self.data, self.org) == (
            other.name, other.data, other.org
        )

    @property
    def size(self) -> int:
        return len(self.data)

    def emit_bytes(self, payload: bytes) -> int:
        """Append *payload*; returns the offset it was written at."""
        offset = len(self.data)
        self.data.extend(payload)
        return offset

    def emit_word(self, word: int) -> int:
        return self.emit_bytes(int(word & 0xFFFF_FFFF).to_bytes(4, "little"))

    def read_word(self, offset: int) -> int:
        return int.from_bytes(self.data[offset : offset + 4], "little")


class ObjectFile:
    """Assembler output for one translation unit."""

    __slots__ = (
        "name", "sections", "symbols", "relocations", "externs",
        "included_files", "define_snapshot",
    )

    def __init__(
        self,
        name: str,
        sections: dict[str, Section] | None = None,
        symbols: dict[str, Symbol] | None = None,
        relocations: list[Relocation] | None = None,
        externs: set[str] | None = None,
        included_files: list[str] | None = None,
        define_snapshot: dict[str, int] | None = None,
    ):
        self.name = name
        self.sections = {} if sections is None else sections
        self.symbols = {} if symbols is None else symbols
        self.relocations = [] if relocations is None else relocations
        self.externs = set() if externs is None else externs
        #: Every file the unit read, root source first, then
        #: ``.INCLUDE``s in encounter order.  Consumed by the ADVM
        #: violation checker.
        self.included_files = [] if included_files is None else included_files
        #: Values of ``.EQU``/``.DEFINE`` symbols seen while assembling,
        #: kept for listings and for ADVM coverage of define usage.
        self.define_snapshot = (
            {} if define_snapshot is None else define_snapshot
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObjectFile):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in ObjectFile.__slots__
        )

    def section(self, name: str) -> Section:
        if name not in self.sections:
            self.sections[name] = Section(name)
        return self.sections[name]

    def add_symbol(
        self,
        name: str,
        section: str,
        offset: int,
        location: SourceLocation = UNKNOWN_LOCATION,
    ) -> None:
        if name in self.symbols:
            raise LinkError(
                f"duplicate label {name!r} in object {self.name!r} "
                f"(first defined at {self.symbols[name].location})",
                location,
            )
        self.symbols[name] = Symbol(name, section, offset, location)

    def add_relocation(
        self,
        section: str,
        offset: int,
        symbol: str,
        addend: int = 0,
        location: SourceLocation = UNKNOWN_LOCATION,
    ) -> None:
        self.relocations.append(
            Relocation(section, offset, symbol, addend, location)
        )
        if symbol not in self.symbols:
            self.externs.add(symbol)

    @property
    def total_size(self) -> int:
        return sum(s.size for s in self.sections.values())

    def undefined_symbols(self) -> set[str]:
        """Symbols referenced but not defined in this object."""
        return {r.symbol for r in self.relocations if r.symbol not in self.symbols}

    def to_plain(self) -> tuple:
        """Every field as nested tuples of ``str``, ``int``, ``bytes``
        and ``None`` (source locations included, so a link error raised
        from a decoded object names the same ``file:line``)."""
        return (
            self.name,
            tuple(
                (s.name, bytes(s.data), s.org) for s in self.sections.values()
            ),
            tuple(
                (s.name, s.section, s.offset, _plain_location(s.location))
                for s in self.symbols.values()
            ),
            tuple(
                (r.section, r.offset, r.symbol, r.addend,
                 _plain_location(r.location))
                for r in self.relocations
            ),
            tuple(sorted(self.externs)),
            tuple(self.included_files),
            tuple(self.define_snapshot.items()),
        )

    @classmethod
    def from_plain(cls, plain: tuple) -> "ObjectFile":
        """The object :meth:`to_plain` encoded, equal field for field."""
        name, sections, symbols, relocations, externs, included, defines = (
            plain
        )
        return cls(
            name=name,
            sections={
                section: Section(section, bytearray(data), org)
                for section, data, org in sections
            },
            symbols={
                symbol: Symbol(symbol, section, offset, SourceLocation(*where))
                for symbol, section, offset, where in symbols
            },
            relocations=[
                Relocation(
                    section, offset, symbol, addend, SourceLocation(*where)
                )
                for section, offset, symbol, addend, where in relocations
            ],
            externs=set(externs),
            included_files=list(included),
            define_snapshot=dict(defines),
        )


def _plain_location(location: SourceLocation) -> tuple:
    return (location.filename, location.line, location.context)
