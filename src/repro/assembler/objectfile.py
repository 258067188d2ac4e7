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

from dataclasses import dataclass, field

from repro.assembler.errors import LinkError, SourceLocation, UNKNOWN_LOCATION

TEXT_SECTION = "text"
DATA_SECTION = "data"
VECTOR_SECTION = "vectors"


@dataclass(frozen=True)
class Symbol:
    """An exported label: section-relative until the object is linked."""

    name: str
    section: str
    offset: int
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass(frozen=True)
class Relocation:
    """Patch request: write ``resolve(symbol) + addend`` into the 32-bit
    word at ``section[offset]`` at link time."""

    section: str
    offset: int
    symbol: str
    addend: int = 0
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass
class Section:
    """One contiguous chunk of assembled output."""

    name: str
    data: bytearray = field(default_factory=bytearray)
    #: Absolute base address requested via ``.ORG``; ``None`` floats and is
    #: placed by the linker according to the memory map.
    org: int | None = None

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


@dataclass
class ObjectFile:
    """Assembler output for one translation unit."""

    name: str
    sections: dict[str, Section] = field(default_factory=dict)
    symbols: dict[str, Symbol] = field(default_factory=dict)
    relocations: list[Relocation] = field(default_factory=list)
    externs: set[str] = field(default_factory=set)
    #: Every file the unit read, root source first, then ``.INCLUDE``s in
    #: encounter order.  Consumed by the ADVM violation checker.
    included_files: list[str] = field(default_factory=list)
    #: Values of ``.EQU``/``.DEFINE`` symbols seen while assembling, kept
    #: for listings and for ADVM coverage of define usage.
    define_snapshot: dict[str, int] = field(default_factory=dict)

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
