"""Linker: combines object files into a loadable memory image.

The ADVM build of one test cell links at least three objects — the test
itself, the abstraction layer's ``Base_Functions.asm``, and global-layer
libraries (embedded software, trap handlers).  The linker:

1. places sections — sections carrying an ``.ORG`` go exactly there;
   floating ``text``-like sections are packed into the code region and
   floating ``data``-like sections into the data region;
2. builds the global symbol table (duplicate definitions are errors);
3. patches every relocation with ``symbol + addend``;
4. checks that no two placed sections overlap and that each fits in
   memory.

The result is a :class:`MemoryImage` that every execution platform loads
verbatim — which is precisely the property the paper's Section 1 claims
for assembler-driven tests (one binary artefact for golden model, RTL,
gates, emulator and silicon).
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from repro.assembler.errors import LinkError, UNKNOWN_LOCATION
from repro.assembler.objectfile import DATA_SECTION, ObjectFile, TEXT_SECTION

#: Default placement bases, overridable from the SoC memory map.
DEFAULT_TEXT_BASE = 0x0000_0100
DEFAULT_DATA_BASE = 0x1000_0000
ENTRY_SYMBOL = "_main"


class PlacedSection(NamedTuple):
    """A section fixed at an absolute base address."""

    object_name: str
    name: str
    base: int
    data: bytes

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def overlaps(self, other: "PlacedSection") -> bool:
        return self.base < other.end and other.base < self.end


class MemoryImage:
    """Fully linked, loadable image: segments + absolute symbol table."""

    __slots__ = ("segments", "symbols", "entry", "_digest")

    def __init__(
        self,
        segments: list[PlacedSection] | None = None,
        symbols: dict[str, int] | None = None,
        entry: int | None = None,
    ):
        self.segments = [] if segments is None else segments
        self.symbols = {} if symbols is None else symbols
        self.entry = entry
        self._digest: str | None = None

    def read_word(self, address: int) -> int:
        for segment in self.segments:
            if segment.base <= address and address + 4 <= segment.end:
                offset = address - segment.base
                return int.from_bytes(
                    segment.data[offset : offset + 4], "little"
                )
        raise LinkError(f"no image data at address {address:#010x}")

    @property
    def total_bytes(self) -> int:
        return sum(len(s.data) for s in self.segments)

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise LinkError(f"symbol {name!r} not present in image") from None

    def digest(self) -> str:
        """Content digest over segments and entry point.

        Two images with equal digests load and execute identically, so
        the digest keys the decode-cache registry and the persistent
        regression result cache.  Memoised; images are treated as
        immutable once linked.
        """
        if self._digest is not None:
            return self._digest
        hasher = hashlib.sha256()
        hasher.update(str(self.entry).encode())
        for segment in sorted(self.segments, key=lambda s: s.base):
            hasher.update(segment.base.to_bytes(8, "little"))
            hasher.update(len(segment.data).to_bytes(8, "little"))
            hasher.update(segment.data)
        self._digest = hasher.hexdigest()
        return self._digest


class Region(NamedTuple):
    """A placement region with bounds checking."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int, length: int) -> bool:
        return self.base <= address and address + length <= self.end


class Linker:
    """Places sections, resolves symbols, patches relocations."""

    def __init__(
        self,
        text_base: int = DEFAULT_TEXT_BASE,
        data_base: int = DEFAULT_DATA_BASE,
        text_region: Region | None = None,
        data_region: Region | None = None,
    ):
        self.text_base = text_base
        self.data_base = data_base
        self.text_region = text_region
        self.data_region = data_region

    def link(
        self,
        objects: list[ObjectFile],
        entry_symbol: str = ENTRY_SYMBOL,
        require_entry: bool = True,
    ) -> MemoryImage:
        if not objects:
            raise LinkError("nothing to link")
        placements = self._place(objects)
        symbols = self._symbol_table(objects, placements)
        by_name: dict[str, ObjectFile] = {}
        for obj in objects:
            by_name.setdefault(obj.name, obj)
        # One mutable copy per segment: every relocation patches it in
        # place, and it is frozen once.
        buffers = {
            (obj, section): bytearray(by_name[obj].sections[section].data)
            for obj, section in placements
        }
        self._check_overlaps(
            [
                PlacedSection(obj, section, base, buffers[obj, section])
                for (obj, section), base in placements.items()
            ]
        )
        self._patch(objects, symbols, buffers)
        image = MemoryImage(
            segments=[
                PlacedSection(obj, section, base, bytes(buffers[obj, section]))
                for (obj, section), base in placements.items()
            ],
            symbols=symbols,
        )
        if entry_symbol in symbols:
            image.entry = symbols[entry_symbol]
        elif require_entry:
            raise LinkError(
                f"entry symbol {entry_symbol!r} is not defined by any object "
                f"(objects: {[o.name for o in objects]})"
            )
        return image

    # -- internals ---------------------------------------------------------
    def _place(
        self, objects: list[ObjectFile]
    ) -> dict[tuple[str, str], int]:
        placements: dict[tuple[str, str], int] = {}
        text_cursor = self.text_base
        data_cursor = self.data_base
        for obj in objects:
            for section in obj.sections.values():
                if section.size == 0 and section.org is None:
                    continue
                key = (obj.name, section.name)
                if section.org is not None:
                    placements[key] = section.org
                elif section.name == DATA_SECTION:
                    data_cursor = (data_cursor + 3) & ~3
                    placements[key] = data_cursor
                    data_cursor += section.size
                else:
                    # text and any custom floating section go to code space
                    text_cursor = (text_cursor + 3) & ~3
                    placements[key] = text_cursor
                    text_cursor += section.size
        self._check_regions(objects, placements)
        return placements

    def _check_regions(
        self,
        objects: list[ObjectFile],
        placements: dict[tuple[str, str], int],
    ) -> None:
        by_name = {o.name: o for o in objects}
        for (obj_name, section_name), base in placements.items():
            size = by_name[obj_name].sections[section_name].size
            for region in (self.text_region, self.data_region):
                if region is None:
                    continue
                # Only enforce regions the section actually starts inside.
                if region.base <= base < region.end and not region.contains(
                    base, size
                ):
                    raise LinkError(
                        f"section {section_name!r} of {obj_name!r} "
                        f"({size} bytes at {base:#010x}) does not fit in "
                        f"region {region.name} "
                        f"[{region.base:#010x}, {region.end:#010x})"
                    )

    def _symbol_table(
        self,
        objects: list[ObjectFile],
        placements: dict[tuple[str, str], int],
    ) -> dict[str, int]:
        symbols: dict[str, int] = {}
        defined_in: dict[str, str] = {}
        for obj in objects:
            for symbol in obj.symbols.values():
                if symbol.name in symbols:
                    raise LinkError(
                        f"symbol {symbol.name!r} defined in both "
                        f"{defined_in[symbol.name]!r} and {obj.name!r}",
                        symbol.location,
                    )
                key = (obj.name, symbol.section)
                if key not in placements:
                    # Label in an empty section: place at the section's
                    # would-be base (zero-size sections are not emitted).
                    raise LinkError(
                        f"symbol {symbol.name!r} lives in empty section "
                        f"{symbol.section!r} of {obj.name!r}",
                        symbol.location,
                    )
                symbols[symbol.name] = placements[key] + symbol.offset
                defined_in[symbol.name] = obj.name
        return symbols

    def _check_overlaps(self, segments: list[PlacedSection]) -> None:
        ordered = sorted(segments, key=lambda s: s.base)
        for first, second in zip(ordered, ordered[1:]):
            if first.overlaps(second):
                raise LinkError(
                    f"sections overlap: {first.object_name}/{first.name} "
                    f"[{first.base:#010x}, {first.end:#010x}) and "
                    f"{second.object_name}/{second.name} "
                    f"[{second.base:#010x}, {second.end:#010x})"
                )

    def _patch(
        self,
        objects: list[ObjectFile],
        symbols: dict[str, int],
        buffers: dict[tuple[str, str], bytearray],
    ) -> None:
        missing: list[str] = []
        for obj in objects:
            for reloc in obj.relocations:
                if reloc.symbol not in symbols:
                    missing.append(
                        f"{reloc.symbol!r} (referenced from {obj.name} at "
                        f"{reloc.location})"
                    )
                    continue
                value = (symbols[reloc.symbol] + reloc.addend) & 0xFFFF_FFFF
                buffers[obj.name, reloc.section][
                    reloc.offset : reloc.offset + 4
                ] = value.to_bytes(4, "little")
        if missing:
            raise LinkError(
                "undefined symbol(s): " + "; ".join(sorted(missing)),
                UNKNOWN_LOCATION,
            )
