"""SC88 memory map.

The map mirrors the address-space shape of a chip-card controller: boot/
code ROM (with the trap vector table at its base and the embedded-software
library at a fixed offset), working RAM, the NVM array, and the special-
function-register (SFR) space where peripherals live.  Derivatives may
re-base peripherals and resize the NVM — both are change classes the
ADVM abstraction layer must absorb.
"""

from __future__ import annotations

from typing import NamedTuple


class MemoryRegion(NamedTuple):
    """One contiguous address range."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int, length: int = 1) -> bool:
        return self.base <= address and address + length <= self.end


# Architectural constants shared by all derivatives.
VECTOR_BASE = 0x0000_0000
VECTOR_COUNT = 32
VECTOR_TABLE_BYTES = VECTOR_COUNT * 4
DEFAULT_TEXT_BASE = 0x0000_0200
ES_ROM_BASE = 0x0004_0000
NVM_PAGE_BYTES = 128

#: Well-known software trap numbers raised by the core itself.
TRAP_DIV_ZERO = 1
TRAP_ILLEGAL_OPCODE = 2
TRAP_MISALIGNED = 3
TRAP_BUS_ERROR = 4
TRAP_WATCHDOG = 5
#: Hardware interrupt lines map to vectors 8 + line.
IRQ_VECTOR_BASE = 8

#: Result signatures tests deposit in the result word (also published
#: via Globals.inc).
PASS_MAGIC = 0x600D_C0DE
FAIL_MAGIC = 0xBAD0_BAD0


class MemoryMap(NamedTuple):
    """Complete address map for one derivative."""

    rom: MemoryRegion = MemoryRegion("rom", 0x0000_0000, 0x0008_0000)
    ram: MemoryRegion = MemoryRegion("ram", 0x1000_0000, 0x0001_0000)
    nvm: MemoryRegion = MemoryRegion("nvm", 0x2000_0000, 32 * NVM_PAGE_BYTES)
    sfr: MemoryRegion = MemoryRegion("sfr", 0xF000_0000, 0x0001_0000)

    @property
    def text_base(self) -> int:
        """Where floating code sections are linked (after the vectors)."""
        return self.rom.base + DEFAULT_TEXT_BASE

    @property
    def data_base(self) -> int:
        return self.ram.base

    @property
    def stack_top(self) -> int:
        """Initial stack pointer (stack grows down, below the result area)."""
        return self.ram.end - 0x200

    @property
    def result_address(self) -> int:
        """RAM word where tests deposit their result signature; every
        platform, even limited-visibility ones, can dump this word."""
        return self.ram.end - 0x100

    def regions(self) -> list[MemoryRegion]:
        return [self.rom, self.ram, self.nvm, self.sfr]

    def region_of(self, address: int) -> MemoryRegion | None:
        for region in self.regions():
            if region.contains(address):
                return region
        return None


def make_memory_map(nvm_pages: int) -> MemoryMap:
    """Memory map with an NVM region sized for *nvm_pages* pages."""
    return MemoryMap(
        nvm=MemoryRegion("nvm", 0x2000_0000, nvm_pages * NVM_PAGE_BYTES)
    )
