"""The SC88 derivative catalogue.

A *derivative* is a concrete chip variant.  The paper's Section 4 walks
through the change classes derivatives introduce; each SC88 derivative
below embodies at least one of them, so the reproduction can measure how
the abstraction layer absorbs every class:

========  =============================================================
sc88a     baseline device (paper's starting point)
sc88b     NVM ``PAGE`` field **widened 5 -> 6 bits** (more pages) —
          Figure 6's derivative change
sc88c     ``PAGE`` field **shifted by one bit** (Figure 6's
          specification change), ``NVM_CTRL`` **renamed** to
          ``NVM_CONTROL``, UART **re-based** in SFR space
sc88d     embedded software **rewritten** (entry point renamed, input
          registers swapped — Figure 7's scenario), timer counter
          widened 24 -> 32 bits, watchdog service key changed
========  =============================================================
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import NamedTuple

from repro.soc.embedded import EsAbi, es_abi
from repro.soc.layouts import (
    make_gpio_layout,
    make_intc_layout,
    make_nvm_layout,
    make_timer_layout,
    make_uart_layout,
    make_wdt_layout,
)
from repro.soc.memorymap import MemoryMap, make_memory_map
from repro.soc.registers import Instance, PeripheralLayout, RegisterMap

SFR_BASE = 0xF000_0000


class Derivative(NamedTuple):
    """Static description of one chip variant."""

    name: str
    title: str
    description: str
    #: NVM geometry (Figure 6's moving parts).
    page_field_pos: int
    page_field_width: int
    #: Register naming (sc88c renames the NVM control register).
    nvm_ctrl_name: str
    #: Peripheral base offsets within SFR space.
    intc_offset: int
    uart_offset: int
    nvm_offset: int
    timer_offset: int
    gpio_offset: int
    wdt_offset: int
    timer_counter_width: int
    wdt_service_key: int
    #: Embedded-software (global layer firmware) version.
    es_version: int

    @property
    def nvm_pages(self) -> int:
        return 1 << self.page_field_width

    @property
    def predefine(self) -> str:
        """Assembler predefine selecting this derivative
        (``DERIVATIVE_SC88A`` style, the paper's derivative macro)."""
        return f"DERIVATIVE_{self.name.upper()}"

    @property
    def es_abi(self) -> EsAbi:
        return es_abi(self.es_version)

    # The memory map, the layouts and the register map are frozen
    # per-derivative constants: each is built once per derivative and
    # shared by every SoC, instead of re-validating dozens of register
    # and field definitions per device.
    @cache
    def memory_map(self) -> MemoryMap:
        return make_memory_map(self.nvm_pages)

    # -- layouts -----------------------------------------------------------
    @cache
    def nvm_layout(self) -> PeripheralLayout:
        return make_nvm_layout(
            page_pos=self.page_field_pos,
            page_width=self.page_field_width,
            ctrl_name=self.nvm_ctrl_name,
        )

    @cache
    def uart_layout(self) -> PeripheralLayout:
        return make_uart_layout()

    @cache
    def timer_layout(self) -> PeripheralLayout:
        return make_timer_layout(counter_width=self.timer_counter_width)

    @cache
    def intc_layout(self) -> PeripheralLayout:
        return make_intc_layout()

    @cache
    def gpio_layout(self) -> PeripheralLayout:
        return make_gpio_layout()

    @cache
    def wdt_layout(self) -> PeripheralLayout:
        return make_wdt_layout()

    @cache
    def register_map(self) -> RegisterMap:
        """Bind every peripheral layout to its base for this derivative.

        The map is shared, so its instance table is read-only:
        :meth:`RegisterMap.add` on it raises ``TypeError``."""
        register_map = RegisterMap()
        register_map.add(
            Instance("INTC", self.intc_layout(), SFR_BASE + self.intc_offset)
        )
        register_map.add(
            Instance("UART", self.uart_layout(), SFR_BASE + self.uart_offset)
        )
        register_map.add(
            Instance("NVM", self.nvm_layout(), SFR_BASE + self.nvm_offset)
        )
        register_map.add(
            Instance(
                "TIMER", self.timer_layout(), SFR_BASE + self.timer_offset
            )
        )
        register_map.add(
            Instance("GPIO", self.gpio_layout(), SFR_BASE + self.gpio_offset)
        )
        register_map.add(
            Instance("WDT", self.wdt_layout(), SFR_BASE + self.wdt_offset)
        )
        register_map.instances = MappingProxyType(register_map.instances)
        return register_map


SC88A = Derivative(
    name="sc88a",
    title="SC88-A",
    description="baseline chip-card controller",
    page_field_pos=0,
    page_field_width=5,
    nvm_ctrl_name="NVM_CTRL",
    intc_offset=0x0000,
    uart_offset=0x1000,
    nvm_offset=0x2000,
    timer_offset=0x3000,
    gpio_offset=0x4000,
    wdt_offset=0x5000,
    timer_counter_width=24,
    wdt_service_key=0xA5,
    es_version=1,
)

SC88B = Derivative(
    name="sc88b",
    title="SC88-B",
    description="more NVM pages: PAGE field widened 5 -> 6 bits (Fig. 6)",
    page_field_pos=0,
    page_field_width=6,
    nvm_ctrl_name="NVM_CTRL",
    intc_offset=0x0000,
    uart_offset=0x1000,
    nvm_offset=0x2000,
    timer_offset=0x3000,
    gpio_offset=0x4000,
    wdt_offset=0x5000,
    timer_counter_width=24,
    wdt_service_key=0xA5,
    es_version=1,
)

SC88C = Derivative(
    name="sc88c",
    title="SC88-C",
    description=(
        "spec change: PAGE field shifted by one bit, NVM control register "
        "renamed, UART re-based"
    ),
    page_field_pos=1,
    page_field_width=5,
    nvm_ctrl_name="NVM_CONTROL",
    intc_offset=0x0000,
    uart_offset=0x6000,
    nvm_offset=0x2000,
    timer_offset=0x3000,
    gpio_offset=0x4000,
    wdt_offset=0x5000,
    timer_counter_width=24,
    wdt_service_key=0xA5,
    es_version=1,
)

SC88D = Derivative(
    name="sc88d",
    title="SC88-D",
    description=(
        "firmware rewrite: ES entry renamed + input registers swapped "
        "(Fig. 7), 32-bit timer, new watchdog key"
    ),
    page_field_pos=0,
    page_field_width=6,
    nvm_ctrl_name="NVM_CTRL",
    intc_offset=0x0000,
    uart_offset=0x1000,
    nvm_offset=0x2000,
    timer_offset=0x3000,
    gpio_offset=0x4000,
    wdt_offset=0x5000,
    timer_counter_width=32,
    wdt_service_key=0x5A,
    es_version=2,
)

CATALOGUE: dict[str, Derivative] = {
    d.name: d for d in (SC88A, SC88B, SC88C, SC88D)
}


def derivative(name: str) -> Derivative:
    """Look up a derivative by name (``sc88a`` .. ``sc88d``)."""
    try:
        return CATALOGUE[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown derivative {name!r}; available: {sorted(CATALOGUE)}"
        ) from None


def all_derivatives() -> list[Derivative]:
    return list(CATALOGUE.values())
