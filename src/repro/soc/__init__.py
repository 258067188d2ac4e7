"""SC88 system-on-chip model (the device under test).

The paper verified an Infineon SLE88 chip-card controller; this package
provides the equivalent substrate: a catalogue of chip *derivatives*
(:mod:`repro.soc.derivatives`) over a common peripheral set (UART, NVM
page controller, timer, interrupt controller, GPIO, watchdog), a register
model with named bit fields (:mod:`repro.soc.registers`), and the
embedded-software ROM that plays the paper's "global layer" firmware
(:mod:`repro.soc.embedded`).

Each public name resolves on first use (PEP 562) and imports only the
submodule defining it: rendering ``Globals.inc`` from the derivative
catalogue loads neither the bus nor a peripheral model.
"""

from repro import lazy_exports

#: Public name -> the submodule that defines it (``__all__`` order).
_ORIGINS = {
    "Access": "registers",
    "Bus": "bus",
    "BusAccess": "bus",
    "BusError": "bus",
    "BusTrace": "bus",
    "CATALOGUE": "derivatives",
    "Derivative": "derivatives",
    "ES_ABI_V1": "embedded",
    "ES_ABI_V2": "embedded",
    "EsAbi": "embedded",
    "FAIL_MAGIC": "memorymap",
    "Field": "registers",
    "IRQ_VECTOR_BASE": "memorymap",
    "Instance": "registers",
    "Memory": "bus",
    "MemoryMap": "memorymap",
    "MemoryRegion": "memorymap",
    "NVM_PAGE_BYTES": "memorymap",
    "PASS_MAGIC": "memorymap",
    "PeripheralLayout": "registers",
    "RegisterDef": "registers",
    "RegisterMap": "registers",
    "SC88A": "derivatives",
    "SC88B": "derivatives",
    "SC88C": "derivatives",
    "SC88D": "derivatives",
    "SystemOnChip": "device",
    "TRAP_BUS_ERROR": "memorymap",
    "TRAP_DIV_ZERO": "memorymap",
    "TRAP_ILLEGAL_OPCODE": "memorymap",
    "TRAP_MISALIGNED": "memorymap",
    "TRAP_WATCHDOG": "memorymap",
    "VECTOR_BASE": "memorymap",
    "VECTOR_COUNT": "memorymap",
    "all_derivatives": "derivatives",
    "assemble_embedded_software": "embedded",
    "derivative": "derivatives",
    "es_abi": "embedded",
    "es_source": "embedded",
    "make_memory_map": "memorymap",
}

__all__ = list(_ORIGINS)

__getattr__, __dir__ = lazy_exports(__name__, _ORIGINS)
