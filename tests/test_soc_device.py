"""Tests for derivatives, embedded software and the assembled device."""

import pytest

from repro.assembler.assembler import Assembler
from repro.assembler.linker import Linker
from repro.soc.derivatives import (
    CATALOGUE,
    SC88A,
    SC88B,
    SC88C,
    SC88D,
    all_derivatives,
    derivative,
)
from repro.soc.device import SystemOnChip
from repro.soc.embedded import (
    assemble_embedded_software,
    es_abi,
    es_source,
)
from repro.soc.memorymap import ES_ROM_BASE, MemoryMap
from repro.soc.registers import Instance


class TestDerivativeConstants:
    def test_layouts_and_maps_are_built_once_per_derivative(self):
        for d in all_derivatives():
            assert d.memory_map() is d.memory_map()
            assert d.register_map() is d.register_map()
            for layout in (
                d.nvm_layout, d.uart_layout, d.timer_layout,
                d.intc_layout, d.gpio_layout, d.wdt_layout,
            ):
                assert layout() is layout()
        first, second = SystemOnChip(SC88A), SystemOnChip(SC88A)
        assert first.register_map is second.register_map
        assert first.nvm.layout is second.nvm.layout
        assert SC88A.nvm_layout() is not SC88B.nvm_layout()

    def test_shared_register_map_is_read_only(self):
        register_map = SC88C.register_map()
        nvm = register_map.instance("NVM")
        with pytest.raises(TypeError):
            register_map.add(Instance("NVM2", nvm.layout, nvm.base + 0x8000))
        with pytest.raises(TypeError):
            register_map.instances["NVM"] = nvm
        assert sorted(register_map.instances) == [
            "GPIO", "INTC", "NVM", "TIMER", "UART", "WDT",
        ]


class TestDerivativeCatalogue:
    def test_four_derivatives(self):
        assert sorted(CATALOGUE) == ["sc88a", "sc88b", "sc88c", "sc88d"]
        assert len(all_derivatives()) == 4

    def test_lookup_case_insensitive(self):
        assert derivative("SC88A") is SC88A

    def test_unknown_derivative_raises(self):
        with pytest.raises(KeyError, match="available"):
            derivative("sc99x")

    def test_page_field_changes_match_paper(self):
        # Figure 6's derivative change: field widened 5 -> 6.
        assert SC88A.page_field_width == 5
        assert SC88B.page_field_width == 6
        assert SC88B.nvm_pages == 64
        # Figure 6's specification change: field shifted by one.
        assert SC88C.page_field_pos == SC88A.page_field_pos + 1

    def test_register_rename_in_sc88c(self):
        assert SC88A.nvm_ctrl_name == "NVM_CTRL"
        assert SC88C.nvm_ctrl_name == "NVM_CONTROL"
        register_map = SC88C.register_map()
        assert register_map.register_address("NVM.NVM_CONTROL")
        with pytest.raises(KeyError):
            register_map.register_address("NVM.NVM_CTRL")

    def test_uart_rebased_in_sc88c(self):
        a = SC88A.register_map().register_address("UART.UART_CTRL")
        c = SC88C.register_map().register_address("UART.UART_CTRL")
        assert a != c

    def test_es_rewrite_in_sc88d(self):
        # Figure 7's scenario.
        assert SC88A.es_version == 1
        assert SC88D.es_version == 2
        assert SC88D.wdt_service_key != SC88A.wdt_service_key
        assert SC88D.timer_counter_width == 32

    def test_predefine_names(self):
        assert SC88A.predefine == "DERIVATIVE_SC88A"

    def test_memory_map_scales_with_pages(self):
        assert SC88B.memory_map().nvm.size == 2 * SC88A.memory_map().nvm.size


class TestEmbeddedSoftware:
    def test_abi_versions(self):
        v1, v2 = es_abi(1), es_abi(2)
        assert v1.init_register_symbol == "ES_Init_Register"
        assert v2.init_register_symbol == "ES_InitRegister"
        assert (v1.init_addr_reg, v1.init_value_reg) == ("a4", "d4")
        assert (v2.init_addr_reg, v2.init_value_reg) == ("a5", "d5")

    def test_unknown_version_raises(self):
        with pytest.raises(ValueError):
            es_abi(3)

    def test_sources_assemble(self):
        for version in (1, 2):
            obj = assemble_embedded_software(version)
            assert obj.sections["estext"].org == ES_ROM_BASE
            assert "ES_Get_Version" in obj.symbols

    def test_v1_and_v2_differ_in_entry_symbol(self):
        v1 = assemble_embedded_software(1)
        v2 = assemble_embedded_software(2)
        assert "ES_Init_Register" in v1.symbols
        assert "ES_Init_Register" not in v2.symbols
        assert "ES_InitRegister" in v2.symbols

    def test_es_init_register_works(self):
        """Run the firmware function bare-metal: write a value through it."""
        asm = Assembler()
        test = asm.assemble_source(
            "_main:\n"
            f"    LOAD a4, 0x10000040\n"
            "    LOAD d4, 0x77\n"
            "    CALL ES_Init_Register\n"
            "    HALT\n",
            "t.asm",
        )
        es = assemble_embedded_software(1, asm)
        memory_map = MemoryMap()
        image = Linker(
            text_base=memory_map.text_base, data_base=memory_map.data_base
        ).link([test, es])
        soc = SystemOnChip(SC88A)
        soc.load_image(image)
        from repro.platforms.cpu import CpuCore

        cpu = CpuCore(soc.bus)
        cpu.reset(image.entry, soc.memory_map.stack_top)
        while not cpu.halted:
            cpu.step()
        assert soc.bus.peek_word(0x1000_0040) == 0x77


class TestSystemOnChip:
    def test_construction_per_derivative(self):
        for deriv in all_derivatives():
            soc = SystemOnChip(deriv)
            assert soc.nvm.pages == deriv.nvm_pages
            assert soc.wdt.service_key == deriv.wdt_service_key

    def test_peripheral_bus_mapping(self):
        soc = SystemOnChip(SC88A)
        ctrl_address = soc.register_map.register_address("NVM.NVM_CTRL")
        soc.bus.poke_word(ctrl_address, 0)
        assert soc.bus.peek_word(ctrl_address) == 0

    def test_irq_collection(self):
        soc = SystemOnChip(SC88A)
        soc.intc.set_reg("INT_EN", 0xFF)
        reload_address = soc.register_map.register_address("TIMER.TIM_RELOAD")
        ctrl_address = soc.register_map.register_address("TIMER.TIM_CTRL")
        soc.bus.poke_word(reload_address, 3)
        soc.bus.poke_word(ctrl_address, 0b11)  # EN|IE
        soc.tick(10)
        from repro.soc.peripherals.intc import LINE_TIMER

        assert soc.intc.pending_line() == LINE_TIMER

    def test_result_probes(self):
        soc = SystemOnChip(SC88A)
        soc.bus.poke_word(soc.memory_map.result_address, 0x1234)
        assert soc.result_word() == 0x1234
        gpio_out = soc.register_map.register_address("GPIO.GPIO_OUT")
        gpio_dir = soc.register_map.register_address("GPIO.GPIO_DIR")
        soc.bus.poke_word(gpio_dir, 0b11)
        soc.bus.poke_word(gpio_out, 0b11)
        assert soc.done_pin() == 1 and soc.pass_pin() == 1

    def test_load_image_routes_regions(self):
        soc = SystemOnChip(SC88A)
        from repro.assembler.linker import MemoryImage, PlacedSection

        image = MemoryImage(
            segments=[
                PlacedSection("o", "text", 0x200, b"\x01\x02\x03\x04"),
                PlacedSection("o", "data", 0x1000_0000, b"\x05\x06\x07\x08"),
            ]
        )
        soc.load_image(image)
        assert soc.bus.peek_word(0x200) == 0x04030201
        assert soc.bus.peek_word(0x1000_0000) == 0x08070605

    def test_load_image_outside_regions_rejected(self):
        soc = SystemOnChip(SC88A)
        from repro.assembler.linker import MemoryImage, PlacedSection

        image = MemoryImage(
            segments=[PlacedSection("o", "text", 0x7000_0000, b"\x00" * 4)]
        )
        with pytest.raises(ValueError, match="outside"):
            soc.load_image(image)

    def test_reset_clears_state(self):
        soc = SystemOnChip(SC88A)
        soc.bus.poke_word(soc.memory_map.result_address, 0xFF)
        soc.uart.tx_log.append(1)
        soc.reset()
        assert soc.result_word() == 0
        assert soc.uart.tx_log == []
