"""What a device reset costs and how it reports itself.

A reset restores ROM by the extents image loads wrote (falling back to
the whole region past :data:`LOAD_EXTENT_CAP` or after a whole-region
load), rewrites every memory with its own construction fill, empties
the bus page memo, and counts the whole-ROM fallbacks in the session's
engine stats.  Peripheral register fields
decode through tables cached once per layout.
"""

from __future__ import annotations

import pytest

from repro.assembler.assembler import Assembler
from repro.assembler.linker import Linker
from repro.cli import main
from repro.platforms import make_platform
from repro.platforms.base import RunStatus
from repro.platforms.session import ExecutionSession
from repro.soc.bus import LOAD_EXTENT_CAP, PAGE_SIZE, Bus, Memory
from repro.soc.derivatives import SC88A, all_derivatives
from repro.soc.device import PASS_MAGIC, SystemOnChip
from repro.soc.peripherals.timer import Timer, make_timer_layout

MEMORY_MAP = SC88A.memory_map()


def pass_image(memory_map):
    """Report PASS through the result word of *memory_map*."""
    return Linker(
        text_base=memory_map.text_base, data_base=memory_map.data_base
    ).link(
        [
            Assembler().assemble_source(
                f"""\
_main:
    LOAD d0, {PASS_MAGIC:#x}
    STORE [{memory_map.result_address:#x}], d0
    HALT
""",
                "t.asm",
            )
        ]
    )


PASS_IMAGE = pass_image(MEMORY_MAP)

DERIVATIVES = pytest.mark.parametrize(
    "derivative", all_derivatives(), ids=lambda d: d.name
)


# --------------------------------------------------------------------------
# Memory: extent restore and the construction fill
# --------------------------------------------------------------------------

class TestMemoryRestore:
    def test_extents_restore_to_construction_fill(self):
        rom = Memory(0x100, read_only=True, fill=0xFF)
        rom.load(0x10, b"\x00" * 8)
        rom.load(0x14, b"\x12" * 8)  # overlapping
        rom.load(0xF0, b"\x00" * 0x10)  # touching the end
        assert rom.restore() is False
        assert rom.data == b"\xff" * 0x100
        assert rom.loaded_extents == []

    def test_whole_region_load_falls_back(self):
        rom = Memory(0x100, read_only=True, fill=0xFF)
        rom.load(0, b"\x00" * 0x100)
        assert rom.loaded_extents is None
        assert rom.restore() is True
        assert rom.data == b"\xff" * 0x100
        assert rom.loaded_extents == []

    def test_extents_past_the_cap_fall_back(self):
        rom = Memory(0x1000, read_only=True, fill=0xFF)
        for i in range(LOAD_EXTENT_CAP):
            rom.load(4 * i, b"\x00")
        assert len(rom.loaded_extents) == LOAD_EXTENT_CAP
        rom.load(0x800, b"\x00")
        assert rom.loaded_extents is None
        assert rom.restore() is True
        assert rom.data == b"\xff" * 0x1000

    def test_wipe_writes_the_fill(self):
        ram = Memory(0x40, fill=0xFF)
        ram.write(0, 0, 4)
        ram.load(8, b"\x00" * 4)
        ram.wipe()
        assert ram.data == b"\xff" * 0x40
        assert ram.loaded_extents == []

    def test_restore_keeps_the_buffer_identity(self):
        # Bus mappings hold the buffer for their word fast path.
        rom = Memory(0x100, read_only=True)
        data = rom.data
        rom.load(0, b"\x01" * 0x100)
        rom.restore()
        assert rom.data is data


# --------------------------------------------------------------------------
# Bus: a page is resolved once, on first touch, and reused until a reset
# --------------------------------------------------------------------------

class TestDispatchReuse:
    @DERIVATIVES
    def test_fresh_soc_page_table_is_empty(self, derivative):
        assert SystemOnChip(derivative).bus.page_table == {}

    @DERIVATIVES
    def test_run_memoises_only_fully_covered_pages(self, derivative):
        memory_map = derivative.memory_map()
        session = ExecutionSession(
            make_platform("golden"), derivative, use_superblocks=False
        )
        result = session.run(pass_image(memory_map))
        assert result.status is RunStatus.PASS
        bus = session.soc.bus
        table = bus.page_table
        # The reference interpreter fetches over the bus: the text page
        # and the result word's RAM page were touched and memoised.
        assert table[memory_map.text_base >> 8].name == "rom"
        assert table[memory_map.result_address >> 8].name == "ram"
        assert len(table) < memory_map.rom.size // PAGE_SIZE
        for page, mapping in table.items():
            first = page * PAGE_SIZE
            assert mapping.base <= first
            assert first + PAGE_SIZE <= mapping.end
            assert bus.mapping_for(first, PAGE_SIZE) is mapping

    @DERIVATIVES
    def test_full_reset_empties_the_memo(self, derivative):
        ram_base = derivative.memory_map().ram.base
        soc = SystemOnChip(derivative)
        soc.bus.poke_word(ram_base, 0x1234)
        assert soc.bus.page_table
        soc.full_reset()
        assert soc.bus.page_table == {}
        assert soc.bus.peek_word(ram_base) == 0

    def test_attach_keeps_a_current_table_current(self):
        # A new mapping cannot overlap a memoised page, so attaching
        # leaves every entry true.
        bus = Bus()
        a = bus.attach("a", 0x0, PAGE_SIZE, Memory(PAGE_SIZE))
        bus.write_word(0x10, 0x55)
        assert bus.page_table == {0: a}
        b = bus.attach("b", 0x1000, PAGE_SIZE, Memory(PAGE_SIZE))
        assert bus.page_table == {0: a}
        assert bus.read_word(0x10) == (0x55, 0)
        assert bus.read_word(0x1010) == (0, 0)
        assert bus.page_table == {0: a, 0x1000 >> 8: b}

    def test_device_swap_is_not_current(self):
        # The memo holds the mapping, not its device: whoever swaps a
        # device refreshes the mapping's word buffers.
        bus = Bus()
        mapping = bus.attach("a", 0x0, PAGE_SIZE, Memory(PAGE_SIZE))
        bus.write_word(0x10, 0x55)
        mapping.device = Memory(PAGE_SIZE)
        assert mapping.word_buf is not mapping.device.data
        mapping.refresh()
        assert mapping.word_buf is mapping.device.data
        assert bus.page_table == {0: mapping}
        assert bus.read_word(0x10) == (0, 0)

    def test_reset_counts_whole_rom_restores(self):
        soc = SystemOnChip(SC88A)
        soc.rom.load(0x100, b"\x01" * 16)
        soc.full_reset()
        assert soc.reset_fallbacks == 0
        soc.rom.load(0, bytes(len(soc.rom.data)))
        soc.full_reset()
        assert soc.reset_fallbacks == 1
        assert soc.rom.data == bytes(len(soc.rom.data))


# --------------------------------------------------------------------------
# PeripheralLayout: decoded once, shared, same errors
# --------------------------------------------------------------------------

class TestLayoutDecode:
    def test_field_access_matches_field_model(self):
        timer = Timer(make_timer_layout(counter_width=24))
        reload_def = timer.layout.register_named(timer._reload)
        reload_field = reload_def.field_named("RELOAD")
        timer.set_reg(timer._reload, 0xFFFF_FFFF)
        timer.set_field(timer._reload, "RELOAD", 0x12_3456)
        assert timer.reg_value(timer._reload) == reload_field.insert(
            0xFFFF_FFFF, 0x12_3456
        )
        assert timer.field_value(timer._reload, "RELOAD") == 0x12_3456

    def test_lookups_by_name_and_offset(self):
        layout = make_timer_layout()
        for reg in layout.registers:
            assert layout.register_named(reg.name) is reg
            assert layout.register_at(reg.offset) is reg
        assert layout.register_at(0x40) is None

    def test_unknown_names_raise_the_same_errors(self):
        timer = Timer()
        with pytest.raises(KeyError, match="has no register 'NOPE'"):
            timer.field_value("NOPE", "EN")
        with pytest.raises(KeyError, match="has no field 'NOPE'"):
            timer.field_value(timer._ctrl, "NOPE")
        with pytest.raises(KeyError, match="has no register 'NOPE'"):
            timer.set_field("NOPE", "EN", 1)
        with pytest.raises(KeyError, match="has no field 'NOPE'"):
            timer.set_field(timer._ctrl, "NOPE", 1)
        with pytest.raises(KeyError, match="has no register 'NOPE'"):
            timer.layout.register_named("NOPE")

    def test_tables_live_on_the_layout_not_the_peripheral(self):
        layout = make_timer_layout()
        first, second = Timer(layout), Timer(layout)
        first.field_value(first._ctrl, "EN")
        assert first.layout.field_masks is second.layout.field_masks
        assert "field_masks" not in first.__dict__


# --------------------------------------------------------------------------
# engine stats: reset_full
# --------------------------------------------------------------------------

class TestResetTelemetry:
    def test_cold_default_regress_reports_zero(self, tmp_path, capsys):
        assert main(["init", str(tmp_path), "--nvm-tests", "1"]) == 0
        capsys.readouterr()
        assert main(["regress", str(tmp_path), "--engine-stats"]) == 0
        line = next(
            row
            for row in capsys.readouterr().out.splitlines()
            if row.startswith("engine-stats:")
        )
        assert " reset_full=0 " in f"{line} "
        assert "dispatch_rebuilds" not in line

    def test_over_cap_loads_report_a_whole_rom_restore(self):
        session = ExecutionSession(make_platform("golden"), SC88A)
        assert session.run(PASS_IMAGE).status is RunStatus.PASS
        assert session.stats()["reset_full"] == 0
        for i in range(LOAD_EXTENT_CAP):
            session.soc.rom.load(0x1000 + 4 * i, b"\x01")
        assert session.run(PASS_IMAGE).status is RunStatus.PASS
        stats = session.stats()
        assert stats["reset_full"] == 1
        session.run(PASS_IMAGE)
        assert session.stats()["reset_full"] == 0
