"""Tests for the system bus and memory devices."""

import pytest

from repro.soc.bus import Bus, BusError, BusTrace, Memory


class TestMemory:
    def test_read_write_round_trip(self):
        mem = Memory(64)
        mem.write(0, 0xDEADBEEF, 4)
        assert mem.read(0, 4) == 0xDEADBEEF

    def test_little_endian_layout(self):
        mem = Memory(8)
        mem.write(0, 0x11223344, 4)
        assert mem.read(0, 1) == 0x44
        assert mem.read(3, 1) == 0x11
        assert mem.read(0, 2) == 0x3344

    def test_write_masks_value(self):
        mem = Memory(8)
        mem.write(0, 0x1FF, 1)
        assert mem.read(0, 1) == 0xFF

    def test_read_only_rejects_writes(self):
        rom = Memory(16, read_only=True)
        with pytest.raises(BusError):
            rom.write(0, 1, 4)

    def test_backdoor_load_bypasses_read_only(self):
        rom = Memory(16, read_only=True)
        rom.load(4, b"\x01\x02")
        assert rom.read(4, 2) == 0x0201

    def test_fill_value(self):
        nvm = Memory(4, fill=0xFF)
        assert nvm.read(0, 4) == 0xFFFF_FFFF


class TestBusDecode:
    def test_routing_to_correct_device(self):
        bus = Bus()
        a = Memory(0x100)
        b = Memory(0x100)
        bus.attach("a", 0x0, 0x100, a)
        bus.attach("b", 0x1000, 0x100, b)
        bus.write(0x1004, 42, 4)
        assert b.read(4, 4) == 42
        assert a.read(4, 4) == 0

    def test_overlapping_mapping_rejected(self):
        bus = Bus()
        bus.attach("a", 0x0, 0x100, Memory(0x100))
        with pytest.raises(ValueError, match="overlaps"):
            bus.attach("b", 0x80, 0x100, Memory(0x100))

    def test_unmapped_access_raises(self):
        bus = Bus()
        bus.attach("a", 0x0, 0x100, Memory(0x100))
        with pytest.raises(BusError, match="unmapped"):
            bus.read(0x5000, 4)

    def test_misaligned_access_raises(self):
        bus = Bus()
        bus.attach("a", 0x0, 0x100, Memory(0x100))
        with pytest.raises(BusError, match="misaligned"):
            bus.read(0x2, 4)
        with pytest.raises(BusError, match="misaligned"):
            bus.write(0x1, 0, 2)

    def test_access_straddling_region_end_rejected(self):
        bus = Bus()
        bus.attach("a", 0x0, 0x100, Memory(0x100))
        with pytest.raises(BusError):
            bus.read(0xFC + 4, 4)

    def test_wait_states_reported(self):
        bus = Bus()
        bus.attach("slow", 0x0, 0x100, Memory(0x100), wait_states=3)
        _, waits = bus.read(0, 4)
        assert waits == 3
        assert bus.write(0, 1, 4) == 3


class TestBusTracing:
    def test_peek_poke_do_not_trace(self):
        bus = Bus()
        bus.attach("a", 0x0, 0x100, Memory(0x100))
        bus.trace_buffer = BusTrace()
        bus.poke_word(0, 9)
        assert bus.peek_word(0) == 9
        assert len(bus.trace_buffer) == 0

    def test_access_counter(self):
        bus = Bus()
        bus.attach("a", 0x0, 0x100, Memory(0x100))
        bus.read(0, 4)
        bus.write(0, 1, 4)
        assert bus.access_count == 2
