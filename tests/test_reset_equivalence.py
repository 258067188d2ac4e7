"""A device reset gives exactly a fresh device.

:meth:`SystemOnChip.full_reset` restores ROM by the extents image loads
wrote and empties the bus page memo.  These tests hold it to the only
contract that matters: after any mix of dirtying — image loads,
whole-ROM loads, RAM/NVM pokes, device swaps, NVM programming through
the SFRs, peripheral configuration, page-table perturbations, real test
runs — a reset device is indistinguishable from
``SystemOnChip(derivative)``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.system_env import make_default_system
from repro.core.targets import all_targets
from repro.platforms.session import ExecutionSession
from repro.soc.bus import LOAD_EXTENT_CAP, Memory
from repro.soc.derivatives import SC88A, SC88C, all_derivatives
from repro.soc.device import SfrPort, SystemOnChip

DERIVATIVES = all_derivatives()
ROM_SIZE = SC88A.memory_map().rom.size
#: ROM loads land in a small window so overlaps and adjacency are
#: common, plus the last bytes of ROM.
WINDOW = 0x800


# --------------------------------------------------------------------------
# the fresh-device comparison
# --------------------------------------------------------------------------

def _named_peripherals(soc: SystemOnChip):
    return (
        ("intc", soc.intc),
        ("uart", soc.uart),
        ("nvm", soc.nvm),
        ("timer", soc.timer),
        ("gpio", soc.gpio),
        ("wdt", soc.wdt),
    )


def _device_role(soc: SystemOnChip, device) -> str:
    for name, memory in (
        ("rom", soc.rom),
        ("ram", soc.ram),
        ("nvm_array", soc.nvm.array),
    ):
        if device is memory:
            return name
    if isinstance(device, SfrPort) and device.soc is soc:
        for name, peripheral in _named_peripherals(soc):
            if device.peripheral is peripheral:
                return name
    return f"foreign {type(device).__name__}"


def _buffer_role(mapping, buf) -> str | None:
    if buf is None:
        return None
    return "own" if buf is getattr(mapping.device, "data", None) else "foreign"


def device_state(soc: SystemOnChip) -> dict:
    """Every piece of device state a run can observe or leave behind,
    with object identities replaced by their role in *soc*."""
    peripherals = {}
    for name, peripheral in _named_peripherals(soc):
        peripherals[name] = {
            key: value
            for key, value in peripheral.__dict__.items()
            if key != "layout" and not isinstance(value, Memory)
        }
    return {
        "rom": bytes(soc.rom.data),
        "ram": bytes(soc.ram.data),
        "nvm_array": bytes(soc.nvm.array.data),
        "peripherals": peripherals,
        "access_count": soc.bus.access_count,
        "page_table": {
            page: (
                mapping.name,
                _device_role(soc, mapping.device),
                _buffer_role(mapping, mapping.word_buf),
                _buffer_role(mapping, mapping.word_wbuf),
            )
            for page, mapping in soc.bus.page_table.items()
        },
        "scheduling": (soc._cpu, soc._ticked_cycles, soc._horizon),
    }


def assert_fresh(soc: SystemOnChip) -> None:
    state = device_state(soc)
    fresh = device_state(SystemOnChip(soc.derivative))
    for key in fresh:
        assert state[key] == fresh[key], key


# --------------------------------------------------------------------------
# dirtying steps
# --------------------------------------------------------------------------

class _Wrapped:
    """A non-Memory bus device: the mapping loses its word buffers while
    it is installed."""

    def __init__(self, memory):
        self.memory = memory

    def read(self, offset, size):
        return self.memory.read(offset, size)

    def write(self, offset, value, size):
        self.memory.write(offset, value, size)


def _sfr_write(soc, instance_name, register_name, value) -> None:
    instance = soc.register_map.instance(instance_name)
    offset = instance.layout.register_named(register_name).offset
    soc.bus.write_word(instance.base + offset, value)


def _nvm_operation(soc, cmd, page, words) -> None:
    nvm = soc.nvm
    ctrl = nvm.layout.register_named(nvm._ctrl)
    _sfr_write(soc, "NVM", nvm._addr, 0)
    for word in words:
        _sfr_write(soc, "NVM", nvm._data, word)
    value = ctrl.field_named("PAGE").insert(0, page % nvm.pages)
    value = ctrl.field_named("CMD").insert(value, cmd)
    value = ctrl.field_named("START").insert(value, 1)
    _sfr_write(soc, "NVM", nvm._ctrl, value)
    soc.tick(200)


def apply_step(soc: SystemOnChip, step: tuple) -> None:
    kind, *args = step
    bus = soc.bus
    if kind == "rom_load":
        offset, length, byte = args
        soc.rom.load(offset, bytes([byte]) * length)
    elif kind == "rom_adjacent":
        offset, lengths, byte = args
        for length in lengths:
            soc.rom.load(offset, bytes([byte]) * length)
            offset += length
    elif kind == "rom_tail":
        length, byte = args
        soc.rom.load(ROM_SIZE - length, bytes([byte]) * length)
    elif kind == "rom_many":
        count, byte = args
        for i in range(count):
            soc.rom.load(8 * i, bytes([byte]) * 4)
    elif kind == "rom_whole":
        (byte,) = args
        soc.rom.load(0, bytes([byte]) * ROM_SIZE)
    elif kind == "ram_poke":
        offset, value = args
        bus.poke_word(soc.memory_map.ram.base + offset, value)
    elif kind == "nvm_poke":
        offset, byte = args
        array = soc.nvm.array.data
        array[offset % len(array)] = byte
    elif kind == "nvm_op":
        cmd, page, words = args
        _nvm_operation(soc, cmd, page, words)
    elif kind == "sfr":
        instance_name, index, value, ticks = args
        layout = soc.register_map.instance(instance_name).layout
        register = layout.registers[index % len(layout.registers)]
        _sfr_write(soc, instance_name, register.name, value)
        soc.tick(ticks)
    elif kind == "page_clear":
        bus.page_table.clear()
    elif kind == "device_swap":
        mapping = bus.mapping_for(soc.memory_map.ram.base, 1)
        original = mapping.device
        mapping.device = _Wrapped(original)
        mapping.refresh()  # refresh the swapped mapping's buffers
        bus.poke_word(mapping.base, 0x5A5A_5A5A)
        # Device restored, word buffers still dropped.
        mapping.device = original
    elif kind == "no_fast_routing":
        bus.page_table.clear()
        for mapping in bus.mappings:
            mapping.word_buf = None
            mapping.word_wbuf = None
    elif kind == "drop_word_buffers":
        (index,) = args
        mapping = bus.mappings[index % len(bus.mappings)]
        mapping.word_buf = None
        mapping.word_wbuf = None
    else:  # pragma: no cover - strategy and dispatcher out of sync
        raise AssertionError(kind)


byte = st.integers(0, 255)
word = st.integers(0, 0xFFFF_FFFF)

steps = st.one_of(
    st.tuples(
        st.just("rom_load"),
        st.integers(0, WINDOW),
        st.integers(1, 0x100),
        byte,
    ),
    st.tuples(
        st.just("rom_adjacent"),
        st.integers(0, WINDOW),
        st.lists(st.integers(1, 0x40), min_size=2, max_size=6),
        byte,
    ),
    st.tuples(st.just("rom_tail"), st.integers(1, 0x100), byte),
    st.tuples(
        st.just("rom_many"),
        st.integers(LOAD_EXTENT_CAP + 1, 2 * LOAD_EXTENT_CAP),
        byte,
    ),
    st.tuples(st.just("rom_whole"), byte),
    st.tuples(
        st.just("ram_poke"), st.integers(0, 0x3FFF).map(lambda i: 4 * i), word
    ),
    st.tuples(st.just("nvm_poke"), st.integers(0, 0x1FFF), byte),
    st.tuples(
        st.just("nvm_op"),
        st.sampled_from([1, 2]),
        st.integers(0, 63),
        st.lists(word, max_size=4),
    ),
    st.tuples(
        st.just("sfr"),
        st.sampled_from(["TIMER", "WDT", "UART"]),
        st.integers(0, 3),
        word,
        st.integers(0, 500),
    ),
    st.tuples(st.just("page_clear")),
    st.tuples(st.just("device_swap")),
    st.tuples(st.just("no_fast_routing")),
    st.tuples(st.just("drop_word_buffers"), st.integers(0, 2)),
)


class TestResetEquivalence:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        derivative_index=st.integers(0, len(DERIVATIVES) - 1),
        rounds=st.lists(
            st.lists(steps, min_size=1, max_size=6), min_size=1, max_size=3
        ),
    )
    def test_dirtied_device_resets_to_fresh(self, derivative_index, rounds):
        soc = SystemOnChip(DERIVATIVES[derivative_index])
        # Several dirty/reset rounds on one device: a reset must also
        # leave nothing behind that a later reset relies on.
        for round_steps in rounds:
            for step in round_steps:
                apply_step(soc, step)
            soc.full_reset()
            assert_fresh(soc)

    @pytest.mark.parametrize(
        "derivative", [SC88A, SC88C], ids=lambda d: d.name
    )
    def test_every_run_resets_to_fresh(self, derivative):
        system = make_default_system(nvm_tests=1, uart_tests=1)
        for tgt in all_targets():
            session = ExecutionSession(tgt.make_platform(), derivative)
            for env in system.environments.values():
                for cell in env.cells:
                    image = env.build_image(cell, derivative, tgt).image
                    session.run(image)
                    session.soc.full_reset()
                    assert_fresh(session.soc)
