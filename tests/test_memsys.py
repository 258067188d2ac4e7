"""Memory-system tests: page dispatch table, word fast paths, the
flat bus-trace ring buffer, and the two equivalence properties the
ISSUE 2 tentpole hangs on:

(a) fast-path routing (page table + direct word buffers) retires
    identical ``(signature, cycles, trace)`` to legacy routing
    (sorted-list decode + generic device access) on golden and RTL;
(b) coverage bins, bus traces and first-divergence points are
    identical with the decode cache enabled vs disabled while a bus
    trace is recorded — the cache now *stays on* under observation.
"""

from functools import partial

import pytest

from repro.assembler.assembler import Assembler
from repro.assembler.linker import Linker
from repro.core.coverage import CoverageCollector
from repro.core.tracediff import compare_traces
from repro.core.workloads import (
    make_datapath_environment,
    make_nvm_environment,
    make_timer_environment,
    make_uart_environment,
)
from repro.core.targets import TARGET_GOLDEN, TARGET_RTL
from repro.isa.instructions import Opcode
from repro.platforms import (
    ExecutionSession,
    GateLevelSim,
    GoldenModel,
    InstructionTrace,
    NetlistFault,
    RtlSim,
    RunStatus,
)
from repro.soc.bus import (
    Bus,
    BusAccess,
    BusError,
    BusTrace,
    Memory,
    PAGE_SIZE,
)
from repro.soc.derivatives import SC88A, SC88B
from repro.soc.device import PASS_MAGIC, FAIL_MAGIC, SystemOnChip

MEMORY_MAP = SC88A.memory_map()


def link_source(source: str):
    obj = Assembler().assemble_source(source, "t.asm")
    return Linker(
        text_base=MEMORY_MAP.text_base, data_base=MEMORY_MAP.data_base
    ).link([obj])


def disable_fast_routing(soc) -> None:
    """Force every access onto the slow path: no page-table hits, no
    direct word buffers — mapping_for + device.read/write, as the
    pre-dispatch bus behaved."""
    bus = soc.bus
    bus.page_table.clear()
    for mapping in bus.mappings:
        mapping.word_buf = None
        mapping.word_wbuf = None


def strip(result):
    """The comparable engine-visible outcome of a run."""
    return (
        result.status,
        result.signature,
        result.result_word,
        result.instructions,
        result.cycles,
        result.uart_output,
        result.done_pin,
        result.pass_pin,
        None
        if result.trace is None
        else [(t.pc, t.opcode, t.mnemonic, t.cycles) for t in result.trace],
    )


# ---------------------------------------------------------------------------
# dispatch table + word fast paths
# ---------------------------------------------------------------------------

class TestDispatchTable:
    def test_page_table_covers_real_device_regions(self):
        soc = SystemOnChip(SC88A)
        bus = soc.bus
        table = bus.page_table
        # Pages are memoised on first touch, not up front.
        assert table == {}
        nvm_base = soc.register_map.instance("NVM").base
        touched = [MEMORY_MAP.rom.base, MEMORY_MAP.rom.end - 4]
        touched += [MEMORY_MAP.ram.base, MEMORY_MAP.ram.end - 4]
        touched += [MEMORY_MAP.nvm.base, MEMORY_MAP.nvm.end - 4]
        for address in touched + [nvm_base]:
            bus.peek_word(address)
        for region, name in (
            (MEMORY_MAP.rom, "rom"),
            (MEMORY_MAP.ram, "ram"),
            (MEMORY_MAP.nvm, "nvm_array"),
        ):
            assert table[region.base >> 8].name == name
            assert table[(region.end - 4) >> 8].name == name
        # SFR peripheral blocks are 0x100-sized at aligned bases — each
        # covers exactly its own page.
        assert table[nvm_base >> 8].name == "nvm"
        assert len(table) == len(touched) + 1

    def test_partial_pages_fall_back_to_sorted_lookup(self):
        bus = Bus()
        mem = Memory(0x100)
        # Unaligned base: no page is fully covered, so the table stays
        # empty and every access routes through mapping_for.
        bus.attach("odd", 0x80, 0x100, mem)
        assert bus.page_table == {}
        bus.write(0x84, 0xAB, 1)
        assert bus.read(0x84, 1) == (0xAB, 0)
        bus.write_word(0x17C, 0x1234)
        assert bus.read_word(0x17C) == (0x1234, 0)
        with pytest.raises(BusError, match="unmapped"):
            bus.read(0x180, 4)
        assert bus.page_table == {}

    def test_access_straddling_mapping_end_rejected_on_page_hit(self):
        bus = Bus()
        bus.attach("a", 0x0, PAGE_SIZE, Memory(PAGE_SIZE))
        bus.read(0, 4)  # memoise page 0
        with pytest.raises(BusError, match="unmapped"):
            bus.read(PAGE_SIZE, 4)

    def test_overlap_detected_against_both_neighbours(self):
        bus = Bus()
        bus.attach("low", 0x0, 0x200, Memory(0x200))
        bus.attach("high", 0x1000, 0x200, Memory(0x200))
        with pytest.raises(ValueError, match="overlaps 'low'"):
            bus.attach("mid", 0x100, 0x100, Memory(0x100))
        with pytest.raises(ValueError, match="overlaps 'high'"):
            bus.attach("mid", 0xF00, 0x200, Memory(0x200))

    def test_mappings_stay_sorted_by_base(self):
        bus = Bus()
        bus.attach("c", 0x2000, 0x100, Memory(0x100))
        bus.attach("a", 0x0, 0x100, Memory(0x100))
        bus.attach("b", 0x1000, 0x100, Memory(0x100))
        assert [m.name for m in bus.mappings] == ["a", "b", "c"]


class TestWordFastPath:
    def make_bus(self):
        bus = Bus()
        bus.attach("ram", 0x0, 0x1000, Memory(0x1000), wait_states=2)
        bus.attach("rom", 0x1000, 0x1000, Memory(0x1000, read_only=True))
        return bus

    def test_word_accessors_match_generic(self):
        bus = self.make_bus()
        assert bus.write_word(0x10, 0xDEADBEEF) == 2
        assert bus.read_word(0x10) == (0xDEADBEEF, 2)
        assert bus.read(0x10, 4) == (0xDEADBEEF, 2)

    def test_word_write_masks_value(self):
        bus = self.make_bus()
        bus.write_word(0x0, 0x1_2345_6789)
        assert bus.read_word(0x0)[0] == 0x2345_6789

    def test_word_write_to_rom_raises(self):
        bus = self.make_bus()
        with pytest.raises(BusError, match="read-only"):
            bus.write_word(0x1000, 1)

    def test_misaligned_word_access_raises(self):
        bus = self.make_bus()
        with pytest.raises(BusError, match="misaligned"):
            bus.read_word(0x2)
        with pytest.raises(BusError, match="misaligned"):
            bus.write_word(0x6, 0)

    def test_memory_fill_preserved(self):
        nvm = Memory(8, fill=0xFF)
        assert nvm.read(0, 4) == 0xFFFF_FFFF
        assert len(nvm.data) == 8


# ---------------------------------------------------------------------------
# flat trace ring buffer
# ---------------------------------------------------------------------------

class TestBusTraceBuffer:
    def test_records_raw_tuples_and_lazy_views(self):
        trace = BusTrace()
        trace.record("write", 0x10, 4, 7)
        trace.record("read", 0x10, 4, 7)
        assert trace.raw() == [("write", 0x10, 4, 7), ("read", 0x10, 4, 7)]
        views = list(trace)
        assert views == [
            BusAccess("write", 0x10, 4, 7),
            BusAccess("read", 0x10, 4, 7),
        ]
        assert trace[0].kind == "write"
        assert [a.kind for a in trace[0:2]] == ["write", "read"]

    def test_ring_capacity_wraps_oldest_first(self):
        trace = BusTrace(capacity=3)
        for n in range(5):
            trace.record("write", n, 4, n)
        assert len(trace) == 3
        assert trace.dropped == 2
        assert [event[1] for event in trace.raw()] == [2, 3, 4]

    def test_clear(self):
        trace = BusTrace(capacity=2)
        for n in range(4):
            trace.record("read", n, 4, n)
        trace.clear()
        assert len(trace) == 0 and trace.dropped == 0
        trace.record("read", 9, 4, 9)
        assert trace.raw() == [("read", 9, 4, 9)]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            BusTrace(capacity=0)

    def test_bus_records_into_buffer_on_all_access_paths(self):
        bus = Bus()
        bus.attach("ram", 0x0, 0x1000, Memory(0x1000))
        trace = BusTrace()
        bus.trace_buffer = trace
        bus.write(0x10, 7, 4)
        bus.read(0x10, 4)
        bus.write_word(0x20, 8)
        bus.read_word(0x20)
        bus.read(0x30, 1)
        assert trace.raw() == [
            ("write", 0x10, 4, 7),
            ("read", 0x10, 4, 7),
            ("write", 0x20, 4, 8),
            ("read", 0x20, 4, 8),
            ("read", 0x30, 1, 0),
        ]

    def test_peek_poke_do_not_record(self):
        bus = Bus()
        bus.attach("ram", 0x0, 0x1000, Memory(0x1000))
        bus.trace_buffer = BusTrace()
        bus.poke_word(0x0, 9)
        assert bus.peek_word(0x0) == 9
        assert len(bus.trace_buffer) == 0

class TestInstructionTrace:
    def test_limit_enforced(self):
        trace = InstructionTrace(limit=2)
        for n in range(4):
            trace.record(n * 4, 1, "NOP", 1)
        assert len(trace) == 2

    def test_lazy_entry_views(self):
        trace = InstructionTrace()
        trace.record(0x200, 7, "ADD", 1)
        entry = trace[0]
        assert (entry.pc, entry.opcode, entry.mnemonic, entry.cycles) == (
            0x200, 7, "ADD", 1
        )
        assert [e.mnemonic for e in trace] == ["ADD"]
        assert [e.pc for e in trace[0:1]] == [0x200]


# ---------------------------------------------------------------------------
# property (a): fast-path vs legacy routing equivalence
# ---------------------------------------------------------------------------

ENVIRONMENT_FACTORIES = [
    lambda: make_nvm_environment(2),
    lambda: make_uart_environment(1),
    lambda: make_timer_environment(),
    lambda: make_datapath_environment(1),
]


class TestRoutingEquivalence:
    @pytest.mark.parametrize("make_env", ENVIRONMENT_FACTORIES)
    @pytest.mark.parametrize(
        "tgt, platform_cls",
        [(TARGET_GOLDEN, GoldenModel), (TARGET_RTL, RtlSim)],
        ids=["golden", "rtl"],
    )
    @pytest.mark.parametrize(
        "derivative", [SC88A, SC88B], ids=lambda d: d.name
    )
    def test_fast_routing_matches_legacy(
        self, make_env, tgt, platform_cls, derivative
    ):
        env = make_env()
        for cell_name in env.cells:
            image = env.build_image(cell_name, derivative, tgt).image
            fast = ExecutionSession(platform_cls(), derivative).run(image)
            legacy_session = ExecutionSession(platform_cls(), derivative)
            disable_fast_routing(legacy_session.soc)
            legacy = legacy_session.run(image)
            assert strip(fast) == strip(legacy), cell_name
            assert fast.status is RunStatus.PASS


# ---------------------------------------------------------------------------
# property (b): decode cache stays on under tracing, observably identical
# ---------------------------------------------------------------------------

def traced_run(image, derivative, platform_cls, use_superblocks):
    platform = platform_cls()
    platform.record_bus_trace = True
    session = ExecutionSession(
        platform, derivative, use_superblocks=use_superblocks
    )
    result = session.run(image)
    return platform, session, result


def reference_run(platform, image, derivative, max_instructions, **kw):
    """``Platform.run`` on the reference interpreter (no decode cache)."""
    return ExecutionSession(platform, derivative, use_superblocks=False).run(
        image, max_instructions=max_instructions, **kw
    )


class TestTracedCacheEquivalence:
    @pytest.mark.parametrize(
        "platform_cls", [GoldenModel, RtlSim], ids=["golden", "rtl"]
    )
    def test_bus_trace_identical_with_cache_on_and_off(self, platform_cls):
        env = make_nvm_environment(1)
        image = env.build_image(
            "TEST_NVM_PAGE_001", SC88A, TARGET_GOLDEN
        ).image
        on_platform, on_session, on_result = traced_run(
            image, SC88A, platform_cls, True
        )
        off_platform, _, off_result = traced_run(
            image, SC88A, platform_cls, False
        )
        # The cache was active while the trace was recorded...
        assert on_session.cpu.decode_cache is not None
        assert on_session.cpu.decode_cache.hits > 0
        # ...yet the recorded access stream is byte-identical, fetches
        # included, and so is the architectural outcome.
        assert (
            on_platform.last_bus_trace.raw()
            == off_platform.last_bus_trace.raw()
        )
        assert strip(on_result) == strip(off_result)

    def test_coverage_bins_identical_with_cache_on_and_off(self):
        env = make_nvm_environment(2)
        reports = []
        for use_cache in (True, False):
            collector = CoverageCollector(SC88A)
            for cell_name in env.cells:
                image = env.build_image(
                    cell_name, SC88A, TARGET_GOLDEN
                ).image
                platform, _, _ = traced_run(
                    image, SC88A, GoldenModel, use_cache
                )
                collector.observe_platform(platform)
            reports.append(collector.report)
        cached, legacy = reports
        assert cached.registers_written == legacy.registers_written
        assert cached.nvm_pages_programmed == legacy.nvm_pages_programmed
        assert {
            key: coverage.values for key, coverage in cached.fields.items()
        } == {
            key: coverage.values for key, coverage in legacy.fields.items()
        }

    def test_first_divergence_identical_with_cache_on_and_off(self):
        image = link_source(
            "_main:\n"
            "    LOAD d1, 0\n"
            "    INSERT d1, d1, 3, 0, 5\n"
            "    CMPI d1, 3\n"
            "    JZ good\n"
            f"    LOAD d0, {FAIL_MAGIC:#x}\n"
            "    HALT\n"
            "good:\n"
            f"    LOAD d0, {PASS_MAGIC:#x}\n"
            "    HALT\n"
        )
        fault = NetlistFault(
            opcode=int(Opcode.INSERT), xor_mask=0x4, description="bad bit 2"
        )
        points = []
        for use_cache in (True, False):
            reference = GoldenModel()
            subject = GateLevelSim(fault=fault)
            if not use_cache:
                for platform in (reference, subject):
                    platform.run = partial(reference_run, platform)
            comparison = compare_traces(image, SC88A, reference, subject)
            assert not comparison.identical
            point = comparison.divergence
            points.append(
                (
                    point.index,
                    point.reference_entry.pc,
                    point.subject_entry.pc,
                )
            )
        assert points[0] == points[1]

    def test_truncated_literal_fetch_traps_instead_of_escaping(self):
        # A two-word instruction whose opcode word is the very last ROM
        # word: the literal fetch runs off mapped memory and must take
        # the architectural bus-error trap (unhandled here -> CpuFault),
        # not leak a raw BusError out of step().
        from repro.platforms.cpu import CpuCore, CpuFault

        image = link_source("_main:\n    JMP _main\n")
        segment = next(
            s for s in image.segments if s.base <= image.entry < s.end
        )
        offset = image.entry - segment.base
        jmp_word = bytes(segment.data[offset : offset + 4])
        soc = SystemOnChip(SC88A)
        soc.rom.load(MEMORY_MAP.rom.size - 4, jmp_word)
        cpu = CpuCore(soc.bus, intc=soc.intc)
        cpu.reset(MEMORY_MAP.rom.end - 4, MEMORY_MAP.stack_top)
        with pytest.raises(CpuFault, match="unhandled trap 4"):
            cpu.step()

    def test_fetches_present_in_trace_with_cache_on(self):
        image = link_source(
            f"_main:\n    LOAD d0, {PASS_MAGIC:#x}\n    HALT\n"
        )
        platform, session, _ = traced_run(image, SC88A, GoldenModel, True)
        assert session.cpu.decode_cache is not None
        fetch_reads = [
            access
            for access in platform.last_bus_trace
            if access.kind == "read"
            and MEMORY_MAP.rom.contains(access.address, 4)
        ]
        # LOAD (two words) + HALT: at least three fetched ROM words.
        assert len(fetch_reads) >= 3
