"""Memory-system benchmarks: O(1) dispatch and zero-allocation tracing.

Records the numbers ISSUE 2 ties the memory system to, against an
in-benchmark emulation of the pre-PR bus (linear mapping scan, generic
device access, per-access ``BusAccess`` allocation for trace hooks, and
the decode cache forced off whenever the bus is observed):

- core instructions/sec (``CpuCore.run``, as sessions drive it) on a
  memory-heavy loop, **untraced**, decode cache on for both sides —
  isolates the page dispatch table and the struct word fast path
  (>= 1.3x target);
- core instructions/sec on a **traced coverage run** (bus trace
  recorded and drained into the coverage collector) — the run class the
  paper cares most about, previously forced onto the slow path
  (>= 3x target), asserting the decode cache stayed active while the
  trace was recorded and that coverage bins and divergence verdicts are
  identical to the legacy observation pipeline;
- wall-time of a full session-level coverage run over an NVM module
  environment (reported, not asserted).

Emits ``BENCH_memsys.json`` next to the repository root so the perf
trajectory is tracked across PRs.
"""

from __future__ import annotations

import time
from functools import partial

from repro.assembler.assembler import Assembler
from repro.assembler.linker import Linker
from repro.core.coverage import CoverageCollector
from repro.core.tracediff import compare_traces
from repro.core.workloads import make_nvm_environment
from repro.core.targets import TARGET_GOLDEN
from repro.isa.decodecache import decode_cache_for
from repro.isa.instructions import Opcode
from repro.platforms import (
    ExecutionSession,
    GateLevelSim,
    GoldenModel,
    NetlistFault,
)
from repro.platforms.cpu import CpuCore
from repro.soc.bus import Bus, BusAccess, BusError, BusTrace
from repro.soc.derivatives import SC88A
from repro.soc.device import FAIL_MAGIC, PASS_MAGIC, SystemOnChip

from conftest import shape
from _harness import engine_matrix, BenchResults, best_rate

MEMORY_MAP = SC88A.memory_map()
REGISTER_MAP = SC88A.register_map()

LOOP_ITERATIONS = 12_000
MAX_STEPS = 2_000_000

#: Memory-heavy loop: eight data-bus accesses and one SFR write per
#: iteration, so routing and tracing costs dominate over ALU work.
WORKLOAD_SOURCE = f"""\
_main:
    LOAD a1, {MEMORY_MAP.ram.base:#x}
    LOAD d1, {LOOP_ITERATIONS}
loop:
    ST.W [a1], d2
    LD.W d3, [a1 + 4]
    PUSH d3
    POP d4
    ST.W [a1 + 8], d4
    LD.W d5, [a1 + 8]
    PUSH a1
    POP a2
    STORE [{REGISTER_MAP.register_address("TIMER.TIM_RELOAD"):#x}], d2
    ADDI d2, d2, 1
    DJNZ d1, loop
    LOAD d0, {PASS_MAGIC:#x}
    HALT
"""

RESULTS = BenchResults("memsys")
RESULTS["engine_matrix"] = engine_matrix(
    candidate={"use_superblocks": True},
    reference={"use_superblocks": False, "note": "reference interpreter"},
)


def link_source(source: str):
    obj = Assembler().assemble_source(source, "bench.asm")
    return Linker(
        text_base=MEMORY_MAP.text_base, data_base=MEMORY_MAP.data_base
    ).link([obj])


def make_legacy(soc) -> None:
    """Downgrade *soc*'s bus to the pre-PR memory system: swap in
    :class:`LegacyBus`, give it its per-access hook list and empty the
    dispatch table so the core's inline word accessors always miss and
    fall back to it."""
    soc.bus.__class__ = LegacyBus
    soc.bus.trace_hooks = []
    soc.bus.page_table.clear()


class LegacyBus(Bus):
    """The pre-dispatch-table bus, for baseline measurement: linear
    mapping scan, generic device access, and a ``BusAccess`` object
    allocated per traced access and handed to each of its
    ``trace_hooks`` (the bus itself records into a buffer only)."""

    def mapping_for(self, address, length):
        for mapping in self.mappings:
            if mapping.contains(address, length):
                return mapping
        raise BusError(f"unmapped address {address:#010x}", address)

    def read(self, address, size):
        if address % size:
            raise BusError(f"misaligned read at {address:#010x}", address)
        mapping = self.mapping_for(address, size)
        value = mapping.device.read(address - mapping.base, size)
        self.access_count += 1
        if self.trace_hooks:
            access = BusAccess("read", address, size, value)
            for hook in self.trace_hooks:
                hook(access)
        return value, mapping.wait_states

    def write(self, address, value, size):
        if address % size:
            raise BusError(f"misaligned write at {address:#010x}", address)
        mapping = self.mapping_for(address, size)
        mapping.device.write(address - mapping.base, value, size)
        self.access_count += 1
        if self.trace_hooks:
            access = BusAccess("write", address, size, value)
            for hook in self.trace_hooks:
                hook(access)
        return mapping.wait_states

    def read_word(self, address):
        return self.read(address, 4)

    def write_word(self, address, value):
        return self.write(address, value, 4)


def timed_interpreter_run(image, *, legacy: bool, traced: bool):
    """Drive the core directly through ``CpuCore.run`` (no peripheral
    ticking) and time it plus, when traced, the coverage drain.

    ``legacy`` selects the pre-PR memory system: LegacyBus routing,
    hook-based object tracing, decode cache off whenever traced (the
    removed restriction).  The fast configuration keeps the cache on
    and records into the flat ring buffer.
    """
    soc = SystemOnChip(SC88A)
    cpu = CpuCore(soc.bus, intc=soc.intc)
    if legacy:
        make_legacy(soc)
    soc.load_image(image)

    events: list[BusAccess] | None = None
    ring: BusTrace | None = None
    use_cache = not (legacy and traced)
    if traced:
        if legacy:
            events = []
            soc.bus.trace_hooks.append(events.append)
        else:
            ring = BusTrace()
            soc.bus.trace_buffer = ring
    if use_cache:
        rom = MEMORY_MAP.rom
        mapping = soc.bus.mapping_for(rom.base, 4)
        cpu.decode_cache = decode_cache_for(
            image, rom.base, rom.base + rom.size, mapping.wait_states
        )
    cpu.reset(image.entry or image.symbol("_main"), MEMORY_MAP.stack_top)

    collector = CoverageCollector(SC88A) if traced else None
    start = time.perf_counter()
    # As sessions drive it: the superblock loop over the decode cache
    # when one is attached, else the reference interpreter.
    cpu.run(instruction_limit=MAX_STEPS)
    if collector is not None:
        if ring is not None:
            collector.observe_trace(ring)
        else:
            for access in events:
                collector.observe_bus_access(access)
    elapsed = time.perf_counter() - start

    assert cpu.halted and cpu.regs.data[0] == PASS_MAGIC
    ips = cpu.instructions_retired / elapsed
    return ips, cpu, ring, collector


def test_untraced_dispatch_speedup():
    image = link_source(WORKLOAD_SOURCE)
    legacy_ips, _ = best_rate(
        3, lambda: timed_interpreter_run(image, legacy=True, traced=False)
    )
    fast_ips, _ = best_rate(
        3, lambda: timed_interpreter_run(image, legacy=False, traced=False)
    )
    speedup = fast_ips / legacy_ips
    RESULTS["untraced"] = {
        "legacy_ips": round(legacy_ips),
        "fast_ips": round(fast_ips),
        "speedup": round(speedup, 2),
    }
    shape(
        "memsys: untraced memory-heavy loop "
        f"{legacy_ips:,.0f} -> {fast_ips:,.0f} instr/sec "
        f"({speedup:.2f}x with page dispatch + word fast path)"
    )
    assert speedup >= 1.3, (
        f"untraced memory-system speedup {speedup:.2f}x below 1.3x target"
    )


def test_traced_coverage_run_speedup():
    image = link_source(WORKLOAD_SOURCE)
    legacy_ips, (legacy_cpu, _, legacy_cov) = best_rate(
        2, lambda: timed_interpreter_run(image, legacy=True, traced=True)
    )
    fast_ips, (fast_cpu, ring, fast_cov) = best_rate(
        2, lambda: timed_interpreter_run(image, legacy=False, traced=True)
    )
    speedup = fast_ips / legacy_ips

    # The removed restriction: the decode cache was active while the
    # bus trace was recorded...
    assert legacy_cpu.decode_cache is None
    assert fast_cpu.decode_cache is not None
    assert fast_cpu.decode_cache.hits > 0
    assert len(ring) > 0
    # ...with identical coverage bins out of the drain.
    assert (
        fast_cov.report.registers_written
        == legacy_cov.report.registers_written
    )
    assert {
        key: coverage.values
        for key, coverage in fast_cov.report.fields.items()
    } == {
        key: coverage.values
        for key, coverage in legacy_cov.report.fields.items()
    }

    RESULTS["traced_coverage"] = {
        "legacy_ips": round(legacy_ips),
        "fast_ips": round(fast_ips),
        "speedup": round(speedup, 2),
        "decode_cache_active_under_trace": True,
        "coverage_bins_identical": True,
    }
    shape(
        "memsys: traced coverage run "
        f"{legacy_ips:,.0f} -> {fast_ips:,.0f} instr/sec "
        f"({speedup:.2f}x; decode cache stays on, ring-buffer trace)"
    )
    assert speedup >= 3.0, (
        f"traced coverage-run speedup {speedup:.2f}x below 3x target"
    )


def reference_run(platform, image, derivative, max_instructions, **kw):
    """``Platform.run`` on the reference interpreter (no decode cache)."""
    return ExecutionSession(platform, derivative, use_superblocks=False).run(
        image, max_instructions=max_instructions, **kw
    )


def test_divergence_verdicts_identical():
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
    fault = NetlistFault(opcode=int(Opcode.INSERT), xor_mask=0x4)
    verdicts = []
    for use_cache in (True, False):
        reference = GoldenModel()
        subject = GateLevelSim(fault=fault)
        if not use_cache:
            for platform in (reference, subject):
                platform.run = partial(reference_run, platform)
        comparison = compare_traces(image, SC88A, reference, subject)
        verdicts.append(
            (comparison.identical, comparison.divergence.index)
        )
    assert verdicts[0] == verdicts[1]
    RESULTS["divergence_verdicts_identical"] = True
    shape(
        "memsys: first-divergence verdict identical on the default "
        "engine and the reference interpreter "
        f"(fork at instruction #{verdicts[0][1]})"
    )


def test_session_coverage_wall_time_and_emit_json():
    env = make_nvm_environment(2)
    images = [
        env.build_image(cell, SC88A, TARGET_GOLDEN).image
        for cell in env.cells
    ]

    def legacy_run():
        collector = CoverageCollector(SC88A)
        for image in images:
            platform = GoldenModel()
            session = ExecutionSession(
                platform, SC88A, use_superblocks=False
            )
            make_legacy(session.soc)
            events: list[BusAccess] = []
            session.soc.bus.trace_hooks.append(events.append)
            session.run(image)
            platform.last_bus_trace = events  # pre-PR: a BusAccess list
            collector.observe_platform(platform)
        return collector

    def fast_run():
        collector = CoverageCollector(SC88A)
        for image in images:
            platform = GoldenModel()
            platform.record_bus_trace = True
            platform.run(image, SC88A)
            collector.observe_platform(platform)
        return collector

    start = time.perf_counter()
    legacy_cov = legacy_run()
    legacy_s = time.perf_counter() - start
    start = time.perf_counter()
    fast_cov = fast_run()
    fast_s = time.perf_counter() - start

    assert (
        fast_cov.report.nvm_pages_programmed
        == legacy_cov.report.nvm_pages_programmed
    )
    RESULTS["coverage_run_wall_time"] = {
        "legacy_s": round(legacy_s, 4),
        "fast_s": round(fast_s, 4),
        "speedup": round(legacy_s / fast_s, 2),
    }
    shape(
        "memsys: session-level NVM coverage run "
        f"{legacy_s:.3f}s -> {fast_s:.3f}s "
        f"({legacy_s / fast_s:.1f}x)"
    )

    path = RESULTS.emit()
    shape(f"memsys: wrote {path.name}")
