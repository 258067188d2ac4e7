"""The fast tier against the reference interpreter.

The default engine — the superblock loop over the shared decode cache,
with its table executors, idle-spin warps and observation templates —
must retire byte-identical signature, instruction count, cycles, retire
trace and bus trace to the reference interpreter
(``use_superblocks=False``) on every platform.  These checks cover the
cases where sharing and invalidation could go wrong:

(a) **Compute equivalence** — on ALU-saturated workloads where no
    closed-form warp applies, across both derivatives and all six
    platforms, and with the bus trace recorded.
(b) **Invalidation** — self-modifying RAM code (never cached), SFR
    writes mid-block (``cut_block`` moves the deadline), derivative
    swaps (distinct registry keys) and injected faults
    (``core/faults.py`` sites) all leave runs byte-identical to the
    reference.
(c) **Registry** — the digest-keyed decode registry is LRU-bounded and
    shared by every session that runs the same image; its gauges ride
    ``stats()``.
(d) **Blocks per cache** — two caches over one image form equal blocks
    bound to the same process-wide executors, but each keeps its own
    block objects and successor edges; a call/return loop, whose
    ``RET`` successor is only a prediction, matches the reference on
    every platform.
"""

import pytest

from repro.assembler.assembler import Assembler
from repro.assembler.linker import Linker
from repro.core.faults import (
    ACTION_RAISE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    SITE_SESSION_RUN,
)
from repro.core.targets import TARGET_GOLDEN
from repro.core.workloads import make_compute_environment
from repro.isa import decodecache
from repro.isa.decodecache import (
    DecodeCache,
    decode_cache_for,
    registry_stats,
    reset_registry,
)
from repro.platforms import (
    ExecutionSession,
    GoldenModel,
    PLATFORM_CLASSES,
    RunStatus,
)
from repro.platforms.cpu import CpuCore
from repro.soc.derivatives import SC88A, SC88B
from repro.soc.device import PASS_MAGIC, SystemOnChip

MEMORY_MAP = SC88A.memory_map()


def link_source(source: str):
    obj = Assembler().assemble_source(source, "t.asm")
    return Linker(
        text_base=MEMORY_MAP.text_base, data_base=MEMORY_MAP.data_base
    ).link([obj])


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


def reference_session(platform, derivative=SC88A, **kwargs):
    return ExecutionSession(
        platform, derivative, use_superblocks=False, **kwargs
    )


ALU_LOOP_SOURCE = f"""\
_main:
    LOAD d2, 0x1234
    LOAD d3, 0
    LOAD d6, 400
loop:
    SHLI d4, d2, 13
    XOR d2, d2, d4
    SHRI d5, d2, 17
    XOR d2, d2, d5
    ADD d3, d3, d2
    ADDI d3, d3, 1
    DJNZ d6, loop
    LOAD d0, {PASS_MAGIC:#x}
    HALT
"""


# ---------------------------------------------------------------------------
# (a) cross-platform equivalence on compute-heavy workloads
# ---------------------------------------------------------------------------

class TestComputeEquivalenceAcrossPlatforms:
    @pytest.mark.parametrize(
        "platform_name", sorted(PLATFORM_CLASSES), ids=str
    )
    @pytest.mark.parametrize(
        "derivative", [SC88A, SC88B], ids=lambda d: d.name
    )
    def test_default_engine_matches_reference(
        self, platform_name, derivative
    ):
        """Superblock bodies retire byte-identical signature,
        instruction count, cycles and retire trace vs the reference
        interpreter on every platform, on the workload class where no
        closed-form warp applies."""
        platform_cls = PLATFORM_CLASSES[platform_name]
        env = make_compute_environment(compute_loops=(600,))
        for cell_name in env.cells:
            image = env.build_image(cell_name, derivative, TARGET_GOLDEN).image
            session = ExecutionSession(platform_cls(), derivative)
            fast = session.run(image)
            reference = reference_session(platform_cls(), derivative).run(
                image
            )
            assert strip(fast) == strip(reference), (
                platform_name,
                cell_name,
            )
            stats = session.stats()
            assert stats["sb_blocks"] > 0, (platform_name, cell_name)
            assert stats["sb_fallback_steps"] == 0, (platform_name, cell_name)

    def test_bus_trace_replay_is_identical(self):
        """A bus-trace-recording platform replays the fetch events the
        decode cache elides, byte-identical to the reference
        interpreter's real fetches."""
        image = link_source(ALU_LOOP_SOURCE)
        for name in sorted(PLATFORM_CLASSES):
            cls = PLATFORM_CLASSES[name]
            fast_platform, ref_platform = cls(), cls()
            fast_platform.record_bus_trace = True
            ref_platform.record_bus_trace = True
            ExecutionSession(fast_platform, SC88A).run(image)
            reference_session(ref_platform).run(image)
            assert list(fast_platform.last_bus_trace.raw()) == list(
                ref_platform.last_bus_trace.raw()
            ), name


# ---------------------------------------------------------------------------
# (b) invalidation lattice
# ---------------------------------------------------------------------------

SELF_MODIFYING_SOURCE = f"""\
_main:
    LOAD d6, 48
warm:
    ADDI d2, d2, 3
    XOR d3, d3, d2
    DJNZ d6, warm
    ;; patch the RAM literal, then run the patched code
    LOAD d1, {PASS_MAGIC:#x}
    STORE [patch_me + 4], d1
    JMP ram_code
.SECTION data
ram_code:
patch_me:
    LOAD d0, 0
    HALT
"""

SFR_WRITE_LOOP_SOURCE = """\
;; every iteration writes a timer SFR: peripheral rescheduling cuts the
;; block deadline mid-run, exercising the per-block deadline probes
.INCLUDE Globals.inc
_main:
    LOAD d6, 300
    LOAD a4, TIM_RELOAD_ADDR
sfr_loop:
    ADDI d2, d2, 7
    XOR d3, d3, d2
    ST.W [a4], d2
    ADDI d3, d3, 1
    DJNZ d6, sfr_loop
    JMP Base_Report_Pass
"""


class TestInvalidation:
    def test_self_modifying_ram_code(self):
        """RAM code is never cached; the default engine steps it and
        sees the patched bytes exactly like the reference."""
        image = link_source(SELF_MODIFYING_SOURCE)
        session = ExecutionSession(GoldenModel(), SC88A)
        fast = session.run(image)
        reference = reference_session(GoldenModel()).run(image)
        assert strip(fast) == strip(reference)
        assert fast.signature == PASS_MAGIC
        stats = session.stats()
        assert stats["sb_blocks"] > 0
        assert stats["sb_fallback_steps"] > 0  # the RAM code

    @pytest.mark.parametrize(
        "platform_name", sorted(PLATFORM_CLASSES), ids=str
    )
    def test_sfr_write_mid_block(self, platform_name):
        """An SFR store inside the hot loop reschedules the event
        horizon (``cut_block``); the superblock loop must stop at
        reference-exact points on all platforms."""
        from repro.core.environment import ModuleTestEnvironment, TestCell

        env = ModuleTestEnvironment("SFRLOOP")
        env.add_test(
            TestCell(name="TEST_SFR_LOOP", source=SFR_WRITE_LOOP_SOURCE)
        )
        image = env.build_image("TEST_SFR_LOOP", SC88A, TARGET_GOLDEN).image
        cls = PLATFORM_CLASSES[platform_name]
        fast = ExecutionSession(cls(), SC88A).run(image)
        reference = reference_session(cls()).run(image)
        assert strip(fast) == strip(reference), platform_name

    def test_derivative_swap_uses_distinct_caches(self):
        """Each derivative resolves its own registry entry, so blocks
        formed against one memory map are never replayed against
        another."""
        env = make_compute_environment(compute_loops=(400,))
        cell = next(iter(env.cells))
        caches = {}
        for derivative in (SC88A, SC88B):
            image = env.build_image(cell, derivative, TARGET_GOLDEN).image
            session = ExecutionSession(GoldenModel(), derivative)
            result = session.run(image)
            assert result.status is RunStatus.PASS, derivative.name
            reference = reference_session(GoldenModel(), derivative).run(
                image
            )
            assert strip(result) == strip(reference), derivative.name
            caches[derivative.name] = session.cpu.decode_cache
        assert caches["sc88a"] is not caches["sc88b"]

    def test_injected_fault_then_clean_rerun(self):
        """A ``core/faults.py`` session-run fault aborts the session;
        the rebuilt session re-runs byte-identical to the reference
        (mirroring the scheduler's retry ladder)."""
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    site=SITE_SESSION_RUN, action=ACTION_RAISE, times=1
                )
            ]
        )
        injector = FaultInjector(plan)
        image = link_source(ALU_LOOP_SOURCE)
        session = ExecutionSession(GoldenModel(), SC88A, injector=injector)
        with pytest.raises(InjectedFault):
            session.run(image)
        # Scheduler policy: a failed attempt discards the session.
        retry = ExecutionSession(GoldenModel(), SC88A, injector=injector)
        result = retry.run(image)
        reference = reference_session(GoldenModel()).run(image)
        assert strip(result) == strip(reference)
        assert retry.stats()["sb_blocks"] > 0


# ---------------------------------------------------------------------------
# (c) the shared, LRU-bounded registry
# ---------------------------------------------------------------------------

class TestRegistryBound:
    def test_lru_evicts_oldest_and_counts(self, monkeypatch):
        monkeypatch.setattr(decodecache, "_REGISTRY", {})
        monkeypatch.setattr(decodecache, "_REGISTRY_LIMIT", 2)
        monkeypatch.setattr(decodecache, "_REGISTRY_EVICTIONS", 0)
        rom = MEMORY_MAP.rom
        images = [
            link_source(
                f"_main:\n    LOAD d0, {PASS_MAGIC + n:#x}\n    HALT\n"
            )
            for n in range(3)
        ]
        first = decode_cache_for(images[0], rom.base, rom.base + rom.size)
        decode_cache_for(images[1], rom.base, rom.base + rom.size)
        # Touch the first entry again: it becomes most-recently-used.
        assert (
            decode_cache_for(images[0], rom.base, rom.base + rom.size)
            is first
        )
        # A third digest evicts the least-recently-used (images[1]).
        decode_cache_for(images[2], rom.base, rom.base + rom.size)
        stats = registry_stats()
        assert stats["registry_size"] == 2
        assert stats["registry_evictions"] == 1
        assert (
            decode_cache_for(images[0], rom.base, rom.base + rom.size)
            is first
        )

    def test_same_digest_shares_cache(self):
        image = link_source(ALU_LOOP_SOURCE)
        first = ExecutionSession(GoldenModel(), SC88A)
        result = first.run(image)
        cache = first.cpu.decode_cache
        misses = cache.misses
        second = ExecutionSession(GoldenModel(), SC88A)
        assert strip(second.run(image)) == strip(result)
        assert second.cpu.decode_cache is cache
        # The second session decodes nothing: every entry and block was
        # formed by the first.
        assert cache.misses == misses
        assert second.stats()["sb_blocks"] > 0

    def test_stats_carry_registry_telemetry(self):
        image = link_source(ALU_LOOP_SOURCE)
        session = ExecutionSession(GoldenModel(), SC88A)
        session.run(image)
        stats = session.stats()
        assert stats["sb_blocks"] > 0
        assert stats["registry_size"] >= 1
        assert stats["registry_evictions"] >= 0
        assert not any(key.startswith("jit_") for key in stats)

    def test_reset_registry_drops_every_cache(self):
        rom = MEMORY_MAP.rom
        image = link_source(ALU_LOOP_SOURCE)
        cache = decode_cache_for(image, rom.base, rom.base + rom.size)
        assert reset_registry() >= 1
        assert registry_stats() == {
            "registry_size": 0,
            "registry_evictions": 0,
        }
        assert (
            decode_cache_for(image, rom.base, rom.base + rom.size)
            is not cache
        )


# ---------------------------------------------------------------------------
# (d) blocks per cache, executors per process
# ---------------------------------------------------------------------------

CALL_TAIL_SOURCE = f"""\
_main:
    LOAD d6, 40
loop:
    CALL sub
    DJNZ d6, loop
    LOAD d0, {PASS_MAGIC:#x}
    HALT
sub:
    ADDI d2, d2, 3
    XOR d3, d3, d2
    SHLI d4, d2, 5
    ADD d3, d3, d4
    RET
"""


def private_cache(image) -> DecodeCache:
    """A cache outside the shared registry: no other test has formed
    blocks in it."""
    rom = MEMORY_MAP.rom
    return DecodeCache(image, rom.base, rom.base + rom.size)


def run_on(image, cache, *, trace=False) -> CpuCore:
    """Run *image* to HALT on a bare core; ``cache=None`` is the
    reference interpreter."""
    soc = SystemOnChip(SC88A)
    soc.load_image(image)
    cpu = CpuCore(soc.bus, intc=soc.intc)
    cpu.decode_cache = cache
    cpu.reset(image.entry, MEMORY_MAP.stack_top)
    if trace:
        cpu.enable_trace()
    cpu.run()
    assert cpu.halted
    return cpu


def outcome(cpu: CpuCore):
    return (
        list(cpu.regs.data),
        cpu.cycles,
        cpu.instructions_retired,
        None if cpu.trace is None else list(cpu.trace.raw()),
    )


class TestBlocksPerCache:
    @pytest.mark.parametrize(
        "trace", [False, True], ids=["untraced", "traced"]
    )
    def test_second_cache_runs_like_the_reference(self, trace):
        image = link_source(ALU_LOOP_SOURCE)
        run_on(image, private_cache(image))
        reference = run_on(image, None, trace=trace)
        cpu = run_on(image, private_cache(image), trace=trace)
        assert outcome(cpu) == outcome(reference)
        assert cpu.sb_blocks > 0
        assert reference.sb_blocks == 0

    @pytest.mark.parametrize(
        "source", [ALU_LOOP_SOURCE, CALL_TAIL_SOURCE], ids=["loop", "call"]
    )
    def test_same_source_shares_executors_not_blocks(self, source):
        image = link_source(source)
        symbol = "loop" if source is ALU_LOOP_SOURCE else "sub"
        caches = [private_cache(image), private_cache(image)]
        for cache in caches:
            run_on(image, cache)
        first, second = (
            cache.block_at(image.symbol(symbol)) for cache in caches
        )
        assert first is not second
        assert first.start == second.start
        assert first.body_cycles == second.body_cycles
        assert first.fetch_events == second.fetch_events
        assert first.trace_tmpl == second.trace_tmpl
        entries = zip(
            first.body + (first.terminator,),
            second.body + (second.terminator,),
        )
        for mine, theirs in entries:
            # One frozen instruction per (pc, words, fetch waits) per
            # process: both caches hold the same decoded entries.
            assert mine is theirs
        # Each cache's successor edges stay inside that cache.
        for cache, block in zip(caches, (first, second)):
            edges = [
                succ
                for succ in (block.succ_taken, block.succ_fall)
                if succ is not None
            ]
            assert edges, symbol
            for succ in edges:
                assert cache.block_at(succ.start) is succ

    @pytest.mark.parametrize(
        "platform_name", sorted(PLATFORM_CLASSES), ids=str
    )
    def test_call_return_loop_matches_reference(self, platform_name):
        image = link_source(CALL_TAIL_SOURCE)
        cls = PLATFORM_CLASSES[platform_name]
        session = ExecutionSession(cls(), SC88A)
        fast = session.run(image)
        reference = reference_session(cls()).run(image)
        assert strip(fast) == strip(reference), platform_name
        # Not every platform reads d0 out, so look at the core itself.
        assert session.cpu.halted, platform_name
        assert session.cpu.regs.data[0] == PASS_MAGIC, platform_name
        assert session.stats()["sb_blocks"] > 0


class TestDecodeMemo:
    """Each distinct (pc, words, fetch waits) decodes once per process;
    the caches holding it keep their own hit/miss counts."""

    def test_second_cache_decodes_nothing_but_counts_its_misses(
        self, monkeypatch
    ):
        image = link_source(ALU_LOOP_SOURCE)
        first = private_cache(image)
        run_on(image, first)
        decoded = []
        real = decodecache._precomputed_operands
        monkeypatch.setattr(
            decodecache, "_precomputed_operands",
            lambda *args: decoded.append(args[0]) or real(*args),
        )
        second = private_cache(image)
        run_on(image, second)
        assert decoded == []
        assert (second.hits, second.misses) == (first.hits, first.misses)

    def test_other_fetch_waits_are_another_entry(self):
        image = link_source(ALU_LOOP_SOURCE)
        rom = MEMORY_MAP.rom
        plain = DecodeCache(image, rom.base, rom.base + rom.size)
        waited = DecodeCache(image, rom.base, rom.base + rom.size, 2)
        pc = image.entry
        assert plain.get(pc) is not waited.get(pc)
        entry = waited.get(pc)
        assert entry.fetch_waits == 2 * len(entry.fetch_events)
        assert plain.get(pc).fetch_waits == 0
        assert private_cache(image).get(pc) is plain.get(pc)

    def test_reset_registry_and_executor_rebuild_empty_it(self):
        image = link_source(ALU_LOOP_SOURCE)
        private_cache(image).get(image.entry)
        assert decodecache._DECODED
        decodecache.reset_registry()
        assert not decodecache._DECODED
        private_cache(image).get(image.entry)
        assert decodecache._DECODED
        # A rebuilt executor table never meets entries bound to the
        # old one.  (The old table is put back afterwards: registered
        # caches and their snapshots name the executors it holds.)
        table = decodecache._EXECUTORS
        named = {
            name: getattr(decodecache, name)
            for name in vars(decodecache) if name.startswith("_x_")
        }
        try:
            decodecache._EXECUTORS = None
            decodecache._executors()
            assert not decodecache._DECODED
            entry = private_cache(image).get(image.entry)
            assert entry.exec is decodecache._EXECUTORS[entry.opcode]
            assert entry.exec is not table[entry.opcode]
        finally:
            vars(decodecache).update(named)
            decodecache._EXECUTORS = table
            decodecache._DECODED.clear()
