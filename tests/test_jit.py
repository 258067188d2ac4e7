"""Template JIT tests (ISSUE 8).

The contract under test:

(a) **Compilation** — hot superblock chains (``sb.heat`` crossing
    ``JIT_THRESHOLD``) are promoted to generated Python functions with
    operands, branch targets and cycle costs baked in; idle spins and
    cold junk are declined; compiled chains live on the ``Superblock``
    in the shared digest-keyed registry.
(b) **Equivalence** — with ``use_jit=True`` (the default) every run
    retires byte-identical signature / instruction count / cycles /
    retire trace / bus trace to the ``use_jit=False`` superblock engine
    across **all six platforms**, on compute-heavy workloads where no
    closed-form warp applies, with ``jit_chains``/``jit_exec_steps``
    telemetry nonzero.
(c) **Invalidation** — self-modifying RAM code (never cached, never
    chained), SFR writes mid-chain (``cut_block`` via the re-read
    deadline probes), derivative swaps (distinct registry keys) and
    injected faults (``core/faults.py`` sites) all leave runs
    byte-identical to the reference engine; ``flush_chains`` force-drops
    compiled chains and the next hot run recompiles.
(d) **Registry bound** — the digest-keyed registry is LRU-bounded;
    evictions drop caches (and their chains) wholesale and are exposed
    via ``registry_stats()`` in ``stats()``.
(e) **Code memo** — each distinct generated source is compiled at
    most once per process; chains that render the same source share
    the code object and keep their own globals.
"""

import builtins

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
from repro.core.workloads import (
    compute_burn_test,
    make_compute_environment,
)
from repro.isa import decodecache, jit
from repro.isa.decodecache import (
    DecodeCache,
    decode_cache_for,
    registry_stats,
    reset_registry,
)
from repro.isa.jit import (
    JIT_THRESHOLD,
    compile_chain,
    trace_chain,
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


def cache_for(image):
    rom = MEMORY_MAP.rom
    return decode_cache_for(image, rom.base, rom.base + rom.size)


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


def direct_cpu(image, *, trace: bool = False) -> tuple[CpuCore, SystemOnChip]:
    soc = SystemOnChip(SC88A)
    soc.load_image(image)
    cpu = CpuCore(soc.bus, intc=soc.intc)
    cpu.decode_cache = cache_for(image)
    cpu.reset(image.entry, MEMORY_MAP.stack_top)
    if trace:
        cpu.enable_trace()
    return cpu, soc


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

SPIN_ONLY_SOURCE = f"""\
_main:
    LOAD d1, 200
spin:
    DJNZ d1, spin
    LOAD d0, {PASS_MAGIC:#x}
    HALT
"""


# ---------------------------------------------------------------------------
# (a) chain tracing + compilation
# ---------------------------------------------------------------------------

class TestChainCompiler:
    def test_djnz_loop_traces_to_cyclic_chain(self):
        image = link_source(ALU_LOOP_SOURCE)
        cache = cache_for(image)
        head = cache.block_at(image.symbol("loop"))
        traced = trace_chain(cache, head)
        assert traced is not None
        blocks, links = traced
        assert blocks[0] is head
        # The DJNZ taken edge closes the loop on the head: cyclic.
        assert links[-1] == "taken"

    def test_idle_spin_head_is_declined(self):
        image = link_source(SPIN_ONLY_SOURCE)
        cache = cache_for(image)
        spin = cache.block_at(image.symbol("spin"))
        assert spin.spin_reg >= 0
        assert trace_chain(cache, spin) is None
        assert compile_chain(cache, spin) is False

    def test_compile_installs_all_variants(self):
        image = link_source(ALU_LOOP_SOURCE)
        cache = cache_for(image)
        head = cache.block_at(image.symbol("loop"))
        assert compile_chain(cache, head) is True
        assert head.jit_u is not None
        assert head.jit_ot is not None
        assert head.jit_ow is not None
        assert cache.jit_chains == 1

    def test_heat_threshold_triggers_compile_during_run(self):
        image = link_source(ALU_LOOP_SOURCE)
        cache_for(image).flush_chains()  # registry is shared across tests
        cpu, _ = direct_cpu(image)
        cpu.run()
        assert cpu.halted
        assert cpu.regs.data[0] == PASS_MAGIC
        head = cpu.decode_cache.block_at(image.symbol("loop"))
        assert head.heat >= JIT_THRESHOLD
        assert head.jit_u is not None
        assert cpu.jit_chains == 1
        assert cpu.jit_exec_steps > 0

    def test_use_jit_false_never_compiles(self):
        image = link_source(ALU_LOOP_SOURCE)
        cache_for(image).flush_chains()  # registry is shared across tests
        cpu, _ = direct_cpu(image)
        cpu.use_jit = False
        cpu.run()
        assert cpu.halted
        head = cpu.decode_cache.block_at(image.symbol("loop"))
        assert head.jit_u is None
        assert cpu.jit_chains == 0
        assert cpu.jit_exec_steps == 0

    def test_compile_prememoises_successor_edges(self):
        image = link_source(ALU_LOOP_SOURCE)
        cache = cache_for(image)
        head = cache.block_at(image.symbol("loop"))
        assert compile_chain(cache, head) is True
        # Side exits retire inside the chain, so the compiler warms the
        # memo graph itself: both DJNZ edges must be populated.
        assert head.succ_taken is head
        assert head.succ_fall is not None
        assert head.succ_fall.start == head.terminator.next_pc


# ---------------------------------------------------------------------------
# (b) cross-platform equivalence + telemetry on compute-heavy workloads
# ---------------------------------------------------------------------------

class TestComputeEquivalenceAcrossPlatforms:
    @pytest.mark.parametrize(
        "platform_name", sorted(PLATFORM_CLASSES), ids=str
    )
    @pytest.mark.parametrize(
        "derivative", [SC88A, SC88B], ids=lambda d: d.name
    )
    def test_jit_matches_superblock_reference(
        self, platform_name, derivative
    ):
        """The acceptance property: compiled chains retire byte-identical
        signature, instruction count, cycles and retire trace vs the
        ``use_jit=False`` superblock engine on every platform, on the
        workload class where no closed-form warp applies."""
        platform_cls = PLATFORM_CLASSES[platform_name]
        env = make_compute_environment(compute_loops=(600,))
        tgt = TARGET_GOLDEN
        for cell_name in env.cells:
            image = env.build_image(cell_name, derivative, tgt).image
            jit_session = ExecutionSession(platform_cls(), derivative)
            jit = jit_session.run(image)
            reference = ExecutionSession(
                platform_cls(), derivative, use_jit=False
            ).run(image)
            assert strip(jit) == strip(reference), (
                platform_name,
                cell_name,
            )
            stats = jit_session.stats()
            assert stats["jit_exec_steps"] > 0, (platform_name, cell_name)

    def test_bus_trace_replay_is_identical(self):
        """A bus-trace-recording platform replays fetch/access events
        from inside the compiled body, byte-identical to the superblock
        engine's replay."""
        image = link_source(ALU_LOOP_SOURCE)
        for name in sorted(PLATFORM_CLASSES):
            cls = PLATFORM_CLASSES[name]
            jit_platform, ref_platform = cls(), cls()
            jit_platform.record_bus_trace = True
            ref_platform.record_bus_trace = True
            ExecutionSession(jit_platform, SC88A).run(image)
            ExecutionSession(ref_platform, SC88A, use_jit=False).run(image)
            assert list(jit_platform.last_bus_trace.raw()) == list(
                ref_platform.last_bus_trace.raw()
            ), name

    def test_stats_carry_jit_and_registry_telemetry(self):
        image = link_source(ALU_LOOP_SOURCE)
        session = ExecutionSession(GoldenModel(), SC88A)
        session.run(image)
        stats = session.stats()
        assert stats["jit_exec_steps"] > 0
        assert stats["registry_size"] >= 1
        assert stats["registry_evictions"] >= 0


# ---------------------------------------------------------------------------
# (c) invalidation lattice
# ---------------------------------------------------------------------------

SELF_MODIFYING_SOURCE = f"""\
_main:
    LOAD d6, {JIT_THRESHOLD * 3}
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

SFR_WRITE_LOOP_SOURCE = f"""\
;; every iteration writes a timer SFR: peripheral rescheduling cuts the
;; block deadline mid-chain, exercising the per-boundary probes
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
        """RAM code is never cached or chained; the JIT run sees the
        patched bytes exactly like the reference."""
        image = link_source(SELF_MODIFYING_SOURCE)
        jit = ExecutionSession(GoldenModel(), SC88A)
        ref = ExecutionSession(GoldenModel(), SC88A, use_jit=False)
        jit_result = jit.run(image)
        ref_result = ref.run(image)
        assert strip(jit_result) == strip(ref_result)
        assert jit_result.signature == PASS_MAGIC
        assert jit.stats()["jit_exec_steps"] > 0

    @pytest.mark.parametrize(
        "platform_name", sorted(PLATFORM_CLASSES), ids=str
    )
    def test_sfr_write_mid_chain(self, platform_name):
        """An SFR store inside the hot chain reschedules the event
        horizon (``cut_block``); the re-read deadline probes must stop
        the compiled body at reference-exact points on all platforms."""
        from repro.core.environment import ModuleTestEnvironment, TestCell

        env = ModuleTestEnvironment("JITSFR")
        env.add_test(
            TestCell(name="TEST_SFR_CHAIN", source=SFR_WRITE_LOOP_SOURCE)
        )
        image = env.build_image("TEST_SFR_CHAIN", SC88A, TARGET_GOLDEN).image
        cls = PLATFORM_CLASSES[platform_name]
        jit = ExecutionSession(cls(), SC88A).run(image)
        ref = ExecutionSession(cls(), SC88A, use_jit=False).run(image)
        assert strip(jit) == strip(ref), platform_name

    def test_derivative_swap_uses_distinct_caches(self):
        """Each derivative resolves its own registry entry, so chains
        compiled against one memory map are never replayed against
        another."""
        env = make_compute_environment(compute_loops=(400,))
        cell = next(iter(env.cells))
        caches = {}
        for derivative in (SC88A, SC88B):
            image = env.build_image(cell, derivative, TARGET_GOLDEN).image
            session = ExecutionSession(GoldenModel(), derivative)
            result = session.run(image)
            assert result.status is RunStatus.PASS, derivative.name
            ref = ExecutionSession(
                GoldenModel(), derivative, use_jit=False
            ).run(image)
            assert strip(result) == strip(ref), derivative.name
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
        ref = ExecutionSession(GoldenModel(), SC88A, use_jit=False).run(
            image
        )
        assert strip(result) == strip(ref)
        assert retry.stats()["jit_exec_steps"] > 0

    def test_flush_chains_force_drops_and_recompiles(self):
        image = link_source(ALU_LOOP_SOURCE)
        cpu, _ = direct_cpu(image)
        cpu.run()
        cache = cpu.decode_cache
        head = cache.block_at(image.symbol("loop"))
        assert head.jit_u is not None
        dropped = cache.flush_chains()
        assert dropped >= 1
        assert head.jit_u is None and head.jit_ot is None
        assert head.jit_ow is None and head.heat == 0
        assert cache.jit_chains == 0
        # The next hot run (on the same shared cache) recompiles and
        # still produces the correct result.
        cpu2, _ = direct_cpu(image)
        cpu2.run()
        assert cpu2.halted
        assert cpu2.regs.data[0] == PASS_MAGIC
        assert head.jit_u is not None
        assert cpu2.jit_chains == 1
        assert cpu2.jit_exec_steps > 0


# ---------------------------------------------------------------------------
# (d) registry LRU bound
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

    def test_same_digest_shares_cache_and_chains(self):
        image = link_source(ALU_LOOP_SOURCE)
        first = ExecutionSession(GoldenModel(), SC88A)
        first.run(image)
        second = ExecutionSession(GoldenModel(), SC88A)
        second.run(image)
        assert first.cpu.decode_cache is second.cpu.decode_cache
        # The second session reuses the chain the first one compiled.
        assert second.cpu.jit_chains == 0
        assert second.cpu.jit_exec_steps > 0


# ---------------------------------------------------------------------------
# (e) the code memo
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
    """A cache outside the shared registry: nothing another test ran
    has compiled over it."""
    rom = MEMORY_MAP.rom
    return DecodeCache(image, rom.base, rom.base + rom.size)


def cpu_on(image, cache, *, trace=False, use_jit=True) -> CpuCore:
    soc = SystemOnChip(SC88A)
    soc.load_image(image)
    cpu = CpuCore(soc.bus, intc=soc.intc)
    cpu.decode_cache = cache
    cpu.use_jit = use_jit
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


@pytest.fixture
def compiles(monkeypatch):
    """Every ``compile()`` of generated chain source, by file name,
    from an empty memo."""
    names: list[str] = []
    real = builtins.compile

    def counting(source, filename, *args, **kwargs):
        if str(filename).startswith("<jit-chain"):
            names.append(filename)
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    reset_registry()
    return names


class TestSharedCode:
    def test_second_cache_compiles_nothing(self, compiles):
        image = link_source(ALU_LOOP_SOURCE)
        first, second = private_cache(image), private_cache(image)
        cpu_on(image, first)
        # At most one compile per variant; with no wait states to
        # charge the two observed variants render the same text.
        compiled = len(compiles)
        assert 1 <= compiled <= 3
        for trace in (False, True):
            reference = cpu_on(
                image, private_cache(image), trace=trace, use_jit=False
            )
            cpu = cpu_on(image, second, trace=trace)
            assert outcome(cpu) == outcome(reference)
            assert cpu.jit_exec_steps > 0
        assert len(compiles) == compiled
        loop = image.symbol("loop")
        for slot in ("jit_u", "jit_ot", "jit_ow"):
            fn1 = getattr(first.block_at(loop), slot)
            fn2 = getattr(second.block_at(loop), slot)
            assert fn1.__code__ is fn2.__code__
            assert fn1.__globals__ is not fn2.__globals__

    @pytest.mark.parametrize(
        "source", [ALU_LOOP_SOURCE, CALL_TAIL_SOURCE], ids=["loop", "call"]
    )
    def test_same_source_shares_code_not_globals(self, source):
        image = link_source(source)
        symbol = "loop" if source is ALU_LOOP_SOURCE else "sub"
        chains = []
        for _ in range(2):
            cache = private_cache(image)
            blocks, links = trace_chain(
                cache, cache.block_at(image.symbol(symbol))
            )
            chains.append(
                (blocks[0], jit._compile_variant(blocks, links, True, False))
            )
        (head1, fn1), (head2, fn2) = chains
        assert fn1.__code__ is fn2.__code__
        assert fn1.__globals__ is not fn2.__globals__
        bound = [
            name for name in fn1.__globals__
            if name.startswith(("_fe", "_tt", "_tk", "_ft"))
        ]
        assert bound, sorted(fn1.__globals__)
        if source is CALL_TAIL_SOURCE:
            assert fn1.__globals__["_tk0"] is head1.terminator
            assert fn2.__globals__["_tk0"] is head2.terminator
        else:
            assert fn1.__globals__["_fe0"] is head1.fetch_events
            assert fn2.__globals__["_fe0"] is head2.fetch_events
        for name in bound:
            assert fn1.__globals__[name] == fn2.__globals__[name]
            assert fn1.__globals__[name] is not fn2.__globals__[name]


class TestCodeMemo:
    def test_reset_registry_clears_the_memo(self):
        image = link_source(ALU_LOOP_SOURCE)
        cpu_on(image, private_cache(image))
        assert decodecache._CODE_MEMO
        reset_registry()
        assert not decodecache._CODE_MEMO

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(decodecache, "_CODE_MEMO", {})
        monkeypatch.setattr(decodecache, "_CODE_MEMO_LIMIT", 2)
        codes = [
            decodecache.chain_code(
                f"def _chain(cpu, limit):\n    return {n}\n", "<t>"
            )
            for n in range(3)
        ]
        assert len(decodecache._CODE_MEMO) == 2
        assert codes[2] is decodecache.chain_code(
            "def _chain(cpu, limit):\n    return 2\n", "<t>"
        )
