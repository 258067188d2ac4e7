"""Toolchain throughput: assembler, linker and platform performance.

Not a paper figure, but the supporting table any adopter asks for: how
fast the substrate is, and that build cost scales linearly in source
size (no accidental quadratic behaviour in the two-pass design).
"""

import itertools

from repro.assembler.assembler import Assembler
from repro.assembler.linker import Linker
from repro.assembler.objectfile import ObjectFile
from repro.core.targets import TARGET_GOLDEN
from repro.core.workloads import make_nvm_environment
from repro.platforms import GoldenModel, RtlSim
from repro.soc.derivatives import SC88A

from conftest import shape

MEMORY_MAP = SC88A.memory_map()


#: Immediates count up across every call, so no line repeats within
#: 32768 lines — far more than the assembler's 4096-entry line,
#: expression and statement memos hold.  Each call therefore times cold
#: lexing, parsing and encoding, not memo hits.
_IMMEDIATES = itertools.count()


def synthetic_source(instruction_count: int) -> str:
    lines = ["_main:"]
    for index in range(instruction_count):
        register = index % 10
        immediate = next(_IMMEDIATES) % 32768
        lines.append(f"    ADDI d{register}, d{register}, {immediate}")
    lines.append("    HALT")
    return "\n".join(lines) + "\n"


def test_assembler_throughput(benchmark):
    obj = benchmark.pedantic(
        Assembler().assemble_source,
        setup=lambda: ((synthetic_source(2_000), "big.asm"), {}),
        rounds=5,
    )
    assert obj.section("text").size == (2_000 + 1) * 4
    shape("toolchain: assembled 2000-instruction unit (see timing table)")


def test_assembler_scales_linearly(benchmark):
    import time

    def measure():
        Assembler().assemble_source(synthetic_source(500), "warmup.asm")
        timings = []
        for count in (500, 1_000, 2_000, 4_000):
            sources = [synthetic_source(count) for _ in range(3)]
            best = min(
                _timed(lambda: Assembler().assemble_source(source, "s.asm"))
                for source in sources
            )
            timings.append((count, best))
        return timings

    def _timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    per_line = [elapsed / count for count, elapsed in timings]
    # No worse than 5x drift in time-per-line across an 8x size range
    # (a quadratic pass would show >= 8x).
    assert max(per_line) / min(per_line) < 5.0, per_line
    shape(
        "toolchain: time/line stable across 500..4000-instruction units "
        f"(spread {max(per_line) / min(per_line):.2f}x) — two-pass "
        "assembly is linear"
    )


def test_link_throughput(benchmark):
    env = make_nvm_environment(1)
    tgt = TARGET_GOLDEN
    from repro.assembler.assembler import Assembler as Asm

    assembler = Asm(
        provider=env._provider(),
        predefines={SC88A.predefine: 1, tgt.predefine: 1},
    )
    objects = [
        assembler.assemble_file("TEST_NVM_PAGE_001.asm"),
        assembler.assemble_file("Base_Functions.asm"),
        assembler.assemble_file("Trap_Handlers.asm"),
        assembler.assemble_file("Global_Test_Functions.asm"),
    ]
    from repro.soc.embedded import assemble_embedded_software

    objects.append(assemble_embedded_software(1, assembler))
    linker = Linker(
        text_base=MEMORY_MAP.text_base, data_base=MEMORY_MAP.data_base
    )
    image = benchmark(linker.link, objects)
    assert image.entry is not None
    shape(f"toolchain: linked {len(objects)} objects, {image.total_bytes} bytes")


def relocating_object(relocation_count: int) -> ObjectFile:
    """An object whose text section is *relocation_count* literal words,
    each patched with the address of ``_main``."""
    obj = ObjectFile("relocs.o")
    text = obj.section("text")
    obj.add_symbol("_main", "text", 0)
    for _ in range(relocation_count):
        offset = text.emit_word(0)
        obj.add_relocation("text", offset, "_main", addend=offset)
    return obj


def test_linker_scales_linearly(benchmark):
    import time

    linker = Linker(
        text_base=MEMORY_MAP.text_base, data_base=MEMORY_MAP.data_base
    )

    def measure():
        timings = []
        for count in (1_000, 8_000, 64_000):
            obj = relocating_object(count)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                image = linker.link([obj])
                best = min(best, time.perf_counter() - start)
            last = MEMORY_MAP.text_base + 4 * (count - 1)
            assert image.read_word(last) == last
            timings.append((count, best))
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    per_relocation = [elapsed / count for count, elapsed in timings]
    # A link that copied its segment per relocation would pay time in
    # proportion to the segment per relocation (about 7x here).
    spread = max(per_relocation) / min(per_relocation)
    assert spread < 3.0, per_relocation
    shape(
        "toolchain: time/relocation stable across 1000..64000-relocation "
        f"segments (spread {spread:.2f}x) — linking is linear"
    )


def test_golden_model_mips(benchmark):
    source = synthetic_source(1_000)
    obj = Assembler().assemble_source(source, "mips.asm")
    image = Linker(
        text_base=MEMORY_MAP.text_base, data_base=MEMORY_MAP.data_base
    ).link([obj])
    platform = GoldenModel()
    result = benchmark(platform.run, image, SC88A)
    assert result.instructions == 1_001
    shape("toolchain: golden-model execution rate in the timing table")


def test_rtl_slower_than_golden(benchmark):
    import time

    source = synthetic_source(1_000)
    obj = Assembler().assemble_source(source, "cmp.asm")
    image = Linker(
        text_base=MEMORY_MAP.text_base, data_base=MEMORY_MAP.data_base
    ).link([obj])

    def run_both():
        start = time.perf_counter()
        GoldenModel().run(image, SC88A)
        golden_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        rtl = RtlSim().run(image, SC88A)
        rtl_elapsed = time.perf_counter() - start
        return golden_elapsed, rtl_elapsed, rtl

    golden_elapsed, rtl_elapsed, rtl = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    assert rtl.cycles > 1_001  # waits charged
    shape(
        f"toolchain: RTL charges wait states ({rtl.cycles} cycles for "
        "1001 instructions); wall-clock comparable in this model"
    )
