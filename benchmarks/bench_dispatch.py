"""Dispatch benchmarks: executor-table dispatch + event-horizon ticking.

Records the executor-table and event-horizon numbers against the
reference interpreter (``use_superblocks=False``: bus fetch, decode and
the ``if/elif`` opcode chain on every retire, and a walk of every
peripheral after every instruction):

- interpreter instructions/sec on an ALU/branch/memory loop,
  **untraced** — the configuration the verdict matrix spends its time
  in — asserting the >= 1.5x target and byte-identical
  ``(signature, cycles, instructions)``;
- byte-identical architectural outcomes — signature, cycles, retire
  trace, interrupt delivery cycles — between the default engine and
  the reference interpreter across the interrupt-heavy example
  suites (timer IRQ, watchdog service, UART) on golden and RTL;
- the mechanism observable: how many peripheral tick *walks* the
  event-horizon scheduler performs vs the per-instruction loop.

Emits ``BENCH_dispatch.json`` next to the repository root so the perf
trajectory is tracked across PRs.
"""

from __future__ import annotations

import time

from repro.assembler.assembler import Assembler
from repro.assembler.linker import Linker
from repro.core.workloads import (
    make_timer_environment,
    make_uart_environment,
)
from repro.core.targets import TARGET_GOLDEN, TARGET_RTL
from repro.platforms import ExecutionSession, GoldenModel, RtlSim
from repro.soc.derivatives import SC88A
from repro.soc.device import PASS_MAGIC

from conftest import shape
from _harness import engine_matrix, BenchResults, best_rate, strip_result as strip

MEMORY_MAP = SC88A.memory_map()

LOOP_ITERATIONS = 40_000

#: The untraced interpreter loop the 1.5x target is asserted on: a mix
#: of ALU, flag-setting, branch and word-memory work, so the win
#: reflects the whole dispatch surface rather than one opcode family.
WORKLOAD_SOURCE = f"""\
_main:
    LOAD a1, {MEMORY_MAP.ram.base:#x}
    LOAD d1, {LOOP_ITERATIONS}
loop:
    ADDI d2, d2, 3
    XOR d3, d3, d2
    SHLI d4, d2, 5
    ST.W [a1], d4
    LD.W d5, [a1]
    SUB d6, d5, d3
    CMPI d6, 0
    JZ skip
    ANDI d6, d6, 0xFF
skip:
    DJNZ d1, loop
    LOAD d0, {PASS_MAGIC:#x}
    HALT
"""

RESULTS = BenchResults("dispatch")
RESULTS["engine_matrix"] = engine_matrix(
    candidate={"use_superblocks": True},
    reference={"use_superblocks": False, "note": "reference interpreter"},
)


def link_source(source: str):
    obj = Assembler().assemble_source(source, "bench.asm")
    return Linker(
        text_base=MEMORY_MAP.text_base, data_base=MEMORY_MAP.data_base
    ).link([obj])


def make_session(platform_cls, *, legacy: bool) -> ExecutionSession:
    """A session on the default engine, or on the reference
    interpreter: ``if/elif`` chain on every retire, one peripheral walk
    per instruction."""
    return ExecutionSession(platform_cls(), SC88A, use_superblocks=not legacy)


def timed_run(image, *, legacy: bool):
    session = make_session(GoldenModel, legacy=legacy)
    start = time.perf_counter()
    result = session.run(image)
    elapsed = time.perf_counter() - start
    assert result.signature == PASS_MAGIC
    return result.instructions / elapsed, result


def test_untraced_dispatch_speedup():
    image = link_source(WORKLOAD_SOURCE)
    legacy_ips, (legacy,) = best_rate(
        3, lambda: timed_run(image, legacy=True)
    )
    fast_ips, (fast,) = best_rate(
        3, lambda: timed_run(image, legacy=False)
    )
    # Byte-identical architecture before any speed claim.
    assert (fast.signature, fast.cycles, fast.instructions) == (
        legacy.signature,
        legacy.cycles,
        legacy.instructions,
    )
    speedup = fast_ips / legacy_ips
    RESULTS["untraced"] = {
        "legacy_ips": round(legacy_ips),
        "fast_ips": round(fast_ips),
        "speedup": round(speedup, 2),
        "cycles_identical": True,
    }
    shape(
        "dispatch: untraced interpreter loop "
        f"{legacy_ips:,.0f} -> {fast_ips:,.0f} instr/sec "
        f"({speedup:.2f}x over the reference interpreter)"
    )
    assert speedup >= 1.5, (
        f"dispatch speedup {speedup:.2f}x below 1.5x target"
    )


def test_outcomes_identical_across_irq_suites():
    """Signature, cycles, retire trace and interrupt delivery timing
    must be byte-identical between the default engine and the reference
    per-tick reference across the interrupt-heavy suites."""
    cells_checked = 0
    for make_env in (make_timer_environment, lambda: make_uart_environment(2)):
        env = make_env()
        for tgt, platform_cls in (
            (TARGET_GOLDEN, GoldenModel),
            (TARGET_RTL, RtlSim),
        ):
            for cell_name in env.cells:
                image = env.build_image(cell_name, SC88A, tgt).image
                fast = make_session(platform_cls, legacy=False).run(image)
                reference = make_session(platform_cls, legacy=True).run(
                    image
                )
                assert strip(fast) == strip(reference), (
                    platform_cls.__name__,
                    cell_name,
                )
                assert fast.passed, cell_name
                cells_checked += 1
    RESULTS["irq_suites_byte_identical"] = {
        "cells": cells_checked,
        "platforms": ["golden", "rtl"],
    }
    shape(
        f"dispatch: {cells_checked} interrupt-heavy runs byte-identical "
        "(signature, cycles, trace, IRQ timing) to the reference "
        "interpreter"
    )


def test_event_horizon_tick_walk_savings_and_emit_json():
    """The mechanism observable: the scheduler walks the peripheral
    list once per horizon, not once per instruction."""
    env = make_timer_environment()
    image = env.build_image("TEST_TIMER_DELAY_002", SC88A, TARGET_GOLDEN).image

    def count_tick_walks(legacy: bool) -> tuple[int, int]:
        session = make_session(GoldenModel, legacy=legacy)
        soc = session.soc
        walks = 0
        original_tick = soc.tick

        def counting_tick(cycles=1):
            nonlocal walks
            walks += 1
            original_tick(cycles)

        soc.tick = counting_tick
        result = session.run(image)
        assert result.passed
        return walks, result.instructions

    legacy_walks, instructions = count_tick_walks(legacy=True)
    batched_walks, batched_instructions = count_tick_walks(legacy=False)
    assert batched_instructions == instructions
    assert legacy_walks == instructions  # one walk per retire
    assert batched_walks < legacy_walks
    RESULTS["tick_walks"] = {
        "instructions": instructions,
        "per_step_walks": legacy_walks,
        "event_horizon_walks": batched_walks,
        "reduction": round(legacy_walks / batched_walks, 1),
    }
    shape(
        "dispatch: peripheral walks for a timer-driven run "
        f"{legacy_walks} -> {batched_walks} "
        f"({legacy_walks / batched_walks:.1f}x fewer with event horizons)"
    )

    path = RESULTS.emit()
    shape(f"dispatch: wrote {path.name}")
