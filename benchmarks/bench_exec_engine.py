"""Execution-engine benchmarks: predecode throughput and matrix wall-time.

Records the two numbers ISSUE 1 ties the engine to:

- instructions/sec of the default engine vs. the reference
  interpreter (``use_superblocks=False``: no predecode cache, bus fetch
  and decode on every retire);
- wall-time of the full six-platform system regression, serial seed
  baseline (cold builds, fresh device per run, the reference
  interpreter) vs.
  the engine (build cache + execution sessions + predecode + scheduler),
  asserting the >= 3x target;
- a warm-cache re-regression of an unchanged workspace, asserting it
  executes **zero** platform runs while reproducing the verdict matrix.
"""

from __future__ import annotations

from repro.assembler.assembler import Assembler
from repro.assembler.linker import Linker
from repro.core.regression import RegressionReport, detect_divergences
from repro.core.scheduler import RegressionScheduler, ResultCache
from repro.core.system_env import make_default_system
from repro.core.targets import all_targets
from repro.platforms import ExecutionSession, GoldenModel
from repro.soc.derivatives import SC88A
from repro.soc.device import PASS_MAGIC

from conftest import shape
from _harness import engine_matrix, BenchResults, best_of

MEMORY_MAP = SC88A.memory_map()

RESULTS = BenchResults("exec_engine")
RESULTS["engine_matrix"] = engine_matrix(
    candidate={"use_superblocks": True},
    reference={"use_superblocks": False, "note": "reference interpreter"},
)

LOOP_ITERATIONS = 30_000

HOT_LOOP_SOURCE = f"""\
_main:
    LOAD d1, {LOOP_ITERATIONS}
loop:
    ADDI d2, d2, 1
    XOR d3, d3, d2
    DJNZ d1, loop
    LOAD d0, {PASS_MAGIC:#x}
    HALT
"""


def link_source(source: str):
    obj = Assembler().assemble_source(source, "bench.asm")
    return Linker(
        text_base=MEMORY_MAP.text_base, data_base=MEMORY_MAP.data_base
    ).link([obj])


def run_serial_baseline(environments, derivative) -> RegressionReport:
    """The seed's behaviour: cold build and fresh device per matrix
    entry, per-retire decode in the reference interpreter."""
    report = RegressionReport(derivative=derivative.name)
    for env in environments.values():
        for cell_name in env.cells:
            per_target = {}
            for tgt in all_targets():
                artifacts = env.build_image(
                    cell_name, derivative, tgt, use_cache=False
                )
                result = ExecutionSession(
                    tgt.make_platform(), derivative, use_superblocks=False
                ).run(artifacts.image)
                per_target[tgt.name] = result
                report.results[(env.name, cell_name, tgt.name)] = result
            detect_divergences(env.name, cell_name, per_target, report)
    return report


def statuses(report: RegressionReport):
    return {key: result.status for key, result in report.results.items()}


def test_predecode_instruction_throughput():
    image = link_source(HOT_LOOP_SOURCE)

    def run(use_cache: bool):
        session = ExecutionSession(
            GoldenModel(), SC88A, use_superblocks=use_cache
        )
        return session.run(image)

    legacy_time, legacy = best_of(3, lambda: run(False))
    cached_time, cached = best_of(3, lambda: run(True))
    assert cached.instructions == legacy.instructions
    assert cached.cycles == legacy.cycles
    legacy_ips = legacy.instructions / legacy_time
    cached_ips = cached.instructions / cached_time
    RESULTS["predecode_throughput"] = {
        "legacy_ips": round(legacy_ips),
        "cached_ips": round(cached_ips),
        "speedup": round(cached_ips / legacy_ips, 2),
    }
    shape(
        "exec engine: interpreter throughput "
        f"{legacy_ips:,.0f} -> {cached_ips:,.0f} instr/sec "
        f"({cached_ips / legacy_ips:.2f}x over the reference interpreter)"
    )
    # The hot loop re-retires the same three ROM words; decoding them
    # once must beat decoding them every retire.
    assert cached_ips > legacy_ips


def test_system_regression_matrix_speedup():
    baseline_system = make_default_system(nvm_tests=2, uart_tests=1)
    baseline_time, baseline_report = best_of(
        1, lambda: run_serial_baseline(baseline_system.environments, SC88A)
    )

    engine_system = make_default_system(nvm_tests=2, uart_tests=1)
    scheduler = RegressionScheduler()
    engine_time, engine_report = best_of(
        1, lambda: scheduler.run_system(engine_system.environments, SC88A)
    )

    assert statuses(engine_report) == statuses(baseline_report)
    assert engine_report.clean
    speedup = baseline_time / engine_time
    RESULTS["matrix"] = {
        "runs": engine_report.total_runs,
        "baseline_s": round(baseline_time, 3),
        "engine_s": round(engine_time, 3),
        "speedup": round(speedup, 2),
    }
    shape(
        "exec engine: full six-platform matrix "
        f"({engine_report.total_runs} runs) "
        f"{baseline_time:.2f}s serial baseline -> {engine_time:.2f}s "
        f"engine ({speedup:.1f}x)"
    )
    assert speedup >= 3.0, (
        f"engine speedup {speedup:.2f}x below the 3x target "
        f"(baseline {baseline_time:.2f}s, engine {engine_time:.2f}s)"
    )


def test_warm_cache_reregression_executes_nothing(tmp_path):
    system = make_default_system(nvm_tests=2, uart_tests=1)
    cache = ResultCache(tmp_path / "verdicts")
    scheduler = RegressionScheduler(cache=cache)

    cold = scheduler.run_system(system.environments, SC88A)
    assert cold.executed_runs == cold.total_runs

    warm_time, warm = best_of(
        1, lambda: scheduler.run_system(system.environments, SC88A)
    )
    assert warm.executed_runs == 0
    assert warm.cached_runs == warm.total_runs
    assert statuses(warm) == statuses(cold)
    assert warm.divergences == cold.divergences == []
    RESULTS["warm_reregression"] = {
        "total_runs": warm.total_runs,
        "executed_runs": warm.executed_runs,
        "warm_s": round(warm_time, 3),
    }
    shape(
        "exec engine: warm-cache re-regression of an unchanged workspace "
        f"executed 0 of {warm.total_runs} runs in {warm_time:.2f}s"
    )

    path = RESULTS.emit()
    shape(f"exec engine: wrote {path.name}")
