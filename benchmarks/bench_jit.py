"""Template JIT benchmarks (ISSUE 8).

The engine series took the single run from an if/elif interpreter to
executor tables, superblocks and analytic idle warps; the template JIT (:mod:`repro.isa.jit`) is the next integer
multiple on the workload class none of those closed forms cover:
compute-heavy code where every retired instruction does data-dependent
ALU work.  This bench records the acceptance numbers ISSUE 8 ties the
compiler to:

- wall-clock on the **compute-burn workloads** (xorshift32 + checksum
  kernels from ``core/workloads.py``) with ``use_jit=True`` vs the
  ISSUE 5 superblock engine (``use_jit=False``), asserting the >= 2x
  floor (>= 1.5x in ``--quick`` mode);
- **byte-identity before any speed claim**: retire traces, bus traces
  and cycle counts compared across **all six platforms** via the shared
  ``_harness.assert_identical`` gate;
- JIT telemetry (``jit_chains`` > 0, ``jit_exec_steps`` > 0) so a
  silently-declining compiler fails the bench even if wall-clock
  happens to survive;
- the engine-flag matrix compared, embedded in the JSON.

Emits ``BENCH_jit.json`` next to the repository root.  Also runnable as
a script: ``python benchmarks/bench_jit.py [--quick]`` — the CI
perf-smoke job uses ``--quick`` and fails the build if the floor or any
byte-identity assertion trips.
"""

from __future__ import annotations

import sys

from repro.core.targets import TARGET_GOLDEN
from repro.core.workloads import make_compute_environment
from repro.platforms import ExecutionSession, PLATFORM_CLASSES, RunStatus
from repro.soc.derivatives import SC88A

from conftest import shape
from _harness import (
    BenchResults,
    assert_identical,
    engine_matrix,
    interleaved_best,
)

RESULTS = BenchResults("jit")

#: Full (pytest/CI bench) and quick (perf-smoke gate) configurations.
FULL = {
    "compute_loops": (2_000, 20_000),
    "repeats": 3,
    "min_speedup": 2.0,
    "mode": "full",
}
QUICK = {
    "compute_loops": (2_000,),
    "repeats": 2,
    "min_speedup": 1.5,
    "mode": "quick",
}

MATRIX = engine_matrix(
    candidate={"use_jit": True},
    reference={"use_jit": False, "note": "ISSUE 5 superblock engine"},
)


def compute_images(config):
    env = make_compute_environment(compute_loops=config["compute_loops"])
    return [
        (cell, env.build_image(cell, SC88A, TARGET_GOLDEN).image)
        for cell in sorted(env.cells)
    ]


def check_identity_across_platforms(images) -> tuple[int, int]:
    """The acceptance gate: byte-identical retire/bus traces and cycle
    counts vs ``use_jit=False`` on all six platforms, before any
    stopwatch starts.  Returns ``(platforms_compared, chains_compiled)``
    — compiles land here because later sessions share the digest-keyed
    cache and reuse the installed chains."""
    chains = 0
    for label, image in images:
        pairs = []
        for name in sorted(PLATFORM_CLASSES):
            cls = PLATFORM_CLASSES[name]
            jit_platform, ref_platform = cls(), cls()
            jit_platform.record_bus_trace = True
            ref_platform.record_bus_trace = True
            jit_session = ExecutionSession(jit_platform, SC88A)
            candidate = jit_session.run(image)
            reference = ExecutionSession(
                ref_platform, SC88A, use_jit=False
            ).run(image)
            pairs.append((candidate, reference))
            assert_identical(pairs[-1:], f"jit/{label}/{name}")
            assert list(jit_platform.last_bus_trace.raw()) == list(
                ref_platform.last_bus_trace.raw()
            ), f"jit/{label}/{name}: bus traces diverge"
            stats = jit_session.stats()
            chains += stats["jit_chains"]
            assert stats["jit_exec_steps"] > 0, (
                f"jit/{label}/{name}: compiled chains never executed"
            )
    return len(PLATFORM_CLASSES), chains


def run_compute_speedup(config) -> dict:
    """The acceptance number: compute-burn wall-clock with the template
    JIT vs the ISSUE 5 superblock engine, identity-gated first."""
    images = compute_images(config)
    platforms_compared, jit_chains_total = (
        check_identity_across_platforms(images)
    )

    per_image = {}
    total_jit = 0.0
    total_reference = 0.0
    for label, image in images:
        jit_session = ExecutionSession(
            PLATFORM_CLASSES["golden"](), SC88A
        )
        ref_session = ExecutionSession(
            PLATFORM_CLASSES["golden"](), SC88A, use_jit=False
        )
        # Warm both engines: decode cache formation and the chain
        # compile happen once, off the stopwatch (steady-state is what
        # a regression matrix re-runs).
        jit_result = jit_session.run(image)
        ref_session.run(image)
        assert jit_result.status is RunStatus.PASS, label

        # Round-robin sampling: host drift lands on both engines
        # instead of on whichever side ran last.
        (jit_elapsed, ref_elapsed), (jit_timed, ref_timed) = (
            interleaved_best(
                config["repeats"],
                lambda: jit_session.run(image),
                lambda: ref_session.run(image),
            )
        )
        assert_identical([(jit_timed, ref_timed)], f"jit/{label}/timed")
        timed_stats = jit_session.stats()
        assert timed_stats["jit_exec_steps"] > 0, label
        total_jit += jit_elapsed
        total_reference += ref_elapsed
        per_image[label] = {
            "jit_ms": round(jit_elapsed * 1e3, 3),
            "superblock_ms": round(ref_elapsed * 1e3, 3),
            "speedup": round(ref_elapsed / jit_elapsed, 2),
            "jit_exec_steps": timed_stats["jit_exec_steps"],
        }
    assert jit_chains_total > 0, "no chain was ever compiled"
    return {
        "per_image": per_image,
        "platforms_compared": platforms_compared,
        "jit_chains": jit_chains_total,
        "engine_matrix": MATRIX,
        "speedup": round(total_reference / total_jit, 2),
        "min_required": config["min_speedup"],
        "mode": config["mode"],
    }


# ---------------------------------------------------------------------------
# pytest entry points (full configuration)
# ---------------------------------------------------------------------------

def test_compute_speedup_and_emit_json():
    numbers = run_compute_speedup(FULL)
    RESULTS["compute"] = numbers
    shape(
        f"jit: compute-burn {numbers['speedup']:.2f}x vs the superblock "
        f"engine ({numbers['jit_chains']} chains, byte-identical on "
        f"{numbers['platforms_compared']} platforms)"
    )
    assert numbers["speedup"] >= FULL["min_speedup"], (
        f"jit speedup {numbers['speedup']:.2f}x below "
        f"{FULL['min_speedup']}x target"
    )
    path = RESULTS.emit()
    shape(f"jit: wrote {path.name}")


# ---------------------------------------------------------------------------
# script mode: the CI perf-smoke gate
# ---------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    config = QUICK if quick else FULL
    try:
        numbers = run_compute_speedup(config)
    except AssertionError as failure:
        print(f"FAIL: {failure}")
        return 1
    RESULTS["compute"] = numbers
    path = RESULTS.emit()
    print(
        f"jit[{config['mode']}]: compute-burn {numbers['speedup']}x vs "
        f"superblock engine (floor {config['min_speedup']}x), "
        f"{numbers['jit_chains']} chains, byte-identical on "
        f"{numbers['platforms_compared']} platforms -> {path.name}"
    )
    if numbers["speedup"] < config["min_speedup"]:
        print(
            f"FAIL: jit speedup {numbers['speedup']}x below the "
            f"{config['min_speedup']}x floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
