"""Fault-tolerant execution benchmarks (ISSUE 7).

The supervision layer (per-cell retry/quarantine ladder, checksummed
result cache) must be free when nothing fails and effective when
things do.  This bench records both
acceptance numbers ISSUE 7 ties the layer to:

- **zero-fault overhead**: the warm six-platform matrix through the
  supervised serial scheduler vs the same memoised builds driven
  through raw unsupervised ``ExecutionSession`` loops — verdicts
  byte-identical, and the supervised path at most 5% slower
  (``speedup >= 0.95``, the committed ``bench_trend`` floor).  Raw
  and supervised samples are taken round-robin, so host drift lands
  on both sides;
- **chaos completion**: a seeded :class:`~repro.core.faults.FaultPlan`
  that fails one rtl session run on the cold pass plus two injected
  cache corruptions on the warm pass — both regressions complete, the
  healthy verdicts match a fault-free run byte-for-byte, nothing is
  quarantined (the fault is transient, the corrupt entries
  re-execute), and the cache counts the corruption instead of
  replaying it.  A SIGKILLed fleet worker is the ``artifact_store``
  bench's fleet chaos.

Emits ``BENCH_resilience.json`` next to the repository root.  Also
runnable as a script: ``python benchmarks/bench_resilience.py
[--quick]`` — the CI perf-smoke job uses ``--quick`` and fails the
build if the overhead gate or any identity assertion trips.
"""

from __future__ import annotations

import sys
import tempfile

from repro.core.faults import (
    ACTION_CORRUPT,
    ACTION_RAISE,
    FaultPlan,
    FaultSpec,
    SITE_CACHE_READ,
    SITE_SESSION_RUN,
)
from repro.core.scheduler import RegressionScheduler, ResultCache
from repro.core.targets import all_targets
from repro.core.workloads import make_nvm_environment, make_uart_environment
from repro.platforms import ExecutionSession
from repro.soc.derivatives import SC88A

from conftest import shape
from _harness import (
    engine_matrix,
    BenchResults,
    interleaved_best,
    strip_result as strip,
)

RESULTS = BenchResults("resilience")
RESULTS["engine_matrix"] = engine_matrix(
    candidate={"supervision": True},
    reference={"supervision": False, "note": "raw sessions"},
)

#: Full (pytest/CI bench) and quick (perf-smoke gate) configurations.
FULL = {
    "nvm_tests": 2,
    "uart_tests": 1,
    "repeats": 11,
    "min_speedup": 0.95,  # supervised may cost at most 5%
    "mode": "full",
}
QUICK = {
    "nvm_tests": 1,
    "uart_tests": 0,
    "repeats": 15,
    "min_speedup": 0.95,
    "mode": "quick",
}


def make_environments(config):
    environments = {"NVM": make_nvm_environment(config["nvm_tests"])}
    if config["uart_tests"]:
        environments["UART"] = make_uart_environment(config["uart_tests"])
    return environments


def run_zero_fault(config) -> dict:
    """Supervised serial scheduler vs raw unsupervised session loops on
    the same warm matrix — identity first, then the overhead gate."""
    environments = make_environments(config)
    targets = all_targets()

    def raw_matrix():
        # What the pre-supervision serial executor did: the same
        # memoised builds, one long-lived session per target, no retry
        # ladder, no deadline bookkeeping.
        work = [
            (
                (env.name, cell, tgt.name),
                tgt,
                env.build_image(cell, SC88A, tgt),
            )
            for env in environments.values()
            for cell in env.cells
            for tgt in targets
        ]
        sessions = {}
        results = {}
        for key, tgt, artifacts in work:
            session = sessions.get(tgt.name)
            if session is None:
                session = ExecutionSession(tgt.make_platform(), SC88A)
                sessions[tgt.name] = session
            results[key] = session.run(artifacts.image)
        return results

    def supervised_matrix():
        return RegressionScheduler().run_system(environments, SC88A)

    # Warm every cache (build, decode, superblock templates) first:
    # a predecode inside a timed sample would be charged to whichever
    # side ran it.  One pass of each side forms every block.
    raw_matrix()
    supervised_matrix()

    (raw_elapsed, supervised_elapsed), (raw_results, report) = (
        interleaved_best(config["repeats"], raw_matrix, supervised_matrix)
    )
    # Byte-identity before any speed claim: supervision must not change
    # a single verdict, trace entry or cycle count.
    assert set(report.results) == set(raw_results)
    for key, result in report.results.items():
        assert strip(result) == strip(raw_results[key]), key
    assert report.retried_runs == 0
    assert report.quarantined_runs == 0

    return {
        "runs": report.total_runs,
        "raw_ms": round(raw_elapsed * 1e3, 3),
        "supervised_ms": round(supervised_elapsed * 1e3, 3),
        "speedup": round(raw_elapsed / supervised_elapsed, 3),
        "min_required": config["min_speedup"],
        "mode": config["mode"],
    }


def run_chaos(config) -> dict:
    """One failed session run + two corrupt cache entries: both passes
    complete with healthy verdicts byte-identical to a fault-free run."""
    environments = make_environments(config)
    baseline = RegressionScheduler().run_system(environments, SC88A)

    with tempfile.TemporaryDirectory(prefix="bench_resilience_") as tmp:
        # Cold pass: the first rtl session run fails; the session is
        # discarded and the retry on a fresh one succeeds.
        fault_plan = FaultPlan(seed=7, specs=[
            FaultSpec(site=SITE_SESSION_RUN, action=ACTION_RAISE,
                      match="rtl#", times=1),
        ])
        cold_cache = ResultCache(tmp)
        cold = RegressionScheduler(
            cache=cold_cache,
            fault_plan=fault_plan,
            backoff_base=0.001,
        ).run_system(environments, SC88A)
        assert cold.total_runs == baseline.total_runs
        assert cold.quarantined_runs == 0
        assert cold.retried_runs == 1
        for key, result in cold.results.items():
            assert strip(result) == strip(baseline.results[key]), key

        # Warm pass: two cache reads come back corrupted; the cache
        # counts and quarantines them and the cells re-execute.
        corrupt_plan = FaultPlan(seed=7, specs=[
            FaultSpec(site=SITE_CACHE_READ, action=ACTION_CORRUPT,
                      times=2),
        ])
        warm_cache = ResultCache(tmp)
        warm = RegressionScheduler(
            cache=warm_cache, fault_plan=corrupt_plan
        ).run_system(environments, SC88A)
        assert warm.total_runs == baseline.total_runs
        assert warm_cache.corrupt == 2
        assert warm.executed_runs == 2
        assert warm.cached_runs == warm.total_runs - 2
        for key, result in warm.results.items():
            assert strip(result) == strip(baseline.results[key]), key

    return {
        "runs": baseline.total_runs,
        "transient_faults": 1,
        "cold_retried_runs": cold.retried_runs,
        "cold_quarantined_runs": cold.quarantined_runs,
        "corrupt_cache_entries": warm_cache.corrupt,
        "warm_reexecuted_runs": warm.executed_runs,
        "mode": config["mode"],
    }


# ---------------------------------------------------------------------------
# pytest entry points (full configuration)
# ---------------------------------------------------------------------------

def test_zero_fault_overhead_gate():
    numbers = run_zero_fault(FULL)
    RESULTS["zero_fault"] = numbers
    shape(
        f"resilience: supervised matrix at {numbers['speedup']:.3f}x of "
        f"raw sessions over {numbers['runs']} runs (floor "
        f"{FULL['min_speedup']}x = <=5% overhead)"
    )
    assert numbers["speedup"] >= FULL["min_speedup"], (
        f"supervision overhead gate: {numbers['speedup']:.3f}x below "
        f"{FULL['min_speedup']}x (more than 5% slower than raw)"
    )


def test_chaos_completion_and_emit_json():
    numbers = run_chaos(FULL)
    RESULTS["chaos"] = numbers
    shape(
        f"resilience: chaos matrix completed with "
        f"{numbers['transient_faults']} failed run and "
        f"{numbers['corrupt_cache_entries']} corrupt cache entries, "
        "healthy verdicts byte-identical"
    )
    path = RESULTS.emit()
    shape(f"resilience: wrote {path.name}")


# ---------------------------------------------------------------------------
# script mode: the CI perf-smoke gate
# ---------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    config = QUICK if quick else FULL
    try:
        zero_fault = run_zero_fault(config)
        chaos = run_chaos(config)
    except AssertionError as failure:
        print(f"FAIL: {failure}")
        return 1
    RESULTS["zero_fault"] = zero_fault
    RESULTS["chaos"] = chaos
    path = RESULTS.emit()
    print(
        f"resilience[{config['mode']}]: supervision at "
        f"{zero_fault['speedup']}x of raw (floor "
        f"{config['min_speedup']}x), chaos run survived "
        f"{chaos['transient_faults']} failed run + "
        f"{chaos['corrupt_cache_entries']} corrupt entries "
        f"-> {path.name}"
    )
    if zero_fault["speedup"] < config["min_speedup"]:
        print(
            f"FAIL: supervised matrix {zero_fault['speedup']}x below "
            f"the {config['min_speedup']}x overhead floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
