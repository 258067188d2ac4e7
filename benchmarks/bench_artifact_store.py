"""Artifact-store and fleet work-list benchmarks (ISSUE 10).

The persistent artifact store exists to make a *process* restart warm:
predecode and superblock formation are pure functions of (image
digest, region bounds, wait states), so a fresh process that
finds them on disk should skip the derivation entirely.  The fleet
work-list exists to shard one matrix across worker processes without a
coordinator.  This bench records the acceptance numbers ISSUE 10 ties
the subsystem to:

- **warm start**: a cold-registry matrix run that restores its decode
  caches from the store vs one that re-derives everything from the
  image bytes — verdicts byte-identical, the warm run reports zero
  decode misses, and the restore path at least 1.5x faster (the
  committed ``bench_trend`` floor);
- **zero-fault overhead**: the same warm matrix driven through a
  store+work-list scheduler (every cell claimed, executed, published)
  vs a plain serial scheduler — byte-identical and at most 5% slower
  (``speedup >= 0.95``);
- **chaos completion**: a real fleet over one shared result cache —
  one worker process SIGKILLed mid-shard holding a lease, survivors
  stealing it after expiry — plus one published record corrupted
  after the fact: the matrix settles exactly once (one published
  record per cell), the corruption is detected, its segment
  quarantined as evidence and the verdict re-derived, and every
  verdict is byte-identical to a scalar serial oracle.

Emits ``BENCH_artifact_store.json`` next to the repository root.  Also
runnable as a script: ``python benchmarks/bench_artifact_store.py
[--quick]`` — the CI perf-smoke job uses ``--quick`` and fails the
build if either speed gate or any identity assertion trips.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import signal
import sys
import tempfile
import time
from pathlib import Path

from repro.core.durable import parse_segment
from repro.core.faults import ACTION_KILL, FaultPlan, FaultSpec, SITE_SESSION_RUN
from repro.core.scheduler import (
    RegressionScheduler,
    ResultCache,
    result_to_payload,
)
from repro.core.system_env import make_default_system
from repro.core.targets import target as lookup_target
from repro.core.workloads import make_nvm_environment, make_uart_environment
from repro.core.workspace import (
    load_module_environment,
    write_system_environment,
)
from repro.isa.decodecache import reset_registry
from repro.store import set_artifact_store
from repro.soc.derivatives import SC88A, derivative as lookup_derivative
from repro.store import ArtifactStore, WorkList

from conftest import shape
from _harness import (
    engine_matrix,
    BenchResults,
    interleaved_best,
    strip_result as strip,
)

RESULTS = BenchResults("artifact_store")
RESULTS["engine_matrix"] = engine_matrix(
    candidate={"artifact_store": True, "fleet_worklist": True},
    reference={"artifact_store": False, "note": "cold re-derivation"},
)

#: The two-target fleet matrix the chaos section shards.
TARGETS = ["golden", "rtl"]

#: Full (pytest/CI bench) and quick (perf-smoke gate) configurations.
#: Quick embeds its own thinner warm-start floor (one small image makes
#: the restore-vs-derive gap noisier); the committed trend floor gates
#: the full-mode JSON.
FULL = {
    "nvm_tests": 2,
    "uart_tests": 1,
    "repeats": 5,
    "fleet_survivors": 2,
    "min_warm_speedup": 1.5,
    "min_zero_fault_speedup": 0.95,  # always-on store may cost at most 5%
    "mode": "full",
}
QUICK = {
    "nvm_tests": 1,
    "uart_tests": 0,
    "repeats": 3,
    "fleet_survivors": 1,
    "min_warm_speedup": 1.2,
    "min_zero_fault_speedup": 0.90,  # tiny matrix: per-sample noise > 5%
    "mode": "quick",
}


def make_environments(config):
    environments = {"NVM": make_nvm_environment(config["nvm_tests"])}
    if config["uart_tests"]:
        environments["UART"] = make_uart_environment(config["uart_tests"])
    return environments


def run_warm_start(config) -> dict:
    """Cold-registry matrix restored from the store vs re-derived from
    the image bytes — identity and zero decode misses first, then the
    speedup gate.

    Measured over one image's first pass in both modes: cold-start
    cost is per image (predecode + superblock formation), so
    folding more cells into the sample only dilutes the thing being
    measured under execution time that is identical on both sides."""
    environments = {"NVM": make_nvm_environment(1)}
    with tempfile.TemporaryDirectory(prefix="bench_store_") as tmp:
        store = ArtifactStore(Path(tmp) / "artifacts")
        try:
            # Populate: one cold run with the store installed persists
            # every decode/superblock snapshot when it completes.
            set_artifact_store(store)
            reset_registry()
            baseline = RegressionScheduler().run_system(environments, SC88A)
            assert store.saved >= 1, store.stats()

            def cold_run():
                # What a fresh process without a store does: full
                # predecode + superblock formation.
                set_artifact_store(None)
                reset_registry()
                scheduler = RegressionScheduler()
                return scheduler, scheduler.run_system(environments, SC88A)

            def warm_run():
                # A fresh process with the store: registry misses fall
                # through to the on-disk snapshots.
                set_artifact_store(store)
                reset_registry()
                scheduler = RegressionScheduler()
                return scheduler, scheduler.run_system(environments, SC88A)

            # One untimed warm pass: the stamps make every further
            # persist a no-op, so the timed samples measure pure
            # restore + execution.
            warm_run()

            bests, values = interleaved_best(
                config["repeats"], cold_run, warm_run
            )
            cold_elapsed, warm_elapsed = bests
            (_, cold), (warm_scheduler, warm) = values
        finally:
            set_artifact_store(None)
            reset_registry()

        # Byte-identity before any speed claim: a restored cache that
        # changes one verdict, trace entry or cycle count is corruption,
        # not acceleration.
        for report in (cold, warm):
            assert set(report.results) == set(baseline.results)
            for key, result in report.results.items():
                assert strip(result) == strip(baseline.results[key]), key
        # The warm run must have skipped predecode entirely.
        assert warm_scheduler.engine_stats.get("decode_misses", 0) == 0, (
            warm_scheduler.engine_stats
        )
        assert store.hits >= 1 and store.corrupt == 0, store.stats()

    return {
        "runs": baseline.total_runs,
        "artifacts": store.saved,
        "store_hits": store.hits,
        "cold_ms": round(cold_elapsed * 1e3, 3),
        "warm_ms": round(warm_elapsed * 1e3, 3),
        "speedup": round(cold_elapsed / warm_elapsed, 3),
        "min_required": config["min_warm_speedup"],
        "mode": config["mode"],
    }


def run_zero_fault(config) -> dict:
    """Warm matrix with the artifact store installed (what every run
    with ``--store-dir`` pays: registry gauges, stamp-checked persist)
    vs a plain scheduler — identity first, then the ≤5% overhead gate.

    The fleet work-list is opt-in and buys cross-process parallelism,
    not zero cost; its per-cell protocol price (the shared cache's
    probe, fetch + claim + a shared heartbeat + publish + release) is
    measured and recorded as a trend figure, without a floor."""
    environments = make_environments(config)

    def plain_run():
        return RegressionScheduler().run_system(environments, SC88A)

    baseline = plain_run()  # warm build/decode/superblock caches

    with tempfile.TemporaryDirectory(prefix="bench_fleet0_") as tmp:
        store = ArtifactStore(Path(tmp) / "artifacts")
        fresh = itertools.count()

        def store_run():
            set_artifact_store(store)
            try:
                return RegressionScheduler().run_system(
                    environments, SC88A
                )
            finally:
                set_artifact_store(None)

        def fleet_run():
            # Fresh shared cache per sample so every cell is claimed,
            # executed and published — the full protocol cost, never
            # the (much cheaper) cached path.
            shared = ResultCache(Path(tmp) / f"wl{next(fresh)}")
            worklist = WorkList(shared)
            set_artifact_store(store)
            try:
                scheduler = RegressionScheduler(worklist=worklist)
                return worklist, scheduler.run_system(environments, SC88A)
            finally:
                set_artifact_store(None)

        store_run()  # first sample pays the one-time snapshot writes
        bests, values = interleaved_best(
            config["repeats"], plain_run, store_run, fleet_run
        )
        plain_elapsed, store_elapsed, fleet_elapsed = bests
        plain, stored, (worklist, fleet) = values

    for report in (stored, fleet):
        assert set(report.results) == set(plain.results)
        for key, result in report.results.items():
            assert strip(result) == strip(plain.results[key]), key
    # Steady state: the per-run persist must be stamp-cheap, not a
    # re-pickle of every warm image.
    assert store.unchanged >= store.saved, store.stats()
    # Single worker, fresh list: everything executed, nothing adopted,
    # nothing stolen, every cell published exactly once.
    assert fleet.cached_runs == 0 and fleet.stolen_runs == 0
    assert worklist.claimed == fleet.total_runs, worklist.stats()
    assert worklist.published == fleet.total_runs, worklist.stats()
    shared = worklist.cache
    assert shared.corrupt == 0 and shared.write_errors == 0

    per_cell_us = (
        (fleet_elapsed - plain_elapsed) / fleet.total_runs * 1e6
    )
    return {
        "runs": fleet.total_runs,
        "plain_ms": round(plain_elapsed * 1e3, 3),
        "store_ms": round(store_elapsed * 1e3, 3),
        "fleet_ms": round(fleet_elapsed * 1e3, 3),
        "speedup": round(plain_elapsed / store_elapsed, 3),
        "fleet_protocol_us_per_cell": round(max(0.0, per_cell_us), 1),
        "min_required": config["min_zero_fault_speedup"],
        "mode": config["mode"],
    }


def _fleet_worker(
    workspace: str,
    store_dir: str,
    report_path: str,
    owner: str,
    lease_ttl: float,
    kill_on_first_run: bool,
) -> None:
    """One fleet worker process.  The victim variant SIGKILLs itself at
    its first session start — after claiming a lease, before publishing
    anything — exactly the crash the steal protocol exists for."""
    plan = (
        FaultPlan(
            specs=[FaultSpec(site=SITE_SESSION_RUN, action=ACTION_KILL)]
        )
        if kill_on_first_run
        else None
    )
    worklist = WorkList(
        ResultCache(store_dir), owner=owner, lease_ttl=lease_ttl
    )
    scheduler = RegressionScheduler(
        targets=[lookup_target(name) for name in TARGETS],
        worklist=worklist,
        fault_plan=plan,
        # One steal per cell is within budget: the victim's death.
        retries=1,
    )
    environments = {"NVM": load_module_environment(Path(workspace) / "NVM")}
    report = scheduler.run_system(environments, lookup_derivative("sc88a"))
    Path(report_path).write_text(json.dumps({
        "results": {
            "/".join(key): json.dumps(
                result_to_payload(result), sort_keys=True
            )
            for key, result in report.results.items()
        },
        "stats": worklist.stats(),
        "counters": {
            "total": report.total_runs,
            "executed": report.executed_runs,
            "cached": report.cached_runs,
            "stolen": report.stolen_runs,
            "quarantined": report.quarantined_runs,
        },
    }, sort_keys=True))


def _published_keys(store_dir: Path) -> list[str]:
    """The key of every intact ``verdict`` record in the shared cache's
    log segments, in segment and write order."""
    return [
        record[2]
        for segment in sorted(store_dir.glob("seg*.log"))
        for record in parse_segment(segment.read_bytes())[0]
        if record[1] == "verdict"
    ]


def run_chaos(config) -> dict:
    """SIGKILLed fleet worker + one post-hoc corrupted published record:
    the matrix settles exactly once and the corruption is detected,
    quarantined and re-derived — all verdicts byte-identical to a
    scalar serial oracle."""
    lease_ttl = 1.0
    with tempfile.TemporaryDirectory(prefix="bench_fleet_") as tmp:
        tmp = Path(tmp)
        workspace = write_system_environment(
            make_default_system(
                nvm_tests=config["nvm_tests"], uart_tests=0
            ),
            tmp / "ws",
        )
        environments = {
            "NVM": load_module_environment(Path(workspace) / "NVM")
        }
        derivative = lookup_derivative("sc88a")
        oracle = RegressionScheduler(
            targets=[lookup_target(name) for name in TARGETS],
        ).run_system(environments, derivative)
        oracle_bytes = {
            "/".join(key): json.dumps(
                result_to_payload(result), sort_keys=True
            )
            for key, result in oracle.results.items()
        }
        cells = len(oracle_bytes)

        store_dir = tmp / "fleet"
        victim = multiprocessing.Process(
            target=_fleet_worker,
            args=(
                str(workspace), str(store_dir),
                str(tmp / "victim.json"), "victim", lease_ttl, True,
            ),
        )
        victim.start()
        # Let the victim claim its first lease before the survivors
        # start, so a steal is guaranteed to be needed.
        leases = store_dir / "leases"
        deadline = time.time() + 30.0
        while time.time() < deadline:
            if leases.is_dir() and any(leases.glob("*.lease")):
                break
            time.sleep(0.01)
        victim.join(timeout=60.0)
        assert victim.exitcode == -signal.SIGKILL, victim.exitcode
        assert not (tmp / "victim.json").exists()

        survivors = [
            multiprocessing.Process(
                target=_fleet_worker,
                args=(
                    str(workspace), str(store_dir),
                    str(tmp / f"survivor{index}.json"),
                    f"survivor{index}", lease_ttl, False,
                ),
            )
            for index in range(config["fleet_survivors"])
        ]
        for process in survivors:
            process.start()
        for process in survivors:
            process.join(timeout=120.0)
            assert process.exitcode == 0, process.exitcode

        reports = [
            json.loads((tmp / f"survivor{index}.json").read_text())
            for index in range(config["fleet_survivors"])
        ]
        # Exactly-once accounting: a verdict is appended only when no
        # peer's is found, the dead worker's lease was stolen, and
        # every survivor assembled the complete matrix.
        stolen = sum(report["stats"]["stolen"] for report in reports)
        published = sum(report["stats"]["published"] for report in reports)
        assert stolen >= 1, [report["stats"] for report in reports]
        assert published == cells, [report["stats"] for report in reports]
        for report in reports:
            assert report["counters"]["total"] == cells
            assert report["counters"]["quarantined"] == 0
            assert report["results"] == oracle_bytes
        keys = _published_keys(store_dir)
        assert len(set(keys)) == len(keys) == cells
        assert not list(store_dir.rglob("*.tmp"))

        # Corrupt one published verdict of a dead peer's segment after
        # the fact: a fresh reader must detect it (never trust it) and
        # quarantine the segment as evidence ...
        segment, first = next(
            (segment, record)
            for segment in sorted(store_dir.glob("seg*.log"))
            for record in parse_segment(segment.read_bytes())[0]
            if record[1] == "verdict"
        )
        raw = bytearray(segment.read_bytes())
        raw[raw.index(first[4]) + len(first[4]) // 2] ^= 0xFF
        segment.write_bytes(bytes(raw))
        auditor = ResultCache(store_dir)
        assert auditor.get(first[2]) is None
        assert auditor.corrupt == 1 and auditor.quarantined == 1

        # ... and one more fleet pass re-derives exactly that cell from
        # source while serving every intact published verdict from the
        # shared cache.
        redo_worklist = WorkList(
            ResultCache(store_dir), owner="rederive", lease_ttl=lease_ttl
        )
        redo = RegressionScheduler(
            targets=[lookup_target(name) for name in TARGETS],
            worklist=redo_worklist,
        ).run_system(environments, derivative)
        assert redo.executed_runs == 1 and redo.cached_runs == cells - 1
        redo_bytes = {
            "/".join(key): json.dumps(
                result_to_payload(result), sort_keys=True
            )
            for key, result in redo.results.items()
        }
        assert redo_bytes == oracle_bytes
        verify = ResultCache(store_dir)
        for key in set(_published_keys(store_dir)):
            assert verify.get(key) is not None
        assert verify.hits == cells and verify.corrupt == 0

    return {
        "cells": cells,
        "killed_workers": 1,
        "stolen_leases": stolen,
        "published": published,
        "corrupt_detected": auditor.corrupt,
        "quarantined_evidence": auditor.quarantined,
        "rederived_cells": redo.executed_runs,
        "mode": config["mode"],
    }


# ---------------------------------------------------------------------------
# pytest entry points (full configuration)
# ---------------------------------------------------------------------------

def test_warm_start_speedup_gate():
    numbers = run_warm_start(FULL)
    RESULTS["warm_start"] = numbers
    shape(
        f"artifact_store: warm process start at {numbers['speedup']:.3f}x "
        f"of cold re-derivation over {numbers['runs']} runs, zero decode "
        f"misses (floor {FULL['min_warm_speedup']}x)"
    )
    assert numbers["speedup"] >= FULL["min_warm_speedup"], (
        f"warm-start gate: {numbers['speedup']:.3f}x below "
        f"{FULL['min_warm_speedup']}x"
    )


def test_zero_fault_overhead_gate():
    numbers = run_zero_fault(FULL)
    RESULTS["zero_fault"] = numbers
    shape(
        f"artifact_store: store+work-list matrix at "
        f"{numbers['speedup']:.3f}x of plain serial over "
        f"{numbers['runs']} runs (floor {FULL['min_zero_fault_speedup']}x "
        f"= <=5% overhead)"
    )
    assert numbers["speedup"] >= FULL["min_zero_fault_speedup"], (
        f"zero-fault overhead gate: {numbers['speedup']:.3f}x below "
        f"{FULL['min_zero_fault_speedup']}x (more than 5% slower)"
    )


def test_chaos_fleet_and_emit_json():
    numbers = run_chaos(FULL)
    RESULTS["chaos"] = numbers
    shape(
        f"artifact_store: fleet survived {numbers['killed_workers']} "
        f"SIGKILLed worker ({numbers['stolen_leases']} lease(s) stolen) "
        f"and {numbers['corrupt_detected']} corrupt record "
        f"(quarantined + re-derived), verdicts byte-identical"
    )
    path = RESULTS.emit()
    shape(f"artifact_store: wrote {path.name}")


# ---------------------------------------------------------------------------
# script mode: the CI perf-smoke gate
# ---------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    config = QUICK if quick else FULL
    try:
        warm_start = run_warm_start(config)
        zero_fault = run_zero_fault(config)
        chaos = run_chaos(config)
    except AssertionError as failure:
        print(f"FAIL: {failure}")
        return 1
    RESULTS["warm_start"] = warm_start
    RESULTS["zero_fault"] = zero_fault
    RESULTS["chaos"] = chaos
    path = RESULTS.emit()
    print(
        f"artifact_store[{config['mode']}]: warm start "
        f"{warm_start['speedup']}x (floor {config['min_warm_speedup']}x), "
        f"zero-fault {zero_fault['speedup']}x (floor "
        f"{config['min_zero_fault_speedup']}x), chaos fleet survived "
        f"{chaos['killed_workers']} kill + {chaos['corrupt_detected']} "
        f"corrupt record -> {path.name}"
    )
    failed = False
    if warm_start["speedup"] < config["min_warm_speedup"]:
        print(
            f"FAIL: warm start {warm_start['speedup']}x below the "
            f"{config['min_warm_speedup']}x floor"
        )
        failed = True
    if zero_fault["speedup"] < config["min_zero_fault_speedup"]:
        print(
            f"FAIL: store+work-list matrix {zero_fault['speedup']}x below "
            f"the {config['min_zero_fault_speedup']}x overhead floor"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
