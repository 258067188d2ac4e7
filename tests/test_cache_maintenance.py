"""ResultCache maintenance: quarantine uniqueness, pruning and
multi-process crash consistency.

The serving daemon makes the cache a long-lived, *shared* resource:
several regressions (and several processes) may append to one log
concurrently for days.  These tests pin the maintenance contract that
makes that safe — repeated corruption preserves every piece of
forensic evidence, pruning compacts the log without touching live
writers' segments, and concurrent appenders and readers never produce
a torn read or a lost update."""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from logtools import (
    CODE,
    DECODES,
    OBJECTS,
    VERDICT,
    envelope,
    rot_record,
    segments,
)
from repro import cli
from repro.core.durable import parse_segment, quarantine_aside
from repro.core.scheduler import CACHE_SCHEMA, RegressionScheduler, ResultCache
from repro.core.system_env import make_default_system
from repro.core.workspace import write_system_environment
from repro.core.targets import all_targets, target
from repro.core.workloads import make_nvm_environment
from repro.platforms.base import DEFAULT_MAX_INSTRUCTIONS, RunResult, RunStatus
from repro.soc.derivatives import SC88A
from repro.store import WorkList


SRC = Path(__file__).resolve().parents[1] / "src"


def make_result(tag: str) -> RunResult:
    return RunResult(
        platform=tag, derivative="sc88a", status=RunStatus.PASS
    )


# --------------------------------------------------------------------------
# quarantine uniqueness
# --------------------------------------------------------------------------

class TestQuarantine:
    def test_repeated_corruption_preserves_every_file(self, tmp_path):
        """A key that corrupts three times must leave *three*
        quarantined segments — no quarantine clobbers another."""
        key = "deadbeef"
        total = ResultCache(tmp_path)
        for round_index in range(3):
            writer = ResultCache(tmp_path)
            writer.put(key, make_result(f"round-{round_index}"))
            writer.close()
            rot_record(tmp_path, VERDICT)
            reader = ResultCache(tmp_path)
            assert reader.get(key) is None
            assert (reader.corrupt, reader.quarantined) == (1, 1)
            reader.close()
            total.corrupt += reader.corrupt
            total.quarantined += reader.quarantined
        quarantined = sorted(tmp_path.glob("*.corrupt"))
        assert len(quarantined) == 3
        assert len({path.name for path in quarantined}) == 3
        assert total.stats()["corrupt"] == total.stats()["quarantined"] == 3

    def test_lost_race_leaves_no_empty_decoy(self, tmp_path):
        """If the corrupt file vanished (another process quarantined it
        first), no placeholder may survive to be mistaken for
        evidence."""
        assert quarantine_aside(tmp_path / "vanished.json") is False
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------
# pruning
# --------------------------------------------------------------------------

class TestPrune:
    BASE = 1_000_000_000

    def fill(self, directory: Path, count: int) -> int:
        """*count* verdicts, 100 s apart, from one writer that exits."""
        writer = ResultCache(directory)
        for index in range(count):
            key = f"key{index:02d}"
            writer.clock = lambda index=index: self.BASE + index * 100
            writer.put(key, make_result(key))
        writer.close()
        return self.BASE

    @staticmethod
    def survivors(directory: Path) -> list[str]:
        fresh = ResultCache(directory)
        return sorted(fresh._load().get("verdict", {}))

    def test_noop_without_bounds(self, tmp_path):
        self.fill(tmp_path, 3)
        cache = ResultCache(tmp_path)
        assert cache.prune() == 0
        assert cache.pruned == 0
        assert len(self.survivors(tmp_path)) == 3

    def test_max_entries_keeps_newest(self, tmp_path):
        self.fill(tmp_path, 5)
        cache = ResultCache(tmp_path)
        assert cache.prune(max_entries=2) == 3
        assert cache.get("key00") is None
        assert self.survivors(tmp_path) == ["key03", "key04"]
        assert cache.pruned == 3
        assert cache.stats()["pruned"] == 3
        # One segment, this writer's, holds what is left.
        assert len(segments(tmp_path)) == 1

    def test_max_age_drops_stale_entries(self, tmp_path):
        base = self.fill(tmp_path, 4)
        cache = ResultCache(tmp_path)
        # Horizon chosen so the two oldest entries age out.
        removed = cache.prune(max_age=250, now=base + 400)
        assert removed == 2
        assert self.survivors(tmp_path) == ["key02", "key03"]

    def test_max_age_reaps_quarantined_evidence(self, tmp_path):
        self.fill(tmp_path, 1)
        rot_record(tmp_path, VERDICT)
        cache = ResultCache(tmp_path)
        assert cache.get("key00") is None
        corrupt = next(tmp_path.glob("*.corrupt"))
        os.utime(corrupt, (1_000, 1_000))
        # Old evidence ages out; entry bounds never touch .corrupt.
        assert cache.prune(max_entries=100) == 0
        assert corrupt.exists()
        assert cache.prune(max_age=10, now=2_000) == 1
        assert not corrupt.exists()

    def test_live_writers_segments_are_left_alone(self, tmp_path):
        self.fill(tmp_path, 3)
        live = ResultCache(tmp_path)
        live.put("live", make_result("live"))
        cache = ResultCache(tmp_path)
        assert cache.prune(max_entries=0) == 3
        assert self.survivors(tmp_path) == ["live"]
        live.close()

    def test_cli_cache_prune_plumbing(self, tmp_path, capsys):
        workspace = write_system_environment(
            make_default_system(nvm_tests=1, uart_tests=0),
            tmp_path / "ws",
        )
        cache_dir = tmp_path / "cache"
        code = cli.main(
            [
                "regress",
                str(workspace),
                "NVM",
                "--targets",
                "golden",
                "--cache-dir",
                str(cache_dir),
                "--cache-prune",
                "--cache-max-entries",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cache-prune: removed 1 record(s)" in out
        assert "pruned=1" in out
        assert not ResultCache(cache_dir)._load().get("verdict")


# --------------------------------------------------------------------------
# multi-process stress
# --------------------------------------------------------------------------

STRESS_KEYS = [f"stress{i:02d}" for i in range(6)]


def _stress_worker(directory: str, seed: int, rounds: int) -> dict:
    """One process's share of the hammering: appends, reads through
    fresh readers (each one reads every segment, while peers append to
    theirs), and deliberate in-place bit rot of peers' segments."""
    rng = random.Random(seed)
    cache = ResultCache(directory)
    totals = {"hits": 0, "corrupt": 0, "torn": 0}
    torn_reads = 0
    unexpected_errors = 0
    for _ in range(rounds):
        key = rng.choice(STRESS_KEYS)
        roll = rng.random()
        try:
            if roll < 0.45:
                cache.put(key, make_result(key))
            elif roll < 0.90:
                reader = ResultCache(directory)
                result = reader.get(key)
                # The integrity contract: a returned result is always
                # a complete, checksum-valid payload for this key —
                # never a torn read, never another key's verdict.
                if result is not None and result.platform != key:
                    torn_reads += 1
                for name in totals:
                    totals[name] += getattr(reader, name)
                reader.close()
            else:
                # Simulated bit rot: overwrite one byte in place while
                # others are appending and reading.
                paths = segments(directory)
                if paths:
                    path = rng.choice(paths)
                    with open(path, "r+b") as stream:
                        size = stream.seek(0, os.SEEK_END)
                        if size:
                            stream.seek(rng.randrange(size))
                            stream.write(b"#")
        except Exception:
            unexpected_errors += 1
    cache.close()
    totals["torn_reads"] = torn_reads
    totals["unexpected_errors"] = unexpected_errors
    return totals


def test_concurrent_multiprocess_stress(tmp_path):
    """N processes append to one log directory, read it through fresh
    readers and rot it in place.  No worker may crash or observe a torn
    read, and a fresh reader afterwards reads the directory cleanly."""
    workers = 4
    rounds = 150
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_stress_worker, str(tmp_path), seed, rounds)
            for seed in range(workers)
        ]
        reports = [future.result(timeout=120) for future in futures]

    for report in reports:
        assert report["unexpected_errors"] == 0
        assert report["torn_reads"] == 0

    # Corruption really happened and was really detected somewhere.
    assert sum(report["corrupt"] for report in reports) > 0
    assert sum(report["hits"] for report in reports) > 0

    # Appends make no temp files.
    assert list(tmp_path.glob("*.tmp")) == []
    assert list(tmp_path.glob(".*.tmp")) == []

    # Every writer is gone: a fresh reader folds every damaged segment,
    # so the one after it reads only intact records.
    fresh = ResultCache(tmp_path)
    for key in STRESS_KEYS:
        result = fresh.get(key)
        if result is not None:
            assert result.platform == key
    fresh.close()
    healed = ResultCache(tmp_path)
    for key in STRESS_KEYS:
        result = healed.get(key)
        if result is not None:
            assert result.platform == key
    assert (healed.corrupt, healed.torn) == (0, 0)
    for path in segments(tmp_path):
        _records, corrupt, torn = parse_segment(path.read_bytes())
        assert (corrupt, torn) == ([], 0)


# --------------------------------------------------------------------------
# kill -9 mid-matrix
# --------------------------------------------------------------------------

def test_sigkill_mid_matrix_loses_no_complete_record(tmp_path):
    """A ``regress`` killed mid-matrix: the next run serves exactly the
    verdicts whose records completed, and executes the rest."""
    workspace = write_system_environment(
        make_default_system(nvm_tests=6, uart_tests=3), tmp_path / "ws"
    )
    cache_dir = tmp_path / "cache"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "regress", str(workspace),
         "--cache-dir", str(cache_dir)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and victim.poll() is None:
            paths = segments(cache_dir) if cache_dir.exists() else []
            if paths and paths[0].read_bytes().count(VERDICT) >= 20:
                break
            time.sleep(0.002)
        victim.send_signal(signal.SIGKILL)
    finally:
        victim.wait()
    assert victim.returncode == -signal.SIGKILL
    completed = set()
    before = segments(cache_dir)
    for path in before:
        intact, corrupt, _torn = parse_segment(path.read_bytes())
        assert corrupt == []
        completed |= {r[2] for r in intact if r[1] == "verdict"}
    assert len(completed) >= 20
    # Which positions those records answer: every position's key.
    keys = ResultCache(tmp_path / "keys")
    expected = 0
    system = make_default_system(nvm_tests=6, uart_tests=3)
    for environment in system.environments.values():
        for cell in environment.cells:
            for target in all_targets():
                image = environment.build_image(cell, SC88A, target).image
                key = keys.key_for(
                    image, target, SC88A, DEFAULT_MAX_INSTRUCTIONS
                )
                expected += key in completed
    assert expected >= len(completed)
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "regress", str(workspace),
         "--cache-dir", str(cache_dir)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert (
        f"{174 - expected} run(s) executed, {expected} served from cache"
        in out
    )
    assert "corrupt=0 " in out


# --------------------------------------------------------------------------
# what a run leaves on disk
# --------------------------------------------------------------------------

def test_cold_regress_appends_instead_of_creating_files(tmp_path):
    """A cold ``regress --cache-dir --store-dir`` leaves one log segment
    in each — the store's holds a decode pack, the executor table and
    the objects — and no temp file."""
    workspace = write_system_environment(
        make_default_system(nvm_tests=2, uart_tests=1), tmp_path / "ws"
    )
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "regress", str(workspace),
         "--cache-dir", str(tmp_path / "cache"),
         "--store-dir", str(tmp_path / "store")],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, check=True,
    )
    cache = [path.name for path in (tmp_path / "cache").iterdir()]
    assert len(cache) == 1 and cache[0].startswith("seg1-")
    store = tmp_path / "store" / "artifacts"
    assert list(store.iterdir()) == segments(store)
    (segment,) = segments(store)
    data = segment.read_bytes()
    for needle in (DECODES, CODE, OBJECTS):
        assert needle in data
    assert [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")] == []


def test_earlier_layout_cache_reads_as_misses(tmp_path):
    """A cache directory of the per-key file layout (one sealed JSON
    file per verdict, ``index/*.json``): every verdict is a miss,
    nothing is corrupt, and the first append removes those files —
    never evidence — so one run leaves only segments."""
    suite = {"NVM": make_nvm_environment(2)}
    writer = ResultCache(tmp_path / "log")
    cold = RegressionScheduler(cache=writer).run_system(suite, SC88A)
    old = tmp_path / "old"
    (old / "index").mkdir(parents=True)
    for key, text in writer._load()["verdict"].items():
        (old / f"{key}.json").write_bytes(envelope(CACHE_SCHEMA, text))
    positions = {
        position: value.split(" ")
        for position, value in writer._load()["index/NVM/sc88a"].items()
    }
    (old / "index" / "NVM.sc88a.json").write_bytes(envelope(
        CACHE_SCHEMA, json.dumps({"schema": 1, "positions": positions})
    ))
    evidence = old / "0123.4567.corrupt"
    evidence.write_bytes(b"rot")
    assert len(list(old.rglob("*.json"))) == cold.total_runs + 1
    cache = ResultCache(old)
    report = RegressionScheduler(cache=cache).run_system(suite, SC88A)
    assert report.executed_runs == cold.total_runs
    assert (cache.hits, cache.misses) == (0, cold.total_runs)
    assert (cache.corrupt, cache.quarantined, cache.torn) == (0, 0, 0)
    assert sorted(old.iterdir()) == sorted(segments(old) + [evidence])
    assert evidence.read_bytes() == b"rot"


def test_fleet_peers_append_to_their_own_segments(tmp_path):
    """Two fleet peers that read one shared cache before either wrote
    it each append the verdicts they publish to a segment of their own:
    the second adopts the first's golden column from the log and
    publishes the rest.  A third run serves the whole matrix from the
    two segments."""
    suite = {"NVM": make_nvm_environment(2)}
    peers = [ResultCache(tmp_path / "cache") for _ in range(2)]
    for peer in peers:
        peer._load()
    reports = [
        RegressionScheduler(
            targets=targets, worklist=WorkList(peer, owner=name)
        ).run_system(suite, SC88A)
        for name, peer, targets in zip(
            ("first", "second"), peers, ([target("golden")], all_targets())
        )
    ]
    golden = reports[0].total_runs
    assert reports[1].cached_runs == golden
    assert reports[1].executed_runs == reports[1].total_runs - golden
    assert len(segments(tmp_path / "cache")) == 2
    for peer in peers:
        peer.close()
    third = ResultCache(tmp_path / "cache")
    report = RegressionScheduler(cache=third).run_system(suite, SC88A)
    assert report.cached_runs == report.total_runs
    assert third.index_hits == report.total_runs
