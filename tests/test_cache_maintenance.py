"""ResultCache maintenance: quarantine uniqueness, pruning and
multi-process crash consistency.

The serving daemon makes the cache a long-lived, *shared* resource:
several regressions (and several processes) may hammer one directory
concurrently for days.  These tests pin the maintenance contract that
makes that safe — repeated corruption preserves every piece of
forensic evidence, pruning bounds the directory without racing
writers, and concurrent get/put/corrupt traffic never produces a
torn read or a lost update."""

from __future__ import annotations

import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro import cli
from repro.core.durable import quarantine_aside
from repro.core.scheduler import ResultCache
from repro.core.system_env import make_default_system
from repro.core.workspace import write_system_environment
from repro.platforms.base import RunResult, RunStatus


def make_result(tag: str) -> RunResult:
    return RunResult(
        platform=tag, derivative="sc88a", status=RunStatus.PASS
    )


# --------------------------------------------------------------------------
# quarantine uniqueness
# --------------------------------------------------------------------------

class TestQuarantine:
    def test_repeated_corruption_preserves_every_file(self, tmp_path):
        """A key that corrupts twice must leave *two* quarantined files
        — the second quarantine must not clobber the first."""
        cache = ResultCache(tmp_path)
        key = "deadbeef"
        for round_index in range(3):
            cache.put(key, make_result(f"round-{round_index}"))
            (tmp_path / f"{key}.json").write_bytes(b"bit rot")
            assert cache.get(key) is None
        quarantined = sorted(tmp_path.glob("*.corrupt"))
        assert len(quarantined) == 3
        assert len({path.name for path in quarantined}) == 3
        assert cache.quarantined == 3
        assert cache.corrupt == 3
        assert cache.stats()["quarantined"] == 3

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
    def fill(self, cache: ResultCache, directory: Path, count: int):
        base = 1_000_000_000
        for index in range(count):
            key = f"key{index:02d}"
            cache.put(key, make_result(key))
            stamp = base + index * 100
            os.utime(directory / f"{key}.json", (stamp, stamp))
        return base

    def test_noop_without_bounds(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.fill(cache, tmp_path, 3)
        assert cache.prune() == 0
        assert cache.pruned == 0
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_max_entries_keeps_newest(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.fill(cache, tmp_path, 5)
        assert cache.prune(max_entries=2) == 3
        survivors = sorted(p.stem for p in tmp_path.glob("*.json"))
        assert survivors == ["key03", "key04"]
        assert cache.pruned == 3
        assert cache.stats()["pruned"] == 3

    def test_max_age_drops_stale_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = self.fill(cache, tmp_path, 4)
        # Horizon chosen so the two oldest entries age out.
        removed = cache.prune(max_age=250, now=base + 400)
        assert removed == 2
        survivors = sorted(p.stem for p in tmp_path.glob("*.json"))
        assert survivors == ["key02", "key03"]

    def test_max_age_reaps_quarantined_evidence(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("badkey", make_result("badkey"))
        (tmp_path / "badkey.json").write_bytes(b"rot")
        assert cache.get("badkey") is None
        corrupt = next(tmp_path.glob("*.corrupt"))
        os.utime(corrupt, (1_000, 1_000))
        # Old evidence ages out; entry bounds never touch .corrupt.
        assert cache.prune(max_entries=100) == 0
        assert corrupt.exists()
        assert cache.prune(max_age=10, now=2_000) == 1
        assert not corrupt.exists()

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
        assert "cache-prune: removed 1 file(s)" in out
        assert "pruned=1" in out
        assert list(cache_dir.glob("*.json")) == []


# --------------------------------------------------------------------------
# multi-process stress
# --------------------------------------------------------------------------

STRESS_KEYS = [f"stress{i:02d}" for i in range(6)]


def _stress_worker(directory: str, seed: int, rounds: int) -> dict:
    """One process's share of the hammering: interleaved puts, gets and
    deliberate non-atomic corruption of a shared cache directory."""
    rng = random.Random(seed)
    cache = ResultCache(directory)
    torn_reads = 0
    unexpected_errors = 0
    for _ in range(rounds):
        key = rng.choice(STRESS_KEYS)
        roll = rng.random()
        try:
            if roll < 0.45:
                cache.put(key, make_result(key))
            elif roll < 0.90:
                result = cache.get(key)
                # The integrity contract: a returned result is always
                # a complete, checksum-valid payload for this key —
                # never a torn read, never another key's verdict.
                if result is not None and result.platform != key:
                    torn_reads += 1
            else:
                # Simulated bit rot / torn write: flip one byte in
                # place, non-atomically, while others are reading.
                path = Path(directory) / f"{key}.json"
                try:
                    data = bytearray(path.read_bytes())
                    if data:
                        data[rng.randrange(len(data))] ^= 0xFF
                        path.write_bytes(bytes(data))
                except OSError:
                    pass
        except Exception:
            unexpected_errors += 1
    stats = cache.stats()
    stats["torn_reads"] = torn_reads
    stats["unexpected_errors"] = unexpected_errors
    return stats


def test_concurrent_multiprocess_stress(tmp_path):
    """N processes hammer one cache directory with get/put/corrupt.
    No worker may crash, observe a torn read, or leave the directory
    in a state a fresh cache cannot read cleanly."""
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

    # No half-written temp files survive the melee.
    assert list(tmp_path.glob("*.tmp")) == []
    assert list(tmp_path.glob(".*.tmp")) == []

    # Every surviving entry is complete and checksum-valid: a fresh
    # cache reads the directory without tripping over wreckage.
    fresh = ResultCache(tmp_path)
    for path in tmp_path.glob("*.json"):
        key = path.stem
        result = fresh.get(key)
        if result is not None:
            assert result.platform == key
    # Whatever the last writers left corrupt is quarantined evidence
    # now, accounted for, and off the hot path.
    assert fresh.corrupt == fresh.quarantined
    for path in tmp_path.glob("*.json"):
        body = json.loads(path.read_bytes())
        assert {"schema", "checksum", "payload"} <= set(body)
