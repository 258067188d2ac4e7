"""The durable-record contract (:mod:`repro.core.durable`), once per
owner.

The result cache (whose verdicts a fleet's peers share), the artifact
store and the serving daemon's job journal append records to a log
(:class:`~repro.core.durable.RecordLog`); :class:`TestRecordLog` holds
all three, and a fleet's work-list publishing to and fetching from the
shared cache, to one contract: a failed or mangled append, a torn tail at
every byte offset, a corrupt record kept as evidence, a segment
vanishing mid-read, and live writers' segments never folded.
:class:`TestRefresh` holds the one reader that rescans — a fleet's
work-list over the shared cache — to reading only what peers appended,
and only whole records.

The golden-bytes tests pin the on-disk formats, so every owner keeps
writing the same bytes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from logtools import DECODES, JOB, VERDICT, record_spans, rot_record, segments
from repro import cli
from repro.core import durable
from repro.core.durable import atomic_write, encode_record, quarantine_aside
from repro.core.faults import FaultInjector, FaultPlan, FaultSpec
from repro.core.scheduler import (
    RegressionScheduler,
    ResultCache,
    result_to_payload,
)
from repro.core.system_env import make_default_system
from repro.core.workloads import make_nvm_environment
from repro.core.workspace import write_system_environment
from repro.isa.decodecache import DecodeCache
from repro.platforms.base import RunResult, RunStatus
from repro.service.journal import JobJournal, JournalError
from repro.soc.derivatives import SC88A
from repro.store import artifacts
from repro.store.artifacts import ArtifactStore
from repro.store.worklist import WorkList


def make_result(cycles: int = 7) -> RunResult:
    return RunResult(
        platform="golden", derivative="sc88a", status=RunStatus.PASS,
        cycles=cycles,
    )


def make_decode_cache() -> DecodeCache:
    """A decode cache over 16 zero bytes (NOPs) with one entry."""
    image = SimpleNamespace(
        segments=[SimpleNamespace(base=0, end=16, data=bytes(16))]
    )
    cache = DecodeCache(image, 0, 16)
    cache.get(0)
    return cache


def temp_files(directory: Path) -> list[Path]:
    return [p for p in directory.rglob("*") if p.name.endswith(".tmp")]


def evidence(directory: Path) -> list[Path]:
    return list(directory.rglob("*.corrupt"))


# --------------------------------------------------------------------------
# the record log: the contract, once per owner
# --------------------------------------------------------------------------

class CacheLog:
    """The result cache: a write is a put, a read a get."""

    kind = ResultCache
    needle = VERDICT
    #: Misses a read of an absent value counts, and a read of a value
    #: whose record failed its checksum.
    miss = 1
    damaged_miss = 0
    #: What the owner's directory holds besides segments.
    entries = ()

    def __init__(self, directory: Path, injector=None):
        self.owner = ResultCache(directory, injector)

    def write(self, n: int) -> bool:
        return self.owner.put(f"key{n}", make_result(n))

    @staticmethod
    def read(reader: ResultCache, n: int):
        result = reader.get(f"key{n}")
        return None if result is None else result.cycles


class JournalLog:
    """The job journal: a write is an accept, a read the replay a
    restarted journal performs."""

    kind = JobJournal
    needle = JOB
    miss = 0
    damaged_miss = 0
    entries = ()

    def __init__(self, directory: Path, injector=None):
        self.owner = JobJournal(directory, injector)

    def write(self, n: int) -> bool:
        try:
            self.owner.accept(f"job-{n}", {"n": n})
        except JournalError:
            return False
        return True

    @staticmethod
    def read(reader: JobJournal, n: int):
        return dict(reader.pending_jobs()).get(f"job-{n}", {}).get("n")


class StoreLog:
    """The artifact store: a write appends one decode pack, a read
    restores its cache."""

    kind = ArtifactStore
    needle = DECODES
    miss = 1
    #: The keys of a damaged pack are inside its value: a read of one
    #: cannot tell it from a miss.
    damaged_miss = 1
    entries = ()

    def __init__(self, directory: Path, injector=None):
        self.owner = ArtifactStore(directory, injector)

    @staticmethod
    def key(n: int) -> tuple:
        return (f"{n:064x}", 0, 16, 0)

    def write(self, n: int) -> bool:
        self.owner.save_decode_cache(self.key(n), make_decode_cache())
        return self.owner.save_decode_pack() == 1

    @classmethod
    def read(cls, reader: ArtifactStore, n: int):
        return None if reader.load_decode_cache(cls.key(n)) is None else n


class WorkListLog:
    """A fleet peer over the shared cache: a write is a work-list
    publish (refresh, check, append), a read a work-list fetch of what
    the reader's cache holds."""

    kind = ResultCache
    needle = VERDICT
    #: A poll of a cell no peer published is not a cache miss.
    miss = 0
    damaged_miss = 0
    #: The lease files live beside the cache's log.
    entries = ("leases",)

    def __init__(self, directory: Path, injector=None):
        self.worklist = WorkList(ResultCache(directory, injector))
        self.owner = self.worklist.cache

    def write(self, n: int) -> bool:
        return self.worklist.publish(f"cell{n}", make_result(n))

    @staticmethod
    def read(reader: ResultCache, n: int):
        result = WorkList(reader).fetch(f"cell{n}")
        return None if result is None else result.cycles


LOGS = {
    "artifact-store": StoreLog,
    "journal": JournalLog,
    "result-cache": CacheLog,
    "worklist": WorkListLog,
}


@pytest.fixture(params=sorted(LOGS))
def log(request):
    return LOGS[request.param]


def write_plan(log, action: str) -> FaultInjector:
    return FaultInjector(FaultPlan(seed=3, specs=[
        FaultSpec(site=log.kind.write_site, action=action),
    ]))


def write_three(log, directory: Path) -> None:
    """Three values from one writer, which then exits."""
    writer = log(directory)
    for n in range(3):
        assert writer.write(n)
    writer.owner.close()


class TestRecordLog:
    def test_injected_write_raise_appends_nothing(self, tmp_path, log):
        writer = log(tmp_path, write_plan(log, "raise"))
        assert writer.write(0) is False
        assert writer.owner.write_errors == 1
        assert segments(tmp_path) == []
        assert temp_files(tmp_path) == []

    def test_injected_mangle_is_caught_by_the_next_reader(
        self, tmp_path, log
    ):
        writer = log(tmp_path, write_plan(log, "corrupt"))
        assert writer.write(0)
        assert writer.owner.injector.fired
        writer.owner.close()
        reader = log.kind(tmp_path)
        assert log.read(reader, 0) is None
        # (The flipped bytes may fall in the key, which then reads as
        # a miss too: the record cannot say whose it was.)
        assert (reader.corrupt, reader.torn) == (1, 0)
        assert temp_files(tmp_path) == []

    def test_failed_append_is_counted_and_contained(
        self, tmp_path, monkeypatch, log
    ):
        def full(*_args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(durable.os, "open", full)
        writer = log(tmp_path)
        assert writer.write(0) is False
        assert writer.owner.write_errors == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == list(log.entries)

    def test_torn_tail_at_every_offset_is_dropped_and_counted(
        self, tmp_path, log
    ):
        """A writer killed inside its last record: whatever prefix of
        it reached the disk, every complete record still reads and the
        torn one is dropped and counted — never read (for the journal:
        never pending), never corrupt, never quarantined."""
        write_three(log, tmp_path / "whole")
        (segment,) = segments(tmp_path / "whole")
        data = segment.read_bytes()
        start, end = record_spans(segment)[-1]
        for cut in range(start + 1, end):
            directory = tmp_path / f"cut{cut}"
            directory.mkdir()
            (directory / segment.name).write_bytes(data[:cut])
            reader = log.kind(directory)
            assert log.read(reader, 0) == 0
            assert log.read(reader, 1) == 1
            assert log.read(reader, 2) is None
            assert (reader.torn, reader.corrupt) == (1, 0)
            assert reader.misses == log.miss
            assert reader.quarantined == 0
            assert evidence(directory) == []
        # The reader folded the dead, torn segment: the next one reads
        # the complete records and nothing torn.
        healed = log.kind(directory)
        assert log.read(healed, 1) == 1
        assert (healed.torn, healed.corrupt) == (0, 0)

    def test_corrupt_record_is_quarantined_once_its_writer_is_gone(
        self, tmp_path, log
    ):
        writer = log(tmp_path)
        for n in range(3):
            writer.write(n)
        segment = rot_record(tmp_path, log.needle, nth=1)
        # Writer alive: counted, never served, left where it is.
        reader = log.kind(tmp_path)
        assert log.read(reader, 1) is None
        assert log.read(reader, 0) == 0
        assert (reader.corrupt, reader.quarantined) == (1, 0)
        assert reader.misses == log.damaged_miss
        assert segment.exists()
        writer.owner.close()
        # Writer gone: the segment becomes evidence, its intact records
        # move to the reader's own segment.
        folder = log.kind(tmp_path)
        assert log.read(folder, 2) == 2
        assert (folder.corrupt, folder.quarantined) == (1, 1)
        (aside,) = evidence(tmp_path)
        assert aside.name.startswith(f"{segment.stem}.")
        folder.close()
        healed = log.kind(tmp_path)
        assert log.read(healed, 0) == 0
        assert log.read(healed, 2) == 2
        assert log.read(healed, 1) is None
        assert (healed.corrupt, healed.misses) == (0, log.miss)

    def test_segment_vanishing_mid_read_is_a_miss(
        self, tmp_path, monkeypatch, log
    ):
        writer = log(tmp_path)
        writer.write(0)
        (target,) = segments(tmp_path)
        real_read = Path.read_bytes

        def vanish(path):
            if path == target:
                path.unlink()
            return real_read(path)

        monkeypatch.setattr(Path, "read_bytes", vanish)
        reader = log.kind(tmp_path)
        assert log.read(reader, 0) is None
        assert (reader.corrupt, reader.quarantined) == (0, 0)
        assert reader.misses == log.miss
        writer.owner.close()

    def test_live_segments_are_never_folded(self, tmp_path, log):
        """Dead segments fold into the reader's own (the cache's once
        more than the fold bound exist, the journal's at every boot);
        a live writer's segment is left alone."""
        live = log(tmp_path)
        live.write(99)
        for n in range(durable.FOLD_SEGMENTS + 1):
            writer = log(tmp_path)
            writer.write(n)
            writer.owner.close()
        reader = log.kind(tmp_path)
        assert log.read(reader, 0) == 0
        assert len(segments(tmp_path)) == 2
        reader.close()
        assert log.read(log.kind(tmp_path), 99) == 99
        live.owner.close()


# --------------------------------------------------------------------------
# refresh: the work-list's view of what its peers append
# --------------------------------------------------------------------------

class TestRefresh:
    def test_a_verdict_a_peer_appends_later_is_adopted_by_the_next_fetch(
        self, tmp_path
    ):
        reader = WorkList(ResultCache(tmp_path), owner="reader")
        peer = WorkList(ResultCache(tmp_path), owner="peer")
        assert reader.fetch("first") is None  # the first read
        assert peer.publish("first", make_result(1))
        # Read once: a plain fetch does not rescan; the fetch after a
        # claim does.
        assert reader.fetch("first") is None
        assert reader.fetch("first", targeted=True).cycles == 1
        # A refresh reads only what the peer's segment gained: a record
        # it read before may rot on disk unseen.
        rot_record(tmp_path, VERDICT)
        assert peer.publish("second", make_result(2))
        reader.cache.refresh()
        assert reader.fetch("second").cycles == 2
        cache = reader.cache
        assert (cache.hits, cache.corrupt, cache.torn) == (2, 0, 0)

    def test_a_live_peers_half_written_record_waits_for_its_newline(
        self, tmp_path
    ):
        peer = WorkList(ResultCache(tmp_path), owner="peer")
        assert peer.publish("first", make_result(1))
        (segment,) = segments(tmp_path)
        text = json.dumps(result_to_payload(make_result(2)), sort_keys=True)
        record = encode_record("verdict", "second", text, 1_000_000_000)
        half = len(record) // 2
        with open(segment, "ab") as stream:  # the peer is mid-write
            stream.write(record[:half])
        reader = WorkList(ResultCache(tmp_path), owner="reader")
        assert reader.fetch("first").cycles == 1
        assert reader.fetch("second", targeted=True) is None
        reader.cache.refresh()
        assert reader.fetch("second") is None
        assert (reader.cache.torn, reader.cache.corrupt) == (0, 0)
        with open(segment, "ab") as stream:
            stream.write(record[half:])
        assert reader.fetch("second", targeted=True).cycles == 2
        assert (reader.cache.torn, reader.cache.corrupt) == (0, 0)
        peer.cache.close()

    def test_a_result_cache_miss_never_rescans(self, tmp_path, monkeypatch):
        """Only a fleet refreshes: a cold serial 24-run matrix, every
        verdict a miss, lists the cache directory once."""
        directory = tmp_path / "cache"
        listed = []
        real_scandir = os.scandir

        def scandir(path="."):
            if Path(path) == directory:
                listed.append(path)
            return real_scandir(path)

        monkeypatch.setattr(durable.os, "scandir", scandir)
        cache = ResultCache(directory)
        report = RegressionScheduler(cache=cache).run_system(
            {"NVM": make_nvm_environment(4)}, SC88A
        )
        assert report.executed_runs == report.total_runs == 24
        assert cache.misses == 24
        assert len(listed) == 1


# --------------------------------------------------------------------------
# an uncreatable directory
# --------------------------------------------------------------------------

class TestUnavailableDirectory:
    @pytest.fixture
    def squatter(self, tmp_path) -> Path:
        path = tmp_path / "state"
        path.write_text("a file where a directory should be")
        return path

    def test_result_cache_degrades_to_no_ops(self, squatter):
        cache = ResultCache(squatter)
        assert cache.disabled
        key = "k" * 64
        assert cache.put(key, make_result()) is False
        assert cache.get(key) is None
        assert cache.save_index("NVM", "sc88a", {"p": ("b", "d")}) is False
        assert cache.load_index("NVM", "sc88a") == {}
        assert cache.prune(max_entries=0) == 0
        stats = cache.stats()
        assert stats["disabled"] == 1
        assert stats["write_errors"] == stats["misses"] == 0

    def test_journal_refuses_to_start(self, squatter):
        with pytest.raises(JournalError):
            JobJournal(squatter)

    def test_regress_with_uncreatable_cache_dir_completes(
        self, tmp_path, squatter, capsys
    ):
        workspace = write_system_environment(
            make_default_system(nvm_tests=1, uart_tests=0),
            tmp_path / "ws",
        )
        code = cli.main([
            "regress", str(workspace), "NVM", "--targets", "golden,rtl",
            "--cache-dir", str(squatter),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2 runs ok" in out
        stats = dict(
            pair.split("=")
            for pair in out.split("cache-stats: ", 1)[1].split()
        )
        assert stats["disabled"] == "1"
        assert stats["write_errors"] == "0"


# --------------------------------------------------------------------------
# the on-disk formats did not change
# --------------------------------------------------------------------------

GOLDEN_RECORD = (
    b"dd1b971e100204aa704405026b41c139a82cd6e787e8679c27a005d9109c22a7\t"
    b'1000000000\tverdict\tk1\t{"cycles": 7, "derivative": "sc88a", "done'
    b'_pin": null, "fault_reason": null, "instructions": 0, "pass_pin": nul'
    b'l, "platform": "golden", "registers": null, "result_word": null, "sig'
    b'nature": null, "status": "pass", "trace": null, "uart_output": null}\n'
)

GOLDEN_PACK = (
    b"5492337a54304e73a7b0651f903414df2cf783718bf4b0a19a3a85c13ba6ce31\t"
    b"1000000000\tdecodes/" + b"m" * 64 + b"\t"
    b"ff09d4338b58df38b212a5b6f3c840b12c727dce97f844ba691050b363416b1d\t"
    b'{"keys":[["' + b"d" * 64 + b'",0,16,0]],"stamps":[[1,0]]} '
    b"gAWVDwAAAAAAAABdlIwIc25hcHNob3SUYS4=\n"
)

GOLDEN_JOURNAL = (
    b"f6d7d8dbb3e9cb6aa24878a559c3df18f52cc83bd15f04ce22c762277ca1e88c\t"
    b'1000000000\tjob\tjob-000001\t{"data": {"name": "pack"}, "kind": "acc'
    b'epted"}\n'
)


class TestGoldenBytes:
    def test_result_cache_record(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.clock = lambda: 1_000_000_000
        cache.put("k1", make_result(7))
        (segment,) = segments(tmp_path)
        assert segment.read_bytes() == GOLDEN_RECORD
        text = json.dumps(result_to_payload(make_result(7)), sort_keys=True)
        assert encode_record(
            "verdict", "k1", text, 1_000_000_000
        ) == GOLDEN_RECORD

    def test_decode_pack(self, tmp_path, monkeypatch):
        monkeypatch.setattr(artifacts, "_snapshot", lambda cache: "snapshot")
        monkeypatch.setattr(artifacts, "model_digest", lambda: "m" * 64)
        store = ArtifactStore(tmp_path)
        store.clock = lambda: 1_000_000_000
        key = ("d" * 64, 0, 16, 0)
        assert store.save_decode_cache(key, make_decode_cache())
        assert store.save_decode_pack() == 1
        (segment,) = segments(tmp_path)
        assert segment.read_bytes() == GOLDEN_PACK

    def test_worklist_result_and_journal_record(self, tmp_path):
        """A verdict the work-list publishes is the result cache's
        record, byte for byte."""
        cache = ResultCache(tmp_path / "shared")
        cache.clock = lambda: 1_000_000_000
        assert WorkList(cache).publish("k1", make_result(7))
        (segment,) = segments(tmp_path / "shared")
        assert segment.read_bytes() == GOLDEN_RECORD
        journal = JobJournal(tmp_path / "journal")
        journal.clock = lambda: 1_000_000_000
        journal.accept("job-000001", {"name": "pack"})
        journal.close()
        (segment,) = segments(tmp_path / "journal")
        assert segment.read_bytes() == GOLDEN_JOURNAL


class TestPrimitives:
    def test_exclusive_write_keeps_the_first(self, tmp_path):
        path = tmp_path / "result.json"
        assert atomic_write(path, b"first", exclusive=True) is True
        assert atomic_write(path, b"second", exclusive=True) is False
        assert path.read_bytes() == b"first"
        assert atomic_write(path, b"third") is True
        assert path.read_bytes() == b"third"
        assert temp_files(tmp_path) == []

    def test_quarantine_names_are_unique(self, tmp_path):
        for round_index in range(2):
            path = tmp_path / "entry.json"
            path.write_bytes(b"rot %d" % round_index)
            assert quarantine_aside(path) is True
            assert not path.exists()
        names = [p.name for p in evidence(tmp_path)]
        assert len(set(names)) == 2
        assert all(name.startswith("entry.") for name in names)

    def test_lost_quarantine_race_leaves_no_decoy(self, tmp_path):
        """A peer set the segment aside (or removed it) first: nothing
        is renamed, and the placeholder name is not left behind."""
        assert quarantine_aside(tmp_path / "seg1-gone.log") is False
        assert evidence(tmp_path) == []
