"""Artifact-store acceptance: snapshot fidelity, corrupt-never-trusted,
degradation, pruning, registry warm-start and the registry-reset fix.

The store's contract (the robustness issue's tentpole): a fresh process
warm-starts from persisted decode/superblock state instead of
re-paying predecode, a corrupt artifact is counted + quarantined aside
+ re-derived from source (corrupt != miss, never trusted), and a store
root that is unavailable degrades the run to local cold starts instead
of failing it.  Byte-identity of verdicts always comes before any
warm-start claim.
"""

from __future__ import annotations

import importlib.util
import json
import marshal
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from logtools import CODE, DECODES, OBJECTS, rot_record, segments
from repro.assembler.assembler import Assembler
from repro.assembler.errors import LinkError
from repro.assembler.linker import Linker
from repro.assembler.objectfile import ObjectFile
from repro.assembler.preprocessor import InMemoryProvider

from repro.core import environment as environment_module
from repro.core.durable import FOLD_SEGMENTS, parse_segment
from repro.core.environment import BASE_FUNCTIONS_FILENAME
from repro.core.scheduler import (
    RegressionScheduler,
    result_to_payload,
)
from repro.core.system_env import make_default_system
from repro.core.workloads import make_nvm_environment
from repro.core.workspace import (
    load_module_environment,
    write_system_environment,
)
from repro.core.targets import target as lookup_target
from repro.isa import decodecache
from repro.isa.decodecache import (
    DecodeCache,
    DecodedInstruction,
    registry_stats,
    reset_registry,
)
from repro.isa.encoding import decode_word
from repro.isa.instructions import Opcode, lookup_opcode
from repro.platforms.cpu import CpuCore
from repro.soc.derivatives import SC88A, SC88B, derivative as lookup_derivative
from repro.soc.device import SystemOnChip
from repro.store import (
    ArtifactStore,
    restore_decode_cache,
    set_artifact_store,
    snapshot_decode_cache,
)
from repro.store import artifacts

SRC = Path(__file__).resolve().parents[1] / "src"


def log_records(directory) -> list[tuple]:
    """The intact ``(stamp, space, key, value, line)`` records of every
    segment in *directory*."""
    return [
        record
        for path in segments(directory)
        for record in parse_segment(path.read_bytes())[0]
    ]


def object_keys(directory) -> set[str]:
    """The content keys of the object records in *directory*'s log."""
    return {
        record[2] for record in log_records(directory)
        if record[1] == "objects"
    }


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """One small (env, derivative, targets) matrix, loaded once."""
    system_dir = write_system_environment(
        make_default_system(nvm_tests=1, uart_tests=0),
        tmp_path_factory.mktemp("store-ws") / "ws",
    )
    environments = {"NVM": load_module_environment(system_dir / "NVM")}
    derivative = lookup_derivative("sc88a")
    targets = [lookup_target("golden"), lookup_target("rtl")]
    return environments, derivative, targets


@pytest.fixture(autouse=True)
def clean_global_store():
    """No test leaks a process-global artifact store into the next."""
    yield
    set_artifact_store(None)


def run_matrix(matrix, **scheduler_kwargs):
    environments, derivative, targets = matrix
    scheduler = RegressionScheduler(targets=targets, **scheduler_kwargs)
    return scheduler, scheduler.run_system(environments, derivative)


def verdict_bytes(report) -> dict[tuple, bytes]:
    """Canonical byte encoding of every verdict in a report."""
    return {
        key: json.dumps(
            result_to_payload(result), sort_keys=True
        ).encode()
        for key, result in report.results.items()
    }


def warm_and_persist(matrix, store: ArtifactStore):
    """Run the matrix once with *store* installed; returns the report
    (the run's own finally-persist writes the artifacts)."""
    set_artifact_store(store)
    _scheduler, report = run_matrix(matrix)
    return report


# --------------------------------------------------------------------------
# roundtrip + warm-start byte identity
# --------------------------------------------------------------------------

class TestRoundtrip:
    def test_scheduler_run_persists_registry(self, tmp_path, matrix):
        store = ArtifactStore(tmp_path)
        reset_registry()
        warm_and_persist(matrix, store)
        assert store.saved >= 1
        assert store.write_errors == 0
        (segment,) = segments(tmp_path)
        assert DECODES in segment.read_bytes()

    def test_warm_start_is_byte_identical_and_skips_predecode(
        self, tmp_path, matrix
    ):
        store = ArtifactStore(tmp_path)
        reset_registry()
        cold_report = warm_and_persist(matrix, store)

        # Fresh "process": empty registry, fresh store handle.
        reset_registry()
        warm = ArtifactStore(tmp_path)
        set_artifact_store(warm)
        scheduler, warm_report = run_matrix(matrix)

        # Byte identity before any warmth claim.
        assert verdict_bytes(warm_report) == verdict_bytes(cold_report)
        assert warm.hits >= 1
        assert warm.corrupt == 0
        # The restored caches are fully predecoded: the warm run never
        # missed the decode cache.
        assert scheduler.engine_stats["decode_misses"] == 0

    def test_snapshot_restore_preserves_block_entry_aliasing(
        self, tmp_path, matrix
    ):
        reset_registry()
        run_matrix(matrix)
        key, cache = next(iter(decodecache._REGISTRY.items()))
        assert cache._entries  # the run warmed it
        restored = restore_decode_cache(snapshot_decode_cache(cache))
        assert set(restored._entries) == set(cache._entries)
        assert set(restored._blocks) == set(cache._blocks)
        assert restored._skip == cache._skip
        # The pickle memo must preserve identity: block bodies alias
        # the restored entries dict, not parallel copies.
        for pc, block in restored._blocks.items():
            for offset, entry in enumerate(block.body):
                assert entry is restored._entries[entry.pc]


# --------------------------------------------------------------------------
# superblock chains across the store: restored, never re-derived
# --------------------------------------------------------------------------

HOT_LOOP_SOURCE = """\
_main:
    LOAD d2, 0x1234
    LOAD d6, 300
loop:
    SHLI d4, d2, 13
    XOR d2, d2, d4
    SHRI d5, d2, 17
    XOR d2, d2, d5
    ADD d3, d3, d2
    DJNZ d6, loop
    HALT
"""


def hot_loop():
    """``(image, private cache, loop pc)`` for a loop whose block
    chains to itself."""
    memory_map = SC88A.memory_map()
    obj = Assembler().assemble_source(HOT_LOOP_SOURCE, "t.asm")
    image = Linker(
        text_base=memory_map.text_base, data_base=memory_map.data_base
    ).link([obj])
    rom = memory_map.rom
    cache = DecodeCache(image, rom.base, rom.base + rom.size)
    return image, cache, image.symbol("loop")


def run_on(image, cache, *, trace=False) -> CpuCore:
    memory_map = SC88A.memory_map()
    soc = SystemOnChip(SC88A)
    soc.load_image(image)
    cpu = CpuCore(soc.bus, intc=soc.intc)
    cpu.decode_cache = cache
    cpu.reset(image.entry, memory_map.stack_top)
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


class TestChainRoundtrip:
    def test_restored_chain_runs_without_decoding(self):
        image, cache, loop = hot_loop()
        run_on(image, cache)
        payload = snapshot_decode_cache(cache)
        restored = restore_decode_cache(payload)
        head = restored._blocks[loop]
        # The loop block's memoised successor is restored as itself.
        assert head.succ_taken is head
        for trace in (False, True):
            reference = run_on(image, hot_loop()[1], trace=trace)
            cpu = run_on(image, restored, trace=trace)
            assert cpu.sb_blocks > 0
            assert outcome(cpu) == outcome(reference)
        assert restored.misses == 0
        assert len(restored._blocks) == len(cache._blocks)

    @pytest.mark.parametrize(
        "written_by",
        [
            lambda patch: patch.setattr(
                importlib.util, "MAGIC_NUMBER", b"\x00\x00\r\n"
            ),
            lambda patch: patch.setattr(
                sys.implementation, "cache_tag", "other-0"
            ),
        ],
        ids=["magic_number", "cache_tag"],
    )
    def test_foreign_bytecode_snapshot_is_a_miss(
        self, tmp_path, monkeypatch, written_by
    ):
        """A snapshot written under another bytecode format names
        another model digest: it is a miss, never corruption.  The cache
        is re-derived and saved in this interpreter's pack, which later
        processes restore, and that first append compacts the foreign
        pack away."""
        image, cache, loop = hot_loop()
        rom = SC88A.memory_map().rom
        key = (image.digest(), rom.base, rom.base + rom.size, 0)
        run_on(image, cache)
        with monkeypatch.context() as patch:
            written_by(patch)
            writer = ArtifactStore(tmp_path)
            assert writer.save_decode_cache(key, cache)
            assert writer.save_decode_pack() == 1
            foreign = artifacts._decode_space()
        writer.close()
        reset_registry()
        store = ArtifactStore(tmp_path)
        set_artifact_store(store)
        rederived = decodecache.decode_cache_for(
            image, rom.base, rom.base + rom.size
        )
        assert rederived is not cache and not rederived._blocks
        run_on(image, rederived)
        assert (store.hits, store.misses) == (0, 1)
        assert (store.corrupt, store.quarantined) == (0, 0)
        assert decodecache.persist_registry() == 1
        # Saving compacts the log: the other code's pack is gone.
        spaces = {record[1] for record in log_records(tmp_path)}
        assert spaces == {artifacts._decode_space()} != {foreign}
        assert len(segments(tmp_path)) == 1
        rebound = ArtifactStore(tmp_path).load_decode_cache(key)
        assert rebound._blocks[loop].succ_taken is rebound._blocks[loop]


# --------------------------------------------------------------------------
# corrupt != miss: counted, quarantined aside, re-derived, never trusted
# --------------------------------------------------------------------------

class TestCorruption:
    def test_corrupt_artifact_is_quarantined_and_rederived(
        self, tmp_path, matrix
    ):
        store = ArtifactStore(tmp_path)
        reset_registry()
        cold_report = warm_and_persist(matrix, store)
        store.close()
        (segment,) = segments(tmp_path)
        rot_record(tmp_path, DECODES)

        reset_registry()
        fresh = ArtifactStore(tmp_path)
        set_artifact_store(fresh)
        _scheduler, report = run_matrix(matrix)

        # The rotted pack was detected, its segment renamed aside as
        # evidence once its writer was gone, and the state re-derived
        # from source — verdicts identical to the cold run, nothing
        # trusted.
        assert verdict_bytes(report) == verdict_bytes(cold_report)
        assert (fresh.corrupt, fresh.quarantined, fresh.hits) == (1, 1, 0)
        (evidence,) = tmp_path.glob("*.corrupt")
        assert evidence.name.startswith(f"{segment.stem}.")
        # The re-derived state was appended again by the run's
        # finally-persist.
        assert fresh.saved >= 1

    def test_repeated_corruption_preserves_every_evidence_file(
        self, tmp_path
    ):
        for n in range(3):
            writer = ArtifactStore(tmp_path)
            assert writer.save_decode_cache(tiny_key(n), tiny_cache())
            assert writer.save_decode_pack() == 1
            writer.close()
            rot_record(tmp_path, DECODES)
            reader = ArtifactStore(tmp_path)
            assert reader.load_decode_cache(tiny_key(n)) is None
            assert (reader.corrupt, reader.quarantined) == (1, 1)
        assert len(list(tmp_path.glob("*.corrupt"))) == 3

    def test_pack_whose_keys_disagree_with_its_pickle_is_corruption(
        self, tmp_path
    ):
        """An intact record whose pack names more keys than it pickled
        is counted, and nothing is quarantined: the bytes in the log
        are what was written."""
        store = ArtifactStore(tmp_path)
        state = [artifacts._snapshot(tiny_cache())]
        header = json.dumps(
            {"keys": [list(tiny_key(0)), list(tiny_key(1))]},
            separators=(",", ":"),
        )
        value = f"{header} {artifacts._text(artifacts._pickled(state))}"
        assert store.append(artifacts._decode_space(), {"pack": value}, "")
        fresh = ArtifactStore(tmp_path)
        assert fresh.load_decode_cache(tiny_key(1)) is None
        assert (fresh.corrupt, fresh.quarantined, fresh.hits) == (1, 0, 0)


# --------------------------------------------------------------------------
# degradation: an unavailable store is counted, never fatal
# --------------------------------------------------------------------------

class TestDegradation:
    def test_uncreatable_root_disables_the_store(self, tmp_path, matrix):
        squatter = tmp_path / "store"
        squatter.write_text("a file where the store root should be")
        store = ArtifactStore(squatter)
        assert store.disabled
        assert store.stats()["disabled"] == 1
        # Every operation is a contained no-op; the run still works.
        reset_registry()
        report = warm_and_persist(matrix, store)
        assert report.total_runs == len(report.results)
        assert store.saved == 0
        assert store.load_decode_cache(("k", 0, 1, 0)) is None

    def test_store_dir_is_not_a_fleets_shared_cache(self, tmp_path, capsys):
        """The store holds artifacts only: ``--fleet`` with a
        ``--store-dir`` but no ``--cache-dir`` is an error, and the
        store is never created."""
        from repro import cli

        store = tmp_path / "store"
        code = cli.main(
            ["regress", "/nonexistent", "--fleet", "--store-dir", str(store)]
        )
        assert code == 2
        assert "--fleet requires --cache-dir" in capsys.readouterr().err
        assert not store.exists()


# --------------------------------------------------------------------------
# packs
# --------------------------------------------------------------------------

def tiny_cache() -> DecodeCache:
    """A decode cache over 16 zero bytes (NOPs) with one entry."""
    image = SimpleNamespace(
        segments=[SimpleNamespace(base=0, end=16, data=bytes(16))]
    )
    cache = DecodeCache(image, 0, 16)
    cache.get(0)
    return cache


def tiny_key(n: int) -> tuple:
    return (f"{n:064x}", 0, 16, 0)


class TestPacks:
    def test_a_cache_that_does_not_pickle_costs_only_itself(self, tmp_path):
        store = ArtifactStore(tmp_path)
        broken = tiny_cache()
        broken._skip.add(lambda: None)
        assert store.save_decode_cache(tiny_key(0), tiny_cache())
        assert store.save_decode_cache(tiny_key(1), broken)
        assert store.saved == 2  # counted when queued...
        assert store.save_decode_pack() == 1
        assert store.saved == 1  # ...and taken back when left out
        assert store.write_errors == 1
        fresh = ArtifactStore(tmp_path)
        assert fresh.load_decode_cache(tiny_key(0)) is not None
        assert fresh.load_decode_cache(tiny_key(1)) is None
        assert (fresh.corrupt, fresh.misses) == (0, 1)

    def test_base_function_edits_leave_at_most_the_fold_bound(
        self, tmp_path
    ):
        """Twelve ``Base_Functions.asm`` edits, each regressed by its own
        store instance, closed afterwards as an exiting process would:
        every edit appends new objects and packs, and the directory
        still holds nothing but at most ``FOLD_SEGMENTS + 1``
        segments."""
        system_dir = write_system_environment(
            make_default_system(nvm_tests=1, uart_tests=0), tmp_path / "ws"
        )
        base = system_dir / "NVM" / "Abstraction_Layer" / BASE_FUNCTIONS_FILENAME
        directory = tmp_path / "store" / "artifacts"
        for n in range(12):
            with open(base, "a") as handle:
                handle.write(f"\nBase_Edit_{n}:\n    RETURN\n")
            reset_registry()
            store = ArtifactStore(directory)
            set_artifact_store(store)
            RegressionScheduler(targets=[lookup_target("golden")]).run_system(
                {"NVM": load_module_environment(system_dir / "NVM")}, SC88A
            )
            assert (store.obj_saved, store.write_errors) == (1, 0)
            store.close()
        names = sorted(path.name for path in directory.iterdir())
        assert names == [path.name for path in segments(directory)]
        assert 1 <= len(names) <= FOLD_SEGMENTS + 1
        assert len(object_keys(directory)) >= 12


# --------------------------------------------------------------------------
# registry semantics
# --------------------------------------------------------------------------

class TestRegistry:
    def test_reset_registry_zeroes_evictions_and_keeps_int_contract(
        self, matrix, monkeypatch
    ):
        """The satellite fix: ``reset_registry`` used to zero the
        registry but leave the eviction counter standing, so the next
        cold-start measurement inherited a previous sample's
        evictions."""
        reset_registry()
        # Force evictions: with a limit of 1, the matrix's second image
        # key (golden and rtl fetch with different wait states) evicts
        # the first.
        monkeypatch.setattr(decodecache, "_REGISTRY_LIMIT", 1)
        run_matrix(matrix)
        assert decodecache._REGISTRY
        assert registry_stats()["registry_evictions"] >= 1

        dropped = reset_registry()
        # The return is the plain count of dropped caches...
        assert type(dropped) is int and dropped >= 1
        # ...and the reset zeroes the eviction counter too.
        assert registry_stats() == {
            "registry_size": 0,
            "registry_evictions": 0,
        }

    def test_unchanged_persist_hashes_no_key(self, tmp_path, matrix,
                                            monkeypatch):
        """A warm daemon persists after every pack: once a key's
        snapshot is known, an unchanged check is a dict lookup and a
        stamp compare, with no SHA-256."""
        store = ArtifactStore(tmp_path)
        reset_registry()
        warm_and_persist(matrix, store)
        keys = len(decodecache._REGISTRY)
        hashed = []
        real = artifacts.checksum
        monkeypatch.setattr(
            artifacts, "checksum",
            lambda data: hashed.append(data) or real(data),
        )
        assert decodecache.persist_registry() == 0
        assert store.unchanged == keys
        assert hashed == []

    def test_renamed_segment_still_serves_its_keys(self, tmp_path, matrix):
        """A pack's record, not its segment's name, says what it holds:
        a segment under another writer's name still serves every key,
        and nothing is re-saved."""
        store = ArtifactStore(tmp_path)
        reset_registry()
        warm_and_persist(matrix, store)
        store.close()
        (right,) = segments(tmp_path)
        wrong = tmp_path / "seg1-1-00000000.log"
        os.replace(right, wrong)
        reset_registry()
        booted = ArtifactStore(tmp_path)
        set_artifact_store(booted)
        run_matrix(matrix)
        assert (booted.corrupt, booted.quarantined) == (0, 0)
        assert booted.hits == store.saved
        assert booted.saved == 0
        assert wrong.exists() and not right.exists()


# --------------------------------------------------------------------------
# the store format across the entry-layout change
# --------------------------------------------------------------------------

def first_layout_state(entry) -> list:
    """*entry*'s pickled state in the first entry layout: 21 fields,
    with ``op``, ``fields`` and ``literal`` after ``opcode`` and
    ``mnemonic`` (rebuilt from the entry's fetched words)."""
    word = entry.fetch_events[0][3]
    literal = entry.fetch_events[1][3] if len(entry.fetch_events) > 1 else None
    fields = decode_word(lookup_opcode(entry.opcode).fmt, word)
    state = [getattr(entry, name) for name in DecodedInstruction.__slots__]
    return [state[0], Opcode(entry.opcode), state[1], fields, literal,
            *state[2:]]


class TestStoreFormat:
    """Earlier layouts kept one file per artifact: ``decodes-*`` packs,
    ``code-*`` and ``objects-*`` files, and before them per-key
    ``decode-*``/``decode2-*`` snapshots, all ``*.art``.  The log
    replaces them: none is ever opened, and the first append removes
    them (never the evidence beside them)."""

    def test_earlier_layout_store_reads_as_misses(self, tmp_path):
        workspace = write_system_environment(
            make_default_system(nvm_tests=1, uart_tests=1), tmp_path / "ws"
        )
        cold = regress(workspace, tmp_path / "fresh")
        store_dir = tmp_path / "store"
        directory = store_dir / "artifacts"
        directory.mkdir(parents=True)
        earlier = [
            directory / f"{kind}-{n:064x}.art"
            for n, kind in enumerate(
                ("decodes", "code", "objects", "decode", "decode2")
            )
        ]
        for path in earlier:
            path.write_bytes(b'{"schema": 1}\nrot')
        kept = directory / f"decodes-{0:064x}.abc.corrupt"
        kept.write_bytes(b"evidence")

        after = regress(workspace, store_dir)
        assert after["matrix-digest"] == cold["matrix-digest"]
        assert after["engine-stats"] == cold["engine-stats"]
        assert store_counters(after) == store_counters(cold)
        assert sorted(directory.iterdir()) == sorted([*segments(directory), kept])

    def test_first_layout_entry_state_is_corruption(self, tmp_path, matrix):
        """A 21-field entry state never lands in shifted fields: the
        entry rejects it, and a pack holding one is corrupt."""
        store = ArtifactStore(tmp_path)
        reset_registry()
        warm_and_persist(matrix, store)
        key, cache = next(iter(decodecache._REGISTRY.items()))
        entry = next(iter(cache._entries.values()))
        with pytest.raises(ValueError, match="field count"):
            DecodedInstruction.__new__(DecodedInstruction).__setstate__(
                first_layout_state(entry)
            )

        store._stamps.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                DecodedInstruction, "__getstate__", first_layout_state
            )
            assert store.save_decode_cache(key, cache)
            assert store.save_decode_pack() == 1
        fresh = ArtifactStore(tmp_path)
        assert fresh.load_decode_cache(key) is None
        assert (fresh.corrupt, fresh.quarantined, fresh.hits) == (1, 0, 0)


# --------------------------------------------------------------------------
# the compiled opcode-executor table: loaded from the store, not compiled
# --------------------------------------------------------------------------

#: Builds the executor table in a fresh process with a store under
#: ``sys.argv[1]`` installed; prints the ``compile()`` calls of the
#: executor source and the store's counters.
EXECUTOR_PROBE = """\
import builtins, json, sys
from repro.isa import decodecache
from repro.store import ArtifactStore, set_artifact_store

compiled = []
real_compile = builtins.compile


def counting_compile(source, filename, *args, **kwargs):
    if filename == "<opcode executors>":
        compiled.append(filename)
    return real_compile(source, filename, *args, **kwargs)


builtins.compile = counting_compile
store = ArtifactStore(sys.argv[1])
set_artifact_store(store)
table = decodecache.EXECUTORS
assert len(table) == len(set(table)) > 0
print(json.dumps({"compiles": len(compiled), **store.stats()}))
"""


def probe_executors(store_dir) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", EXECUTOR_PROBE, str(store_dir)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out)


def regress(workspace, store_dir) -> dict[str, str]:
    """``advm regress --store-dir --engine-stats`` in a fresh process:
    its ``engine-stats:``, ``matrix-digest:`` and ``store-stats:``
    lines by name."""
    out = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "regress", str(workspace),
            "--store-dir", str(store_dir), "--engine-stats",
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return dict(
        line.split(": ", 1)
        for line in out.splitlines()
        if line.startswith(("engine-stats:", "matrix-digest:", "store-stats:"))
    )


def store_counters(lines: dict[str, str]) -> dict[str, int]:
    return {
        key: int(value)
        for key, value in (
            pair.split("=") for pair in lines["store-stats"].split()
        )
    }


class TestExecutorArtifact:
    def test_second_process_loads_and_compiles_nothing(self, tmp_path):
        cold = probe_executors(tmp_path)
        assert cold["compiles"] == 1
        assert (cold["code_saved"], cold["code_hits"]) == (1, 0)
        (segment,) = segments(tmp_path)
        assert segment.read_bytes().count(CODE) == 1
        warm = probe_executors(tmp_path)
        assert warm["compiles"] == 0
        assert (warm["code_saved"], warm["code_hits"]) == (0, 1)
        assert warm["corrupt"] == 0

    def test_rotted_artifact_is_quarantined_and_recompiled(self, tmp_path):
        """Rot in the executor record is counted, its segment set aside
        and the table recompiled; the matrix then runs exactly as from
        an intact copy of the same store."""
        workspace = write_system_environment(
            make_default_system(nvm_tests=1, uart_tests=1), tmp_path / "ws"
        )
        rotted, intact = tmp_path / "rotted", tmp_path / "intact"
        regress(workspace, rotted)
        shutil.copytree(rotted, intact)
        rot_record(rotted / "artifacts", CODE)

        healed = regress(workspace, rotted)
        control = regress(workspace, intact)
        assert healed["engine-stats"] == control["engine-stats"]
        assert healed["matrix-digest"] == control["matrix-digest"]
        counters = store_counters(healed)
        assert counters["corrupt"] == counters["quarantined"] == 1
        assert (counters["code_hits"], counters["code_saved"]) == (0, 1)
        counters = store_counters(control)
        assert (counters["corrupt"], counters["code_hits"]) == (0, 1)
        assert counters["code_saved"] == 0
        assert len(list((rotted / "artifacts").glob("*.corrupt"))) == 1
        assert probe_executors(rotted / "artifacts")["compiles"] == 0

    @pytest.mark.parametrize(
        "target, name, value",
        [
            (sys.implementation, "cache_tag", "other-0"),
            (importlib.util, "MAGIC_NUMBER", b"\x00\x00\r\n"),
        ],
        ids=["cache_tag", "magic_number"],
    )
    def test_other_interpreter_artifact_is_a_miss(self, tmp_path,
                                                  monkeypatch, target,
                                                  name, value):
        source = "def probe():\n    return 1\n"
        code = compile(source, "<probe>", "exec")
        store = ArtifactStore(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(target, name, value)
            assert store.save_code(source, code)
            assert store.load_code(source) is not None
        store.close()
        fresh = ArtifactStore(tmp_path)
        assert fresh.load_code(source) is None
        stats = fresh.stats()
        assert (stats["code_hits"], stats["corrupt"]) == (0, 0)
        assert stats["quarantined"] == 0
        # The first append compacts the other interpreter's code away.
        assert fresh.save_code(source, code)
        codes = [r for r in log_records(tmp_path) if r[1] == "code"]
        assert [r[2] for r in codes] == [artifacts.code_key(source)]
        assert ArtifactStore(tmp_path).load_code(source) is not None

# --------------------------------------------------------------------------
# assembled objects below the test cell: persisted by content key
# --------------------------------------------------------------------------

#: ``advm regress`` in-process with every ``Assembler.assemble_*`` call
#: counted; prints the CLI's output, then the calls as one JSON line.
ASSEMBLER_PROBE = """\
import json, sys
from repro.assembler.assembler import Assembler
from repro.cli import main

calls = []


def counted(real):
    def wrapper(self, *args, **kwargs):
        calls.append(real.__name__)
        return real(self, *args, **kwargs)
    return wrapper


for name in ("assemble_file", "assemble_source"):
    setattr(Assembler, name, counted(getattr(Assembler, name)))
main(sys.argv[1:])
print(json.dumps(calls))
"""


def probe_regress(workspace, store_dir, *flags) -> tuple[dict, list]:
    """``regress --store-dir --engine-stats *flags`` in a fresh process:
    its stats/digest lines by name, and its assembler calls."""
    out = subprocess.run(
        [
            sys.executable, "-c", ASSEMBLER_PROBE, "regress",
            str(workspace), "--store-dir", str(store_dir),
            "--engine-stats", *flags,
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    lines = dict(
        line.split(": ", 1)
        for line in out
        if line.startswith(("engine-stats:", "matrix-digest:", "store-stats:"))
    )
    return lines, json.loads(out[-1])


def edit_one_cell(workspace: Path) -> None:
    cell = workspace / "NVM" / "TEST_NVM_PAGE_001" / "test.asm"
    with open(cell, "a") as handle:
        handle.write("\n    NOP\n")


class TestObjectArtifact:
    @pytest.fixture
    def workspace(self, tmp_path):
        return write_system_environment(
            make_default_system(nvm_tests=2, uart_tests=1), tmp_path / "ws"
        )

    def test_edit_rerun_assembles_only_the_edited_cell(
        self, tmp_path, workspace
    ):
        store, cache = tmp_path / "store", str(tmp_path / "cache")
        cold, _ = probe_regress(workspace, store, "--cache-dir", cache)
        counters = store_counters(cold)
        assert (counters["obj_saved"], counters["obj_hits"]) == (1, 0)
        stored = object_keys(store / "artifacts")
        assert stored

        edit_one_cell(workspace)
        edited, calls = probe_regress(workspace, store, "--cache-dir", cache)
        assert calls == ["assemble_file"]
        counters = store_counters(edited)
        # The base functions for four target signatures, both global
        # libraries and the ES ROM.
        assert (counters["obj_hits"], counters["obj_saved"]) == (7, 0)
        assert counters["corrupt"] == 0
        assert object_keys(store / "artifacts") == stored

        control, calls = probe_regress(
            workspace, tmp_path / "fresh-store", "--no-cache"
        )
        assert len(calls) > 1
        assert edited["matrix-digest"] == control["matrix-digest"]

    def test_rotted_object_artifact_is_quarantined_and_reassembled(
        self, tmp_path, workspace
    ):
        rotted, intact = tmp_path / "rotted", tmp_path / "intact"
        probe_regress(workspace, rotted)
        shutil.copytree(rotted, intact)
        rot_record(rotted / "artifacts", OBJECTS)

        healed, healed_calls = probe_regress(workspace, rotted)
        control, control_calls = probe_regress(workspace, intact)
        assert healed["engine-stats"] == control["engine-stats"]
        assert healed["matrix-digest"] == control["matrix-digest"]
        healed_counters = store_counters(healed)
        assert healed_counters["corrupt"] == healed_counters["quarantined"] == 1
        assert healed_counters["obj_saved"] == 1
        counters = store_counters(control)
        assert (counters["corrupt"], counters["obj_saved"]) == (0, 0)
        assert counters["obj_hits"] > healed_counters["obj_hits"]
        assert len(healed_calls) > len(control_calls)
        assert len(list((rotted / "artifacts").glob("*.corrupt"))) == 1
        assert object_keys(rotted / "artifacts") == object_keys(
            intact / "artifacts"
        )

    def test_cell_only_edit_writes_no_object_artifact(self, tmp_path):
        """The store stays a fixed point under cell edits: test-cell
        objects never persist, and nothing below them changed."""
        targets = [lookup_target("golden"), lookup_target("rtl")]

        def regress_in_fresh_process(environment):
            reset_registry()
            store = ArtifactStore(tmp_path)
            set_artifact_store(store)
            RegressionScheduler(targets=targets).run_system(
                {"NVM": environment}, SC88A
            )
            return store

        store = regress_in_fresh_process(make_nvm_environment(1))
        assert store.obj_saved == 1
        before = object_keys(tmp_path)
        edited = make_nvm_environment(1)
        _edit_cell_source(edited)
        store = regress_in_fresh_process(edited)
        assert (store.obj_saved, store.corrupt) == (0, 0)
        # Base functions for two target signatures, both libraries, ES.
        assert store.obj_hits == 5
        assert object_keys(tmp_path) == before


def _edit_cell_source(environment) -> None:
    environment.cells["TEST_NVM_PAGE_001"].source += "\n    NOP\n"


def _set_define(environment) -> None:
    environment.defines.set_extra("PATTERN_SEED", 7)


def _extend_base_functions(environment) -> None:
    environment.extra_base_functions = "Base_Custom:\n    RETURN\n"


class TestObjectKey:
    """The content key of a unit below the test cell covers exactly
    what its object is assembled from."""

    @staticmethod
    def base_key(environment, derivative=SC88A, target="golden") -> str:
        return environment._object_key(
            environment._sources(), BASE_FUNCTIONS_FILENAME, derivative,
            lookup_target(target),
        )

    @pytest.mark.parametrize(
        "edit",
        [_set_define, _extend_base_functions, _edit_cell_source],
        ids=["globals_define", "base_functions_text", "cell_source"],
    )
    def test_key_follows_the_texts_the_unit_reaches(self, edit):
        """``Globals.inc`` is reached only through ``.INCLUDE``: a key
        without the included texts misses a define change.  The cell
        is not reached, so editing it keeps the key."""
        environment = make_nvm_environment(1)
        before = self.base_key(environment)
        edit(environment)
        changed = self.base_key(environment) != before
        assert changed == (edit is not _edit_cell_source)

    def test_key_covers_derivative_target_and_toolchain(self, monkeypatch):
        environment = make_nvm_environment(1)
        golden = self.base_key(environment)
        assert self.base_key(environment, derivative=SC88B) != golden
        # Base functions poll with target budgets: the signature joins
        # their key, and two targets with equal signatures share it.
        assert self.base_key(environment, target="rtl") != golden
        assert self.base_key(environment, target="accelerator") == golden
        # The cell uses no target define: one key for every target.
        cell = "TEST_NVM_PAGE_001.asm"
        assert len({
            environment._object_key(
                environment._sources(), cell, SC88A, lookup_target(name)
            )
            for name in ("golden", "rtl", "silicon")
        }) == 1
        monkeypatch.setattr(
            environment_module, "toolchain_digest", lambda: "0" * 64
        )
        assert self.base_key(make_nvm_environment(1)) != golden


class TestObjectEncoding:
    @staticmethod
    def roundtrip(obj: ObjectFile) -> ObjectFile:
        return ObjectFile.from_plain(
            marshal.loads(marshal.dumps(obj.to_plain()))
        )

    def test_decoded_object_equals_the_assembled_one(self, tmp_path):
        artifacts_built = make_nvm_environment(1).build_image(
            "TEST_NVM_PAGE_001", SC88A, lookup_target("golden")
        )
        objects = [
            artifacts_built.test_object,
            artifacts_built.base_functions_object,
            *artifacts_built.global_objects,
        ]
        store = ArtifactStore(tmp_path)
        for index, obj in enumerate(objects):
            decoded = self.roundtrip(obj)
            assert decoded == obj
            assert decoded.symbols and decoded.define_snapshot
            store.load_object(str(index))
            store.stage_object(str(index), obj)
        assert store.save_objects() and store.obj_saved == 1
        fresh = ArtifactStore(tmp_path)
        for index, obj in enumerate(objects):
            assert fresh.load_object(str(index)) == obj
        assert fresh.obj_hits == len(objects)

    def test_link_error_from_a_decoded_object_names_the_same_line(self):
        files = {
            "a.asm": '_main:\n.INCLUDE "inc.asm"\n    HALT\n',
            "inc.asm": ";; shared\n    LOAD a4, Missing_Label\n",
        }
        obj = Assembler(provider=InMemoryProvider(files)).assemble_file(
            "a.asm"
        )
        messages = []
        for candidate in (obj, self.roundtrip(obj)):
            with pytest.raises(LinkError) as info:
                Linker().link([candidate])
            messages.append(str(info.value))
        assert "inc.asm:2 (via a.asm:2)" in messages[0]
        assert messages[0] == messages[1]

    def test_undecodable_entry_is_corruption(self, tmp_path):
        """An intact record whose object does not decode is counted
        and dropped; the unit is then assembled as on a miss."""
        store = ArtifactStore(tmp_path)
        value = artifacts._text(marshal.dumps(("not an object",)))
        assert store.append("objects", {"k": value}, "k")
        assert store.load_object("k") is None
        assert store.load_object("k") is None
        assert (store.corrupt, store.obj_hits) == (1, 0)


class TestObjectTableThreads:
    def test_concurrent_lookups_stages_and_saves_lose_nothing(
        self, tmp_path
    ):
        """Fleet and daemon threads share one store: no staged object
        and no hit is lost between lookups, stages and saves."""
        obj = Assembler().assemble_source("_main:\n    HALT\n", "m.asm")
        workers, per_worker = 6, 40
        keys = [f"{w}-{i}" for w in range(workers) for i in range(per_worker)]
        errors = []

        def run_all(target, args_list):
            threads = [
                threading.Thread(target=target, args=args, daemon=True)
                for args in args_list
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)

        def stage(store, worker):
            try:
                for i in range(per_worker):
                    key = f"{worker}-{i}"
                    assert store.load_object(key) is None
                    store.stage_object(key, obj)
                    if i % 10 == 9:
                        store.save_objects()
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        def look(store):
            try:
                for key in keys:
                    assert store.load_object(key) == obj
            except Exception as exc:
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writer = ArtifactStore(tmp_path)
            run_all(stage, [(writer, w) for w in range(workers)])
            writer.save_objects()
            reader = ArtifactStore(tmp_path)
            run_all(look, [(reader,)] * workers)
        finally:
            sys.setswitchinterval(switch)
        assert errors == []
        assert reader.obj_hits == workers * len(keys)
        assert reader.corrupt == 0
