"""Tests for the cached, fleet-shardable regression scheduler."""

import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from logtools import rot_record, segments
from repro.assembler.assembler import Assembler
from repro.assembler.linker import Linker
from repro.cli import main
from repro.core import environment
from repro.core.durable import parse_segment
from repro.core.environment import GlobalLayer, ModuleTestEnvironment
from repro.core.faults import (
    ACTION_CORRUPT,
    SITE_CACHE_READ,
    FaultPlan,
    FaultSpec,
)
from repro.core.scheduler import (
    RegressionScheduler,
    ResultCache,
    matrix_digest,
    result_from_payload,
    result_to_payload,
)
from repro.core.system_env import make_default_system
from repro.core.targets import TARGET_GOLDEN, all_targets, target
from repro.core.tracediff import _first_divergence
from repro.core.workloads import make_nvm_environment, make_uart_environment
from repro.core.workspace import SYSTEM_DIR_NAME
from repro.isa.instructions import Opcode
from repro.platforms import (
    GateLevelSim,
    InstructionTrace,
    NetlistFault,
    RunStatus,
)
from repro.platforms.session import ExecutionSession
from repro.soc.derivatives import SC88A, all_derivatives
from repro.store import WorkList
from repro.verdict import VERDICT_FIELDS, RunResult

SRC = Path(__file__).resolve().parents[1] / "src"


def status_matrix(report):
    return {key: result.status for key, result in report.results.items()}


def make_environments():
    return {
        "NVM": make_nvm_environment(2),
        "UART": make_uart_environment(1),
    }


class TestWorkList:
    def test_plan_covers_matrix(self):
        env = make_nvm_environment(2)
        report = RegressionScheduler().run_system({"NVM": env}, SC88A)
        assert set(report.results) == {
            ("NVM", cell, tgt.name)
            for cell in ("TEST_NVM_PAGE_001", "TEST_NVM_PAGE_002")
            for tgt in all_targets()
        }
        assert report.executed_runs == 2 * len(all_targets())

    def test_equal_build_inputs_share_one_image(self):
        # golden/accelerator and bondout/silicon have identical target
        # defines, so the build cache must reuse their built images.
        env = make_nvm_environment(1)
        image_by_target = {
            tgt.name: env.build_image("TEST_NVM_PAGE_001", SC88A, tgt).image
            for tgt in all_targets()
        }
        assert image_by_target["golden"] is image_by_target["accelerator"]
        assert image_by_target["bondout"] is image_by_target["silicon"]
        assert image_by_target["golden"] is not image_by_target["rtl"]

    def test_uncached_plan_hashes_no_build_key(self, monkeypatch):
        """Without a result cache there is no index to look a build key
        up in, so the plan only builds (a fleet always has a cache)."""

        def forbidden(*args, **kwargs):
            raise AssertionError("build key hashed without a cache")

        monkeypatch.setattr(ModuleTestEnvironment, "build_key", forbidden)
        report = RegressionScheduler().run_system(make_environments(), SC88A)
        assert report.executed_runs == report.total_runs

    def test_fleet_takes_its_verdicts_from_its_worklists_cache(
        self, tmp_path
    ):
        worklist = WorkList(ResultCache(tmp_path / "shared"))
        assert RegressionScheduler(worklist=worklist).cache is worklist.cache
        with pytest.raises(ValueError, match="work-list's cache"):
            RegressionScheduler(
                cache=ResultCache(tmp_path / "other"), worklist=worklist
            )


class TestExecutors:
    def test_serial_matches_legacy_runner(self):
        """The legacy runner's verdicts: one ``run_test`` per (cell,
        target), each on a fresh platform."""
        environments = make_environments()
        report = RegressionScheduler().run_system(environments, SC88A)
        legacy = {
            (env_name, cell, target.name): env.run_test(
                cell, SC88A, target.name
            ).status
            for env_name, env in environments.items()
            for cell in env.cells
            for target in all_targets()
        }
        assert status_matrix(report) == legacy
        assert report.clean

    def test_unknown_executor_rejected(self):
        # The scheduler has no executor choice left: serial or fleet.
        with pytest.raises(TypeError, match="executor"):
            RegressionScheduler(executor="carrier-pigeon")

    @pytest.mark.parametrize("executor", ["thread", "batch", "process"])
    def test_removed_executor_rejected(self, executor):
        with pytest.raises(TypeError, match="executor"):
            RegressionScheduler(executor=executor)

    def test_jobs_rejected(self):
        with pytest.raises(TypeError, match="jobs"):
            RegressionScheduler(jobs=2)

    def test_matrix_digest_covers_every_result_field(self):
        report = RegressionScheduler().run_system(
            make_environments(), SC88A
        )
        digest = matrix_digest(report)
        assert len(digest) == 64
        key = ("NVM", "TEST_NVM_PAGE_001", "rtl")
        original = report.results[key]
        for change in ({"cycles": original.cycles + 1},
                       {"signature": (original.signature or 0) ^ 1},
                       {"trace": InstructionTrace.from_raw(
                           original.trace.raw()[:-1])}):
            changed = copy.copy(original)
            for name, value in change.items():
                setattr(changed, name, value)
            report.results[key] = changed
            assert matrix_digest(report) != digest, change
        report.results[key] = original
        assert matrix_digest(report) == digest

    def test_divergence_attribution_with_overrides(self):
        fault = NetlistFault(
            opcode=int(Opcode.SETB),
            xor_mask=0x1,
            description="stuck bit",
        )
        scheduler = RegressionScheduler(
            platform_overrides={"gatelevel": GateLevelSim(fault=fault)},
        )
        report = scheduler.run_environment(make_nvm_environment(2), SC88A)
        assert set(report.suspect_platforms()) == {"gatelevel"}
        assert report.suspect_platforms()["gatelevel"] == 2

    @pytest.mark.parametrize("fleet", [False, True], ids=["serial", "fleet"])
    @pytest.mark.parametrize("where", ["build", "run"])
    def test_failing_override_quarantines_at_once_outside_the_provider(
        self, tmp_path, where, fleet
    ):
        """An overridden platform shares the supervised ladder with no
        retry: its first failure — building its device or running on
        it — quarantines the cell, and its session never passes
        through the session provider, which gets every other session
        back healthy, serial or fleet."""

        class Broken(GateLevelSim):
            attempts = 0

            def build_soc(self, derivative):
                if where == "build":
                    Broken.attempts += 1
                    raise RuntimeError("no netlist")
                return super().build_soc(derivative)

            def judge(self, cpu, soc):
                Broken.attempts += 1
                raise RuntimeError("no netlist")

        class Provider:
            def __init__(self):
                self.leased, self.released = [], []

            def lease(self, tgt, derivative):
                self.leased.append(tgt.name)
                return ExecutionSession(tgt.make_platform(), derivative)

            def release(self, session, healthy):
                self.released.append((session.platform.name, healthy))

        provider = Provider()
        report = RegressionScheduler(
            targets=[TARGET_GOLDEN, target("gatelevel")],
            platform_overrides={"gatelevel": Broken()},
            session_provider=provider,
            worklist=(
                WorkList(ResultCache(tmp_path / "fleet")) if fleet else None
            ),
            retries=2,
            sleep=lambda seconds: None,
        ).run_environment(make_nvm_environment(1), SC88A)
        result = report.results[("NVM", "TEST_NVM_PAGE_001", "gatelevel")]
        assert result.fault_reason == (
            "quarantined: overridden platform failed: no netlist"
        )
        assert Broken.attempts == 1
        assert (report.quarantined_runs, report.retried_runs) == (1, 0)
        assert provider.leased == ["golden"]
        assert provider.released == [("golden", True)]


class TestResultCache:
    def test_roundtrip_payload(self):
        env = make_nvm_environment(1)
        result = env.run_test("TEST_NVM_PAGE_001", SC88A, "rtl")
        restored = result_from_payload(result_to_payload(result))
        assert restored.status is result.status
        assert restored.cycles == result.cycles
        assert restored.signature == result.signature
        assert [t.pc for t in restored.trace] == [
            t.pc for t in result.trace
        ]

    def test_rehydrated_trace_adopts_the_cached_rows(self):
        result = make_nvm_environment(1).run_test(
            "TEST_NVM_PAGE_001", SC88A, "rtl"
        )
        payload = result_to_payload(result)
        restored = result_from_payload(payload)
        assert isinstance(restored.trace, InstructionTrace)
        assert restored.trace.raw() == result.trace.raw()
        assert all(type(event) is tuple for event in restored.trace.raw())
        assert list(restored.trace) == list(result.trace)
        assert result_to_payload(restored) == payload

    def test_rehydrated_verdicts_compare_by_value(self):
        result = make_nvm_environment(1).run_test(
            "TEST_NVM_PAGE_001", SC88A, "rtl"
        )
        payload = json.loads(json.dumps(result_to_payload(result)))
        assert result_from_payload(payload) == result_from_payload(payload)
        assert result_from_payload(payload) == result
        changed = json.loads(json.dumps(payload))
        changed["trace"][-1][3] += 1
        assert result_from_payload(changed) != result

    def test_rehydrated_trace_diffs_like_a_live_one(self):
        result = make_nvm_environment(1).run_test(
            "TEST_NVM_PAGE_001", SC88A, "rtl"
        )
        payload = json.loads(json.dumps(result_to_payload(result)))
        payload["trace"][2][0] += 2
        restored = result_from_payload(payload)
        point = _first_divergence(result.trace, restored.trace)
        assert point is not None and point.index == 2

    def test_warm_cache_executes_zero_runs(self, tmp_path):
        cache = ResultCache(tmp_path)
        scheduler = RegressionScheduler(cache=cache)
        cold = scheduler.run_system(make_environments(), SC88A)
        assert cold.executed_runs == cold.total_runs
        assert cold.cached_runs == 0
        warm = scheduler.run_system(make_environments(), SC88A)
        assert warm.executed_runs == 0
        assert warm.cached_runs == warm.total_runs
        assert status_matrix(warm) == status_matrix(cold)
        assert warm.divergences == cold.divergences == []
        assert "served from cache" in warm.summary()

    def test_cache_persists_across_scheduler_instances(self, tmp_path):
        RegressionScheduler(cache=ResultCache(tmp_path)).run_environment(
            make_nvm_environment(1), SC88A
        )
        warm = RegressionScheduler(
            cache=ResultCache(tmp_path)
        ).run_environment(make_nvm_environment(1), SC88A)
        assert warm.executed_runs == 0

    def test_changed_cell_invalidates_only_its_runs(self, tmp_path):
        cache = ResultCache(tmp_path)
        scheduler = RegressionScheduler(cache=cache)
        scheduler.run_environment(make_nvm_environment(2), SC88A)
        # Same suite, but test 2 now targets a different NVM page: its
        # image digests change, test 1's do not.
        changed = make_nvm_environment(2, page_overrides={2: 19})
        report = scheduler.run_environment(changed, SC88A)
        executed_cells = {
            key[1]
            for key, result in report.results.items()
        }
        assert report.cached_runs == len(all_targets())
        assert report.executed_runs == len(all_targets())
        assert executed_cells == {"TEST_NVM_PAGE_001", "TEST_NVM_PAGE_002"}

    def test_overridden_platform_never_cached(self, tmp_path):
        fault = NetlistFault(opcode=int(Opcode.SETB), xor_mask=0x1)
        scheduler = RegressionScheduler(
            cache=ResultCache(tmp_path),
            platform_overrides={"gatelevel": GateLevelSim(fault=fault)},
            targets=[TARGET_GOLDEN, target("gatelevel")],
        )
        env = make_nvm_environment(1)
        scheduler.run_environment(env, SC88A)
        warm = scheduler.run_environment(env, SC88A)
        # golden comes from cache; the faulty gatelevel re-executes.
        assert warm.cached_runs == 1
        assert warm.executed_runs == 1
        assert set(warm.suspect_platforms()) == {"gatelevel"}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        scheduler = RegressionScheduler(cache=cache)
        env = make_nvm_environment(1)
        scheduler.run_environment(env, SC88A)
        cache.close()
        for path in segments(tmp_path):
            lines = path.read_text().count("\n")
            path.write_text("{not json\n" * lines)
        report = RegressionScheduler(
            cache=ResultCache(tmp_path)
        ).run_environment(env, SC88A)
        assert report.executed_runs == report.total_runs
        assert report.clean


def encoded(result) -> str:
    """A fresh encoding of *result*'s cache payload."""
    return json.dumps(result_to_payload(result), sort_keys=True)


def encoded_digest(report) -> str:
    """``matrix_digest`` by its definition: SHA-256 over the
    ``sort_keys`` JSON of ``[*key, payload]`` per sorted entry, every
    payload encoded afresh."""
    digest = hashlib.sha256()
    for key in sorted(report.results):
        entry = [*key, result_to_payload(report.results[key])]
        digest.update(json.dumps(entry, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


class TestDigestReusesCacheText:
    """The digest hashes the payload text the result cache sealed
    (``put``) or verified (``get``) instead of encoding each verdict
    again; that text is always the fresh encoding of the verdict it is
    attached to, so the digest stays byte-identical."""

    def test_cold_warm_and_uncached_digests_equal_the_encoding(
        self, tmp_path
    ):
        uncached = RegressionScheduler().run_system(
            make_environments(), SC88A
        )
        # No cache, no text: nothing is encoded beyond the digest.
        assert all(
            r.payload_text is None for r in uncached.results.values()
        )
        cold = RegressionScheduler(cache=ResultCache(tmp_path)).run_system(
            make_environments(), SC88A
        )
        warm = RegressionScheduler(cache=ResultCache(tmp_path)).run_system(
            make_environments(), SC88A
        )
        assert warm.cached_runs == warm.total_runs
        for report in (cold, warm):
            for result in report.results.values():
                assert result.payload_text == encoded(result)
        digests = {matrix_digest(r) for r in (uncached, cold, warm)}
        assert digests == {encoded_digest(uncached)}

    def test_digest_never_rereads_the_cache(self, tmp_path):
        warm_cache = ResultCache(tmp_path)
        RegressionScheduler(cache=warm_cache).run_system(
            make_environments(), SC88A
        )
        report = RegressionScheduler(cache=warm_cache).run_system(
            make_environments(), SC88A
        )
        expected = encoded_digest(report)
        for path in segments(tmp_path):
            path.write_text("{not json\n")
        assert matrix_digest(report) == expected

    def test_changed_copy_carries_no_stale_text(self, tmp_path):
        report = RegressionScheduler(cache=ResultCache(tmp_path)).run_system(
            make_environments(), SC88A
        )
        digest = matrix_digest(report)
        key = ("NVM", "TEST_NVM_PAGE_001", "rtl")
        original = report.results[key]
        changed = copy.copy(original)
        changed.cycles += 1
        assert changed.payload_text is None
        report.results[key] = changed
        assert matrix_digest(report) == encoded_digest(report) != digest

    def test_rewritten_entry_reads_back_its_own_text(self, tmp_path):
        result = make_nvm_environment(1).run_test(
            "TEST_NVM_PAGE_001", SC88A, "rtl"
        )
        other = copy.copy(result)
        other.cycles += 7
        cache = ResultCache(tmp_path)
        assert cache.put("k", result)
        assert cache.get("k").payload_text == encoded(result)
        assert cache.put("k", other)
        assert other.payload_text == encoded(other)
        again = cache.get("k")
        assert result_to_payload(again) == result_to_payload(other)
        assert again.payload_text == encoded(other) != encoded(result)
        assert ResultCache(tmp_path).get("k").payload_text == encoded(other)

    def test_hit_decodes_its_other_fields_on_first_read(self, tmp_path):
        """A hit carries its status and text at once; its other fields
        are decoded from the text when one is first read, into exactly
        the verdict a fresh decode of that text gives."""
        result = make_nvm_environment(1).run_test(
            "TEST_NVM_PAGE_001", SC88A, "rtl"
        )
        assert result.trace is not None and result.registers is not None
        assert ResultCache(tmp_path).put("k", result)
        hit = ResultCache(tmp_path).get("k")
        assert hit.status is result.status
        assert hit.payload_text == encoded(result)
        for name in VERDICT_FIELDS:
            if name != "status":
                with pytest.raises(AttributeError):
                    getattr(RunResult, name).__get__(hit, RunResult)
        fresh = result_from_payload(json.loads(encoded(result)))
        assert hit.cycles == fresh.cycles
        for name in VERDICT_FIELDS:
            assert getattr(hit, name) == getattr(fresh, name), name
        assert hit == fresh == result
        assert hit.payload_text == encoded(result)

    def test_tampered_text_is_corruption_not_digest_input(self, tmp_path):
        result = make_nvm_environment(1).run_test(
            "TEST_NVM_PAGE_001", SC88A, "rtl"
        )
        cache = ResultCache(tmp_path)
        cache.put("k", result)
        cache.close()
        (path,) = segments(tmp_path)
        path.write_text(path.read_text().replace(
            f'"cycles": {result.cycles}', f'"cycles": {result.cycles + 1}'
        ))
        cache = ResultCache(tmp_path)
        assert cache.get("k") is None
        assert (cache.corrupt, cache.quarantined) == (1, 1)


class TestRegressCli:
    @pytest.fixture
    def workspace(self, tmp_path):
        assert (
            main(
                [
                    "init",
                    str(tmp_path),
                    "--nvm-tests",
                    "1",
                    "--uart-tests",
                    "1",
                ]
            )
            == 0
        )
        return tmp_path / SYSTEM_DIR_NAME

    def test_regress_rejects_jobs(self, workspace, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["regress", str(workspace), "--jobs", "2"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("executor", ["thread", "batch", "process"])
    def test_regress_rejects_removed_executors(
        self, workspace, executor, capsys
    ):
        with pytest.raises(SystemExit) as exited:
            main(["regress", str(workspace), "--executor", executor])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_timeout_requires_fleet(self, workspace, capsys):
        assert main(
            ["regress", str(workspace), "--run-timeout", "5"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("--run-timeout requires --fleet")

    @pytest.mark.parametrize("argv", [
        ["--fleet"],
        ["--fleet", "--cache-dir", "verdicts", "--no-cache"],
    ], ids=["no-cache-dir", "no-cache"])
    def test_fleet_requires_a_shared_cache(
        self, workspace, tmp_path, monkeypatch, capsys, argv
    ):
        here = tmp_path / "cwd"
        here.mkdir()
        monkeypatch.chdir(here)
        assert main(["regress", str(workspace), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("--fleet requires --cache-dir and no ")
        assert list(here.iterdir()) == []

    def test_matrix_digest_agrees_across_executors_and_cache(
        self, workspace, tmp_path, capsys
    ):
        def digest(*extra):
            assert main(
                ["regress", str(workspace), "--engine-stats", *extra]
            ) == 0
            out = capsys.readouterr().out
            (line,) = [
                line for line in out.splitlines()
                if line.startswith("matrix-digest: ")
            ]
            return line, out

        cache = ["--cache-dir", str(tmp_path / "verdicts")]
        serial, _ = digest()
        cold, _ = digest(*cache)
        warm, out = digest(*cache)
        assert "0 run(s) executed" in out
        # Two concurrent fleet peers over one fresh shared cache: each
        # prints the serial digest, writes nothing to stderr and, with
        # both alive, steals nothing from the other.
        argv = [
            sys.executable, "-m", "repro.cli", "regress", str(workspace),
            "--engine-stats", "--fleet",
            "--cache-dir", str(tmp_path / "shared"),
        ]
        peers = [
            subprocess.Popen(
                argv,
                env={**os.environ, "PYTHONPATH": str(SRC)},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        fleet = []
        for peer in peers:
            out, err = peer.communicate(timeout=300)
            assert peer.returncode == 0, err
            assert err == ""
            fleet += [
                line for line in out.splitlines()
                if line.startswith("matrix-digest: ")
            ]
            (stats,) = [
                line for line in out.splitlines()
                if line.startswith("worklist-stats: ")
            ]
            assert dict(
                pair.split("=") for pair in stats.split()[1:]
            )["stolen"] == "0"
        assert fleet == [serial, serial]
        assert serial == cold == warm

    def test_regress_cache_roundtrip(self, workspace, tmp_path, capsys):
        cache_dir = tmp_path / "verdicts"
        argv = [
            "regress", str(workspace), "NVM",
            "--targets", "golden,rtl",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "2/2 runs ok" in cold_out
        assert "2 run(s) executed, 0 served from cache" in cold_out
        assert main(argv) == 0
        assert "0 run(s) executed, 2 served from cache" in (
            capsys.readouterr().out
        )

    def test_regress_prints_cache_stats(self, workspace, tmp_path, capsys):
        argv = [
            "regress", str(workspace), "NVM",
            "--targets", "golden,rtl",
            "--cache-dir", str(tmp_path / "verdicts"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert (
            "cache-stats: corrupt=0 disabled=0 hits=0 index_hits=0 "
            "index_misses=2" in out
        )
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "index_hits=2 index_misses=0 index_stale=0" in out
        assert main(argv[:-2]) == 0
        assert "cache-stats:" not in capsys.readouterr().out

    def test_no_cache_flag_forces_execution(self, workspace, tmp_path, capsys):
        cache_dir = tmp_path / "verdicts"
        argv = [
            "regress", str(workspace), "NVM",
            "--targets", "golden",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "1/1 runs ok" in out
        assert "1 run(s) executed, 0 served from cache" in out


# --------------------------------------------------------------------------
# build index: warm re-regressions build only what changed
# --------------------------------------------------------------------------

def payload_matrix(report):
    return {
        key: result_to_payload(result)
        for key, result in report.results.items()
    }


def make_suite(layer=None, nvm_pages=None):
    """NVM (2 cells) + UART (1 cell) over one shared global layer."""
    layer = layer or GlobalLayer()
    return {
        "NVM": make_nvm_environment(
            2, global_layer=layer, page_overrides=nvm_pages
        ),
        "UART": make_uart_environment(1, global_layer=layer),
    }


def with_include_file(envs, consts: str):
    """NVM's second cell includes an extra abstraction-layer file."""
    env = envs["NVM"]
    cell = env.cells["TEST_NVM_PAGE_002"]
    cell.source = '.INCLUDE "Consts.inc"\n' + cell.source
    env.abstraction_files = lambda: {
        **ModuleTestEnvironment.abstraction_files(env),
        "Consts.inc": consts,
    }
    return envs


@pytest.fixture
def build_log(monkeypatch):
    """Every (environment, cell, target) that reaches build_image."""
    calls = []
    original = ModuleTestEnvironment.build_image

    def recording(self, cell_name, derivative, tgt, use_cache=True):
        calls.append((self.name, cell_name, tgt.name))
        return original(self, cell_name, derivative, tgt, use_cache)

    monkeypatch.setattr(ModuleTestEnvironment, "build_image", recording)
    return calls


def column(env_name, cell_name):
    return {(env_name, cell_name, tgt.name) for tgt in all_targets()}


def every_position(envs):
    return {
        (env.name, cell, tgt.name)
        for env in envs.values()
        for cell in env.cells
        for tgt in all_targets()
    }


def edit_cell(envs):
    envs["NVM"].cells["TEST_NVM_PAGE_001"].source += "\n    NOP\n"
    return envs


def edit_base_functions(envs):
    envs["UART"].extra_base_functions = "Base_Spare_Hook:\n    RETURN\n"
    return envs


def edit_trap_handlers(envs):
    layer = envs["NVM"].global_layer
    layer._trap_handlers += "\n;; reviewed\n"
    return envs


def count_toolchain_calls(monkeypatch) -> list[str]:
    """Record every ``assemble_file`` and ``link`` call from now on."""
    calls = []
    for owner, name in ((Assembler, "assemble_file"), (Linker, "link")):
        original = getattr(owner, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


class TestBuildIndex:
    def rerun(
        self, tmp_path, build_log, edited, derivative=SC88A, between=None
    ):
        """Prime the cache with the unedited suite, then regress the
        edited one; returns (report, cache, rebuilt positions)."""
        RegressionScheduler(cache=ResultCache(tmp_path)).run_system(
            make_suite(), SC88A
        )
        if between is not None:
            between()
        build_log.clear()
        cache = ResultCache(tmp_path)
        report = RegressionScheduler(cache=cache).run_system(
            edited, derivative
        )
        return report, cache, set(build_log)

    def assert_matches_cold(self, report, envs, derivative=SC88A):
        cold = RegressionScheduler().run_system(envs, derivative)
        assert payload_matrix(report) == payload_matrix(cold)

    @pytest.mark.parametrize(
        "edit, affected",
        [
            (edit_cell, column("NVM", "TEST_NVM_PAGE_001")),
            (
                edit_base_functions,
                column("UART", "TEST_UART_LOOP_001")
                | column("UART", "TEST_UART_BANNER"),
            ),
        ],
        ids=["cell-source", "extra-base-functions"],
    )
    def test_edit_rebuilds_only_affected_positions(
        self, tmp_path, build_log, edit, affected
    ):
        report, cache, rebuilt = self.rerun(
            tmp_path, build_log, edit(make_suite())
        )
        assert rebuilt == affected
        assert cache.index_misses == len(affected)
        assert cache.index_hits == report.total_runs - len(affected)
        assert cache.index_stale == 0
        self.assert_matches_cold(report, edit(make_suite()))

    def test_included_file_edit_rebuilds_its_includers(
        self, tmp_path, build_log
    ):
        RegressionScheduler(cache=ResultCache(tmp_path)).run_system(
            with_include_file(make_suite(), "SPARE .EQU 1\n"), SC88A
        )
        build_log.clear()
        edited = with_include_file(make_suite(), "SPARE .EQU 2\n")
        cache = ResultCache(tmp_path)
        report = RegressionScheduler(cache=cache).run_system(edited, SC88A)
        assert set(build_log) == column("NVM", "TEST_NVM_PAGE_002")
        # The constant is unused: the image, hence the verdict, is
        # unchanged and comes from the cache.
        assert report.executed_runs == 0
        self.assert_matches_cold(
            report, with_include_file(make_suite(), "SPARE .EQU 2\n")
        )

    def test_unresolved_include_falls_back_to_workspace(
        self, tmp_path, build_log
    ):
        def guarded(envs):
            cell = envs["UART"].cells["TEST_UART_LOOP_001"]
            cell.source = (
                ".IFDEF NEVER_DEFINED\n.INCLUDE \"absent.inc\"\n.ENDIF\n"
                + cell.source
            )
            return envs

        RegressionScheduler(cache=ResultCache(tmp_path)).run_system(
            guarded(make_suite()), SC88A
        )
        build_log.clear()
        RegressionScheduler(cache=ResultCache(tmp_path)).run_system(
            guarded(make_suite()), SC88A
        )
        assert build_log == []
        # An edit to any UART file — here another cell — now also
        # rebuilds the guarded cell; other environments are untouched.
        edited = guarded(make_suite())
        edited["UART"].cells["TEST_UART_BANNER"].source += "\n    NOP\n"
        RegressionScheduler(cache=ResultCache(tmp_path)).run_system(
            edited, SC88A
        )
        assert set(build_log) == column(
            "UART", "TEST_UART_LOOP_001"
        ) | column("UART", "TEST_UART_BANNER")

    def test_globals_define_edit_rebuilds_its_environment(
        self, tmp_path, build_log
    ):
        edited = make_suite(nvm_pages={2: 19})
        report, cache, rebuilt = self.rerun(tmp_path, build_log, edited)
        assert rebuilt == column("NVM", "TEST_NVM_PAGE_001") | column(
            "NVM", "TEST_NVM_PAGE_002"
        )
        # Result keys stay image-digest keyed: cell 1's image did not
        # change, so only cell 2's column executes.
        assert report.executed_runs == len(all_targets())
        self.assert_matches_cold(report, make_suite(nvm_pages={2: 19}))

    def test_global_layer_edit_rebuilds_everything_runs_nothing(
        self, tmp_path, build_log
    ):
        edited = edit_trap_handlers(make_suite())
        report, cache, rebuilt = self.rerun(tmp_path, build_log, edited)
        assert rebuilt == every_position(edited)
        assert cache.index_hits == 0
        assert report.executed_runs == 0
        self.assert_matches_cold(report, edit_trap_handlers(make_suite()))

    def test_derivative_edit_rebuilds_everything(self, tmp_path, build_log):
        variant = SC88A._replace(description="re-specified")
        edited = make_suite()
        report, cache, rebuilt = self.rerun(
            tmp_path, build_log, edited, derivative=variant
        )
        assert rebuilt == every_position(edited)
        assert cache.index_misses == report.total_runs
        assert report.executed_runs == 0
        self.assert_matches_cold(report, make_suite(), derivative=variant)

    def test_es_release_rebuilds_everything(
        self, tmp_path, build_log, monkeypatch
    ):
        from repro.soc import embedded

        original = embedded.es_source

        def released(version):
            return original(version) + ";; release note\n"

        def release():
            monkeypatch.setattr(embedded, "es_source", released)
            monkeypatch.setattr(environment, "es_source", released)

        edited = make_suite()
        report, cache, rebuilt = self.rerun(
            tmp_path, build_log, edited, between=release
        )
        assert rebuilt == every_position(edited)
        assert report.executed_runs == 0
        self.assert_matches_cold(report, make_suite())

    def test_toolchain_change_rebuilds_everything(
        self, tmp_path, build_log, monkeypatch
    ):
        edited = make_suite()
        report, cache, rebuilt = self.rerun(
            tmp_path,
            build_log,
            edited,
            between=lambda: monkeypatch.setattr(
                environment, "toolchain_digest", lambda: "forced"
            ),
        )
        assert rebuilt == every_position(edited)
        assert report.executed_runs == 0
        assert cache.index_stale == 0

    def test_fully_cached_rerun_assembles_and_links_nothing(
        self, tmp_path, monkeypatch
    ):
        RegressionScheduler(cache=ResultCache(tmp_path)).run_system(
            make_suite(), SC88A
        )
        calls = count_toolchain_calls(monkeypatch)
        cache = ResultCache(tmp_path)
        report = RegressionScheduler(cache=cache).run_system(
            make_suite(), SC88A
        )
        assert calls == []
        assert report.executed_runs == 0
        assert cache.index_hits == report.total_runs
        assert cache.index_misses == 0

    def test_fleet_serves_a_primed_cache_from_the_index(
        self, tmp_path, monkeypatch
    ):
        """A fleet peer over a cache a serial run primed keys every
        verdict from the build index: it assembles, links, claims and
        executes nothing."""
        RegressionScheduler(cache=ResultCache(tmp_path / "cache")).run_system(
            make_suite(), SC88A
        )
        calls = count_toolchain_calls(monkeypatch)
        cache = ResultCache(tmp_path / "cache")
        worklist = WorkList(cache)
        report = RegressionScheduler(worklist=worklist).run_system(
            make_suite(), SC88A
        )
        assert calls == []
        assert cache.index_hits == report.total_runs
        assert report.cached_runs == report.total_runs
        assert worklist.claimed == 0
        self.assert_matches_cold(report, make_suite())

    def test_fleet_saves_the_index_it_extends(self, tmp_path, monkeypatch):
        first = ResultCache(tmp_path / "cache")
        cold = RegressionScheduler(
            cache=first, worklist=WorkList(first)
        ).run_system(make_suite(), SC88A)
        assert first.index_misses == cold.total_runs
        assert cold.executed_runs == cold.total_runs
        calls = count_toolchain_calls(monkeypatch)
        second = ResultCache(tmp_path / "cache")
        warm = RegressionScheduler(
            cache=second, worklist=WorkList(second)
        ).run_system(make_suite(), SC88A)
        assert calls == []
        assert second.index_hits == warm.total_runs
        assert warm.cached_runs == warm.total_runs
        assert matrix_digest(warm) == matrix_digest(cold)

    def test_fleet_verdicts_are_the_caches_own_records(
        self, tmp_path, monkeypatch
    ):
        """A one-peer fleet over a shared cache directory leaves one
        verdict record per key there, beside the build index and the
        empty ``leases/``, and no second verdict log: a serial run
        over that directory then serves every position from it,
        assembling and linking nothing."""
        directory = tmp_path / "shared"
        cache = ResultCache(directory)
        cold = RegressionScheduler(worklist=WorkList(cache)).run_system(
            make_suite(), SC88A
        )
        cache.close()
        records = [
            record
            for segment in segments(directory)
            for record in parse_segment(segment.read_bytes())[0]
        ]
        verdicts = [r[2] for r in records if r[1] == "verdict"]
        assert sorted(verdicts) == sorted(set(verdicts))
        assert len(verdicts) == cold.executed_runs
        assert {r[1] for r in records} == {
            "verdict", "index/NVM/sc88a", "index/UART/sc88a"
        }
        assert sorted(p.name for p in directory.iterdir()) == sorted(
            [segment.name for segment in segments(directory)] + ["leases"]
        )
        assert list((directory / "leases").iterdir()) == []
        assert [
            path for path in tmp_path.rglob("seg*.log")
            if path.parent != directory
        ] == []
        calls = count_toolchain_calls(monkeypatch)
        serial = ResultCache(directory)
        report = RegressionScheduler(cache=serial).run_system(
            make_suite(), SC88A
        )
        assert calls == []
        assert report.cached_runs == report.total_runs
        assert serial.index_hits == report.total_runs
        assert matrix_digest(report) == matrix_digest(cold)

    def test_subset_run_leaves_other_positions(self, tmp_path):
        RegressionScheduler(cache=ResultCache(tmp_path)).run_system(
            make_suite(), SC88A
        )
        before = ResultCache(tmp_path).load_index("NVM", "sc88a")
        RegressionScheduler(
            cache=ResultCache(tmp_path),
            targets=[TARGET_GOLDEN],
        ).run_system(edit_cell(make_suite()), SC88A)
        after = ResultCache(tmp_path).load_index("NVM", "sc88a")
        changed = {key for key in after if after[key] != before[key]}
        assert changed == {"TEST_NVM_PAGE_001/golden"}
        assert set(after) == set(before)

    @pytest.mark.parametrize("how", ["tampered", "injected"])
    def test_corrupt_index_costs_only_a_rebuild(
        self, tmp_path, build_log, how
    ):
        first = ResultCache(tmp_path)
        RegressionScheduler(cache=first).run_system(make_suite(), SC88A)
        first.close()
        plan = None
        if how == "tampered":
            # One position's record rots: only that position rebuilds.
            (segment,) = segments(tmp_path)
            position = next(
                record[2]
                for record in parse_segment(segment.read_bytes())[0]
                if record[1] == "index/NVM/sc88a"
            )
            rot_record(
                tmp_path, f"\tindex/NVM/sc88a\t{position}\t".encode()
            )
            rebuilt = {("NVM", *position.split("/"))}
        else:
            # The whole index read fails: the environment rebuilds.
            plan = FaultPlan(seed=3, specs=[
                FaultSpec(site=SITE_CACHE_READ, action=ACTION_CORRUPT,
                          match="index/NVM/"),
            ])
            rebuilt = every_position({"NVM": make_suite()["NVM"]})
        build_log.clear()
        cache = ResultCache(tmp_path)
        report = RegressionScheduler(
            cache=cache, fault_plan=plan
        ).run_system(make_suite(), SC88A)
        assert cache.corrupt == 1
        # A segment holding a corrupt record is set aside as evidence
        # (its writer is gone); an injected read leaves the disk intact.
        assert cache.quarantined == (1 if how == "tampered" else 0)
        assert len(list(tmp_path.glob("*.corrupt"))) == cache.quarantined
        assert set(build_log) == rebuilt
        assert report.executed_runs == 0
        assert cache.hits == report.total_runs
        self.assert_matches_cold(report, make_suite())
        cache.close()
        # The rewritten index serves the next run cleanly.
        healed = ResultCache(tmp_path)
        RegressionScheduler(cache=healed).run_system(make_suite(), SC88A)
        assert healed.corrupt == 0
        assert healed.index_hits == report.total_runs


@pytest.mark.parametrize("deriv", all_derivatives(), ids=lambda d: d.name)
def test_indexed_digest_equals_fresh_build(tmp_path, deriv):
    """Differential check over the default ``init --nvm-tests 6
    --uart-tests 3`` workspace: every indexed digest is the digest a
    fresh build produces, and the index is keyed by the fresh build
    key.  (Runs are capped at one instruction: only the index matters
    here.)"""
    system = make_default_system(nvm_tests=6, uart_tests=3)
    cache = ResultCache(tmp_path)
    RegressionScheduler(cache=cache, max_instructions=1).run_system(
        system.environments, deriv
    )
    fresh = make_default_system(nvm_tests=6, uart_tests=3)
    checked = 0
    for env in fresh.environments.values():
        index = cache.load_index(env.name, deriv.name)
        for cell_name in env.cells:
            for tgt in all_targets():
                build_key, digest = index[f"{cell_name}/{tgt.name}"]
                assert build_key == env.build_key(cell_name, deriv, tgt)
                image = env.build_image(cell_name, deriv, tgt).image
                assert digest == image.digest()
                checked += 1
    assert checked == 174
    warm = ResultCache(tmp_path)
    RegressionScheduler(cache=warm, max_instructions=1).run_system(
        make_default_system(nvm_tests=6, uart_tests=3).environments, deriv
    )
    assert warm.index_hits == checked
    assert warm.index_stale == 0


def test_cli_import_skips_numpy_and_multiprocessing():
    probe = (
        "import sys, repro.cli; "
        "print(sorted(m for m in ('numpy', 'multiprocessing') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
