"""Unit tests for the serving layer: scenario packs, the write-ahead
journal, the warm session pool and the transport-independent
:class:`RegressionService` core."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from logtools import JOB, rot_record, segments
from repro.core.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    SITE_JOURNAL_WRITE,
    SITE_POOL_LEASE,
    SITE_SERVICE_ACCEPT,
    SITE_SESSION_RUN,
    FaultInjector,
)
from repro.core.system_env import make_default_system
from repro.core.targets import TARGET_GOLDEN, TARGET_RTL
from repro.core.workspace import write_system_environment
from repro.service import (
    JobJournal,
    JournalError,
    PackError,
    RegressionService,
    ServiceError,
    ServiceUnavailable,
    WarmSessionPool,
    pack_to_dict,
    parse_pack,
    resolve_pack,
)
from repro.soc.derivatives import SC88A

SRC = Path(__file__).resolve().parents[1] / "src"

#: A daemon's journal killed between accept and settle: three accepts,
#: one settle, then SIGKILL (argv[1] is the journal directory).
KILL9_CHILD = """
import os, signal, sys
from repro.service import JobJournal
journal = JobJournal(sys.argv[1])
for n in (1, 2, 3):
    journal.accept(f"job-{n:06d}", {"name": f"pack{n}"})
journal.settle("job-000002", "completed", {})
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny on-disk workspace: one NVM test cell, no UART module."""
    system = make_default_system(nvm_tests=1, uart_tests=0)
    return write_system_environment(
        system, tmp_path_factory.mktemp("serve-ws") / "ws"
    )


def smoke_pack(**overrides) -> dict:
    pack = {
        "schema": 1,
        "name": "smoke",
        "modules": ["NVM"],
        "targets": ["golden"],
        "executor": "serial",
    }
    pack.update(overrides)
    return pack


async def collect(stream) -> list[dict]:
    return [event async for event in stream]


# --------------------------------------------------------------------------
# protocol
# --------------------------------------------------------------------------

class TestScenarioPack:
    def test_roundtrip(self):
        pack = parse_pack(
            smoke_pack(cells=["TEST_NVM_PAGE_001"], deadline=30.0, jobs=2)
        )
        assert pack.name == "smoke"
        assert pack.modules == ("NVM",)
        assert pack.cells == ("TEST_NVM_PAGE_001",)
        assert pack.deadline == 30.0
        assert parse_pack(pack_to_dict(pack)) == pack

    def test_defaults(self):
        pack = parse_pack({"schema": 1, "name": "n"})
        assert pack.modules is None
        assert pack.targets is None
        assert pack.retries == 2

    @pytest.mark.parametrize(
        "legacy",
        [
            {"executor": "serial"},
            {"executor": "auto"},
            {"jobs": 4},
            {"run_timeout": 2.5},
        ],
    )
    def test_legacy_fields_parse_and_select_nothing(self, legacy):
        # Packs written for the process pool still parse; the fields
        # are validated but every job runs serially on the warm pool.
        pack = parse_pack(smoke_pack(**legacy))
        assert pack == parse_pack(smoke_pack())
        assert not set(legacy) & set(pack_to_dict(pack))

    @pytest.mark.parametrize(
        "mutation",
        [
            {"schema": 2},
            {"schema": None},
            {"name": ""},
            {"name": 7},
            {"executor": "rocket"},
            {"jobs": 0},
            {"jobs": True},
            {"retries": -1},
            {"deadline": 0},
            {"deadline": -1.0},
            {"run_timeout": "fast"},
            {"max_instructions": 0},
            {"modules": []},
            {"modules": [""]},
            {"cells": "TEST_NVM_PAGE_001"},
            {"surprise": 1},
        ],
    )
    def test_rejects_malformed(self, mutation):
        with pytest.raises(PackError):
            parse_pack(smoke_pack(**mutation))

    def test_rejects_non_object(self):
        with pytest.raises(PackError):
            parse_pack(["not", "a", "pack"])

    @pytest.mark.parametrize("executor", ["thread", "batch", "process"])
    def test_rejects_removed_executors(self, executor):
        with pytest.raises(
            PackError, match="pack field 'executor' must be one of"
        ):
            parse_pack(smoke_pack(executor=executor))

    def test_resolve(self, workspace):
        pack = parse_pack(smoke_pack())
        environments, derivative, targets = resolve_pack(pack, workspace)
        assert derivative is SC88A
        assert [t.name for t in targets] == ["golden"]
        assert list(environments) == ["NVM"]

    def test_resolve_cell_filter(self, workspace):
        pack = parse_pack(
            smoke_pack(modules=None, cells=["TEST_NVM_PAGE_001"])
        )
        environments, _deriv, _targets = resolve_pack(pack, workspace)
        cells = [
            name for env in environments.values() for name in env.cells
        ]
        assert cells == ["TEST_NVM_PAGE_001"]

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ({"derivative": "sc99z"}, "unknown derivative"),
            ({"targets": ["warp-drive"]}, "unknown target"),
            ({"modules": ["GPU"]}, "unknown module"),
            ({"cells": ["TEST_NOPE_001"]}, "unknown test cell"),
        ],
    )
    def test_resolve_unknown_names(self, workspace, mutation, message):
        pack = parse_pack(smoke_pack(**mutation))
        with pytest.raises(PackError, match=message):
            resolve_pack(pack, workspace)

    def test_env_cache_reuses_warm_environment(self, workspace):
        pack = parse_pack(smoke_pack())
        cache: dict = {}
        first, _, _ = resolve_pack(pack, workspace, env_cache=cache)
        second, _, _ = resolve_pack(pack, workspace, env_cache=cache)
        # Same instance: the memoised build artifacts ride along.
        assert second["NVM"] is first["NVM"]

    def test_env_cache_invalidates_on_edit(self, workspace):
        pack = parse_pack(smoke_pack())
        cache: dict = {}
        first, _, _ = resolve_pack(pack, workspace, env_cache=cache)
        cell_file = workspace / "NVM" / "TEST_NVM_PAGE_001" / "test.asm"
        cell_file.write_text(cell_file.read_text() + "\n; edited\n")
        try:
            second, _, _ = resolve_pack(pack, workspace, env_cache=cache)
            # Edited sources must never serve a stale environment.
            assert second["NVM"] is not first["NVM"]
        finally:
            cell_file.write_text(
                cell_file.read_text().replace("\n; edited\n", "")
            )

    def test_cell_filter_does_not_mutate_cached_env(self, workspace):
        cache: dict = {}
        full_pack = parse_pack(smoke_pack())
        filtered_pack = parse_pack(
            smoke_pack(cells=["TEST_NVM_PAGE_001"])
        )
        resolve_pack(full_pack, workspace, env_cache=cache)
        resolve_pack(filtered_pack, workspace, env_cache=cache)
        # The cached environment still sees every cell.
        full_again, _, _ = resolve_pack(
            full_pack, workspace, env_cache=cache
        )
        assert "TEST_NVM_PAGE_001" in full_again["NVM"].cells

    def test_environments_share_one_global_layer(self, workspace):
        pack = parse_pack(smoke_pack(modules=None))
        alone, _, _ = resolve_pack(pack, workspace)
        assert len(alone) > 1
        assert len({id(env.global_layer) for env in alone.values()}) == 1
        cache: dict = {}
        first, _, _ = resolve_pack(pack, workspace, env_cache=cache)
        layer = first["NVM"].global_layer
        cell_file = workspace / "NVM" / "TEST_NVM_PAGE_001" / "test.asm"
        cell_file.write_text(cell_file.read_text() + "\n; edited\n")
        try:
            second, _, _ = resolve_pack(pack, workspace, env_cache=cache)
        finally:
            cell_file.write_text(
                cell_file.read_text().replace("\n; edited\n", "")
            )
        # A reloaded environment joins the cached layer's objects.
        assert second["NVM"] is not first["NVM"]
        assert all(env.global_layer is layer for env in second.values())


# --------------------------------------------------------------------------
# journal
# --------------------------------------------------------------------------

class TestJobJournal:
    def test_accept_settle_roundtrip(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.accept("job-1", {"name": "a"})
        journal.accept("job-2", {"name": "b"})
        assert [job for job, _ in journal.pending_jobs()] == ["job-1", "job-2"]
        assert journal.settle("job-1", "completed", {"clean": True})
        assert [job for job, _ in journal.pending_jobs()] == ["job-2"]
        journal.close()

    def test_replay_after_crash(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.accept("job-1", {"name": "a"})
        journal.settle("job-1", "completed", {})
        journal.accept("job-2", {"name": "b"})
        # Crash: no settle for job-2, no close(), just abandon the
        # handle the way kill -9 would.
        reborn = JobJournal(tmp_path)
        assert reborn.pending_jobs() == [("job-2", {"name": "b"})]
        assert reborn.replayed_jobs == 1
        assert reborn.corrupt_records == 0
        reborn.close()

    def test_corrupt_record_counted_not_trusted(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.accept("job-1", {"name": "a"})
        journal.accept("job-2", {"name": "b"})
        journal.close()
        # Rot the first record in place (its frame survives).
        segment = rot_record(tmp_path, JOB)
        reborn = JobJournal(tmp_path)
        assert reborn.corrupt_records == 1
        assert [job for job, _ in reborn.pending_jobs()] == ["job-2"]
        # The segment is kept as evidence, not deleted.
        assert reborn.quarantined == 1
        (aside,) = tmp_path.glob("*.corrupt")
        assert aside.name.startswith(f"{segment.stem}.")
        reborn.close()

    def test_compaction_bounds_segments(self, tmp_path):
        journal = JobJournal(tmp_path, segment_records=4)
        for index in range(10):
            journal.accept(f"job-{index}", {"name": str(index)})
            journal.settle(f"job-{index}", "completed", {})
        journal.accept("job-last", {"name": "pending"})
        journal.close()
        assert len(segments(tmp_path)) == 1
        assert journal.compactions >= 2
        reborn = JobJournal(tmp_path)
        assert [job for job, _ in reborn.pending_jobs()] == ["job-last"]
        reborn.close()

    def test_injected_write_fault_refuses_accept(self, tmp_path):
        plan = FaultPlan(
            specs=[FaultSpec(site=SITE_JOURNAL_WRITE, action="raise")]
        )
        journal = JobJournal(tmp_path, injector=FaultInjector(plan))
        with pytest.raises(JournalError):
            journal.accept("job-1", {"name": "a"})
        # The refused job is not pending: it was never acknowledged.
        assert journal.pending_jobs() == []
        journal.close()

    def test_injected_corruption_detected_on_replay(self, tmp_path):
        plan = FaultPlan(
            seed=7,
            specs=[FaultSpec(site=SITE_JOURNAL_WRITE, action="corrupt")],
        )
        journal = JobJournal(tmp_path, injector=FaultInjector(plan))
        journal.accept("job-1", {"name": "a"})
        journal.close()
        reborn = JobJournal(tmp_path)
        # The torn accept is an *explicit* loss report, never silence.
        assert reborn.corrupt_records == 1
        assert reborn.pending_jobs() == []
        assert reborn.quarantined == 1
        reborn.close()

    def test_settle_failure_returns_false(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.accept("job-1", {"name": "a"})
        journal.close()
        assert journal.settle("job-1", "completed", {}) is False

    def test_accept_filling_segment_survives_crash(self, tmp_path):
        # Regression: when an accept record fills the segment, the
        # triggered compaction must include that accept in the
        # rewritten segment — compacting before the pending set was
        # updated silently dropped the just-acknowledged job.
        journal = JobJournal(tmp_path, segment_records=2)
        journal.accept("job-1", {"name": "a"})
        journal.accept("job-2", {"name": "b"})  # fills → compacts
        assert journal.compactions >= 2  # boot compaction + this one
        # Crash: abandon the handle the way kill -9 would.
        reborn = JobJournal(tmp_path)
        assert [job for job, _ in reborn.pending_jobs()] == [
            "job-1",
            "job-2",
        ]
        reborn.close()

    def test_settle_filling_segment_not_replayed(self, tmp_path):
        # Mirror regression: a settle-triggered compaction must not
        # re-persist the settling job as pending (dropping the settle
        # record caused spurious replay of completed jobs).
        journal = JobJournal(tmp_path, segment_records=2)
        journal.accept("job-1", {"name": "a"})
        assert journal.settle("job-1", "completed", {})  # fills → compacts
        reborn = JobJournal(tmp_path)
        assert reborn.pending_jobs() == []
        reborn.close()

    def test_compaction_failure_tolerated(self, tmp_path):
        # The append itself is durable; a failed compaction must not
        # escape accept()/settle() as a raw exception (the daemon maps
        # JournalError → 503; anything else reads as a 500 while the
        # record is already on disk).
        journal = JobJournal(tmp_path, segment_records=2)

        def boom():
            raise OSError("disk full")

        journal._compact = boom
        journal.accept("job-1", {"name": "a"})
        journal.accept("job-2", {"name": "b"})  # fills → compaction fails
        assert journal.settle("job-1", "completed", {})  # fails again
        stats = journal.stats()
        assert stats["compaction_failures"] == 2
        assert [job for job, _ in journal.pending_jobs()] == ["job-2"]
        journal.close()

    def test_failed_settle_is_not_compacted_back(self, tmp_path):
        # A job whose settle could not be written finished all the
        # same: the next compaction drops its accept, as it drops a
        # settled job's.
        plan = FaultPlan(specs=[
            FaultSpec(site=SITE_JOURNAL_WRITE, action="raise", after=1),
        ])
        journal = JobJournal(
            tmp_path, injector=FaultInjector(plan), segment_records=2
        )
        journal.accept("job-1", {"name": "a"})
        assert journal.settle("job-1", "completed", {}) is False
        assert journal.pending_jobs() == []
        journal.accept("job-2", {"name": "b"})  # fills → compacts
        journal.close()
        reborn = JobJournal(tmp_path)
        assert [job for job, _ in reborn.pending_jobs()] == ["job-2"]
        reborn.close()

    def test_sigkill_child_replays_exactly_the_unsettled_jobs(
        self, tmp_path
    ):
        """A real kill -9: a child accepts three jobs, settles one and
        SIGKILLs itself.  The reopened journal holds exactly the other
        two, folded into one segment, with nothing corrupt or torn."""
        child = subprocess.run(
            [sys.executable, "-c", KILL9_CHILD, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
        assert child.returncode == -signal.SIGKILL
        reborn = JobJournal(tmp_path)
        assert reborn.pending_jobs() == [
            ("job-000001", {"name": "pack1"}),
            ("job-000003", {"name": "pack3"}),
        ]
        assert (reborn.corrupt_records, reborn.torn) == (0, 0)
        assert len(segments(tmp_path)) == 1
        assert list(tmp_path.glob("*.corrupt")) == []
        reborn.close()

    def test_earlier_layout_segments_are_refused_untouched(self, tmp_path):
        old = tmp_path / "journal-00000003.ndjson"
        old.write_bytes(b'{"schema": 1}\n')
        with pytest.raises(JournalError, match="journal-00000003.ndjson"):
            JobJournal(tmp_path)
        assert old.read_bytes() == b'{"schema": 1}\n'
        assert list(tmp_path.iterdir()) == [old]


# --------------------------------------------------------------------------
# pool
# --------------------------------------------------------------------------

class TestWarmSessionPool:
    def test_warm_reuse(self):
        pool = WarmSessionPool()
        first = pool.lease(TARGET_GOLDEN, SC88A)
        pool.release(first)
        second = pool.lease(TARGET_GOLDEN, SC88A)
        assert second is first
        assert pool.stats()["warm_hits"] == 1
        assert pool.stats()["cold_builds"] == 1
        pool.close()

    def test_keys_separate_targets(self):
        pool = WarmSessionPool()
        golden = pool.lease(TARGET_GOLDEN, SC88A)
        pool.release(golden)
        rtl = pool.lease(TARGET_RTL, SC88A)
        assert rtl is not golden
        assert pool.stats()["cold_builds"] == 2
        pool.close()

    def test_unhealthy_release_discards(self):
        pool = WarmSessionPool()
        session = pool.lease(TARGET_GOLDEN, SC88A)
        pool.release(session, healthy=False)
        assert pool.stats()["idle"] == 0
        assert pool.lease(TARGET_GOLDEN, SC88A) is not session
        pool.close()

    def test_poisoned_session_never_rejoins(self):
        pool = WarmSessionPool()
        session = pool.lease(TARGET_GOLDEN, SC88A)
        session.poisoned = True
        pool.release(session)  # vouched healthy, but the session knows
        assert pool.stats()["idle"] == 0
        assert pool.stats()["recycled"] == 1
        pool.close()

    def test_lru_eviction_bounds_idle(self):
        pool = WarmSessionPool(max_idle=2)
        sessions = [pool.lease(TARGET_GOLDEN, SC88A) for _ in range(3)]
        for session in sessions:
            pool.release(session)
        stats = pool.stats()
        assert stats["idle"] == 2
        assert stats["evicted"] == 1
        # The evicted one is the oldest return: sessions[0].
        assert pool.lease(TARGET_GOLDEN, SC88A) is sessions[2]
        pool.close()

    def test_lease_discards_session_wedged_while_idle(self):
        # The lease-time health check is the pool's supervision: a
        # session that broke while idle is dropped, never handed out.
        pool = WarmSessionPool()
        healthy = pool.lease(TARGET_GOLDEN, SC88A)
        broken = pool.lease(TARGET_GOLDEN, SC88A)
        pool.release(healthy)
        pool.release(broken)
        broken.poisoned = True  # wedged while idle
        assert pool.lease(TARGET_GOLDEN, SC88A) is healthy
        assert pool.stats()["recycled"] == 1
        assert pool.stats()["idle"] == 0
        pool.close()

    def test_lease_chaos_counts_and_propagates(self):
        plan = FaultPlan(
            specs=[FaultSpec(site=SITE_POOL_LEASE, action="raise")]
        )
        pool = WarmSessionPool(injector=FaultInjector(plan))
        with pytest.raises(InjectedFault):
            pool.lease(TARGET_GOLDEN, SC88A)
        assert pool.stats()["lease_failures"] == 1
        # The plan's single shot is spent; the pool self-heals.
        assert pool.probe(TARGET_GOLDEN, SC88A)
        pool.close()

    def test_probe_false_over_broken_pool(self):
        plan = FaultPlan(
            specs=[
                FaultSpec(site=SITE_POOL_LEASE, action="raise", times=100)
            ]
        )
        pool = WarmSessionPool(injector=FaultInjector(plan))
        assert pool.probe(TARGET_GOLDEN, SC88A) is False
        pool.close()

    def test_close_drops_idle(self):
        pool = WarmSessionPool()
        pool.release(pool.lease(TARGET_GOLDEN, SC88A))
        pool.close()
        assert pool.stats()["idle"] == 0


# --------------------------------------------------------------------------
# service core
# --------------------------------------------------------------------------

def run_async(coroutine):
    return asyncio.run(coroutine)


class TestRegressionService:
    def test_submit_streams_cells_then_done(self, workspace):
        async def scenario():
            service = RegressionService(workspace)
            events = await collect(service.submit(smoke_pack()))
            await service.drain()
            return events

        events = run_async(scenario())
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted"
        assert kinds[-1] == "done"
        assert "cell" in kinds
        cell = next(e for e in events if e["event"] == "cell")
        assert cell["status"] == "pass"
        done = events[-1]
        assert done["clean"] is True
        assert done["total_runs"] == 1

    def test_second_request_hits_warm_pool(self, workspace):
        async def scenario():
            service = RegressionService(workspace)
            await collect(service.submit(smoke_pack()))
            await collect(service.submit(smoke_pack(name="again")))
            stats = service.stats()
            await service.drain()
            return stats

        stats = run_async(scenario())
        assert stats["pool"]["warm_hits"] >= 1
        assert stats["jobs"]["completed"] == 2

    def test_admission_sheds_beyond_bound(self, workspace):
        async def scenario():
            service = RegressionService(workspace, max_pending=1)
            service._active = 1  # a job is mid-flight
            with pytest.raises(ServiceUnavailable) as excinfo:
                await collect(service.submit(smoke_pack()))
            shed = service.jobs_shed
            retry_after = excinfo.value.retry_after
            service._active = 0
            await service.drain()
            return shed, retry_after

        shed, retry_after = run_async(scenario())
        assert shed == 1
        assert retry_after > 0

    def test_concurrent_submits_respect_bound(self, workspace, tmp_path):
        # Regression: the admission check and _start_job's _active
        # increment are separated by the journal-accept await, so
        # concurrent submissions could all pass the check and exceed
        # max_pending.  A slot must be reserved across the await.
        async def scenario():
            journal = JobJournal(tmp_path / "journal")
            original_accept = journal.accept

            def slow_accept(job_id, pack_data):
                time.sleep(0.02)
                original_accept(job_id, pack_data)

            journal.accept = slow_accept
            service = RegressionService(
                workspace, journal=journal, max_pending=1
            )
            results = await asyncio.gather(
                collect(service.submit(smoke_pack(name="one"))),
                collect(service.submit(smoke_pack(name="two"))),
                return_exceptions=True,
            )
            shed = service.jobs_shed
            await service.drain()
            return results, shed

        results, shed = run_async(scenario())
        assert shed == 1
        shed_errors = [
            r for r in results if isinstance(r, ServiceUnavailable)
        ]
        completed = [r for r in results if isinstance(r, list)]
        assert len(shed_errors) == 1
        assert len(completed) == 1
        assert completed[0][-1]["event"] == "done"

    def test_draining_refuses_submissions(self, workspace):
        async def scenario():
            service = RegressionService(workspace)
            await service.drain()
            with pytest.raises(ServiceUnavailable, match="draining"):
                await collect(service.submit(smoke_pack()))

        run_async(scenario())

    def test_malformed_pack_rejected_before_accept(self, workspace):
        async def scenario():
            service = RegressionService(workspace)
            with pytest.raises(PackError):
                await collect(service.submit({"schema": 1}))
            accepted = service.jobs_accepted
            await service.drain()
            return accepted

        assert run_async(scenario()) == 0

    def test_unresolvable_pack_fails_explicitly(self, workspace):
        async def scenario():
            service = RegressionService(workspace)
            events = await collect(
                service.submit(smoke_pack(modules=["GPU"]))
            )
            await service.drain()
            return events

        events = run_async(scenario())
        assert events[-1]["event"] == "error"
        assert "GPU" in events[-1]["error"]

    def test_accept_chaos_is_explicit_refusal(self, workspace):
        async def scenario():
            plan = FaultPlan(
                specs=[FaultSpec(site=SITE_SERVICE_ACCEPT, action="raise")]
            )
            service = RegressionService(workspace, fault_plan=plan)
            with pytest.raises(ServiceError, match="admission fault"):
                await collect(service.submit(smoke_pack()))
            # The very next submission sails through: chaos was windowed.
            events = await collect(service.submit(smoke_pack()))
            await service.drain()
            return events

        assert run_async(scenario())[-1]["event"] == "done"

    def test_journal_outage_refuses_not_loses(self, workspace, tmp_path):
        async def scenario():
            plan = FaultPlan(
                specs=[FaultSpec(site=SITE_JOURNAL_WRITE, action="raise")]
            )
            service = RegressionService(
                workspace,
                journal=JobJournal(tmp_path / "journal"),
                fault_plan=plan,
            )
            with pytest.raises(ServiceUnavailable, match="journal"):
                await collect(service.submit(smoke_pack()))
            accepted = service.jobs_accepted
            await service.drain()
            return accepted

        assert run_async(scenario()) == 0

    def test_deadline_fails_job_and_reclaims_sessions(self, workspace):
        # The first run hangs, so the job always outlives its deadline
        # and the engine thread hands its session back after it.
        hang = FaultSpec(site=SITE_SESSION_RUN, action="hang", hang_seconds=0.5)

        async def scenario():
            service = RegressionService(
                workspace, fault_plan=FaultPlan(specs=[hang])
            )
            events = await collect(
                service.submit(smoke_pack(), deadline=1e-6)
            )
            # Wait for the engine thread to hand its session back
            # (which the pool must then discard).
            for _ in range(500):
                if service.pool.stats()["recycled"] >= 1:
                    break
                await asyncio.sleep(0.01)
            await service.drain()
            return events, service.pool.stats(), service.stats()

        events, pool_stats, stats = run_async(scenario())
        assert events[-1]["event"] == "error"
        assert "deadline exceeded" in events[-1]["error"]
        assert stats["jobs"]["failed"] == 1
        # The job's session must not have rejoined the warm pool.
        assert pool_stats["idle"] == 0
        assert pool_stats["recycled"] >= 1

    def test_replay_runs_pending_jobs(self, workspace, tmp_path):
        journal_dir = tmp_path / "journal"
        # A daemon accepted a job and was killed before settling it.
        journal = JobJournal(journal_dir)
        journal.accept("job-000042", smoke_pack())
        del journal  # kill -9: no settle, no close

        async def scenario():
            service = RegressionService(
                workspace, journal=JobJournal(journal_dir)
            )
            replayed = await service.replay_pending()
            await service.drain()
            return replayed, service.stats()

        replayed, stats = run_async(scenario())
        assert replayed == 1
        assert stats["jobs"]["completed"] == 1
        assert stats["journal"]["pending"] == 0
        # The settle is durable: a third incarnation replays nothing.
        assert JobJournal(journal_dir).pending_jobs() == []

    def test_replay_settles_removed_executor_as_unreplayable(
        self, workspace, tmp_path
    ):
        journal_dir = tmp_path / "journal"
        journal = JobJournal(journal_dir)
        journal.accept("job-000043", smoke_pack(executor="batch"))
        journal.accept("job-000044", smoke_pack(executor="process", jobs=2))
        del journal  # kill -9: no settle, no close

        async def scenario():
            journal = JobJournal(journal_dir)
            settled = []
            settle = journal.settle

            def record(job_id, status, summary):
                settled.append((job_id, status, summary))
                return settle(job_id, status, summary)

            journal.settle = record
            service = RegressionService(workspace, journal=journal)
            replayed = await service.replay_pending()
            await service.drain()
            return replayed, settled

        replayed, settled = run_async(scenario())
        assert replayed == 0
        assert settled == [
            ("job-000043", "failed", {"error": "unreplayable pack"}),
            ("job-000044", "failed", {"error": "unreplayable pack"}),
        ]
        assert JobJournal(journal_dir).pending_jobs() == []

    def test_ready_reflects_pool_health(self, workspace):
        async def scenario():
            broken_plan = FaultPlan(
                specs=[
                    FaultSpec(
                        site=SITE_POOL_LEASE, action="raise", times=10_000
                    )
                ]
            )
            broken = RegressionService(workspace, fault_plan=broken_plan)
            healthy = RegressionService(workspace)
            broken_ready, _ = await broken.ready()
            healthy_ready, _ = await healthy.ready()
            await healthy.drain()
            drained_ready, reason = await healthy.ready()
            await broken.drain()
            return broken_ready, healthy_ready, drained_ready, reason

        broken_ready, healthy_ready, drained_ready, reason = run_async(
            scenario()
        )
        assert broken_ready is False
        assert healthy_ready is True
        assert drained_ready is False and reason == "draining"

    def test_disconnected_subscriber_does_not_lose_job(
        self, workspace, tmp_path
    ):
        async def scenario():
            service = RegressionService(
                workspace, journal=JobJournal(tmp_path / "journal")
            )
            stream = service.submit(smoke_pack())
            first = await anext(stream)
            assert first["event"] == "accepted"
            await stream.aclose()  # client hangs up mid-stream
            await service.drain()
            return service.stats()

        stats = run_async(scenario())
        assert stats["jobs"]["completed"] == 1
        assert stats["journal"]["pending"] == 0

    def test_stats_shape(self, workspace, tmp_path):
        async def scenario():
            service = RegressionService(
                workspace, journal=JobJournal(tmp_path / "journal")
            )
            stats = service.stats()
            await service.drain()
            return stats

        stats = run_async(scenario())
        assert set(stats) >= {"jobs", "admission", "pool", "journal"}
        assert json.dumps(stats)  # /stats must always serialize
