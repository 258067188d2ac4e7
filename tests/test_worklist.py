"""Fleet work-list acceptance: lease claims, work stealing, idempotent
publication, chaos containment and multi-process SIGKILL, hang and
poison-cell recovery.

The contract: several scheduler processes sharing one result cache
directory divide a matrix by racing lease-based claims on its verdict
keys; a SIGKILLed worker's cells are stolen by survivors after its
lease expires, and so are the cells of a worker wedged past its
per-cell deadline; a cell that kills every process running it costs at
most ``retries + 1`` processes before the fleet quarantines it; a
verdict is published once, as the shared cache's own record, so
at-least-once execution yields exactly-once accounting; corrupt
published records are counted and re-derived, never trusted, and kept
as evidence once their writer is gone; and healthy-cell verdicts are
byte-identical to a scalar serial run of the same matrix.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from logtools import VERDICT, rot_record, segments
from repro.core.durable import parse_segment
from repro.core.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SITE_CACHE_READ,
    SITE_CACHE_WRITE,
    SITE_LEASE_RENEW,
    SITE_SESSION_RUN,
)
from repro.core import scheduler as scheduler_module
from repro.core.scheduler import (
    RegressionScheduler,
    ResultCache,
    result_to_payload,
)
from repro.core.system_env import make_default_system
from repro.core.targets import target as lookup_target
from repro.core.workspace import (
    load_module_environment,
    write_system_environment,
)
from repro.soc.derivatives import derivative as lookup_derivative
from repro.store import WorkList
from repro.verdict import RunResult, RunStatus

TARGETS = ["golden", "rtl"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return write_system_environment(
        make_default_system(nvm_tests=2, uart_tests=0),
        tmp_path_factory.mktemp("fleet-ws") / "ws",
    )


def make_scheduler(workspace, worklist=None, fault_plan=None, targets=TARGETS):
    return RegressionScheduler(
        targets=[lookup_target(name) for name in targets],
        worklist=worklist,
        fault_plan=fault_plan,
    )


def run_matrix(workspace, worklist=None, fault_plan=None, targets=TARGETS):
    scheduler = make_scheduler(workspace, worklist, fault_plan, targets)
    environments = {"NVM": load_module_environment(Path(workspace) / "NVM")}
    report = scheduler.run_system(
        environments, lookup_derivative("sc88a")
    )
    return scheduler, report


def fleet(directory, **kwargs) -> WorkList:
    """A work-list over the result cache in *directory*."""
    return WorkList(ResultCache(directory), **kwargs)


def verdict_records(directory: Path) -> list[tuple]:
    """Every intact verdict record in the cache's log segments."""
    return [
        record
        for segment in segments(directory)
        for record in parse_segment(segment.read_bytes())[0]
        if record[1] == "verdict"
    ]


def published(directory: Path) -> dict[str, str]:
    """Verdict key -> payload text of every intact verdict in the
    shared cache's log."""
    return {key: text for _stamp, _space, key, text, _line in
            verdict_records(directory)}


def result(cycles: int) -> RunResult:
    return RunResult(
        platform="golden", derivative="sc88a", status=RunStatus.PASS,
        cycles=cycles,
    )


def verdict_bytes(report) -> dict[tuple, bytes]:
    return {
        key: json.dumps(
            result_to_payload(result), sort_keys=True
        ).encode()
        for key, result in report.results.items()
    }


# --------------------------------------------------------------------------
# lease protocol
# --------------------------------------------------------------------------

class TestLease:
    def make(self, tmp_path, **kwargs):
        now = [1_000.0]
        kwargs.setdefault("clock", lambda: now[0])
        kwargs.setdefault("lease_ttl", 10.0)
        return fleet(tmp_path, **kwargs), now

    def test_claim_is_exclusive_while_live(self, tmp_path):
        worklist, _now = self.make(tmp_path, owner="a")
        rival, _ = self.make(tmp_path, owner="b")
        lease = worklist.claim("cell")
        assert lease is not None and not lease.stolen
        assert rival.claim("cell") is None
        worklist.release(lease)
        assert rival.claim("cell") is not None
        assert worklist.claimed == 1 and worklist.released == 1

    def test_expired_lease_is_stolen_with_nonce_confirm(self, tmp_path):
        worklist, now = self.make(tmp_path, owner="dead")
        survivor, snow = self.make(tmp_path, owner="alive")
        lease = worklist.claim("cell")
        assert lease is not None
        # Dead worker: wall clock passes the expiry on both sides.
        now[0] += 20.0
        snow[0] += 20.0
        stolen = survivor.claim("cell")
        assert stolen is not None and stolen.stolen
        assert survivor.stolen == 1
        # The original holder's release must not unlink the stolen
        # lease: the nonce no longer matches.
        worklist.release(lease)
        assert (tmp_path / "leases" / "cell.lease").exists()

    def test_renew_extends_and_detects_lost_ownership(self, tmp_path):
        worklist, now = self.make(tmp_path, owner="a")
        lease = worklist.claim("cell")
        before = lease.expires
        now[0] += 5.0
        assert worklist.renew(lease)
        assert lease.expires > before
        assert worklist.renewed == 1
        # Another worker steals after expiry; our renew must detect
        # the foreign nonce and mark the lease lost, not clobber it.
        rival, rnow = self.make(tmp_path, owner="thief")
        now[0] += 20.0
        rnow[0] = now[0]
        assert rival.claim("cell") is not None
        assert not worklist.renew(lease)
        assert lease.lost
        assert worklist.lease_lost == 1
        # A lost lease stays lost; renew never resurrects it.
        assert not worklist.renew(lease)

    def test_renew_chaos_site_fires_and_is_contained(self, tmp_path):
        plan = FaultPlan(
            seed=7,
            specs=[FaultSpec(site=SITE_LEASE_RENEW, action="raise")],
        )
        injector = FaultInjector(plan)
        worklist, _now = self.make(tmp_path, injector=injector)
        lease = worklist.claim("cell")
        assert not worklist.renew(lease)
        assert lease.lost
        assert worklist.lease_lost == 1
        assert ("lease-renew", "cell", "raise") in injector.fired

    def test_torn_lease_file_is_claimable(self, tmp_path):
        worklist, _now = self.make(tmp_path)
        (tmp_path / "leases").mkdir(exist_ok=True)
        (tmp_path / "leases" / "cell.lease").write_bytes(b"to")
        lease = worklist.claim("cell")
        assert lease is not None and lease.stolen

    def test_steal_count_survives_renewal_and_grows_per_steal(
        self, tmp_path
    ):
        first, now = self.make(tmp_path, owner="first")
        lease = first.claim("cell")
        assert lease.steals == 0 and not lease.stolen
        for owner in ("second", "third"):
            now[0] += 20.0
            thief, tnow = self.make(tmp_path, owner=owner)
            tnow[0] = now[0]
            lease = thief.claim("cell")
            assert lease is not None and lease.stolen
            assert thief.renew(lease)
        assert lease.steals == 2
        record = json.loads((tmp_path / "leases" / "cell.lease").read_text())
        assert record["steals"] == 2

    def test_poison_expires_the_record_but_keeps_its_count(self, tmp_path):
        worklist, now = self.make(tmp_path, owner="dead")
        worklist.claim("cell")
        now[0] += 20.0
        stealer, snow = self.make(tmp_path, owner="stealer")
        snow[0] = now[0]
        lease = stealer.claim("cell")
        stealer.poison(lease)
        assert stealer.poisoned == 1
        # The next claimant steals at once, with the count carried on.
        later, _lnow = self.make(tmp_path, owner="later")
        again = later.claim("cell")
        assert again is not None and again.steals == 2

    def test_lapse_stops_renewal_without_touching_the_record(
        self, tmp_path
    ):
        worklist, _now = self.make(tmp_path)
        lease = worklist.claim("cell")
        before = (tmp_path / "leases" / "cell.lease").read_bytes()
        worklist.lapse(lease)
        worklist.lapse(lease)
        assert lease.lost and worklist.lapsed == 1
        assert not worklist.renew(lease)
        assert (tmp_path / "leases" / "cell.lease").read_bytes() == before


# --------------------------------------------------------------------------
# publication
# --------------------------------------------------------------------------

class TestPublish:
    def test_first_writer_wins_and_duplicates_count(self, tmp_path):
        first = fleet(tmp_path, owner="a")
        second = fleet(tmp_path, owner="b")
        assert first.publish("cell", result(1))
        assert not second.publish("cell", result(2))
        assert second.duplicates == 1
        # Every reader adopts the canonical first write.
        assert first.fetch("cell").cycles == 1
        assert second.fetch("cell").cycles == 1
        assert list(published(tmp_path)) == ["cell"]
        assert len(segments(tmp_path)) == 1

    def test_corrupt_result_is_quarantined_and_republishable(
        self, tmp_path
    ):
        writer = fleet(tmp_path)
        assert writer.publish("cell", result(1))
        writer.cache.close()
        rot_record(tmp_path, VERDICT)
        # Corrupt != trusted: counted, its dead segment renamed aside,
        # the cell re-enters the claimable pool and is re-derived.
        worklist = fleet(tmp_path)
        assert worklist.fetch("cell") is None
        assert worklist.cache.corrupt == 1
        assert worklist.cache.quarantined == 1
        assert list(tmp_path.glob("*.corrupt"))
        assert worklist.publish("cell", result(2))
        assert worklist.fetch("cell").cycles == 2

    def test_injected_read_corruption_quarantines_nothing(self, tmp_path):
        """A ``cache-read`` corruption hits a verdict already read into
        memory: counted and never served, but the bytes on disk are
        intact, so nothing is set aside and the next reader adopts it."""
        writer = fleet(tmp_path)
        assert writer.publish("cell", result(1))
        writer.cache.close()
        injector = FaultInjector(FaultPlan(seed=3, specs=[
            FaultSpec(site=SITE_CACHE_READ, action="corrupt"),
        ]))
        reader = WorkList(ResultCache(tmp_path, injector))
        assert reader.fetch("cell") is None
        assert (reader.cache.corrupt, reader.cache.quarantined) == (1, 0)
        assert not list(tmp_path.glob("*.corrupt"))
        assert fleet(tmp_path).fetch("cell").cycles == 1

    def test_unpublished_cell_is_not_a_cache_miss(self, tmp_path):
        """Polling a cell no peer published yet reads nothing: the
        cache's misses count only what its plan looked up."""
        worklist = fleet(tmp_path)
        assert worklist.fetch("cell") is None
        assert worklist.fetch("cell", targeted=True) is None
        assert worklist.cache.stats()["misses"] == 0

    @staticmethod
    def assert_contained(worklist: WorkList) -> None:
        assert worklist.disabled
        assert worklist.claim("cell") is None
        assert not worklist.publish("cell", result(1))
        assert worklist.fetch("cell") is None
        assert worklist.stats()["disabled"] == 1

    def test_disabled_worklist_contains_everything(self, tmp_path):
        squatter = tmp_path / "wl"
        squatter.write_text("a file where the cache should be")
        self.assert_contained(fleet(squatter))

    def test_uncreatable_lease_directory_disables_the_list(self, tmp_path):
        (tmp_path / "leases").write_text("a file where the leases should be")
        worklist = fleet(tmp_path)
        self.assert_contained(worklist)
        # The cache itself still works: only the fleet is off.
        assert not worklist.cache.disabled

    def test_cell_key_is_deterministic_and_distinct(self, tmp_path):
        """A fleet cell is the cache's verdict key: the same for the
        same image, target, derivative and budget, different when the
        target or the derivative differs, and computed from the image
        digest alone."""
        keys = ResultCache(tmp_path)
        sc88a = lookup_derivative("sc88a")
        key = keys.key_for("digest", lookup_target("golden"), sc88a, 1000)
        assert key == keys.key_for(
            "digest", lookup_target("golden"), sc88a, 1000
        )
        others = {
            keys.key_for("digest", lookup_target("rtl"), sc88a, 1000),
            keys.key_for(
                "digest", lookup_target("golden"),
                lookup_derivative("sc88b"), 1000,
            ),
            keys.key_for("other", lookup_target("golden"), sc88a, 1000),
            keys.key_for("digest", lookup_target("golden"), sc88a, 999),
        }
        assert key not in others and len(others) == 4
        assert len(key) == 64


# --------------------------------------------------------------------------
# fleet execution through the scheduler
# --------------------------------------------------------------------------

class TestFleetScheduler:
    def test_second_worker_adopts_every_published_verdict(
        self, workspace, tmp_path
    ):
        _oracle_sched, oracle = run_matrix(workspace)
        # The first worker's first cell stalls for several heartbeat
        # intervals: its live lease must be renewed, never lost.
        stall = FaultPlan(specs=[
            FaultSpec(site=SITE_SESSION_RUN, action="hang", hang_seconds=0.2)
        ])
        first_list = fleet(tmp_path, owner="first", lease_ttl=0.06)
        _first, first = run_matrix(
            workspace, worklist=first_list, fault_plan=stall
        )
        assert verdict_bytes(first) == verdict_bytes(oracle)
        assert first.executed_runs == first.total_runs
        assert first_list.renewed >= 1
        assert first_list.lease_lost == 0

        second_list = fleet(tmp_path, owner="second")
        _second_sched, second = run_matrix(workspace, worklist=second_list)
        # Everything was already published to the shared cache: the
        # second worker's plan serves byte-identical verdicts from it
        # and claims and executes nothing.
        assert verdict_bytes(second) == verdict_bytes(oracle)
        assert second.cached_runs == second.total_runs
        assert second.executed_runs == 0
        assert second_list.cache.hits == second.total_runs
        assert second_list.claimed == 0

    def test_verdict_published_before_the_claim_is_adopted(
        self, workspace, tmp_path
    ):
        """A peer publishes a cell and releases its lease between this
        worker's fetch and its claim: the claim succeeds, and the worker
        adopts the published verdict (releasing the lease) instead of
        running the cell a second time."""
        _oracle_sched, oracle = run_matrix(workspace)
        run_matrix(workspace, worklist=fleet(tmp_path / "source"))
        source = ResultCache(tmp_path / "source")
        peer = fleet(tmp_path / "shared", owner="peer")

        class Racing(WorkList):
            def claim(self, key):
                assert peer.publish(key, source.get(key))
                return super().claim(key)

        racing = Racing(ResultCache(tmp_path / "shared"), owner="racing")
        _sched, report = run_matrix(workspace, worklist=racing)
        assert verdict_bytes(report) == verdict_bytes(oracle)
        assert report.cached_runs == report.total_runs
        assert report.executed_runs == 0
        assert racing.duplicates == 0
        assert racing.claimed == racing.released == report.total_runs
        assert list((tmp_path / "shared" / "leases").iterdir()) == []

    def test_other_code_never_adopts_a_published_verdict(
        self, workspace, tmp_path, monkeypatch
    ):
        """Cells are keyed by the model digest: a worker running other
        engine code finds nothing its peers published and executes
        every run."""
        run_matrix(workspace, worklist=fleet(tmp_path, owner="first"))
        monkeypatch.setattr(scheduler_module, "model_digest", lambda: "0" * 64)
        other_list = fleet(tmp_path, owner="other")
        _other_sched, other = run_matrix(workspace, worklist=other_list)
        assert other.cached_runs == 0
        assert other.executed_runs == other.total_runs
        assert other_list.cache.corrupt == 0

    def test_matrix_completes_under_store_chaos(self, workspace, tmp_path):
        """Every site a fleet's I/O fires armed hot: every verdict read
        raises, every publish raises, every renew raises.  The matrix
        must still complete with locally-derived, byte-identical
        verdicts — store chaos degrades, it never wedges."""
        _oracle_sched, oracle = run_matrix(workspace)
        plan = FaultPlan(
            seed=11,
            specs=[
                FaultSpec(
                    site=SITE_CACHE_READ, action="raise", times=10_000
                ),
                FaultSpec(
                    site=SITE_CACHE_WRITE, action="raise", times=10_000
                ),
                FaultSpec(
                    site=SITE_LEASE_RENEW, action="raise", times=10_000
                ),
            ],
        )
        worklist = fleet(tmp_path, lease_ttl=5.0)
        _sched, report = run_matrix(
            workspace, worklist=worklist, fault_plan=plan
        )
        assert verdict_bytes(report) == verdict_bytes(oracle)
        assert report.quarantined_runs == 0
        assert report.total_runs == len(TARGETS) * 2
        # The chaos demonstrably hit the cache and was counted: each
        # failed publication, and the run's own put that retries it.
        assert worklist.published == 0
        assert worklist.cache.write_errors == 2 * report.total_runs
        assert worklist.cache.corrupt == 0  # nothing was ever published

    def test_quarantined_verdicts_are_never_published(
        self, workspace, tmp_path
    ):
        plan = FaultPlan(
            seed=5,
            specs=[
                FaultSpec(
                    site=SITE_SESSION_RUN,
                    action="raise",
                    times=10_000,
                    match="golden",
                )
            ],
        )
        worklist = fleet(tmp_path)
        _sched, report = run_matrix(
            workspace, worklist=worklist, fault_plan=plan
        )
        # golden cells quarantine locally; rtl cells publish.
        assert report.quarantined_runs == 2
        assert worklist.published == 2
        platforms = [
            json.loads(text)["platform"]
            for text in published(tmp_path).values()
        ]
        assert platforms == ["rtl", "rtl"]


# --------------------------------------------------------------------------
# multi-process SIGKILL stress (the fleet acceptance test)
# --------------------------------------------------------------------------

#: SIGKILL at the first session start — after claiming a lease, before
#: publishing anything — exactly the crash the steal protocol exists for.
KILL_FIRST_RUN = FaultPlan(
    specs=[FaultSpec(site=SITE_SESSION_RUN, action="kill")]
)


def _fleet_worker(
    workspace: str,
    store_dir: str,
    report_path: str,
    owner: str,
    lease_ttl: float,
    plan: FaultPlan | None = None,
    retries: int = 1,
    run_timeout: float | None = None,
    targets: list[str] = TARGETS,
) -> None:
    """One fleet worker process: regress NVM over the shared cache
    under *plan* and write its verdicts and counters to *report_path*."""
    worklist = fleet(store_dir, owner=owner, lease_ttl=lease_ttl)
    scheduler = RegressionScheduler(
        targets=[lookup_target(name) for name in targets],
        worklist=worklist,
        fault_plan=plan,
        retries=retries,
        run_timeout=run_timeout,
    )
    environments = {"NVM": load_module_environment(Path(workspace) / "NVM")}
    report = scheduler.run_system(
        environments, lookup_derivative("sc88a")
    )
    payload = {
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
    }
    Path(report_path).write_text(json.dumps(payload, sort_keys=True))


def wait_for_lease(store_dir: Path, process) -> None:
    """Block until *process* holds a lease in *store_dir* (or died)."""
    leases = store_dir / "leases"
    deadline = time.time() + 30.0
    while time.time() < deadline and process.is_alive():
        if leases.is_dir() and any(leases.glob("*.lease")):
            return
        time.sleep(0.01)


def test_sigkilled_worker_is_stolen_and_matrix_settles_exactly_once(
    workspace, tmp_path
):
    """One worker is SIGKILLed mid-shard holding a lease.  Survivors
    must reclaim its cell after expiry, every cell must settle exactly
    once (first-writer-wins accounting), no torn or trusted-corrupt
    artifact may exist, and every verdict must be byte-identical to a
    scalar serial oracle run."""
    store_dir = tmp_path / "fleet"
    lease_ttl = 1.0
    cells = len(TARGETS) * 2  # 2 NVM tests x 2 targets

    victim = multiprocessing.Process(
        target=_fleet_worker,
        args=(
            str(workspace), str(store_dir),
            str(tmp_path / "victim.json"), "victim", lease_ttl,
            KILL_FIRST_RUN,
        ),
    )
    victim.start()
    # Let the victim claim its first lease before the survivors start,
    # so a steal is guaranteed to be needed.
    wait_for_lease(store_dir, victim)
    leases = store_dir / "leases"
    victim.join(timeout=30.0)
    assert victim.exitcode == -signal.SIGKILL
    assert any(leases.glob("*.lease"))  # the orphaned lease
    assert not (tmp_path / "victim.json").exists()  # died mid-shard

    survivors = [
        multiprocessing.Process(
            target=_fleet_worker,
            args=(
                str(workspace), str(store_dir),
                str(tmp_path / f"survivor{index}.json"),
                f"survivor{index}", lease_ttl,
            ),
        )
        for index in range(2)
    ]
    for process in survivors:
        process.start()
    for process in survivors:
        process.join(timeout=120.0)
        assert process.exitcode == 0

    reports = [
        json.loads((tmp_path / f"survivor{index}.json").read_text())
        for index in range(2)
    ]

    # Every survivor saw the whole matrix settle, nothing quarantined.
    for report in reports:
        assert report["counters"]["total"] == cells
        assert report["counters"]["quarantined"] == 0
        assert (
            report["counters"]["executed"]
            + report["counters"]["cached"]
            == cells
        )

    # The dead worker's cell was stolen, and exactly-once accounting
    # holds: one published record per cell, ever, across the fleet.
    assert sum(r["counters"]["stolen"] for r in reports) >= 1
    assert sum(r["stats"]["stolen"] for r in reports) >= 1
    assert sum(r["stats"]["published"] for r in reports) == cells
    keys = published(store_dir)
    assert len(keys) == cells
    assert len(verdict_records(store_dir)) == cells

    # Zero torn artifacts: no temp droppings, no evidence, and a fresh
    # reader verifies every published record cleanly.
    assert not list(store_dir.rglob("*.tmp"))
    assert not list(store_dir.rglob("*.corrupt"))
    fresh = ResultCache(store_dir)
    for key in keys:
        assert fresh.get(key) is not None
    assert (fresh.corrupt, fresh.torn) == (0, 0)

    # Byte-identity against the scalar serial oracle, per cell.
    _oracle_sched, oracle = run_matrix(workspace)
    oracle_map = {
        "/".join(key): payload.decode()
        for key, payload in verdict_bytes(oracle).items()
    }
    for report in reports:
        assert report["results"] == oracle_map


def test_peer_hung_past_run_timeout_is_stolen_while_it_sleeps(
    workspace, tmp_path
):
    """A peer wedges in its first cell.  Once the cell has run longer
    than ``run_timeout`` its heartbeat stops renewing the lease, so a
    second peer steals the cell after the lease expires and finishes
    the whole matrix with the serial verdicts — while the first peer
    is still asleep."""
    store_dir = tmp_path / "fleet"
    hang = FaultPlan(specs=[
        FaultSpec(site=SITE_SESSION_RUN, action="hang", hang_seconds=120.0)
    ])
    sleeper = multiprocessing.Process(
        target=_fleet_worker,
        args=(str(workspace), str(store_dir), str(tmp_path / "sleeper.json"),
              "sleeper", 0.5, hang),
        kwargs={"run_timeout": 0.3},
    )
    peer = multiprocessing.Process(
        target=_fleet_worker,
        args=(str(workspace), str(store_dir), str(tmp_path / "peer.json"),
              "peer", 0.5),
        kwargs={"run_timeout": 0.3},
    )
    sleeper.start()
    try:
        wait_for_lease(store_dir, sleeper)
        peer.start()
        peer.join(timeout=60.0)
        assert peer.exitcode == 0
        assert sleeper.is_alive()  # still asleep in its cell
    finally:
        for process in (peer, sleeper):
            if process.is_alive():
                process.kill()
            process.join()
    assert not (tmp_path / "sleeper.json").exists()

    report = json.loads((tmp_path / "peer.json").read_text())
    cells = len(TARGETS) * 2
    assert report["counters"]["total"] == cells
    assert report["counters"]["executed"] == cells
    assert report["counters"]["stolen"] == 1
    assert report["counters"]["quarantined"] == 0
    _oracle_sched, oracle = run_matrix(workspace)
    assert report["results"] == {
        "/".join(key): payload.decode()
        for key, payload in verdict_bytes(oracle).items()
    }


def test_poison_cell_costs_retries_plus_one_processes(tmp_path):
    """One cell SIGKILLs every process that runs it.  Fleet workers are
    started one after another: at most ``retries + 1`` of them die, the
    next quarantines exactly that cell without running it and settles
    every other cell with the serial verdict, and a later worker
    quarantines it too instead of dying on it."""
    workspace = write_system_environment(
        make_default_system(nvm_tests=1, uart_tests=0), tmp_path / "ws"
    )
    targets = ["golden", "rtl", "gatelevel", "accelerator"]
    poison_key = "NVM/TEST_NVM_PAGE_001/rtl"
    retries = 1
    poison = FaultPlan(specs=[
        FaultSpec(site=SITE_SESSION_RUN, action="kill", match="rtl#",
                  times=10_000)
    ])
    _oracle_sched, oracle = run_matrix(workspace, targets=targets)
    oracle_map = {
        "/".join(key): payload.decode()
        for key, payload in verdict_bytes(oracle).items()
    }

    def start_worker(index):
        worker = multiprocessing.Process(
            target=_fleet_worker,
            args=(str(workspace), str(tmp_path / "fleet"),
                  str(tmp_path / f"worker{index}.json"), f"worker{index}",
                  0.3, poison),
            kwargs={"retries": retries, "targets": targets},
        )
        worker.start()
        worker.join(timeout=120.0)
        return worker.exitcode

    exits = [start_worker(index) for index in range(retries + 3)]
    deaths = exits.count(-signal.SIGKILL)
    assert deaths == retries + 1
    assert exits == [-signal.SIGKILL] * deaths + [0, 0]

    for index in (deaths, deaths + 1):
        report = json.loads((tmp_path / f"worker{index}.json").read_text())
        assert report["counters"]["total"] == len(targets)
        assert report["counters"]["quarantined"] == 1
        assert report["stats"]["poisoned"] == 1
        verdict = json.loads(report["results"][poison_key])
        assert verdict["status"] == "fault"
        assert verdict["fault_reason"].startswith("quarantined: poison cell")
        healthy = dict(report["results"])
        del healthy[poison_key]
        assert healthy == {
            key: value for key, value in oracle_map.items()
            if key != poison_key
        }
    # The quarantined verdict was never published.
    assert len(published(tmp_path / "fleet")) == len(targets) - 1
