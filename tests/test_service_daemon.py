"""HTTP-layer and chaos-acceptance tests for the serving daemon.

The acceptance bar: with faults armed at every injection site against
a *live* daemon, every accepted request terminates with a result or an
explicit FAULT; the readiness probe never reports ready over a broken
pool; and a ``kill -9`` between accept and settle replays the journal
with zero loss on restart.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.core.faults import (
    ALL_SITES,
    FaultPlan,
    FaultSpec,
    SITE_CACHE_READ,
    SITE_CACHE_WRITE,
    SITE_JOURNAL_WRITE,
    SITE_LEASE_RENEW,
    SITE_POOL_LEASE,
    SITE_SERVICE_ACCEPT,
    SITE_SESSION_RUN,
    SITE_STORE_READ,
    SITE_STORE_WRITE,
)
from repro.core.scheduler import ResultCache
from repro.core.system_env import make_default_system
from repro.core.workspace import write_system_environment
from repro.isa.decodecache import reset_registry
from repro.store import set_artifact_store
from repro.service import JobJournal, RegressionService, ServiceDaemon
from repro.store import ArtifactStore

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

REQUEST_TIMEOUT = 60.0


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    system = make_default_system(nvm_tests=1, uart_tests=0)
    return write_system_environment(
        system, tmp_path_factory.mktemp("daemon-ws") / "ws"
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


async def http_request(port: int, method: str, path: str, body=None):
    """One request against the daemon; returns ``(status, headers,
    ndjson_objects)``.  Every daemon response closes the connection, so
    body framing is read-to-EOF."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: daemon\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        )
        writer.write(head.encode() + payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=REQUEST_TIMEOUT)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
    head_bytes, _, body_bytes = raw.partition(b"\r\n\r\n")
    head_lines = head_bytes.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split(" ")[1])
    headers = {}
    for line in head_lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    events = [
        json.loads(line)
        for line in body_bytes.splitlines()
        if line.strip()
    ]
    return status, headers, events


async def start_daemon(service: RegressionService) -> ServiceDaemon:
    daemon = ServiceDaemon(service, port=0)
    await daemon.start()
    return daemon


class TestHttpLayer:
    def test_probes_and_routes(self, workspace):
        async def scenario():
            daemon = await start_daemon(RegressionService(workspace))
            port = daemon.port
            results = {
                "healthz": await http_request(port, "GET", "/healthz"),
                "readyz": await http_request(port, "GET", "/readyz"),
                "stats": await http_request(port, "GET", "/stats"),
                "missing": await http_request(port, "GET", "/nope"),
                "bad_json": await http_request(port, "POST", "/submit"),
                "bad_pack": await http_request(
                    port, "POST", "/submit", body={"schema": 99}
                ),
                "process_pack": await http_request(
                    port, "POST", "/submit",
                    body=smoke_pack(executor="process", jobs=2),
                ),
            }
            await daemon.shutdown()
            return results

        results = asyncio.run(scenario())
        assert results["healthz"][0] == 200
        assert results["readyz"][0] == 200
        assert results["readyz"][2][0]["ready"] is True
        assert results["stats"][0] == 200
        assert "pool" in results["stats"][2][0]
        assert results["missing"][0] == 404
        assert results["bad_json"][0] == 400
        assert results["bad_pack"][0] == 400
        assert "schema" in results["bad_pack"][2][0]["error"]
        # The process pool is gone: a pack asking for it is refused
        # up front with the offending field named.
        assert results["process_pack"][0] == 400
        assert "pack field 'executor'" in (
            results["process_pack"][2][0]["error"]
        )

    def test_submit_streams_ndjson(self, workspace):
        async def scenario():
            daemon = await start_daemon(RegressionService(workspace))
            status, headers, events = await http_request(
                daemon.port, "POST", "/submit", body=smoke_pack()
            )
            await daemon.shutdown()
            return status, headers, events

        status, headers, events = asyncio.run(scenario())
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted"
        assert "cell" in kinds
        assert kinds[-1] == "done"
        assert events[-1]["clean"] is True

    def test_load_shed_is_503_with_retry_after(self, workspace):
        async def scenario():
            service = RegressionService(
                workspace, max_pending=1, retry_after=7.0
            )
            daemon = await start_daemon(service)
            service._active = 1  # a job is mid-flight
            status, headers, events = await http_request(
                daemon.port, "POST", "/submit", body=smoke_pack()
            )
            service._active = 0
            await daemon.shutdown()
            return status, headers, events

        status, headers, events = asyncio.run(scenario())
        assert status == 503
        assert headers["retry-after"] == "7"
        assert "queue full" in events[0]["error"]

    def test_readyz_never_ready_over_broken_pool(self, workspace):
        async def scenario():
            plan = FaultPlan(
                specs=[
                    FaultSpec(
                        site=SITE_POOL_LEASE, action="raise", times=10_000
                    )
                ]
            )
            daemon = await start_daemon(
                RegressionService(workspace, fault_plan=plan)
            )
            ready = await http_request(daemon.port, "GET", "/readyz")
            alive = await http_request(daemon.port, "GET", "/healthz")
            await daemon.shutdown()
            return ready, alive

        ready, alive = asyncio.run(scenario())
        assert ready[0] == 503
        assert ready[2][0]["ready"] is False
        assert "retry-after" in ready[1]
        # Liveness is orthogonal: the process is up, just not ready.
        assert alive[0] == 200

    def test_shutdown_stops_accepting(self, workspace):
        async def scenario():
            daemon = await start_daemon(RegressionService(workspace))
            port = daemon.port
            await daemon.shutdown()
            try:
                await http_request(port, "GET", "/healthz")
            except OSError:
                return "refused"
            return "accepted"

        assert asyncio.run(scenario()) == "refused"


# --------------------------------------------------------------------------
# chaos acceptance: every site against a live daemon
# --------------------------------------------------------------------------

CHAOS_CASES = {
    SITE_SESSION_RUN: (
        FaultSpec(site=SITE_SESSION_RUN, action="raise", times=10),
        smoke_pack(),
    ),
    SITE_CACHE_READ: (
        FaultSpec(site=SITE_CACHE_READ, action="corrupt"),
        smoke_pack(),
    ),
    SITE_CACHE_WRITE: (
        FaultSpec(site=SITE_CACHE_WRITE, action="raise"),
        smoke_pack(),
    ),
    SITE_SERVICE_ACCEPT: (
        FaultSpec(site=SITE_SERVICE_ACCEPT, action="raise"),
        smoke_pack(),
    ),
    SITE_POOL_LEASE: (
        FaultSpec(site=SITE_POOL_LEASE, action="raise"),
        smoke_pack(),
    ),
    SITE_JOURNAL_WRITE: (
        FaultSpec(site=SITE_JOURNAL_WRITE, action="raise"),
        smoke_pack(),
    ),
    # Artifact-store sites: the daemon persists warmed decode state
    # after every job (store-write) and consults the store on registry
    # misses (store-read; the scenario resets the registry between its
    # two submissions so the second one demonstrably reads back what
    # the first one persisted — under injected corruption).
    SITE_STORE_READ: (
        FaultSpec(site=SITE_STORE_READ, action="corrupt", times=10),
        smoke_pack(),
    ),
    SITE_STORE_WRITE: (
        FaultSpec(site=SITE_STORE_WRITE, action="raise", times=10),
        smoke_pack(),
    ),
}


def test_chaos_cases_cover_every_site():
    """Every injection site is chaos-tested against a live daemon —
    except ``lease-renew``, which only exists on the fleet work-list
    (the daemon holds no cell leases); its live chaos coverage is the
    fleet suite in ``tests/test_worklist.py``."""
    assert set(CHAOS_CASES) | {SITE_LEASE_RENEW} == set(ALL_SITES)
    assert SITE_LEASE_RENEW not in CHAOS_CASES


@pytest.mark.parametrize("site", sorted(CHAOS_CASES))
def test_chaos_every_accepted_request_terminates(workspace, tmp_path, site):
    """With a fault armed at *site*, a live daemon either refuses the
    submission explicitly (4xx/5xx with a reason) or terminates it with
    a ``done``/``error`` event — never a hang, never silence — and
    keeps serving afterwards."""
    spec, pack = CHAOS_CASES[site]

    async def scenario():
        service = RegressionService(
            workspace,
            journal=JobJournal(tmp_path / "journal"),
            cache=ResultCache(tmp_path / "cache"),
            store=ArtifactStore(tmp_path / "store"),
            fault_plan=FaultPlan(seed=3, specs=[spec]),
        )
        try:
            daemon = await start_daemon(service)
            outcomes = []
            # Two submissions: cache/store faults need a second pass to
            # hit the read path, and windowed faults prove recovery on
            # the retry.
            for attempt in range(2):
                body = pack
                if attempt and site == SITE_STORE_READ:
                    # Force the second submission to warm-start from
                    # the store (registry miss -> store read), where
                    # the armed corruption is waiting.  The bumped
                    # instruction budget changes the *result*-cache
                    # key (else the run is a cache hit and never
                    # decodes) but not the decode/store key.
                    reset_registry()
                    body = dict(pack, max_instructions=1_000_001)
                status, _headers, events = await http_request(
                    daemon.port, "POST", "/submit", body=body
                )
                outcomes.append((status, events))
            alive = await http_request(daemon.port, "GET", "/healthz")
            stats = service.stats()
            await daemon.shutdown()
        finally:
            # The service installed its store process-globally; do not
            # leak it into unrelated tests.
            set_artifact_store(None)
        return outcomes, alive, stats

    outcomes, alive, stats = asyncio.run(
        asyncio.wait_for(scenario(), timeout=120)
    )
    for status, events in outcomes:
        if status == 200:
            # Accepted: the stream must carry a terminal event.
            assert events[0]["event"] == "accepted"
            assert events[-1]["event"] in ("done", "error")
        else:
            # Refused: explicitly, with a reason.
            assert status in (400, 500, 503)
            assert events and "error" in events[0]
    assert alive[0] == 200
    # Accounting balances: everything accepted reached a verdict.
    jobs = stats["jobs"]
    assert jobs["accepted"] == jobs["completed"] + jobs["failed"]
    assert stats["journal"]["pending"] == 0
    # The store sites must demonstrably have fired — and been
    # contained: corruption counted (never trusted; the bytes in the
    # log are intact, so nothing is quarantined), write faults counted,
    # the jobs above still terminated.
    if site == SITE_STORE_READ:
        assert stats["store"]["corrupt"] >= 1
        assert stats["store"]["quarantined"] == 0
    elif site == SITE_STORE_WRITE:
        assert stats["store"]["write_errors"] >= 1


def test_kill9_between_accept_and_settle_replays_zero_loss(
    workspace, tmp_path
):
    """A daemon killed after acknowledging a job but before settling it
    must re-run that job from the journal on restart."""
    journal_dir = tmp_path / "journal"
    first = JobJournal(journal_dir)
    first.accept("job-000007", smoke_pack(name="orphan"))
    # kill -9: the handle is abandoned, never settled, never closed.
    del first

    async def scenario():
        service = RegressionService(
            workspace, journal=JobJournal(journal_dir)
        )
        daemon = await start_daemon(service)  # start() replays
        for _ in range(500):
            if service.stats()["journal"]["pending"] == 0:
                break
            await asyncio.sleep(0.01)
        stats = service.stats()
        await daemon.shutdown()
        return stats

    stats = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
    assert stats["jobs"]["replayed"] == 1
    assert stats["jobs"]["completed"] == 1
    assert stats["journal"]["pending"] == 0
    # Durable: a third incarnation has nothing left to replay.
    reborn = JobJournal(journal_dir)
    assert reborn.pending_jobs() == []
    reborn.close()


def test_restarted_daemon_never_reuses_a_replayed_job_id(workspace, tmp_path):
    """A replayed job settles under its original id.  A job submitted
    after the restart must get another id: sharing it, the replay's
    settle would also settle the new job, and a kill -9 before the new
    job finished would lose an acknowledged job."""
    journal_dir = tmp_path / "journal"
    first = JobJournal(journal_dir)
    first.accept("job-000001", smoke_pack(name="orphan"))
    # kill -9: the handle is abandoned, never settled, never closed.
    del first
    journal = JobJournal(journal_dir)
    real_settle = journal.settle
    gate = threading.Lock()
    on_disk = {}

    def settle(job_id, status, summary):
        with gate:  # no other settle until the disk is read
            settled = real_settle(job_id, status, summary)
            if not on_disk:
                # The replay's settle: what would a restart replay now?
                reader = JobJournal(journal_dir)
                on_disk[job_id] = [job for job, _ in reader.pending_jobs()]
            return settled

    journal.settle = settle

    async def scenario():
        service = RegressionService(workspace, journal=journal)
        assert await service.replay_pending() == 1
        events = [event async for event in service.submit(smoke_pack())]
        await service.drain()
        return events

    events = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
    fresh = events[0]["job"]
    assert events[-1]["event"] == "done"
    # The new job was acknowledged and still pending on disk when the
    # replay settled.
    assert on_disk == {"job-000001": [fresh]}
    assert fresh != "job-000001"
    reborn = JobJournal(journal_dir)
    assert reborn.pending_jobs() == []
    reborn.close()
