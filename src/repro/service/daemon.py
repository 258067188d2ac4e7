"""The always-available regression daemon (stdlib asyncio, HTTP/JSON).

Two layers, deliberately separable:

- :class:`RegressionService` is the transport-independent core:
  admission control, the warm pool, the write-ahead journal and the
  bridge onto :class:`~repro.core.scheduler.RegressionScheduler`.
  Tests drive it directly with asyncio, no sockets involved.
- :class:`ServiceDaemon` is a thin HTTP/1.1 front end over
  ``asyncio.start_server``: request parsing, status-code mapping and
  NDJSON streaming.  No third-party framework — the container's
  stdlib is the whole dependency budget.

Robustness contract (the chaos tests hold the daemon to every line):

- **bounded admission** — at most ``max_pending`` accepted-but-
  unfinished jobs; past that, submissions are *shed* with an explicit
  503 + ``Retry-After`` instead of buffered without bound;
- **accept is durable** — a job is acknowledged only after its accept
  record hit the journal; a journal that cannot write refuses the job
  (503) rather than accepting what it cannot remember.  On restart,
  accepted-but-unsettled jobs replay automatically;
- **every accepted job terminates** — the scheduler's supervision
  ladder turns engine faults into quarantined FAULT verdicts; daemon-
  level failures (resolution errors, injected chaos, deadlines)
  surface as an explicit terminal ``error`` event and a ``failed``
  journal settle.  Nothing hangs silently and nothing disappears;
- **deadlines reclaim sessions** — a job past its deadline is failed
  explicitly and its leased sessions are released *unhealthy*, so the
  pool rebuilds them instead of handing a mid-run device to the next
  tenant (the engine thread itself winds down at its instruction
  budget — pure-Python engines cannot be preempted);
- **probes tell the truth** — ``/healthz`` is process liveness;
  ``/readyz`` performs a real pool probe (lease + health-check +
  return) and reports 503 while draining or while the pool cannot
  produce a healthy session;
- **graceful drain** — SIGTERM stops admission (503s), finishes the
  in-flight jobs, settles the journal and only then exits; anything
  still unsettled at a hard kill is exactly what the journal replays.

Results stream back incrementally: one NDJSON object per completed
matrix cell as the scheduler's progress callback fires, then a
terminal ``done``/``error`` object — a client watching a thousand-cell
matrix sees verdicts from the first second, not after the last cell.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from pathlib import Path

from repro.core.faults import FaultInjector, FaultPlan, SITE_SERVICE_ACCEPT
from repro.core.scheduler import (
    DEFAULT_MAX_INSTRUCTIONS,
    RegressionScheduler,
    ResultCache,
    RunOutcome,
)
from repro.core.targets import target as lookup_target
from repro.service.journal import JobJournal, JournalError
from repro.service.pool import WarmSessionPool
from repro.service.protocol import (
    PackError,
    ScenarioPack,
    pack_to_dict,
    parse_pack,
    resolve_pack,
)
from repro.soc.derivatives import derivative as lookup_derivative


class ServiceError(RuntimeError):
    """A submission failed daemon-side for an explicit, reported reason."""


class ServiceUnavailable(ServiceError):
    """Load shed / drain / journal outage: try again later (503)."""

    def __init__(self, reason: str, retry_after: float = 1.0):
        super().__init__(reason)
        self.retry_after = retry_after


class _JobSessionProvider:
    """Per-job facade over the shared pool.

    Carries the job's cancellation latch: once the daemon has failed
    the job (deadline), sessions the still-running engine thread
    returns go back *unhealthy* — the reclaim half of deadline
    enforcement.
    """

    def __init__(self, pool: WarmSessionPool):
        self.pool = pool
        self.cancelled = False

    def lease(self, target, derivative):
        return self.pool.lease(target, derivative)

    def release(self, session, healthy: bool = True) -> None:
        self.pool.release(session, healthy=healthy and not self.cancelled)


class _Job:
    """One accepted submission's lifecycle state."""

    __slots__ = (
        "id",
        "origin",
        "pack",
        "pack_data",
        "status",
        "summary",
        "provider",
        "subscribers",
    )

    def __init__(self, job_id: str, pack: ScenarioPack, pack_data: dict):
        self.id = job_id
        #: Journal id this job settles under — differs from :attr:`id`
        #: only for journal-replayed jobs, which settle the original.
        self.origin = job_id
        self.pack = pack
        self.pack_data = pack_data
        self.status = "pending"
        self.summary: dict | None = None
        self.provider: _JobSessionProvider | None = None
        #: Live subscriber queues; every published event fans out.
        self.subscribers: list[asyncio.Queue] = []


def _outcome_event(job_id: str, outcome: RunOutcome) -> dict:
    result = outcome.result
    return {
        "event": "cell",
        "job": job_id,
        "environment": outcome.request.environment,
        "cell": outcome.request.cell,
        "target": outcome.request.target,
        "derivative": outcome.request.derivative,
        "status": result.status.value,
        "cached": outcome.cached,
        "retried": outcome.retried,
        "quarantined": outcome.quarantined,
        "fault_reason": result.fault_reason,
    }


def _report_summary(report) -> dict:
    return {
        "total_runs": report.total_runs,
        "passing_runs": report.passing_runs,
        "executed_runs": report.executed_runs,
        "cached_runs": report.cached_runs,
        "retried_runs": report.retried_runs,
        "quarantined_runs": report.quarantined_runs,
        "divergences": len(report.divergences),
        "clean": report.clean,
    }


def _first_job_number(journal: JobJournal | None) -> int:
    """1, or one past the highest job number *journal* holds pending: a
    replayed job settles under its original id, so a new job sharing
    that id would be settled, and forgotten, with it."""
    numbers = [0]
    pending = journal.pending_jobs() if journal is not None else ()
    for job_id, _data in pending:
        suffix = job_id.rpartition("-")[2]
        if suffix.isdigit():
            numbers.append(int(suffix))
    return max(numbers) + 1


class RegressionService:
    """Admission, execution and durability core of the daemon."""

    def __init__(
        self,
        system_dir: str | Path,
        pool: WarmSessionPool | None = None,
        journal: JobJournal | None = None,
        cache: ResultCache | None = None,
        max_pending: int = 8,
        max_active: int = 1,
        default_deadline: float | None = None,
        retry_after: float = 1.0,
        fault_plan: FaultPlan | None = None,
        probe_target: str = "golden",
        probe_derivative: str = "sc88a",
        clock=time.monotonic,
        store=None,
    ):
        self.system_dir = Path(system_dir)
        self.fault_plan = fault_plan
        self._injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        self.pool = pool or WarmSessionPool(injector=self._injector)
        if self.pool.injector is None:
            self.pool.injector = self._injector
        self.journal = journal
        if journal is not None and journal.injector is None:
            journal.injector = self._injector
        self.cache = cache
        if (
            cache is not None
            and self._injector is not None
            and cache.injector is None
        ):
            cache.injector = self._injector
        #: Optional :class:`repro.store.artifacts.ArtifactStore`.
        #: Installing it makes every scheduler run persist its warmed
        #: decode/superblock state and every registry miss try the
        #: store first, so a restarted daemon loads each image's
        #: snapshot on the first job that runs it, as the CLI does.
        self.store = store
        if store is not None:
            if store.injector is None and self._injector is not None:
                store.injector = self._injector
            from repro.store import set_artifact_store

            set_artifact_store(store)
        self.max_pending = max(1, int(max_pending))
        self.max_active = max(1, int(max_active))
        self.default_deadline = default_deadline
        self.retry_after = retry_after
        self._probe_target = lookup_target(probe_target)
        self._probe_derivative = lookup_derivative(probe_derivative)
        self._clock = clock
        self._slots = asyncio.Semaphore(self.max_active)
        self._seq = itertools.count(_first_job_number(journal))
        #: Warm module environments keyed by name; validated against
        #: the on-disk source fingerprint on every resolve, so the
        #: daemon reuses assembled/linked build artifacts across
        #: requests yet never serves a stale build after an edit.
        self._env_cache: dict = {}
        self._jobs: dict[str, _Job] = {}
        self._active = 0
        #: Slots reserved by submissions awaiting their journal accept;
        #: counted against admission so concurrent submits cannot all
        #: pass the bound check during the await.
        self._reserved = 0
        self._tasks: set[asyncio.Task] = set()
        self.draining = False
        self.jobs_accepted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_shed = 0
        self.jobs_replayed = 0

    # -- admission ---------------------------------------------------------
    async def submit(self, pack_data, deadline: float | None = None):
        """Admit and run one submission; an async generator of event
        dicts (``accepted`` → ``cell``* → ``done``/``error``).

        Admission failures raise before the first event:
        :class:`ServiceUnavailable` (shed/drain/journal outage — 503),
        :class:`PackError` (malformed — 400) or :class:`ServiceError`
        (explicit daemon-side refusal — 500).  Disconnecting mid-stream
        abandons the *stream*, not the job: an accepted job always runs
        to a journaled verdict.
        """
        job_id = f"job-{next(self._seq):06d}"
        if self.draining:
            raise ServiceUnavailable("draining", self.retry_after)
        if self._active + self._reserved >= self.max_pending:
            self.jobs_shed += 1
            raise ServiceUnavailable(
                f"admission queue full ({self._active} jobs pending)",
                self.retry_after,
            )
        if self._injector is not None:
            try:
                self._injector.fire(SITE_SERVICE_ACCEPT, job_id)
            except Exception as exc:
                raise ServiceError(f"admission fault: {exc}") from exc
        pack = parse_pack(pack_data)
        if deadline is None:
            deadline = (
                pack.deadline
                if pack.deadline is not None
                else self.default_deadline
            )
        # Hold an admission slot across the journal await: the bound
        # check above and _start_job's _active increment are separated
        # by a suspension point, so without the reservation concurrent
        # submits could all pass the check and exceed max_pending.
        self._reserved += 1
        try:
            if self.journal is not None:
                try:
                    await asyncio.get_running_loop().run_in_executor(
                        None, self.journal.accept, job_id, pack_to_dict(pack)
                    )
                except JournalError as exc:
                    raise ServiceUnavailable(
                        f"journal unavailable: {exc}", self.retry_after
                    ) from exc
            job = self._start_job(job_id, pack, pack_to_dict(pack), deadline)
        finally:
            self._reserved -= 1
        queue: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(queue)
        try:
            yield {
                "event": "accepted",
                "job": job_id,
                "name": pack.name,
                "deadline": deadline,
            }
            while True:
                event = await queue.get()
                yield event
                if event["event"] in ("done", "error"):
                    return
        finally:
            if queue in job.subscribers:
                job.subscribers.remove(queue)

    def _start_job(
        self,
        job_id: str,
        pack: ScenarioPack,
        pack_data: dict,
        deadline: float | None,
    ) -> _Job:
        job = _Job(job_id, pack, pack_data)
        self._jobs[job_id] = job
        self._active += 1
        self.jobs_accepted += 1
        task = asyncio.get_running_loop().create_task(
            self._run_job(job, deadline)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job

    # -- execution ---------------------------------------------------------
    def _publish(self, job: _Job, event: dict) -> None:
        for queue in list(job.subscribers):
            queue.put_nowait(event)

    async def _run_job(self, job: _Job, deadline: float | None) -> None:
        loop = asyncio.get_running_loop()
        provider = _JobSessionProvider(self.pool)
        job.provider = provider
        started = self._clock()

        def on_outcome(outcome: RunOutcome) -> None:
            if provider.cancelled:
                return
            loop.call_soon_threadsafe(
                self._publish, job, _outcome_event(job.id, outcome)
            )

        def execute():
            environments, derivative, targets = resolve_pack(
                job.pack, self.system_dir, env_cache=self._env_cache
            )
            scheduler = RegressionScheduler(
                targets=targets,
                cache=self.cache,
                max_instructions=(
                    job.pack.max_instructions
                    if job.pack.max_instructions is not None
                    else DEFAULT_MAX_INSTRUCTIONS
                ),
                retries=job.pack.retries,
                fault_plan=self.fault_plan,
                session_provider=provider,
            )
            return scheduler.run_system(
                environments, derivative, on_outcome=on_outcome
            )

        await self._slots.acquire()
        job.status = "running"
        future = loop.run_in_executor(None, execute)
        future.add_done_callback(lambda _f: self._slots.release())
        try:
            if deadline is not None:
                report = await asyncio.wait_for(
                    asyncio.shield(future), timeout=deadline
                )
            else:
                report = await future
        except asyncio.TimeoutError:
            # The engine thread cannot be preempted; what we *can* do
            # is fail the job explicitly, stop streaming, and make
            # sure its sessions never re-enter the warm pool.
            provider.cancelled = True
            await self._finish_job(
                job,
                "failed",
                {
                    "error": (
                        f"deadline exceeded after "
                        f"{self._clock() - started:.3f}s"
                    ),
                    "deadline": deadline,
                },
            )
            # Swallow the eventual thread result/exception detached.
            future.add_done_callback(lambda f: f.exception())
            return
        except Exception as exc:
            await self._finish_job(
                job, "failed", {"error": f"{type(exc).__name__}: {exc}"}
            )
            return
        summary = _report_summary(report)
        summary["elapsed_s"] = round(self._clock() - started, 6)
        await self._finish_job(job, "completed", summary)

    async def _finish_job(self, job: _Job, status: str, summary: dict) -> None:
        job.status = status
        job.summary = summary
        self._active -= 1
        if status == "completed":
            self.jobs_completed += 1
            event = {"event": "done", "job": job.id, **summary}
        else:
            self.jobs_failed += 1
            event = {"event": "error", "job": job.id, **summary}
        if self.journal is not None:
            # settle() does a blocking write + fsync (and possibly a
            # whole-segment compaction); keep it off the event loop so
            # one verdict cannot stall every other stream and probe.
            await asyncio.get_running_loop().run_in_executor(
                None, self.journal.settle, job.origin, status, summary
            )
        self._publish(job, event)

    # -- recovery / lifecycle ----------------------------------------------
    async def replay_pending(self) -> int:
        """Re-run jobs the journal accepted but never settled (the
        restart half of the durability contract).  Returns how many
        jobs were replayed."""
        if self.journal is None:
            return 0
        replayed = 0
        for job_id, pack_data in self.journal.pending_jobs():
            try:
                pack = parse_pack(pack_data)
            except PackError:
                # An unparseable journaled pack is reported and
                # settled, not retried forever.
                await asyncio.get_running_loop().run_in_executor(
                    None,
                    self.journal.settle,
                    job_id,
                    "failed",
                    {"error": "unreplayable pack"},
                )
                continue
            job = self._start_job(
                f"{job_id}-replay",
                pack,
                pack_data,
                pack.deadline or self.default_deadline,
            )
            # Settle under the *original* id: the replayed run is the
            # original job's completion.
            job.origin = job_id
            replayed += 1
        self.jobs_replayed = replayed
        return replayed

    async def drain(self) -> None:
        """Stop admitting, finish in-flight jobs, close the journal."""
        self.draining = True
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self.store is not None:
            # Final flush of warm decode state; stamps make this a
            # no-op for anything the per-run persists already wrote.
            from repro.isa.decodecache import persist_registry

            await asyncio.get_running_loop().run_in_executor(
                None, persist_registry
            )
        self.pool.close()
        if self.journal is not None:
            self.journal.close()

    # -- probes ------------------------------------------------------------
    async def ready(self) -> tuple[bool, str]:
        """The ``/readyz`` truth: accepting and pool demonstrably able
        to produce a healthy session."""
        if self.draining:
            return False, "draining"
        ok = await asyncio.get_running_loop().run_in_executor(
            None, self.pool.probe, self._probe_target, self._probe_derivative
        )
        if not ok:
            return False, "session pool cannot produce a healthy session"
        return True, "ready"

    def stats(self) -> dict:
        data = {
            "jobs": {
                "accepted": self.jobs_accepted,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "shed": self.jobs_shed,
                "replayed": self.jobs_replayed,
                "active": self._active,
            },
            "admission": {
                "max_pending": self.max_pending,
                "max_active": self.max_active,
                "draining": self.draining,
            },
            "pool": self.pool.stats(),
        }
        if self.journal is not None:
            data["journal"] = self.journal.stats()
        if self.cache is not None:
            data["cache"] = self.cache.stats()
        if self.store is not None:
            data["store"] = self.store.stats()
        return data


# --------------------------------------------------------------------------
# HTTP front end
# --------------------------------------------------------------------------

_MAX_BODY = 1 << 20  # a scenario pack measured in megabytes is an attack
_MAX_HEADER = 64 << 10


class ServiceDaemon:
    """Minimal HTTP/1.1 front end for a :class:`RegressionService`."""

    def __init__(
        self,
        service: RegressionService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        replayed = await self.service.replay_pending()
        if replayed:
            print(f"journal replay: {replayed} pending job(s) restarted")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop_accepting(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def shutdown(self) -> None:
        """SIGTERM path: stop accepting, drain, settle, exit."""
        await self.stop_accepting()
        await self.service.drain()

    # -- request plumbing --------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        try:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                return
            if len(head) > _MAX_HEADER:
                await self._respond(writer, 431, {"error": "headers too large"})
                return
            request_line, *header_lines = head.decode(
                "latin-1"
            ).split("\r\n")
            parts = request_line.split(" ")
            if len(parts) != 3:
                await self._respond(writer, 400, {"error": "bad request line"})
                return
            method, path, _version = parts
            headers = {}
            for line in header_lines:
                if ":" in line:
                    key, _, value = line.partition(":")
                    headers[key.strip().lower()] = value.strip()
            body = b""
            length = int(headers.get("content-length", "0") or "0")
            if length:
                if length > _MAX_BODY:
                    await self._respond(
                        writer, 413, {"error": "body too large"}
                    )
                    return
                body = await reader.readexactly(length)
            await self._route(writer, method, path.split("?", 1)[0], body)
        except ConnectionError:
            pass
        except Exception as exc:
            try:
                await self._respond(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _route(self, writer, method: str, path: str, body: bytes):
        service = self.service
        if method == "GET" and path == "/healthz":
            await self._respond(writer, 200, {"status": "alive"})
        elif method == "GET" and path == "/readyz":
            ok, reason = await service.ready()
            await self._respond(
                writer,
                200 if ok else 503,
                {"ready": ok, "reason": reason},
                retry_after=None if ok else service.retry_after,
            )
        elif method == "GET" and path == "/stats":
            await self._respond(writer, 200, service.stats())
        elif method == "POST" and path == "/submit":
            await self._submit(writer, body)
        else:
            await self._respond(
                writer, 404, {"error": f"no route {method} {path}"}
            )

    async def _submit(self, writer, body: bytes) -> None:
        try:
            pack_data = json.loads(body or b"null")
        except ValueError:
            await self._respond(writer, 400, {"error": "body is not JSON"})
            return
        stream = self.service.submit(pack_data)
        try:
            first = await anext(stream)
        except ServiceUnavailable as exc:
            await self._respond(
                writer,
                503,
                {"error": str(exc)},
                retry_after=exc.retry_after,
            )
            return
        except PackError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        except ServiceError as exc:
            await self._respond(writer, 500, {"error": str(exc)})
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        try:
            writer.write(json.dumps(first).encode() + b"\n")
            await writer.drain()
            async for event in stream:
                writer.write(json.dumps(event).encode() + b"\n")
                await writer.drain()
        except ConnectionError:
            # Client went away; the job finishes and journals anyway.
            await stream.aclose()

    async def _respond(
        self,
        writer,
        status: int,
        payload: dict,
        retry_after: float | None = None,
    ) -> None:
        reasons = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            413: "Payload Too Large",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error",
            503: "Service Unavailable",
        }
        body = json.dumps(payload).encode() + b"\n"
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if retry_after is not None:
            head += f"Retry-After: {max(1, round(retry_after))}\r\n"
        head += "Connection: close\r\n\r\n"
        writer.write(head.encode() + body)
        await writer.drain()


async def run_daemon(
    service: RegressionService,
    host: str,
    port: int,
    ready_line=print,
) -> int:
    """Run a daemon until SIGTERM/SIGINT, then drain gracefully."""
    import signal

    daemon = ServiceDaemon(service, host, port)
    await daemon.start()
    ready_line(f"serving on http://{daemon.host}:{daemon.port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass
    await stop.wait()
    ready_line("drain: stopped accepting, finishing in-flight jobs", flush=True)
    await daemon.shutdown()
    ready_line("drain: complete", flush=True)
    return 0
