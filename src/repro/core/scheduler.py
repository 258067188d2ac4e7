"""Regression scheduling: explicit work-lists, serial supervised
execution, fleet sharding over a shared work-list, and a persistent
result cache for incremental re-regression.

The paper's regression is a (cells × platforms) matrix over one linked
image per build input.  The original runner walked that matrix with
nested loops, rebuilding the platform and the image for every entry.
This module makes the matrix explicit:

1. **plan** — one walk over every (environment, cell, target)
   position builds the :class:`RunRequest` work-list; builds are shared
   through the module environment's build cache, so targets with
   identical build inputs share one image;
2. **cache probe** — a :class:`ResultCache` keyed by (model digest,
   image digest, target, derivative) satisfies entries whose
   inputs have not changed since the last regression — the lab's
   incremental re-run: touch one test cell and only its column of the
   matrix re-executes.  The probe comes *before* the build: a
   persisted per-(environment, derivative) build index maps each
   position's build key
   (:meth:`~repro.core.environment.ModuleTestEnvironment.build_key`)
   to the image digest it produced last time, so unchanged positions
   are keyed and served without assembling anything, in a fleet too;
   only index misses and uncached verdicts build, and a fresh build's
   digest always wins over the indexed one.  Without a cache the plan
   only builds and hashes no build key.  Verdicts and index positions
   are checksummed records of one append-only log; corrupt records are
   counted, their segment quarantined aside, and re-derived rather
   than replayed;
3. **execution** — remaining entries run in-process, one long-lived
   :class:`ExecutionSession` per target, under a **supervised** ladder:
   a failed attempt discards its session and is retried with capped
   deterministic backoff and, after ``retries`` more attempts,
   **quarantined** as a synthesized :data:`RunStatus.FAULT` result.
   The matrix always completes.  More cores come from the **fleet**:
   several processes (or machines) sharing one result cache directory
   divide the matrix by racing leases on its verdict keys
   (:class:`~repro.store.worklist.WorkList`), and each cell runs on the
   same ladder under a heartbeat.  The fleet adds two guarantees of its
   own:

   - **per-cell deadline** — the heartbeat stops renewing a lease whose
     cell has run longer than ``run_timeout``, so a wedged holder's
     lease expires and a peer steals the cell (the hung holder cannot
     be preempted, but it no longer blocks anyone);
   - **steal budget** — a lease record counts how often it was stolen.
     Every steal means a holder died or overran, so a claimant whose
     steal takes the count above ``retries`` quarantines the cell
     locally instead of running it: a cell that kills every process
     running it costs at most ``retries + 1`` processes.

   Quarantined verdicts are never cached or published;
4. **report** — the familiar :class:`RegressionReport`, with
   executed/cached bookkeeping plus the fault-tolerance counters
   (``retried_runs``/``quarantined_runs``) and the golden-reference
   divergence attribution unchanged (quarantined cells are
   infrastructure faults, not platform bugs, so they are excluded from
   divergence attribution).  :func:`matrix_digest` condenses every
   verdict, signature, cycle count and trace into one SHA-256.

Deterministic chaos for all of this comes from :mod:`repro.core.faults`:
the scheduler, sessions, cache and work-list consult a seeded
:class:`FaultPlan` at named sites with zero overhead when no plan is
set.

Targets with injected platform overrides (fault-injection experiments)
always execute in-process and bypass the cache and the fleet: an
override's behaviour is arbitrary Python state that neither pickles
reliably nor fingerprints honestly.  They run on the same ladder with
no retry — the first failure quarantines the cell — on a session of
their own that is never leased from a session provider.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from repro.assembler.linker import MemoryImage
from repro.core.durable import RecordLog, content_key, model_digest
from repro.core.environment import ModuleTestEnvironment
from repro.core.faults import (
    FaultInjector,
    FaultPlan,
    SITE_CACHE_READ,
    SITE_CACHE_WRITE,
)
from repro.core.regression import (
    RegressionReport,
    detect_divergences,
)
from repro.core.targets import Target, all_targets
from repro.soc.derivatives import Derivative
from repro.verdict import (
    DEFAULT_MAX_INSTRUCTIONS,
    VERDICT_FIELDS,
    RunResult,
    RunStatus,
)

if TYPE_CHECKING:
    from repro.platforms.base import Platform
    from repro.platforms.session import ExecutionSession

#: Bump when run semantics change in a way that invalidates old caches.
#: 2: checksummed cache entries (corrupt files detected, not replayed).
CACHE_SCHEMA = 2

#: How often a fleet worker re-polls cells held by live peers.
_POLL_INTERVAL = 0.05


class RunRequest(NamedTuple):
    """One (environment, cell, derivative, target) matrix entry."""

    environment: str
    cell: str
    derivative: str
    target: str


class RunOutcome:
    """A request plus how its result was obtained.

    ``cached`` marks verdicts read from the result cache, whichever
    fleet peer wrote them, ``retried`` runs that needed more than one
    submission, and ``quarantined`` cells whose result is a synthesized
    :data:`RunStatus.FAULT` because every attempt failed.  In a
    fleet-sharded run, ``stolen`` marks runs executed under a lease
    reclaimed from a dead worker.
    """

    __slots__ = (
        "request", "result", "cached", "retried", "quarantined", "stolen",
    )

    def __init__(
        self,
        request: RunRequest,
        result: RunResult,
        cached: bool = False,
        retried: bool = False,
        quarantined: bool = False,
    ):
        self.request = request
        self.result = result
        self.cached = cached
        self.retried = retried
        self.quarantined = quarantined
        self.stolen = False


# --------------------------------------------------------------------------
# result (de)serialisation for the persistent cache
# --------------------------------------------------------------------------

def result_to_payload(result: RunResult) -> dict:
    return {
        "platform": result.platform,
        "derivative": result.derivative,
        "status": result.status.value,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "signature": result.signature,
        "result_word": result.result_word,
        "uart_output": result.uart_output,
        "done_pin": result.done_pin,
        "pass_pin": result.pass_pin,
        "fault_reason": result.fault_reason,
        "trace": (
            None
            if result.trace is None
            else [list(event) for event in result.trace.raw()]
        ),
        "registers": result.registers,
    }


def result_from_payload(payload: dict) -> RunResult:
    trace = payload["trace"]
    if trace is not None:
        from repro.platforms.cpu import InstructionTrace

        trace = InstructionTrace.from_raw(trace)
    return RunResult(
        platform=payload["platform"],
        derivative=payload["derivative"],
        status=RunStatus(payload["status"]),
        instructions=payload["instructions"],
        cycles=payload["cycles"],
        signature=payload["signature"],
        result_word=payload["result_word"],
        uart_output=payload["uart_output"],
        done_pin=payload["done_pin"],
        pass_pin=payload["pass_pin"],
        fault_reason=payload["fault_reason"],
        trace=trace,
        registers=payload["registers"],
    )


#: What precedes the status value in a payload's ``sort_keys`` JSON.
#: A string value cannot hold it: JSON escapes every quote in a string.
_STATUS_MARK = '"status": "'


class _CachedResult(RunResult):
    """A verdict read back from the result cache: its status and
    payload text at once, every other field decoded from the text when
    first read.  ``regress`` reads only the status, and the text for
    the matrix digest, so a hit costs no JSON decode."""

    __slots__ = ()

    def __init__(self, text: str):
        start = text.index(_STATUS_MARK) + len(_STATUS_MARK)
        self.status = RunStatus(text[start:text.index('"', start)])
        self.payload_text = text

    def __getattr__(self, name: str):
        # Reached only while a field's slot is unset: decode them all.
        if name not in VERDICT_FIELDS:
            raise AttributeError(name)
        decoded = result_from_payload(json.loads(self.payload_text))
        for field in VERDICT_FIELDS:
            setattr(self, field, getattr(decoded, field))
        return getattr(self, name)


def matrix_digest(report: RegressionReport) -> str:
    """One SHA-256 over the whole matrix: every ``(environment, cell,
    target)`` entry in sorted order with its result's cache payload.

    The payload is the result cache's own serialisation, so a verdict
    read back from the cache, whichever fleet peer wrote it, hashes
    exactly like the freshly executed one.  Each line is the
    ``sort_keys`` JSON of ``[*key, payload]``, built as the key's JSON
    list, then the payload's text, then the closing bracket; the text
    is the one the cache stored or read (``RunResult.payload_text``)
    when there is one, so a re-regression encodes only the verdicts it
    executed."""
    digest = hashlib.sha256()
    for key in sorted(report.results):
        result = report.results[key]
        text = result.payload_text
        if text is None:
            # A fresh payload cannot be cyclic; skipping the check
            # saves a quarter of the encoding time.
            text = json.dumps(
                result_to_payload(result),
                sort_keys=True,
                check_circular=False,
            )
        digest.update(json.dumps(list(key))[:-1].encode())
        digest.update(b", ")
        digest.update(text.encode())
        digest.update(b"]\n")
    return digest.hexdigest()


def quarantine_result(
    platform_name: str,
    derivative_name: str,
    reason: str,
) -> RunResult:
    """The synthesized verdict of a cell whose every attempt failed.

    ``fault_reason`` is structured as ``quarantined: <detail>`` so
    report consumers can tell an infrastructure fault from a genuine
    :class:`~repro.platforms.cpu.CpuFault` raised by the core.
    """
    return RunResult(
        platform=platform_name,
        derivative=derivative_name,
        status=RunStatus.FAULT,
        fault_reason=f"quarantined: {reason}",
    )


#: The record namespace of verdicts.
_VERDICTS = "verdict"


def _index_space(environment: str, derivative: str) -> str:
    """The record namespace of one build index (also its fault key)."""
    return f"index/{environment}/{derivative}"


class ResultCache(RecordLog):
    """Persistent (image digest, target, derivative) -> result store.

    A :class:`~repro.core.durable.RecordLog`: each verdict is one
    checksummed record — its key and the canonical payload text that
    :func:`matrix_digest` hashes — appended to this process's segment,
    and every segment is read once, on first access.  The log's rules
    make the cache contained: a corrupt record is counted (never a
    clean miss, never a hit) and its segment quarantined as evidence
    once its writer is gone, a record cut off by a kill is dropped and
    counted in ``torn``, and a failed write or an uncreatable directory
    degrades to a cold cache, never to a failed regression.  The key
    includes a schema version and the engine's
    :func:`~repro.core.durable.model_digest`, so after an edit a verdict
    is a miss, never stale.  :meth:`prune` (``regress --cache-prune``)
    compacts the log, dropping the oldest verdicts.

    Beside the verdicts, the log holds one **build index** per
    (environment, derivative), one record per matrix position: its
    build key and the image digest it produced.  It lets the scheduler
    compute a verdict's key without assembling anything
    (:meth:`load_index` / :meth:`save_index`).
    """

    read_site = SITE_CACHE_READ
    write_site = SITE_CACHE_WRITE
    bounded = _VERDICTS
    #: The per-key layout this log replaced: one checksummed verdict per
    #: ``<key>.json`` and the build indexes under ``index/``.
    earlier_layout = ("[0-9a-f]" * 64 + ".json", "index")

    def __init__(self, directory: str | Path, injector: FaultInjector | None = None):
        super().__init__(directory, injector)
        self.hits = 0
        #: Matrix positions whose build key matched the index (no build
        #: needed to key their verdict), whose key was absent or
        #: changed, and whose fresh build contradicted the indexed
        #: digest (a build input the key leaves out).
        self.index_hits = 0
        self.index_misses = 0
        self.index_stale = 0

    def key_for(
        self,
        image: MemoryImage | str,
        tgt: Target,
        derivative: Derivative,
        max_instructions: int,
    ) -> str:
        """The verdict key of *image* (or its digest) on *tgt*; builds
        no platform."""
        digest = image if isinstance(image, str) else image.digest()
        return content_key(
            f"schema={CACHE_SCHEMA}",
            model_digest(),
            digest,
            tgt.name,
            derivative.name,
            max_instructions,
        )

    def stats(self) -> dict[str, int]:
        return {
            **super().stats(),
            "hits": self.hits,
            "index_hits": self.index_hits,
            "index_misses": self.index_misses,
            "index_stale": self.index_stale,
        }

    def holds(self, key: str) -> bool:
        """Whether the log holds an intact verdict for *key*, as this
        reader last read it; counts nothing and fires no site."""
        return key in self._load().get(_VERDICTS, ())

    def get(self, key: str, targeted: bool = False) -> RunResult | None:
        text = self.read(_VERDICTS, key, targeted)
        if text is None:
            return None
        self.hits += 1
        return _CachedResult(text)

    def put(self, key: str, result: RunResult) -> bool:
        """Append *result* as *key*'s verdict, unless the log already
        holds that very verdict for *key* (a fleet's publication, or a
        position sharing its key): returns whether it appended."""
        if self.disabled:
            return False
        text = result.payload_text
        if text is None:
            text = json.dumps(result_to_payload(result), sort_keys=True)
            result.payload_text = text
        if self._load().get(_VERDICTS, {}).get(key) == text:
            return False
        return self.append(_VERDICTS, {key: text}, key)

    # -- build index -------------------------------------------------------
    def load_index(
        self, environment: str, derivative: str
    ) -> dict[str, tuple[str, str]]:
        """Position -> (build key, image digest) for one (environment,
        derivative); empty when absent or its read failed."""
        return {
            position: tuple(value.split(" "))
            for position, value in self.read_space(
                _index_space(environment, derivative)
            ).items()
        }

    def save_index(
        self,
        environment: str,
        derivative: str,
        index: dict[str, tuple[str, str]],
    ) -> bool:
        """Append the positions of *index* the log does not hold yet."""
        if self.disabled:
            return False
        space = _index_space(environment, derivative)
        current = self._load().get(space, {})
        changed = {
            position: f"{build_key} {digest}"
            for position, (build_key, digest) in index.items()
            if current.get(position) != f"{build_key} {digest}"
        }
        return self.append(space, changed, space, targeted=True)


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------

#: ``stats()`` keys whose sources are cumulative (shared decode caches)
#: or global (the digest registry): merged as gauges, not summed.
_ENGINE_GAUGES = ("decode_hits", "decode_misses")


def merge_engine_stats(totals: dict, stats: dict) -> dict:
    """Accumulate one engine ``stats()`` snapshot into *totals*.

    Per-run counters (``sb_replays``, ``ff_warps``, ``sb_blocks``,
    ``sb_fallback_steps``, ``reset_full``) sum; shared-cache and
    registry keys are gauges where the last observation wins."""
    for key, value in stats.items():
        if key in _ENGINE_GAUGES or key.startswith("registry_"):
            totals[key] = value
        else:
            totals[key] = totals.get(key, 0) + value
    return totals


class RegressionScheduler:
    """Runs the regression matrix with sharing, caching, fleet sharding
    and supervised fault-tolerant execution."""

    def __init__(
        self,
        targets: list[Target] | None = None,
        platform_overrides: dict[str, Platform] | None = None,
        cache: ResultCache | None = None,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        run_timeout: float | None = None,
        retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        clock=time.monotonic,
        sleep=time.sleep,
        fault_plan: FaultPlan | None = None,
        session_provider=None,
        worklist=None,
    ):
        self.targets = list(targets or all_targets())
        self.platform_overrides = dict(platform_overrides or {})
        self.cache = cache
        self.max_instructions = max_instructions
        #: Fleet per-cell deadline in seconds (``None``: none).  A cell
        #: running longer stops having its lease renewed, so a peer
        #: steals it once the lease expires.  A running core cannot be
        #: preempted, so outside a fleet there is nothing to enforce.
        self.run_timeout = run_timeout
        #: Failed attempts a cell may burn before quarantine, in-process
        #: and, in a fleet, lease steals (dead or overrunning holders).
        self.retries = max(0, int(retries))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: Injectable time sources so chaos tests run without real
        #: sleeping and with reproducible deadlines.
        self._clock = clock
        self._sleep = sleep
        #: Optional warm-session source (``lease(target, derivative)``
        #: / ``release(session, healthy=...)``) used instead of
        #: constructing sessions — the serving daemon's pool hook
        #: (:class:`repro.service.pool.WarmSessionPool`).  Sessions the
        #: scheduler saw fail are released unhealthy so the pool
        #: rebuilds them instead of handing the wreck to the next
        #: tenant.
        self.session_provider = session_provider
        #: Optional :class:`repro.store.worklist.WorkList` over a
        #: shared result cache: several scheduler processes pointed at
        #: the same cache directory divide the matrix by racing cell
        #: claims, reading each other's verdicts from the cache and
        #: stealing expired leases from dead workers.  The scheduler's
        #: cache is the work-list's.  A disabled (uncreatable)
        #: work-list degrades the run to ordinary local execution.
        self.worklist = worklist
        if worklist is not None:
            if cache is not None and cache is not worklist.cache:
                raise ValueError(
                    "a fleet reads its verdicts from its work-list's cache"
                )
            self.cache = cache = worklist.cache
        #: Set for the duration of :meth:`run_system` when the caller
        #: wants outcomes streamed as they materialise.
        self._on_outcome = None
        self._injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        if (
            self._injector is not None
            and cache is not None
            and cache.injector is None
        ):
            cache.injector = self._injector
        if (
            self._injector is not None
            and worklist is not None
            and worklist.injector is None
        ):
            worklist.injector = self._injector
        #: Aggregated engine telemetry (``ExecutionSession.stats()``
        #: merged via :func:`merge_engine_stats`) over every run this
        #: scheduler executed — ``regress --engine-stats`` dumps it.
        self.engine_stats: dict[str, int] = {}

    # -- public API -----------------------------------------------------------
    def run_environment(
        self,
        env: ModuleTestEnvironment,
        derivative: Derivative,
    ) -> RegressionReport:
        return self.run_system({env.name: env}, derivative)

    def run_system(
        self,
        environments: dict[str, ModuleTestEnvironment],
        derivative: Derivative,
        on_outcome=None,
    ) -> RegressionReport:
        """Run the matrix; *on_outcome* (if given) receives each
        :class:`RunOutcome` as it materialises — cache hits up front,
        executed cells in completion order — so a serving layer can
        stream incremental results instead of waiting for the report.
        The callback runs on the executing thread and must not raise.
        """
        outcomes: dict[RunRequest, RunOutcome] = {}
        self._on_outcome = on_outcome
        try:
            cache_keys: dict[RunRequest, str] = {}
            work, pending, indexes = self._plan(
                environments, derivative, outcomes, cache_keys
            )
            for outcome in self._execute(pending, derivative, cache_keys):
                outcomes[outcome.request] = outcome
                key = cache_keys.get(outcome.request)
                # Quarantined verdicts are infrastructure faults;
                # replaying them from a warm cache would make one bad
                # day permanent.  A fleet already published the rest,
                # which put leaves as it is.
                if key is not None and not outcome.quarantined:
                    self.cache.put(key, outcome.result)
            for env_name, (loaded, index) in indexes.items():
                if index != loaded:
                    self.cache.save_index(env_name, derivative.name, index)
        finally:
            self._on_outcome = None
            # Persist whatever decode/superblock state this run
            # warmed up, and the objects below the test cell it
            # assembled (one append for all of them).  One stamp-sized
            # check per registered image when an artifact store is
            # installed, a constant-time no-op otherwise; a run that
            # executed nothing has loaded no decode registry to persist.
            from repro.store import artifact_store

            store = artifact_store()
            if store is not None:
                decodecache = sys.modules.get("repro.isa.decodecache")
                if decodecache is not None:
                    decodecache.persist_registry()
                store.save_objects()

        return self._assemble_report(work, outcomes, derivative)

    def _emit(self, outcome: RunOutcome) -> RunOutcome:
        """Stream one materialised outcome to the run's callback."""
        if self._on_outcome is not None:
            self._on_outcome(outcome)
        return outcome

    # -- plan ----------------------------------------------------------------
    def _plan(
        self,
        environments: dict[str, ModuleTestEnvironment],
        derivative: Derivative,
        outcomes: dict[RunRequest, RunOutcome],
        cache_keys: dict[RunRequest, str],
    ) -> tuple[list, list, dict]:
        """Work-list and cache probe that build only what must run.

        One walk over every (environment, cell, target) position.
        Builds go through the environment's build cache, so targets
        with identical build inputs share one image.  Without a result
        cache, and for overridden targets, every position builds and
        runs; no build key is hashed.  With one, each position's build
        key is looked up in the environment's build index; a match
        yields the image digest, and so the verdict key, without
        assembling.  Misses, and hits whose verdict is not cached,
        build — and the fresh digest always wins over the indexed one.
        Returns ``(work, pending, indexes)``: every position's request,
        the ``(request, image, target)`` entries to execute, and per
        environment its (loaded, updated) index for :meth:`run_system`
        to save.
        """
        cache = self.cache
        work: list[RunRequest] = []
        pending: list[tuple[RunRequest, MemoryImage, Target]] = []
        indexes: dict[str, tuple[dict, dict]] = {}
        for env in environments.values():
            if cache is not None:
                loaded = cache.load_index(env.name, derivative.name)
                index = dict(loaded)
                indexes[env.name] = (loaded, index)
            for cell_name in env.cells:
                for tgt in self.targets:
                    request = RunRequest(
                        environment=env.name,
                        cell=cell_name,
                        derivative=derivative.name,
                        target=tgt.name,
                    )
                    work.append(request)
                    if cache is None or tgt.name in self.platform_overrides:
                        image = env.build_image(
                            cell_name, derivative, tgt
                        ).image
                        pending.append((request, image, tgt))
                        continue
                    position = f"{cell_name}/{tgt.name}"
                    build_key = env.build_key(cell_name, derivative, tgt)
                    known = index.get(position)
                    digest = None
                    if known is not None and known[0] == build_key:
                        cache.index_hits += 1
                        digest = known[1]
                        cached = self._probe_cache(
                            request, digest, tgt, derivative, cache_keys
                        )
                        if cached is not None:
                            outcomes[request] = self._emit(cached)
                            continue
                    else:
                        cache.index_misses += 1
                    image = env.build_image(cell_name, derivative, tgt).image
                    fresh = image.digest()
                    index[position] = (build_key, fresh)
                    if fresh != digest:
                        if digest is not None:
                            cache.index_stale += 1
                        cached = self._probe_cache(
                            request, image, tgt, derivative, cache_keys
                        )
                        if cached is not None:
                            outcomes[request] = self._emit(cached)
                            continue
                    pending.append((request, image, tgt))
        return work, pending, indexes

    def _probe_cache(
        self,
        request: RunRequest,
        image: MemoryImage | str,
        tgt: Target,
        derivative: Derivative,
        cache_keys: dict[RunRequest, str],
    ) -> RunOutcome | None:
        key = self.cache.key_for(
            image, tgt, derivative, self.max_instructions
        )
        cache_keys[request] = key
        result = self.cache.get(key)
        if result is None:
            return None
        return RunOutcome(request, result, cached=True)

    # -- supervision helpers -----------------------------------------------
    def _backoff(self, attempt: int) -> float:
        """Deterministic capped exponential backoff before a retry."""
        return min(
            self.backoff_base * (2 ** max(0, attempt - 1)),
            self.backoff_cap,
        )

    def _quarantine_outcome(
        self,
        request: RunRequest,
        derivative: Derivative,
        reason: str,
        retried: bool,
    ) -> RunOutcome:
        return RunOutcome(
            request,
            quarantine_result(request.target, derivative.name, reason),
            retried=retried,
            quarantined=True,
        )

    # -- execution ---------------------------------------------------------
    def _execute(
        self,
        pending: list[tuple[RunRequest, MemoryImage, Target]],
        derivative: Derivative,
        cache_keys: dict[RunRequest, str],
    ) -> list[RunOutcome]:
        """Run *pending* in-process on one session per target, each
        cell on the supervised ladder.  In a fleet the cells of
        ordinary targets, each keyed by its verdict key in
        *cache_keys*, are divided with peer processes through the
        shared work-list (the fleet is the parallelism); overridden
        platforms stay local — their state is arbitrary experiment
        Python no peer could reproduce."""
        fleet = self.worklist is not None and not self.worklist.disabled
        sessions: dict[str, ExecutionSession] = {}
        shared: list[tuple[RunRequest, MemoryImage, Target, str]] = []
        out: list[RunOutcome] = []
        try:
            for request, image, tgt in pending:
                if fleet and tgt.name not in self.platform_overrides:
                    shared.append((request, image, tgt, cache_keys[request]))
                    continue
                out.append(
                    self._emit(
                        self._supervised_scalar_run(
                            sessions, request, image, tgt, derivative
                        )
                    )
                )
            if shared:
                out.extend(self._run_fleet(sessions, shared, derivative))
        finally:
            # Sessions that survived the whole run go back to the warm
            # pool healthy; failed ones were already released unhealthy
            # by _discard_session, and overridden ones were never leased.
            if self.session_provider is not None:
                for name, session in sessions.items():
                    if name not in self.platform_overrides:
                        self.session_provider.release(session, healthy=True)
        return out

    def _run_fleet(
        self,
        sessions: dict[str, ExecutionSession],
        remaining: list[tuple[RunRequest, MemoryImage, Target, str]],
        derivative: Derivative,
    ) -> list[RunOutcome]:
        """Run the ``(request, image, target, verdict key)`` cells of
        *remaining* cooperatively with peer workers over the shared
        work-list.

        Per cell: adopt a verdict already in the shared cache
        (``cached``), otherwise claim the cell's lease — stealing it
        when its holder's expiry passed (``stolen``) — and, unless its
        holder published a verdict meanwhile (adopted, the lease
        released), execute under a heartbeat with the ordinary
        retry/quarantine ladder, then publish.  Cells held by live
        peers are polled until their verdict appears or their lease
        expires, so the matrix completes even when peers are SIGKILLed
        or wedged mid-shard: every cell is eventually published by its
        lease holder or reclaimed by a survivor.  Positions that share
        a verdict key are one cell.

        Two budgets bound the reclaiming.  The heartbeat lets the lease
        of a cell running past ``run_timeout`` lapse, so a wedged holder
        delays its cell by at most the deadline plus one TTL.  A claim
        whose steal takes the lease's steal count above ``retries``
        holds a poison cell — every earlier holder died or overran on
        it — and quarantines it without running it; the record, count
        included, stays behind expired, so later peers quarantine it
        too instead of dying on it.

        A verdict is published only when no peer's is found, and a
        peer's found instead is adopted, so every worker accounts
        identical results.  Adopted verdicts stay payload text until a
        field is read (:class:`_CachedResult`).  Each poll round starts
        with one refresh of the peers' publications.
        Quarantined verdicts are never published — they are
        this process's infrastructure failure, and a healthy peer (or a
        lease steal after ours lapses) can still derive the real one.
        A failed publication keeps the local verdict (the cache counts
        the write error), and a lease directory that fails mid-run
        degrades the leftover cells to local execution (the work-list
        counts its claim errors): the run continues.
        """
        worklist = self.worklist
        out: list[RunOutcome] = []
        # One run-scoped heartbeat thread renewing whichever lease is
        # currently being executed (cells run one at a time here — the
        # fleet is the parallelism).  A thread per cell would cost more
        # than a short cell's execution; a thread per run is free.
        held: list = [None]  #: (lease, start time) of the running cell
        stop_beat = threading.Event()
        deadline = self.run_timeout
        clock = self._clock

        def _beat() -> None:
            interval = max(0.02, worklist.lease_ttl / 3.0)
            while not stop_beat.wait(interval):
                current = held[0]
                if current is None or current[0].lost:
                    continue
                lease, started = current
                if deadline is not None and clock() - started > deadline:
                    worklist.lapse(lease)
                else:
                    worklist.renew(lease)

        keeper = threading.Thread(
            target=_beat, name="fleet-heartbeat", daemon=True
        )
        keeper.start()
        try:
            while remaining:
                # One read per poll round of what peers published.
                worklist.cache.refresh()
                deferred = []
                progressed = False
                errors_before = worklist.claim_errors
                for request, image, tgt, key in remaining:
                    verdict = worklist.fetch(key)
                    lease = None
                    if verdict is None:
                        lease = worklist.claim(key)
                        if lease is None:
                            # Held by a live peer (or claim trouble):
                            # poll again — its result will publish, or
                            # its lease will expire and we steal it.
                            deferred.append((request, image, tgt, key))
                            continue
                        # Its holder may have published and released
                        # between our fetch and our claim.
                        verdict = worklist.fetch(key, targeted=True)
                        if verdict is not None:
                            worklist.release(lease)
                    if verdict is not None:
                        out.append(self._emit(
                            RunOutcome(request, verdict, cached=True)
                        ))
                        progressed = True
                        continue
                    if lease.steals > self.retries:
                        outcome = self._quarantine_outcome(
                            request,
                            derivative,
                            f"poison cell: lease stolen {lease.steals} "
                            "time(s), every holder died or overran",
                            retried=True,
                        )
                        outcome.stolen = True
                        worklist.poison(lease)
                        out.append(self._emit(outcome))
                        progressed = True
                        continue
                    held[0] = (lease, clock())
                    try:
                        outcome = self._supervised_scalar_run(
                            sessions, request, image, tgt, derivative
                        )
                    finally:
                        held[0] = None
                    outcome.stolen = lease.stolen
                    if not outcome.quarantined and not worklist.publish(
                        key, outcome.result
                    ):
                        peer = worklist.fetch(key)
                        if peer is not None:
                            # Lost the publication race: adopt the
                            # canonical verdict so every fleet worker
                            # accounts identical results.
                            outcome.result = peer
                    worklist.release(lease)
                    out.append(self._emit(outcome))
                    progressed = True
                remaining = deferred
                if remaining and not progressed:
                    if worklist.claim_errors > errors_before:
                        # Store root gone bad mid-run: degrade the
                        # leftover cells to ordinary local execution
                        # (the errors are counted on the work-list) —
                        # never let a broken share wedge the matrix.
                        for request, image, tgt, _key in remaining:
                            out.append(
                                self._emit(
                                    self._supervised_scalar_run(
                                        sessions, request, image, tgt,
                                        derivative,
                                    )
                                )
                            )
                        break
                    self._sleep(_POLL_INTERVAL)
        finally:
            stop_beat.set()
            keeper.join(timeout=5.0)
        return out

    def _checkout_session(
        self,
        sessions: dict[str, ExecutionSession],
        tgt: Target,
        derivative: Derivative,
    ) -> ExecutionSession:
        session = sessions.get(tgt.name)
        if session is None:
            from repro.platforms.session import ExecutionSession

            override = self.platform_overrides.get(tgt.name)
            if override is not None:
                session = ExecutionSession(override, derivative)
            elif self.session_provider is not None:
                session = self.session_provider.lease(tgt, derivative)
            else:
                session = ExecutionSession(
                    tgt.make_platform(), derivative, injector=self._injector
                )
            sessions[tgt.name] = session
        return session

    def _discard_session(
        self, sessions: dict[str, ExecutionSession], tgt: Target
    ) -> None:
        session = sessions.pop(tgt.name, None)
        if (
            session is not None
            and self.session_provider is not None
            and tgt.name not in self.platform_overrides
        ):
            self.session_provider.release(session, healthy=False)

    def _supervised_scalar_run(
        self,
        sessions: dict[str, ExecutionSession],
        request: RunRequest,
        image: MemoryImage,
        tgt: Target,
        derivative: Derivative,
    ) -> RunOutcome:
        """One cell with the full retry/quarantine ladder, in-process.

        A failed attempt discards the target's session (the device is
        in an unknown state — a provider-leased session goes back
        unhealthy so the pool rebuilds it) and acquires a fresh one for
        the retry.  A failing *checkout* (injected ``pool-lease``
        chaos, a provider that cannot build a device) walks the same
        ladder: the cell quarantines instead of the whole run dying.

        An overridden target's session runs the override instance with
        no injector and is never leased from the provider.  Its state
        is arbitrary experiment Python, so it gets no retry (a retry
        would re-enter the experiment's mutated state): its first
        failure quarantines the cell.
        """
        overridden = tgt.name in self.platform_overrides
        retries = 0 if overridden else self.retries
        attempt = 0
        retried = False
        while True:
            try:
                session = self._checkout_session(sessions, tgt, derivative)
                result = session.run(
                    image, max_instructions=self.max_instructions
                )
            except Exception as exc:
                self._discard_session(sessions, tgt)
                attempt += 1
                if attempt > retries:
                    return self._quarantine_outcome(
                        request,
                        derivative,
                        f"overridden platform failed: {exc}"
                        if overridden
                        else f"{attempt} attempt(s) failed, last: {exc}",
                        retried=retried,
                    )
                retried = True
                self._sleep(self._backoff(attempt))
                continue
            merge_engine_stats(self.engine_stats, session.stats())
            return RunOutcome(request, result, retried=retried)

    # -- reporting ---------------------------------------------------------
    def _assemble_report(
        self,
        work: list[RunRequest],
        outcomes: dict[RunRequest, RunOutcome],
        derivative: Derivative,
    ) -> RegressionReport:
        report = RegressionReport(derivative=derivative.name)
        per_cell: dict[tuple[str, str], dict[str, RunResult]] = {}
        for request in work:
            outcome = outcomes[request]
            report.results[
                (request.environment, request.cell, request.target)
            ] = outcome.result
            if not outcome.quarantined:
                # Quarantined cells are infrastructure faults; blaming
                # their platform for a "divergence" would pollute the
                # paper's bug-attribution signal.
                per_cell.setdefault(
                    (request.environment, request.cell), {}
                )[request.target] = outcome.result
            if outcome.cached:
                report.cached_runs += 1
            else:
                report.executed_runs += 1
            if outcome.stolen:
                report.stolen_runs += 1
            if outcome.retried:
                report.retried_runs += 1
            if outcome.quarantined:
                report.quarantined_runs += 1
        for (env_name, cell_name), per_target in per_cell.items():
            detect_divergences(env_name, cell_name, per_target, report)
        return report
