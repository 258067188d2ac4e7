"""Regression-as-a-service: the always-available serving layer.

Everything below :mod:`repro.core` is one-shot — every CLI invocation
pays cold-start (device construction, predecode, superblock formation)
and an interrupted process loses all in-flight work.  This
package turns the regression engine into a long-lived daemon whose
headline property is robustness:

- :mod:`repro.service.protocol` — versioned, declarative scenario-pack
  submissions (JSON naming modules/derivative/targets/engine flags)
  resolved into :class:`~repro.core.scheduler.RegressionScheduler`
  work-lists;
- :mod:`repro.service.pool` — warm :class:`ExecutionSession` pools
  keyed by target, derivative and engine flags, with lease/return
  checkout, health-checked recycling of wedged or poisoned sessions and
  bounded LRU eviction;
- :mod:`repro.service.journal` — a crash-safe write-ahead journal of
  accepted jobs, kept in the result cache's append-only record log
  (checksummed records, torn tails dropped, compaction to the pending
  jobs) and replayed on restart, so an accepted job is never silently
  lost;
- :mod:`repro.service.daemon` — the stdlib-asyncio HTTP/JSON daemon:
  bounded admission with explicit load-shedding (503 + ``Retry-After``)
  instead of unbounded buffering, per-request deadlines that reclaim
  the leased sessions, NDJSON result streaming as cells complete,
  ``/healthz``/``/readyz`` probes and graceful SIGTERM drain.

Chaos coverage comes from three service-layer injection sites in
:mod:`repro.core.faults` (``service-accept``, ``pool-lease``,
``journal-write``) on top of the execution-layer sites
(``session-run``, ``cache-read``, ``cache-write``, ``store-read``,
``store-write``): under injected crashes, hangs and corruption every
accepted request terminates with a result or an explicit FAULT, and the
readiness probe never reports ready over a broken pool.
"""

from repro.service.daemon import (
    RegressionService,
    ServiceDaemon,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.journal import JobJournal, JournalError
from repro.service.pool import WarmSessionPool
from repro.service.protocol import (
    PACK_SCHEMA,
    PackError,
    ScenarioPack,
    pack_to_dict,
    parse_pack,
    resolve_pack,
)

__all__ = [
    "JobJournal",
    "JournalError",
    "PACK_SCHEMA",
    "PackError",
    "RegressionService",
    "ScenarioPack",
    "ServiceDaemon",
    "ServiceError",
    "ServiceUnavailable",
    "WarmSessionPool",
    "pack_to_dict",
    "parse_pack",
    "resolve_pack",
]
