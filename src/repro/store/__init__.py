"""Restart-proof fleet execution: persistent artifacts + shared work.

Everything warm in this codebase — predecoded entries, superblocks,
observation templates, warm session pools — lives in process memory and
dies with the process, and a regression matrix can only be sharded
inside one machine.  This package extends the
repo's two proven durability idioms downward and outward:

- :mod:`repro.store.artifacts` — an on-disk store of
  :class:`~repro.isa.decodecache.DecodeCache` snapshots (predecode +
  superblock formation), keyed by image digest, region bounds,
  wait-state profile and the model digest of the code that derived
  them, one pack per persist, appended to the checksummed record log
  of :mod:`repro.core.durable` beside the executor table and the
  assembled objects below the test cells.  A fresh process (or
  a rebooted :class:`ServiceDaemon` pool) warm-starts from disk instead
  of re-paying predecode and formation;
- :mod:`repro.store.worklist` — the leases of fleet-sharded
  :class:`~repro.core.scheduler.RegressionScheduler` runs whose peers
  share one :class:`~repro.core.scheduler.ResultCache` directory:
  lease-based cell claims under ``<cache-dir>/leases/`` (whole lease
  files hard-linked into place, heartbeat renewal, wall-clock expiry),
  expired-lease reclaim (work stealing from dead workers) and
  idempotent verdict publication as the cache's own records, so
  at-least-once execution yields exactly-once accounting.

Chaos coverage comes from the artifact store's two injection sites in
:mod:`repro.core.faults` (``store-read``, ``store-write``) and the
work-list's ``lease-renew``; a fleet's verdict reads and writes are the
cache's (``cache-read``, ``cache-write``).  Every store operation is
contained: an unavailable or corrupt store root degrades the run to
execution without it (counted, never fatal), an unavailable lease
directory to local-only execution, and corrupt artifacts are counted,
kept as evidence and re-derived from source — never trusted.

Each public name resolves on first use (PEP 562), so installing a store
for a regression served from the result cache loads neither the
snapshot codec nor the work-list.
"""

from repro import lazy_exports

#: Public name -> the submodule that defines it (``__all__`` order).
_ORIGINS = {
    "ArtifactStore": "artifacts",
    "Lease": "worklist",
    "WorkList": "worklist",
    "restore_decode_cache": "artifacts",
    "snapshot_decode_cache": "artifacts",
}

__all__ = [*_ORIGINS, "artifact_store", "set_artifact_store"]

__getattr__, __dir__ = lazy_exports(__name__, _ORIGINS)

#: The process's persistent artifact store, or ``None`` (pure memory).
#: Duck-typed: the decode registry
#: (:func:`~repro.isa.decodecache.decode_cache_for`) restores caches
#: from it on a miss, the executor table loads from it, the build layer
#: keeps the assembled objects below the test cell in it
#: (:func:`repro.core.environment.stored_objects`), and the scheduler
#: drains it when a regression ends.  Installed by the CLI and the
#: daemon.
_INSTALLED = None


def set_artifact_store(store) -> None:
    """Install (or with ``None`` remove) the persistent artifact store."""
    global _INSTALLED
    _INSTALLED = store


def artifact_store():
    """The installed artifact store, or ``None``."""
    return _INSTALLED
