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
- :mod:`repro.store.worklist` — a shared-directory work-list for
  fleet-sharded :class:`~repro.core.scheduler.RegressionScheduler`
  runs: lease-based cell claims (``O_EXCL`` claim files, heartbeat
  renewal, wall-clock expiry), expired-lease reclaim (work stealing
  from dead workers) and idempotent first-writer-wins result
  publication, so at-least-once execution yields exactly-once
  accounting.

Chaos coverage comes from three store-layer injection sites in
:mod:`repro.core.faults` (``store-read``, ``store-write``,
``lease-renew``).  Every store operation is contained: an unavailable
or corrupt store root degrades the run to local-only execution
(counted, never fatal), and corrupt artifacts are counted, kept as
evidence and re-derived from source — never trusted.
"""

from repro.store.artifacts import (
    ArtifactStore,
    restore_decode_cache,
    snapshot_decode_cache,
)
from repro.store.worklist import Lease, WorkList

__all__ = [
    "ArtifactStore",
    "Lease",
    "WorkList",
    "restore_decode_cache",
    "snapshot_decode_cache",
]
