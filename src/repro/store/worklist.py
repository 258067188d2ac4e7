"""Leases over a shared result cache for fleet-sharded regression runs.

Several scheduler processes — possibly on several machines sharing a
filesystem — divide one regression matrix by racing to *claim* cells
of one shared :class:`~repro.core.scheduler.ResultCache` directory: a
fleet is a set of peers of that cache.  A cell is a verdict key
(:meth:`~repro.core.scheduler.ResultCache.key_for`), and its verdict,
once published, is the cache's own ``verdict`` record, so a fleet run
primes a cache and a primed cache serves a fleet run.  The work-list
keeps only what the cache has no use for, the leases, under
``<cache-dir>/leases/``, and one invariant:

- **lease-based claims** — a cell is claimed by hard-linking a whole
  record to ``leases/<key>.lease`` (the *exclusive*
  :func:`~repro.core.durable.atomic_write`, atomic on POSIX even over
  NFS v3+, so no peer ever reads a half-written record).  The record
  holds the owner id, a fresh nonce, a wall-clock expiry and a steal
  count;
- **heartbeat renewal and expiry** — a healthy worker extends its
  lease (atomic rewrite, same nonce, firing the ``lease-renew`` chaos
  site; the scheduler's run-scoped heartbeat thread calls
  :meth:`WorkList.renew`) while executing, up to its per-cell deadline
  (:meth:`WorkList.lapse`); a lease whose expiry passed is *dead* and
  any worker may **steal** it: overwrite-with-own-record, count the
  steal, then read back and confirm the nonce survived.  SIGKILLed or
  wedged workers therefore delay their cells, never strand them, and
  a cell stolen more often than the scheduler's retry budget is
  quarantined instead of run, its record left behind expired
  (:meth:`WorkList.poison`) so a cell that kills whoever runs it
  cannot take the fleet down one worker at a time;
- **idempotent publication** — a worker appends a verdict to the
  cache only after a :meth:`~repro.core.durable.RecordLog.refresh`
  (which reads only what the peers' segments gained) finds none for
  the cell; otherwise it counts a ``duplicate`` and adopts the
  published one.  Steal races and double executions are therefore
  *benign*: at-least-once execution, exactly-once accounting.

Corruption, torn records and write failures are the cache's: counted
in its ``cache-stats``, a corrupt record never read (its cell returns
to the claimable pool and is re-derived from source) and its segment
quarantined as evidence once its writer is gone.  An unavailable
cache or lease directory marks the list :attr:`WorkList.disabled` and
the scheduler degrades to ordinary local execution.  Chaos sites:
``cache-read`` and ``cache-write`` (the cache's), ``lease-renew``
(renewal).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.durable import atomic_write
from repro.core.faults import SITE_LEASE_RENEW


class Lease:
    """One held (or stolen) cell claim."""

    __slots__ = ("key", "owner", "nonce", "expires", "steals", "lost")

    def __init__(self, key: str, owner: str, nonce: str, expires: float):
        self.key = key
        self.owner = owner
        self.nonce = nonce
        self.expires = expires
        #: How many times this cell's lease was stolen, this claim
        #: included: each steal means an earlier holder died or overran.
        self.steals = 0
        #: Ownership could not be maintained (failed/raced renewal, or
        #: the cell overran its deadline); the holder finishes its
        #: execution — publication idempotence keeps a concurrent
        #: re-claim harmless — but stops renewing.
        self.lost = False

    @property
    def stolen(self) -> bool:
        """Claimed by taking over an expired (dead or overrun) lease."""
        return self.steals > 0


class WorkList:
    """Lease/steal protocol over the ``leases/`` directory of a shared
    result cache, publishing verdicts through that cache."""

    def __init__(
        self,
        cache,
        owner: str | None = None,
        lease_ttl: float = 30.0,
        injector=None,
        clock=time.time,
    ):
        #: The shared :class:`~repro.core.scheduler.ResultCache` whose
        #: verdicts the fleet reads and publishes.
        self.cache = cache
        #: Optional :class:`repro.core.faults.FaultInjector` (the
        #: ``lease-renew`` site).
        self.injector = injector
        self.leases = cache.directory / "leases"
        self.disabled = cache.disabled
        if not self.disabled:
            try:
                self.leases.mkdir(exist_ok=True)
            except OSError:
                self.disabled = True
        self.owner = owner or f"pid{os.getpid()}-{os.urandom(3).hex()}"
        self.lease_ttl = max(0.05, float(lease_ttl))
        #: Wall clock on purpose: expiries must compare across
        #: processes, which a per-process monotonic clock cannot.
        self._clock = clock
        self.claimed = 0
        self.stolen = 0
        self.released = 0
        self.renewed = 0
        self.lease_lost = 0
        self.lapsed = 0
        self.poisoned = 0
        self.claim_errors = 0
        self.published = 0
        self.duplicates = 0

    # -- paths -------------------------------------------------------------
    def _lease_path(self, key: str) -> Path:
        return self.leases / f"{key}.lease"

    def _read_lease(self, path: Path) -> dict | None:
        """The lease record at *path*: ``None`` when there is no file,
        ``{}`` when it is unreadable (a torn lease file is claimable —
        safe because publication, not the lease, decides the cell's
        verdict)."""
        try:
            record = json.loads(path.read_bytes())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            return {}
        return record if isinstance(record, dict) else {}

    # -- claims ------------------------------------------------------------
    def claim(self, key: str) -> Lease | None:
        """Try to claim *key*; returns a :class:`Lease` or ``None``
        (held by a live worker, lost a steal race, or store trouble).

        The steal path overwrites an *expired* record and confirms by
        reading its own nonce back.  Two stealers can both pass the
        expiry check and overwrite in turn; the read-back loser walks
        away, and the residual double-claim window (a re-overwrite
        after the winner's read-back) is benign by publication
        idempotence.
        """
        if self.disabled:
            return None
        path = self._lease_path(key)
        lease = Lease(
            key, self.owner, os.urandom(8).hex(),
            self._clock() + self.lease_ttl,
        )
        try:
            # Linked into place whole: a peer never reads a half-written
            # record, which it would take for a torn one and steal.
            if atomic_write(path, self._record(lease), exclusive=True):
                self.claimed += 1
                return lease
        except OSError:
            self.claim_errors += 1
            return None
        current = self._read_lease(path)
        if current is None:
            # Released since the create failed: its holder finished, so
            # the next poll fetches the verdict.
            return None
        if current.get("expires", 0) > self._clock():
            return None  # held by a live worker
        steals = current.get("steals", 0)
        lease.steals = (steals if isinstance(steals, int) else 0) + 1
        try:
            atomic_write(path, self._record(lease))
        except OSError:
            self.claim_errors += 1
            return None
        confirm = self._read_lease(path)
        if confirm is None or confirm.get("nonce") != lease.nonce:
            return None  # lost the steal race
        self.stolen += 1
        return lease

    def _record(self, lease: Lease, expires: float | None = None) -> bytes:
        """The on-disk lease record of *lease* (expiring at *expires*,
        default the lease's own)."""
        record = {
            "owner": self.owner,
            "nonce": lease.nonce,
            "expires": lease.expires if expires is None else expires,
            "steals": lease.steals,
        }
        return json.dumps(record, sort_keys=True).encode()

    def renew(self, lease: Lease) -> bool:
        """Extend a held lease's expiry (the heartbeat).  Returns
        ``False`` — and marks the lease lost — when ownership is gone
        or the write fails (including injected ``lease-renew`` chaos);
        never raises."""
        if self.disabled or lease.lost:
            return False
        path = self._lease_path(lease.key)
        try:
            if self.injector is not None:
                self.injector.fire(SITE_LEASE_RENEW, lease.key)
            current = self._read_lease(path)
            if current is None or current.get("nonce") != lease.nonce:
                raise PermissionError("lease ownership lost")
            expires = self._clock() + self.lease_ttl
            atomic_write(path, self._record(lease, expires))
        except Exception:
            lease.lost = True
            self.lease_lost += 1
            return False
        lease.expires = expires
        self.renewed += 1
        return True

    def lapse(self, lease: Lease) -> None:
        """Stop renewing *lease*: its cell overran the per-cell
        deadline, so the lease expires and a peer steals the cell.  The
        holder finishes and may still publish (first writer wins)."""
        if not lease.lost:
            lease.lost = True
            self.lapsed += 1

    def poison(self, lease: Lease) -> None:
        """Give up a poison cell's lease without running it: the record
        stays, steal count included, but expired, so the next claimant
        steals it at once and quarantines the cell too."""
        path = self._lease_path(lease.key)
        try:
            current = self._read_lease(path)
            if current is not None and current.get("nonce") == lease.nonce:
                atomic_write(path, self._record(lease, expires=0.0))
                self.poisoned += 1
        except OSError:
            pass

    def release(self, lease: Lease) -> None:
        """Drop a held lease (best effort; only if still ours)."""
        path = self._lease_path(lease.key)
        try:
            current = self._read_lease(path)
            if current is not None and current.get("nonce") == lease.nonce:
                os.unlink(path)
                self.released += 1
        except OSError:
            pass

    # -- verdicts ----------------------------------------------------------
    def publish(self, key: str, result) -> bool:
        """Append *result* as *key*'s verdict to the cache, unless a
        refresh finds that a peer published the cell first.  Returns
        whether this call appended it; a verdict found counts a
        duplicate (the caller adopts it), a failed append is the
        cache's write error, and neither raises."""
        if self.disabled:
            return False
        self.cache.refresh()
        if self.cache.holds(key):
            self.duplicates += 1
            return False
        if not self.cache.put(key, result):
            return False
        self.published += 1
        return True

    def fetch(self, key: str, targeted: bool = False):
        """*key*'s published verdict from the cache, or ``None`` (not
        published yet, or counted corruption, after which the cell
        re-enters the claimable pool and is re-derived from source).
        It reads what the cache holds: the scheduler refreshes it once
        per poll round, and *targeted* — the re-check after a claim —
        refreshes first, since the cell's last holder may have
        published since, and fires the read site only for plans
        naming the cell.  An unpublished cell is not a cache miss.
        Never raises."""
        if self.disabled:
            return None
        if targeted:
            self.cache.refresh()
        if not self.cache.holds(key):
            return None
        return self.cache.get(key, targeted)

    def stats(self) -> dict[str, int]:
        return {
            "disabled": int(self.disabled),
            "claimed": self.claimed,
            "stolen": self.stolen,
            "released": self.released,
            "renewed": self.renewed,
            "lease_lost": self.lease_lost,
            "lapsed": self.lapsed,
            "poisoned": self.poisoned,
            "claim_errors": self.claim_errors,
            "published": self.published,
            "duplicates": self.duplicates,
        }
