"""Shared-directory work-list for fleet-sharded regression runs.

Several scheduler processes — possibly on several machines sharing a
filesystem — divide one regression matrix by racing to *claim* cells
and publishing their verdicts into a common directory.  The protocol is
built from ordinary-filesystem primitives and one invariant:

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
- **verdicts in one log** — the work-list is a
  :class:`~repro.core.durable.RecordLog`: a published verdict is one
  checksummed record, its cell key and the same payload text the
  result cache stores, appended to the publishing peer's own segment.
  A peer sees the others' verdicts by :meth:`~RecordLog.refresh`,
  which reads only what their segments gained;
- **idempotent publication** — a worker appends a verdict only after
  a refresh finds none for the cell; otherwise it counts a
  ``duplicate`` and adopts the published one.  Steal races and double
  executions are therefore *benign*: at-least-once execution,
  exactly-once accounting;
- **corruption is re-derived, never trusted** — a record that fails
  its checksum is counted and never read, and its cell returns to the
  claimable pool, so the matrix re-derives the verdict from source;
  once its writer is gone, the first reader quarantines its segment
  as evidence.

Every operation is contained: an unavailable work-list root marks the
list :attr:`WorkList.disabled` and the scheduler degrades to ordinary
local execution.  Chaos sites: ``store-read`` (fetch), ``store-write``
(publish), ``lease-renew`` (renewal).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.durable import RecordLog, atomic_write, content_key
from repro.core.faults import (
    SITE_LEASE_RENEW,
    SITE_STORE_READ,
    SITE_STORE_WRITE,
)

#: The record namespace of published verdicts.
_VERDICTS = "verdict"

#: Cell identity: the content key of (model digest, environment, cell,
#: derivative, target, image digest, run bounds), derived alike by
#: every worker running the same code.
cell_key = content_key


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


class WorkList(RecordLog):
    """Lease/steal/publish protocol over one shared directory: the
    verdict log's segments beside ``leases/``."""

    read_site = SITE_STORE_READ
    write_site = SITE_STORE_WRITE
    #: The per-cell layout this log replaced: a ``results`` directory of
    #: one checksummed JSON envelope per cell.
    earlier_layout = ("results",)

    def __init__(
        self,
        directory: str | Path,
        owner: str | None = None,
        lease_ttl: float = 30.0,
        injector=None,
        clock=time.time,
    ):
        super().__init__(directory, injector)
        try:
            (self.directory / "leases").mkdir(exist_ok=True)
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
        self.fetched = 0

    # -- paths -------------------------------------------------------------
    def _lease_path(self, key: str) -> Path:
        return self.directory / "leases" / f"{key}.lease"

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
    def publish(self, key: str, text: str) -> bool:
        """Append *text*, the payload text of *key*'s verdict, unless a
        refresh finds that a peer published the cell first.  Returns
        whether this call appended it; a verdict found counts a
        duplicate (the caller adopts it), a failed append counts a
        write error, and neither raises."""
        if self.disabled:
            return False
        self.refresh()
        if key in self.records.get(_VERDICTS, {}):
            self.duplicates += 1
            return False
        if not self.append(_VERDICTS, {key: text}, key):
            return False
        self.published += 1
        return True

    def fetch(self, key: str, targeted: bool = False) -> str | None:
        """The published payload text of *key*, or ``None`` (not
        published yet, or counted corruption, after which the cell
        re-enters the claimable pool and is re-derived from source).
        *targeted* marks the re-check after a claim, which refreshes
        first — its holder may have published since — and fires the
        read site only for plans naming the cell.  Never raises."""
        if self.disabled:
            return None
        if targeted:
            self.refresh()
        text = self.read(_VERDICTS, key, targeted)
        if text is not None:
            self.fetched += 1
        return text

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
            "fetched": self.fetched,
            "corrupt": self.corrupt,
            "torn": self.torn,
            "quarantined": self.quarantined,
            "write_errors": self.write_errors,
        }
