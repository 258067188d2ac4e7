"""Crash-safe write-ahead journal of accepted serving jobs.

The daemon's durability contract is small and absolute: once a
submission has been acknowledged as *accepted*, a crash — up to and
including ``kill -9`` — must not silently lose it.  The journal is the
whole of that contract:

- **accept before ack** — :meth:`JobJournal.accept` appends a record
  and fsyncs it *before* the daemon acknowledges the job; an append
  that fails refuses the submission explicitly instead of accepting a
  job it cannot remember;
- **settle after verdict** — :meth:`JobJournal.settle` appends the
  job's terminal record (``completed`` or ``failed``); a job whose
  last record is its accept is *pending* and is re-executed on restart
  (:meth:`~JobJournal.pending_jobs`), giving at-least-once semantics —
  re-running an idempotent regression is cheap (the result cache makes
  it nearly free), losing one is not;
- **one log** — the journal is a :class:`~repro.core.durable.RecordLog`
  (the result cache's log): one checksummed record per accept and per
  settle, in namespace ``job``, keyed by job id, whose value is the
  JSON ``{"kind", "data"}``.  A record cut off by a kill is counted in
  ``torn`` and never replayed; a record failing its checksum (bit rot,
  injected ``journal-write`` chaos) is counted in
  :attr:`~JobJournal.corrupt_records` — an unreadable accept is an
  *explicit* loss report, never a silent one — and its segment is
  quarantined as evidence;
- **bounded** — at boot and after every ``segment_records`` appends
  the journal compacts (:meth:`~repro.core.durable.RecordLog.compact`):
  the log folds into one fresh segment holding only the pending jobs'
  accepts, so a long-lived daemon's journal is bounded by its
  in-flight work, not its uptime.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.durable import RecordLog
from repro.core.faults import SITE_JOURNAL_WRITE

#: The log namespace of job records.
SPACE = "job"

KIND_ACCEPTED = "accepted"
KIND_COMPLETED = "completed"
KIND_FAILED = "failed"


class JournalError(RuntimeError):
    """The journal could not durably record an event."""


class JobJournal(RecordLog):
    """The daemon's job log: every append fsync'd, compacted to the
    pending jobs.

    Unlike the result cache it cannot degrade: a directory that cannot
    be created, or that still holds ``journal-*.ndjson`` segments of the
    earlier layout (left untouched), raises :class:`JournalError`,
    because a daemon must not acknowledge jobs it cannot remember.
    """

    write_site = SITE_JOURNAL_WRITE
    fsync = True

    def __init__(
        self,
        directory: str | Path,
        injector=None,
        segment_records: int = 256,
    ):
        super().__init__(directory, injector)
        if self.disabled:
            raise JournalError(f"cannot create journal directory {directory}")
        earlier = sorted(
            path.name for path in self.directory.glob("journal-*.ndjson")
        )
        if earlier:
            raise JournalError(
                f"journal directory {directory} holds segments of an "
                f"earlier layout: {', '.join(earlier)}"
            )
        self.segment_records = max(1, int(segment_records))
        self.accepted_jobs = 0
        self.settled_jobs = 0
        self.compactions = 0
        self.compaction_failures = 0
        #: Appends since the last compaction.
        self._appends = 0
        self._closed = False
        try:
            self._compact()
        except OSError as exc:
            self.close()
            raise JournalError(
                f"cannot compact journal {directory}: {exc}"
            ) from exc
        self.replayed_jobs = len(self.pending_jobs())

    @property
    def corrupt_records(self) -> int:
        """Records that failed verification on replay."""
        return self.corrupt

    def close(self) -> None:
        """Close the journal: later accepts raise, later settles fail."""
        with self._lock:
            self._closed = True
            super().close()

    # -- append path -------------------------------------------------------
    def _append(self, kind: str, job_id: str, data: dict) -> None:
        """One durable record; raises :class:`JournalError` on any
        failure so callers refuse work they cannot remember."""
        if self._closed:
            raise JournalError("journal is closed")
        value = json.dumps({"kind": kind, "data": data}, sort_keys=True)
        if not self.append(SPACE, {job_id: value}, job_id):
            raise JournalError(f"journal append failed for {job_id}")
        self._appends += 1

    def _maybe_compact(self) -> None:
        """Compact once :attr:`segment_records` appends were made.

        Runs only *after* the record just appended is in the log, so
        the fold keeps a fresh accept and drops a fresh settle.  A
        failed compaction is tolerated, not raised: the append itself
        is already durable, the old segments still hold the truth, and
        the next append retries.
        """
        if self._appends < self.segment_records:
            return
        try:
            self._compact()
        except Exception:
            self.compaction_failures += 1

    def _compact(self) -> None:
        """Fold the log into one fresh segment holding the pending jobs'
        accepts; raises :class:`OSError` when the fold fails."""
        if self.compact(self._pending_only) is None:
            raise OSError("journal compaction failed")
        self._appends = 0
        self.compactions += 1

    def _pending_only(self, live: dict) -> list[tuple]:
        """The compaction rule: keep the accept of every job pending
        here (a job whose settle failed is not)."""
        pending = {job_id for job_id, _data in self.pending_jobs()}
        return [
            record
            for record in live.values()
            if record[1] == SPACE and record[2] in pending
        ]

    def accept(self, job_id: str, pack_data: dict) -> None:
        """Durably record an accepted job *before* it is acknowledged."""
        with self._lock:
            self._append(KIND_ACCEPTED, job_id, pack_data)
            self.accepted_jobs += 1
            self._maybe_compact()

    def settle(self, job_id: str, status: str, summary: dict) -> bool:
        """Record a job's terminal verdict (``completed``/``failed``).

        Returns ``False`` instead of raising when the settle record
        cannot be written: the job *did* finish, and the only cost of a
        lost settle is a redundant re-run after a restart.
        """
        kind = KIND_COMPLETED if status == KIND_COMPLETED else KIND_FAILED
        with self._lock:
            try:
                self._append(kind, job_id, summary)
            except JournalError:
                # Finished all the same: no longer pending here.
                self._load().get(SPACE, {}).pop(job_id, None)
                return False
            self.settled_jobs += 1
            self._maybe_compact()
            return True

    # -- recovery ----------------------------------------------------------
    def pending_jobs(self) -> list[tuple[str, dict]]:
        """Accepted-but-unsettled jobs in acceptance order."""
        with self._lock:
            jobs = []
            for job_id, value in self._load().get(SPACE, {}).items():
                record = json.loads(value)
                if record["kind"] == KIND_ACCEPTED:
                    jobs.append((job_id, record["data"]))
            return jobs

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "pending": len(self.pending_jobs()),
                "accepted": self.accepted_jobs,
                "settled": self.settled_jobs,
                "replayed": self.replayed_jobs,
                "corrupt_records": self.corrupt,
                "torn": self.torn,
                "quarantined": self.quarantined,
                "compactions": self.compactions,
                "compaction_failures": self.compaction_failures,
            }

