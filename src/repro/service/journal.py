"""Crash-safe write-ahead journal of accepted serving jobs.

The daemon's durability contract is small and absolute: once a
submission has been acknowledged as *accepted*, a crash — up to and
including ``kill -9`` — must not silently lose it.  The journal is the
whole of that contract:

- **accept before ack** — :meth:`JobJournal.accept` appends a
  checksummed record and fsyncs it *before* the daemon acknowledges the
  job; an append that fails refuses the submission explicitly instead
  of accepting a job it cannot remember;
- **settle after verdict** — :meth:`JobJournal.settle` appends the
  job's terminal record (``completed`` or ``failed``); a job with an
  accept record and no settle record is *pending* and is re-executed
  on restart (:meth:`pending_jobs`), giving at-least-once semantics —
  re-running an idempotent regression is cheap (the result cache makes
  it nearly free), losing one is not;
- **corruption is counted, never trusted** — every record is one
  line in the checksummed envelope of :mod:`repro.core.durable`
  (``{"schema", "checksum", "payload"}`` with a SHA-256 over the
  payload text), so torn writes, bit rot and injected
  ``journal-write`` chaos are detected line-by-line on replay,
  counted in :attr:`corrupt_records` and surfaced in ``/stats`` —
  an unreadable accept record degrades to an *explicit* loss report,
  never a silent one, and its segment is quarantined as evidence;
- **bounded segments** — records append to ``journal-<n>.ndjson``;
  when a segment fills, the journal *compacts*: still-pending accept
  records are rewritten into a fresh segment (an fsync'd
  :func:`~repro.core.durable.atomic_write`, a targeted
  ``journal-write`` occurrence) and older segments are deleted, so a
  long-lived daemon's journal is bounded by its in-flight work, not
  its uptime.
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path

from repro.core.durable import DurableFiles, seal, unseal
from repro.core.faults import SITE_JOURNAL_WRITE

#: Bump when record semantics change incompatibly.
JOURNAL_SCHEMA = 1

_SEGMENT_RE = re.compile(r"journal-(\d{8})\.ndjson$")

KIND_ACCEPTED = "accepted"
KIND_COMPLETED = "completed"
KIND_FAILED = "failed"


class JournalError(RuntimeError):
    """The journal could not durably record an event."""


def _record(kind: str, job_id: str, seq: int, data: dict) -> bytes:
    """One journal line: a sealed record and its newline."""
    payload_text = json.dumps(
        {"kind": kind, "job": job_id, "seq": seq, "data": data},
        sort_keys=True,
    )
    return seal(JOURNAL_SCHEMA, payload_text) + b"\n"


class JobJournal(DurableFiles):
    """Append-only, checksummed, segment-compacting job journal.

    Unlike the other durable-file owners it cannot degrade: a directory
    that cannot be created raises :class:`JournalError`, because a
    daemon must not acknowledge jobs it cannot remember.
    """

    write_site = SITE_JOURNAL_WRITE

    def __init__(
        self,
        directory: str | Path,
        injector=None,
        segment_records: int = 256,
        fsync: bool = True,
    ):
        super().__init__(directory, injector)
        if self.disabled:
            raise JournalError(f"cannot create journal directory {directory}")
        self.segment_records = max(1, int(segment_records))
        self.fsync = fsync
        #: job id -> accepted payload dict, in acceptance order.
        self._pending: dict[str, dict] = {}
        #: Segments holding a corrupt record, quarantined (not deleted)
        #: by the next compaction.
        self._tainted: set[Path] = set()
        self.replayed_jobs = 0
        self.accepted_jobs = 0
        self.settled_jobs = 0
        self.compactions = 0
        self.compaction_failures = 0
        self._seq = 0
        self._lock = threading.Lock()
        self._segment_index = 0
        self._records_in_segment = 0
        self._handle = None
        self._replay_and_open()

    # -- lifecycle ---------------------------------------------------------
    def _segment_path(self, index: int) -> Path:
        return self.directory / f"journal-{index:08d}.ndjson"

    def _segments(self) -> list[tuple[int, Path]]:
        found = []
        for path in self.directory.iterdir():
            match = _SEGMENT_RE.fullmatch(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return sorted(found)

    def _replay_and_open(self) -> None:
        """Rebuild the pending set from disk, then open a compacted
        active segment — the ``kill -9`` recovery path."""
        for _index, path in self._segments():
            try:
                raw = path.read_bytes()
            except OSError:
                self.corrupt += 1
                self._tainted.add(path)
                continue
            for line in raw.splitlines():
                if not line.strip():
                    continue
                try:
                    payload = unseal(line, JOURNAL_SCHEMA)
                    kind = payload["kind"]
                    job_id = payload.get("job")
                except (ValueError, TypeError, KeyError):
                    self.corrupt += 1
                    self._tainted.add(path)
                    continue
                if kind == KIND_ACCEPTED:
                    self._pending[job_id] = payload.get("data", {})
                elif kind in (KIND_COMPLETED, KIND_FAILED):
                    self._pending.pop(job_id, None)
        self.replayed_jobs = len(self._pending)
        self._compact()

    @property
    def corrupt_records(self) -> int:
        """Journal lines (or unreadable segments) that failed
        verification on replay."""
        return self.corrupt

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    # -- append path -------------------------------------------------------
    def _append(self, kind: str, job_id: str, data: dict) -> None:
        """One durable record; raises :class:`JournalError` on any
        failure so callers refuse work they cannot remember."""
        self._seq += 1
        line = _record(kind, job_id, self._seq, data)
        try:
            if self.injector is not None:
                self.injector.fire(SITE_JOURNAL_WRITE, job_id)
                line = self.injector.mangle(SITE_JOURNAL_WRITE, job_id, line)
            if self._handle is None:
                raise JournalError("journal is closed")
            self._handle.write(line)
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
        except JournalError:
            raise
        except Exception as exc:
            raise JournalError(f"journal append failed: {exc}") from exc
        self._records_in_segment += 1

    def _maybe_compact(self) -> None:
        """Compact when the active segment is full.

        Must run only *after* :attr:`_pending` reflects the record just
        appended — compaction rewrites exactly the pending set, so
        triggering it from inside :meth:`_append` would drop the
        freshly-fsynced record (an accept vanishing from the rewritten
        segment, or a settle being un-done by re-persisting the job as
        pending).  A failed compaction is tolerated, not raised: the
        append itself is already durable, the old segments still hold
        the truth, and the next threshold crossing retries.
        """
        if self._records_in_segment < self.segment_records:
            return
        try:
            self._compact()
        except Exception:
            self.compaction_failures += 1

    def accept(self, job_id: str, pack_data: dict) -> None:
        """Durably record an accepted job *before* it is acknowledged."""
        with self._lock:
            self._append(KIND_ACCEPTED, job_id, pack_data)
            self._pending[job_id] = pack_data
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
                self._pending.pop(job_id, None)
                return False
            self._pending.pop(job_id, None)
            self.settled_jobs += 1
            self._maybe_compact()
            return True

    # -- recovery / maintenance --------------------------------------------
    def pending_jobs(self) -> list[tuple[str, dict]]:
        """Accepted-but-unsettled jobs in acceptance order."""
        with self._lock:
            return list(self._pending.items())

    def _compact(self) -> None:
        """Rewrite pending records into a fresh segment atomically and
        drop the history (a crash mid-compaction leaves either the old
        segments or the new one — never a torn journal).  Segments
        that held corrupt records are quarantined, not deleted."""
        segments = self._segments()
        next_index = (segments[-1][0] + 1) if segments else 0
        path = self._segment_path(next_index)
        records = []
        for job_id, pending in self._pending.items():
            self._seq += 1
            records.append(_record(KIND_ACCEPTED, job_id, self._seq, pending))
        if not self.write_file(
            path, path.name, b"".join(records), targeted=True, fsync=self.fsync
        ):
            raise JournalError("journal compaction write failed")
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
        for _index, old in segments:
            if old in self._tainted and self.quarantine(old):
                continue
            try:
                os.unlink(old)
            except OSError:
                pass
        self._tainted.clear()
        self._handle = open(path, "ab")
        self._segment_index = next_index
        self._records_in_segment = len(self._pending)
        self.compactions += 1

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "pending": len(self._pending),
                "accepted": self.accepted_jobs,
                "settled": self.settled_jobs,
                "replayed": self.replayed_jobs,
                "corrupt_records": self.corrupt,
                "quarantined": self.quarantined,
                "compactions": self.compactions,
                "compaction_failures": self.compaction_failures,
                "segment_index": self._segment_index,
            }
