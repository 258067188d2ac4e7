"""Checksummed durable records, defined once.

The result cache, the artifact store, the job journal and the fleet
work-list's leases keep regression state on disk under the same rules,
and this module is the only place they are written:

- :class:`RecordLog` — an append-only log of checksummed records, one
  segment per writer process (Bitcask's layout, LevelDB's torn-tail
  rule): a value costs one ``O_APPEND`` write, not a file.  The result
  cache (whose verdicts a fleet's peers share), the artifact store and
  the job journal are its three owners, and
  :meth:`~RecordLog.compact` is the one way any of them shrinks it;
- :func:`atomic_write` — a unique temp file renamed (or, exclusive,
  hard-linked) into place, so no reader ever sees a torn file: the
  fleet work-list's lease files, the one state kept outside a log;
- :func:`quarantine_aside` — a segment that fails verification is
  renamed to a unique ``*.corrupt`` name: kept as evidence, never
  re-read;
- :func:`source_digest` — which code produced a value, in its key, so
  another code's value is a miss, never stale or corrupt data.

It lives in :mod:`repro.core` because the scheduler's result cache
uses it, and importing :mod:`repro.store` would load pickle, marshal
and the decode cache.
"""

from __future__ import annotations

import fnmatch
import functools
import hashlib
import importlib.util
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

try:
    import fcntl
except ImportError:  # not POSIX: no writer locks, so no segment folds
    fcntl = None


def checksum(data: bytes) -> str:
    """The SHA-256 hex digest stored beside every durable payload."""
    return hashlib.sha256(data).hexdigest()


def content_key(*parts) -> str:
    """The SHA-256 over the stringified *parts*, each NUL-terminated:
    the content address durable entries are named by."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(str(part).encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


#: Sources (relative to the ``repro`` package) that decide an image's
#: verdicts and decode snapshots: the model digest's files.
_MODEL_SOURCES = (
    "isa/*.py",
    "platforms/*.py",
    "soc/**/*.py",
    "core/targets.py",
    "core/faults.py",
    "core/scheduler.py",
    "store/artifacts.py",
)


@functools.cache
def source_digest(patterns: tuple[str, ...]) -> str:
    """SHA-256 over the relative path and bytes of every source file
    matching *patterns*, hashed once per process."""
    root = Path(__file__).resolve().parent.parent
    hasher = hashlib.sha256()
    for pattern in patterns:
        for path in sorted(root.glob(pattern)):
            hasher.update(path.relative_to(root).as_posix().encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
    return hasher.hexdigest()


def bytecode_tag() -> tuple[str, str]:
    """This interpreter's marshal format, as PEP 3147 checks a ``.pyc``:
    its ``cache_tag`` and its bytecode magic number."""
    return (sys.implementation.cache_tag, importlib.util.MAGIC_NUMBER.hex())


def model_digest() -> str:
    """The digest of the code that executes a run: the model sources
    and :func:`bytecode_tag` (snapshots hold marshalled code)."""
    return _model_digest(*bytecode_tag())


@functools.cache
def _model_digest(cache_tag: str, magic: str) -> str:
    """:func:`model_digest` under one bytecode tag, hashed once."""
    return content_key(source_digest(_MODEL_SOURCES), cache_tag, magic)


def atomic_write(path: Path, data: bytes, exclusive: bool = False) -> bool:
    """Make *data* the content of *path* in one step.

    The temp file's name is unique, because several processes may share
    the directory.  *exclusive* links instead of renaming, so the first
    writer wins:
    returns ``False`` when *path* already existed.  Other failures raise
    :class:`OSError`.  The temp file never outlives the call.
    """
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.stem[:16]}.", suffix=".tmp", dir=path.parent
    )
    renamed = False
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        if not exclusive:
            os.replace(tmp, path)
            renamed = True
            return True
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        return True
    finally:
        if not renamed:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def quarantine_aside(path: Path) -> bool:
    """Rename a corrupt file to a unique ``<stem>.<nonce>.corrupt``
    beside it (mkstemp picks the nonce, so a file that corrupts twice
    leaves two pieces of evidence).  Best effort; returns whether a
    file was set aside."""
    try:
        fd, destination = tempfile.mkstemp(
            prefix=f"{path.stem}.", suffix=".corrupt", dir=path.parent
        )
        os.close(fd)
    except OSError:
        return False
    try:
        os.replace(path, destination)
    except OSError:
        # Another process quarantined (or removed) it first: drop the
        # placeholder rather than leaving an empty decoy.
        try:
            os.unlink(destination)
        except OSError:
            pass
        return False
    return True


# --------------------------------------------------------------------------
# the record log
# --------------------------------------------------------------------------

#: Record layout version, part of every segment's name: a segment of
#: another layout is never opened.
LOG_SCHEMA = 1

#: A reader folds the segments of exited writers into its own once
#: there are more than this many of them (or any is damaged).
FOLD_SEGMENTS = 8


def encode_record(space: str, key: str, value: str, stamp: int) -> bytes:
    """One record: its body's SHA-256, then the body — write time,
    namespace, key and value, tab-separated — and a newline.  None of
    the fields may hold a tab or a newline (JSON text never does)."""
    body = f"{stamp}\t{space}\t{key}\t{value}".encode()
    # One join: a pack's value is most of a megabyte.
    return b"".join((checksum(body).encode(), b"\t", body, b"\n"))


def parse_segment(data: bytes) -> tuple[list[tuple], list, int]:
    """``(records, corrupt, torn)`` of one segment's bytes.

    *records* are the intact ``(stamp, space, key, value, line)``
    tuples in write order.  *corrupt* holds the ``(space, key)`` of
    each line failing its checksum (``None`` where those fields are
    unreadable too).  Bytes after the last newline are a record its
    writer never finished (killed mid-write, or still writing it):
    *torn* is 1, and they are never read as a record."""
    lines = data.split(b"\n")
    torn = int(bool(lines.pop()))
    records = []
    corrupt = []
    for line in lines:
        digest, _, body = line.partition(b"\t")
        fields = body.decode(errors="replace").split("\t", 3)
        if checksum(body).encode() == digest and len(fields) == 4:
            try:
                records.append((int(fields[0]), *fields[1:], line))
                continue
            except ValueError:
                pass
        corrupt.append(tuple(fields[1:3]) if len(fields) == 4 else None)
    return records, corrupt, torn


class _Dead:
    """A segment whose writer is gone, locked by this reader."""

    __slots__ = ("path", "fd", "records", "corrupt", "torn")

    def __init__(self, path, fd, records, corrupt, torn):
        self.path = path
        self.fd = fd
        self.records = records
        self.corrupt = corrupt
        self.torn = torn


class RecordLog:
    """An append-only log of checksummed ``(namespace, key) -> value``
    records in one directory, owned by one object.

    - **one segment per writer** — a process's first append creates
      ``seg<LOG_SCHEMA>-<pid>-<nonce>.log`` and holds an ``flock`` on it
      until it exits; each append is one ``O_APPEND`` write of whole
      records, with no temp file or rename, and no fsync unless the
      owner sets :attr:`fsync`;
    - **read once** — the first access reads every segment into
      :attr:`records` (the last record of a key wins); later appends
      by peers are seen only by :meth:`refresh`, which reads just the
      bytes each segment gained (a fleet's scheduler and work-list
      refresh the shared result cache with it; nothing else
      rescans);
    - **torn and corrupt** — a record a dead writer never finished (it
      was killed mid-write) is dropped and counted in :attr:`torn`,
      never read; the unfinished last line of a live writer is not
      read yet, and not counted; a record failing its checksum is
      counted in :attr:`corrupt`, never read;
    - **folds** — a segment whose writer is gone (its lock can be
      taken) is folded into the reader's own segment when it is
      damaged or more than :data:`FOLD_SEGMENTS` such segments exist:
      its intact records are re-appended, a segment holding corrupt
      records is quarantined as evidence, any other is deleted;
    - **compaction** — :meth:`compact` folds this writer's segment and
      every dead one into a fresh segment, keeping only the records
      the owner's rule keeps: the cache's :meth:`prune` bounds
      :attr:`bounded` by age and count, the journal keeps its pending
      jobs, and the first append of a process drops the records its
      owner no longer reads (:meth:`current`);
    - **earlier layouts** — the first append of a process also removes
      the entries of :attr:`earlier_layout` its first scan found.
      Other entries that are not segments (the fleet's ``leases/`` in
      the cache directory) are left alone.

    Construction never raises: a directory that cannot be created sets
    :attr:`disabled`, and every operation is a no-op — the run
    degrades, it does not fail.  Subclasses name their chaos sites
    (:attr:`read_site`, :attr:`write_site`), :attr:`bounded` and the
    :attr:`earlier_layout` their directory may still hold.
    """

    read_site = ""
    write_site = ""
    suffix = ".log"
    bounded = ""
    #: Whether each append reaches the disk before it returns.
    fsync = False
    #: ``fnmatch`` patterns of the names an earlier layout of the owner
    #: left in its directory: the first scan lists them in
    #: :attr:`earlier`, and never reads them.
    earlier_layout: tuple[str, ...] = ()

    def __init__(self, directory: str | Path, injector=None):
        self.directory = Path(directory)
        #: Optional :class:`repro.core.faults.FaultInjector`.
        self.injector = injector
        self.disabled = False
        self.misses = 0
        #: Reads that failed: a record failing its checksum, or an
        #: injected fault.  Corrupt is never a miss.
        self.corrupt = 0
        #: Distinct corrupt segments successfully renamed aside.
        self.quarantined = 0
        self.write_errors = 0
        #: Records and evidence files :meth:`prune` removed over this
        #: owner's lifetime.
        self.pruned = 0
        self.torn = 0
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            self.disabled = True
        #: Source of the write time each record carries (what
        #: :meth:`prune`'s age bound reads).
        self.clock = time.time
        #: namespace -> key -> value, read on first access.
        self.records: dict[str, dict[str, str]] | None = None
        #: (namespace, key) of records that failed verification:
        #: already counted, so a read of one is not a miss.
        self._damaged: set[tuple[str, str]] = set()
        #: Segment name -> the bytes of it read so far, whole records
        #: only: where :meth:`refresh` resumes.
        self._offsets: dict[str, int] = {}
        self._lock = threading.RLock()
        #: This writer's segment (an unbuffered append handle) and its
        #: file name, opened by the first append.
        self._handle = None
        self._segment = ""
        #: Entries matching :attr:`earlier_layout`, found by the first
        #: scan.
        self.earlier: list[Path] = []
        #: Whether nothing was appended yet (see :meth:`_tidy`).
        self._first_append = True

    def stats(self) -> dict[str, int]:
        """The shared counters, one flat dict (the shape CLI summaries
        and the daemon's ``/stats`` expose); owners add their own."""
        return {
            "disabled": int(self.disabled),
            "misses": self.misses,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "write_errors": self.write_errors,
            "pruned": self.pruned,
            "torn": self.torn,
        }

    def close(self) -> None:
        """Close this writer's segment, releasing its lock."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def quarantine(self, path: Path) -> bool:
        """:func:`quarantine_aside`, counted in :attr:`quarantined`."""
        if not quarantine_aside(path):
            return False
        self.quarantined += 1
        return True

    def injected_read(self, key: str, targeted: bool = False) -> None:
        """Fire the read site for *key*, then raise :class:`ValueError`
        when a ``corrupt`` spec is due: the read of a value already in
        memory saw corrupt bytes.  Callers count the failure."""
        self.injector.fire(self.read_site, key, targeted)
        probe = key.encode()
        if self.injector.mangle(self.read_site, key, probe, targeted) != probe:
            raise ValueError(f"injected corruption reading {key}")

    def _remove(self, path: Path) -> int:
        try:
            os.unlink(path)
        except OSError:
            return 0
        return 1

    # -- reads -------------------------------------------------------------
    def _load(self) -> dict[str, dict[str, str]]:
        with self._lock:
            if self.records is None:
                self.records = {}
                if not self.disabled:
                    dead = self._scan(first=True)
                    damaged = any(d.corrupt or d.torn for d in dead)
                    self._fold(
                        dead, fold=damaged or len(dead) > FOLD_SEGMENTS
                    )
        return self.records

    def _is_segment(self, name: str) -> bool:
        return name.startswith(f"seg{LOG_SCHEMA}-") and name.endswith(
            self.suffix
        )

    def _own(self) -> str | None:
        """This writer's open segment's name, if any."""
        return self._segment if self._handle is not None else None

    def _absorb(self, records: list[tuple], corrupt: list) -> None:
        """Add one read's intact *records* to :attr:`records` and its
        *corrupt* ones to this reader's counters."""
        self.corrupt += len(corrupt)
        self._damaged.update(corrupt)
        for _stamp, space, key, value, _line in records:
            self.records.setdefault(space, {})[key] = value

    def _scan(self, first: bool) -> list[_Dead]:
        """Read every segment but this writer's own and return those
        whose writer is gone, locked.  The *first* scan reads their
        records into :attr:`records`, adds their damage to this
        reader's counters, notes how far it read each segment and lists
        the :attr:`earlier_layout` entries."""
        own = self._own()
        paths = []
        try:
            for entry in os.scandir(self.directory):
                name = entry.name
                if self._is_segment(name):
                    if name != own:
                        paths.append((entry.stat().st_mtime, entry.path))
                elif first and any(
                    fnmatch.fnmatch(name, pattern)
                    for pattern in self.earlier_layout
                ):
                    self.earlier.append(Path(entry.path))
        except OSError:
            return []
        dead = []
        for _mtime, entry_path in sorted(paths):
            path = Path(entry_path)
            fd = self._claim(path)
            try:
                if fd is None:
                    data = path.read_bytes()
                else:
                    with os.fdopen(os.dup(fd), "rb") as stream:
                        data = stream.read()
            except OSError:  # a peer folded it meanwhile
                data = b""
            if fd is None:
                # Its writer may be alive (or no locks tell here): its
                # last line may still be arriving.
                data = data[: data.rfind(b"\n") + 1]
            if not data:
                # Empty: never folded, so a writer between its create
                # and its lock never loses its segment.
                if fd is not None:
                    os.close(fd)
                continue
            records, corrupt, torn = parse_segment(data)
            if first:
                self._offsets[path.name] = len(data)
                self._absorb(records, corrupt)
                self.torn += torn
            if fd is not None:
                dead.append(_Dead(path, fd, records, corrupt, torn))
        return dead

    def refresh(self) -> None:
        """Read the records other writers appended since this reader
        last read their segments: only the bytes each segment gained,
        and only whole records — a live writer's unfinished last line
        is left for a later refresh, never counted torn.  Folds
        nothing and fires no site; the first call is the first
        read."""
        with self._lock:
            if self.records is None:
                self._load()
                return
            if self.disabled:
                return
            own = self._own()
            try:
                entries = [
                    entry for entry in os.scandir(self.directory)
                    if self._is_segment(entry.name) and entry.name != own
                ]
            except OSError:
                return
            for entry in entries:
                name = entry.name
                start = self._offsets.get(name, 0)
                try:
                    if entry.stat().st_size <= start:
                        continue
                    with open(entry.path, "rb") as stream:
                        stream.seek(start)
                        data = stream.read()
                except OSError:  # a peer folded it meanwhile
                    continue
                data = data[: data.rfind(b"\n") + 1]
                if data:
                    self._offsets[name] = start + len(data)
                    records, corrupt, _torn = parse_segment(data)
                    self._absorb(records, corrupt)

    @staticmethod
    def _claim(path: Path) -> int | None:
        """A read fd holding *path*'s lock when its writer is gone,
        else ``None`` (writer alive, file gone, or no locks here)."""
        if fcntl is None:
            return None
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return None
        return fd

    def _fold(self, dead: list[_Dead], fold: bool, keep=None) -> set | None:
        """Re-append the intact records of *dead* (only those *keep*
        returns, when given) to this writer's segment, then remove the
        segments.  Returns the ``(namespace, key)`` of the records left
        out, or ``None`` when nothing was folded.  Releases their locks
        either way."""
        try:
            if not fold:
                return None
            live: dict[tuple[str, str], tuple] = {}
            for segment in dead:
                for record in segment.records:
                    live.pop(record[1:3], None)
                    live[record[1:3]] = record
            kept = list(live.values()) if keep is None else keep(live)
            if kept:
                self._write(b"".join(record[4] + b"\n" for record in kept))
            for segment in dead:
                if segment.corrupt:
                    self.quarantine(segment.path)
                else:
                    self._remove(segment.path)
            return live.keys() - {record[1:3] for record in kept}
        except OSError:
            self.write_errors += 1
            return None
        finally:
            for segment in dead:
                os.close(segment.fd)

    def read(
        self, space: str, key: str, targeted: bool = False
    ) -> str | None:
        """The value of *key* in *space*, or ``None``: a miss, or a read
        that failed (counted in :attr:`corrupt`, and the value is never
        served again by this reader).  Fires the read site for *key*
        when there is a value (*targeted* as given)."""
        if self.disabled:
            return None
        value = self._load().get(space, {}).get(key)
        if value is None:
            if (space, key) not in self._damaged:
                self.misses += 1
            return None
        if self.injector is not None:
            try:
                self.injected_read(key, targeted)
            except Exception:
                self.corrupt += 1
                self.records[space].pop(key, None)
                return None
        return value

    def read_space(self, space: str) -> dict[str, str]:
        """Every key of *space* (a copy; empty when absent or the read
        failed, counted).  Fires the read site, targeted, for *space*."""
        if self.disabled:
            return {}
        values = self._load().get(space)
        if values is None:
            return {}
        if self.injector is not None:
            try:
                self.injected_read(space, targeted=True)
            except Exception:
                self.corrupt += 1
                self.records.pop(space, None)
                return {}
        return dict(values)

    # -- writes ------------------------------------------------------------
    def append(
        self,
        space: str,
        values: dict[str, str],
        fault_key: str,
        targeted: bool = False,
    ) -> bool:
        """Append one record per item of *values* to this writer's
        segment, in one write; returns whether it was written.  Fires
        the write site once, for *fault_key*; a failure is counted in
        :attr:`write_errors`, never raised."""
        if self.disabled or not values:
            return False
        records = self._load()
        stamp = int(self.clock())
        data = b"".join(
            encode_record(space, key, value, stamp)
            for key, value in values.items()
        )
        try:
            if self.injector is not None:
                self.injector.fire(self.write_site, fault_key, targeted)
                # The frame survives, the records do not.
                data = self.injector.mangle(
                    self.write_site, fault_key, data[:-1], targeted
                ) + b"\n"
            self._write(data)
        except Exception:
            self.write_errors += 1
            return False
        with self._lock:
            records.setdefault(space, {}).update(values)
            if self._first_append:
                self._first_append = False
                self._tidy()
        return True

    def current(self, space: str, key: str) -> bool:
        """Whether this code still reads the record of *key* in
        *space*; an owner whose log may hold records of other code says
        which do not count."""
        return True

    def _tidy(self) -> None:
        """After the first append: remove the :attr:`earlier_layout`
        entries (never evidence, never a segment), and compact the
        records :meth:`current` rejects away."""
        earlier, self.earlier = self.earlier, []
        for path in earlier:
            if not path.is_dir():
                self._remove(path)
                continue
            for entry in path.glob("*"):
                if not entry.name.endswith(".corrupt"):
                    self._remove(entry)
            try:
                path.rmdir()
            except OSError:  # holds evidence
                pass
        if any(
            not self.current(space, key)
            for space, values in self.records.items()
            for key in values
        ):
            self.compact(
                lambda live: [
                    record for record in live.values()
                    if self.current(record[1], record[2])
                ]
            )

    def _write(self, data: bytes) -> None:
        """One append to this writer's segment, created and locked on
        first use; a short write abandons the segment and raises."""
        with self._lock:
            if self._handle is None:
                name = (
                    f"seg{LOG_SCHEMA}-{os.getpid()}-"
                    f"{os.urandom(4).hex()}{self.suffix}"
                )
                fd = os.open(
                    self.directory / name,
                    os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND,
                    0o644,
                )
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                self._handle = open(fd, "ab", buffering=0)
                self._segment = name
            if self._handle.write(data) != len(data):
                RecordLog.close(self)
                raise OSError("short write to a log segment")
            if self.fsync:
                os.fsync(self._handle.fileno())

    # -- maintenance -------------------------------------------------------
    def compact(self, keep) -> int | None:
        """Fold this writer's segment and every segment whose writer is
        gone into a fresh one holding only the records ``keep(live)``
        returns, where *live* maps each ``(namespace, key)`` to its
        newest ``(stamp, space, key, value, line)``.  Live peers'
        segments are left alone.  Returns how many records were
        dropped, or ``None`` when the fold failed (counted in
        :attr:`write_errors`)."""
        with self._lock:
            first = self.records is None
            if first:
                self.records = {}
            # This writer's segment only: an owner's close() may do more.
            RecordLog.close(self)
            dropped = self._fold(self._scan(first), True, keep)
            for space, key in dropped or ():
                self.records.get(space, {}).pop(key, None)
        return None if dropped is None else len(dropped)

    def prune(
        self,
        max_entries: int | None = None,
        max_age: float | None = None,
        now: float | None = None,
    ) -> int:
        """:meth:`compact`, keeping of :attr:`bounded` only the records
        younger than *max_age* seconds and, of those, the newest
        *max_entries*.  Quarantined evidence past *max_age* is removed
        too.  Returns the records dropped plus evidence files removed."""
        if self.disabled or (max_entries is None and max_age is None):
            return 0
        if now is None:
            now = time.time()

        def keep(live):
            bounded = [r for r in live.values() if r[1] == self.bounded]
            young = [
                r for r in bounded if max_age is None or now - r[0] <= max_age
            ]
            if max_entries is not None:
                # A stable sort: equal stamps stay in write order.
                young.sort(key=lambda r: r[0])
                young = young[max(0, len(young) - max_entries):]
            survivors = {r[2] for r in young}
            return [
                r for r in live.values()
                if r[1] != self.bounded or r[2] in survivors
            ]

        removed = self.compact(keep) or 0
        if max_age is not None:
            for path in self.directory.glob("*.corrupt"):
                try:
                    stale = now - path.stat().st_mtime > max_age
                except OSError:
                    continue
                if stale:
                    removed += self._remove(path)
        self.pruned += removed
        return removed
