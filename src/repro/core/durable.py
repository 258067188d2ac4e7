"""Checksummed durable files, defined once.

The result cache, the artifact store, the fleet work-list and the job
journal all keep regression state on disk under the same rules, and
this module is the only place they are written:

- :func:`seal`/:func:`unseal` — the ``{"schema", "checksum",
  "payload"}`` JSON envelope with a SHA-256 over the payload text
  (:func:`unseal_text` returns that verified text itself);
- :func:`atomic_write` — a unique temp file renamed (or, exclusive,
  hard-linked) into place, so no reader ever sees a torn file;
- :func:`quarantine_aside` — a file that fails verification is renamed
  to a unique ``*.corrupt`` name: kept as evidence, never re-read;
- :class:`DurableFiles` — the owners' base: contained, counted reads
  and writes, and one max-entries/max-age :meth:`~DurableFiles.prune`;
- :func:`source_digest` — which code produced a value, in its key, so
  another code's value is a miss, never stale or corrupt data.

It lives in :mod:`repro.core` because the scheduler's result cache
uses it, and importing :mod:`repro.store` would load pickle, marshal
and the decode cache.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import os
import sys
import tempfile
import time
from pathlib import Path


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
    return content_key(source_digest(_MODEL_SOURCES), *bytecode_tag())


def seal(schema: int, text: str) -> bytes:
    """The checksummed envelope around payload *text*."""
    body = {
        "schema": schema,
        "checksum": checksum(text.encode()),
        "payload": text,
    }
    return json.dumps(body).encode()


def unseal_text(raw: bytes, schema: int) -> str:
    """The payload text of the envelope *raw*, checksum verified;
    raises :class:`ValueError` unless *raw* is an intact envelope of
    *schema*."""
    try:
        body = json.loads(raw)
        if body["schema"] != schema:
            raise ValueError(f"envelope schema is not {schema}")
        text = body["payload"]
        if checksum(text.encode()) != body["checksum"]:
            raise ValueError("envelope checksum mismatch")
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed envelope: {exc!r}") from None
    return text


def unseal(raw: bytes, schema: int):
    """The JSON-decoded payload of the envelope *raw* (see
    :func:`unseal_text`)."""
    return json.loads(unseal_text(raw, schema))


def atomic_write(
    path: Path, data: bytes, fsync: bool = False, exclusive: bool = False
) -> bool:
    """Make *data* the content of *path* in one step.

    The temp file's name is unique, because several processes may share
    the directory.  *fsync* makes the data durable before the rename.
    *exclusive* links instead of renaming, so the first writer wins:
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
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
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


class DurableFiles:
    """A directory of checksummed files owned by one object.

    Subclasses name their chaos sites (:attr:`read_site`,
    :attr:`write_site`) and entry :attr:`suffix`, and supply their own
    decode step to :meth:`read_file`.  Construction never raises: a
    root that cannot be created sets :attr:`disabled`, and the owner
    makes every operation a no-op — the run degrades, it does not fail.
    """

    read_site = ""
    write_site = ""
    suffix = ".json"

    def __init__(self, directory: str | Path, injector=None, subdirs=("",)):
        self.directory = Path(directory)
        #: Optional :class:`repro.core.faults.FaultInjector`.
        self.injector = injector
        self.disabled = False
        self.misses = 0
        #: Reads that failed: unreadable, injected, or rejected by the
        #: decode step.  Corrupt is never a miss.
        self.corrupt = 0
        #: Distinct corrupt files successfully renamed aside.
        self.quarantined = 0
        self.write_errors = 0
        #: Files removed by :meth:`prune` over this owner's lifetime.
        self.pruned = 0
        try:
            for subdir in subdirs:
                (self.directory / subdir).mkdir(parents=True, exist_ok=True)
        except OSError:
            self.disabled = True

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
        }

    def quarantine(self, path: Path) -> bool:
        """:func:`quarantine_aside`, counted in :attr:`quarantined`."""
        if not quarantine_aside(path):
            return False
        self.quarantined += 1
        return True

    def read_file(self, path: Path, key: str, decode, targeted: bool = False):
        """``decode(raw)`` of the file at *path*, or ``None``.

        Callers check that *path* exists first, so the read site fires
        only for files that do.  A file a peer removed since then is a
        miss; any other failure is counted corruption and quarantined.
        """
        try:
            if self.injector is not None:
                self.injector.fire(self.read_site, key, targeted)
            raw = path.read_bytes()
            if self.injector is not None:
                raw = self.injector.mangle(self.read_site, key, raw, targeted)
            return decode(raw)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            self.corrupt += 1
            self.quarantine(path)
            return None

    def write_file(
        self,
        path: Path,
        key: str,
        data: bytes,
        targeted: bool = False,
        exclusive: bool = False,
        fsync: bool = False,
    ) -> bool | None:
        """:func:`atomic_write` after firing the write site; ``None``
        on a failure, which is contained and counted."""
        try:
            if self.injector is not None:
                self.injector.fire(self.write_site, key, targeted)
                data = self.injector.mangle(
                    self.write_site, key, data, targeted
                )
            return atomic_write(path, data, fsync=fsync, exclusive=exclusive)
        except Exception:
            self.write_errors += 1
            return None

    def prune(
        self,
        max_entries: int | None = None,
        max_age: float | None = None,
        now: float | None = None,
    ) -> int:
        """Bound the directory; returns how many files were removed.

        *max_age* (seconds) removes entries and quarantined evidence
        past the horizon; *max_entries* then removes the oldest entries
        beyond the count (evidence is never entry-bounded).  A file that
        vanishes meanwhile is skipped; subdirectories are left alone.
        """
        removed = 0
        if self.disabled or (max_entries is None and max_age is None):
            return removed
        if now is None:
            now = time.time()
        entries: list[tuple[float, Path]] = []
        for path in list(self.directory.glob(f"*{self.suffix}")) + list(
            self.directory.glob("*.corrupt")
        ):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            if max_age is not None and now - mtime > max_age:
                removed += self._remove(path)
            elif path.suffix == self.suffix:
                entries.append((mtime, path))
        if max_entries is not None and len(entries) > max_entries:
            entries.sort()
            for _mtime, path in entries[: len(entries) - max_entries]:
                removed += self._remove(path)
        self.pruned += removed
        return removed

    def _remove(self, path: Path) -> int:
        try:
            os.unlink(path)
        except OSError:
            return 0
        return 1
