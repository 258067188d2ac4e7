"""Content-addressed on-disk store of compiled execution artifacts.

The expensive half of a cold start is deterministic: predecode and
superblock formation are pure functions of the image bytes, the cached
region bounds and the fetch wait-state profile — exactly the tuple the
decode-cache registry is keyed on.  This module persists that derived state so the *next*
process skips the derivation:

- **content-addressed** — one file per registry key, named by the
  SHA-256 of the key tuple, so distinct images/regions/wait profiles
  never collide and a shared store directory needs no index;
- **checksummed header** — a JSON header line carrying the schema,
  the registry key and a SHA-256 over the pickled payload, verified on
  *every* read.  Corrupt ≠ miss: a failed verification is counted in
  :attr:`ArtifactStore.corrupt`, the file is renamed aside to a unique
  ``*.corrupt`` name (forensic evidence, off the hot path) and the
  caller re-derives from source — a corrupt artifact is never trusted;
- **atomic, contained, bounded** — the rules of
  :mod:`repro.core.durable`: fleet workers sharing a store never see a
  torn snapshot, a broken store degrades the run to cold starts and
  never fails it, and :meth:`ArtifactStore.prune` bounds the directory.

What a snapshot contains
------------------------

:func:`snapshot_decode_cache` pickles the cache's segments, decoded
entries, non-cacheable ``skip`` set and formed superblocks (the pickle
memo preserves entry/block identity, so restored successor pointers
still alias restored blocks; an entry's executor pickles by name).
:func:`restore_decode_cache` rebuilds a live cache from it with no
decode and no block formation.  A snapshot's name also hashes
:func:`~repro.core.durable.model_digest` (engine sources, this format,
the interpreter's bytecode tag), so one written by other code or
another interpreter is never opened: a miss, re-derived and re-saved.
"""

from __future__ import annotations

import json
import marshal
import pickle
import threading
import types
from pathlib import Path

from repro.assembler.objectfile import ObjectFile
from repro.core.durable import (
    DurableFiles,
    bytecode_tag,
    checksum,
    content_key,
    model_digest,
)
from repro.core.faults import SITE_STORE_READ, SITE_STORE_WRITE
from repro.isa.decodecache import DecodeCache

#: Bump when the snapshot payload or envelope changes incompatibly.
STORE_SCHEMA = 1

_KIND_DECODE = "decode"
_KIND_CODE = "code"
_KIND_OBJECTS = "objects"


# --------------------------------------------------------------------------
# DecodeCache snapshot / restore
# --------------------------------------------------------------------------

def snapshot_decode_cache(cache: DecodeCache) -> bytes:
    """Pickle one cache's derived state (see module docstring).

    The entry/skip structures are copied under the cache's miss lock so
    a concurrent lazy decode cannot mutate a dict mid-pickle; blocks
    are copied outside it (formation is deliberately lock-free and a
    shallow dict copy is atomic under the GIL)."""
    with cache._miss_lock:
        entries = dict(cache._entries)
        skip = set(cache._skip)
    snapshot = {
        "segments": list(cache._segments),
        "entries": entries,
        "skip": skip,
        "blocks": dict(cache._blocks),
    }
    return pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)


def restore_decode_cache(payload: bytes) -> DecodeCache:
    """Rebuild a live :class:`DecodeCache` from a snapshot payload."""
    snapshot = pickle.loads(payload)
    cache = DecodeCache.__new__(DecodeCache)
    cache._segments = snapshot["segments"]
    cache._entries = snapshot["entries"]
    cache._blocks = snapshot["blocks"]
    cache._skip = snapshot["skip"]
    cache._miss_lock = threading.Lock()
    cache.hits = 0
    cache.misses = 0
    return cache


def _cache_stamp(cache: DecodeCache) -> tuple[int, int]:
    """Cheap content stamp deciding whether a re-save would change the
    snapshot.  Entries and blocks only ever grow for an immutable image,
    so size deltas are sufficient."""
    return (len(cache._entries), len(cache._blocks))


# --------------------------------------------------------------------------
# the store
# --------------------------------------------------------------------------

def code_key(source: str) -> tuple[str, str, str]:
    """The key of the code object compiled from *source*: the source's
    SHA-256 and :func:`bytecode_tag`, so another interpreter's artifact
    is a miss, never corruption."""
    return (checksum(source.encode()), *bytecode_tag())


class ArtifactStore(DurableFiles):
    """Content-addressed, checksummed, prunable artifact directory.

    Three kinds of artifact share its rules: decode-cache snapshots
    (``decode-*``, named by registry key and model digest, counted in
    ``hits``/``saved``/``unchanged``), compiled code objects
    (``code-*``, counted in ``code_hits``/``code_saved``) — the opcode
    executor table, whose ``compile()`` every executing process would
    otherwise repeat — and assembled objects of the layers below the
    test cell (``objects-*``, counted in ``obj_hits``/``obj_saved``),
    keyed by their build inputs' content so an edit re-run assembles
    only the edited cell."""

    read_site = SITE_STORE_READ
    write_site = SITE_STORE_WRITE
    suffix = ".art"

    def __init__(self, directory: str | Path, injector=None):
        super().__init__(directory, injector)
        self.hits = 0
        self.saved = 0
        #: Saves skipped because the stamp says the snapshot on disk is
        #: already current.
        self.unchanged = 0
        self.code_hits = 0
        self.code_saved = 0
        #: registry key -> its file stem (a SHA-256, computed once per
        #: key: a warm daemon checks every key after every pack).
        self._stems: dict[tuple, str] = {}
        #: file stem -> stamp of the snapshot known to be on disk.
        self._stamps: dict[str, tuple] = {}
        self.obj_hits = 0
        self.obj_saved = 0
        #: content key -> an object's plain form (:meth:`ObjectFile.
        #: to_plain`) from every object artifact, read on the first
        #: :meth:`load_object`; a daemon's job threads share it.
        self._objects: dict[str, tuple] | None = None
        #: content key -> object assembled since the last
        #: :meth:`save_objects` (encoded only when saved).
        self._staged: dict[str, ObjectFile] = {}
        self._objects_lock = threading.Lock()

    # -- naming ------------------------------------------------------------
    @staticmethod
    def _stem(kind: str, key: tuple) -> str:
        return f"{kind}-{content_key(*key)}"

    def _decode_stem(self, key: tuple) -> str:
        stem = self._stems.get(key)
        if stem is None:
            stem = self._stems[key] = self._stem(
                _KIND_DECODE, (model_digest(), *key)
            )
        return stem

    def _path(self, stem: str) -> Path:
        return self.directory / f"{stem}{self.suffix}"

    def _write(self, kind: str, key: tuple, stem: str, payload: bytes):
        """Write one artifact: the checksummed JSON header line, then
        *payload*.  :meth:`write_file`'s result."""
        header = json.dumps(
            {
                "schema": STORE_SCHEMA,
                "kind": kind,
                "key": list(key),
                "checksum": checksum(payload),
            },
            sort_keys=True,
        ).encode()
        return self.write_file(
            self._path(stem), stem, header + b"\n" + payload
        )

    # -- decode-cache artifacts --------------------------------------------
    def save_decode_cache(self, key: tuple, cache: DecodeCache) -> bool:
        """Persist one registry entry; returns whether a file was
        written.  Empty caches (nothing derived yet) and caches whose
        on-disk snapshot is already current are skipped."""
        if self.disabled:
            return False
        if not cache._entries and not cache._blocks:
            return False
        stem = self._decode_stem(key)
        stamp = _cache_stamp(cache)
        if self._stamps.get(stem) == stamp:
            self.unchanged += 1
            return False
        try:
            payload = snapshot_decode_cache(cache)
        except Exception:
            self.write_errors += 1
            return False
        if not self._write(_KIND_DECODE, key, stem, payload):
            return False
        self._stamps[stem] = stamp
        self.saved += 1
        return True

    def load_decode_cache(self, key: tuple) -> DecodeCache | None:
        """The restored cache for *key*, or ``None`` (miss or counted
        corruption).  Never raises."""
        if self.disabled:
            return None
        stem = self._decode_stem(key)
        path = self._path(stem)
        if not path.exists():
            self.misses += 1
            return None
        loaded = self.read_file(
            path,
            stem,
            lambda raw: restore_decode_cache(
                _verified_payload(raw, _KIND_DECODE, tuple(key))[1]
            ),
        )
        if loaded is None:
            return None
        self.hits += 1
        self._stamps[stem] = _cache_stamp(loaded)
        return loaded

    # -- compiled-code artifacts -------------------------------------------
    def load_code(self, source: str) -> types.CodeType | None:
        """This interpreter's code object compiled from *source*, or
        ``None`` (miss or counted corruption).  Never raises."""
        if self.disabled:
            return None
        key = code_key(source)
        stem = self._stem(_KIND_CODE, key)
        path = self._path(stem)
        if not path.exists():
            return None
        code = self.read_file(path, stem, lambda raw: _code_artifact(raw, key))
        if code is not None:
            self.code_hits += 1
        return code

    def save_code(self, source: str, code: types.CodeType) -> bool:
        """Persist *code*, compiled from *source*; returns whether a
        file was written."""
        if self.disabled:
            return False
        key = code_key(source)
        stem = self._stem(_KIND_CODE, key)
        if not self._write(_KIND_CODE, key, stem, marshal.dumps(code)):
            return False
        self.code_saved += 1
        return True

    # -- assembled-object artifacts ----------------------------------------
    def load_object(self, key: str) -> ObjectFile | None:
        """The assembled object stored under content key *key*, or
        ``None``.  The first call reads every object artifact in the
        store, once per process; an object is decoded only when it is
        looked up.  Never raises."""
        if self.disabled:
            return None
        with self._objects_lock:
            if self._objects is None:
                self._objects = {}
                for path in sorted(
                    self.directory.glob(f"{_KIND_OBJECTS}-*.art")
                ):
                    stem = path.name.removesuffix(self.suffix)
                    table = self.read_file(
                        path, stem, lambda raw: _objects_artifact(raw, stem)
                    )
                    if table is not None:
                        self._objects.update(table)
            plain = self._objects.get(key)
        if plain is None:
            return None
        try:
            obj = ObjectFile.from_plain(plain)
        except (TypeError, ValueError):
            # A verified artifact whose entry does not decode: counted,
            # dropped, and the unit is assembled again.
            with self._objects_lock:
                self.corrupt += 1
                self._objects.pop(key, None)
            return None
        with self._objects_lock:
            self.obj_hits += 1
        return obj

    def stage_object(self, key: str, obj: ObjectFile) -> None:
        """Queue *obj*, assembled under content key *key*, for the next
        :meth:`save_objects`."""
        if self.disabled:
            return
        with self._objects_lock:
            if key not in (self._objects or ()):
                self._staged[key] = obj

    def save_objects(self) -> bool:
        """Write every staged object as one artifact; returns whether a
        file was written.  Called once at the end of a run: each file
        costs a create and a rename, so a run writes one file however
        many units it assembled."""
        with self._objects_lock:
            staged, self._staged = self._staged, {}
        if self.disabled or not staged:
            return False
        keys = tuple(sorted(staged))
        table = {key: staged[key].to_plain() for key in keys}
        with self._objects_lock:
            if self._objects is not None:
                self._objects.update(table)
        payload = marshal.dumps(table)
        if not self._write(
            _KIND_OBJECTS, keys, self._stem(_KIND_OBJECTS, keys), payload
        ):
            return False
        with self._objects_lock:
            self.obj_saved += 1
        return True

    # -- maintenance -------------------------------------------------------
    def _remove(self, path: Path) -> int:
        self._stamps.pop(path.name.removesuffix(self.suffix), None)
        return super()._remove(path)

    def stats(self) -> dict[str, int]:
        return {
            **super().stats(),
            "hits": self.hits,
            "saved": self.saved,
            "unchanged": self.unchanged,
            "code_hits": self.code_hits,
            "code_saved": self.code_saved,
            "obj_hits": self.obj_hits,
            "obj_saved": self.obj_saved,
        }


def _verified_payload(raw: bytes, kind: str, key: tuple | None) -> tuple:
    """``(header key, payload)`` of one artifact file of *kind*.  Raises
    on any mismatch, including a header key that disagrees with *key*:
    a content-addressed name that disagrees with its own header is
    corruption by definition."""
    header_line, payload = raw.split(b"\n", 1)
    header = json.loads(header_line)
    if header["schema"] != STORE_SCHEMA:
        raise ValueError("artifact schema mismatch")
    if header["kind"] != kind:
        raise ValueError("artifact kind mismatch")
    if checksum(payload) != header["checksum"]:
        raise ValueError("artifact checksum mismatch")
    stored = tuple(header.get("key", ()))
    if key not in (None, stored):
        raise ValueError("artifact key mismatch")
    return stored, payload


def _objects_artifact(raw: bytes, stem: str) -> dict[str, tuple]:
    """Verify one object artifact filed under *stem*; returns its
    objects' plain forms by content key.  Its header keys must name it
    and match its payload's."""
    stored, payload = _verified_payload(raw, _KIND_OBJECTS, None)
    table = marshal.loads(payload)
    if (
        ArtifactStore._stem(_KIND_OBJECTS, stored) != stem
        or not isinstance(table, dict)
        or tuple(sorted(table)) != stored
    ):
        raise ValueError("artifact key mismatch")
    return table


def _code_artifact(raw: bytes, key: tuple) -> types.CodeType:
    """Verify one code artifact; returns its code object."""
    code = marshal.loads(_verified_payload(raw, _KIND_CODE, key)[1])
    if not isinstance(code, types.CodeType):
        raise ValueError("artifact is not a code object")
    return code
