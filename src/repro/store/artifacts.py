"""Content-addressed on-disk store of compiled execution artifacts.

The expensive half of a cold start is deterministic: predecode and
superblock formation are pure functions of the image bytes, the cached
region bounds and the fetch wait-state profile — exactly the tuple the
decode-cache registry is keyed on.  This module persists that derived
state so the *next* process skips the derivation:

- **one pack per persist** — :func:`~repro.isa.decodecache.
  persist_registry` writes every changed cache into one
  ``decodes-*.art`` pack: a JSON header line carrying the schema, the
  registry keys, their content stamps, the
  :func:`~repro.core.durable.model_digest` and one SHA-256 over the
  payload, then one pickle of every snapshot (its memo stores an
  instruction the caches share once);
- **verified on every read** — corrupt ≠ miss: a pack failing
  verification is counted in :attr:`ArtifactStore.corrupt`, renamed
  aside to a unique ``*.corrupt`` name (forensic evidence) and its
  caches are re-derived from source — a corrupt artifact is never
  trusted;
- **another code's snapshots are misses** — a pack whose header names
  another model digest is never unpickled; when packs fold (more than
  :data:`FOLD_PACKS` of them) it is deleted with them, as are the
  per-key ``decode-*``/``decode2-*`` files of earlier layouts;
- **atomic, contained** — the rules of :mod:`repro.core.durable`:
  fleet workers sharing a store never see a torn file, and a broken
  store degrades the run to cold starts and never fails it.

The opcode executor table (``code-*``) and the assembled objects below
the test cells (``objects-*``, one file per run) share those rules.

What a snapshot contains
------------------------

:func:`snapshot_decode_cache` pickles the cache's segments, decoded
entries, non-cacheable ``skip`` set and formed superblocks (the pickle
memo preserves entry/block identity, so restored successor pointers
still alias restored blocks; an entry's executor pickles by name).
:func:`restore_decode_cache` rebuilds a live cache from it with no
decode and no block formation.
"""

from __future__ import annotations

import json
import marshal
import os
import pickle
import threading
import types
from pathlib import Path

from repro.assembler.objectfile import ObjectFile
from repro.core.durable import (
    DurableFiles,
    atomic_write,
    bytecode_tag,
    checksum,
    content_key,
    model_digest,
)
from repro.core.faults import SITE_STORE_READ, SITE_STORE_WRITE
from repro.isa.decodecache import DecodeCache

#: Bump when the snapshot payload or envelope changes incompatibly.
STORE_SCHEMA = 1

_KIND_DECODE = "decodes"
_KIND_CODE = "code"
_KIND_OBJECTS = "objects"

#: File prefixes of the per-key decode snapshots earlier layouts wrote.
_OLD_DECODE_KINDS = ("decode", "decode2")

#: Packs of this code a persist folds into one once there are more.
FOLD_PACKS = 8


# --------------------------------------------------------------------------
# DecodeCache snapshot / restore
# --------------------------------------------------------------------------

def _snapshot(cache: DecodeCache) -> dict:
    """One cache's derived state (see module docstring).

    The entry/skip structures are copied under the cache's miss lock so
    a concurrent lazy decode cannot mutate a dict mid-pickle; blocks
    are copied outside it (formation is deliberately lock-free and a
    shallow dict copy is atomic under the GIL)."""
    with cache._miss_lock:
        entries = dict(cache._entries)
        skip = set(cache._skip)
    return {
        "segments": list(cache._segments),
        "entries": entries,
        "skip": skip,
        "blocks": dict(cache._blocks),
    }


def _restore(snapshot: dict) -> DecodeCache:
    cache = DecodeCache.__new__(DecodeCache)
    cache._segments = snapshot["segments"]
    cache._entries = snapshot["entries"]
    cache._blocks = snapshot["blocks"]
    cache._skip = snapshot["skip"]
    cache._miss_lock = threading.Lock()
    cache.hits = 0
    cache.misses = 0
    return cache


def snapshot_decode_cache(cache: DecodeCache) -> bytes:
    """Pickle one cache's derived state."""
    return pickle.dumps(_snapshot(cache), protocol=pickle.HIGHEST_PROTOCOL)


def restore_decode_cache(payload: bytes) -> DecodeCache:
    """Rebuild a live :class:`DecodeCache` from a snapshot payload."""
    return _restore(pickle.loads(payload))


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
    (``decodes-*`` packs, counted in ``hits``/``saved``/``unchanged``),
    compiled code objects (``code-*``, counted in ``code_hits``/
    ``code_saved``) — the opcode executor table, whose ``compile()``
    every executing process would otherwise repeat — and assembled
    objects of the layers below the test cell (``objects-*``, counted
    in ``obj_hits``/``obj_saved``), keyed by their build inputs' content
    so an edit re-run assembles only the edited cell."""

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
        #: registry key -> its snapshot's name in fault plans (a
        #: SHA-256, computed once per key).
        self._stems: dict[tuple, str] = {}
        #: registry key -> stamp of the snapshot known to be on disk
        #: (set by this process's loads and saves).
        self._stamps: dict[tuple, tuple] = {}
        #: registry key -> the newest pack of this code holding it, and
        #: the packs of other code and earlier layouts; read from the
        #: pack headers on first use.
        self._packs: dict[tuple, Path] | None = None
        self._foreign: list[Path] = []
        #: registry key -> a cache unpickled with a pack but not yet
        #: asked for.
        self._restored: dict[tuple, DecodeCache] = {}
        #: registry key -> changed cache for the next pack.
        self._changed: dict[tuple, DecodeCache] = {}
        self._decode_lock = threading.RLock()
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
        """The name a registry key's snapshot fires fault sites under."""
        stem = self._stems.get(key)
        if stem is None:
            stem = self._stems[key] = self._stem(
                "decode", (model_digest(), *key)
            )
        return stem

    def _path(self, stem: str) -> Path:
        return self.directory / f"{stem}{self.suffix}"

    @staticmethod
    def _header(kind: str, payload: bytes, **fields) -> bytes:
        return json.dumps(
            {
                "schema": STORE_SCHEMA,
                "kind": kind,
                "checksum": checksum(payload),
                **fields,
            },
            sort_keys=True,
        ).encode()

    def _write(self, kind: str, key: tuple, stem: str, payload: bytes):
        """Write one artifact: the checksummed JSON header line, then
        *payload*.  :meth:`write_file`'s result."""
        return self.write_file(
            self._path(stem), stem,
            self._header(kind, payload, key=list(key)) + b"\n" + payload,
        )

    # -- decode-cache packs ------------------------------------------------
    def save_decode_cache(self, key: tuple, cache: DecodeCache) -> bool:
        """Queue one registry entry for the next :meth:`save_decode_pack`;
        returns whether it was queued.  Empty caches (nothing derived
        yet) and caches whose snapshot on disk is current are
        skipped."""
        if self.disabled:
            return False
        if not cache._entries and not cache._blocks:
            return False
        if self._stamps.get(key) == _cache_stamp(cache):
            self.unchanged += 1
            return False
        with self._decode_lock:
            # Counted as saved now, where a per-call ledger sees it;
            # the pack takes back the ones it leaves out.
            self.saved += key not in self._changed
            self._changed[key] = cache
        return True

    def save_decode_pack(self) -> int:
        """Write every queued cache into one pack; returns how many
        snapshots it holds (0 when none was written).  Fires the write
        site once per cache, by its name: a raise leaves that cache
        out, a corruption rots the pack."""
        with self._decode_lock:
            changed, self._changed = self._changed, {}
        if self.disabled or not changed:
            return 0
        written = self._write_pack(changed)
        self.saved -= len(changed) - written
        return written

    def _write_pack(self, changed: dict[tuple, DecodeCache]) -> int:
        items = []
        for key, cache in changed.items():
            try:
                if self.injector is not None:
                    self.injector.fire(self.write_site, self._decode_stem(key))
                items.append((key, _cache_stamp(cache), _snapshot(cache)))
            except Exception:
                self.write_errors += 1
        try:
            payload = _pickled(item[2] for item in items)
        except Exception:
            # Leave out the snapshots that do not pickle (counted); the
            # others still persist.
            items = [item for item in items if self._pickles(item[2])]
            payload = _pickled(item[2] for item in items)
        if not items:
            return 0
        keys = [item[0] for item in items]
        stamps = [item[1] for item in items]
        path, header = self._pack(keys, stamps, payload)
        if self.injector is not None:
            for key in keys:
                payload = self.injector.mangle(
                    self.write_site, self._decode_stem(key), payload
                )
        if not self._write_whole(path, header + payload):
            return 0
        with self._decode_lock:
            packs = self._pack_index()
            for key, stamp in zip(keys, stamps):
                self._stamps[key] = stamp
                packs[key] = path
                self._restored.pop(key, None)
            if self._foreign or len(set(packs.values())) > FOLD_PACKS:
                self._fold_packs()
        return len(keys)

    def _pickles(self, state: dict) -> bool:
        try:
            pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.write_errors += 1
            return False
        return True

    def _pack(self, keys, stamps, payload: bytes) -> tuple[Path, bytes]:
        """A pack's path, named by its header, and its header line."""
        header = self._header(
            _KIND_DECODE, payload,
            keys=[list(key) for key in keys],
            stamps=[list(stamp) for stamp in stamps],
            model=model_digest(),
        )
        return self._path(f"{_KIND_DECODE}-{checksum(header)}"), header + b"\n"

    def _write_whole(self, path: Path, data: bytes) -> bool:
        try:
            atomic_write(path, data)
        except OSError:
            self.write_errors += 1
            return False
        return True

    def _pack_index(self) -> dict[tuple, Path]:
        """Registry key -> newest pack of this code holding it, from
        every pack's header line (read once; a header that does not
        parse is a corrupt pack)."""
        with self._decode_lock:
            if self._packs is None:
                self._packs = {}
                try:
                    paths = sorted(
                        (entry.stat().st_mtime, entry.name)
                        for entry in os.scandir(self.directory)
                        if entry.name.endswith(self.suffix)
                    )
                except OSError:
                    paths = []
                model = model_digest()
                for _mtime, name in paths:
                    kind = name.split("-", 1)[0]
                    path = self.directory / name
                    if kind in _OLD_DECODE_KINDS:
                        self._foreign.append(path)
                    elif kind == _KIND_DECODE:
                        header = self._pack_header(path)
                        if header is None:
                            continue
                        if header["model"] != model:
                            self._foreign.append(path)
                            continue
                        for key in header["keys"]:
                            self._packs[tuple(key)] = path
            return self._packs

    def _pack_header(self, path: Path) -> dict | None:
        try:
            with open(path, "rb") as stream:
                line = stream.readline()
        except OSError:
            return None
        try:
            header = json.loads(line)
            if (
                header["schema"] != STORE_SCHEMA
                or header["kind"] != _KIND_DECODE
                or not isinstance(header["model"], str)
                or not isinstance(header["keys"], list)
            ):
                raise ValueError("not a decode pack header")
            return header
        except Exception:
            self.corrupt += 1
            self.quarantine(path)
            return None

    def _unpack(self, path: Path) -> dict[tuple, DecodeCache]:
        """Every cache of the pack at *path*, verified; raises on any
        mismatch (``FileNotFoundError`` when a peer removed it)."""
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        if (
            header["schema"] != STORE_SCHEMA
            or header["kind"] != _KIND_DECODE
            or header["model"] != model_digest()
            or checksum(payload) != header["checksum"]
        ):
            raise ValueError("decode pack failed verification")
        states = pickle.loads(payload)
        if len(states) != len(header["keys"]):
            raise ValueError("decode pack key count mismatch")
        return {
            tuple(key): _restore(state)
            for key, state in zip(header["keys"], states)
        }

    def _forget(self, path: Path) -> None:
        """Drop what this process knows of the pack at *path*."""
        with self._decode_lock:
            for key, holder in list((self._packs or {}).items()):
                if holder == path:
                    del self._packs[key]
                    self._stamps.pop(key, None)
                    self._restored.pop(key, None)

    def load_decode_cache(self, key: tuple) -> DecodeCache | None:
        """The restored cache for *key*, or ``None`` (miss or counted
        corruption).  The first call reads every pack's header; a pack
        is unpickled whole when the first of its keys is asked for.
        Fires the read site once per key found.  Never raises."""
        if self.disabled:
            return None
        with self._decode_lock:
            path = self._pack_index().get(key)
            if path is None:
                self.misses += 1
                return None
            try:
                if self.injector is not None:
                    self.injected_read(self._decode_stem(key))
                cache = self._restored.pop(key, None)
                if cache is None:
                    caches = self._unpack(path)
                    cache = caches.pop(key)
                    for other, restored in caches.items():
                        if self._packs.get(other) == path:
                            self._restored[other] = restored
            except FileNotFoundError:
                self.misses += 1
                self._forget(path)
                return None
            except Exception:
                self.corrupt += 1
                self.quarantine(path)
                self._forget(path)
                return None
            self.hits += 1
            self._stamps[key] = _cache_stamp(cache)
            return cache

    def _fold_packs(self) -> None:
        """Delete the packs of other code and the per-key snapshots of
        earlier layouts; with more than :data:`FOLD_PACKS` packs of this
        code, merge them into one (newest snapshot of each key).  A pack
        failing verification is quarantined, never deleted."""
        for path in self._foreign:
            self._remove(path)
        self._foreign = []
        packs = sorted(
            set(self._packs.values()), key=lambda path: _mtime(path)
        )
        if len(packs) <= FOLD_PACKS:
            return
        merged: dict[tuple, DecodeCache] = {}
        for path in packs:
            try:
                merged.update(self._unpack(path))
            except FileNotFoundError:
                self._forget(path)
            except Exception:
                self.corrupt += 1
                self.quarantine(path)
                self._forget(path)
        if not merged:
            return
        keys = list(merged)
        payload = _pickled(_snapshot(merged[key]) for key in keys)
        folded, header = self._pack(
            keys, [_cache_stamp(merged[key]) for key in keys], payload
        )
        if not self._write_whole(folded, header + payload):
            return
        for path in packs:
            if path != folded:
                self._remove(path)
        for key in keys:
            self._packs[key] = folded

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
        self._forget(path)
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


def _pickled(states) -> bytes:
    """One pickle of every snapshot in *states*: its memo stores an
    object the caches share once."""
    return pickle.dumps(list(states), protocol=pickle.HIGHEST_PROTOCOL)


def _mtime(path: Path) -> float:
    try:
        return path.stat().st_mtime
    except OSError:
        return 0.0


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
