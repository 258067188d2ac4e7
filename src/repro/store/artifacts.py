"""Content-addressed on-disk store of compiled execution artifacts.

The expensive half of a cold start is deterministic: predecode and
superblock formation are pure functions of the image bytes, the cached
region bounds and the fetch wait-state profile — exactly the tuple the
decode-cache registry is keyed on.  This module persists that derived
state so the *next* process skips the derivation.

The store is a :class:`~repro.core.durable.RecordLog`, the same
append-only log of checksummed records as the result cache and the job
journal, and it keeps three kinds of record:

- **one pack per persist** — :func:`~repro.isa.decodecache.
  persist_registry` appends every changed cache as one record in
  namespace ``decodes/<model digest>``: its value is a compact JSON
  header of the registry keys and their content stamps, a space, and
  the base64 of one pickle of every snapshot (its memo stores an
  instruction the caches share once).  A reader parses only the
  headers to find a key; a pack is unpickled whole when the first of
  its keys is asked for;
- **the executor table** — one record in ``code``, keyed by its
  source's SHA-256 and :func:`~repro.core.durable.bytecode_tag`;
- **the objects below the test cells** — one record each in
  ``objects``, keyed by their build inputs' content.

The log's rules make the store contained: a record failing its
checksum is counted in ``corrupt`` and never read (its segment is kept
as evidence once its writer is gone), a record cut off by a kill is
counted in ``torn``, a snapshot or object that does not decode is
counted in ``corrupt`` and re-derived, and a broken store degrades the
run to cold starts, never fails it.  Another code's packs and another
interpreter's code are misses; the first append of a process whose log
holds any compacts them away, and removes the ``*.art`` files of the
per-file layout this log replaced.

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

import base64
import json
import marshal
import pickle
import threading
import types
from pathlib import Path
from typing import TYPE_CHECKING

from repro.assembler.objectfile import ObjectFile
from repro.core.durable import RecordLog, bytecode_tag, checksum, model_digest
from repro.core.faults import SITE_STORE_READ, SITE_STORE_WRITE

if TYPE_CHECKING:
    from repro.isa.decodecache import DecodeCache

_DECODES = "decodes/"
_CODE = "code"
_OBJECTS = "objects"


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
    from repro.isa.decodecache import DecodeCache

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

def _decode_space() -> str:
    """The namespace of this code's decode packs."""
    return _DECODES + model_digest()


def code_key(source: str) -> str:
    """The record key of the code object compiled from *source*: the
    source's SHA-256 and :func:`bytecode_tag`, so another interpreter's
    artifact is a miss, never corruption."""
    return "/".join((checksum(source.encode()), *bytecode_tag()))


def _decode_name(key: tuple) -> str:
    """The name a registry key's snapshot fires the read site under."""
    return "decode-" + "-".join(map(str, key))


def _text(data: bytes) -> str:
    """Binary *data* as record text (no tab, no newline)."""
    return base64.b64encode(data).decode()


def _pack_keys(value: str) -> list:
    """The registry keys of a pack record's *value*: its compact JSON
    header, which holds no space, then a space and the base64 of the
    pickle."""
    return json.loads(value[: value.index(" ")])["keys"]


class ArtifactStore(RecordLog):
    """The artifact log: decode-cache packs (counted in ``hits``/
    ``saved``/``unchanged``), the compiled opcode executor table
    (``code_hits``/``code_saved``), whose ``compile()`` every executing
    process would otherwise repeat, and assembled objects of the layers
    below the test cell (``obj_hits``/``obj_saved``), keyed by their
    build inputs' content so an edit re-run assembles only the edited
    cell."""

    read_site = SITE_STORE_READ
    write_site = SITE_STORE_WRITE
    #: The per-file layout this log replaced: ``decodes-*``, ``code-*``
    #: and ``objects-*`` files, and the per-key snapshots before them.
    earlier_layout = ("*.art",)

    def __init__(self, directory: str | Path, injector=None):
        super().__init__(directory, injector)
        self.hits = 0
        self.saved = 0
        #: Saves skipped because the stamp says the snapshot in the log
        #: is already current.
        self.unchanged = 0
        self.code_hits = 0
        self.code_saved = 0
        self.obj_hits = 0
        self.obj_saved = 0
        #: registry key -> stamp of the snapshot known to be in the log
        #: (set by this process's loads and saves).
        self._stamps: dict[tuple, tuple] = {}
        #: registry key -> the newest pack of this code holding it, read
        #: from the pack headers on first use.
        self._packs: dict[tuple, str] | None = None
        #: registry key -> a cache unpickled with a pack but not yet
        #: asked for.
        self._restored: dict[tuple, DecodeCache] = {}
        #: registry key -> changed cache for the next pack.
        self._changed: dict[tuple, DecodeCache] = {}
        #: content key -> object assembled since the last
        #: :meth:`save_objects` (encoded only when saved).
        self._staged: dict[str, ObjectFile] = {}

    def current(self, space: str, key: str) -> bool:
        """Packs of another model digest and code of another
        interpreter are never read by this one."""
        if space.startswith(_DECODES):
            return space == _decode_space()
        if space == _CODE:
            return key.endswith("/".join(("", *bytecode_tag())))
        return True

    def _read_clean(self, name: str) -> bool:
        """Fire the read site for *name*: ``False``, counted in
        :attr:`corrupt`, when an injected fault is due (the bytes in the
        log are intact, so nothing is quarantined)."""
        if self.injector is None:
            return True
        try:
            self.injected_read(name)
        except Exception:
            with self._lock:
                self.corrupt += 1
            return False
        return True

    # -- decode-cache packs ------------------------------------------------
    def save_decode_cache(self, key: tuple, cache: DecodeCache) -> bool:
        """Queue one registry entry for the next :meth:`save_decode_pack`;
        returns whether it was queued.  Empty caches (nothing derived
        yet) and caches whose snapshot in the log is current are
        skipped."""
        if self.disabled:
            return False
        if not cache._entries and not cache._blocks:
            return False
        if self._stamps.get(key) == _cache_stamp(cache):
            self.unchanged += 1
            return False
        with self._lock:
            # Counted as saved now, where a per-call ledger sees it;
            # the pack takes back the ones it leaves out.
            self.saved += key not in self._changed
            self._changed[key] = cache
        return True

    def save_decode_pack(self) -> int:
        """Append every queued cache as one pack; returns how many
        snapshots it holds (0 when none was written)."""
        with self._lock:
            changed, self._changed = self._changed, {}
        if self.disabled or not changed:
            return 0
        written = self._append_pack(changed)
        self.saved -= len(changed) - written
        return written

    def _append_pack(self, changed: dict[tuple, DecodeCache]) -> int:
        items = [
            (key, _cache_stamp(cache), _snapshot(cache))
            for key, cache in changed.items()
        ]
        try:
            payload = _pickled(item[2] for item in items)
        except Exception:
            # Leave out the snapshots that do not pickle (counted); the
            # others still persist.
            items = [item for item in items if self._pickles(item[2])]
            payload = _pickled(item[2] for item in items)
        if not items:
            return 0
        header = json.dumps(
            {
                "keys": [list(item[0]) for item in items],
                "stamps": [list(item[1]) for item in items],
            },
            separators=(",", ":"),
            sort_keys=True,
        )
        pack = checksum(header.encode())
        value = f"{header} {_text(payload)}"
        # A cold run's pickle is most of a megabyte: drop it before the
        # append makes the record's copies.
        del payload
        if not self.append(_decode_space(), {pack: value}, pack):
            return 0
        with self._lock:
            packs = self._pack_index()
            for key, stamp, _state in items:
                self._stamps[key] = stamp
                packs[key] = pack
                self._restored.pop(key, None)
        return len(items)

    def _pickles(self, state: dict) -> bool:
        try:
            pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.write_errors += 1
            return False
        return True

    def _pack_index(self) -> dict[tuple, str]:
        """Registry key -> newest pack of this code holding it, from
        every pack's header (read once)."""
        with self._lock:
            if self._packs is None:
                self._packs = {}
                packs = self._load().get(_decode_space(), {})
                for pack, value in packs.items():
                    for key in _pack_keys(value):
                        self._packs[tuple(key)] = pack
            return self._packs

    def _unpack(self, pack: str) -> dict[tuple, DecodeCache]:
        """Every cache of *pack*; raises when it does not decode."""
        value = self.records[_decode_space()][pack]
        keys = _pack_keys(value)
        states = pickle.loads(
            base64.b64decode(value[value.index(" ") + 1:])
        )
        if len(states) != len(keys):
            raise ValueError("decode pack key count mismatch")
        return {
            tuple(key): _restore(state) for key, state in zip(keys, states)
        }

    def load_decode_cache(self, key: tuple) -> DecodeCache | None:
        """The restored cache for *key*, or ``None`` (miss or counted
        corruption).  Fires the read site once per key found.  Never
        raises."""
        if self.disabled:
            return None
        with self._lock:
            pack = self._pack_index().get(key)
            if pack is None:
                self.misses += 1
                return None
            if not self._read_clean(_decode_name(key)):
                return None
            cache = self._restored.pop(key, None)
            if cache is None:
                try:
                    caches = self._unpack(pack)
                except Exception:
                    # A pack this code cannot restore: counted, and its
                    # caches are derived and saved again.
                    self.corrupt += 1
                    for other, holder in list(self._packs.items()):
                        if holder == pack:
                            del self._packs[other]
                    return None
                cache = caches.pop(key)
                for other, restored in caches.items():
                    if self._packs.get(other) == pack:
                        self._restored[other] = restored
            self.hits += 1
            self._stamps[key] = _cache_stamp(cache)
            return cache

    # -- compiled-code artifacts -------------------------------------------
    def load_code(self, source: str) -> types.CodeType | None:
        """This interpreter's code object compiled from *source*, or
        ``None`` (miss or counted corruption).  Never raises."""
        if self.disabled:
            return None
        key = code_key(source)
        value = self._load().get(_CODE, {}).get(key)
        if value is None or not self._read_clean(key):
            return None
        try:
            code = marshal.loads(base64.b64decode(value))
            if not isinstance(code, types.CodeType):
                raise ValueError("artifact is not a code object")
        except Exception:
            self.corrupt += 1
            return None
        self.code_hits += 1
        return code

    def save_code(self, source: str, code: types.CodeType) -> bool:
        """Append *code*, compiled from *source*; returns whether it was
        written."""
        key = code_key(source)
        if not self.append(_CODE, {key: _text(marshal.dumps(code))}, key):
            return False
        self.code_saved += 1
        return True

    # -- assembled-object artifacts ----------------------------------------
    def load_object(self, key: str) -> ObjectFile | None:
        """The assembled object stored under content key *key*, or
        ``None``.  Never raises."""
        if self.disabled:
            return None
        value = self._load().get(_OBJECTS, {}).get(key)
        if value is None or not self._read_clean(key):
            return None
        try:
            obj = ObjectFile.from_plain(marshal.loads(base64.b64decode(value)))
        except Exception:
            # An intact record whose object does not decode: counted,
            # dropped, and the unit is assembled again.
            with self._lock:
                self.corrupt += 1
                self.records[_OBJECTS].pop(key, None)
            return None
        with self._lock:
            self.obj_hits += 1
        return obj

    def stage_object(self, key: str, obj: ObjectFile) -> None:
        """Queue *obj*, assembled under content key *key*, for the next
        :meth:`save_objects`."""
        if self.disabled:
            return
        with self._lock:
            if key not in self._load().get(_OBJECTS, {}):
                self._staged[key] = obj

    def save_objects(self) -> bool:
        """Append every staged object, one record each, in one write;
        returns whether they were written.  Called once at the end of a
        run."""
        with self._lock:
            staged, self._staged = self._staged, {}
        if self.disabled or not staged:
            return False
        values = {
            key: _text(marshal.dumps(staged[key].to_plain()))
            for key in sorted(staged)
        }
        if not self.append(_OBJECTS, values, _OBJECTS):
            return False
        with self._lock:
            self.obj_saved += 1
        return True

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
