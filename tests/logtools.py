"""Helpers for tests that inspect or damage a record log's segments
(:class:`repro.core.durable.RecordLog`, the layout of the result cache,
the artifact store, the fleet work-list and the job journal), or that
lay out what an earlier per-file layout left behind."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: Marks the namespace field of a verdict record, of a build-index
#: record, of a journal's job record and of the store's decode-pack,
#: executor-table and object records inside a segment.
VERDICT = b"\tverdict\t"
INDEX = b"\tindex/"
JOB = b"\tjob\t"
DECODES = b"\tdecodes/"
CODE = b"\tcode\t"
OBJECTS = b"\tobjects\t"


def envelope(schema: int, text: str) -> bytes:
    """One file of the per-file layout the logs replaced: the
    ``{"schema", "checksum", "payload"}`` JSON envelope, with a SHA-256
    over the payload text."""
    return json.dumps({
        "schema": schema,
        "checksum": hashlib.sha256(text.encode()).hexdigest(),
        "payload": text,
    }).encode()


def segments(directory) -> list[Path]:
    """The log segments in *directory*, by name."""
    return sorted(Path(directory).glob("seg*.log"))


def record_spans(path: Path) -> list[tuple[int, int]]:
    """``(start, end)`` byte offsets of every record line of a segment,
    each end just past its newline."""
    data = path.read_bytes()
    spans, start = [], 0
    while start < len(data):
        end = data.index(b"\n", start) + 1
        spans.append((start, end))
        start = end
    return spans


def rot_record(directory, needle: bytes, nth: int = 0) -> Path:
    """Overwrite one byte inside the value of the *nth* record holding
    *needle*, in place; returns its segment.  The record's frame (tabs,
    newline) survives, so only its checksum fails."""
    seen = 0
    for path in segments(directory):
        data = bytearray(path.read_bytes())
        for start, end in record_spans(path):
            if data.find(needle, start, end) < 0:
                continue
            if seen < nth:
                seen += 1
                continue
            position = end - 3
            data[position] = ord("X") if data[position] != ord("X") else ord("Y")
            path.write_bytes(bytes(data))
            return path
    raise AssertionError(f"no record holds {needle!r}")
