"""Source streaming: files, ``.INCLUDE`` expansion and macro frames.

The assembler consumes a :class:`SourceStream`, a stack of open frames.
Pushing a file (the root source or an ``.INCLUDE`` target) or a macro
expansion adds a frame; lines are drawn from the innermost frame first.
The stream performs include-cycle detection and records every file that
was opened — the ADVM layer later audits that record to detect tests that
bypass the abstraction layer (the paper's Figure 2 "abuse").

File access goes through a :class:`FileProvider` so the whole toolchain
works both against the real filesystem (ADVM workspaces are real
directory trees, Figures 3 and 5) and against in-memory sources in unit
tests.
"""

from __future__ import annotations

import posixpath
from pathlib import Path

from repro.assembler.errors import IncludeError, SourceLocation


class FileProvider:
    """Abstract source-file access used by the assembler."""

    def read(self, path: str) -> str:
        raise NotImplementedError

    def resolve(self, path: str, from_dir: str | None) -> str | None:
        """Return a canonical path for *path*, or ``None`` if not found."""
        raise NotImplementedError


class FilesystemProvider(FileProvider):
    """Reads real files, searching the including file's directory first and
    then each configured include path (the ADVM test cells link to the
    abstraction layer through these search paths)."""

    def __init__(self, include_paths: list[str] | None = None):
        self.include_paths = [str(p) for p in (include_paths or [])]

    def read(self, path: str) -> str:
        return Path(path).read_text(encoding="utf-8")

    def resolve(self, path: str, from_dir: str | None) -> str | None:
        candidate = Path(path)
        if candidate.is_absolute():
            return str(candidate) if candidate.is_file() else None
        search: list[str] = []
        if from_dir:
            search.append(from_dir)
        search.extend(self.include_paths)
        for base in search:
            resolved = Path(base) / candidate
            if resolved.is_file():
                return str(resolved)
        if candidate.is_file():
            return str(candidate)
        return None


class InMemoryProvider(FileProvider):
    """Maps virtual paths to source text; used heavily by the test suite
    and by the ADVM constrained-random generator, which fabricates
    ``Globals.inc`` instances without touching disk."""

    def __init__(self, files: dict[str, str] | None = None):
        self.files = dict(files or {})

    def add(self, path: str, text: str) -> None:
        self.files[path] = text

    def read(self, path: str) -> str:
        try:
            return self.files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def resolve(self, path: str, from_dir: str | None) -> str | None:
        if path in self.files:
            return path
        if from_dir:
            joined = posixpath.normpath(posixpath.join(from_dir, path))
            if joined in self.files:
                return joined
        return None


class _Frame:
    """One open file or macro expansion."""

    __slots__ = ("name", "lines", "index", "opened_at", "is_file", "context")

    def __init__(
        self,
        name: str,
        lines: list[str],
        opened_at: SourceLocation | None = None,
        is_file: bool = True,
    ):
        self.name = name
        self.lines = lines
        self.index = 0
        #: Location of the line that opened this frame (include or
        #: invocation site).
        self.opened_at = opened_at
        self.is_file = is_file
        #: Include/macro chain every line of this frame reports.
        self.context: tuple[tuple[str, int], ...] = (
            ()
            if opened_at is None
            else opened_at.context + ((opened_at.filename, opened_at.line),)
        )

    def exhausted(self) -> bool:
        return self.index >= len(self.lines)


class SourceStream:
    """Stack-based line source with include tracking."""

    __slots__ = ("provider", "frames", "opened_files", "max_depth")

    def __init__(self, provider: FileProvider, max_depth: int = 64):
        self.provider = provider
        self.frames: list[_Frame] = []
        #: Files opened, in first-open order (root first).
        self.opened_files: list[str] = []
        self.max_depth = max_depth

    def _open_files_on_stack(self) -> set[str]:
        return {f.name for f in self.frames if f.is_file}

    def open_file(
        self, path: str, opened_at: SourceLocation | None = None
    ) -> tuple[str, str]:
        """Resolve *path* from the innermost open file, check it against
        include cycles and the nesting limit, and read it: returns
        ``(resolved path, text)`` without pushing a frame."""
        from_dir = None
        for frame in reversed(self.frames):
            if frame.is_file:
                from_dir = posixpath.dirname(frame.name) or str(
                    Path(frame.name).parent
                )
                break
        resolved = self.provider.resolve(path, from_dir)
        if resolved is None:
            raise IncludeError(
                f"include file {path!r} not found",
                opened_at or SourceLocation(path, 0),
            )
        if resolved in self._open_files_on_stack():
            raise IncludeError(
                f"include cycle through {resolved!r}",
                opened_at or SourceLocation(resolved, 0),
            )
        self._check_depth(resolved, opened_at)
        return resolved, self.provider.read(resolved)

    def push_file(
        self, path: str, opened_at: SourceLocation | None = None
    ) -> None:
        resolved, text = self.open_file(path, opened_at)
        self.push_text(resolved, text, opened_at)

    def mark_opened(self, name: str) -> None:
        """Record *name* as read, as pushing it would."""
        if name not in self.opened_files:
            self.opened_files.append(name)

    def _check_depth(
        self, name: str, opened_at: SourceLocation | None
    ) -> None:
        if len(self.frames) >= self.max_depth:
            raise IncludeError(
                f"include/macro nesting deeper than {self.max_depth}",
                opened_at or SourceLocation(name, 0),
            )

    def push_text(
        self,
        name: str,
        text: str,
        opened_at: SourceLocation | None = None,
        is_file: bool = True,
    ) -> None:
        """Push literal source text (root in-memory sources, macro bodies)."""
        self._check_depth(name, opened_at)
        self.frames.append(
            _Frame(
                name=name,
                lines=text.splitlines(),
                opened_at=opened_at,
                is_file=is_file,
            )
        )
        if is_file:
            self.mark_opened(name)

    def next_line(
        self, floor: int = 0
    ) -> tuple[str, SourceLocation] | None:
        """Pop the next source line, unwinding finished frames; ``None``
        once the frames above the lowest *floor* ones run out."""
        frames = self.frames
        while len(frames) > floor and frames[-1].exhausted():
            frames.pop()
        if len(frames) <= floor:
            return None
        frame = frames[-1]
        line = frame.lines[frame.index]
        frame.index += 1
        return line, SourceLocation(frame.name, frame.index, frame.context)
