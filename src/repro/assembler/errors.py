"""Diagnostics for the SC88 assembler and linker.

Every error carries a :class:`SourceLocation` so that a failing test-cell
build points at the exact file and line, including through ``.INCLUDE``
chains and macro expansions — the ADVM workflow assembles many small test
cells and the team debugging a regression needs real locations.
"""

from __future__ import annotations

from typing import NamedTuple


class SourceLocation(NamedTuple):
    """A position in an assembler source file."""

    filename: str
    line: int
    #: Chain of (filename, line) include/macro frames, outermost first.
    context: tuple[tuple[str, int], ...] = ()

    def __str__(self) -> str:
        base = f"{self.filename}:{self.line}"
        if not self.context:
            return base
        frames = " <- ".join(f"{f}:{ln}" for f, ln in self.context)
        return f"{base} (via {frames})"

    def nested(self, filename: str, line: int) -> "SourceLocation":
        """Location for a line pulled in from *filename* via this one."""
        return SourceLocation(
            filename=filename,
            line=line,
            context=self.context + ((self.filename, self.line),),
        )


UNKNOWN_LOCATION = SourceLocation("<unknown>", 0)


class AssemblerError(Exception):
    """Base class for all assembler/linker diagnostics."""

    def __init__(self, message: str, location: SourceLocation = UNKNOWN_LOCATION):
        super().__init__(f"{location}: {message}")
        self.message = message
        self.location = location


class LexError(AssemblerError):
    """Malformed token (bad number, unterminated string, stray character)."""


class ParseError(AssemblerError):
    """Malformed statement (bad operands, unknown mnemonic/directive)."""


class SymbolError(AssemblerError):
    """Undefined, redefined, or ill-typed symbol."""


class ExpressionError(AssemblerError):
    """Expression cannot be evaluated (syntax, division by zero, ...)."""


class DirectiveError(AssemblerError):
    """Misused directive (unbalanced .IF/.ENDIF, bad .ORG, ...)."""


class IncludeError(AssemblerError):
    """Missing include file or include cycle."""


class EncodingError(AssemblerError):
    """Operand value does not fit its encoding field."""


class LinkError(AssemblerError):
    """Cross-object resolution failure (duplicate/undefined symbols,
    overlapping sections, image does not fit its memory region)."""


class Diagnostics:
    """Collector used when callers want all errors, not just the first."""

    __slots__ = ("errors", "warnings")

    def __init__(self) -> None:
        self.errors: list[AssemblerError] = []
        self.warnings: list[str] = []

    def error(self, exc: AssemblerError) -> None:
        self.errors.append(exc)

    def warn(self, message: str, location: SourceLocation = UNKNOWN_LOCATION) -> None:
        self.warnings.append(f"{location}: {message}")

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_first(self) -> None:
        if self.errors:
            raise self.errors[0]

    def summary(self) -> str:
        lines = [str(e) for e in self.errors]
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines)
