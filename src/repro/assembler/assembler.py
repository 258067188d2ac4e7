"""Two-pass macro assembler for the SC88.

The assembler supports the directive set the ADVM paper's examples use
(``.INCLUDE``, ``NAME .EQU expr``, ``.DEFINE``) plus the conditional
assembly and macro machinery an abstraction layer needs to adapt itself to
derivatives and simulation targets (``.IFDEF DERIVATIVE_SC88B`` etc.):

========================  ====================================================
directive                 effect
========================  ====================================================
``.INCLUDE "file"``       splice another source file (searched via include
                          paths; cycles are errors)
``NAME .EQU expr``        define an assembly-time constant (also
                          ``.EQU NAME, expr``)
``.DEFINE NAME tokens``   textual alias, e.g. ``.DEFINE CallAddr A12``
``.UNDEF NAME``           remove a ``.DEFINE``/``.EQU``
``.IF expr`` /
``.IFDEF`` / ``.IFNDEF``
/ ``.ELSE`` / ``.ENDIF``  conditional assembly (nestable)
``.MACRO name [params]``
/ ``.ENDM``               macros; ``\\@`` expands to a unique counter
``.SECTION name``         switch output section (default ``text``)
``.ORG expr``             fix the current section's base address
``.GLOBAL`` / ``.EXTERN`` accepted for documentation (labels export anyway)
``.WORD/.HALF/.BYTE``     emit data (``.WORD`` may reference symbols)
``.ASCII/.ASCIIZ``        emit string bytes
``.SPACE expr``           reserve zeroed bytes
``.ALIGN expr``           pad to a boundary
``.END``                  stop assembling
========================  ====================================================

Pass 1 streams source lines (through includes, conditionals and macro
expansions), collects symbols and sizes every statement; pass 2 evaluates
operand expressions and encodes.  References to symbols not defined in the
unit become relocations on 32-bit literal words, resolved by the linker —
that is exactly how a test cell calls ``Base_Init_Register`` from a
separately assembled ``Base_Functions.asm``.

Callers may inject *predefines* (``{"DERIVATIVE_SC88B": 1}``), the
equivalent of command-line ``-D`` flags; the ADVM abstraction layer keys
its derivative/target switching off them.
"""

from __future__ import annotations

import enum
import re
from functools import cached_property
from typing import NamedTuple

from repro.assembler.errors import (
    DirectiveError,
    EncodingError,
    ParseError,
    SourceLocation,
    SymbolError,
)
from repro.assembler.expressions import ExprResult, evaluate_all
from repro.assembler.lexer import Token, TokenKind, tokenize_line
from repro.assembler.objectfile import ObjectFile, TEXT_SECTION
from repro.assembler.preprocessor import (
    FileProvider,
    FilesystemProvider,
    SourceStream,
)
from repro.isa.encoding import encode_word
from repro.isa.instructions import (
    InstructionSpec,
    OperandKind,
    specs_for_mnemonic,
)
from repro.isa.registers import Register, RegisterClass, parse_register

_MAX_DEFINE_DEPTH = 16

#: (mnemonic, define-expanded operand tokens) -> (matched form, parsed
#: operands), shared read-only by every unit.  Cleared when full.
_PARSED_INSTRUCTIONS: dict[tuple, tuple[InstructionSpec, list]] = {}
_PARSED_INSTRUCTIONS_LIMIT = 4096

#: ``.INCLUDE`` entry state -> the ``equ`` and ``defines`` it left and
#: the macros it defined, for passes that changed nothing else (see
#: :meth:`_Unit._include`).  Each entry holds a whole ``equ`` table, so
#: the cap is small; cleared when full.
_INCLUDES: dict[tuple, tuple[dict, dict, dict]] = {}
_INCLUDES_LIMIT = 256


class OperandShape(enum.Enum):
    """Syntactic operand categories, before spec matching."""

    DREG = "data register"
    AREG = "address register"
    MEMIND = "[aN + offset]"
    MEMABS = "[absolute]"
    EXPR = "expression"


class ParsedOperand(NamedTuple):
    shape: OperandShape
    register: Register | None = None
    expr_tokens: tuple[Token, ...] = ()
    offset_tokens: tuple[Token, ...] = ()


class _InstrStatement:
    __slots__ = ("spec", "operands", "section", "offset", "location", "source")

    def __init__(
        self,
        spec: InstructionSpec,
        operands: list[ParsedOperand],
        section: str,
        offset: int,
        location: SourceLocation,
        source: str,
    ):
        self.spec = spec
        self.operands = operands
        self.section = section
        self.offset = offset
        self.location = location
        self.source = source


class _DataStatement:
    __slots__ = (
        "directive", "chunks", "text", "size", "section", "offset",
        "location", "source",
    )

    def __init__(
        self,
        directive: str,
        chunks: list[list[Token]],
        text: str | None,
        size: int,
        section: str,
        offset: int,
        location: SourceLocation,
        source: str,
    ):
        self.directive = directive
        self.chunks = chunks
        self.text = text
        self.size = size
        self.section = section
        self.offset = offset
        self.location = location
        self.source = source


class _MacroDef:
    __slots__ = ("name", "params", "body", "location")

    def __init__(
        self,
        name: str,
        params: list[str],
        body: list[str],
        location: SourceLocation,
    ):
        self.name = name
        self.params = params
        self.body = body
        self.location = location


class _CondFrame:
    __slots__ = ("taking", "taken_before", "seen_else", "parent_active")

    def __init__(
        self,
        taking: bool,
        taken_before: bool,
        seen_else: bool,
        parent_active: bool,
    ):
        self.taking = taking
        self.taken_before = taken_before
        self.seen_else = seen_else
        self.parent_active = parent_active


class ListingRecord(NamedTuple):
    """One listing row: where the bytes came from and what they are."""

    section: str
    offset: int
    data: bytes
    source: str
    location: SourceLocation


class Assembler:
    """Reusable assembler front end.

    One :class:`Assembler` instance holds the file provider, include
    search paths and predefines; each :meth:`assemble_file` /
    :meth:`assemble_source` call is an independent translation unit.
    """

    def __init__(
        self,
        provider: FileProvider | None = None,
        include_paths: list[str] | None = None,
        predefines: dict[str, int] | None = None,
    ):
        self.provider = provider or FilesystemProvider(include_paths or [])
        if include_paths and isinstance(self.provider, FilesystemProvider):
            self.provider.include_paths = [str(p) for p in include_paths]
        self.predefines = dict(predefines or {})

    # -- public API ----------------------------------------------------------
    def assemble_file(
        self, path: str, object_name: str | None = None
    ) -> ObjectFile:
        unit = _Unit(self, object_name or path)
        unit.stream.push_file(path)
        return unit.run()

    def assemble_source(
        self, text: str, name: str = "<source>"
    ) -> ObjectFile:
        unit = _Unit(self, name)
        unit.stream.push_text(name, text)
        return unit.run()


class _Unit:
    """State for assembling one translation unit (both passes)."""

    def __init__(self, owner: Assembler, name: str):
        self.owner = owner
        self.name = name
        self.stream = SourceStream(owner.provider)
        self.equ: dict[str, int] = dict(owner.predefines)
        self.defines: dict[str, tuple[Token, ...]] = {}
        self.macros: dict[str, _MacroDef] = {}
        self.cond_stack: list[_CondFrame] = []
        #: Whether lines are being assembled: every open conditional
        #: frame is taking its branch.  Updated by the conditional
        #: directives, never rescanned.
        self.active = True
        self.macro_counter = 0
        self.capturing: _MacroDef | None = None
        self.current_section = TEXT_SECTION
        self.cursors: dict[str, int] = {TEXT_SECTION: 0}
        self.orgs: dict[str, int] = {}
        self.statements: list[_InstrStatement | _DataStatement] = []
        self.obj = ObjectFile(name=name)
        #: ``.INCLUDE`` directives executed, replays included.
        self.includes = 0
        self.ended = False

    # ---------------------------------------------------------------- pass 1
    def run(self) -> ObjectFile:
        self._pass1(0)
        if self.capturing is not None:
            raise DirectiveError(
                f"missing .ENDM for macro {self.capturing.name!r}",
                self.capturing.location,
            )
        if self.cond_stack:
            raise DirectiveError("missing .ENDIF at end of unit")
        self._pass2()
        self.obj.included_files = list(self.stream.opened_files)
        if not self.obj.included_files:
            self.obj.included_files = [self.name]
        self.obj.define_snapshot = dict(self.equ)
        return self.obj

    def _pass1(self, floor: int) -> None:
        """Assemble lines until the frames above the lowest *floor* run
        out, or ``.END``."""
        next_line = self.stream.next_line
        while not self.ended:
            item = next_line(floor)
            if item is None:
                return
            self._pass1_line(*item)

    def _pass1_line(self, line: str, location: SourceLocation) -> None:
        # Macro body capture swallows raw lines (they may contain `\@`
        # and parameter placeholders that only lex after substitution).
        if self.capturing is not None:
            head = line.strip().split(None, 1)[0].upper() if line.strip() else ""
            if head == ".ENDM":
                self.macros[self.capturing.name.upper()] = self.capturing
                self.capturing = None
            elif head == ".MACRO":
                raise DirectiveError("nested .MACRO is not supported", location)
            else:
                self.capturing.body.append(line)
            return

        tokens = tokenize_line(line, location)
        if tokens[0].kind is TokenKind.EOL:
            return

        # Conditional directives are interpreted even in skipped regions.
        if tokens[0].kind is TokenKind.DIRECTIVE:
            upper = tokens[0].text.upper()
            if upper in (".IF", ".IFDEF", ".IFNDEF", ".ELSE", ".ENDIF"):
                self._conditional(upper, tokens[1:], location)
                return
        if not self.active:
            return

        self._statement(tokens, line, location)

    def _conditional(
        self, directive: str, rest: list[Token], location: SourceLocation
    ) -> None:
        # A frame only takes its branch inside an active region, so the
        # innermost frame's ``taking`` is the whole stack's activity.
        if directive == ".IF":
            condition = False
            if self.active:
                condition = (
                    self._eval(
                        self._expand_defines(rest, location), location
                    ).require_absolute(".IF condition", location)
                    != 0
                )
            self.cond_stack.append(
                _CondFrame(condition, condition, False, self.active)
            )
        elif directive in (".IFDEF", ".IFNDEF"):
            if not rest or rest[0].kind is not TokenKind.IDENT:
                raise DirectiveError(f"{directive} requires a name", location)
            name = rest[0].text
            defined = name in self.equ or name in self.defines
            condition = defined if directive == ".IFDEF" else not defined
            self.cond_stack.append(
                _CondFrame(
                    condition and self.active, condition, False, self.active
                )
            )
        elif directive == ".ELSE":
            if not self.cond_stack:
                raise DirectiveError(".ELSE without .IF", location)
            frame = self.cond_stack[-1]
            if frame.seen_else:
                raise DirectiveError("duplicate .ELSE", location)
            frame.seen_else = True
            frame.taking = frame.parent_active and not frame.taken_before
        elif directive == ".ENDIF":
            if not self.cond_stack:
                raise DirectiveError(".ENDIF without .IF", location)
            self.cond_stack.pop()
        self.active = not self.cond_stack or self.cond_stack[-1].taking

    # -- statements ------------------------------------------------------
    def _statement(
        self, tokens: list[Token], line: str, location: SourceLocation
    ) -> None:
        index = 0
        # `label:` prefix (possibly the whole line).
        if (
            tokens[0].kind is TokenKind.IDENT
            and len(tokens) > 1
            and tokens[1].is_punct(":")
        ):
            self._add_label(tokens[0].text, location)
            index = 2
            if tokens[index].kind is TokenKind.EOL:
                return

        head = tokens[index]
        rest = tokens[index + 1 :]
        if head.kind is TokenKind.DIRECTIVE:
            self._directive(head.text.upper(), rest, line, location)
            return
        if head.kind is TokenKind.IDENT:
            # `NAME .EQU expr` form.
            if rest and rest[0].kind is TokenKind.DIRECTIVE and rest[
                0
            ].text.upper() in (".EQU", ".SET"):
                self._equ_directive(head.text, rest[1:], location)
                return
            if head.text.upper() in self.macros:
                self._invoke_macro(head.text.upper(), rest, location)
                return
            self._instruction(head.text, rest, line, location)
            return
        raise ParseError(f"unexpected token {head!s}", location)

    def _add_label(self, name: str, location: SourceLocation) -> None:
        self.obj.add_symbol(
            name,
            self.current_section,
            self.cursors[self.current_section],
            location,
        )

    # -- directives -----------------------------------------------------
    def _directive(
        self,
        directive: str,
        rest: list[Token],
        line: str,
        location: SourceLocation,
    ) -> None:
        if directive == ".INCLUDE":
            if not rest or rest[0].kind not in (
                TokenKind.STRING,
                TokenKind.IDENT,
            ):
                raise DirectiveError(".INCLUDE requires a file name", location)
            self._include(rest[0].text, location)
        elif directive in (".EQU", ".SET"):
            if (
                len(rest) < 3
                or rest[0].kind is not TokenKind.IDENT
                or not rest[1].is_punct(",")
            ):
                raise DirectiveError(
                    f"{directive} requires: {directive} NAME, expr", location
                )
            self._equ_directive(rest[0].text, rest[2:], location)
        elif directive == ".DEFINE":
            if not rest or rest[0].kind is not TokenKind.IDENT:
                raise DirectiveError(".DEFINE requires a name", location)
            name = rest[0].text
            body = tuple(t for t in rest[1:] if t.kind is not TokenKind.EOL)
            if not body:
                body = (Token(TokenKind.NUMBER, "1", 1),)
            if name in self.defines:
                raise SymbolError(f"duplicate .DEFINE {name!r}", location)
            self.defines[name] = body
        elif directive == ".UNDEF":
            if not rest or rest[0].kind is not TokenKind.IDENT:
                raise DirectiveError(".UNDEF requires a name", location)
            self.defines.pop(rest[0].text, None)
            self.equ.pop(rest[0].text, None)
        elif directive == ".MACRO":
            self._begin_macro(rest, location)
        elif directive == ".ENDM":
            raise DirectiveError(".ENDM without .MACRO", location)
        elif directive == ".SECTION":
            if not rest or rest[0].kind is not TokenKind.IDENT:
                raise DirectiveError(".SECTION requires a name", location)
            self.current_section = rest[0].text
            self.cursors.setdefault(self.current_section, 0)
        elif directive == ".ORG":
            value = self._absolute(rest, ".ORG address", location)
            if self.cursors[self.current_section] != 0:
                raise DirectiveError(
                    ".ORG is only allowed before any bytes are emitted into "
                    f"section {self.current_section!r}",
                    location,
                )
            self.orgs[self.current_section] = value
        elif directive in (".GLOBAL", ".GLOBL", ".EXTERN"):
            pass  # labels export automatically; externs are inferred
        elif directive in (".WORD", ".HALF", ".BYTE"):
            chunks = self._split_commas(
                [t for t in rest if t.kind is not TokenKind.EOL], location
            )
            if not chunks:
                raise DirectiveError(f"{directive} requires values", location)
            unit = {".WORD": 4, ".HALF": 2, ".BYTE": 1}[directive]
            self._record_data(
                directive, chunks, None, unit * len(chunks), line, location
            )
        elif directive in (".ASCII", ".ASCIIZ"):
            if not rest or rest[0].kind is not TokenKind.STRING:
                raise DirectiveError(f"{directive} requires a string", location)
            text = rest[0].text
            size = len(text.encode("latin-1")) + (directive == ".ASCIIZ")
            self._record_data(directive, [], text, size, line, location)
        elif directive == ".SPACE":
            size = self._absolute(rest, ".SPACE size", location)
            if size < 0:
                raise DirectiveError(".SPACE size must be >= 0", location)
            self._record_data(".SPACE", [], None, size, line, location)
        elif directive == ".ALIGN":
            boundary = self._absolute(rest, ".ALIGN boundary", location)
            if boundary <= 0 or boundary & (boundary - 1):
                raise DirectiveError(
                    ".ALIGN boundary must be a power of two", location
                )
            cursor = self.cursors[self.current_section]
            pad = (-cursor) % boundary
            if pad:
                self._record_data(".SPACE", [], None, pad, line, location)
        elif directive == ".END":
            self.ended = True
        elif directive == ".ERROR":
            message = (
                rest[0].text
                if rest and rest[0].kind is TokenKind.STRING
                else "user .ERROR"
            )
            raise DirectiveError(f".ERROR: {message}", location)
        else:
            raise DirectiveError(f"unknown directive {directive}", location)

    def _include(self, path: str, location: SourceLocation) -> None:
        """Pass 1 over an ``.INCLUDE``d file, or a replay of an earlier one.

        A pass that leaves everything but ``equ``, ``defines`` and
        ``macros`` as it found it (no statement, label, section or
        ``.ORG`` change, macro call, nested include, ``.END`` or
        unbalanced conditional) is a pure function of the file and the
        entry state it can read.  Its exit state is stored under that
        key, and an equal entry state restores it instead of reading the
        lines again: every unit of a matrix starts with the same
        ``Globals.inc`` prelude under a handful of predefine sets.  The
        cycle and depth checks run either way; a pass that raises
        stores nothing.
        """
        stream = self.stream
        resolved, text = stream.open_file(path, location)
        self.includes += 1
        cursors = tuple(self.cursors.items())
        orgs = tuple(self.orgs.items())
        section = self.current_section
        depth = len(self.cond_stack)
        key = (
            resolved, text, tuple(self.equ.items()),
            tuple(self.defines.items()), tuple(self.macros), depth,
            section, cursors, orgs,
        )
        stored = _INCLUDES.get(key)
        if stored is not None:
            equ, defines, defined = stored
            self.equ = dict(equ)
            self.defines = dict(defines)
            self.macros.update(defined)
            stream.mark_opened(resolved)
            return
        includes = self.includes
        statements = len(self.statements)
        symbols = len(self.obj.symbols)
        macro_counter = self.macro_counter
        macros = dict(self.macros)
        top = self.cond_stack[-1] if depth else None
        seen_else = top is not None and top.seen_else
        stream.push_text(resolved, text, location)
        self._pass1(len(stream.frames) - 1)
        if (
            self.ended
            or self.capturing is not None
            or self.includes != includes
            or len(self.statements) != statements
            or len(self.obj.symbols) != symbols
            or self.macro_counter != macro_counter
            or self.current_section != section
            or tuple(self.cursors.items()) != cursors
            or tuple(self.orgs.items()) != orgs
            or len(self.cond_stack) != depth
            or (top is not None
                and (self.cond_stack[-1] is not top
                     or top.seen_else != seen_else))
        ):
            return
        if len(_INCLUDES) >= _INCLUDES_LIMIT:
            _INCLUDES.clear()
        _INCLUDES[key] = (
            dict(self.equ),
            dict(self.defines),
            {
                name: macro
                for name, macro in self.macros.items()
                if macros.get(name) is not macro
            },
        )

    def _equ_directive(
        self, name: str, value_tokens: list[Token], location: SourceLocation
    ) -> None:
        value = self._eval(
            self._expand_defines(value_tokens, location), location
        ).require_absolute(f".EQU {name}", location)
        if name in self.equ and self.equ[name] != value:
            raise SymbolError(
                f".EQU {name!r} redefined with a different value "
                f"({self.equ[name]:#x} -> {value:#x})",
                location,
            )
        self.equ[name] = value

    def _absolute(
        self, rest: list[Token], what: str, location: SourceLocation
    ) -> int:
        return self._eval(
            self._expand_defines(rest, location), location
        ).require_absolute(what, location)

    def _record_data(
        self,
        directive: str,
        chunks: list[list[Token]],
        text: str | None,
        size: int,
        line: str,
        location: SourceLocation,
    ) -> None:
        offset = self.cursors[self.current_section]
        self.statements.append(
            _DataStatement(
                directive=directive,
                chunks=chunks,
                text=text,
                size=size,
                section=self.current_section,
                offset=offset,
                location=location,
                source=line.strip(),
            )
        )
        self.cursors[self.current_section] = offset + size

    # -- macros -----------------------------------------------------------
    def _begin_macro(
        self, rest: list[Token], location: SourceLocation
    ) -> None:
        if not rest or rest[0].kind is not TokenKind.IDENT:
            raise DirectiveError(".MACRO requires a name", location)
        name = rest[0].text
        params: list[str] = []
        for chunk in self._split_commas(
            [t for t in rest[1:] if t.kind is not TokenKind.EOL], location
        ):
            if len(chunk) != 1 or chunk[0].kind is not TokenKind.IDENT:
                raise DirectiveError(
                    ".MACRO parameters must be plain names", location
                )
            params.append(chunk[0].text)
        self.capturing = _MacroDef(name, params, [], location)

    def _invoke_macro(
        self, name: str, rest: list[Token], location: SourceLocation
    ) -> None:
        macro = self.macros[name]
        chunks = self._split_commas(
            [t for t in rest if t.kind is not TokenKind.EOL], location
        )
        if len(chunks) != len(macro.params):
            raise ParseError(
                f"macro {macro.name!r} expects {len(macro.params)} "
                f"argument(s), got {len(chunks)}",
                location,
            )
        args = [" ".join(t.text for t in chunk) for chunk in chunks]
        self.macro_counter += 1
        counter = str(self.macro_counter)
        lines: list[str] = []
        for body_line in macro.body:
            expanded = body_line.replace("\\@", counter)
            for param, arg in zip(macro.params, args):
                expanded = re.sub(
                    rf"\b{re.escape(param)}\b", arg, expanded
                )
            lines.append(expanded)
        self.stream.push_text(
            f"<macro {macro.name}>",
            "\n".join(lines),
            opened_at=location,
            is_file=False,
        )

    # -- instructions ------------------------------------------------------
    def _instruction(
        self,
        mnemonic: str,
        rest: list[Token],
        line: str,
        location: SourceLocation,
    ) -> None:
        specs = specs_for_mnemonic(mnemonic)
        if not specs:
            raise ParseError(
                f"unknown instruction or macro {mnemonic!r}", location
            )
        body = self._expand_defines(
            [t for t in rest if t.kind is not TokenKind.EOL], location
        )
        # Operand shapes and the matching form depend on the expanded
        # tokens alone; a statement that fails to parse is never stored.
        key = (mnemonic, tuple(body))
        parsed = _PARSED_INSTRUCTIONS.get(key)
        if parsed is None:
            chunks = self._split_commas(body, location)
            operands = [self._parse_operand(c, location) for c in chunks]
            spec = self._match_spec(mnemonic, specs, operands, location)
            if len(_PARSED_INSTRUCTIONS) >= _PARSED_INSTRUCTIONS_LIMIT:
                _PARSED_INSTRUCTIONS.clear()
            parsed = _PARSED_INSTRUCTIONS[key] = (spec, operands)
        spec, operands = parsed
        offset = self.cursors[self.current_section]
        self.statements.append(
            _InstrStatement(
                spec=spec,
                operands=operands,
                section=self.current_section,
                offset=offset,
                location=location,
                source=line.strip(),
            )
        )
        self.cursors[self.current_section] = offset + spec.size_bytes

    def _parse_operand(
        self, chunk: list[Token], location: SourceLocation
    ) -> ParsedOperand:
        if not chunk:
            raise ParseError("empty operand", location)
        if chunk[0].is_punct("["):
            if not chunk[-1].is_punct("]"):
                raise ParseError("unterminated memory operand", location)
            inner = chunk[1:-1]
            if not inner:
                raise ParseError("empty memory operand", location)
            first_reg = (
                parse_register(inner[0].text)
                if inner[0].kind is TokenKind.IDENT
                else None
            )
            if first_reg is not None and first_reg.cls is RegisterClass.ADDRESS:
                offset_tokens = inner[1:]
                if offset_tokens and offset_tokens[0].is_punct("+"):
                    offset_tokens = offset_tokens[1:]
                    if not offset_tokens:
                        raise ParseError(
                            "missing offset after '+' in memory operand",
                            location,
                        )
                if not offset_tokens:
                    offset_tokens = [Token(TokenKind.NUMBER, "0", 0)]
                return ParsedOperand(
                    OperandShape.MEMIND,
                    register=first_reg,
                    offset_tokens=tuple(offset_tokens),
                )
            return ParsedOperand(OperandShape.MEMABS, expr_tokens=tuple(inner))
        if len(chunk) == 1 and chunk[0].kind is TokenKind.IDENT:
            reg = parse_register(chunk[0].text)
            if reg is not None:
                shape = (
                    OperandShape.DREG
                    if reg.cls is RegisterClass.DATA
                    else OperandShape.AREG
                )
                return ParsedOperand(shape, register=reg)
        return ParsedOperand(OperandShape.EXPR, expr_tokens=tuple(chunk))

    _EXPR_KINDS = frozenset(
        {
            OperandKind.IMM16S,
            OperandKind.IMM16U,
            OperandKind.IMM32,
            OperandKind.POS,
            OperandKind.WIDTH,
            OperandKind.TRAPNUM,
        }
    )

    def _operand_matches(
        self, operand: ParsedOperand, kind: OperandKind
    ) -> bool:
        if kind is OperandKind.DREG:
            return operand.shape is OperandShape.DREG
        if kind is OperandKind.AREG:
            return operand.shape is OperandShape.AREG
        if kind is OperandKind.MEMIND:
            return operand.shape is OperandShape.MEMIND
        if kind is OperandKind.MEMABS:
            return operand.shape is OperandShape.MEMABS
        return operand.shape is OperandShape.EXPR and kind in self._EXPR_KINDS

    def _match_spec(
        self,
        mnemonic: str,
        specs: list[InstructionSpec],
        operands: list[ParsedOperand],
        location: SourceLocation,
    ) -> InstructionSpec:
        for spec in specs:
            if len(spec.operands) != len(operands):
                continue
            if all(
                self._operand_matches(op, kind)
                for op, kind in zip(operands, spec.operands)
            ):
                return spec
        shapes = ", ".join(op.shape.value for op in operands) or "(none)"
        expected = "; or ".join(
            ", ".join(k.value for k in s.operands) or "(none)" for s in specs
        )
        raise ParseError(
            f"no form of {mnemonic!r} matches operands ({shapes}); "
            f"expected: {expected}",
            location,
        )

    # -- shared helpers ------------------------------------------------------
    def _split_commas(
        self, tokens: list[Token], location: SourceLocation
    ) -> list[list[Token]]:
        chunks: list[list[Token]] = []
        current: list[Token] = []
        depth = 0
        for token in tokens:
            if token.kind is TokenKind.PUNCT and token.text in "([":
                depth += 1
            elif token.kind is TokenKind.PUNCT and token.text in ")]":
                depth -= 1
            if token.is_punct(",") and depth == 0:
                if not current:
                    raise ParseError("empty operand before ','", location)
                chunks.append(current)
                current = []
            else:
                current.append(token)
        if current:
            chunks.append(current)
        elif chunks:
            raise ParseError("trailing ',' in operand list", location)
        return chunks

    def _expand_defines(
        self, tokens: list[Token], location: SourceLocation
    ) -> list[Token]:
        """*tokens* with every ``.DEFINE`` name replaced by its body;
        *tokens* itself when no token names one (no caller mutates the
        result)."""
        defines = self.defines
        for token in tokens:
            if token.text in defines:
                break
        else:
            return tokens
        out = tokens
        for _ in range(_MAX_DEFINE_DEPTH):
            expanded: list[Token] = []
            changed = False
            for token in out:
                if token.kind is TokenKind.IDENT and token.text in defines:
                    expanded.extend(defines[token.text])
                    changed = True
                else:
                    expanded.append(token)
            out = expanded
            if not changed:
                return out
        raise ParseError(
            "`.DEFINE` expansion exceeded depth limit (cyclic definition?)",
            location,
        )

    def _eval(
        self, tokens: list[Token], location: SourceLocation
    ) -> ExprResult:
        """Evaluate *tokens*: EQUs are absolute; any other name is
        symbolic (a local label or an external, both settled by the
        linker), so contexts that cannot relocate call
        :meth:`ExprResult.require_absolute` on the result."""
        return evaluate_all(tokens, self.equ.get, location)

    # ---------------------------------------------------------------- pass 2
    def _pass2(self) -> None:
        for name, org in self.orgs.items():
            self.obj.section(name).org = org
        for stmt in self.statements:
            section = self.obj.section(stmt.section)
            if section.size != stmt.offset:
                raise EncodingError(
                    f"internal: pass-1/pass-2 offset mismatch in section "
                    f"{stmt.section!r} ({section.size} != {stmt.offset})",
                    stmt.location,
                )
            if isinstance(stmt, _InstrStatement):
                self._encode_instruction(stmt, section)
            else:
                self._encode_data(stmt, section)

    @cached_property
    def listing(self) -> list[ListingRecord]:
        """One record per statement and the bytes it assembled to, read
        back from the object's sections (after :meth:`run`)."""
        records = []
        for stmt in self.statements:
            size = (
                stmt.spec.size_bytes
                if isinstance(stmt, _InstrStatement)
                else stmt.size
            )
            data = self.obj.sections[stmt.section].data
            records.append(
                ListingRecord(
                    section=stmt.section,
                    offset=stmt.offset,
                    data=bytes(data[stmt.offset : stmt.offset + size]),
                    source=stmt.source,
                    location=stmt.location,
                )
            )
        return records

    @staticmethod
    def _check_range(
        value: int, low: int, high: int, what: str, location: SourceLocation
    ) -> int:
        if not low <= value <= high:
            raise EncodingError(
                f"{what} value {value} out of range [{low}, {high}]", location
            )
        return value

    def _encode_instruction(self, stmt: _InstrStatement, section) -> None:
        spec = stmt.spec
        fields: dict[str, int] = {f: 0 for f in spec.fmt.fields}
        literal_value: int | None = None
        literal_symbol: str | None = None

        for operand, kind, slot in zip(
            stmt.operands, spec.operands, spec.slots
        ):
            loc = stmt.location
            if slot in ("r1", "r2", "r3"):
                assert operand.register is not None
                fields[slot] = operand.register.index
            elif slot == "mem":
                assert operand.register is not None
                fields["r2"] = operand.register.index
                offset = self._eval(
                    operand.offset_tokens, loc
                ).require_absolute("memory offset", loc)
                self._check_range(offset, -32768, 32767, "memory offset", loc)
                fields["imm16"] = offset & 0xFFFF
            elif slot == "imm16":
                result = self._eval(operand.expr_tokens, loc)
                value = result.require_absolute("16-bit immediate", loc)
                if kind is OperandKind.IMM16S:
                    self._check_range(
                        value, -32768, 32767, "signed immediate", loc
                    )
                else:
                    self._check_range(
                        value, 0, 0xFFFF, "unsigned immediate", loc
                    )
                fields["imm16"] = value & 0xFFFF
            elif slot == "pos":
                result = self._eval(operand.expr_tokens, loc)
                fields["pos"] = self._check_range(
                    result.require_absolute("bit position", loc),
                    0,
                    31,
                    "bit position",
                    loc,
                )
            elif slot == "width":
                result = self._eval(operand.expr_tokens, loc)
                fields["width"] = self._check_range(
                    result.require_absolute("field width", loc),
                    1,
                    32,
                    "field width",
                    loc,
                )
            elif slot == "imm8":
                result = self._eval(operand.expr_tokens, loc)
                fields["imm8"] = self._check_range(
                    result.require_absolute("trap number", loc),
                    0,
                    255,
                    "trap number",
                    loc,
                )
            elif slot == "literal":
                result = self._eval(operand.expr_tokens, loc)
                if result.symbol is not None:
                    literal_symbol = result.symbol
                    literal_value = result.value
                else:
                    literal_value = self._check_range(
                        result.value,
                        -(1 << 31),
                        (1 << 32) - 1,
                        "32-bit literal",
                        loc,
                    )
            else:  # pragma: no cover - table is static
                raise EncodingError(f"unknown slot {slot!r}", stmt.location)

        try:
            word = encode_word(spec.fmt, int(spec.opcode), **fields)
        except ValueError as exc:  # pragma: no cover - ranges pre-checked
            raise EncodingError(str(exc), stmt.location) from exc
        section.emit_word(word)
        if spec.fmt.has_literal:
            if literal_value is None:
                raise EncodingError(
                    f"{spec.name} requires a literal operand", stmt.location
                )
            offset = section.emit_word(literal_value)
            if literal_symbol is not None:
                self.obj.add_relocation(
                    stmt.section,
                    offset,
                    literal_symbol,
                    addend=literal_value,
                    location=stmt.location,
                )

    def _encode_data(self, stmt: _DataStatement, section) -> None:
        loc = stmt.location
        if stmt.directive == ".WORD":
            for chunk in stmt.chunks:
                result = self._eval(chunk, loc)
                if result.symbol is not None:
                    offset = section.emit_word(result.value)
                    self.obj.add_relocation(
                        stmt.section,
                        offset,
                        result.symbol,
                        addend=result.value,
                        location=loc,
                    )
                else:
                    value = self._check_range(
                        result.value,
                        -(1 << 31),
                        (1 << 32) - 1,
                        ".WORD",
                        loc,
                    )
                    section.emit_word(value)
        elif stmt.directive == ".HALF":
            for chunk in stmt.chunks:
                value = self._eval(chunk, loc).require_absolute(
                    ".HALF", loc
                )
                self._check_range(value, -(1 << 15), (1 << 16) - 1, ".HALF", loc)
                section.emit_bytes((value & 0xFFFF).to_bytes(2, "little"))
        elif stmt.directive == ".BYTE":
            for chunk in stmt.chunks:
                value = self._eval(chunk, loc).require_absolute(
                    ".BYTE", loc
                )
                self._check_range(value, -(1 << 7), (1 << 8) - 1, ".BYTE", loc)
                section.emit_bytes(bytes([value & 0xFF]))
        elif stmt.directive in (".ASCII", ".ASCIIZ"):
            assert stmt.text is not None
            payload = stmt.text.encode("latin-1")
            if stmt.directive == ".ASCIIZ":
                payload += b"\x00"
            section.emit_bytes(payload)
        elif stmt.directive == ".SPACE":
            section.emit_bytes(bytes(stmt.size))
        else:  # pragma: no cover - directives pre-validated in pass 1
            raise EncodingError(
                f"unknown data directive {stmt.directive}", loc
            )
