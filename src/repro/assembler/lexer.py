"""Line lexer for SC88 assembler source.

The assembler is line-oriented: each source line is tokenised independently
into a list of :class:`Token`.  Comments start with ``;`` (the paper uses
``;;``) and run to end of line.  Number literals accept decimal, ``0x``
hexadecimal, ``0b`` binary, ``0o`` octal and ``'c'`` character forms.
Identifiers may contain dots (``LD.W``) so instruction-variant mnemonics
lex as single tokens; a leading dot marks a directive (``.INCLUDE``).

Tokens depend on the line text alone, so :func:`tokenize_line` lexes each
distinct line once per process: a regression matrix re-reads the same
``Globals.inc`` for every unit it assembles.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.assembler.errors import LexError, SourceLocation


class TokenKind(enum.Enum):
    IDENT = "identifier"
    DIRECTIVE = "directive"
    NUMBER = "number"
    STRING = "string"
    PUNCT = "punctuation"
    EOL = "end of line"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    value: int | None = None  # numeric value for NUMBER tokens

    def __hash__(self) -> int:
        # Tokens key the expression and statement memos.  The hash skips
        # the kind, whose enum hash runs in Python; equality still
        # compares it, so distinct kinds with one text merely collide.
        return hash((self.text, self.value))

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return self.text or self.kind.value


#: Multi-character operators, longest first so maximal munch works.
_MULTI_PUNCT = ("<<", ">>", "==", "!=", "<=", ">=", "&&", "||")
_SINGLE_PUNCT = set(",:[]()+-*/%&|^~!<>=")

_IDENT_START = set("abcdefghijklmnopqrstuvwxyz" "ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789.")


def _lex_number(text: str, pos: int, location: SourceLocation) -> tuple[Token, int]:
    start = pos
    if text.startswith(("0x", "0X"), pos):
        pos += 2
        digits = "0123456789abcdefABCDEF"
        base = 16
    elif text.startswith(("0b", "0B"), pos):
        pos += 2
        digits = "01"
        base = 2
    elif text.startswith(("0o", "0O"), pos):
        pos += 2
        digits = "01234567"
        base = 8
    else:
        digits = "0123456789"
        base = 10
    num_start = pos
    while pos < len(text) and (text[pos] in digits or text[pos] == "_"):
        pos += 1
    literal = text[num_start:pos].replace("_", "")
    if not literal:
        raise LexError(f"malformed number literal at column {start + 1}", location)
    # An identifier character immediately after a number is a malformed
    # token (e.g. ``0x5G``), not two tokens.
    if pos < len(text) and text[pos] in _IDENT_CONT:
        raise LexError(
            f"malformed number literal {text[start:pos + 1]!r}", location
        )
    return Token(TokenKind.NUMBER, text[start:pos], int(literal, base)), pos


def _lex_char(text: str, pos: int, location: SourceLocation) -> tuple[Token, int]:
    # 'c' or escaped '\n' style character literal -> NUMBER token.
    end = pos + 2
    if end < len(text) and text[pos + 1] == "\\":
        end += 1
    if end >= len(text) or text[end] != "'":
        raise LexError("unterminated character literal", location)
    body = text[pos + 1 : end]
    if body.startswith("\\"):
        escapes = {"n": "\n", "t": "\t", "0": "\0", "r": "\r", "\\": "\\", "'": "'"}
        if body[1] not in escapes:
            raise LexError(f"unknown escape {body!r}", location)
        char = escapes[body[1]]
    else:
        char = body
    return Token(TokenKind.NUMBER, text[pos : end + 1], ord(char)), end + 1


def _lex_string(text: str, pos: int, location: SourceLocation) -> tuple[Token, int]:
    end = pos + 1
    out: list[str] = []
    while end < len(text) and text[end] != '"':
        if text[end] == "\\" and end + 1 < len(text):
            escapes = {"n": "\n", "t": "\t", "0": "\0", "r": "\r", "\\": "\\", '"': '"'}
            nxt = text[end + 1]
            if nxt not in escapes:
                raise LexError(f"unknown escape \\{nxt}", location)
            out.append(escapes[nxt])
            end += 2
        else:
            out.append(text[end])
            end += 1
    if end >= len(text):
        raise LexError("unterminated string literal", location)
    return Token(TokenKind.STRING, "".join(out)), end + 1


#: line text -> its tokens.  Cleared when full, so a long-lived daemon
#: assembling endless edits stays bounded.  A line that fails to lex is
#: never stored: it lexes again and raises with the caller's location.
_LINE_TOKENS: dict[str, tuple[Token, ...]] = {}
_LINE_TOKENS_LIMIT = 4096
#: One shared instance per distinct token of the memoised lines (most
#: tokens recur: punctuation, registers, directives), cleared with them.
_TOKENS: dict[Token, Token] = {}


def tokenize_line(line: str, location: SourceLocation) -> list[Token]:
    """Tokenise one source line; the trailing EOL token is always present."""
    tokens = _LINE_TOKENS.get(line)
    if tokens is None:
        lexed = _lex_line(line, location)
        if len(_LINE_TOKENS) >= _LINE_TOKENS_LIMIT:
            _LINE_TOKENS.clear()
            _TOKENS.clear()
        tokens = _LINE_TOKENS[line] = tuple(
            _TOKENS.setdefault(token, token) for token in lexed
        )
    return list(tokens)


def _lex_line(line: str, location: SourceLocation) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    length = len(line)
    while pos < length:
        ch = line[pos]
        if ch in " \t":
            pos += 1
            continue
        if ch == ";":
            break  # comment to end of line
        if ch == '"':
            token, pos = _lex_string(line, pos, location)
            tokens.append(token)
            continue
        if ch == "'":
            token, pos = _lex_char(line, pos, location)
            tokens.append(token)
            continue
        if ch.isdigit():
            token, pos = _lex_number(line, pos, location)
            tokens.append(token)
            continue
        if ch == "." and pos + 1 < length and line[pos + 1] in _IDENT_START:
            end = pos + 1
            while end < length and line[end] in _IDENT_CONT:
                end += 1
            tokens.append(Token(TokenKind.DIRECTIVE, line[pos:end]))
            pos = end
            continue
        if ch in _IDENT_START:
            end = pos
            while end < length and line[end] in _IDENT_CONT:
                end += 1
            tokens.append(Token(TokenKind.IDENT, line[pos:end]))
            pos = end
            continue
        matched = False
        for op in _MULTI_PUNCT:
            if line.startswith(op, pos):
                tokens.append(Token(TokenKind.PUNCT, op))
                pos += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _SINGLE_PUNCT:
            tokens.append(Token(TokenKind.PUNCT, ch))
            pos += 1
            continue
        raise LexError(f"stray character {ch!r} at column {pos + 1}", location)
    tokens.append(Token(TokenKind.EOL, ""))
    return tokens
