"""Constant-expression evaluation for assembler operands and directives.

Expressions appear in ``.EQU`` values, ``.IF`` conditions, immediates,
``.WORD`` data and absolute operands.  They evaluate over 64-bit Python
ints with C-like operator precedence.

A term may be a symbol that is *not yet known* (a label defined in another
object file, e.g. the paper's ``ES_Init_Register`` which lives in the
embedded-software ROM).  Such expressions evaluate to a **symbolic** result
``symbol + addend`` and may only be used where the instruction set carries a
full 32-bit literal word, because that is the only thing the linker can
relocate.  Callers enforce that restriction via :meth:`ExprResult.require_absolute`.

Parsing depends on the tokens alone, so :func:`evaluate_all` parses each
distinct token sequence once per process into a tree of closures and
evaluates that tree against the caller's resolver.  Syntax errors are
raised at parse time, value errors (division by zero, arithmetic on a
symbol) at evaluation time; both carry the caller's location, and a
sequence that fails to parse is never stored.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from repro.assembler.errors import ExpressionError, SourceLocation
from repro.assembler.lexer import Token, TokenKind

#: Resolver contract: return the symbol's value, or ``None`` when the symbol
#: is external/not yet defined (making the expression symbolic), or raise
#: :class:`~repro.assembler.errors.SymbolError` for names that are illegal.
Resolver = Callable[[str], "int | None"]


class ExprResult(NamedTuple):
    """Evaluated expression: absolute value, or ``symbol + value``."""

    value: int
    symbol: str | None = None

    @property
    def is_absolute(self) -> bool:
        return self.symbol is None

    def require_absolute(self, what: str, location: SourceLocation) -> int:
        if self.symbol is not None:
            raise ExpressionError(
                f"{what} must be an absolute expression, but references "
                f"unresolved symbol {self.symbol!r} (only 32-bit literal "
                "operands can be relocated)",
                location,
            )
        return self.value


#: Parsed expression: evaluates against a resolver; errors carry *location*.
_Node = Callable[[Resolver, SourceLocation], ExprResult]

_END = Token(TokenKind.EOL, "")


def _truncating_div(x: int, y: int) -> int:
    """C-style integer division (rounds toward zero), exact at any width."""
    quotient = abs(x) // abs(y)
    return quotient if (x < 0) == (y < 0) else -quotient


_BINARY_OPS: dict[str, Callable[[int, int], int]] = {
    "||": lambda x, y: int(bool(x) or bool(y)),
    "&&": lambda x, y: int(bool(x) and bool(y)),
    "|": lambda x, y: x | y,
    "^": lambda x, y: x ^ y,
    "&": lambda x, y: x & y,
    "==": lambda x, y: int(x == y),
    "!=": lambda x, y: int(x != y),
    "<": lambda x, y: int(x < y),
    ">": lambda x, y: int(x > y),
    "<=": lambda x, y: int(x <= y),
    ">=": lambda x, y: int(x >= y),
    "<<": lambda x, y: x << y,
    ">>": lambda x, y: x >> y,
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": _truncating_div,
    "%": lambda x, y: x - y * _truncating_div(x, y),
}

#: Binary operator -> binding level, loosest (0) to tightest; every
#: level is left-associative.
_BINARY_LEVEL: dict[str, int] = {
    op: level
    for level, ops in enumerate(
        [
            ("||",),
            ("&&",),
            ("|",),
            ("^",),
            ("&",),
            ("==", "!="),
            ("<", ">", "<=", ">="),
            ("<<", ">>"),
            ("+", "-"),
            ("*", "/", "%"),
        ]
    )
    for op in ops
}

#: Unary operator -> (function, verb for the symbolic-operand error).
_UNARY_OPS: dict[str, tuple[Callable[[int], int], str]] = {
    "-": (lambda x: -x, "negate"),
    "~": (lambda x: ~x, "complement"),
    "!": (lambda x: int(x == 0), "logically negate"),
}


def _constant_node(value: int) -> _Node:
    result = ExprResult(value)
    return lambda resolver, location: result


def _symbol_node(name: str) -> _Node:
    def node(resolver: Resolver, location: SourceLocation) -> ExprResult:
        resolved = resolver(name)
        if resolved is None:
            return ExprResult(0, symbol=name)
        return ExprResult(resolved)

    return node


def _unary_node(op: str, operand: _Node) -> _Node:
    fn, verb = _UNARY_OPS[op]

    def node(resolver: Resolver, location: SourceLocation) -> ExprResult:
        value = operand(resolver, location)
        if value.symbol is not None:
            raise ExpressionError(
                f"cannot {verb} a symbolic expression", location
            )
        return ExprResult(fn(value.value))

    return node


def _binary_node(op: str, lhs: _Node, rhs: _Node) -> _Node:
    fn = _BINARY_OPS[op]
    divides = op in ("/", "%")

    def node(resolver: Resolver, location: SourceLocation) -> ExprResult:
        a = lhs(resolver, location)
        b = rhs(resolver, location)
        # Symbolic arithmetic: only symbol +/- constant survives, because
        # that is the only shape a relocation entry can carry.
        if a.symbol is not None or b.symbol is not None:
            if op == "+" and b.symbol is None:
                return ExprResult(a.value + b.value, a.symbol)
            if op == "+" and a.symbol is None:
                return ExprResult(a.value + b.value, b.symbol)
            if op == "-" and b.symbol is None:
                return ExprResult(a.value - b.value, a.symbol)
            raise ExpressionError(
                f"operator {op!r} cannot be applied to a symbolic expression "
                "(only <symbol> + <const> and <symbol> - <const> relocate)",
                location,
            )
        if divides and b.value == 0:
            raise ExpressionError("division by zero in expression", location)
        return ExprResult(fn(a.value, b.value))

    return node


class _Parser:
    """Recursive-descent parser from a token sequence to a :data:`_Node`."""

    def __init__(self, tokens: tuple[Token, ...], location: SourceLocation):
        self.tokens = tokens
        self.pos = 0
        self.location = location

    def peek(self) -> Token:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return _END

    def accept_punct(self, text: str) -> bool:
        if self.peek().is_punct(text):
            self.pos += 1
            return True
        return False

    def parse_all(self) -> _Node:
        node = self._binary(0)
        if self.pos < len(self.tokens):
            raise ExpressionError(
                f"unexpected trailing token {self.tokens[self.pos]!s} "
                "after expression",
                self.location,
            )
        return node

    def _binary(self, min_level: int) -> _Node:
        """Precedence climbing: operators binding at *min_level* or
        tighter, folded left to right."""
        node = self._unary()
        while True:
            token = self.peek()
            level = (
                _BINARY_LEVEL.get(token.text, -1)
                if token.kind is TokenKind.PUNCT
                else -1
            )
            if level < min_level:
                return node
            self.pos += 1
            node = _binary_node(token.text, node, self._binary(level + 1))

    def _unary(self) -> _Node:
        token = self.peek()
        if token.kind is TokenKind.PUNCT and token.text in _UNARY_OPS:
            self.pos += 1
            return _unary_node(token.text, self._unary())
        if token.is_punct("+"):
            self.pos += 1
            return self._unary()
        return self._primary()

    def _primary(self) -> _Node:
        token = self.peek()
        if token.kind is TokenKind.NUMBER:
            self.pos += 1
            assert token.value is not None
            return _constant_node(token.value)
        if token.kind is TokenKind.IDENT:
            self.pos += 1
            return _symbol_node(token.text)
        if self.accept_punct("("):
            inner = self._binary(0)
            if not self.accept_punct(")"):
                raise ExpressionError(
                    f"expected ')', found {self.peek()!s}", self.location
                )
            return inner
        raise ExpressionError(
            f"expected expression, found {token!s}", self.location
        )


#: Token sequence (without its EOL) -> parsed expression.  Cleared when
#: full, so a long-lived daemon stays bounded.
_PARSED: dict[tuple[Token, ...], _Node] = {}
_PARSED_LIMIT = 4096


def evaluate_all(
    tokens: Sequence[Token],
    resolver: Resolver,
    location: SourceLocation,
) -> ExprResult:
    """Evaluate an expression that must consume every token (a trailing
    EOL token is optional)."""
    key = tuple(tokens)
    if key and key[-1].kind is TokenKind.EOL:
        key = key[:-1]
    node = _PARSED.get(key)
    if node is None:
        node = _Parser(key, location).parse_all()
        if len(_PARSED) >= _PARSED_LIMIT:
            _PARSED.clear()
        _PARSED[key] = node
    return node(resolver, location)
