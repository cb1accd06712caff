"""Token definitions for the SpecCharts-like concrete syntax."""

from __future__ import annotations

import enum

__all__ = ["TokenKind", "Token", "KEYWORDS"]


class TokenKind(enum.Enum):
    """Lexical token categories."""

    IDENT = "ident"
    INT = "int"
    CHAR = "char"  # 'literal' — enum literals
    KEYWORD = "keyword"
    SYMBOL = "symbol"
    EOF = "eof"


#: Reserved words of the language.  Identifiers may not collide with
#: these; the lexer classifies them case-insensitively (keywords are
#: canonicalised to lowercase).
KEYWORDS = frozenset(
    {
        "specification",
        "is",
        "end",
        "variable",
        "signal",
        "input",
        "output",
        "type",
        "procedure",
        "begin",
        "behavior",
        "daemon",
        "leaf",
        "sequential",
        "concurrent",
        "transitions",
        "initial",
        "complete",
        "if",
        "then",
        "elsif",
        "else",
        "while",
        "expect",
        "loop",
        "for",
        "to",
        "wait",
        "until",
        "null",
        "and",
        "or",
        "not",
        "abs",
        "mod",
        "true",
        "false",
        "integer",
        "natural",
        "bits",
        "boolean",
        "array",
    }
)

#: Multi-character symbols, longest first so the lexer can match greedily.
MULTI_SYMBOLS = (":=", "<=", ">=", "/=", "->")

#: Single-character symbols.
SINGLE_SYMBOLS = "()[]<>:;,+-*/="


class Token:
    """One lexical token with its source position (1-based).

    A plain slotted class rather than a dataclass: a spec of a few
    kilobytes lexes to thousands of tokens, and a slotted constructor
    costs a quarter of a frozen dataclass's.  Tokens compare (and hash)
    by all four fields and are never mutated after the lexer builds them.
    """

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: TokenKind, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def _fields(self):
        return (self.kind, self.text, self.line, self.column)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"Token(kind={self.kind!r}, text={self.text!r}, "
                f"line={self.line!r}, column={self.column!r})")

    @property
    def value(self) -> int:
        """Integer value of an INT token."""
        return int(self.text)

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "<end of input>"
        return repr(self.text)
