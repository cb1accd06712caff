"""Lexer for the SpecCharts-like concrete syntax.

Comments run from ``--`` to end of line (VHDL style).  Identifiers are
case-sensitive; keywords are recognised case-insensitively and
canonicalised to lowercase.

One compiled master pattern matches each token of the ASCII language.
A token it does not cover — one that starts with a non-ASCII
character, an integer running into one, a malformed character literal
or a character outside the language — takes the per-character branch
(:func:`_scan_one`), which follows the ``str.isalpha``/``isalnum``/
``isdigit`` rules for Unicode identifiers and digits and raises every
:class:`ParseError`.  Columns count characters; a comment never
advances the column, so the EOF token after a trailing comment sits
where the comment starts.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.errors import ParseError
from repro.lang.tokens import (
    KEYWORDS,
    MULTI_SYMBOLS,
    SINGLE_SYMBOLS,
    Token,
    TokenKind,
)

__all__ = ["tokenize"]

#: Every character of the source belongs to exactly one lexeme: a
#: newline with the next line's indent, a run of blanks, a comment, a
#: word, an integer, a character literal, a symbol, or (last) an
#: integer running into a non-ASCII character or any other single
#: character, both of which :func:`_scan_one` lexes.
_LEXEME = re.compile(
    r"\n[ \t\r]*|[ \t\r]+|--[^\n]*"
    # \w is exactly str.isalnum() or "_", the identifier continuation
    r"|[A-Za-z_]\w*"
    r"|[0-9]+(?![0-9]|[^\x00-\x7f])"
    r"|'[^'\n]+'|"
    + "|".join(re.escape(sym) for sym in MULTI_SYMBOLS)
    + "|[" + re.escape(SINGLE_SYMBOLS) + "]"
    r"|[0-9]+[^\x00-\x7f]|.",
    re.DOTALL,
)

# lexeme classes that are not tokens
_BLANK, _NEWLINE, _COMMENT = object(), object(), object()

_SYMBOLS = {
    sym: (TokenKind.SYMBOL, sym) for sym in MULTI_SYMBOLS + tuple(SINGLE_SYMBOLS)
}


def _classify(lexeme: str):
    """``(kind, token text)`` of a lexeme, or ``None`` for one that
    :func:`_scan_one` must lex."""
    first = lexeme[0]
    if first == "\n":
        return _NEWLINE, None
    if first in " \t\r":
        return _BLANK, None
    if first == "-":
        return _COMMENT, None
    if first == "_" or "A" <= first <= "Z" or "a" <= first <= "z":
        lowered = lexeme.lower()
        if lowered in KEYWORDS:
            return TokenKind.KEYWORD, lowered
        return TokenKind.IDENT, lexeme
    if "0" <= first <= "9" and lexeme.isascii():
        return TokenKind.INT, lexeme
    if first == "'" and len(lexeme) > 1:
        return TokenKind.CHAR, lexeme[1:-1]
    return None


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into a token list ending with one EOF token.

    Raises :class:`ParseError` on any character outside the language.
    """
    tokens: List[Token] = []
    append = tokens.append
    known = dict(_SYMBOLS)  # lexeme -> its class, for this source
    line = 1
    newline_at = -1  # the column of index i is i - newline_at
    pos = 0
    end = length = len(source)
    while pos < length:
        for lexeme in _LEXEME.findall(source, pos):
            entry = known.get(lexeme)
            if entry is None:
                entry = _classify(lexeme)
                if entry is None:
                    token, pos = _scan_one(source, pos, line, pos - newline_at)
                    append(token)
                    break  # resume matching after the token
                known[lexeme] = entry
            kind = entry[0]
            if kind is _BLANK:
                pass
            elif kind is _NEWLINE:
                newline_at = pos
                line += 1
            elif kind is _COMMENT:
                if pos + len(lexeme) == length:
                    end = pos  # a comment never advances the column
            else:
                append(Token(kind, entry[1], line, pos - newline_at))
            pos += len(lexeme)
    tokens.append(Token(TokenKind.EOF, "", line, end - newline_at))
    return tokens


def _scan_one(source: str, i: int, line: int, column: int) -> Tuple[Token, int]:
    """The per-character branch: lex the one token at ``source[i]`` (not
    whitespace or a comment) into ``(token, next index)``."""
    ch = source[i]
    length = len(source)
    if ch.isalpha() or ch == "_":
        j = i
        while j < length and (source[j].isalnum() or source[j] == "_"):
            j += 1
        text = source[i:j]
        if text.lower() in KEYWORDS:
            return Token(TokenKind.KEYWORD, text.lower(), line, column), j
        return Token(TokenKind.IDENT, text, line, column), j
    if ch.isdigit():
        j = i
        while j < length and source[j].isdigit():
            j += 1
        return Token(TokenKind.INT, source[i:j], line, column), j
    if ch == "'":
        # a literal never spans lines: searching past the newline
        # would silently desynchronise line/column tracking for every
        # later token, so an unclosed quote is an error here, reported
        # at the opening quote (the token's start)
        newline = source.find("\n", i + 1)
        line_end = newline if newline >= 0 else length
        j = source.find("'", i + 1, line_end)
        if j < 0:
            raise ParseError("unterminated character literal", line, column)
        raise ParseError("empty character literal", line, column)
    raise ParseError(f"unexpected character {ch!r}", line, column)
