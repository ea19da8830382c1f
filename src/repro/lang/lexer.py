"""Tokenizer for the tiny benchmark language.

The language exists to generate realistic CFGs and traces (see DESIGN.md §2:
it substitutes for the paper's SUIF/C frontend).  It is a small, C-like
imperative language: functions, integers/floats, global scalars and arrays,
``if``/``while``/``switch``, short-circuit booleans, and three I/O builtins
(``input``, ``input_len``, ``output``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class LangError(Exception):
    """Raised for lexical, syntactic, or semantic errors in source text."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f"{line}:{column}: " if line else ""
        super().__init__(f"{location}{message}")
        self.line = line
        self.column = column


KEYWORDS = {
    "fn", "var", "arr", "global", "if", "else", "while", "for", "switch",
    "case", "default", "return", "break", "continue",
}

#: Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "~", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ",", ";", ":",
]


@dataclass(frozen=True)
class Token:
    kind: str       # 'ident', 'int', 'float', 'op', 'keyword', 'eof'
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}@{self.line}:{self.column})"


#: One alternation for every token that starts with an ASCII character
#: (operators longest first, so maximal munch works).  A number or name
#: that runs on into non-ASCII digits or letters, and a token that starts
#: with one, is finished by the ``str`` predicates the language is defined
#: by (:func:`_finish_number`, :data:`_NAME_TAIL`): ``\\w`` is exactly
#: ``isalnum() or "_"``, but no regex class is ``isdigit``/``isalpha``.
_TOKEN = re.compile(
    r"(?P<newline>\n)"
    r"|(?P<space>[ \t\r]+)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<number>[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>" + "|".join(re.escape(op) for op in OPERATORS) + ")"
)
_NAME_TAIL = re.compile(r"\w*")


def _finish_number(source: str, i: int, seen_dot: bool) -> int:
    """The end of a number whose text so far ends before ``i``."""
    n = len(source)
    while i < n and (source[i].isdigit() or (source[i] == "." and not seen_dot)):
        seen_dot = seen_dot or source[i] == "."
        i += 1
    return i


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``, raising :class:`LangError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    line = 1
    column = 1
    i = 0
    n = len(source)
    while i < n:
        m = match(source, i)
        kind = m.lastgroup if m is not None else None
        if kind == "newline":
            line += 1
            column = 1
            i += 1
            continue
        if kind == "space":
            column += m.end() - i
            i = m.end()
            continue
        if kind == "comment":
            i = m.end()
            continue
        if kind == "op":
            text = m.group()
            append(Token("op", text, line, column))
            i = m.end()
            column += len(text)
            continue
        ch = source[i]
        if kind == "number":
            end = m.end()
            if end < n and not source[end].isascii():
                end = _finish_number(source, end, "." in m.group())
        elif kind == "name":
            end = m.end()
        elif ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            kind = "number"
            end = _finish_number(source, i, False)
        elif ch.isalpha():
            kind = "name"
            end = _NAME_TAIL.match(source, i + 1).end()
        else:
            raise LangError(f"unexpected character {ch!r}", line, column)
        text = source[i:end]
        if kind == "number":
            kind = "float" if "." in text else "int"
        else:
            kind = "keyword" if text in KEYWORDS else "ident"
        append(Token(kind, text, line, column))
        column += end - i
        i = end
    tokens.append(Token("eof", "", line, column))
    return tokens
