"""The character-loop tokenizer: the reference the regex tokenizer is
tested against.

This is the tokenizer :func:`repro.lang.lexer.tokenize` replaced, kept as
test code only.  ``tests/lang/test_lexer_equivalence.py`` checks that the
two agree on every token (kind, text, line, column) and on every
:class:`~repro.lang.lexer.LangError` message, including for non-ASCII
letters and digits, which ``str.isalpha`` and ``str.isdigit`` accept.
"""

from __future__ import annotations

from repro.lang.lexer import KEYWORDS, OPERATORS, LangError, Token


def reference_tokenize(source: str) -> list[Token]:
    """Tokenize ``source``, raising :class:`LangError` on bad input."""
    tokens: list[Token] = []
    line = 1
    column = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            seen_dot = False
            while i < n and (source[i].isdigit() or (source[i] == "." and not seen_dot)):
                seen_dot = seen_dot or source[i] == "."
                i += 1
            text = source[start:i]
            kind = "float" if "." in text else "int"
            tokens.append(Token(kind, text, line, column))
            column += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, column))
            column += i - start
            continue
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line, column))
                i += len(op)
                column += len(op)
                break
        else:
            raise LangError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("eof", "", line, column))
    return tokens
