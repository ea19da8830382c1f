"""The tokenizer, pinned: recorded token digests of every suite and
example source, and a fuzz against the character-loop reference.

``lexer_golden.json`` maps each source to the SHA-256 of its token stream
(one ``kind, text, line, column`` line per token), recorded with the
character-loop tokenizer that ``tests/lang/reference_lexer.py`` keeps.
Re-record (only on purpose) with
``python -m tests.lang.test_lexer_equivalence``.
"""

from __future__ import annotations

import ast
import hashlib
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import LangError, tokenize
from repro.lang.lexer import KEYWORDS, OPERATORS
from repro.workloads.suite import SUITE

from .reference_lexer import reference_tokenize

GOLDEN = pathlib.Path(__file__).with_name("lexer_golden.json")
EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def _sources() -> dict[str, str]:
    """Every suite source, and every program text in ``examples/``."""
    sources = {f"suite/{abbr}": spec.source for abbr, spec in SUITE.items()}
    for path in sorted(EXAMPLES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and "fn main" in node.value
            ):
                sources[f"examples/{path.stem}@{node.lineno}"] = node.value
    return sources


def _digest(tokens) -> str:
    lines = "".join(
        f"{t.kind}\t{t.text}\t{t.line}\t{t.column}\n" for t in tokens
    )
    return hashlib.sha256(lines.encode()).hexdigest()


def _outcome(tokenizer, source: str):
    try:
        return [
            (t.kind, t.text, t.line, t.column) for t in tokenizer(source)
        ]
    except LangError as exc:
        return ("error", str(exc), exc.line, exc.column)


def test_token_streams_match_recorded_digests():
    recorded = json.loads(GOLDEN.read_text())
    sources = _sources()
    assert set(sources) == set(recorded)
    assert len([name for name in sources if name.startswith("examples/")])
    for name, source in sources.items():
        assert _digest(tokenize(source)) == recorded[name], name


#: Text the tokenizer cares about, plus characters it must reject and
#: non-ASCII letters, digits and numerals (``str.isalpha``/``isdigit``
#: accept some that regex ``\d`` does not, and the reverse).
_PIECES = st.one_of(
    st.sampled_from(OPERATORS),
    st.sampled_from(sorted(KEYWORDS)),
    st.sampled_from([
        " ", "\t", "\r", "\n", "//", ".", "_", "0", "7", "x", "Z",
        "$", "@", "#", "'", "\"", "\\", "\x0b", "\x00",
        "é", "ß", "Σ", "ǅ", "ª", "一", "٣", "²", "①", "½", "Ⅻ", "፲",
        " ", " ", "́", "😀",
    ]),
    st.text(max_size=4),
    st.from_regex(r"[0-9]{1,3}(\.[0-9]{0,2}){0,2}", fullmatch=True),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_PIECES, max_size=24).map("".join))
def test_tokenize_agrees_with_the_reference(source):
    assert _outcome(tokenize, source) == _outcome(reference_tokenize, source)


@pytest.mark.parametrize("source", [
    "", "x", "a // tail", "// only", "1.2.3", "1..2", ".5", "5.", "x.y",
    "a<<=b", "²", "1²", "x²", "٣.٣", ".٣", "½", "Ⅻ", "一二", "é",
    "fn main", "a\n\n  $", "\r\n\tb",
])
def test_edge_cases_agree_with_the_reference(source):
    assert _outcome(tokenize, source) == _outcome(reference_tokenize, source)


def record() -> None:  # pragma: no cover - run by hand
    GOLDEN.write_text(json.dumps(
        {name: _digest(tokenize(source))
         for name, source in _sources().items()},
        indent=1, sort_keys=True,
    ) + "\n")


if __name__ == "__main__":  # pragma: no cover
    record()
