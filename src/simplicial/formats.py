"""Facet files, the text format of complexes.

UTF-8 text, one facet per line as nonnegative labels in ASCII decimal
digits, separated by whitespace.  Lines end at LF, CR or CRLF (universal
newlines), in a file and in a string alike.  Blank lines and # comments are
ignored.  An empty file is the void complex; a file whose only facet line
is * is the empty complex (the one whose sole face is the empty set).
"""

from __future__ import annotations

import io

from .core import SimplicialComplex, build_complex
from .errors import InputError


def quote_input(text: str) -> str:
    """repr of user text for a message, past 40 characters cut to 20 and its length."""
    return repr(text) if len(text) <= 40 else f"{text[:20] + '…'!r} ({len(text)} characters)"


def quote_label(label) -> str:
    """repr of a parsed label for a message, past 40 characters cut to 20 and its length."""
    text = repr(label)
    return text if len(text) <= 40 else f"{text[:20]}… ({len(text)} characters)"


def label_key(label) -> tuple:
    """Sort key for labels a caller may mix: ints and floats in the order
    sorted() gives them, then anything else, ordered by repr."""
    return (0, label) if isinstance(label, (int, float)) else (1, repr(label))


def parse_label(token: str) -> int:
    """A label token in ASCII digits, after an optional minus sign so that a
    negative label can be named as one; ValueError for ``2_0``, ``+2``, ..."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"{token!r} is not a base-10 label")
    return int(token)


def parse_facet_lines(lines) -> list[tuple[int, ...]]:
    """Facets of the lines of a facet file, or of its whole text, which is
    split at universal newlines like a file opened in text mode."""
    if isinstance(lines, str):
        lines = io.StringIO(lines, newline=None)
    facets = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0]
        tokens = text.split()
        if not tokens:
            continue
        if tokens == ["*"]:
            facets.append(())
            continue
        try:
            if not (text.isascii() and all(map(str.isdigit, tokens))):
                raise ValueError("not all tokens are ASCII digits")
            labels = sorted(map(int, tokens))
        except ValueError:  # or a label past int()'s limit on digits
            for token in tokens:  # name the first token that is no label
                try:
                    value = parse_label(token)
                except ValueError:
                    raise InputError(f"line {lineno}: {quote_input(token)} is not an integer label")
                if value < 0:
                    raise InputError(f"line {lineno}: negative label {quote_label(value)}")
            labels = sorted(map(int, tokens))
        if len(set(labels)) != len(labels):
            raise InputError(f"line {lineno}: repeated label in facet")
        facets.append(tuple(labels))
    return facets


def read_complex_text(text: str) -> SimplicialComplex:
    return build_complex(parse_facet_lines(text))


def read_complex_file(path) -> SimplicialComplex:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 at byte {e.start}") from None
    return read_complex_text(text)


def facet_file_text(cx: SimplicialComplex) -> str:
    """Canonical serialization: facets by (size, labels), one per line."""
    if cx.is_void:
        return ""
    if cx.is_empty_complex:
        return "*\n"
    lines = []
    for f in sorted(cx.facets, key=lambda f: (len(f), f)):
        lines.append(" ".join(str(v) for v in f))
    return "\n".join(lines) + "\n"
