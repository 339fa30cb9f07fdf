"""Facet files, the text format of complexes.

UTF-8 text, one facet per line as nonnegative labels in ASCII decimal
digits, separated by whitespace.  Lines end at LF, CR or CRLF (universal
newlines), in a file and in a string alike.  Blank lines and # comments are
ignored.  An empty file is the void complex; a file whose only facet line
is * is the empty complex (the one whose sole face is the empty set).

The parser checks the text at once, the constructor the labels, once and in
bulk; the parser's per-line loop runs only to name the first refused line.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import repeat
from operator import contains, itemgetter

from .core import SimplicialComplex, build_complex
from .errors import InputError, InternalInvariantError


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


class _Labels(dict):
    """Token -> int(token), each distinct token converted once, when first met."""

    def __missing__(self, token: str) -> int:
        self[token] = value = int(token)
        return value


def parse_facet_lines(lines) -> list[tuple[int, ...]]:
    """Facets of the lines of a facet file, or of its whole text, which is
    split at universal newlines like a file opened in text mode; checked at
    once, and token by token only to name the first refused line."""
    if isinstance(lines, str):  # str.splitlines() would also break at \x0b, \x85, ...
        lines = lines.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    kept = lines = list(lines)
    if any(map(contains, lines, repeat("#"))):
        kept = map(itemgetter(0), map(str.partition, lines, repeat("#")))
    rows = ([] if t == ["*"] else t for t in filter(None, map(str.split, kept)))
    label = _Labels()
    with suppress(ValueError):  # int() refuses x, 1.5, a lone minus, 4300 digits and more
        facets = list(map(tuple, map(sorted, map(map, repeat(label.__getitem__), rows))))
        if (not "".join(label).strip("-0123456789") and min(label.values(), default=0) >= 0
                and sum(map(len, map(set, facets))) == sum(map(len, facets))):
            return facets
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        labels = []
        for token in tokens if tokens != ["*"] else ():
            try:
                labels.append(parse_label(token))
            except ValueError:  # or a label past int()'s limit on digits
                raise InputError(f"line {lineno}: {quote_input(token)} is not an integer label")
            if labels[-1] < 0:
                raise InputError(f"line {lineno}: negative label {quote_label(labels[-1])}")
        if len(set(labels)) != len(labels):
            raise InputError(f"line {lineno}: repeated label in facet")
    raise InternalInvariantError("facet lines refused at once pass one by one")


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
