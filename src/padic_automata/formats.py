"""Text schemas for series and transducer documents.

Series documents (schema tag ``padic-mahler-series-v1``)::

    schema padic-mahler-series-v1
    p 2
    n 1
    precision 16
    coeff 0 0
    coeff 1 0
    coeff 2 1

Coefficients are decimal residues, index-annotated; indices must run
0..M-1 without gaps.  Transducer documents (schema tag
``padic-transducer-v1``)::

    schema padic-transducer-v1
    p 2
    kind async
    initial wait
    trans wait 0 echo :
    trans wait 1 echo :
    trans echo 0 echo : 0
    trans echo 1 echo : 1

Each ``trans`` line is ``state letter next-state : output-letters``; a
synchronous document must put exactly one letter after the colon, an
asynchronous one any number including none.  Both kinds build the same
:class:`~padic_automata.transducer.Transducer`.  In both schemas ``p``
must be prime.  Blank lines and ``#`` comments are ignored.  Both
formats are versioned by their schema tag.
"""

from __future__ import annotations

import os
import stat

from .errors import FormatError
from .mahler import MahlerSeries
from .padics import is_prime
from .transducer import Transducer

__all__ = [
    "parse_document",
    "parse_series",
    "parse_transducer",
    "serialize_series",
    "write_file",
]

SERIES_SCHEMA = "padic-mahler-series-v1"
TRANSDUCER_SCHEMA = "padic-transducer-v1"


def _tokens(line: str) -> list[str]:  # empty for a blank or comment line
    return line.split("#", 1)[0].split()


def _lines(text: str) -> list[list[str]]:
    return [tokens for tokens in map(_tokens, text.splitlines()) if tokens]


def parse_document(text: str, name: str = "file") -> MahlerSeries | Transducer:
    """A series or a transducer document, told apart by its first
    meaningful line, so leading blank lines and comments are fine."""
    head = next(filter(None, map(_tokens, text.splitlines())), [])
    if any("mahler-series" in token for token in head):
        return parse_series(text)
    return parse_transducer(text, name=name)


def _int_field(tokens: list[str], name: str) -> int:
    if len(tokens) != 2 or tokens[0] != name:
        raise FormatError(f"expected '{name} <integer>', got {' '.join(tokens)!r}")
    try:
        return int(tokens[1])
    except ValueError:
        raise FormatError(f"bad integer in '{name}' line: {tokens[1]!r}")


def parse_series(text: str) -> MahlerSeries:
    lines = _lines(text)
    if not lines or lines[0] != ["schema", SERIES_SCHEMA]:
        raise FormatError(f"series document must start with 'schema {SERIES_SCHEMA}'")
    if len(lines) < 4:
        raise FormatError("series document is missing its header lines")
    p = _int_field(lines[1], "p")
    n = _int_field(lines[2], "n")
    precision = _int_field(lines[3], "precision")
    coeffs = []
    for tokens in lines[4:]:
        if len(tokens) != 3 or tokens[0] != "coeff":
            raise FormatError(f"expected 'coeff <index> <value>', got {' '.join(tokens)!r}")
        try:
            index, value = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise FormatError(f"bad coeff line: {' '.join(tokens)!r}")
        if index != len(coeffs):
            raise FormatError(
                f"coefficient indices must run 0,1,2,... without gaps; "
                f"got {index} after {len(coeffs) - 1}"
            )
        coeffs.append(value)
    try:
        return MahlerSeries.from_ints(p, n, precision, coeffs)
    except ValueError as exc:
        raise FormatError(str(exc))


def serialize_series(series: MahlerSeries) -> str:
    lines = [
        f"schema {SERIES_SCHEMA}",
        f"p {series.p}",
        f"n {series.n}",
        f"precision {series.precision}",
    ]
    for i, a in enumerate(series.coeffs):
        lines.append(f"coeff {i} {a}")
    return "\n".join(lines) + "\n"


def write_file(path: str | os.PathLike[str], data: bytes) -> None:
    """Write ``data`` as the whole of ``path`` in place: open it once
    without truncation (as ``'wb'`` would, minus ``O_TRUNC``), write, and
    trim a regular file that was longer; a device or pipe is not trimmed."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666),
              "wb") as out:
        out.write(data)
        info = os.fstat(out.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
            out.truncate()


def parse_transducer(text: str, name: str = "file") -> Transducer:
    lines = _lines(text)
    if not lines or lines[0] != ["schema", TRANSDUCER_SCHEMA]:
        raise FormatError(
            f"transducer document must start with 'schema {TRANSDUCER_SCHEMA}'"
        )
    if len(lines) < 4:
        raise FormatError("transducer document is missing its header lines")
    p = _int_field(lines[1], "p")
    if not is_prime(p):
        raise FormatError(f"p must be prime, got {p}")
    if len(lines[2]) != 2 or lines[2][0] != "kind" or lines[2][1] not in ("sync", "async"):
        raise FormatError("expected 'kind sync' or 'kind async'")
    kind = lines[2][1]
    if len(lines[3]) != 2 or lines[3][0] != "initial":
        raise FormatError("expected 'initial <state>'")
    initial = lines[3][1]

    table: dict[tuple[str, int], tuple[str, tuple[int, ...]]] = {}
    for tokens in lines[4:]:
        if tokens[0] != "trans" or ":" not in tokens:
            raise FormatError(
                f"expected 'trans <state> <letter> <next> : <letters...>', "
                f"got {' '.join(tokens)!r}"
            )
        colon = tokens.index(":")
        if colon != 4:
            raise FormatError(f"malformed trans line: {' '.join(tokens)!r}")
        _, state, letter_s, nxt = tokens[:4]
        try:
            letter = int(letter_s)
            out_word = tuple(int(tok) for tok in tokens[5:])
        except ValueError:
            raise FormatError(f"non-integer letter in: {' '.join(tokens)!r}")
        if not 0 <= letter < p:
            raise FormatError(f"input letter {letter} outside 0..{p - 1}")
        for d in out_word:
            if not 0 <= d < p:
                raise FormatError(f"output letter {d} outside 0..{p - 1}")
        key = (state, letter)
        if key in table:
            raise FormatError(f"duplicate transition for state {state!r} letter {letter}")
        table[key] = nxt, out_word

    if kind == "sync":
        for key, (_, word) in table.items():
            if len(word) != 1:
                raise FormatError(
                    f"synchronous machines emit exactly one letter per step; "
                    f"state {key[0]!r} letter {key[1]} emits {len(word)}"
                )
    try:
        return Transducer.from_table(p, initial, table, name=name)
    except ValueError as exc:
        raise FormatError(str(exc))
