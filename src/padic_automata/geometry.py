"""Geometric images of maps and machine families, exact box-counting and transitivity.

An image pairs an input word with an output word.  Words embed into [0, 1)
by the digit-mirror rule: the FIRST-consumed letter becomes the most
significant base-p fractional digit, so a word w of length L maps to
0.w_0 w_1 ... w_{L-1} in base p.  Under this embedding the grid cell of
side p^-m that a point lands in is determined by the length-m prefixes
of the words, the quantity an n-unit delay actually controls (m output
letters are pinned by m+n input letters).  Mirroring is a bijection on
each level, so per-level point counts, diagonal structure, and coverage
fractions of prefix-transitive families are unchanged; what it buys is
that extending a word (reading more letters) keeps the point inside the
cell of its prefix.

A word of at most L letters and its zero-extension are one point and have
one residue, so a point is the integer code u * den + v of its words'
residues u, v < den = p^L, and distinct codes are distinct points.  A
point set is only (p, L, codes): den is p^L by construction, and what a
caller asked for (the delay, the levels) stays with the caller.  An
oracle image's levels come out as ascending runs, merged by one sort with
repeats dropped as neighbours; a family image's unordered per-word blocks
go through a set and a sort.  The mirror is applied only to the distinct
values reported, with no table sized by p^m or den: ``PointSet2D.coords``
and the cells of ``cover_fraction``.  ``Fraction``s appear only in
``PointSet2D.points`` and ``CoverReport.fraction``.
Cover fractions are exact; the PGM rasterizer is byte-deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, count, islice, repeat
from operator import add, lt, ne
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import DEFAULT_BUDGET, check_budget, family_size
from .formats import write_file
from .oracle import FunctionOracle
from .transducer import State, Transducer, reachable_states, walk

__all__ = ["CoverReport", "PointSet2D", "TransitivityReport", "accumulate_image", "cover_fraction",
           "family_points", "family_transitivity", "render_pgm"]


def _mirrored_pairs(codes: Iterable[int], p: int, length: int) -> tuple[tuple[int, int], ...]:
    """(mirror(u), mirror(v)) for the codes u * p^length + v, in ascending order.
    mirror(x) reverses x's ``length`` base-p digits, once per distinct x."""
    pairs = list(map(divmod, codes, repeat(p ** length)))
    mirror = dict.fromkeys(chain.from_iterable(pairs))
    for x in mirror:
        rest, mirrored = x, 0
        for _ in range(length):
            rest, digit = divmod(rest, p)
            mirrored = mirrored * p + digit
        mirror[x] = mirrored
    return tuple(sorted((mirror[u], mirror[v]) for u, v in pairs))


class _PointFields(NamedTuple):
    p: int
    length: int
    codes: tuple[int, ...]


class PointSet2D(_PointFields):
    """Deduplicated exact points in [0, 1)^2, one integer code each.

    ``codes[i] = u * den + v`` over den = p^length is the point (mirror(u),
    mirror(v)) / den of the words with residues u, v < den, mirror reversing
    ``length`` base-p digits.  ``codes`` strictly increases, so the points
    are distinct.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace too runs __new__

    def __new__(cls, *args, **kwargs) -> "PointSet2D":
        self = super().__new__(cls, *args, **kwargs)
        p, length, codes = self
        if p < 2 or length < 0:
            raise ValueError(f"point sets need p >= 2 and length >= 0, "
                             f"got p = {p}, length = {length}")
        if codes and not (0 <= codes[0] and codes[-1] < p ** (2 * length)):
            raise ValueError(f"a code lies outside [0, {p ** length}^2): not in [0, 1)^2")
        if not all(map(lt, codes, codes[1:])):
            raise ValueError("point codes must strictly increase")
        return self

    @property
    def coords(self) -> tuple[tuple[int, int], ...]:
        """The mirrored numerator pairs (X, Y) over p^length, in ascending order."""
        return _mirrored_pairs(self.codes, self.p, self.length)

    @property
    def points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The points as exact rationals, in ascending order."""
        den = self.p ** self.length
        return tuple((Fraction(x, den), Fraction(y, den)) for x, y in self.coords)

    @staticmethod
    def union(sets: Sequence["PointSet2D"]) -> "PointSet2D":
        """The points of all ``sets``, each code re-encoded over the longest length."""
        if not sets:
            raise ValueError("cannot union zero point sets")
        p, length = sets[0].p, max(ps.length for ps in sets)
        den, codes = p ** length, set()
        for ps in sets:
            if ps.p != p:
                raise ValueError("point sets disagree on the prime")
            codes.update(u * den + v for u, v in map(divmod, ps.codes, repeat(p ** ps.length)))
        return PointSet2D(p=p, length=length, codes=tuple(sorted(codes)))


def accumulate_image(f: FunctionOracle, levels: Iterable[int],
                     budget: int = DEFAULT_BUDGET) -> PointSet2D:
    """Image of an oracle over the given levels.  Level k gives one point
    per residue x mod p^(n+k), pairing the input word of length n+k with
    the output word of length k, f(x) mod p^k; the tables of every level
    come from one :meth:`FunctionOracle.levels` call.

    Over den = p^(n+top), level k's codes x * den + f(x) mod p^k ascend
    with x, so each level is one ascending run.  One sort merges the runs.
    """
    levels = sorted(set(levels))
    if not levels:
        raise ValueError("empty level range: an image needs a level k >= 1")
    if levels[0] < 1:
        raise ValueError(f"level must be >= 1, got {levels[0]}")
    p, n, top = f.p, f.delay, levels[-1]
    tables = f.levels([(n + k, k) for k in levels], budget,
                      f"oracle evaluations ({p}^{n + top}, level {top})")
    den = p ** (n + top)
    runs = (map(add, range(0, len(outs) * den, den), outs) for outs in tables)
    merged = sorted(chain.from_iterable(runs))  # Timsort merges the runs
    codes = tuple(compress(merged, map(ne, merged, chain([-1], merged))))  # drop repeats
    return PointSet2D(p=p, length=n + top, codes=codes)


class CoverReport(NamedTuple):
    """Occupied cells of the p^m-by-p^m grid over [0, 1)^2.

    ``fraction`` is exact: occupied / p^(2m).  The cell list is kept so
    reports can be rendered and compared deterministically.
    """

    p: int
    m: int
    occupied: int
    fraction: Fraction
    cells: tuple[tuple[int, int], ...]


def cover_fraction(points: PointSet2D, m: int) -> CoverReport:
    """Grid the point set at resolution m (cells of side p^-m).

    The point of residues (u, v) lies in the cell (mirror(u mod p^m),
    mirror(v mod p^m)), also for m > L, so the reduced residues are
    deduplicated as codes over p^m and only the occupied cells mirrored.
    """
    if m < 1:
        raise ValueError(f"resolution must be >= 1, got {m}")
    grid, den, codes = points.p ** m, points.p ** points.length, points.codes
    low = min(grid, den)  # v mod p^m is the code mod min(p^m, den)
    occupied = {c // den % grid * grid + c % low for c in codes}
    cells = _mirrored_pairs(occupied, points.p, m)
    return CoverReport(p=points.p, m=m, occupied=len(cells),
                       fraction=Fraction(len(cells), grid * grid), cells=cells)


def _family_codes(t: Transducer, depth: int, lengths: Sequence[int], budget: int,
                  what: str) -> tuple[Sequence[State], set[int]]:
    """The states known at ``depth``, and the codes over den = p^L, L =
    ``lengths[-1]``, of every (u, output) pair they write for the words u
    of each length in ``lengths`` (consecutive, ascending), both as residues.

    All states' words are one synchronous :func:`~padic_automata.transducer.walk`,
    each word's code u * den repeated once per state.  :class:`BudgetExceededError`, naming
    ``what``, is raised before any state is listed when the nodes walked,
    len(states) * (p + ... + p^L), exceed ``budget``."""
    p, top = t.p, lengths[-1]
    states = reachable_states(t, depth)
    check_budget(family_size(states) * sum(p ** j for j in range(1, top + 1)), budget, what)
    den = p ** top
    xs = list(chain.from_iterable(zip(*[range(0, den * den, den)] * len(states))))  # word by word
    codes: set[int] = set()
    for _, residues in islice(walk(t, states, 0, [range(p)] * top), lengths[0] - 1, None):
        codes.update(map(add, xs, residues))  # map stops at length j's
    return states, codes


def family_points(t: Transducer, depth: int, budget: int = DEFAULT_BUDGET) -> PointSet2D:
    """Image points of the whole state family of a synchronous machine.

    For every state s known at ``depth`` and every input word u of length
    j <= depth, the machine started at s contributes the point
    (embed(u), embed(output)).  The union over states is what the closure
    of the initial state's image accumulates: reading a long word passes
    through s and then goes on like the machine started there.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    _, codes = _family_codes(t, depth, range(1, depth + 1), budget, "family image nodes")
    return PointSet2D(p=t.p, length=depth, codes=tuple(sorted(codes)))


class TransitivityReport(NamedTuple):
    """Depth-qualified verdict: can the state family map any u to any v?

    ``passed`` holds at the depth it was run at (more states may exist
    beyond it); on failure ``counterexample`` holds the lexicographically
    first pair of residues (u, v) no examined state connects.
    """

    passed: bool
    states_examined: int
    counterexample: tuple[int, int] | None = None


def family_transitivity(
    t: Transducer, level: int, depth: int, budget: int = DEFAULT_BUDGET
) -> TransitivityReport:
    """Check that for all words u, v of length ``level`` (residues mod
    p^level) some state of the synchronous family known at ``depth`` maps
    u to v: over den = p^level each code of the family's words of that
    length is its own cell, so all p^(2 level) codes must occur, and the
    counterexample (u, v) is the first gap in the sorted codes.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    states, codes = _family_codes(t, depth, [level], budget, "family transitivity nodes")
    size = t.p ** level
    missing = None
    if len(codes) < size * size:
        gap = next(compress(count(), map(ne, count(), sorted(codes))), len(codes))
        missing = divmod(gap, size)
    return TransitivityReport(
        passed=missing is None,
        states_examined=len(states),
        counterexample=missing,
    )


def render_pgm(report: CoverReport, m: int, path: str | Path) -> bytes:
    """Write a binary PGM: occupied cells black, origin at the lower left.

    The report's resolution must match m.  Returns the bytes, which rewrite an
    existing file in place, untruncated unless longer (``formats.write_file``).
    """
    if report.m != m:
        raise ValueError(f"cover report was gridded at m={report.m}, asked to render m={m}")
    grid = report.p ** m
    pixels = bytearray(b"\xff") * (grid * grid)
    for col, row in report.cells:
        pixels[(grid - 1 - row) * grid + col] = 0  # top scanline first
    data = b"P5\n%d %d\n255\n" % (grid, grid) + bytes(pixels)
    write_file(path, data)
    return data
