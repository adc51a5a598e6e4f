"""Brute-force ground truth on finite quotients.

For a delay-n oracle the level-k reduction sends each residue
x in Z/p^(n k) to f(x) mod p^(n(k-1)); its fibers all have size p^n
exactly when the map preserves Haar measure (checked level by level).
The induced self-map at level k acts on Z/p^(n k) through the
zero-extension lift: x is read as its canonical representative, f is
evaluated, and the result reduced back.  The lift is a convention, not
canon; any disagreement between coefficient conditions and the cycle
counts found here is reported against the lift first.

The synchronous case n = 0 is supported with the classical reading
(level k lives on Z/p^k, fibers of size 1, the induced map is just
f mod p^k), so anchors like x + 1 exercise the same code paths.

Each ``_upto`` check names the (domain, codomain) exponents of its
levels and reads them from :meth:`FunctionOracle.levels`, which gates
and evaluates one table at level k_max.  The fiber check of a genuine
delay-n oracle counts that table's fibers once and folds every lower
level out of the counts; any other oracle, and the cycle check, read
each lower level as a reduced prefix of the top table.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import add, floordiv
from typing import NamedTuple, Sequence

from .errors import DEFAULT_BUDGET
from .oracle import FunctionOracle

__all__ = [
    "CycleVerdict",
    "MeasureVerdict",
    "cycle_count",
    "is_measure_preserving_upto",
    "unique_cycle_upto",
]


def _fiber_sizes(residues: Sequence[int], size: int) -> list[int]:
    counts = [0] * size
    for y in residues:
        counts[y] += 1
    return counts


def _folded(counts: list[int], lifts: int) -> list[int]:
    """Fiber sizes one level down: the sizes at the ``lifts`` lifts of each
    y, the contiguous slices of ``counts``, summed and divided by ``lifts``."""
    step = len(counts) // lifts
    sums = counts[:step]
    for start in range(step, len(counts), step):
        sums = list(map(add, sums, counts[start:start + step]))
    return list(map(floordiv, sums, repeat(lifts)))


def _histogram(counts: list[int], expected: int) -> tuple[tuple[int, int], ...]:
    if counts.count(expected) == len(counts):  # balanced, at C speed
        return ((expected, len(counts)),)
    return tuple(sorted(Counter(counts).items()))


class MeasureVerdict(NamedTuple):
    """Outcome of the fiber-size criterion through ``k_max``.

    ``histograms`` collapses each level's fiber sizes to sorted
    (fiber_size, how_many_points) pairs; a measure-preserving subject
    shows a single pair (p^n, codomain size) at every level.
    """

    passed: bool
    first_failing_level: int | None
    histograms: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


def is_measure_preserving_upto(
    f: FunctionOracle, k_max: int, budget: int = DEFAULT_BUDGET
) -> MeasureVerdict:
    """Check that every level-k fiber has exactly p^delay points, k = 2..k_max.

    This witnesses the criterion through k_max only; the full criterion
    quantifies over every level.  Level k reduces Z/p^(n k) to
    Z/p^(n(k-1)), or Z/p^k to itself at n = 0.

    A genuine delay-n oracle (``f.lipschitz``) has its fibers counted once,
    at level k_max, and each lower level folded out of the level above.
    Let e = max(n, 1) and q = p^e: level k - 1 reduces Z/p^d to Z/p^c, and
    level k reduces Z/p^(d+e) to Z/p^(c+e).  Count the x < p^(d+e) with
    f(x) == y (mod p^c) in two ways.  They are the level-k fibers of the q
    lifts y + j p^c, j < q, of y, a contiguous slice of the level-k counts
    each.  And since f(x) mod p^c depends on x mod p^d only, they are the
    q lifts of each point of y's level-(k-1) fiber.  So that fiber is the
    sum over the slices divided by q.  Balance carries down: if every
    level-k fiber is p^n, every level-(k-1) fiber is q p^n / q = p^n, so
    no level below a balanced one is counted.  Any other oracle is counted
    level by level on reduced prefixes of the top table, that is at the
    canonical representatives, so a subject that only claims delay n is
    read as it is.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    n, p = f.delay, f.p
    shapes = [(n * k, n * (k - 1)) if n else (k, k) for k in range(2, k_max + 1)]
    sizes = [p ** cod for _, cod in shapes]
    what = f"level-table entries ({p}^{shapes[-1][0]})"
    expected = p ** n
    histograms = {}
    if f.lipschitz:
        counts = _fiber_sizes(next(f.levels(shapes[-1:], budget, what)), sizes[-1])
        for k in range(k_max, 1, -1):
            histograms[k] = _histogram(counts, expected)
            if histograms[k] == ((expected, len(counts)),):
                histograms.update((j, ((expected, sizes[j - 2]),)) for j in range(2, k))
                break
            if k > 2:
                counts = _folded(counts, p ** max(n, 1))
    else:
        tables = f.levels(shapes, budget, what)
        for k, size, table in zip(range(2, k_max + 1), sizes, tables):
            histograms[k] = _histogram(_fiber_sizes(table, size), expected)
    first_fail = None
    for k, size in zip(range(2, k_max + 1), sizes):
        if histograms[k] != ((expected, size),):
            first_fail = k
            break
    return MeasureVerdict(
        passed=first_fail is None,
        first_failing_level=first_fail,
        histograms=tuple(sorted(histograms.items())),
    )


def cycle_count(table: Sequence[int]) -> int:
    """Number of cycles of a self-map table (rho shapes allowed, not a
    permutation).

    Each walk starts at an unvisited x with f(x) >= x and stamps the points
    it passes with ~x, negative, in a copy t of the table, until it meets a
    stamped one: it closed a new cycle exactly when that one carries its own
    stamp.  One read t[x] < x skips stamped and descent starts alike.
    Nothing is retraced, and the count stays exact:

    - no cycle has f(x) < x at every point, or its values would fall all
      the way round; so each cycle's least point m has f(m) >= m, and m
      is a start;
    - a walk stops only at a stamped point, and every stamped point's
      forward orbit is stamped; so the first walk that touches a cycle
      finds all of it unstamped and goes round to its own stamp, and
      each cycle is counted once;
    - a descent point (f(x) < x) that no walk reaches lies on no cycle.

    On contracting maps such as x -> x // p or x -> 0 almost every point
    is a descent point, and no walk starts there.
    """
    t = list(table)
    found = 0
    for start in range(len(t)):
        x, y = start, t[start]
        if y >= start:  # neither stamped (negative) nor a descent
            stamp = ~start
            while y >= 0:
                t[x] = stamp
                x, y = y, t[y]
            found += y == stamp
    return found


class CycleVerdict(NamedTuple):
    """Unique-cycle witness through ``k_max`` under the zero-extension lift."""

    passed: bool
    first_failing_level: int | None
    cycle_counts: tuple[tuple[int, int], ...]  # (level, number of cycles)


def unique_cycle_upto(
    f: FunctionOracle, k_max: int, budget: int = DEFAULT_BUDGET
) -> CycleVerdict:
    """Check that the level-k self-map has exactly one cycle, k = 1..k_max.

    Level k is the self-map of Z/p^(e k), e = max(n, 1).
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    e = max(f.delay, 1)
    shapes = [(e * k, e * k) for k in range(1, k_max + 1)]
    tables = f.levels(shapes, budget, f"self-map entries ({f.p}^{e * k_max})")
    counts = []
    first_fail = None
    for k, table in enumerate(tables, 1):
        found = cycle_count(table)
        counts.append((k, found))
        if first_fail is None and found != 1:
            first_fail = k
    return CycleVerdict(
        passed=first_fail is None,
        first_failing_level=first_fail,
        cycle_counts=tuple(counts),
    )
