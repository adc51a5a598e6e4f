"""Brute-force ground truth on finite quotients.

For a delay-n oracle the level-k reduction sends each residue
x in Z/p^(n k) to f(x) mod p^(n(k-1)); its fibers all have size p^n
exactly when the map preserves Haar measure (checked level by level).
The induced self-map at level k acts on Z/p^(n k) through the
zero-extension lift: x is read as its canonical representative, f is
evaluated, and the result reduced back.  The lift is a convention, not
canon; any disagreement between coefficient conditions and the cycle
structure found here is reported against the lift first.

The synchronous case n = 0 is supported with the classical reading
(level k lives on Z/p^k, fibers of size 1, the induced map is just
f mod p^k), so anchors like x + 1 exercise the same code paths.

Each ``_upto`` check evaluates one table, at level k_max, and reads
every lower level off it: their residues are a prefix of its domain.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

from .errors import BudgetExceededError
from .oracle import FunctionOracle

__all__ = [
    "CycleReport",
    "CycleVerdict",
    "DEFAULT_BUDGET",
    "MeasureVerdict",
    "ReducedMap",
    "cycles",
    "endomap",
    "endomap_exponent",
    "is_measure_preserving_upto",
    "level_exponents",
    "preimage_counts",
    "reduce_map",
    "unique_cycle_upto",
]

DEFAULT_BUDGET = 1 << 24


def level_exponents(n: int, k: int) -> tuple[int, int]:
    """(domain, codomain) exponents of the level-k reduction."""
    if k < 2:
        raise ValueError(f"reduction level must be >= 2, got {k}")
    if n >= 1:
        return n * k, n * (k - 1)
    return k, k


def endomap_exponent(n: int, k: int) -> int:
    """Exponent of the level-k self-map domain."""
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    return max(n, 1) * k


def _check_budget(p: int, exponent: int, budget: int) -> None:
    if p ** exponent > budget:
        raise BudgetExceededError(
            f"level table of size {p}^{exponent} exceeds the budget {budget}"
        )


@dataclass(frozen=True)
class ReducedMap:
    """Level-k reduction table: table[x] = f(x) mod p^codomain_exponent."""

    p: int
    n: int
    k: int
    table: tuple[int, ...]

    @property
    def domain_exponent(self) -> int:
        return level_exponents(self.n, self.k)[0]

    @property
    def codomain_exponent(self) -> int:
        return level_exponents(self.n, self.k)[1]


def reduce_map(
    f: FunctionOracle, k: int, budget: int = DEFAULT_BUDGET
) -> ReducedMap:
    """Tabulate the level-k reduction of ``f`` over its whole domain."""
    dom, cod = level_exponents(f.delay, k)
    _check_budget(f.p, dom, budget)
    table = tuple(f.values(cod, f.p ** dom))
    return ReducedMap(p=f.p, n=f.delay, k=k, table=table)


def preimage_counts(reduced: ReducedMap) -> tuple[int, ...]:
    """Fiber sizes indexed by codomain residue; they sum to the domain size."""
    return tuple(_fiber_sizes(reduced.table, reduced.p ** reduced.codomain_exponent))


def _fiber_sizes(residues: Iterable[int], size: int) -> list[int]:
    counts = [0] * size
    for y in residues:
        counts[y] += 1
    return counts


@dataclass(frozen=True)
class MeasureVerdict:
    """Outcome of the fiber-size criterion through ``k_max``.

    ``histograms`` collapses each level's fiber sizes to sorted
    (fiber_size, how_many_points) pairs; a measure-preserving subject
    shows a single pair (p^n, codomain size) at every level.
    """

    passed: bool
    p: int
    n: int
    k_max: int
    expected_fiber: int
    first_failing_level: int | None
    histograms: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


def is_measure_preserving_upto(
    f: FunctionOracle, k_max: int, budget: int = DEFAULT_BUDGET
) -> MeasureVerdict:
    """Check that every level-k fiber has exactly p^delay points, k = 2..k_max.

    This witnesses the criterion through k_max only; the full criterion
    quantifies over every level.  One table serves every level: the
    level-k_max reduction is evaluated once, after its size is checked
    against the budget, and level k counts the fibers of its entries
    mod p^codomain over the prefix x < p^domain.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    top = reduce_map(f, k_max, budget).table
    expected = f.p ** f.delay
    histograms = []
    first_fail = None
    for k in range(2, k_max + 1):
        dom, cod = level_exponents(f.delay, k)
        size = f.p ** cod
        level = islice(top, f.p ** dom)
        counts = _fiber_sizes(level if k == k_max else map(size.__rmod__, level), size)
        collapsed = tuple(sorted(Counter(counts).items()))
        histograms.append((k, collapsed))
        if first_fail is None and collapsed != ((expected, size),):
            first_fail = k
    return MeasureVerdict(
        passed=first_fail is None,
        p=f.p,
        n=f.delay,
        k_max=k_max,
        expected_fiber=expected,
        first_failing_level=first_fail,
        histograms=tuple(histograms),
    )


def endomap(
    f: FunctionOracle, k: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, ...]:
    """The level-k self-map table on Z/p^endomap_exponent(n, k).

    Entry x is f evaluated at the zero-extension of x, reduced back to
    the same level.
    """
    e = endomap_exponent(f.delay, k)
    _check_budget(f.p, e, budget)
    return tuple(f.values(e, f.p ** e))


@dataclass(frozen=True)
class CycleReport:
    """Functional-graph decomposition of a finite self-map.

    Every point of ``table`` eventually falls onto exactly one of the
    listed cycles; ``transient_count`` is the number of points not on any
    cycle.  Cycles are listed in ascending order of their minimal element
    and each starts at that element.
    """

    level: int
    cycles: tuple[tuple[int, ...], ...]
    transient_count: int


def cycles(table: tuple[int, ...], level: int = 0) -> CycleReport:
    """Decompose a self-map table (rho shapes allowed, not a permutation)."""
    size = len(table)
    # 0 = unvisited, 1 = on the current walk, 2 = settled
    state = bytearray(size)
    found: list[tuple[int, ...]] = []
    for start in range(size):
        if state[start]:
            continue
        path = []
        x = start
        while state[x] == 0:
            state[x] = 1
            path.append(x)
            x = table[x]
        if state[x] == 1:
            # closed a new cycle inside the current walk
            cycle = path[path.index(x):]
            lo = cycle.index(min(cycle))
            found.append(tuple(cycle[lo:] + cycle[:lo]))
        for y in path:
            state[y] = 2
    found.sort(key=lambda c: c[0])
    cyclic = sum(len(c) for c in found)
    return CycleReport(
        level=level, cycles=tuple(found), transient_count=size - cyclic
    )


@dataclass(frozen=True)
class CycleVerdict:
    """Unique-cycle witness through ``k_max`` under the zero-extension lift."""

    passed: bool
    p: int
    n: int
    k_max: int
    first_failing_level: int | None
    cycle_counts: tuple[tuple[int, int], ...]  # (level, number of cycles)


def unique_cycle_upto(
    f: FunctionOracle, k_max: int, budget: int = DEFAULT_BUDGET
) -> CycleVerdict:
    """Check that the level-k self-map has exactly one cycle, k = 1..k_max.

    One table serves every level: the level-k_max self-map is evaluated
    once, after its size is checked against the budget, and level k reads
    its table as those entries mod p^e over the prefix x < p^e.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    top = endomap(f, k_max, budget)
    counts = []
    first_fail = None
    for k in range(1, k_max + 1):
        size = f.p ** endomap_exponent(f.delay, k)
        table = top if k == k_max else list(map(size.__rmod__, islice(top, size)))
        found = len(cycles(table, level=k).cycles)
        counts.append((k, found))
        if first_fail is None and found != 1:
            first_fail = k
    return CycleVerdict(
        passed=first_fail is None,
        p=f.p,
        n=f.delay,
        k_max=k_max,
        first_failing_level=first_fail,
        cycle_counts=tuple(counts),
    )
