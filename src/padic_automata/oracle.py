"""Uniform function-oracle interface for maps on the p-adic integers.

An oracle answers "f(x) mod p^m given x mod p^(m+n)", where n is the
declared delay (n = 0 for synchronous / 1-Lipschitz maps), as one table:
f(x) mod p^m for the canonical residues x = 0, 1, ... of Z/p^(m+n).
Every provider's ``table`` returns it as a new list, already reduced, the
residues in [0, p^m), and ``values`` hands that list on without a copy.
``value`` reads a single residue off that table after canonicalizing x
modulo p^(m+n), so every answer is the one at the zero-extended canonical
representative.  For a genuine n-unit delay map the answer is independent
of that choice, and such an oracle says so (``lipschitz``, a field its
provider sets); the level checks read any other oracle at that
representative, level by level.
"""

from __future__ import annotations

import operator
from itertools import chain, islice, repeat
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import check_budget

__all__ = ["FunctionOracle"]


class _OracleFields(NamedTuple):
    p: int
    delay: int
    source: str
    table: Callable[[int, int], list[int]]
    entry_cost: int = 1
    lipschitz: bool = False


class FunctionOracle(_OracleFields):
    """Evaluator for f: Z_p -> Z_p with an n-unit output delay.

    ``source`` records provenance ("transducer", "mahler-series" or
    "built-in").  ``table(m, count)`` returns the residues f(0) mod p^m,
    ..., f(count-1) mod p^m, each in [0, p^m), count <= p^(m+delay), as
    a new list that no one else holds, which :meth:`values` returns after
    its checks; it is the oracle's one route.
    ``entry_cost`` is the charge of one table entry in budget units: 1,
    or the support of a series, whose table is charged entries x terms
    (a fixed rule, not the build's work).  Every level-by-level check
    reads its tables from :meth:`levels`, which gates and builds the top
    table and reads the lower ones off it.
    ``lipschitz`` says whether the oracle is known to be a genuine delay-n
    map: x == y (mod p^(m+n)) gives f(x) == f(y) (mod p^m) for every m, so
    p^n f is 1-Lipschitz.  It is a field the provider sets: True for
    machine oracles (whose walks check every step's phase), the shift,
    zero and polynomial built-ins, and a series oracle whose stored
    coefficients meet the delay floors; False, the default, for any other
    oracle.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace too runs __new__

    def __new__(cls, *args, **kwargs) -> "FunctionOracle":
        self = super().__new__(cls, *args, **kwargs)
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        return self

    def value(self, x: int, m: int) -> int:
        """f(x) mod p^m, from x known modulo p^(m + delay): one table entry."""
        x %= self.p ** (m + self.delay)
        return self.values(m, x + 1)[x]

    def values(self, m: int, count: int) -> list[int]:
        """f(x) mod p^m for the canonical residues x = 0 .. count-1."""
        if m < 1:
            raise ValueError(f"output precision must be >= 1, got {m}")
        if count > self.p ** (m + self.delay):
            raise ValueError(
                f"count {count} exceeds the residue domain p^(m+delay)"
            )
        return self.table(m, count)

    def levels(
        self, shapes: Sequence[tuple[int, int]], budget: int, what: str
    ) -> Iterator[list[int]]:
        """The level tables x -> f(x) mod p^c over x < p^d, one per shape
        (d, c), the shapes in ascending order.

        Only the last table is evaluated, by one ``values`` call made before
        this returns, after its p^d entries times ``entry_cost`` are checked
        against ``budget``.  Each earlier table is its prefix x < p^d reduced
        mod p^c, which the oracle contract makes the answer at that shape;
        it is built when it is read, so only the last one is held throughout.
        """
        top, cost = self.p ** shapes[-1][0], self.entry_cost
        what = what if cost == 1 else f"additions for {top} {what} at {cost} terms each"
        check_budget(top * cost, budget, what)
        table = self.values(shapes[-1][1], top)
        lower = (list(map(operator.mod, islice(table, self.p ** d), repeat(self.p ** c)))
                 for d, c in shapes[:-1])
        return chain(lower, [table])
