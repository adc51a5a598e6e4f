"""Uniform function-oracle interface for maps on the p-adic integers.

An oracle answers "f(x) mod p^m given x mod p^(m+n)", where n is the
declared delay (n = 0 for synchronous / 1-Lipschitz maps).  Arguments are
plain residues; ``value`` canonicalizes x modulo p^(m+n) first, so every
query is answered at the zero-extended canonical representative.  For a
genuine n-unit delay map the answer is independent of that choice; the
canonicalization makes the oracle total and deterministic even when fed
a subject that only claims to be one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = ["FunctionOracle"]


@dataclass(frozen=True)
class FunctionOracle:
    """Evaluator for f: Z_p -> Z_p with an n-unit output delay.

    ``source`` records provenance ("transducer", "mahler-series" or
    "built-in").  ``_fn(x, m)`` receives the canonical representative
    x in [0, p^(m+delay)) and must return f(x) mod p^m.  An optional
    ``_bulk(m, count)`` yields f(0), ..., f(count-1) mod p^m, as an
    iterable read once, for backers with a faster whole-table path;
    consistency of the two routes is property-tested.
    """

    p: int
    delay: int
    source: str
    _fn: Callable[[int, int], int] = field(compare=False, repr=False)
    _bulk: Callable[[int, int], Iterable[int]] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")

    def value(self, x: int, m: int) -> int:
        """f(x) mod p^m, from x known modulo p^(m + delay)."""
        if m < 1:
            raise ValueError(f"output precision must be >= 1, got {m}")
        x = x % self.p ** (m + self.delay)
        out = self._fn(x, m)
        return out % self.p ** m

    def values(self, m: int, count: int) -> list[int]:
        """f(x) mod p^m for the canonical residues x = 0 .. count-1."""
        if m < 1:
            raise ValueError(f"output precision must be >= 1, got {m}")
        if count > self.p ** (m + self.delay):
            raise ValueError(
                f"count {count} exceeds the residue domain p^(m+delay)"
            )
        if self._bulk is not None:
            mod = self.p ** m
            return list(map(mod.__rmod__, self._bulk(m, count)))
        return [self.value(x, m) for x in range(count)]
