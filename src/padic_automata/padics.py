"""Primes, exact integer logarithms and valuations of residues.

A residue in Z/p^K is a plain integer in [0, p^K); its K base-p digits
are read least significant first.  Everything here is exact integer
arithmetic, no floats anywhere.
"""

from __future__ import annotations

__all__ = ["floor_log", "is_prime", "valuation"]


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def floor_log(base: int, i: int) -> int:
    """Largest e >= 0 with base**e <= i, by exact integer arithmetic.

    Requires base >= 2 and i >= 1.  Never touches floating point: the
    off-by-one hazards of float log are exactly what this avoids.
    """
    if base < 2:
        raise ValueError(f"floor_log base must be >= 2, got {base}")
    if i < 1:
        raise ValueError(f"floor_log argument must be >= 1, got {i}")
    e = 0
    power = base
    while power <= i:
        e += 1
        power *= base
    return e


def valuation(p: int, precision: int, v: int) -> int | None:
    """p-adic valuation of v seen through its ``precision`` lowest digits.

    The index of the first nonzero base-p digit of v mod p^precision, or
    None when all those digits are zero (the valuation is then only known
    to be at least ``precision``).
    """
    v %= p ** precision
    if v == 0:
        return None
    nu = 0
    while v % p == 0:
        v //= p
        nu += 1
    return nu
