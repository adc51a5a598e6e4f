"""Primes and valuations of residues.

A residue in Z/p^K is a plain integer in [0, p^K); its K base-p digits
are read least significant first.  Everything here is exact integer
arithmetic, no floats anywhere.
"""

from __future__ import annotations

__all__ = ["is_prime", "valuation"]


# Miller-Rabin with the first 13 primes as bases decides primality
# exactly below this bound (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Whether p is prime, decided exactly by deterministic Miller-Rabin.

    :class:`ValueError` is raised for p at or above 3.3 * 10^24, where
    the fixed bases no longer decide it.
    """
    if p >= _MR_BOUND:
        raise ValueError(f"cannot decide whether {p} is prime: it is not below {_MR_BOUND}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


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
