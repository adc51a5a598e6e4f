"""Finitely supported Mahler series and the coefficient-condition checks.

Any continuous map on the p-adic integers expands as f(x) = sum_i a_i C(x, i)
with C(x, i) the binomial-coefficient polynomials; the coefficients are
recovered from point values by inverse forward differences.  This module
keeps the series finitely supported (indices beyond the stored block are
exactly zero), which makes the three delay / measure-preservation /
ergodicity coefficient conditions finitely decidable.

Each per-index condition is a congruence a ≡ 0 (mod p^r) (equivalently a
valuation bound) or a unit condition a ≢ 0 (mod p).  Coefficients are
stored as plain integers mod p^K, so a congruence with r <= K is exactly
decidable; r > K is decidable only when some digit below K is nonzero
(then the true valuation is known exactly and the check certainly fails).
The remaining cases are reported as insufficient precision, never guessed.
"""

from __future__ import annotations

import enum
import math
import operator
import struct
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

from .errors import PrecisionError
from .oracle import FunctionOracle
from .padics import is_prime, valuation

__all__ = [
    "CoefficientCheck",
    "CheckStatus",
    "ConditionReport",
    "MahlerSeries",
    "check_delay_conditions",
    "check_ergodicity_conditions",
    "check_measure_preserving_conditions",
    "coeffs_from_oracle",
    "series_oracle",
]


class _SeriesFields(NamedTuple):
    p: int
    n: int
    precision: int
    coeffs: tuple[int, ...]


class MahlerSeries(_SeriesFields):
    """Coefficients a_0 .. a_{M-1} at a common precision, zero beyond.

    ``n`` is the declared output delay of the map the series represents
    (0 = synchronous).  Coefficients are residues in [0, p^precision);
    indices at or past the support are exactly zero, not truncations.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace too runs __new__

    def __new__(cls, *args, **kwargs) -> "MahlerSeries":
        self = super().__new__(cls, *args, **kwargs)
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.n < 0:
            raise ValueError(f"delay must be >= 0, got {self.n}")
        if self.precision < 1:
            raise ValueError(f"precision must be >= 1, got {self.precision}")
        if not self.coeffs:
            raise ValueError("a series needs at least one coefficient")
        mod = self.p ** self.precision
        for a in self.coeffs:
            if not 0 <= a < mod:
                raise ValueError(f"coefficient {a} outside [0, {self.p}^{self.precision})")
        return self

    @classmethod
    def from_ints(
        cls, p: int, n: int, precision: int, values: Iterable[int]
    ) -> "MahlerSeries":
        """The series of the canonical residues of ``values``, negatives allowed."""
        mod = p ** precision
        return cls(p=p, n=n, precision=precision, coeffs=tuple(v % mod for v in values))

    @property
    def support(self) -> int:
        return len(self.coeffs)

    def coefficient_values(self) -> tuple[int, ...]:
        """``coeffs``, as the benchmark's planted-coefficient test reads them."""
        return self.coeffs


def coeffs_from_oracle(f: FunctionOracle, count: int, precision: int) -> MahlerSeries:
    """First ``count`` coefficients, by forward differences.

    a_i = (Delta^i f)(0) = sum_{j<=i} (-1)^(i-j) C(i, j) f(j), an integer
    combination of the residues f(j) mod p^precision, hence well defined
    mod p^precision; each difference row is reduced mod p^precision.  One
    oracle table gives f(j), read at the canonical residue j mod p^(K+n).
    """
    if count < 1:
        raise ValueError(f"coefficient count must be >= 1, got {count}")
    mod, size = f.p ** precision, f.p ** (precision + f.delay)
    table = f.values(precision, min(count, size))
    row = [table[j % size] for j in range(count)]
    coeffs = []
    while row:
        coeffs.append(row[0])
        row = [(b - a) % mod for a, b in zip(row, row[1:])]
    return MahlerSeries(p=f.p, n=f.delay, precision=precision, coeffs=tuple(coeffs))


def series_oracle(series: MahlerSeries) -> FunctionOracle:
    """The series as a function oracle at its declared delay.

    Since sum_x C(x, j) X^x = X^j / (1 - X)^(j+1), the values of
    f = sum_j a_j C(x, j) are the coefficients of P(X) / (1 - X)^M with
    P(X) = sum_j a_j X^j (1 - X)^(M-1-j), of degree < M, that is of
    P(X) * sum_x C(x + M - 1, M - 1) X^x.  The table f(0), ..., f(N-1) is
    built in blocks of B entries that share one column C(x + M - 1, M - 1)
    over x < B.  The first block is P mod X^B times the column.  Since
    (1 - X)^M sum_x f(x) X^x = P has degree < M <= B, the block at s >= B
    is the column times
    P_s[i] = -sum_{l=i+1..M} (-1)^l C(M, l) f(s + i - l),
    coefficients M .. 2M-1 of the M values before s times -(1 - X)^M.
    B is the least power of p that is >= M and >= 8 sqrt(N), capped at N
    (then there is one block and one product), so the column, a
    Python-level rolling product, costs B steps instead of N; measured
    optima were B = 512 to 1024 at N = 2^13 to 2^14 and 729 at N = 3^8.
    A query for N values mod p^m builds at q = p^e, e = min(precision,
    max(m, d)) with p^d the least power of p that is >= N: a level table
    needs no more digits than its domain has, so a fiber query
    (p^(nk), n(k - 1)) builds at p^(nk) and the cycle query (p^(nk), nk)
    that follows reads the same table.  Every factor is reduced mod q and
    packed into an integer, one slot of w bytes per coefficient (Kronecker
    substitution).  Every product coefficient is a sum of at most M terms
    below q^2 (M values meet at most M of the M + 1 terms of (1 - X)^M);
    w is sized with a margin, (M + 1)(q - 1)^2 < 2^(8 w), so no slot
    carries into the next.
    The oracle keeps the products' slot bytes, w little-endian bytes per
    entry whose sum is == f(x) (mod q), not an int per entry.  One
    reader turns a run of slots into residues mod p^m: at p = 2 and
    m <= 64 it takes the low m bits of each slot, and otherwise it reads
    each slot whole and reduces it.  Every query reads its prefix mod p^m
    through it, and each block reads the M values before it and its P_s
    slots mod q.  The oracle rebuilds when a longer table or a larger m is
    asked for, keeping the length and never lowering e.  The budget counts
    the build as N * M, the oracle's
    ``entry_cost`` of ``support`` per entry.
    The oracle is ``lipschitz`` when every stored a_i, i >= 1, is a multiple
    of p^(floor_log(p, i) - n), the floors of :func:`check_delay_conditions`,
    since the table sums these integers times C(x, i); it reads them from
    the same block generator as the three checks.  It is decided once, when
    the oracle is built.
    """
    p, coeffs, terms = series.p, series.coeffs, series.support
    table, width, kept = bytearray(), 1, 0  # slots of width bytes, each == f(x) (mod p^kept)

    def build(m: int, count: int) -> list[int]:
        nonlocal table, width, kept
        if m > series.precision:
            raise PrecisionError(
                f"series precision {series.precision} cannot answer mod p^{m}"
            )
        if count and (count > len(table) // width or m > kept):
            size, e = max(count, len(table) // width), max(m, kept)
            while e < series.precision and p ** e < size:
                e += 1
            q, kept = p ** e, e
            width = -(-((terms + 1) * (q - 1) ** 2).bit_length() // 8)
            block = 1
            while block < terms or block * block < 64 * size:
                block *= p
            block = min(block, size)
            poly = [coeffs[0] % q]
            for a in coeffs[1:]:  # (1 - X) poly + a X^j, mod X^block
                x_poly = [0] + poly[:block - 1]
                poly = list(map(operator.mod, map(operator.sub, poly + [a], x_poly), repeat(q)))
            c = 1
            column = _packed([1] + [(c := c * (x + terms - 1) // x) % q
                                    for x in range(1, block)], width)
            step = _packed([(-1) ** (l + 1) * math.comb(terms, l) % q  # -(1 - X)^M
                            for l in range(terms + 1)], width) if block < size else 0
            table = bytearray()
            for s in range(0, size, block):
                if s:  # P_s from the M values before s
                    window = list(_residues(table, width, s - terms, s, p, e))
                    product = (_packed(window, width) * step).to_bytes(2 * terms * width, "little")
                    poly = list(_residues(product, width, terms, 2 * terms, p, e))
                product = (_packed(poly, width) * column).to_bytes(
                    (len(poly) + block - 1) * width, "little")
                table += memoryview(product)[:min(block, size - s) * width]
        return list(_residues(table, width, 0, count, p, m))

    lipschitz = not any(e > 0 and any(map((p ** e).__rmod__, coeffs[low:high]))
                        for low, high, e in _floor_blocks(p, series.n, 0, 1, terms))
    return FunctionOracle(p=series.p, delay=series.n, source="mahler-series", table=build,
                          entry_cost=terms, lipschitz=lipschitz)


def _packed(values: list[int], width: int) -> int:
    """sum_i values[i] 2^(8 width i), each value below 2^(8 width)."""
    if width > 8:
        return int.from_bytes(b"".join(map(int.to_bytes, values, repeat(width),
                                           repeat("little"))), "little")
    wide = struct.pack(f"<{len(values)}Q", *values)  # little-endian on any host
    if width < 8:  # narrow each slot to its width
        narrow = bytearray(width * len(values))
        for b in range(width):
            narrow[b::width] = wide[b::8]
        wide = narrow
    return int.from_bytes(wide, "little")


_LOW_BITS = [bytes(range(1 << r)) * (256 >> r) for r in range(8)]  # byte -> its low r bits
_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct codes by size, "<" sizes


def _residues(raw: bytes | bytearray, width: int, start: int, stop: int,
              p: int, m: int) -> Iterable[int]:
    """Slots start .. stop-1 of ``raw``, ``width`` little-endian bytes each,
    reduced mod p^m.

    At p = 2 and m <= 64 each residue is the low m bits of its slot: its
    low bytes are copied into words and the bits at and above m cleared, so
    no slot becomes an int before it is reduced.  Otherwise each slot is
    read whole, into a word or an int, and reduced.
    """
    count, offset = stop - start, width * start
    if p == 2 and m <= 64:
        low, bits = -(-m // 8), m % 8
    elif width <= 8:
        low, bits = width, 0
    else:
        sums = map(int.from_bytes, struct.unpack_from(f"{width}s" * count, raw, offset),
                   repeat("little"))
        return map(operator.mod, sums, repeat(p ** m))
    size = 1 << (low - 1).bit_length()  # a word of 1, 2, 4 or 8 bytes
    if size == width and not bits:  # every slot is a word already
        words = struct.unpack_from(f"<{count}{_WORDS[size]}", raw, offset)
    else:
        wide = bytearray(size * count)
        for b in range(low):
            wide[b::size] = raw[offset + b : width * stop : width]
        if bits:
            wide[low - 1::size] = wide[low - 1::size].translate(_LOW_BITS[bits])
        words = struct.unpack(f"<{count}{_WORDS[size]}", wide)
    return words if p == 2 and m <= 64 else map(operator.mod, words, repeat(p ** m))


class CheckStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INSUFFICIENT = "insufficient-precision"


class CoefficientCheck(NamedTuple):
    """One decided congruence: the quantity at ``index`` needs valuation
    >= ``required`` ("unit" checks instead need valuation exactly 0).

    ``observed`` is the valuation seen through the K stored digits, None
    when every stored digit is zero.
    """

    index: int
    label: str
    required: int
    observed: int | None
    status: CheckStatus


class ConditionReport(NamedTuple):
    """Per-index diagnostics plus the combined verdict.

    The verdict is FAIL if any single check certainly fails (a conjunction
    with a false member is false regardless of the undecided ones),
    INSUFFICIENT if nothing failed but some check could not be decided at
    this precision, and PASS otherwise.
    """

    which: str
    checks: tuple[CoefficientCheck, ...]

    @property
    def verdict(self) -> CheckStatus:
        statuses = {c.status for c in self.checks}
        if CheckStatus.FAIL in statuses:
            return CheckStatus.FAIL
        if CheckStatus.INSUFFICIENT in statuses:
            return CheckStatus.INSUFFICIENT
        return CheckStatus.PASS

    @property
    def passed(self) -> bool:
        return self.verdict is CheckStatus.PASS


def _floor_blocks(
    p: int, n: int, c: int, start: int, stop: int
) -> Iterator[tuple[int, int, int]]:
    """The floor v(a_i) >= floor_log(p, i) - n + c over start <= i < stop.

    Yields (low, high, e) for each block [p^j, p^(j+1)) cut to [start,
    stop): every index low <= i < high has floor_log(p, i) = j and the
    floor e = j - n + c.  c = 0 gives the delay floors, c = 1 the tail of
    the measure-preservation and ergodicity conditions.
    """
    low, e = 1, c - n
    while low < stop:
        high = low * p
        if high > start:
            yield max(low, start), min(high, stop), e
        low, e = high, e + 1


def _check(
    index: int, label: str, value: int, floor: int, p: int, precision: int
) -> CoefficientCheck:
    """One row: v(value) >= ``floor``."""
    observed = valuation(p, precision, value)
    if floor <= 0 or observed is None and floor <= precision:
        status = CheckStatus.PASS  # a zero residue certifies valuation >= precision
    elif observed is None:
        status = CheckStatus.INSUFFICIENT
    else:  # a nonzero digit pins the true valuation exactly
        status = CheckStatus.PASS if observed >= floor else CheckStatus.FAIL
    return CoefficientCheck(index, label, floor, observed, status)


def _unit(series: MahlerSeries, index: int) -> CoefficientCheck:
    """One row: a_index is a unit (an index at or past the support is zero)."""
    observed = valuation(series.p, series.precision,
                         series.coeffs[index] if index < series.support else 0)
    return CoefficientCheck(index, f"a_{index}", 0, observed,
                            CheckStatus.PASS if observed == 0 else CheckStatus.FAIL)


def _conditions(
    series: MahlerSeries, which: str, head: list[CoefficientCheck],
    start: int, c: int, shift: int,
) -> ConditionReport:
    """The report ``which``: the ``head`` rows, then v(a_i) >=
    floor_log(p, i + ``shift``) - n + c for every supported i >= ``start``.
    """
    p, n, precision = series.p, series.n, series.precision
    checks = list(head)
    for low, high, e in _floor_blocks(p, n, c, start + shift, series.support + shift):
        checks += (_check(i, f"a_{i}", series.coeffs[i], e, p, precision)
                   for i in range(low - shift, high - shift))
    return ConditionReport(which, tuple(checks))


def check_delay_conditions(series: MahlerSeries) -> ConditionReport:
    """Coefficient floors under which the series realizes its declared delay:
    valuation(a_i) >= floor_log(p, i) - n for every supported i >= 1.

    The binomial C(x, i) moves p-adic distances by at most a factor
    p^floor_log(p, i): v(C(x, i) - C(y, i)) >= v(x - y) - floor_log(p, i).
    If x ≡ y (mod p^(m+n)), each term a_i (C(x, i) - C(y, i)) then has
    valuation >= (floor_log(p, i) - n) + (m + n) - floor_log(p, i) = m, so
    inputs agreeing on m + n digits give outputs agreeing on m.  Indices
    below p^(n+1) demand nothing (the floor is <= 0 there).  The floors are
    necessary too, at every p and n: at n = 0 the check decides 1-Lipschitz.
    """
    return _conditions(series, "delay", [], 1, 0, 0)


def check_measure_preserving_conditions(series: MahlerSeries) -> ConditionReport:
    """Coefficient conditions for measure preservation of a delay-n map:
    a_{p^n} is a unit, and a_i ≡ 0 (mod p^(floor_log(p, i) - n + 1)) past
    p^n.

    The tail floor counts the base-p digits of i.  Write x = r + t p^(m+n-1)
    with 0 <= r < p^(m+n-1): under these floors every term but
    a_{p^n} C(x, p^n) is, mod p^m, a function of r alone, while
    C(x, p^n) == C(r, p^n) + t p^(m-1) (mod p^m).  So the p lifts of r land
    on the p lifts of one residue mod p^(m-1), and the fibers of
    Z/p^(m+n) -> Z/p^m are those of Z/p^(m+n-1) -> Z/p^(m-1): p^n at every
    m.  At n = 0 these are Anashin's conditions (Math. Notes 55, 1994),
    necessary and sufficient at p = 2 and only sufficient at odd p, where a
    FAIL means "conditions not met", as at n >= 1.

    A support that ends at or before index p^n fails the unit condition
    outright (that coefficient is exactly zero).
    """
    q = series.p ** series.n
    return _conditions(series, "measure-preserving", [_unit(series, q)], q + 1, 1, 0)


def check_ergodicity_conditions(series: MahlerSeries) -> ConditionReport:
    """Coefficient conditions for ergodicity of a delay-n map: at n >= 1,
    a_1 + ... + a_{p^n - 1} ≡ 0 (mod p), a_{p^n} ≡ 1 (mod p) and the tail
    floors of :func:`check_measure_preserving_conditions` past p^n; at n = 0,
    Anashin's a_0 a unit, a_1 ≡ 1 (mod p, mod 4 at p = 2) and v(a_i) >=
    floor_log(p, i + 1) + 1 past 1, necessary and sufficient at p = 2 and
    only sufficient at odd p, where a FAIL means "conditions not met".

    This decides "the conditions hold", not "the map is ergodic"; the
    finite-quotient cycle oracle is the independent witness.
    """
    p, n, precision, q = series.p, series.n, series.precision, series.p ** series.n
    unit_minus_one = series.coeffs[q] - 1 if q < series.support else -1
    first = _unit(series, 0) if n == 0 else _check(
        0, f"a_1 + ... + a_{q - 1}" if q > 2 else "a_1", sum(series.coeffs[1:q]), 1, p, precision)
    last = _check(q, f"a_{q} - 1", unit_minus_one, 2 if n == 0 and p == 2 else 1, p, precision)
    return _conditions(series, "ergodic", [first, last], q + 1, 1, 1 if n == 0 else 0)
