"""Finitely supported Mahler series and the coefficient-condition checks.

Any continuous map on the p-adic integers expands as f(x) = sum_i a_i C(x, i)
with C(x, i) the binomial-coefficient polynomials; the coefficients are
recovered from point values by inverse forward differences.  This module
keeps the series finitely supported (indices beyond the stored block are
exactly zero), which makes the three delay / measure-preservation /
ergodicity coefficient conditions finitely decidable.

Each per-index condition is a congruence a ≡ 0 (mod p^r) (equivalently a
valuation bound) or a unit condition a ≢ 0 (mod p).  With coefficients
stored as K-digit residues, a congruence with r <= K is exactly decidable;
r > K is decidable only when some digit below K is nonzero (then the true
valuation is known exactly and the check certainly fails).  The remaining
cases are reported as insufficient precision, never guessed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterable

from .errors import PrecisionError
from .oracle import FunctionOracle
from .padics import PadicInt, binomial_precision_demand, floor_log, is_prime, make

__all__ = [
    "CoefficientCheck",
    "CheckStatus",
    "ConditionReport",
    "MahlerSeries",
    "check_delay_conditions",
    "check_ergodicity_conditions",
    "check_measure_preserving_conditions",
    "coeffs_from_oracle",
    "eval_series",
    "series_oracle",
]


@dataclass(frozen=True)
class MahlerSeries:
    """Coefficients a_0 .. a_{M-1} at a common precision, zero beyond.

    ``n`` is the declared output delay of the map the series represents
    (0 = synchronous).  Coefficients are residues mod p^K; indices at or
    past the support are exactly zero, not truncations.
    """

    p: int
    n: int
    coeffs: tuple[PadicInt, ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.n < 0:
            raise ValueError(f"delay must be >= 0, got {self.n}")
        if not self.coeffs:
            raise ValueError("a series needs at least one coefficient")
        k = self.coeffs[0].precision
        for a in self.coeffs:
            if a.p != self.p:
                raise ValueError(f"coefficient prime {a.p} != series prime {self.p}")
            if a.precision != k:
                raise ValueError("coefficients must share one precision")

    @classmethod
    def from_ints(
        cls, p: int, n: int, precision: int, values: Iterable[int]
    ) -> "MahlerSeries":
        coeffs = tuple(PadicInt(p, precision, v % p ** precision) for v in values)
        return cls(p=p, n=n, coeffs=coeffs)

    @property
    def precision(self) -> int:
        return self.coeffs[0].precision

    @property
    def support(self) -> int:
        return len(self.coeffs)

    def coefficient_values(self) -> tuple[int, ...]:
        return tuple(a.value for a in self.coeffs)


def coeffs_from_oracle(f: FunctionOracle, count: int, precision: int) -> MahlerSeries:
    """First ``count`` coefficients, by forward differences.

    a_i = (Delta^i f)(0) = sum_{j<=i} (-1)^(i-j) C(i, j) f(j), an integer
    combination of the residues f(j) mod p^precision, hence well defined
    mod p^precision; each difference row is reduced mod p^precision.
    """
    if count < 1:
        raise ValueError(f"coefficient count must be >= 1, got {count}")
    mod = f.p ** precision
    row = [f.value(j, precision) for j in range(count)]
    coeffs = []
    while row:
        coeffs.append(PadicInt(f.p, precision, row[0]))
        row = [(b - a) % mod for a, b in zip(row, row[1:])]
    return MahlerSeries(p=f.p, n=f.delay, coeffs=tuple(coeffs))


def eval_series(series: MahlerSeries, x: PadicInt, m: int) -> PadicInt:
    """Exact sum of the supported terms, reduced mod p^m.

    ``x`` must carry enough digits for the highest supported binomial; the
    coefficients must carry at least m digits.
    """
    if x.p != series.p:
        raise ValueError(f"mismatched primes {x.p} and {series.p}")
    if m < 1:
        raise ValueError(f"output precision must be >= 1, got {m}")
    if m > series.precision:
        raise PrecisionError(
            f"series coefficients carry {series.precision} digits; "
            f"cannot evaluate mod p^{m}"
        )
    top = series.support - 1
    demand = binomial_precision_demand(series.p, top, m)
    if x.precision < demand:
        raise PrecisionError(
            f"evaluating through index {top} mod p^{m} needs {demand} digits "
            f"of x, only {x.precision} known"
        )
    mod = series.p ** m
    acc = 0
    for i, a in enumerate(series.coeffs):
        acc = (acc + a.value * math.comb(x.value, i)) % mod
    return PadicInt(series.p, m, acc)


def series_oracle(series: MahlerSeries) -> FunctionOracle:
    """The series as a function oracle at its declared delay.

    Queries evaluate the supported terms exactly at the canonical
    representative of x mod p^(m+n).  The bulk route builds the table of
    f(0), f(1), ... by iterated prefix sums: with g_{M-1} = a_{M-1} and
    g_i(x) = a_i + sum_{y<x} g_{i+1}(y), the identity
    sum_{y<x} C(y, j) = C(x, j+1) gives g_0(x) = sum_j a_j C(x, j) = f(x).
    Each pass runs in ``itertools.accumulate`` and is reduced mod
    p^precision.  The oracle keeps that table and rebuilds it only when a
    longer one is asked for; every bulk query at m <= precision reads it.
    """
    coeff_values = series.coefficient_values()
    p, mod = series.p, series.p ** series.precision
    table: list[int] = []

    def require(m: int) -> None:
        if m > series.precision:
            raise PrecisionError(
                f"series precision {series.precision} cannot answer mod p^{m}"
            )

    def at_point(x: int, m: int) -> int:
        require(m)
        return sum(a * math.comb(x, i) for i, a in enumerate(coeff_values)) % p ** m

    def bulk(m: int, count: int) -> Iterable[int]:
        nonlocal table
        require(m)
        if count > len(table):
            g = [coeff_values[-1]] * count
            for a in reversed(coeff_values[:-1]):
                g = list(map(mod.__rmod__, accumulate(islice(g, count - 1), initial=a)))
            table = g
        return islice(table, count)

    return FunctionOracle(
        p=p, delay=series.n, source="mahler-series", _fn=at_point, _bulk=bulk
    )


class CheckStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INSUFFICIENT = "insufficient-precision"


@dataclass(frozen=True)
class CoefficientCheck:
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


@dataclass(frozen=True)
class ConditionReport:
    """Per-index diagnostics plus the combined verdict.

    The verdict is FAIL if any single check certainly fails (a conjunction
    with a false member is false regardless of the undecided ones),
    INSUFFICIENT if nothing failed but some check could not be decided at
    this precision, and PASS otherwise.
    """

    which: str
    p: int
    n: int
    precision: int
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


def _min_valuation_check(
    index: int, label: str, value: int, required: int, p: int, precision: int
) -> CoefficientCheck:
    observed = make(p, precision, value).valuation().nu
    if required <= 0:
        status = CheckStatus.PASS
    elif observed is not None:
        # a nonzero digit pins the true valuation exactly
        status = CheckStatus.PASS if observed >= required else CheckStatus.FAIL
    elif required <= precision:
        status = CheckStatus.PASS  # zero residue certifies valuation >= precision
    else:
        status = CheckStatus.INSUFFICIENT
    return CoefficientCheck(index, label, required, observed, status)


def _unit_check(
    index: int, label: str, value: int, p: int, precision: int, exact_zero: bool
) -> CoefficientCheck:
    observed = None if exact_zero else make(p, precision, value).valuation().nu
    ok = observed == 0
    return CoefficientCheck(
        index, label, 0, observed, CheckStatus.PASS if ok else CheckStatus.FAIL
    )


def _report(
    which: str, series: MahlerSeries, checks: list[CoefficientCheck]
) -> ConditionReport:
    return ConditionReport(which, series.p, series.n, series.precision, tuple(checks))


def _require_delay(series: MahlerSeries, which: str) -> None:
    if series.n < 1:
        raise ValueError(
            f"the {which} conditions are stated for delay n >= 1; "
            f"this series declares n = {series.n}"
        )


def check_delay_conditions(series: MahlerSeries) -> ConditionReport:
    """Coefficient bounds under which the series realizes its declared delay:
    valuation(a_i) >= floor_log(p^n, i) - 1 for every supported i >= 1.

    Indices below p^(2n) demand nothing (the bound is <= 0 there).  At
    n >= 2 this bound is weaker than genuine delay-n digit dependence
    needs; see README Known finding 2 and the delay-dependence tests.
    """
    _require_delay(series, "delay")
    checks = []
    q = series.p ** series.n
    for i in range(1, series.support):
        required = floor_log(q, i) - 1
        checks.append(
            _min_valuation_check(
                i, f"a_{i}", series.coeffs[i].value, required, series.p,
                series.precision,
            )
        )
    return _report("delay", series, checks)


def _tail_checks(series: MahlerSeries) -> list[CoefficientCheck]:
    """v(a_i) >= floor_log(p, i) - n + 1 for every supported i > p^n.

    The floor counts the base-p digits of i.  Write x = r + t p^(m+n-1)
    with 0 <= r < p^(m+n-1): under these floors every term but
    a_{p^n} C(x, p^n) is, mod p^m, a function of r alone, while
    C(x, p^n) == C(r, p^n) + t p^(m-1) (mod p^m).  So the p lifts of r land
    on the p lifts of one residue mod p^(m-1), and the fibers of
    Z/p^(m+n) -> Z/p^m are those of Z/p^(m+n-1) -> Z/p^(m-1): p^n at every
    m.  At n = 1 the floor is floor_log(p, i); at n = 0 it would be
    Anashin's floor_log(p, i) + 1 for 1-Lipschitz maps.
    """
    p, n = series.p, series.n
    out = []
    for i in range(p ** n + 1, series.support):
        out.append(
            _min_valuation_check(
                i,
                f"a_{i}",
                series.coeffs[i].value,
                floor_log(p, i) - n + 1,
                p,
                series.precision,
            )
        )
    return out


def check_measure_preserving_conditions(series: MahlerSeries) -> ConditionReport:
    """Coefficient conditions for measure preservation of a delay-n map:
    a_{p^n} is a unit, and a_i ≡ 0 (mod p^(floor_log(p, i) - n + 1)) past
    p^n.

    A support that ends at or before index p^n fails the unit condition
    outright (that coefficient is exactly zero).
    """
    _require_delay(series, "measure-preservation")
    q = series.p ** series.n
    in_support = q < series.support
    unit_value = series.coeffs[q].value if in_support else 0
    checks = [
        _unit_check(
            q, f"a_{q}", unit_value, series.p, series.precision,
            exact_zero=not in_support,
        )
    ]
    checks.extend(_tail_checks(series))
    return _report("measure-preserving", series, checks)


def check_ergodicity_conditions(series: MahlerSeries) -> ConditionReport:
    """Coefficient conditions for ergodicity of a delay-n map:
    a_1 + ... + a_{p^n - 1} ≡ 0 (mod p), a_{p^n} ≡ 1 (mod p), and the
    same tail divisibilities as the measure-preservation check,
    a_i ≡ 0 (mod p^(floor_log(p, i) - n + 1)) past p^n.

    This decides "the conditions hold", not "the map is ergodic"; the
    finite-quotient cycle oracle is the independent witness.
    """
    _require_delay(series, "ergodicity")
    q = series.p ** series.n
    head = sum(a.value for a in series.coeffs[1 : min(q, series.support)])
    checks = [
        _min_valuation_check(
            0,
            f"a_1 + ... + a_{q - 1}" if q > 2 else ("a_1" if q == 2 else "0"),
            head,
            1,
            series.p,
            series.precision,
        )
    ]
    in_support = q < series.support
    unit_minus_one = (series.coeffs[q].value - 1) if in_support else -1
    checks.append(
        _min_valuation_check(
            q, f"a_{q} - 1", unit_minus_one, 1, series.p, series.precision
        )
    )
    checks.extend(_tail_checks(series))
    return _report("ergodic", series, checks)
