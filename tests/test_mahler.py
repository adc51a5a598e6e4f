import math
import random

import pytest

from padic_automata.errors import PrecisionError
from padic_automata.mahler import (
    CheckStatus,
    MahlerSeries,
    check_delay_conditions,
    check_ergodicity_conditions,
    check_measure_preserving_conditions,
    coeffs_from_oracle,
    eval_series,
    series_oracle,
)
from padic_automata.padics import binomial_precision_demand, make
from padic_automata.subjects import (
    odometer_oracle,
    polynomial_oracle,
    shift_oracle,
    zero_oracle,
)

import series_factory as sf


def solve_coefficients(values, p, precision):
    """Independent oracle: forward-substitute a_i from sum_j a_j C(i, j) = f(i).

    The Pascal matrix is lower triangular with unit diagonal, so the
    system solves exactly over Z/p^precision without division.
    """
    mod = p ** precision
    coeffs = []
    for i, fi in enumerate(values):
        acc = fi % mod
        for j, aj in enumerate(coeffs):
            acc = (acc - aj * math.comb(i, j)) % mod
        coeffs.append(acc)
    return coeffs


def test_identity_coefficients():
    series = coeffs_from_oracle(polynomial_oracle(2, [0, 1]), 4, 8)
    assert series.coefficient_values() == (0, 1, 0, 0)


def test_square_coefficients():
    series = coeffs_from_oracle(polynomial_oracle(2, [0, 0, 1]), 4, 8)
    assert series.coefficient_values() == (0, 1, 2, 0)


def test_shift_coefficients_match_triangular_solve():
    K = 8
    shift_values = [j // 2 for j in range(6)]
    expected = solve_coefficients(shift_values, 2, K)
    assert expected == [0, 0, 1, (-2) % 256, 4, (-8) % 256]
    series = coeffs_from_oracle(shift_oracle(2, 1), 6, K)
    assert list(series.coefficient_values()) == expected


def test_eval_examples():
    identity = MahlerSeries.from_ints(2, 0, 8, [0, 1])
    assert eval_series(identity, make(2, 8, 5), 3).value == 5

    shift = coeffs_from_oracle(shift_oracle(2, 1), 7, 8)
    x = make(2, 8, 6)
    assert eval_series(shift, x, 2).value == 3  # floor(6/2) mod 4

    const = MahlerSeries.from_ints(3, 0, 6, [1])
    assert eval_series(const, make(3, 6, 77), 4).value == 1


def test_eval_rejects_short_input():
    shift = coeffs_from_oracle(shift_oracle(2, 1), 7, 8)
    with pytest.raises(PrecisionError):
        eval_series(shift, make(2, 3, 6), 2)  # needs 2 + floor_log2(6) = 4 digits
    with pytest.raises(PrecisionError):
        eval_series(shift, make(2, 8, 6), 9)  # coefficients carry only 8


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("K", [6, 12])
@pytest.mark.parametrize(
    "name,factory",
    [
        ("identity", lambda p: polynomial_oracle(p, [0, 1])),
        ("odometer", lambda p: odometer_oracle(p)),
        ("square-ish", lambda p: polynomial_oracle(p, [3, 2, 1])),
        ("shift", lambda p: shift_oracle(p, 1)),
        ("zero", lambda p: zero_oracle(p, 1)),
    ],
)
def test_round_trip_reproduces_oracle(p, K, name, factory):
    oracle = factory(p)
    M = 10
    series = coeffs_from_oracle(oracle, M, K)
    for j in range(M):
        x = make(p, K + 6, j)
        assert eval_series(series, x, K).value == oracle.value(j, K), (
            f"{name} at {j}"
        )


def test_series_oracle_bulk_matches_pointwise():
    rng = random.Random(11)
    for p, n in sf.ACCEPTANCE_CONFIGS:
        series = sf.unconstrained(rng, p, n, sf.draw_support(rng, p, n))
        oracle = series_oracle(series)
        m = 4
        bulk = oracle.values(m, p ** (m + n))
        assert bulk == [oracle.value(x, m) for x in range(p ** (m + n))]


def _small_precision(p, n):
    """Largest precision whose full residue domain p^(K+n) stays <= 256."""
    k = 1
    while p ** (k + 1 + n) <= 256:
        k += 1
    return k


def _exact_table(series, m, count):
    """f(0) .. f(count-1) mod p^m by the per-point exact routes."""
    p, top = series.p, series.support - 1
    digits = binomial_precision_demand(p, top, m) + series.precision + series.n
    oracle, table = series_oracle(series), []
    for x in range(count):
        value = oracle.value(x, m)
        assert eval_series(series, make(p, digits, x), m).value == value
        table.append(value)
    return table


@pytest.mark.parametrize("p,n", sf.ACCEPTANCE_CONFIGS)
def test_prefix_sum_table_matches_exact_routes(p, n):
    """Every support 1..p^(2n)+4, counts 0, 1 and p^(m+n) at every m."""
    rng = random.Random(13 + 7 * p + n)
    K = _small_precision(p, n)
    for support in range(1, p ** (2 * n) + 5):
        series = sf.unconstrained(rng, p, n, support, precision=K)
        exact = _exact_table(series, K, p ** (K + n))
        for m in range(1, K + 1):
            mod = p ** m
            oracle = series_oracle(series)  # a fresh table for each m
            assert oracle.values(m, 0) == []
            assert oracle.values(m, 1) == [exact[0] % mod]
            assert oracle.values(m, p ** (m + n)) == [
                v % mod for v in exact[: p ** (m + n)]
            ]


@pytest.mark.parametrize("p,n", sf.ACCEPTANCE_CONFIGS)
def test_kept_table_serves_smaller_and_larger_queries(p, n):
    """One oracle asked smaller -> larger -> smaller, at different m."""
    rng = random.Random(17 + 7 * p + n)
    K = _small_precision(p, n)
    series = sf.unconstrained(rng, p, n, p ** (2 * n) + 4, precision=K)
    exact = _exact_table(series, K, p ** (K + n))
    oracle = series_oracle(series)
    for m in (1, K, 2, K - 1, 1, K):
        count = p ** (m + n)
        assert oracle.values(m, count) == [v % p ** m for v in exact[:count]], m


def test_series_oracle_precision_error_past_precision():
    oracle = series_oracle(MahlerSeries.from_ints(2, 1, 4, [1, 2, 3]))
    oracle.values(4, 2 ** 5)
    with pytest.raises(PrecisionError):
        oracle.values(5, 4)
    with pytest.raises(PrecisionError):
        oracle.value(3, 5)


def test_series_oracle_prefix_consistency_for_sound_draws():
    """Delay-sound series give prefix-consistent oracles: the m-digit
    answer is a prefix of the (m+1)-digit answer."""
    rng = random.Random(12)
    for p, n in sf.ACCEPTANCE_CONFIGS:
        oracle = series_oracle(sf.delay_sound(rng, p, n, sf.draw_support(rng, p, n)))
        for m in (1, 2, 3):
            for x in range(p ** (m + 1 + n)):
                assert oracle.value(x, m + 1) % p ** m == oracle.value(x, m)


# --- delay conditions -------------------------------------------------------


def test_delay_conditions_shift_passes():
    series = coeffs_from_oracle(shift_oracle(2, 1), 7, 10)
    report = check_delay_conditions(series)
    assert report.passed
    # v(a_i) = i - 2 for i >= 2, comfortably above floor_log2(i) - 1
    observed = {c.index: c.observed for c in report.checks}
    assert observed[4] == 2 and observed[6] == 4


def test_delay_conditions_fail_at_heavy_index():
    series = MahlerSeries.from_ints(2, 1, 8, [0, 0, 0, 0, 1])
    report = check_delay_conditions(series)
    assert report.verdict is CheckStatus.FAIL
    failing = [c for c in report.checks if c.status is CheckStatus.FAIL]
    assert [c.index for c in failing] == [4]


def test_delay_conditions_all_zero_passes():
    series = MahlerSeries.from_ints(2, 1, 8, [0, 0, 0, 0, 0, 0])
    assert check_delay_conditions(series).passed


def test_delay_conditions_reject_synchronous():
    series = MahlerSeries.from_ints(2, 0, 8, [0, 1])
    with pytest.raises(ValueError):
        check_delay_conditions(series)


def test_insufficient_precision_reported():
    # index 8 at p=2, n=1 demands valuation 2 > precision 1, and the
    # stored digit is zero: undecidable at this precision
    series = MahlerSeries.from_ints(2, 1, 1, [0] * 8 + [0])
    report = check_delay_conditions(series)
    assert report.verdict is CheckStatus.INSUFFICIENT
    # a nonzero digit at the same index decides the check negatively
    series = MahlerSeries.from_ints(2, 1, 1, [0] * 8 + [1])
    assert check_delay_conditions(series).verdict is CheckStatus.FAIL


# --- measure-preservation conditions ---------------------------------------


def test_mp_conditions_shift_passes():
    series = coeffs_from_oracle(shift_oracle(2, 1), 7, 10)
    assert check_measure_preserving_conditions(series).passed


def test_mp_conditions_single_binomial_passes():
    series = MahlerSeries.from_ints(2, 1, 8, [0, 0, 1])
    assert check_measure_preserving_conditions(series).passed


def test_mp_conditions_non_unit_fails():
    series = MahlerSeries.from_ints(2, 1, 8, [0, 0, 2])
    report = check_measure_preserving_conditions(series)
    assert report.verdict is CheckStatus.FAIL
    assert report.checks[0].label == "a_2"


def test_mp_conditions_short_support_fails_unit():
    series = MahlerSeries.from_ints(2, 1, 8, [5])
    report = check_measure_preserving_conditions(series)
    assert report.verdict is CheckStatus.FAIL


def test_mp_tail_counts_base_p_digits():
    """Past p^n the tail demands v(a_i) >= floor_log(p, i) - n + 1; at
    p = 2, n = 2 that is 1 on 5..7, 2 on 8..15 and 3 on 16..19 (the
    base-4 count would demand 1 on 5..15 and 2 on 16..19)."""
    series = MahlerSeries.from_ints(2, 2, 8, [0] * 4 + [1] + [0] * 15)
    for report in (
        check_measure_preserving_conditions(series),
        check_ergodicity_conditions(series),
    ):
        tail = {c.index: c.required for c in report.checks if c.index > 4}
        assert tail == {i: 1 if i < 8 else 2 if i < 16 else 3 for i in range(5, 20)}
    # at n = 1 the floor is floor_log(p, i), unchanged
    series = MahlerSeries.from_ints(3, 1, 8, [0] * 3 + [1] + [0] * 26)
    report = check_measure_preserving_conditions(series)
    tail = {c.index: c.required for c in report.checks if c.index > 3}
    assert tail == {i: 1 if i < 9 else 2 if i < 27 else 3 for i in range(4, 30)}


# --- ergodicity conditions ---------------------------------------------------


def test_ergodic_conditions_shift_passes():
    series = coeffs_from_oracle(shift_oracle(2, 1), 7, 10)
    assert check_ergodicity_conditions(series).passed


def test_ergodic_conditions_pure_binomial_passes():
    series = MahlerSeries.from_ints(2, 1, 8, [0, 0, 1])
    assert check_ergodicity_conditions(series).passed


def test_ergodic_conditions_odd_head_fails():
    series = MahlerSeries.from_ints(2, 1, 8, [0, 1, 1])
    report = check_ergodicity_conditions(series)
    assert report.verdict is CheckStatus.FAIL
    assert report.checks[0].status is CheckStatus.FAIL  # the head sum


def test_ergodic_implies_mp_on_random_series():
    """Structural implication, 1000 seeded draws across the config grid."""
    rng = random.Random(2024)
    hits = 0
    for _ in range(1000):
        p, n = sf.ACCEPTANCE_CONFIGS[rng.randrange(len(sf.ACCEPTANCE_CONFIGS))]
        kind = rng.random()
        if kind < 0.4:
            series = sf.unconstrained(rng, p, n, sf.draw_support(rng, p, n))
        elif kind < 0.7:
            series = sf.mp_passing(rng, p, n, sf.draw_support(rng, p, n))
        else:
            series = sf.ergodic_passing(rng, p, n, sf.draw_support(rng, p, n))
        if check_ergodicity_conditions(series).passed:
            hits += 1
            assert check_measure_preserving_conditions(series).passed
    assert hits >= 200  # the implication was exercised, not vacuous


# --- delay conditions vs actual digit dependence -----------------------------


def exact_value(series, x, m):
    """Independent route: the supported sum at an arbitrary representative."""
    return sum(
        a * math.comb(x, i) for i, a in enumerate(series.coefficient_values())
    ) % series.p ** m


def test_delay_pass_gives_digit_dependence_at_n1():
    """At n = 1 the delay conditions really do bound digit dependence:
    inputs agreeing on m+1 digits give outputs agreeing on m digits."""
    rng = random.Random(5)
    for p in (2, 3):
        for _ in range(40):
            series = sf.delay_sound(rng, p, 1, rng.randrange(2, p * p + 5))
            assert check_delay_conditions(series).passed
            for _ in range(8):
                m = rng.randrange(1, 6)
                x = rng.randrange(p ** (m + 1))
                y = x + p ** (m + 1) * rng.randrange(1, p ** 4)
                assert exact_value(series, x, m) == exact_value(series, y, m)


def test_delay_pass_does_not_give_digit_dependence_at_n2():
    """Documented gap: the delay conditions are one power too weak past
    n = 1.  A series with a_16 = 2 at p = 2, n = 2 passes the check, yet
    inputs agreeing on m+2 digits can produce outputs differing mod 2^m.

    The geometric cover tests therefore draw their delay populations with
    the stronger dependence floors (series_factory.dependence_floor).
    """
    series = MahlerSeries.from_ints(2, 2, 16, [0] * 16 + [2])
    assert check_delay_conditions(series).passed
    m = 5
    x, y = 0, 2 ** (m + 2)
    assert (y - x) % 2 ** (m + 2) == 0
    assert exact_value(series, x, m) != exact_value(series, y, m)
