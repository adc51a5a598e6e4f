import contextlib
import math
import random

import pytest

from padic_automata import mahler
from padic_automata.errors import PrecisionError
from padic_automata.mahler import (
    CheckStatus,
    MahlerSeries,
    check_delay_conditions,
    check_ergodicity_conditions,
    check_measure_preserving_conditions,
    coeffs_from_oracle,
    series_oracle,
)
from padic_automata.oracle import FunctionOracle
from padic_automata.padics import valuation
from padic_automata.subjects import polynomial_oracle, shift_oracle, zero_oracle

import series_factory as sf
from series_factory import floor_log


def exact_value(series, x, m):
    """Independent route: the supported sum at an arbitrary representative."""
    return sum(a * math.comb(x, i) for i, a in enumerate(series.coeffs)) % series.p ** m


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
    assert series.coeffs == (0, 1, 0, 0)


def test_square_coefficients():
    series = coeffs_from_oracle(polynomial_oracle(2, [0, 0, 1]), 4, 8)
    assert series.coeffs == (0, 1, 2, 0)


@pytest.mark.parametrize("K", [1, 6])
def test_one_coefficient_is_the_value_at_zero(K):
    series = coeffs_from_oracle(polynomial_oracle(3, [5, 2]), 1, K)
    assert series.coeffs == (5 % 3 ** K,)


def test_shift_coefficients_match_triangular_solve():
    K = 8
    shift_values = [j // 2 for j in range(6)]
    expected = solve_coefficients(shift_values, 2, K)
    assert expected == [0, 0, 1, (-2) % 256, 4, (-8) % 256]
    series = coeffs_from_oracle(shift_oracle(2, 1), 6, K)
    assert list(series.coeffs) == expected


def test_series_holds_canonical_residues():
    series = MahlerSeries.from_ints(3, 1, 3, [30, -1, 27])
    assert series.coeffs == (3, 26, 0)
    assert series.precision == 3 and series.support == 3
    assert series == MahlerSeries(p=3, n=1, precision=3, coeffs=(3, 26, 0))


@pytest.mark.parametrize(
    "p,n,precision,coeffs",
    [(4, 1, 3, (1,)), (2, -1, 3, (1,)), (2, 1, 0, (0,)), (2, 1, 3, ()), (2, 1, 3, (8,)),
     (2, 1, 3, (-1,))],
    ids=["p-not-prime", "negative-delay", "zero-precision", "no-coefficient",
         "coefficient-too-large", "coefficient-negative"],
)
def test_series_rejects_bad_fields(p, n, precision, coeffs):
    with pytest.raises(ValueError):
        MahlerSeries(p=p, n=n, precision=precision, coeffs=coeffs)


def test_eval_examples():
    identity = series_oracle(MahlerSeries.from_ints(2, 0, 8, [0, 1]))
    assert identity.value(5, 3) == 5

    shift = series_oracle(coeffs_from_oracle(shift_oracle(2, 1), 7, 8))
    assert shift.value(6, 2) == 3  # floor(6/2) mod 4

    const = series_oracle(MahlerSeries.from_ints(3, 0, 6, [1]))
    assert const.value(77, 4) == 1


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("K", [6, 12])
@pytest.mark.parametrize(
    "name,factory",
    [
        ("identity", lambda p: polynomial_oracle(p, [0, 1])),
        ("odometer", lambda p: polynomial_oracle(p, [1, 1])),
        ("square-ish", lambda p: polynomial_oracle(p, [3, 2, 1])),
        ("shift", lambda p: shift_oracle(p, 1)),
        ("zero", lambda p: zero_oracle(p, 1)),
    ],
)
def test_round_trip_reproduces_oracle(p, K, name, factory):
    """The series extracted from M table values reproduces those values,
    checked against each map's closed form."""
    reference = {
        "identity": lambda x: x,
        "odometer": lambda x: x + 1,
        "square-ish": lambda x: 3 + 2 * x + x * x,
        "shift": lambda x: x // p,
        "zero": lambda x: 0,
    }[name]
    M = 10
    series = series_oracle(coeffs_from_oracle(factory(p), M, K))
    assert series.values(K, M) == [reference(x) % p ** K for x in range(M)], name


def test_series_oracle_bulk_matches_pointwise():
    """The product table against the Mahler sum at every residue."""
    rng = random.Random(11)
    for p, n in sf.ACCEPTANCE_CONFIGS:
        series = sf.unconstrained(rng, p, n, sf.draw_support(rng, p, n))
        m = 4
        table = series_oracle(series).values(m, p ** (m + n))
        assert table == [exact_value(series, x, m) for x in range(p ** (m + n))]


def test_series_oracle_builds_p_only_below_the_table_length(monkeypatch):
    """A support M longer than the table N: the P factor is kept mod X^N
    and no packed factor has more than N entries, yet the table is still
    the Mahler sum."""
    packed = []

    def spy(values, words):
        packed.append(len(values))
        return real(values, words)

    real = mahler._packed
    monkeypatch.setattr(mahler, "_packed", spy)
    rng = random.Random(5)
    for p, n, K, M, N in ((2, 1, 4, 300, 29), (3, 2, 3, 200, 81), (5, 1, 2, 60, 25)):
        series = MahlerSeries.from_ints(p, n, K, [rng.randrange(p ** K) for _ in range(M)])
        packed.clear()
        assert series_oracle(series).values(K, N) == [exact_value(series, x, K) for x in range(N)]
        assert packed and max(packed) <= N, (p, M, N, packed)


def _small_precision(p, n):
    """Largest precision whose full residue domain p^(K+n) stays <= 256."""
    k = 1
    while p ** (k + 1 + n) <= 256:
        k += 1
    return k


def _exact_table(series, m, count):
    """f(0) .. f(count-1) mod p^m by the Mahler sum."""
    return [exact_value(series, x, m) for x in range(count)]


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
def test_kept_table_serves_smaller_and_larger_queries(monkeypatch, p, n):
    """One oracle asked smaller -> larger -> smaller, at different m.  The
    kept modulus and length never shrink: m = K, then a longer count at
    m = 1, then m = K again builds twice."""
    rng = random.Random(17 + 7 * p + n)
    K = _small_precision(p, n)
    series = sf.unconstrained(rng, p, n, p ** (2 * n) + 4, precision=K)
    exact = _exact_table(series, K, p ** (K + n))
    oracle = series_oracle(series)
    with _spied_builds(monkeypatch) as builds:
        for m in (1, K, 2, K - 1, 1, K):
            count = p ** (m + n)
            assert oracle.values(m, count) == [v % p ** m for v in exact[:count]], m
        # a longer count at m = 1 rebuilds at the kept modulus, so m = K reads it
        oracle = series_oracle(series)
        builds.clear()
        for m, count in ((K, p ** n), (1, p ** (n + 1)), (K, p ** (n + 1))):
            assert oracle.values(m, count) == [v % p ** m for v in exact[:count]], m
        assert builds == [max(builds)] * 2
        # a larger m rebuilds at the kept length, so the longer count reads it
        oracle = series_oracle(series)
        builds.clear()
        for m, count in ((1, p ** (n + 1)), (K, 1), (K, p ** (n + 1))):
            assert oracle.values(m, count) == [v % p ** m for v in exact[:count]], m
        assert len(builds) == 1 + (n + 1 < K), builds


def _width(terms, q):
    """The slot width in bytes of a build at modulus q."""
    return -(-((terms + 1) * (q - 1) ** 2).bit_length() // 8)


@contextlib.contextmanager
def _spied_builds(monkeypatch):
    """Yields the list of slot widths of the builds made meanwhile: one
    entry per ``values`` call that packed anything, the widest it packed.
    The width only grows with the modulus, so a list that never falls
    means that the kept modulus never shrank."""
    builds, packed = [], []
    real_packed, real_values = mahler._packed, FunctionOracle.values

    def spy_packed(values, width):
        packed.append(width)
        return real_packed(values, width)

    def spy_values(self, m, count):
        packed.clear()
        table = real_values(self, m, count)
        if packed:
            builds.append(max(packed))
        return table

    monkeypatch.setattr(mahler, "_packed", spy_packed)
    monkeypatch.setattr(FunctionOracle, "values", spy_values)
    yield builds
    assert builds == sorted(builds), builds


@pytest.mark.parametrize("p,n", sf.ACCEPTANCE_CONFIGS)
def test_fiber_and_cycle_queries_share_one_build(monkeypatch, p, n):
    """The mp query (p^(nk), n(k - 1)) builds at p^(nk), the least modulus
    with as many digits as the domain, and the cycles query (p^(nk), nk)
    that follows reads the same table."""
    rng = random.Random(23 + 7 * p + n)
    series = sf.unconstrained(rng, p, n, sf.draw_support(rng, p, n))
    for k in range(2, sf.DEFAULT_PRECISION // n + 1):
        if p ** (n * k) > 3 ** 8:
            break
        oracle, count = series_oracle(series), p ** (n * k)
        with _spied_builds(monkeypatch) as builds:
            assert oracle.values(n * (k - 1), count) == _exact_table(series, n * (k - 1), count)
            assert oracle.values(n * k, count) == _exact_table(series, n * k, count)
        assert builds == [_width(series.support, p ** (n * k))], (k, builds)


@pytest.mark.parametrize(
    "p,precision,support,count",
    [pytest.param(p, k, 12, 1000 + p, id=f"{p}-{k}") for p in (2, 3, 5, 7) for k in (16, 40)]
    + [pytest.param(3, 16, 12, 2287, id="4-blocks-of-729"),
       pytest.param(2, 16, 256, 600, id="support-is-block"),
       pytest.param(2, 16, 257, 600, id="support-past-block"),
       pytest.param(3, 16, 81, 100, id="support-is-block-p3"),
       pytest.param(3, 16, 82, 700, id="support-past-block-p3"),
       pytest.param(5, 40, 30, 2000, id="4-blocks-p5-K40"),
       pytest.param(2, 31, 4, 1000, id="spill-width")],
)
def test_product_table_of_worst_case_coefficients(p, precision, support, count):
    """Every coefficient p^K - 1, then random ones, against the Mahler sum.
    Each query asks for all K digits, so the table is built mod p^K.  The
    slots take 5 to 12 bytes at K = 16 and 11 to 29 bytes at K = 40, where
    each packed factor entry itself spans two words at p = 5 and 7.  At
    q = 2^31, M = 4, M (q - 1)^2 < 2^64 <= (M + 1)(q - 1)^2, so every slot
    takes 9 bytes and spans two words.
    Every table spans several blocks of B entries, the least power of p
    that is >= M and >= 8 sqrt(N): the counts are not multiples of B, and
    the supports reach B and one past it, where M sets B."""
    q, rng = p ** precision, random.Random(count + support)
    for coeffs in ((q - 1,) * support, tuple(rng.randrange(q) for _ in range(support))):
        series = MahlerSeries(p=p, n=1, precision=precision, coeffs=coeffs)
        oracle = series_oracle(series)
        exact = [exact_value(series, x, precision) for x in range(count)]
        assert list(oracle.table(precision, count)) == exact
        assert oracle.values(precision, count) == exact


@pytest.mark.parametrize("width", [*range(1, 18), 24, 32, 64])
def test_product_slots_hold_their_bound(width):
    """At q = 2^(4 width - 1) the bound 4 (q - 1)^2 fills exactly ``width``
    bytes (past 8 bytes a slot spans two 64-bit words).  Packing 4 and 50
    entries of q - 1 makes every slot from 3 to 49 exactly that bound, and
    each one is read back whole, mod 2^(8 width)."""
    q, terms, count = 2 ** (4 * width - 1), 4, 50
    assert (terms * (q - 1) ** 2).bit_length() == 8 * width
    slots = count + terms - 1
    product = mahler._packed([q - 1] * terms, width) * mahler._packed([q - 1] * count, width)
    raw = product.to_bytes(width * slots, "little")
    assert list(mahler._residues(raw, width, 0, slots, 2, 8 * width)) == [
        min(x + 1, terms, slots - x) * (q - 1) ** 2 for x in range(slots)
    ]


@pytest.mark.parametrize("width", [*range(1, 18), 24, 32, 64])
def test_packing_round_trips_every_byte_width(width):
    """Packing is sum_i v_i 2^(8 width i) whatever the host's byte order,
    and any run of slots reads back as the values packed there, whole at
    p = 2 and mod 3^5 at p = 3."""
    rng, top = random.Random(width), 2 ** (8 * width) - 1
    values = [0, top, 1, top - 1] + [rng.randrange(top + 1) for _ in range(60)]
    number = mahler._packed(values, width)
    assert number == sum(v << 8 * width * i for i, v in enumerate(values))
    raw = number.to_bytes(width * len(values), "little")
    assert list(mahler._residues(raw, width, 0, len(values), 2, 8 * width)) == values
    assert list(mahler._residues(raw, width, 3, 41, 2, 8 * width)) == values[3:41]
    assert list(mahler._residues(raw, width, 3, 41, 3, 5)) == [v % 3 ** 5 for v in values[3:41]]


@pytest.mark.parametrize(
    "p,m", [(2, m) for m in (*range(1, 18), 24, 31, 32, 33, 40, 63, 64, 65, 72)] + [(3, 20)]
)
def test_reads_reduce_each_slot_at_every_m(p, m):
    """Reads at m against the Mahler sum, at precision 72 and 700 entries
    (delay 10, so that 700 entries fit the domain p^(m+n) at m = 1): the
    block B is 256 at M = 12, so each table spans three blocks.  Each
    m is read from a fresh build (mod 2^max(m, 10) at p = 2, 2^10 being
    the least power of 2 that is >= 700), and from a table kept mod p^72,
    asked at m and then at 72.  At p = 2 and m <= 64 a read takes
    the low m bits of each slot, which here spans 3 to 19 bytes; at m = 20
    a p = 3 slot takes 9 bytes."""
    precision, count, q = 72, 700, p ** 72
    rng = random.Random(m)
    for coeffs in ((q - 1,) * 12, tuple(rng.randrange(q) for _ in range(12))):
        series = MahlerSeries(p=p, n=10, precision=precision, coeffs=coeffs)
        exact = [exact_value(series, x, precision) for x in range(count)]
        want = [v % p ** m for v in exact]
        assert series_oracle(series).values(m, count) == want
        kept = series_oracle(series)
        assert kept.values(precision, count) == exact
        assert kept.values(m, count) == want
        assert kept.values(precision, count) == exact


def test_one_coefficient_series_and_count_one():
    constant = series_oracle(MahlerSeries.from_ints(3, 1, 4, [-1]))
    assert list(constant.table(4, 1)) == [80]
    assert constant.values(2, 3 ** 3) == [8] * 3 ** 3
    two = series_oracle(MahlerSeries.from_ints(2, 1, 4, [5, 7]))
    assert list(two.table(4, 1)) == [5]
    assert two.values(4, 3) == [5, 12, 3]
    deep = series_oracle(MahlerSeries.from_ints(3, 1, 40, [-1]))  # built mod 3^3, not 3^40
    assert deep.values(2, 3 ** 3) == [8] * 3 ** 3


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
        series = sf.delay_sound(rng, p, n, sf.draw_support(rng, p, n))
        oracle = series_oracle(series)
        for m in (1, 2, 3):
            lower, upper = oracle.values(m, p ** (m + n)), oracle.values(m + 1, p ** (m + 1 + n))
            assert lower == _exact_table(series, m, p ** (m + n))
            assert [v % p ** m for v in upper] == [lower[x % p ** (m + n)]
                                                  for x in range(p ** (m + 1 + n))]


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


@pytest.mark.parametrize("check, which", [
    (check_delay_conditions, "delay"),
    (check_measure_preserving_conditions, "measure-preservation"),
    (check_ergodicity_conditions, "ergodicity"),
])
def test_delay_conditions_reject_synchronous(check, which):
    """One gate for the three checks, each named in its own message."""
    series = MahlerSeries.from_ints(2, 0, 8, [0, 1])
    message = (f"the {which} conditions are stated for delay n >= 1; "
               "this series declares n = 0")
    with pytest.raises(ValueError) as excinfo:
        check(series)
    assert str(excinfo.value) == message


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


@pytest.mark.parametrize("precision", [16, 1])
@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_mp_tail_counts_base_p_digits(p, n, precision):
    """Every row of the three reports against a per-index reference from
    floor_log and valuation.  The delay floor is floor_log(p, i) - n on
    1 <= i < M; past p^n the tail demands floor_log(p, i) - n + 1, a count
    of base-p digits: at p = 2, n = 2 that is 1 on 5..7, 2 on 8..15 and 3 on
    16..19 (the base-4 count would demand 1 on 5..15 and 2 on 16..19).
    Supports end at p^j - 1, p^j and p^j + 1 and at p^n and p^n + 1, and
    precision 1 leaves the zero residues under floors >= 2 undecided."""
    q, mod = p ** n, p ** precision
    rng = random.Random(100 * p + 10 * n + precision)
    supports = {q, q + 1} | {p ** j + d for j in range(1, 8) if p ** j < 130 for d in (-1, 0, 1)}

    def row(value, floor):  # floor None: a unit check
        observed = valuation(p, precision, value)
        if floor is None:
            return 0, CheckStatus.PASS if observed == 0 else CheckStatus.FAIL
        if observed is None and floor > precision:
            return floor, CheckStatus.INSUFFICIENT
        ok = floor <= 0 or observed is None or observed >= floor
        return floor, CheckStatus.PASS if ok else CheckStatus.FAIL

    def rows(report):
        return [(c.index, c.label, c.required, c.status) for c in report.checks]

    for support in sorted(supports):
        floors = [floor_log(p, i) - n for i in range(1, support)]
        a = [rng.randrange(mod)] + [
            0 if rng.random() < 0.2 else
            p ** max(e + rng.choice((-1, 0, 1, 2)), 0) * rng.choice((1, p - 1, p + 1)) % mod
            for e in floors
        ]
        series = MahlerSeries.from_ints(p, n, precision, a)
        coeff = (a + [0] * q)[q]
        tail = [(i, f"a_{i}", *row(a[i], floor_log(p, i) - n + 1))
                for i in range(q + 1, support)]
        assert rows(check_delay_conditions(series)) == [
            (i, f"a_{i}", *row(a[i], floor_log(p, i) - n)) for i in range(1, support)]
        assert rows(check_measure_preserving_conditions(series)) == [
            (q, f"a_{q}", *row(coeff, None))] + tail
        head = f"a_1 + ... + a_{q - 1}" if q > 2 else "a_1"
        assert rows(check_ergodicity_conditions(series)) == [
            (0, head, *row(sum(a[1:q]), 1)),
            (q, f"a_{q} - 1", *row(coeff - 1, 1)),
        ] + tail
    if (p, n, precision) == (2, 2, 16):
        report = check_measure_preserving_conditions(MahlerSeries.from_ints(2, 2, 8, [0] * 20))
        assert {c.index: c.required for c in report.checks if c.index > 4} == {
            i: 1 if i < 8 else 2 if i < 16 else 3 for i in range(5, 20)}


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


def test_delay_check_rejects_missing_digit_dependence_at_n2():
    """Regression: the delay bound once demanded floor_log(p^n, i) - 1,
    one power too weak past n = 1.  The series with a_16 = 2 at p = 2,
    n = 2 met that bound (1), yet inputs agreeing on m+2 digits produce
    outputs differing mod 2^m; the bound floor_log(p, i) - n demands 2
    and rejects it.
    """
    series = MahlerSeries.from_ints(2, 2, 16, [0] * 16 + [2])
    report = check_delay_conditions(series)
    assert report.verdict is CheckStatus.FAIL
    failing = [(c.index, c.required) for c in report.checks if c.status is CheckStatus.FAIL]
    assert failing == [(16, 2)]
    m = 5
    x, y = 0, 2 ** (m + 2)
    assert (y - x) % 2 ** (m + 2) == 0
    assert exact_value(series, x, m) != exact_value(series, y, m)


def test_delay_pass_gives_digit_dependence_at_n2_and_n3():
    """Past n = 1 too, the delay conditions bound digit dependence."""
    rng = random.Random(6)
    for p, n in ((2, 2), (3, 2), (2, 3)):
        for _ in range(30):
            series = sf.delay_sound(rng, p, n, rng.randrange(2, p ** (n + 1) + 9))
            assert check_delay_conditions(series).passed
            for _ in range(8):
                m = rng.randrange(1, 5)
                x = rng.randrange(p ** (m + n))
                y = x + p ** (m + n) * rng.randrange(1, p ** 4)
                assert exact_value(series, x, m) == exact_value(series, y, m)
