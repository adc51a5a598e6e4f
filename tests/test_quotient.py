import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_automata import quotient
from padic_automata.errors import BudgetExceededError
from padic_automata.mahler import CheckStatus, MahlerSeries, check_delay_conditions, series_oracle
from padic_automata.oracle import FunctionOracle
from padic_automata.quotient import (
    CycleVerdict,
    MeasureVerdict,
    cycle_count,
    is_measure_preserving_upto,
    unique_cycle_upto,
)
from padic_automata.subjects import (
    delay_echo_transducer,
    odometer_transducer,
    polynomial_oracle,
    shift_oracle,
    zero_oracle,
)

from padic_automata.transducer import function_of

import series_factory as sf


def binomial_square():
    # f(x) = C(x, 2) declared as a 1-unit delay subject at p = 2
    return series_oracle(MahlerSeries.from_ints(2, 1, 12, [0, 0, 1]))


def shape(n, k):
    """(domain, codomain) exponents of the level-k reduction."""
    return (n * k, n * (k - 1)) if n else (k, k)


def reduction(f, k):
    """The level-k reduction table, x < p^domain -> f(x) mod p^codomain."""
    dom, cod = shape(f.delay, k)
    return tuple(f.values(cod, f.p ** dom))


def self_map(f, k):
    """The level-k self-map table on Z/p^(ek), e = max(n, 1)."""
    e = max(f.delay, 1) * k
    return tuple(f.values(e, f.p ** e))


def fibers(table, size):
    """Fiber sizes of a table indexed by codomain residue."""
    counts = Counter(table)
    return tuple(counts[y] for y in range(size))


def test_reduce_shift_level3():
    table = reduction(shift_oracle(2, 1), 3)
    assert table == tuple(x // 2 % 4 for x in range(8))


def test_reduce_zero_level2():
    assert reduction(zero_oracle(2, 1), 2) == (0, 0, 0, 0)


def test_reduce_binomial_square():
    # C(0..3, 2) = 0, 0, 1, 3 == (0, 0, 1, 1) mod 2
    assert reduction(binomial_square(), 2) == (0, 0, 1, 1)


def test_preimage_counts_shift_all_two():
    assert fibers(reduction(shift_oracle(2, 1), 3), 4) == (2, 2, 2, 2)


def test_preimage_counts_zero_concentrated():
    assert fibers(reduction(zero_oracle(2, 1), 2), 2) == (4, 0)


def test_preimage_counts_binomial_square():
    assert fibers(reduction(binomial_square(), 2), 2) == (2, 2)


def test_measure_preserving_shift_through_10():
    verdict = is_measure_preserving_upto(shift_oracle(2, 1), 10)
    assert verdict.passed
    for level, hist in verdict.histograms:
        assert hist == ((2, 2 ** (level - 1)),)


def test_measure_preserving_zero_fails_at_2():
    verdict = is_measure_preserving_upto(zero_oracle(2, 1), 4)
    assert not verdict.passed
    assert verdict.first_failing_level == 2


def test_measure_preserving_binomial_square_through_6():
    assert is_measure_preserving_upto(binomial_square(), 6).passed


def test_endomap_examples():
    assert self_map(shift_oracle(2, 1), 2) == (0, 0, 1, 1)
    assert self_map(polynomial_oracle(2, (1, 1)), 3) == tuple((x + 1) % 8 for x in range(8))
    assert self_map(binomial_square(), 2) == (0, 0, 1, 3)


def test_cycles_identity_all_fixed():
    assert cycle_count((0, 1, 2, 3)) == 4


def test_cycles_odometer_single_full_cycle():
    # one cycle through a permutation: all 8 points on it
    table = self_map(polynomial_oracle(2, (1, 1)), 3)
    assert cycle_count(table) == 1
    assert sorted(table) == list(range(8))


def test_cycles_shift_collapse_to_zero():
    # one cycle through the fixed point 0: every other point is transient
    for k in range(1, 7):
        table = self_map(shift_oracle(2, 1), k)
        assert cycle_count(table) == 1
        assert table[0] == 0


def test_cycles_rho_shape():
    # 0 -> 1 -> 2 -> 1 is a tail plus a 2-cycle
    assert cycle_count((1, 2, 1)) == 1
    assert cycle_count((1, 2, 1, 3)) == 2


@pytest.mark.parametrize(
    "table,cycles",
    [
        ((0, 0, 1, 2), 1),  # later walks end on the first walk's tail
        ((1, 0, 3, 2, 2), 2),  # the last walk ends on the second walk's cycle
        ((1, 2, 1, 0), 1),  # 3 -> 0 joins the tail into the 2-cycle (1 2)
        ((2, 2, 2), 1),
    ],
)
def test_cycles_walk_ends_on_an_earlier_walk(table, cycles):
    assert cycle_count(table) == cycles


def test_unique_cycle_shift_and_odometer():
    assert unique_cycle_upto(shift_oracle(2, 1), 10).passed
    assert unique_cycle_upto(polynomial_oracle(2, (1, 1)), 8).passed


def test_transducer_route_agrees_with_builtin_dynamics():
    """The delayed-echo machine and the shift map are two realizations of
    one function; the quotient oracles cannot tell them apart."""
    machine = function_of(delay_echo_transducer(2, 1))
    builtin = shift_oracle(2, 1)
    for k in (2, 3, 4):
        assert reduction(machine, k) == reduction(builtin, k)
    assert unique_cycle_upto(machine, 6).passed
    assert is_measure_preserving_upto(machine, 6).passed


@pytest.mark.parametrize("coeffs, verdict", [
    ((1, 1), CycleVerdict(passed=True, first_failing_level=None, cycle_counts=((1, 1),))),
    ((0, 1), CycleVerdict(passed=False, first_failing_level=1, cycle_counts=((1, 2),))),
], ids=["odometer", "identity"])
def test_unique_cycle_at_k_max_1(coeffs, verdict):
    assert unique_cycle_upto(polynomial_oracle(2, coeffs), 1) == verdict


def test_unique_cycle_identity_fails_immediately():
    verdict = unique_cycle_upto(polynomial_oracle(2, [0, 1]), 3)
    assert not verdict.passed
    assert verdict.first_failing_level == 1  # p fixed points already on Z/2


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError, match=r"256 level-table entries \(2\^8\)"):
        is_measure_preserving_upto(shift_oracle(2, 1), 8, budget=100)
    with pytest.raises(BudgetExceededError, match=r"256 self-map entries \(2\^8\)"):
        unique_cycle_upto(shift_oracle(2, 1), 8, budget=100)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_upto_checks_budget_before_any_level(n):
    calls = []

    def counted(m, count):
        calls.append(count)
        return [x % 2 ** m for x in range(count)]

    oracle = FunctionOracle(p=2, delay=n, source="built-in", table=counted)
    # level 2 fits in 2^8 entries, level 30 does not
    with pytest.raises(BudgetExceededError):
        is_measure_preserving_upto(oracle, 30, budget=1 << 8)
    with pytest.raises(BudgetExceededError):
        unique_cycle_upto(oracle, 30, budget=1 << 8)
    assert len(calls) == 0


def test_preimage_conservation_on_random_series():
    rng = random.Random(21)
    for p, n in sf.ACCEPTANCE_CONFIGS:
        oracle = series_oracle(sf.unconstrained(rng, p, n, sf.draw_support(rng, p, n)))
        for k in (2, 3):
            dom, cod = shape(n, k)
            assert sum(fibers(reduction(oracle, k), p ** cod)) == p ** dom


def test_reduction_consistency_tower():
    """Reducing the level-k table one step further matches the level-(k-1)
    table on projected inputs, for genuinely delay-consistent subjects."""
    rng = random.Random(22)
    subjects = [
        shift_oracle(2, 1),
        shift_oracle(3, 1),
        polynomial_oracle(2, (1, 1)),
        series_oracle(sf.delay_sound(rng, 2, 1, 7)),
    ]
    for oracle in subjects:
        p, n = oracle.p, oracle.delay
        for k in (3, 4):
            fk, fk1 = reduction(oracle, k), reduction(oracle, k - 1)
            dom_prev, cod_prev = shape(n, k - 1)
            for x in range(len(fk)):
                assert fk[x] % p ** cod_prev == fk1[x % p ** dom_prev]


def _orbit_cycles(table):
    """Cycle count by orbits: the periodic points are the image of f^N
    for any N >= size, since after size steps every walk is on its
    cycle, and each cycle is one orbit among them."""
    power = list(table)
    for _ in range(len(table).bit_length()):  # f^(2^j) by squaring
        power = [power[y] for y in power]
    periodic, orbits = set(power), 0
    while periodic:
        orbits += 1
        x = periodic.pop()
        y = table[x]
        while y != x:
            periodic.remove(y)
            y = table[y]
    return orbits


@settings(max_examples=80)
@given(table=st.lists(st.integers(0, 19), min_size=1, max_size=20))
def test_cycle_decomposition_soundness(table):
    """The count matches the orbit count and leaves its argument, a tuple
    or a list, as it was."""
    table = tuple(v % len(table) for v in table)
    as_list = list(table)
    assert cycle_count(table) == _orbit_cycles(table)
    assert cycle_count(as_list) == _orbit_cycles(table)
    assert as_list == list(table)


def test_cycle_count_every_small_self_map():
    """All 50 069 self-maps of 1 to 6 points, descent points included."""
    for size in range(1, 7):
        for table in product(range(size), repeat=size):
            assert cycle_count(table) == _orbit_cycles(table), table


def _large_tables():
    rng = random.Random(24)
    size = 1 << 12
    permutation = list(range(size))
    rng.shuffle(permutation)
    return [
        pytest.param([x // 2 for x in range(size)], id="halve"),
        pytest.param([x // 3 for x in range(size)], id="third"),
        pytest.param([max(x - 1, 0) for x in range(size)], id="step-down"),
        pytest.param([0] * size, id="zero"),
        pytest.param(permutation, id="permutation"),
        pytest.param([rng.randrange(size) for _ in range(size)], id="random"),
    ]


@pytest.mark.parametrize("table", _large_tables())
def test_cycle_count_large_tables(table):
    """Large tables, as a list and as a tuple, each left as it was."""
    kept = list(table)
    frozen = tuple(table)
    assert cycle_count(table) == _orbit_cycles(kept)
    assert table == kept
    assert cycle_count(frozen) == _orbit_cycles(kept)
    assert frozen == tuple(kept)


def _counting(oracle):
    """``oracle`` behind a wrapper that logs every table it is asked for,
    with every other field, ``lipschitz`` among them, kept."""
    calls = []

    def table(m, count):
        calls.append(("values", m, count))
        return oracle.values(m, count)

    return oracle._replace(table=table), calls


def _reference_mp(f, k_max):
    """The fiber criterion level by level, one reduction table per level."""
    expected = f.p ** f.delay
    histograms, first_fail = [], None
    for k in range(2, k_max + 1):
        counts = fibers(reduction(f, k), f.p ** shape(f.delay, k)[1])
        histograms.append((k, tuple(sorted(Counter(counts).items()))))
        if first_fail is None and any(c != expected for c in counts):
            first_fail = k
    return MeasureVerdict(
        passed=first_fail is None, first_failing_level=first_fail,
        histograms=tuple(histograms),
    )


def _reference_cycles(f, k_max):
    """The unique-cycle test level by level, one self-map table per level."""
    counts, first_fail = [], None
    for k in range(1, k_max + 1):
        found = cycle_count(self_map(f, k))
        counts.append((k, found))
        if first_fail is None and found != 1:
            first_fail = k
    return CycleVerdict(
        passed=first_fail is None, first_failing_level=first_fail,
        cycle_counts=tuple(counts),
    )


def _one_table_subjects():
    """(factory, k_max, genuine) over built-ins, seeded series and machines
    at n = 0, 1 and 2, named by their ids; each factory builds a fresh
    oracle, and ``genuine`` says whether it is a genuine delay-n map."""
    rng = random.Random(23)
    subjects = [
        ("shift-2-1", lambda: shift_oracle(2, 1), 8, True),
        ("shift-3-1", lambda: shift_oracle(3, 1), 5, True),
        ("shift-2-2", lambda: shift_oracle(2, 2), 4, True),
        ("odometer-2", lambda: polynomial_oracle(2, (1, 1)), 8, True),
        ("odometer-3", lambda: polynomial_oracle(3, (1, 1)), 5, True),
        ("zero-2-1", lambda: zero_oracle(2, 1), 6, True),
        ("zero-3-2", lambda: zero_oracle(3, 2), 3, True),
        ("binomial-square", binomial_square, 7, True),
        ("echo-2-1", lambda: function_of(delay_echo_transducer(2, 1)), 6, True),
        ("echo-3-2", lambda: function_of(delay_echo_transducer(3, 2)), 3, True),
        ("odometer-machine-2", lambda: function_of(odometer_transducer(2)), 7, True),
    ]
    k_maxes = {(2, 1): 8, (3, 1): 5, (2, 2): 4, (3, 2): 3}
    for p, n in sf.ACCEPTANCE_CONFIGS:
        for family in (sf.unconstrained, sf.delay_sound, sf.mp_passing, sf.ergodic_passing):
            series = family(rng, p, n, sf.draw_support(rng, p, n))
            genuine = check_delay_conditions(series).verdict is not CheckStatus.FAIL
            subjects.append((f"{family.__name__}-{p}-{n}",
                             lambda s=series: series_oracle(s), k_maxes[p, n], genuine))
    return [pytest.param(factory, k_max, genuine, id=name)
            for name, factory, k_max, genuine in subjects]


@pytest.mark.parametrize("factory,k_max,genuine", _one_table_subjects())
def test_upto_checks_evaluate_one_table(monkeypatch, factory, k_max, genuine):
    """Both checks make one ``values`` call.  The fiber check of a genuine
    subject counts the fibers of that one table only, and folds the lower
    levels out of its counts; any other subject's fibers are counted at
    every level, on the prefixes."""
    f = factory()
    p, n = f.p, f.delay
    counted, calls = _counting(f)
    assert counted.lipschitz is genuine
    counted_tables = []
    fiber_sizes = quotient._fiber_sizes

    def spy(residues, size):
        counted_tables.append(len(residues))
        return fiber_sizes(residues, size)

    monkeypatch.setattr(quotient, "_fiber_sizes", spy)
    assert is_measure_preserving_upto(counted, k_max) == _reference_mp(factory(), k_max)
    dom, cod = shape(n, k_max)
    assert calls == [("values", cod, p ** dom)]
    if genuine:
        assert counted_tables == [p ** dom]
    else:
        assert counted_tables == [p ** shape(n, k)[0] for k in range(2, k_max + 1)]
    calls.clear()
    assert unique_cycle_upto(counted, k_max) == _reference_cycles(factory(), k_max)
    e = max(n, 1) * k_max
    assert calls == [("values", e, p ** e)]
