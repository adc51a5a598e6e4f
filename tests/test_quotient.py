import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_automata.errors import BudgetExceededError
from padic_automata.mahler import MahlerSeries, series_oracle
from padic_automata.oracle import FunctionOracle
from padic_automata.quotient import (
    CycleVerdict,
    MeasureVerdict,
    cycles,
    endomap,
    endomap_exponent,
    is_measure_preserving_upto,
    level_exponents,
    preimage_counts,
    reduce_map,
    unique_cycle_upto,
)
from padic_automata.subjects import (
    delay_echo_transducer,
    odometer_transducer,
    odometer_oracle,
    polynomial_oracle,
    shift_oracle,
    zero_oracle,
)

from padic_automata.transducer import function_of

import series_factory as sf


def binomial_square():
    # f(x) = C(x, 2) declared as a 1-unit delay subject at p = 2
    return series_oracle(MahlerSeries.from_ints(2, 1, 12, [0, 0, 1]))


def test_level_exponents():
    assert level_exponents(1, 3) == (3, 2)
    assert level_exponents(2, 2) == (4, 2)
    assert level_exponents(0, 4) == (4, 4)
    assert endomap_exponent(2, 3) == 6
    assert endomap_exponent(0, 3) == 3


def test_reduce_shift_level3():
    table = reduce_map(shift_oracle(2, 1), 3).table
    assert table == tuple(x // 2 % 4 for x in range(8))


def test_reduce_zero_level2():
    assert reduce_map(zero_oracle(2, 1), 2).table == (0, 0, 0, 0)


def test_reduce_binomial_square():
    # C(0..3, 2) = 0, 0, 1, 3 == (0, 0, 1, 1) mod 2
    assert reduce_map(binomial_square(), 2).table == (0, 0, 1, 1)


def test_preimage_counts_shift_all_two():
    counts = preimage_counts(reduce_map(shift_oracle(2, 1), 3))
    assert counts == (2, 2, 2, 2)


def test_preimage_counts_zero_concentrated():
    assert preimage_counts(reduce_map(zero_oracle(2, 1), 2)) == (4, 0)


def test_preimage_counts_binomial_square():
    assert preimage_counts(reduce_map(binomial_square(), 2)) == (2, 2)


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
    assert endomap(shift_oracle(2, 1), 2) == (0, 0, 1, 1)
    assert endomap(odometer_oracle(2), 3) == tuple((x + 1) % 8 for x in range(8))
    assert endomap(binomial_square(), 2) == (0, 0, 1, 3)


def test_cycles_identity_all_fixed():
    report = cycles((0, 1, 2, 3))
    assert report.cycles == ((0,), (1,), (2,), (3,))
    assert report.transient_count == 0


def test_cycles_odometer_single_full_cycle():
    report = cycles(endomap(odometer_oracle(2), 3))
    assert len(report.cycles) == 1
    assert len(report.cycles[0]) == 8
    assert report.cycles[0][0] == 0


def test_cycles_shift_collapse_to_zero():
    for k in range(1, 7):
        report = cycles(endomap(shift_oracle(2, 1), k))
        assert report.cycles == ((0,),)
        assert report.transient_count == 2 ** k - 1


def test_cycles_rho_shape():
    # 0 -> 1 -> 2 -> 1 is a tail plus a 2-cycle
    report = cycles((1, 2, 1))
    assert report.cycles == ((1, 2),)
    assert report.transient_count == 1


def test_unique_cycle_shift_and_odometer():
    assert unique_cycle_upto(shift_oracle(2, 1), 10).passed
    assert unique_cycle_upto(odometer_oracle(2), 8).passed


def test_transducer_route_agrees_with_builtin_dynamics():
    """The delayed-echo machine and the shift map are two realizations of
    one function; the quotient oracles cannot tell them apart."""
    machine = function_of(delay_echo_transducer(2, 1))
    builtin = shift_oracle(2, 1)
    for k in (2, 3, 4):
        assert reduce_map(machine, k).table == reduce_map(builtin, k).table
    assert unique_cycle_upto(machine, 6).passed
    assert is_measure_preserving_upto(machine, 6).passed


def test_unique_cycle_identity_fails_immediately():
    verdict = unique_cycle_upto(polynomial_oracle(2, [0, 1]), 3)
    assert not verdict.passed
    assert verdict.first_failing_level == 1  # p fixed points already on Z/2


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        reduce_map(shift_oracle(2, 1), 8, budget=100)
    with pytest.raises(BudgetExceededError):
        endomap(shift_oracle(2, 1), 8, budget=100)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_upto_checks_budget_before_any_level(n):
    calls = []

    def counted(x, m):
        calls.append(x)
        return x % 2 ** m

    oracle = FunctionOracle(p=2, delay=n, source="built-in", _fn=counted)
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
            reduced = reduce_map(oracle, k)
            assert sum(preimage_counts(reduced)) == p ** reduced.domain_exponent


def test_reduction_consistency_tower():
    """Reducing the level-k table one step further matches the level-(k-1)
    table on projected inputs, for genuinely delay-consistent subjects."""
    rng = random.Random(22)
    subjects = [
        shift_oracle(2, 1),
        shift_oracle(3, 1),
        odometer_oracle(2),
        series_oracle(sf.delay_sound(rng, 2, 1, 7)),
    ]
    for oracle in subjects:
        p, n = oracle.p, oracle.delay
        for k in (3, 4):
            fk = reduce_map(oracle, k)
            fk1 = reduce_map(oracle, k - 1)
            _, cod_prev = level_exponents(n, k - 1)
            dom_prev, _ = level_exponents(n, k - 1)
            for x in range(p ** fk.domain_exponent):
                assert (
                    fk.table[x] % p ** cod_prev
                    == fk1.table[x % p ** dom_prev]
                )


@settings(max_examples=80)
@given(table=st.lists(st.integers(0, 19), min_size=1, max_size=20))
def test_cycle_decomposition_soundness(table):
    size = len(table)
    table = tuple(v % size for v in table)
    report = cycles(table)
    seen = set()
    for cycle in report.cycles:
        assert cycle[0] == min(cycle)
        for i, x in enumerate(cycle):
            assert table[x] == cycle[(i + 1) % len(cycle)]
        assert not seen & set(cycle)
        seen |= set(cycle)
    assert report.transient_count == size - len(seen)
    # every point falls onto some cycle eventually
    for start in range(size):
        x = start
        for _ in range(size + 1):
            x = table[x]
        assert x in seen


def _counting(oracle):
    """``oracle`` behind a wrapper that logs every bulk and per-point call."""
    calls = []

    def point(x, m):
        calls.append(("value", x, m))
        return oracle.value(x, m)

    def bulk(m, count):
        calls.append(("values", m, count))
        return oracle.values(m, count)

    wrapped = FunctionOracle(p=oracle.p, delay=oracle.delay, source=oracle.source,
                             _fn=point, _bulk=bulk)
    return wrapped, calls


def _reference_mp(f, k_max):
    """The fiber criterion level by level, one reduction table per level."""
    expected = f.p ** f.delay
    histograms, first_fail = [], None
    for k in range(2, k_max + 1):
        counts = preimage_counts(reduce_map(f, k))
        histograms.append((k, tuple(sorted(Counter(counts).items()))))
        if first_fail is None and any(c != expected for c in counts):
            first_fail = k
    return MeasureVerdict(
        passed=first_fail is None, p=f.p, n=f.delay, k_max=k_max,
        expected_fiber=expected, first_failing_level=first_fail,
        histograms=tuple(histograms),
    )


def _reference_cycles(f, k_max):
    """The unique-cycle test level by level, one self-map table per level."""
    counts, first_fail = [], None
    for k in range(1, k_max + 1):
        found = len(cycles(endomap(f, k), level=k).cycles)
        counts.append((k, found))
        if first_fail is None and found != 1:
            first_fail = k
    return CycleVerdict(
        passed=first_fail is None, p=f.p, n=f.delay, k_max=k_max,
        first_failing_level=first_fail, cycle_counts=tuple(counts),
    )


def _one_table_subjects():
    """(factory, k_max) over built-ins, seeded series and machines at
    n = 0, 1 and 2, named by their ids; each factory builds a fresh oracle."""
    rng = random.Random(23)
    subjects = [
        ("shift-2-1", lambda: shift_oracle(2, 1), 8),
        ("shift-3-1", lambda: shift_oracle(3, 1), 5),
        ("shift-2-2", lambda: shift_oracle(2, 2), 4),
        ("odometer-2", lambda: odometer_oracle(2), 8),
        ("odometer-3", lambda: odometer_oracle(3), 5),
        ("zero-2-1", lambda: zero_oracle(2, 1), 6),
        ("zero-3-2", lambda: zero_oracle(3, 2), 3),
        ("binomial-square", binomial_square, 7),
        ("echo-2-1", lambda: function_of(delay_echo_transducer(2, 1)), 6),
        ("echo-3-2", lambda: function_of(delay_echo_transducer(3, 2)), 3),
        ("odometer-machine-2", lambda: function_of(odometer_transducer(2)), 7),
    ]
    k_maxes = {(2, 1): 8, (3, 1): 5, (2, 2): 4, (3, 2): 3}
    for p, n in sf.ACCEPTANCE_CONFIGS:
        for family in (sf.unconstrained, sf.delay_sound, sf.mp_passing, sf.ergodic_passing):
            series = family(rng, p, n, sf.draw_support(rng, p, n))
            subjects.append((f"{family.__name__}-{p}-{n}",
                             lambda s=series: series_oracle(s), k_maxes[p, n]))
    return [pytest.param(factory, k_max, id=name) for name, factory, k_max in subjects]


@pytest.mark.parametrize("factory,k_max", _one_table_subjects())
def test_upto_checks_evaluate_one_table(factory, k_max):
    f = factory()
    p, n = f.p, f.delay
    counted, calls = _counting(f)
    assert is_measure_preserving_upto(counted, k_max) == _reference_mp(factory(), k_max)
    dom, cod = level_exponents(n, k_max)
    assert calls == [("values", cod, p ** dom)]
    calls.clear()
    assert unique_cycle_upto(counted, k_max) == _reference_cycles(factory(), k_max)
    e = endomap_exponent(n, k_max)
    assert calls == [("values", e, p ** e)]
