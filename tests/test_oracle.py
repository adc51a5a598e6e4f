"""FunctionOracle: the built-in maps' tables, ``value`` as one table
entry, the provider contract (every ``table`` yields residues in
[0, p^m)), ``levels``: one gated table at the top shape, every lower
shape a reduced prefix of it, ``lipschitz``: which oracles are known to
be genuine delay-n maps, and that every record of the package is
immutable, holds only what its check decided, and runs its constructor's
checks when built by ``_replace`` or ``_make``."""

import operator
import random
from itertools import accumulate, repeat

import pytest

from padic_automata.errors import BudgetExceededError
from padic_automata.formats import parse_transducer
from padic_automata.geometry import (
    CoverReport,
    PointSet2D,
    TransitivityReport,
    accumulate_image,
    cover_fraction,
    family_transitivity,
)
from padic_automata.mahler import (
    CheckStatus,
    CoefficientCheck,
    ConditionReport,
    MahlerSeries,
    check_delay_conditions,
    series_oracle,
)
from padic_automata.oracle import FunctionOracle
from padic_automata.quotient import (
    CycleVerdict,
    MeasureVerdict,
    is_measure_preserving_upto,
    unique_cycle_upto,
)
from padic_automata.subjects import (
    BUILTIN_NAMES,
    digitwise_add_family,
    identity_transducer,
    make_builtin,
    polynomial_oracle,
    shift_oracle,
    zero_oracle,
)
from padic_automata.transducer import Transducer, function_of

import series_factory as sf
from series_factory import floor_log


def _subjects():
    """(factory, k_max) over seeded series, seeded table machines at
    delay 0, 1 and 2, and the built-in maps."""
    rng = random.Random(71)
    subjects = []
    for p, n, k_max in ((2, 1, 7), (3, 1, 4), (2, 2, 3)):
        series = sf.unconstrained(rng, p, n, sf.draw_support(rng, p, n))
        subjects.append((f"series-{p}-{n}", lambda s=series: series_oracle(s), k_max))
    for seed, (p, n, k_max) in enumerate(((2, 0, 7), (3, 0, 4), (2, 1, 6), (3, 1, 4), (2, 2, 3))):
        machine = sf.table_machine(seed, p, 5, n)
        subjects.append((f"machine-{p}-n{n}", lambda t=machine: function_of(t), k_max))
    subjects += [
        ("shift-2-1", lambda: shift_oracle(2, 1), 7),
        ("shift-3-2", lambda: shift_oracle(3, 2), 3),
        ("zero-2-1", lambda: zero_oracle(2, 1), 6),
        ("zero-3-0", lambda: zero_oracle(3, 0), 4),
        ("polynomial-3", lambda: polynomial_oracle(3, [1, 2, 5]), 4),
    ]
    return [pytest.param(factory, k_max, id=name) for name, factory, k_max in subjects]


BUILTIN_TABLES = {
    "zero-n0": (lambda p: zero_oracle(p, 0), lambda x, p: 0),
    "zero-n2": (lambda p: zero_oracle(p, 2), lambda x, p: 0),
    "polynomial": (lambda p: polynomial_oracle(p, (3, -1, 0, 2)), lambda x, p: 3 - x + 2 * x ** 3),
    "shift-n1": (lambda p: shift_oracle(p, 1), lambda x, p: x // p),
    "shift-n2": (lambda p: shift_oracle(p, 2), lambda x, p: x // p ** 2),
    "shift-n3": (lambda p: shift_oracle(p, 3), lambda x, p: x // p ** 3),
}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", BUILTIN_TABLES)
def test_builtin_tables_match_closed_forms(name, p):
    """Each built-in's table against its closed form at every count shape,
    and ``value`` as the canonical residue's entry of the full table."""
    make, reference = BUILTIN_TABLES[name]
    f = make(p)
    for m in range(1, 4):
        domain = p ** (m + f.delay)
        for count in sorted({0, 1, p + 1, domain - 1, domain} & set(range(domain + 1))):
            expected = [reference(x, p) % p ** m for x in range(count)]
            assert f.values(m, count) == expected, (m, count)
        table = f.values(m, domain)
        for x in (domain, 3 * domain + p, -1, -domain - 2):
            assert f.value(x, m) == table[x % domain], (m, x)


def test_shift_table_holds_one_int_per_value():
    """The shift's table repeats one int object per value, also for values
    past the small-int cache, instead of a fresh quotient per entry."""
    table = shift_oracle(2, 1).values(12, 2 ** 13)
    assert table[-1] == 2 ** 12 - 1
    assert len(set(map(id, table))) == len(set(table)) == 2 ** 12


def _readings(n, k_max):
    """The shapes the fiber, cycle and image checks ask for."""
    e = max(n, 1)
    return {
        "fibers": [(n * k, n * (k - 1)) if n else (k, k) for k in range(2, k_max + 1)],
        "cycles": [(e * k, e * k) for k in range(1, k_max + 1)],
        "image": [(n + k, k) for k in range(1, k_max + 1)],
        "image-gaps": [(n + k, k) for k in (1, k_max)],
    }


@pytest.fixture
def values_calls(monkeypatch):
    """Every FunctionOracle.values call, as (m, count)."""
    calls = []
    values = FunctionOracle.values

    def spy(self, m, count):
        calls.append((m, count))
        return values(self, m, count)

    monkeypatch.setattr(FunctionOracle, "values", spy)
    return calls


@pytest.mark.parametrize("factory,k_max", _subjects())
def test_levels_match_direct_tables_from_one_values_call(factory, k_max, values_calls):
    f = factory()
    for reading, shapes in _readings(f.delay, k_max).items():
        values_calls.clear()
        tables = list(f.levels(shapes, 1 << 24, "entries"))
        d, c = shapes[-1]
        assert values_calls == [(c, f.p ** d)], reading
        assert len(tables) == len(shapes)
        fresh = factory()
        for (d, c), table in zip(shapes, tables):
            assert table == fresh.values(c, f.p ** d), (reading, d, c)


@pytest.mark.parametrize(
    "factory",
    [
        pytest.param(lambda: shift_oracle(2, 1), id="shift-cost-1"),
        pytest.param(lambda: zero_oracle(3, 1), id="zero-cost-1"),
        pytest.param(lambda: series_oracle(sf.unconstrained(random.Random(72), 2, 1, 9)),
                     id="series-cost-9"),
        pytest.param(lambda: series_oracle(sf.unconstrained(random.Random(73), 3, 1, 5)),
                     id="series-cost-5"),
    ],
)
def test_levels_gate_the_top_table_before_it_is_built(factory, values_calls):
    f = factory()
    shapes = [(2, 1), (3, 2), (4, 3)]
    entries = f.p ** 4
    cost = entries * f.entry_cost
    with pytest.raises(BudgetExceededError) as raised:
        f.levels(shapes, cost - 1, f"level-table entries ({f.p}^4)")
    assert values_calls == []
    if f.entry_cost == 1:
        message = f"{entries} level-table entries ({f.p}^4)"
    else:
        message = (f"{cost} additions for {entries} level-table entries ({f.p}^4)"
                   f" at {f.entry_cost} terms each")
    assert str(raised.value) == f"{message} exceed the budget {cost - 1}"
    assert len(list(f.levels(shapes, cost, "entries"))) == 3
    assert values_calls == [(3, entries)]


def _builtin_oracles():
    """Every built-in at p = 2 and 3 and delays 0-2, where it exists."""
    params = []
    for name in BUILTIN_NAMES:
        for p in (2, 3):
            for n in (0, 1, 2):
                try:
                    subject = make_builtin(name, p, n, [3, -1, 0, 2])
                except ValueError:  # shift and delay-echo need n >= 1
                    continue
                params.append(pytest.param(subject, id=f"{name}-p{p}-n{n}"))
    return params


# A three-state machine over p = 3 with a one-letter delay.
DOCUMENT = """
schema padic-transducer-v1
p 3
kind async
initial a
trans a 0 b :
trans a 1 c :
trans a 2 b :
trans b 0 c : 2
trans b 1 b : 0
trans b 2 c : 1
trans c 0 b : 1
trans c 1 c : 2
trans c 2 b : 2
"""


def _assert_reduced(f, m):
    """``table`` returns a new list of residues in [0, p^m), and ``values``
    is the reference reduction of that table, at the full domain and below it."""
    mod, domain = f.p ** m, f.p ** (m + f.delay)
    for count in (domain, domain - 1, domain // f.p + 1):
        table = f.table(m, count)
        assert type(table) is list and f.table(m, count) is not table
        assert len(table) == count
        assert all(0 <= v < mod for v in table), (m, count)
        assert f.values(m, count) == list(map(operator.mod, table, repeat(mod)))


@pytest.mark.parametrize("subject", _builtin_oracles())
def test_builtin_tables_arrive_reduced(subject):
    f = function_of(subject) if isinstance(subject, Transducer) else subject
    for m in (1, 2, 3):
        _assert_reduced(f, m)


@pytest.mark.parametrize("p,n", sf.ACCEPTANCE_CONFIGS)
def test_series_table_arrives_reduced_below_its_precision(p, n):
    """The kept table holds unreduced slot sums; read at m < precision
    after a longer build, it still yields residues mod p^m."""
    series = sf.unconstrained(random.Random(74 + p + n), p, n, p ** (2 * n) + 4, precision=5)
    f = series_oracle(series)
    f.values(5, p ** (3 + n) + 7)
    for m in (1, 2, 3):
        _assert_reduced(f, m)


def test_document_transducer_table_arrives_reduced():
    f = function_of(parse_transducer(DOCUMENT))
    assert (f.p, f.delay) == (3, 1)
    for m in (1, 2, 3):
        _assert_reduced(f, m)


def _floor_draws(rng, p, n):
    """Seeded series about the delay floors v(a_i) >= floor_log(p, i) - n:
    draws that meet every floor and draws with one coefficient of valuation
    one below its floor, at precision 12 and at precision 1.  At precision
    1 the floors past the precision can only be met by a zero residue, which
    the delay check leaves undecided."""
    draws = []
    for precision, support in ((12, p ** (n + 2) + 2), (1, p ** (n + 2) + 1)):
        mod = p ** precision
        floors = [max(floor_log(p, i) - n, 0) for i in range(1, support)]
        breakable = [i for i, f in enumerate(floors, 1) if 1 <= f <= precision]
        for broken in [None] * 4 + rng.choices(breakable, k=4):
            values = [rng.randrange(mod)]
            for i, floor in enumerate(floors, 1):
                if i == broken:  # valuation exactly floor - 1
                    values.append(p ** (floor - 1) * (1 + p * rng.randrange(mod)))
                else:  # zero when the floor is at or past the precision
                    values.append(p ** floor * rng.randrange(mod))
            draws.append(MahlerSeries.from_ints(p, n, precision, values))
    return draws


def _integer_values(coeffs, count):
    """sum_i a_i C(x, i) over the integers for x < count, by prefix sums:
    g_i(x) = a_i + sum_{t < x} g_{i+1}(t) is sum_j a_(i+j) C(x, j)."""
    g = [coeffs[-1]] * count
    for a in reversed(coeffs[:-1]):
        g = list(accumulate(g[:count - 1], initial=a))
    return g


@pytest.mark.parametrize("p,n", [(2, 0), (3, 0), (2, 1), (3, 1), (2, 2), (3, 2)])
def test_series_oracle_is_lipschitz_exactly_when_its_stored_coefficients_meet_the_delay_floors(p, n):
    """At n >= 1 the property is the delay check's "not FAIL" (a zero residue
    past the precision counts, as the oracle sums the stored integers).  When
    it holds, f(x) == f(x mod p^(m+n)) (mod p^m) over x < p^(m+n+1), m <= 3."""
    seen = set()
    for series in _floor_draws(random.Random(75 + 10 * p + n), p, n):
        genuine = series_oracle(series).lipschitz
        seen.add(genuine)
        if n:
            verdict = check_delay_conditions(series).verdict
            assert genuine == (verdict is not CheckStatus.FAIL), series
            seen.add(verdict)
        if genuine:
            f = _integer_values(series.coeffs, p ** (n + 4))
            for m in (1, 2, 3):
                low, mod = p ** (m + n), p ** m
                for x in range(p * low):
                    assert (f[x] - f[x % low]) % mod == 0, (series, m, x)
    assert {True, False} <= seen
    if n:
        assert {CheckStatus.PASS, CheckStatus.INSUFFICIENT, CheckStatus.FAIL} <= seen


def _genuine_subjects():
    """Every built-in, seeded table machines at delays 0-2, and DOCUMENT."""
    params = _builtin_oracles()
    for seed, (p, n) in enumerate(((2, 0), (3, 0), (2, 1), (3, 1), (2, 2))):
        params.append(pytest.param(sf.table_machine(seed, p, 5, n), id=f"machine-{p}-n{n}"))
    params.append(pytest.param(parse_transducer(DOCUMENT), id="document"))
    return params


@pytest.mark.parametrize("subject", _genuine_subjects())
def test_builtin_and_machine_oracles_are_lipschitz(subject):
    f = function_of(subject) if isinstance(subject, Transducer) else subject
    assert f.lipschitz is True


def test_an_oracle_built_by_hand_is_not_known_to_be_lipschitz():
    f = FunctionOracle(p=2, delay=1, source="built-in", table=lambda m, count: [0] * count)
    assert f.lipschitz is False


def _records():
    """One instance of each of the package's ten record classes, built the
    way callers get them."""
    series = MahlerSeries.from_ints(2, 1, 8, [0, 1, 2, 4])
    points = accumulate_image(shift_oracle(2), [1, 2])
    builds = (
        (MeasureVerdict, lambda: is_measure_preserving_upto(shift_oracle(2), 3)),
        (CycleVerdict, lambda: unique_cycle_upto(shift_oracle(2), 2)),
        (CoefficientCheck, lambda: check_delay_conditions(series).checks[0]),
        (ConditionReport, lambda: check_delay_conditions(series)),
        (MahlerSeries, lambda: series),
        (FunctionOracle, lambda: shift_oracle(2)),
        (Transducer, lambda: identity_transducer(2)),
        (PointSet2D, lambda: points),
        (CoverReport, lambda: cover_fraction(points, 1)),
        (TransitivityReport, lambda: family_transitivity(digitwise_add_family(2), 1, 1)),
    )
    return [pytest.param(cls, build, id=cls.__name__) for cls, build in builds]


@pytest.mark.parametrize("cls,build", _records())
def test_records_reject_attribute_assignment(cls, build):
    record = build()
    assert type(record) is cls
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    with pytest.raises(ValueError, match="delay must be >= 0"):
        FunctionOracle(p=2, delay=-1, source="built-in", table=lambda m, count: [0] * count)


def test_result_records_hold_only_what_their_check_decided():
    """The inputs of a check (p, n, k_max, precision, levels, depth) stay
    with its caller; an oracle's genuineness is a field its provider sets."""
    assert MeasureVerdict._fields == ("passed", "first_failing_level", "histograms")
    assert CycleVerdict._fields == ("passed", "first_failing_level", "cycle_counts")
    assert ConditionReport._fields == ("which", "checks")
    assert TransitivityReport._fields == ("passed", "states_examined", "counterexample")
    assert CoverReport._fields == ("p", "m", "occupied", "fraction", "cells")
    assert "lipschitz" in FunctionOracle._fields
    assert FunctionOracle._field_defaults["lipschitz"] is False


def _replacements():
    """(record, a change that breaks its class's check, a valid change) for
    each record whose constructor checks its fields."""
    points = accumulate_image(shift_oracle(2), [1, 2])
    return [
        pytest.param(MahlerSeries.from_ints(2, 1, 4, [0, 1]), {"p": 4, "coeffs": (99,)},
                     {"coeffs": (1, 3)}, id="MahlerSeries"),
        pytest.param(points, {"codes": points.codes[::-1]}, {"levels": (2,)}, id="PointSet2D"),
        pytest.param(shift_oracle(2), {"delay": -1},
                     {"table": lambda m, count: [0] * count}, id="FunctionOracle"),
    ]


@pytest.mark.parametrize("record,broken,valid", _replacements())
def test_replace_and_make_run_the_constructor_checks(record, broken, valid):
    cls, fields = type(record), record._asdict()
    with pytest.raises(ValueError) as built:
        cls(**{**fields, **broken})
    with pytest.raises(ValueError) as replaced:
        record._replace(**broken)
    assert str(replaced.value) == str(built.value)
    with pytest.raises(ValueError) as made:
        cls._make({**fields, **broken}.values())
    assert str(made.value) == str(built.value)
    changed = record._replace(**valid)
    assert type(changed) is cls
    assert changed == cls(**{**fields, **valid})
