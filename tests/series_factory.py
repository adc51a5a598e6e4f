"""Seeded random-series generators for the oracle cross-checks.

Populations are built coefficient-by-coefficient against explicit
valuation floors, so each sample provably belongs to its population:

* ``delay_sound``: passes the delay coefficient check AND carries the
  stronger valuations v(a_i) >= floor_log(p, i) - n that make
  x == y (mod p^(m+n)) force f(x) == f(y) (mod p^m) through the binomial
  Lipschitz bound.  (The delay check alone demands one power less for
  n >= 2; see test_mahler for what that gap costs.)
* ``mp_passing``: the measure-preservation conditions: a_{p^n} a unit
  and v(a_i) >= floor_log(p, i) - n + 1 past p^n.  The tail floor counts
  digits in base p, not in base p^n; at n = 1 the two coincide.
* ``mp_failing``: ditto with exactly one congruence broken (one power
  short of its floor, or a non-unit a_{p^n}).
* ``ergodic_passing``: the ergodicity conditions (a superset of
  ``mp_passing`` constraints).
* ``unconstrained``: anything at all.

``table_machine`` draws a seeded synchronous table machine.
"""

from __future__ import annotations

import random

from padic_automata.mahler import MahlerSeries
from padic_automata.padics import floor_log
from padic_automata.transducer import SyncTransducer

DEFAULT_PRECISION = 12


def printed_delay_floor(p: int, n: int, i: int) -> int:
    """Valuation the delay coefficient check demands at index i >= 1."""
    return max(floor_log(p ** n, i) - 1, 0)


def dependence_floor(p: int, n: int, i: int) -> int:
    """Valuation making index i harmless to (m+n)-digit delay dependence."""
    return max(floor_log(p, i) - n, 0)


def tail_floor(p: int, n: int, i: int) -> int:
    """Valuation the measure-preservation tail demands past index p^n."""
    return floor_log(p, i) - n + 1


def _draw_with_floor(rng: random.Random, p: int, precision: int, floor: int) -> int:
    return (p ** floor) * rng.randrange(p ** (precision - floor))


def _draw_unit(rng: random.Random, p: int, precision: int) -> int:
    u = rng.randrange(p ** precision)
    while u % p == 0:
        u = rng.randrange(p ** precision)
    return u


def unconstrained(
    rng: random.Random, p: int, n: int, support: int, precision: int = DEFAULT_PRECISION
) -> MahlerSeries:
    values = [rng.randrange(p ** precision) for _ in range(support)]
    return MahlerSeries.from_ints(p, n, precision, values)


def delay_sound(
    rng: random.Random, p: int, n: int, support: int, precision: int = DEFAULT_PRECISION
) -> MahlerSeries:
    values = [rng.randrange(p ** precision)]
    for i in range(1, support):
        floor = max(printed_delay_floor(p, n, i), dependence_floor(p, n, i))
        values.append(_draw_with_floor(rng, p, precision, floor))
    return MahlerSeries.from_ints(p, n, precision, values)


def mp_passing(
    rng: random.Random, p: int, n: int, support: int, precision: int = DEFAULT_PRECISION
) -> MahlerSeries:
    q = p ** n
    if support <= q:
        raise ValueError(f"support must exceed {q} for the unit condition")
    values = []
    for i in range(support):
        if i == q:
            values.append(_draw_unit(rng, p, precision))
        elif i > q:
            values.append(_draw_with_floor(rng, p, precision, tail_floor(p, n, i)))
        else:
            values.append(rng.randrange(p ** precision))
    return MahlerSeries.from_ints(p, n, precision, values)


def mp_failing(
    rng: random.Random, p: int, n: int, support: int, precision: int = DEFAULT_PRECISION
) -> MahlerSeries:
    """An ``mp_passing`` draw with exactly one congruence broken."""
    base = mp_passing(rng, p, n, support, precision)
    values = list(base.coefficient_values())
    q = p ** n
    tail = list(range(q + 1, support))
    if tail and rng.random() < 0.5:
        i = rng.choice(tail)
        floor = tail_floor(p, n, i)
        # valuation exactly floor - 1: one power short of required
        values[i] = (p ** (floor - 1)) * _draw_unit(rng, p, precision - floor + 1)
    else:
        values[q] = p * rng.randrange(p ** (precision - 1))
    return MahlerSeries.from_ints(p, n, precision, values)


def ergodic_passing(
    rng: random.Random, p: int, n: int, support: int, precision: int = DEFAULT_PRECISION
) -> MahlerSeries:
    q = p ** n
    base = mp_passing(rng, p, n, support, precision)
    values = list(base.coefficient_values())
    values[q] = 1 + p * rng.randrange(p ** (precision - 1))
    head = sum(values[1:q]) % p
    if head:
        # steer the head sum to 0 mod p with the free index-1 coefficient
        values[1] = (values[1] - head) % p ** precision
    return MahlerSeries.from_ints(p, n, precision, values)


ACCEPTANCE_CONFIGS = ((2, 1), (3, 1), (2, 2), (3, 2))


def support_range(p: int, n: int) -> tuple[int, int]:
    """Valid support sizes for the unit condition, capped at p^(2n) + 4."""
    return p ** n + 1, p ** (2 * n) + 4


def draw_support(rng: random.Random, p: int, n: int) -> int:
    lo, hi = support_range(p, n)
    return rng.randrange(lo, hi + 1)


def table_machine(seed: int, p: int, states: int) -> SyncTransducer:
    """A synchronous machine on states 0..states-1 with seeded random tables."""
    rng = random.Random(seed)
    transitions = {(s, a): rng.randrange(states) for s in range(states) for a in range(p)}
    outputs = {(s, a): rng.randrange(p) for s in range(states) for a in range(p)}
    return SyncTransducer.from_tables(p, 0, transitions, outputs, name="table")
