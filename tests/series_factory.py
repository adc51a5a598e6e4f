"""Seeded random-series generators for the oracle cross-checks.

Populations are built coefficient-by-coefficient against explicit
valuation floors, so each sample provably belongs to its population:

* ``delay_sound``: passes the delay coefficient check, whose valuations
  v(a_i) >= floor_log(p, i) - n make x == y (mod p^(m+n)) force
  f(x) == f(y) (mod p^m) through the binomial Lipschitz bound.
* ``mp_passing``: the measure-preservation conditions: a_{p^n} a unit
  and v(a_i) >= floor_log(p, i) - n + 1 past p^n.  The tail floor counts
  digits in base p, not in base p^n; at n = 1 the two coincide.
* ``mp_failing``: ditto with exactly one congruence broken (one power
  short of its floor, or a non-unit a_{p^n}).
* ``ergodic_passing``: the ergodicity conditions (a superset of
  ``mp_passing`` constraints).
* ``unconstrained``: anything at all.

``floor_log`` is the exact integer logarithm those floors are written
in.  ``table_machine`` draws a seeded table machine at a given delay, and
``simulate`` is the reference for every machine traversal: it reads one
word letter by letter and uses nothing of the package but the machine's
own ``step``.
"""

from __future__ import annotations

import random

from padic_automata.mahler import MahlerSeries
from padic_automata.transducer import Transducer

DEFAULT_PRECISION = 12


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


def printed_delay_floor(p: int, n: int, i: int) -> int:
    """Valuation the delay coefficient check demands at index i >= 1."""
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
        values.append(_draw_with_floor(rng, p, precision, printed_delay_floor(p, n, i)))
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
    values = list(base.coeffs)
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
    values = list(base.coeffs)
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


def table_machine(seed: int, p: int, states: int, delay: int = 0) -> Transducer:
    """A machine on states 0..states-1 with seeded random tables.

    At delay n it first reads n letters silently through lag states
    ("lag", i, r), r the residue of the i letters read, and the last of
    them enters a seeded state, so every silent letter can matter.
    """
    rng = random.Random(seed)
    keys = [(s, a) for s in range(states) for a in range(p)]
    # the seeded draw order: every next state, then every output
    nexts = [rng.randrange(states) for _ in keys]
    table = {key: (nxt, (rng.randrange(p),)) for key, nxt in zip(keys, nexts)}
    for i in range(delay):
        for r in range(p ** i):
            for a in range(p):
                lag = ("lag", i + 1, r + a * p ** i)
                table[("lag", i, r), a] = lag if i + 1 < delay else rng.randrange(states), ()
    initial = ("lag", 0, 0) if delay else 0
    return Transducer.from_table(p, initial, table, name="table")


def ref_word(value: int, length: int, p: int) -> tuple[int, ...]:
    """The length-``length`` word of ``value`` mod p^length, first-read digit first."""
    digits = []
    for _ in range(length):
        value, d = divmod(value, p)
        digits.append(d)
    return tuple(digits)


def ref_value(word, p: int) -> int:
    """Inverse of :func:`ref_word`: the residue of ``word`` mod p^len(word)."""
    out = 0
    for d in reversed(word):
        out = out * p + d
    return out


def simulate(t: Transducer, word, start=None) -> tuple[int, ...]:
    """The concatenated output words of ``t`` reading ``word`` letter by
    letter from ``start`` (default: the initial state)."""
    s = t.initial if start is None else start
    out: list[int] = []
    for a in word:
        if not 0 <= a < t.p:
            raise ValueError(f"letter {a} outside the alphabet 0..{t.p - 1}")
        s, word_out = t.step(s, a)
        out.extend(word_out)
    return tuple(out)


def simulate_value(t: Transducer, x: int, m: int, n: int) -> int:
    """f(x) mod p^m of the delay-n machine ``t``, from the m + n letters of x."""
    out = simulate(t, ref_word(x, m + n, t.p))
    assert len(out) == m, (t.name, x, m, n, out)
    return ref_value(out, t.p)
