import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_automata.mahler import MahlerSeries
from padic_automata.padics import is_prime, valuation
from padic_automata.subjects import identity_transducer
from padic_automata.transducer import function_of

from series_factory import floor_log


def test_make_reduces_modulo():
    # residues are made canonical mod p^K: 30 == 3 (mod 27)
    assert MahlerSeries.from_ints(3, 0, 3, [30]).coeffs == (3,)
    assert function_of(identity_transducer(3)).value(30, 3) == 3
    assert valuation(3, 3, 30) == 1


def test_make_negative_wraps():
    assert MahlerSeries.from_ints(2, 0, 4, [-1]).coeffs == (15,)
    assert function_of(identity_transducer(2)).value(-1, 4) == 15


def test_is_prime_agrees_with_trial_division():
    for n in range(10**4):
        trial = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == trial, n


@pytest.mark.parametrize("n,prime", [
    (561, False),  # a Carmichael number
    (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
    (3825123056546413051, False),  # strong pseudoprime to bases 2 .. 31
    (318665857834031151167461, False),  # strong pseudoprime to bases 2 .. 37
    (2**61 - 1, True),
    (10**18 + 3, True),
])
def test_is_prime_large(n, prime):
    assert is_prime(n) == prime


def test_is_prime_refuses_past_its_bound():
    assert is_prime(3317044064679887385961813)  # the last prime below the bound
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(3317044064679887385961981)


def test_valuation_examples():
    assert valuation(2, 8, 12) == 2
    assert valuation(3, 4, 18) == 2
    assert valuation(5, 6, 0) is None
    # only the lowest ``precision`` digits are seen: 32 == 0 (mod 2^5)
    assert valuation(2, 5, 32) is None
    assert valuation(2, 6, 32) == 5
    # negative values are read as their canonical residue
    assert valuation(2, 4, -1) == 0
    assert valuation(3, 3, -9) == 2


def test_floor_log_exact():
    assert floor_log(2, 1) == 0
    assert floor_log(2, 15) == 3
    assert floor_log(2, 16) == 4
    assert floor_log(9, 80) == 1
    assert floor_log(9, 81) == 2
    with pytest.raises(ValueError):
        floor_log(2, 0)


@settings(max_examples=120)
@given(
    p=st.sampled_from([2, 3, 5]),
    precision=st.integers(1, 16),
    va=st.integers(0, 10**9),
    vb=st.integers(0, 10**9),
)
def test_ultrametric_inequality(p, precision, va, vb):
    def lower_bound(v):
        nu = valuation(p, precision, v)
        return precision if nu is None else nu

    assert lower_bound(va + vb) >= min(lower_bound(va), lower_bound(vb))


def test_binomial_lipschitz_window_exhaustive():
    """a == b (mod 2^(K + floor_log2 i)) forces C(a,i) == C(b,i) (mod 2^K).

    Exhaustive over a window of four periods for p = 2, i <= 16, K <= 6;
    this is the bound the delay coefficient check rests on.
    """
    p = 2
    for i in range(1, 17):
        e = floor_log(p, i)
        for K in range(1, 7):
            period = p ** (K + e)
            mod = p ** K
            for a in range(3 * period):
                assert math.comb(a + period, i) % mod == math.comb(a, i) % mod
