"""Bundled machines and maps used as test subjects and CLI built-ins.

Everything here is constructed from first principles so that every
acceptance check can run with zero authoring: the identity and odometer
machines, the n-step delayed echo, the digitwise-add family (the bundled
transitive family), plus directly-coded map oracles (shift, constant
zero, integer polynomials).
"""

from __future__ import annotations

from typing import Sequence

from .oracle import FunctionOracle
from .padics import is_prime
from .transducer import AsyncTransducer, SyncTransducer

__all__ = [
    "BUILTIN_NAMES",
    "delay_echo_transducer",
    "digitwise_add_family",
    "identity_transducer",
    "make_builtin",
    "odometer_oracle",
    "odometer_transducer",
    "polynomial_oracle",
    "shift_oracle",
    "zero_oracle",
]


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def identity_transducer(p: int) -> SyncTransducer:
    """One state, echoes each letter."""
    _require_prime(p)
    return SyncTransducer(
        p=p,
        initial="s0",
        delta=lambda s, a: "s0",
        output=lambda s, a: a,
        name="identity",
    )


def odometer_transducer(p: int) -> SyncTransducer:
    """x + 1 on digits: state is the pending carry, initially 1."""
    _require_prime(p)
    return SyncTransducer(
        p=p,
        initial=1,
        delta=lambda carry, a: (a + carry) // p,
        output=lambda carry, a: (a + carry) % p,
        name="odometer",
    )


def delay_echo_transducer(p: int, n: int) -> AsyncTransducer:
    """Silent for the first n letters, then echoes; realizes x -> floor(x / p^n).

    The state counts letters still to swallow.
    """
    _require_prime(p)
    if n < 1:
        raise ValueError(f"delay must be >= 1, got {n}")
    return AsyncTransducer(
        p=p,
        initial=n,
        delta=lambda remaining, a: max(remaining - 1, 0),
        output=lambda remaining, a: () if remaining > 0 else (a,),
        name=f"delay-echo({n})",
    )


def digitwise_add_family(p: int) -> SyncTransducer:
    """Carry-free addition family: state m adds the digits of m to the input.

    Reading letter a in state m outputs (a + m) mod p and keeps the
    remaining digits floor(m / p).  The state space is all of the
    nonnegative integers; depth-D exploration enumerates the addends
    below p^D, which is what makes the family transitive on length-D
    words (pick m with digits v - u mod p, digit by digit).
    """
    _require_prime(p)
    return SyncTransducer(
        p=p,
        initial=0,
        delta=lambda m, a: m // p,
        output=lambda m, a: (m + a) % p,
        family=lambda depth: range(p ** depth),
        name="digitwise-add",
    )


def shift_oracle(p: int, n: int = 1) -> FunctionOracle:
    """x -> floor(x / p^n): drops the first n digits; the canonical n-unit delay."""
    _require_prime(p)
    if n < 1:
        raise ValueError(f"shift delay must be >= 1, got {n}")
    q = p ** n
    return FunctionOracle(
        p=p,
        delay=n,
        source="built-in",
        _fn=lambda x, m: x // q,
        _bulk=lambda m, count: (x // q for x in range(count)),
    )


def zero_oracle(p: int, n: int = 1) -> FunctionOracle:
    """The constant-zero map declared with an n-unit delay."""
    _require_prime(p)
    if n < 0:
        raise ValueError(f"delay must be >= 0, got {n}")
    return FunctionOracle(p=p, delay=n, source="built-in", _fn=lambda x, m: 0)


def polynomial_oracle(p: int, coefficients: Sequence[int]) -> FunctionOracle:
    """f(x) = c0 + c1 x + ... over the integers; synchronous (delay 0).

    Integer polynomials are 1-Lipschitz in the p-adic metric, so m digits
    of input determine m digits of output.
    """
    _require_prime(p)
    coeffs = tuple(int(c) for c in coefficients)
    if not coeffs:
        raise ValueError("polynomial needs at least one coefficient")

    def horner(x: int, m: int) -> int:
        mod = p ** m
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % mod
        return acc

    return FunctionOracle(p=p, delay=0, source="built-in", _fn=horner)


def odometer_oracle(p: int) -> FunctionOracle:
    """x + 1 as a polynomial oracle; the classical ergodic anchor."""
    return polynomial_oracle(p, (1, 1))


BUILTIN_NAMES = (
    "identity",
    "odometer",
    "digitwise-add",
    "delay-echo",
    "shift",
    "zero",
    "polynomial",
)


def make_builtin(
    name: str, p: int, n: int = 1, coefficients: Sequence[int] | None = None
):
    """CLI-facing factory: returns a transducer or an oracle by name."""
    if name == "identity":
        return identity_transducer(p)
    if name == "odometer":
        return odometer_transducer(p)
    if name == "digitwise-add":
        return digitwise_add_family(p)
    if name == "delay-echo":
        return delay_echo_transducer(p, n)
    if name == "shift":
        return shift_oracle(p, n)
    if name == "zero":
        return zero_oracle(p, n)
    if name == "polynomial":
        if coefficients is None:
            raise ValueError("polynomial built-in needs coefficients")
        return polynomial_oracle(p, coefficients)
    raise ValueError(f"unknown built-in {name!r}; choose from {BUILTIN_NAMES}")
