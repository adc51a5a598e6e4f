"""Bundled machines and maps used as test subjects and CLI built-ins.

Everything here is constructed from first principles so that every
acceptance check can run with zero authoring: the identity and odometer
machines, the n-step delayed echo, the digitwise-add family (the bundled
transitive family), plus directly-coded map oracles (shift, constant
zero, integer polynomials), each of which returns its level table as a
new list and is a genuine delay-n map (``lipschitz``).
"""

from __future__ import annotations

from typing import Sequence

from .oracle import FunctionOracle
from .padics import is_prime
from .transducer import Transducer

__all__ = [
    "BUILTIN_NAMES",
    "delay_echo_transducer",
    "digitwise_add_family",
    "identity_transducer",
    "make_builtin",
    "odometer_transducer",
    "polynomial_oracle",
    "shift_oracle",
    "zero_oracle",
]


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def identity_transducer(p: int) -> Transducer:
    """One state, echoes each letter."""
    _require_prime(p)
    return Transducer(
        p=p,
        initial="s0",
        step=lambda s, a: ("s0", (a,)),
        name="identity",
    )


def odometer_transducer(p: int) -> Transducer:
    """x + 1 on digits: state is the pending carry, initially 1."""
    _require_prime(p)
    return Transducer(
        p=p,
        initial=1,
        step=lambda carry, a: ((a + carry) // p, ((a + carry) % p,)),
        name="odometer",
    )


def delay_echo_transducer(p: int, n: int) -> Transducer:
    """Silent for the first n letters, then echoes; realizes x -> floor(x / p^n).

    The state counts letters still to swallow; n = 0 gives the identity.
    """
    _require_prime(p)
    if n < 0:
        raise ValueError(f"delay must be >= 0, got {n}")
    return Transducer(
        p=p,
        initial=n,
        step=lambda remaining, a: (max(remaining - 1, 0), () if remaining > 0 else (a,)),
        name=f"delay-echo({n})",
    )


def digitwise_add_family(p: int) -> Transducer:
    """Carry-free addition family: state m adds the digits of m to the input.

    Reading letter a in state m outputs (a + m) mod p and keeps the
    remaining digits floor(m / p).  The state space is all of the
    nonnegative integers; depth-D exploration enumerates the addends
    below p^D, which is what makes the family transitive on length-D
    words (pick m with digits v - u mod p, digit by digit).
    """
    _require_prime(p)
    return Transducer(
        p=p,
        initial=0,
        step=lambda m, a: (m // p, ((m + a) % p,)),
        family=lambda depth: range(p ** depth),
        name="digitwise-add",
    )


def shift_oracle(p: int, n: int = 1) -> FunctionOracle:
    """x -> floor(x / p^n), the canonical n-unit delay; the identity at n = 0.

    With q = p^n, the table over x < count is 0, 1, ..., each value
    repeated q times, cut at count; each entry is already reduced, since
    x < p^(m+n) gives x // q < p^m.  It is built as q copies of
    range(ceil(count / q)) sorted into one run (Timsort merges the q
    sorted runs at C speed): each value is one int object repeated, with
    no division per entry, so the reads of the table (fiber counts,
    lower-level reductions, cycle walks) touch count / q distinct objects,
    not count.
    """
    _require_prime(p)
    q = p ** n

    def table(m: int, count: int) -> list[int]:
        values = list(range(-(-count // q))) * q
        values.sort()
        del values[count:]
        return values

    return FunctionOracle(p=p, delay=n, source="built-in", table=table, lipschitz=True)


def zero_oracle(p: int, n: int = 1) -> FunctionOracle:
    """The constant-zero map declared with an n-unit delay."""
    _require_prime(p)
    return FunctionOracle(p=p, delay=n, source="built-in",
                          table=lambda m, count: [0] * count, lipschitz=True)


def polynomial_oracle(p: int, coefficients: Sequence[int] | None) -> FunctionOracle:
    """f(x) = c0 + c1 x + ... over the integers; synchronous (delay 0).

    Integer polynomials are 1-Lipschitz in the p-adic metric, so m digits
    of input determine m digits of output.
    """
    _require_prime(p)
    coeffs = tuple(int(c) for c in coefficients or ())
    if not coeffs:
        raise ValueError("polynomial needs at least one coefficient")

    def horner(m: int, count: int) -> list[int]:
        mod, values = p ** m, []
        for x in range(count):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * x + c) % mod
            values.append(acc)
        return values

    return FunctionOracle(p=p, delay=0, source="built-in", table=horner,
                          lipschitz=True)


# name -> factory(p, n, coefficients); the CLI offers the names in this order
_BUILTINS = {
    "identity": lambda p, n, coefficients: identity_transducer(p),
    "odometer": lambda p, n, coefficients: odometer_transducer(p),
    "digitwise-add": lambda p, n, coefficients: digitwise_add_family(p),
    "delay-echo": lambda p, n, coefficients: delay_echo_transducer(p, n),
    "shift": lambda p, n, coefficients: shift_oracle(p, n),
    "zero": lambda p, n, coefficients: zero_oracle(p, n),
    "polynomial": lambda p, n, coefficients: polynomial_oracle(p, coefficients),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def make_builtin(
    name: str, p: int, n: int = 1, coefficients: Sequence[int] | None = None
):
    """CLI-facing factory: returns a transducer or an oracle by name."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown built-in {name!r}; choose from {BUILTIN_NAMES}")
    return _BUILTINS[name](p, n, coefficients)
