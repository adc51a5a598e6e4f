"""Synchronous and asynchronous transducers over the alphabet {0..p-1}.

Words are digit sequences consumed least-significant-digit first, so a
word prefix of length k is exactly a residue mod p^k.  A synchronous
machine emits one letter per letter read; an asynchronous machine emits
a finite (possibly empty) word per step.  A machine whose output is
always exactly n letters behind its input realizes an n-unit delay map,
exposed through :class:`~padic_automata.oracle.FunctionOracle`.

State spaces may be infinite: a machine can carry a ``family`` callable
that enumerates the states belonging to exploration depth D, and every
whole-family query (reachability, transitivity, family images) is
qualified by the D it was run at.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from .errors import BudgetExceededError
from .oracle import FunctionOracle

__all__ = [
    "AsyncTransducer",
    "DelayProfile",
    "SyncTransducer",
    "TransitivityReport",
    "as_async",
    "delay_profile",
    "family_transitivity",
    "function_of",
    "reachable_states",
    "residual_map",
    "run_async",
    "run_sync",
    "word_of",
    "word_value",
]

State = Hashable


def word_of(value: int, length: int, p: int) -> tuple[int, ...]:
    """The length-``length`` digit word of ``value``, first-read digit first."""
    digits = []
    v = value % p ** length
    for _ in range(length):
        v, d = divmod(v, p)
        digits.append(d)
    return tuple(digits)


def word_value(word: Sequence[int], p: int) -> int:
    """Inverse of :func:`word_of`: the residue mod p^len(word)."""
    out = 0
    for d in reversed(word):
        out = out * p + d
    return out


def _check_letter(a: int, p: int) -> None:
    if not 0 <= a < p:
        raise ValueError(f"letter {a} outside the alphabet 0..{p - 1}")


def _lookup(table: dict, what: str) -> Callable[[State, int], object]:
    """(state, letter) -> table entry, failing loudly on a missing key."""

    def fn(s: State, a: int) -> object:
        try:
            return table[(s, a)]
        except KeyError:
            raise ValueError(f"no {what} from state {s!r} on letter {a}")

    return fn


@dataclass(frozen=True)
class SyncTransducer:
    """Letter-to-letter machine: delta(s, a) -> state, output(s, a) -> letter."""

    p: int
    initial: State
    delta: Callable[[State, int], State] = field(compare=False)
    output: Callable[[State, int], int] = field(compare=False)
    family: Callable[[int], Sequence[State]] | None = field(
        default=None, compare=False
    )
    name: str = "sync"

    @classmethod
    def from_tables(
        cls,
        p: int,
        initial: State,
        transitions: dict[tuple[State, int], State],
        outputs: dict[tuple[State, int], int],
        name: str = "sync",
    ) -> "SyncTransducer":
        return cls(p=p, initial=initial, delta=_lookup(transitions, "transition"),
                   output=_lookup(outputs, "output"), name=name)


@dataclass(frozen=True)
class AsyncTransducer:
    """Letter-to-word machine: output(s, a) is a finite word, possibly empty."""

    p: int
    initial: State
    delta: Callable[[State, int], State] = field(compare=False)
    output: Callable[[State, int], tuple[int, ...]] = field(compare=False)
    name: str = "async"

    @classmethod
    def from_tables(
        cls,
        p: int,
        initial: State,
        transitions: dict[tuple[State, int], State],
        outputs: dict[tuple[State, int], tuple[int, ...]],
        name: str = "async",
    ) -> "AsyncTransducer":
        return cls(p=p, initial=initial, delta=_lookup(transitions, "transition"),
                   output=_lookup(outputs, "output"), name=name)


def as_async(t: SyncTransducer) -> AsyncTransducer:
    """Embed a synchronous machine as a one-letter-per-step asynchronous one."""
    return AsyncTransducer(
        p=t.p,
        initial=t.initial,
        delta=t.delta,
        output=lambda s, a: (t.output(s, a),),
        name=t.name,
    )


def run_sync(
    t: SyncTransducer, word: Sequence[int], start: State | None = None
) -> tuple[int, ...]:
    """Standard Mealy run from ``start`` (default: the initial state)."""
    s = t.initial if start is None else start
    out = []
    for a in word:
        _check_letter(a, t.p)
        out.append(t.output(s, a))
        s = t.delta(s, a)
    return tuple(out)


def run_async(
    t: AsyncTransducer, word: Sequence[int], start: State | None = None
) -> tuple[int, ...]:
    """Concatenation of the per-step output words."""
    s = t.initial if start is None else start
    out: list[int] = []
    for a in word:
        _check_letter(a, t.p)
        out.extend(t.output(s, a))
        s = t.delta(s, a)
    return tuple(out)


@dataclass(frozen=True)
class DelayProfile:
    """Outcome of probing output lengths on all words up to a depth.

    ``constant`` means every word of length k <= depth produced exactly
    max(k - n, 0) output letters.  A machine that stayed silent through
    the whole probe is reported non-constant (no delay is witnessed), and
    a violating word is returned otherwise.
    """

    constant: bool
    depth: int
    n: int | None = None
    witness: tuple[int, ...] | None = None
    reason: str = ""


def delay_profile(
    t: AsyncTransducer, depth: int, budget: int = 1 << 24
) -> DelayProfile:
    """Determine the constant output delay of ``t``, if it has one.

    Explores (state, emitted-length) pairs breadth-first, which covers
    every word of length <= depth without enumerating p^depth words.
    :class:`BudgetExceededError` is raised before a frontier would hold
    more than ``budget`` pairs.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    # frontier: (state, output length) -> witness word reaching it
    frontier: dict[tuple[State, int], tuple[int, ...]] = {(t.initial, 0): ()}
    candidate: int | None = None
    for k in range(1, depth + 1):
        nxt: dict[tuple[State, int], tuple[int, ...]] = {}
        for (s, produced), wit in frontier.items():
            for a in range(t.p):
                key = (t.delta(s, a), produced + len(t.output(s, a)))
                if key not in nxt:
                    if len(nxt) == budget:
                        raise BudgetExceededError(
                            f"delay probe frontier at length {k} exceeds the budget {budget}"
                        )
                    nxt[key] = wit + (a,)
        lengths = {produced for (_, produced) in nxt}
        if len(lengths) > 1:
            short = min(lengths)
            bad = next(w for (s, l), w in nxt.items() if l != short)
            return DelayProfile(
                constant=False,
                depth=depth,
                witness=bad,
                reason=f"words of length {k} produce output lengths {sorted(lengths)}",
            )
        (length,) = lengths
        if length > 0:
            # lengths are monotone along extensions, so once positive the
            # inferred delay must stay the same at every later depth
            n_here = k - length
            if n_here < 0 or (candidate is not None and n_here != candidate):
                bad = next(iter(nxt.values()))
                return DelayProfile(
                    constant=False,
                    depth=depth,
                    witness=bad,
                    reason=f"output length {length} at input length {k} "
                    f"fits no constant delay",
                )
            candidate = n_here
        frontier = nxt
    if candidate is None:
        return DelayProfile(
            constant=False,
            depth=depth,
            reason=f"no output through depth {depth}; delay not witnessed",
        )
    return DelayProfile(constant=True, depth=depth, n=candidate)


def function_of(
    t: SyncTransducer | AsyncTransducer, probe_depth: int = 8
) -> FunctionOracle:
    """The map realized by ``t`` from its initial state, as an oracle.

    The constant delay n is established by :func:`delay_profile` up to
    ``probe_depth`` first; each later run re-checks the emitted length,
    so a delay violation beyond the probed depth fails loudly instead of
    corrupting answers.
    """
    machine = as_async(t) if isinstance(t, SyncTransducer) else t
    if isinstance(t, SyncTransducer):
        n = 0
    else:
        profile = delay_profile(machine, probe_depth)
        if not profile.constant:
            raise ValueError(
                f"transducer {machine.name!r} has no constant delay "
                f"within depth {probe_depth}: {profile.reason}"
            )
        n = profile.n

    def evaluate(x: int, m: int) -> int:
        word = word_of(x, m + n, machine.p)
        out = run_async(machine, word)
        if len(out) != m:
            raise ValueError(
                f"transducer {machine.name!r} produced {len(out)} letters on a "
                f"{m + n}-letter word; expected {m} at delay {n}"
            )
        return word_value(out, machine.p)

    return FunctionOracle(p=machine.p, delay=n, source="transducer", _fn=evaluate)


def reachable_states(
    t: SyncTransducer | AsyncTransducer, depth: int
) -> list[State]:
    """States known at exploration depth ``depth``, in deterministic order.

    For a table machine this is breadth-first closure from the initial
    state over all letters (discovery order).  A parametric family
    supplies its own depth-indexed enumeration instead, since its states
    need not be reachable from one another by transitions.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    family = getattr(t, "family", None)
    if family is not None:
        return list(family(depth))
    seen: dict[State, None] = {t.initial: None}
    queue = deque([(t.initial, 0)])
    while queue:
        s, d = queue.popleft()
        if d == depth:
            continue
        for a in range(t.p):
            nxt = t.delta(s, a)
            if nxt not in seen:
                seen[nxt] = None
                queue.append((nxt, d + 1))
    return list(seen)


def residual_map(t: SyncTransducer, state: State) -> tuple[int, ...]:
    """Single-letter output map of ``state``: entry a is output(state, a)."""
    return tuple(t.output(state, a) for a in range(t.p))


@dataclass(frozen=True)
class TransitivityReport:
    """Depth-qualified verdict: can the state family map any u to any v?

    ``passed`` is relative to ``depth`` (more states may exist beyond it);
    on failure ``counterexample`` holds the lexicographically first pair
    of residues (u, v) no examined state connects.
    """

    passed: bool
    level: int
    depth: int
    states_examined: int
    counterexample: tuple[int, int] | None = None


def family_transitivity(
    t: SyncTransducer, level: int, depth: int, budget: int = 1 << 24
) -> TransitivityReport:
    """Check that for all words u, v of length ``level`` some state s of
    the family maps u to v.

    Words are identified with residues mod p^level, first letter least
    significant.  The search covers every state found within ``depth``
    and walks each state's words as a trie: a word extends its parent by
    one letter a, read at position j, so its (u, v) is the parent's plus
    (a p^j, out p^j), and each state's (output, next state) row is built
    once.  The budget bounds len(states) * p^level * level, the letters
    that word-by-word runs would read; :class:`BudgetExceededError` is
    raised before any walk when that exceeds ``budget``.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    states = reachable_states(t, depth)
    size = t.p ** level
    letters = len(states) * size * level
    if letters > budget:
        raise BudgetExceededError(
            f"family transitivity reads {letters} letters, over the budget {budget}"
        )
    rows: dict[State, list[tuple[int, State]]] = {}
    covered: set[tuple[int, int]] = set()
    for s in states:
        frontier = [(s, 0, 0)]
        for j in range(level):
            scale, grown = t.p ** j, []
            for state, u, v in frontier:
                if state not in rows:
                    rows[state] = [(t.output(state, a), t.delta(state, a)) for a in range(t.p)]
                for a, (out, nxt) in enumerate(rows[state]):
                    grown.append((nxt, u + a * scale, v + out * scale))
            frontier = grown
        # a letter outside 0..p-1 puts v off the grid, where it covers nothing
        covered.update((u, v) for _, u, v in frontier if 0 <= v < size)
    missing = None
    if len(covered) < size * size:
        missing = next((u, v) for u in range(size) for v in range(size) if (u, v) not in covered)
    return TransitivityReport(
        passed=missing is None,
        level=level,
        depth=depth,
        states_examined=len(states),
        counterexample=missing,
    )
