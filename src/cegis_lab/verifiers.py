"""The three counterexample oracles: check, mincheck, hcheck.

All three are exact bounded-universe subset-query checkers.  Each answers
with the counterexample itself, or None for "no counterexample" (the
paper's bottom): the candidate's members (within the universe bound) are
contained in the target.  Each works on the bitmask of the
candidate's members outside the target.  Counterexample selection among the
difference set is pluggable for the arbitrary-counterexample verifier.
"""
from __future__ import annotations

import random
from typing import Iterable, Optional

from .core import BOT, Language, TraceEntry, bits

FIRST_FOUND = "first-found"
SEEDED_RANDOM = "seeded-random"
ADVERSARIAL_MAX = "adversarial-max"
CONSISTENT_AVOIDING = "consistent-avoiding"

STRATEGIES = (FIRST_FOUND, SEEDED_RANDOM, ADVERSARIAL_MAX, CONSISTENT_AVOIDING)


class StrategyInfeasibleError(RuntimeError):
    """The avoid-set constraint leaves no selectable counterexample."""


class CexStrategy:
    """Which element of a difference set ``check`` names: the lowest, a
    seeded pick, the highest, or the lowest outside ``avoid``."""

    __slots__ = ("kind", "seed", "avoid")

    def __init__(self, kind: str = FIRST_FOUND, seed: int = 0, avoid: frozenset = frozenset()):
        if kind not in STRATEGIES:
            raise ValueError(f"unknown strategy kind: {kind}")
        self.kind = kind
        self.seed = seed
        self.avoid = avoid

    def select(self, difference: int) -> int:
        """Pick one element of a nonempty difference bitmask."""
        if self.kind == FIRST_FOUND:
            return _lowest(difference)
        if self.kind == ADVERSARIAL_MAX:
            return difference.bit_length() - 1
        if self.kind == CONSISTENT_AVOIDING:
            allowed = difference & ~sum(1 << a for a in self.avoid)
            if not allowed:
                raise StrategyInfeasibleError(
                    "every counterexample is in the avoid set"
                )
            return _lowest(allowed)
        # seeded-random: deterministic in (seed, difference set).  A str seed
        # goes through SHA-512, so the choice is the same on every Python.
        elements = bits(difference)
        rng = random.Random(f"{self.seed}:{len(elements)}:{elements[0]}:{elements[-1]}")
        return rng.choice(elements)


# The strategy of a query that names none; it keeps no state, so all share it.
FIRST_FOUND_STRATEGY = CexStrategy()


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _sound(candidate: Language, target: Language, e: int) -> int:
    assert candidate.contains(e) and not target.contains(e), (
        f"unsound counterexample {e} for {candidate.descriptor}"
    )
    return e


def check(
    candidate: Language, target: Language, strategy: CexStrategy = FIRST_FOUND_STRATEGY
) -> Optional[int]:
    """Arbitrary-counterexample subset query."""
    # Each oracle's difference, candidate members not in the target: ``c & t``
    # costs the size of the smaller operand, where ``c & ~t`` costs the larger,
    # so a singleton probe against a large target stays cheap.
    c = candidate.mask
    diff = c ^ (c & target.mask)
    return _sound(candidate, target, strategy.select(diff)) if diff else None


def mincheck(candidate: Language, target: Language) -> Optional[int]:
    """Minimal counterexample under the candidate's element ordering."""
    c = candidate.mask
    diff = c ^ (c & target.mask)
    if not diff:
        return None
    ordering = candidate.ordering
    least = _lowest(diff) if ordering is None else ordering.least(diff)
    return _sound(candidate, target, least)


def hcheck(
    candidate: Language,
    target: Language,
    history: Iterable[TraceEntry],
) -> Optional[int]:
    """History-bounded counterexample: strictly below some seen example.

    m < tau(j) for some j is equivalent to m < the history's largest sample;
    padding entries never participate.  With no sample the answer is always
    None.  Among eligible elements the smallest is returned.
    """
    # Only members below the largest sample; with no sample, top 0 keeps none.
    top = max((e for e in history if e is not BOT), default=0)
    c = candidate.mask & (1 << top) - 1
    diff = c ^ (c & target.mask)
    return _sound(candidate, target, _lowest(diff)) if diff else None
