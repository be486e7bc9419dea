"""The three counterexample oracles: check, mincheck, hcheck.

All three are exact bounded-universe subset-query checkers: a verdict of
"no counterexample" means the candidate's members (within the universe
bound) are contained in the target.  Counterexample selection among the
difference set is pluggable for the arbitrary-counterexample verifier.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import BOT, Language, TraceEntry, smpl

FIRST_FOUND = "first-found"
SEEDED_RANDOM = "seeded-random"
ADVERSARIAL_MAX = "adversarial-max"
CONSISTENT_AVOIDING = "consistent-avoiding"

_KINDS = (FIRST_FOUND, SEEDED_RANDOM, ADVERSARIAL_MAX, CONSISTENT_AVOIDING)


class StrategyInfeasibleError(RuntimeError):
    """The avoid-set constraint leaves no selectable counterexample."""


@dataclass(frozen=True)
class Verdict:
    """Either no-counterexample (None) or a single counterexample element."""

    counterexample: Optional[int]

    @property
    def is_bot(self) -> bool:
        return self.counterexample is None


NO_CEX = Verdict(None)


@dataclass(frozen=True)
class CexStrategy:
    kind: str = FIRST_FOUND
    seed: int = 0
    avoid: frozenset = frozenset()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown strategy kind: {self.kind}")

    def select(self, difference: list[int]) -> int:
        """Pick one element of the (sorted, nonempty) difference set."""
        if self.kind == FIRST_FOUND:
            return difference[0]
        if self.kind == ADVERSARIAL_MAX:
            return difference[-1]
        if self.kind == CONSISTENT_AVOIDING:
            allowed = [d for d in difference if d not in self.avoid]
            if not allowed:
                raise StrategyInfeasibleError(
                    "every counterexample is in the avoid set"
                )
            return allowed[0]
        # seeded-random: deterministic in (seed, difference set)
        mix = (self.seed, len(difference), difference[0], difference[-1])
        rng = random.Random(hash(mix))
        return rng.choice(difference)


def _difference(candidate: Language, target: Language) -> list[int]:
    """Sorted members of candidate not in target, within the shared bound."""
    if target.explicit_members is not None:
        # candidate.members() never passes the candidate's own bound.
        return sorted(candidate.members() - target.explicit_members)
    bound = max(candidate.universe_bound, target.universe_bound)
    return sorted(
        n for n in candidate.members() if n <= bound and not target.contains(n)
    )


def _sound(candidate: Language, target: Language, e: int) -> Verdict:
    assert candidate.contains(e) and not target.contains(e), (
        f"unsound counterexample {e} for {candidate.descriptor}"
    )
    return Verdict(e)


def check(
    candidate: Language, target: Language, strategy: CexStrategy = CexStrategy()
) -> Verdict:
    """Arbitrary-counterexample subset query."""
    diff = _difference(candidate, target)
    if not diff:
        return NO_CEX
    return _sound(candidate, target, strategy.select(diff))


def mincheck(candidate: Language, target: Language) -> Verdict:
    """Minimal counterexample under the candidate's element ordering."""
    diff = _difference(candidate, target)
    if not diff:
        return NO_CEX
    return _sound(candidate, target, min(diff, key=candidate.ordering_key))


def hcheck(
    candidate: Language,
    target: Language,
    history: Iterable[TraceEntry],
) -> Verdict:
    """History-bounded counterexample: strictly below some seen example.

    m < tau(j) for some j is equivalent to m < max(SMPL(history)); padding
    entries never participate.  With empty history the verdict is always
    no-counterexample.  Among eligible elements the smallest is returned.
    """
    seen = smpl(history)
    if not seen:
        return NO_CEX
    hmax = max(seen)
    diff = _difference(candidate, target)
    eligible = [m for m in diff if m < hmax]
    if not eligible:
        return NO_CEX
    return _sound(candidate, target, eligible[0])
