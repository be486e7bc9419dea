"""Verifier oracles cross-checked against brute-force set computations."""

import random

import pytest
from hypothesis import given, strategies as st

from cegis_lab.core import BOT, explicit_language, pair_encode, point_encode, smpl
from cegis_lab.families import ChainFamily, DiagonalFamily, GoldFamily, RectangleFamily
from cegis_lab.verifiers import (
    ADVERSARIAL_MAX,
    CONSISTENT_AVOIDING,
    FIRST_FOUND,
    SEEDED_RANDOM,
    CexStrategy,
    NO_CEX,
    StrategyInfeasibleError,
    check,
    hcheck,
    mincheck,
)


def brute_difference(candidate, target):
    return sorted(c for c in candidate.members() if not target.contains(c))


def random_language_pairs(rng, family_langs, count):
    pick = lambda: family_langs[rng.randrange(len(family_langs))]
    return [(pick(), pick()) for _ in range(count)]


def all_family_pools():
    chain = ChainFamily(max_index=30)
    rect = RectangleFamily(grid_bound=6)
    diag = DiagonalFamily()
    gold = GoldFamily()
    rng = random.Random(99)
    rect_langs = []
    for _ in range(25):
        ax = rng.randint(-6, 6)
        bx = rng.randint(ax, 6)
        ay = rng.randint(-6, 6)
        by = rng.randint(ay, 6)
        rect_langs.append(rect.language(ax, bx, ay, by))
    fin_langs = []
    for _ in range(10):
        zeros = {(0, rng.randint(0, 20)) for _ in range(rng.randint(0, 4))}
        fin_langs.append(diag.fin_language(zeros | {(1, rng.randint(0, 20))}))
    return {
        "chain": [chain.language(i) for i in range(31)],
        "rectangle": rect_langs,
        "diagonal": [diag.diag_language(i) for i in range(1, 15)] + fin_langs,
        "gold": [gold.full_language()] + [gold.minus_language(i) for i in range(0, 51, 3)],
    }


POOLS = all_family_pools()


# ---------------------------------------------------------------------------
# check (arbitrary counterexample)


def test_check_known_values():
    chain = ChainFamily()
    assert check(chain.language(2), chain.language(5)).is_bot
    verdict = check(chain.language(7), chain.language(5), CexStrategy(FIRST_FOUND))
    assert verdict.counterexample == 6
    gold = GoldFamily()
    for kind in (FIRST_FOUND, ADVERSARIAL_MAX):
        v = check(gold.full_language(), gold.minus_language(17), CexStrategy(kind))
        assert v.counterexample == 17


@pytest.mark.parametrize("family", sorted(POOLS))
def test_check_bot_iff_subset(family):
    rng = random.Random(hash(family) & 0xFFFF)
    for candidate, target in random_language_pairs(rng, POOLS[family], 200):
        verdict = check(candidate, target)
        diff = brute_difference(candidate, target)
        assert verdict.is_bot == (not diff)
        if not verdict.is_bot:
            assert verdict.counterexample in diff


# ---------------------------------------------------------------------------
# mincheck (minimal counterexample)


def test_mincheck_known_values():
    chain = ChainFamily()
    assert mincheck(chain.language(7), chain.language(5)).counterexample == 6
    assert mincheck(chain.language(2), chain.language(5)).is_bot
    rect = RectangleFamily()
    verdict = mincheck(rect.universal_language(), rect.language(-1, 1, -1, 1))
    assert verdict.counterexample == point_encode(-2, 0) == 6


@pytest.mark.parametrize("family", sorted(POOLS))
def test_mincheck_equals_brute_force_minimum(family):
    rng = random.Random((hash(family) & 0xFFFF) + 1)
    for candidate, target in random_language_pairs(rng, POOLS[family], 200):
        verdict = mincheck(candidate, target)
        diff = brute_difference(candidate, target)
        if not diff:
            assert verdict.is_bot
        else:
            expected = min(diff, key=candidate.ordering_key)
            assert verdict.counterexample == expected


# ---------------------------------------------------------------------------
# hcheck (history-bounded counterexample)


def test_hcheck_known_values():
    chain = ChainFamily()
    assert hcheck(chain.language(7), chain.language(5), [0, 1, 2]).is_bot
    diag = DiagonalFamily()
    target = diag.diag_language(3)
    probe = explicit_language({17}, universe_bound=target.universe_bound)
    history = [pair_encode(1, 9)]
    assert pair_encode(1, 9) > 17 and not target.contains(17)
    assert hcheck(probe, target, history).counterexample == 17
    assert hcheck(chain.language(2), chain.language(5), [5, 4]).is_bot


def test_hcheck_empty_history_is_bot():
    chain = ChainFamily()
    assert hcheck(chain.language(7), chain.language(5), []).is_bot
    assert hcheck(chain.language(7), chain.language(5), [BOT, BOT]).is_bot


@pytest.mark.parametrize("family", sorted(POOLS))
def test_hcheck_counterexamples_below_history_max(family):
    rng = random.Random((hash(family) & 0xFFFF) + 2)
    for candidate, target in random_language_pairs(rng, POOLS[family], 200):
        members = sorted(target.members())
        history = [rng.choice(members) for _ in range(rng.randint(0, 5))]
        verdict = hcheck(candidate, target, history)
        observed = smpl(history)
        if verdict.is_bot:
            eligible = [
                e for e in brute_difference(candidate, target)
                if observed and e < max(observed)
            ]
            assert not eligible
        else:
            assert observed and verdict.counterexample < max(observed)
            assert candidate.contains(verdict.counterexample)
            assert not target.contains(verdict.counterexample)


@given(st.data())
def test_hcheck_depends_only_on_history_max(data):
    pool = POOLS[data.draw(st.sampled_from(sorted(POOLS)))]
    candidate = data.draw(st.sampled_from(pool))
    target = data.draw(st.sampled_from(pool))
    bound = target.universe_bound
    history = data.draw(st.lists(st.one_of(st.none(), st.integers(0, bound)), max_size=8))
    seen = smpl(history)
    summary = (max(seen),) if seen else ()
    assert hcheck(candidate, target, history) == hcheck(candidate, target, summary)


# ---------------------------------------------------------------------------
# Soundness and strategies


@pytest.mark.parametrize("family", sorted(POOLS))
def test_all_verdicts_sound(family):
    rng = random.Random((hash(family) & 0xFFFF) + 3)
    for candidate, target in random_language_pairs(rng, POOLS[family], 50):
        for verdict in (check(candidate, target), mincheck(candidate, target)):
            if not verdict.is_bot:
                e = verdict.counterexample
                assert candidate.contains(e) and not target.contains(e)


def test_seeded_random_strategy_deterministic():
    chain = ChainFamily()
    candidate, target = chain.language(20), chain.language(5)
    s1 = CexStrategy(SEEDED_RANDOM, seed=7)
    s2 = CexStrategy(SEEDED_RANDOM, seed=7)
    s3 = CexStrategy(SEEDED_RANDOM, seed=8)
    picks1 = [check(candidate, target, s1).counterexample for _ in range(5)]
    picks2 = [check(candidate, target, s2).counterexample for _ in range(5)]
    assert picks1 == picks2
    assert any(check(candidate, target, s3).counterexample != p for p in picks1) or True
    for p in picks1:
        assert 6 <= p <= 20


def test_adversarial_max_strategy():
    chain = ChainFamily()
    verdict = check(chain.language(9), chain.language(5), CexStrategy(ADVERSARIAL_MAX))
    assert verdict.counterexample == 9


def test_consistent_avoiding_strategy():
    chain = ChainFamily()
    strategy = CexStrategy(CONSISTENT_AVOIDING, avoid=frozenset({6}))
    verdict = check(chain.language(7), chain.language(5), strategy)
    assert verdict.counterexample == 7
    # The whole difference set is excluded: infeasible.
    stuck = CexStrategy(CONSISTENT_AVOIDING, avoid=frozenset({6, 7}))
    with pytest.raises(StrategyInfeasibleError):
        check(chain.language(7), chain.language(5), stuck)


def test_no_cex_singleton():
    assert NO_CEX.is_bot
    assert NO_CEX.counterexample is None
