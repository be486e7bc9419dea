"""Verifier oracles cross-checked against brute-force set computations."""

import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from cegis_lab.core import (
    BOT,
    Program,
    pair_encode,
    point_decode,
    point_encode,
    semantically_equal,
)
from cegis_lab.engines import LceMap
from cegis_lab.families import ChainFamily, DiagonalFamily, GoldFamily, RectangleFamily
from cegis_lab.verifiers import (
    ADVERSARIAL_MAX,
    CONSISTENT_AVOIDING,
    FIRST_FOUND,
    SEEDED_RANDOM,
    CexStrategy,
    StrategyInfeasibleError,
    check,
    hcheck,
    mincheck,
)
from reference import MT19937, explicit_language, intersect_singleton, ordering_key, smpl


def brute_difference(candidate, target):
    return sorted(c for c in candidate.members() if not target.contains(c))


def family_rng(family, offset):
    """An RNG seeded from the family name by a digest that, unlike ``hash``,
    does not change with PYTHONHASHSEED."""
    return random.Random(zlib.crc32(family.encode()) + offset)


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
    assert check(chain.language(2), chain.language(5)) is None
    cex = check(chain.language(7), chain.language(5), CexStrategy(FIRST_FOUND))
    assert cex == 6
    gold = GoldFamily()
    for kind in (FIRST_FOUND, ADVERSARIAL_MAX):
        cex = check(gold.full_language(), gold.minus_language(17), CexStrategy(kind))
        assert cex == 17


@pytest.mark.parametrize("family", sorted(POOLS))
def test_check_bot_iff_subset(family):
    rng = family_rng(family, 0)
    for candidate, target in random_language_pairs(rng, POOLS[family], 200):
        cex = check(candidate, target)
        diff = brute_difference(candidate, target)
        assert (cex is None) == (not diff)
        if cex is not None:
            assert cex in diff


# ---------------------------------------------------------------------------
# mincheck (minimal counterexample)


def test_mincheck_known_values():
    chain = ChainFamily()
    assert mincheck(chain.language(7), chain.language(5)) == 6
    assert mincheck(chain.language(2), chain.language(5)) is None
    rect = RectangleFamily()
    cex = mincheck(rect.universal_language(), rect.language(-1, 1, -1, 1))
    assert cex == point_encode(-2, 0) == 6


@pytest.mark.parametrize("family", sorted(POOLS))
def test_mincheck_equals_brute_force_minimum(family):
    rng = family_rng(family, 1)
    for candidate, target in random_language_pairs(rng, POOLS[family], 200):
        cex = mincheck(candidate, target)
        diff = brute_difference(candidate, target)
        if not diff:
            assert cex is None
        else:
            expected = min(diff, key=ordering_key(candidate))
            assert cex == expected


# ---------------------------------------------------------------------------
# hcheck (history-bounded counterexample), against the reference SMPL


def test_smpl_definition_examples():
    assert smpl([BOT, 3, BOT, 3, 5]) == frozenset({3, 5})
    assert smpl([]) == frozenset()
    assert smpl([BOT, BOT]) == frozenset()


@given(st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=50))))
def test_smpl_equals_range_minus_bot(entries):
    assert smpl(entries) == frozenset(e for e in entries if e is not None)


def test_hcheck_known_values():
    chain = ChainFamily()
    assert hcheck(chain.language(7), chain.language(5), [0, 1, 2]) is None
    diag = DiagonalFamily()
    target = diag.diag_language(3)
    probe = explicit_language({17}, universe_bound=target.universe_bound)
    history = [pair_encode(1, 9)]
    assert pair_encode(1, 9) > 17 and not target.contains(17)
    assert hcheck(probe, target, history) == 17
    assert hcheck(chain.language(2), chain.language(5), [5, 4]) is None


def test_hcheck_empty_history_is_bot():
    chain = ChainFamily()
    assert hcheck(chain.language(7), chain.language(5), []) is None
    assert hcheck(chain.language(7), chain.language(5), [BOT, BOT]) is None


@pytest.mark.parametrize("family", sorted(POOLS))
def test_hcheck_counterexamples_below_history_max(family):
    rng = family_rng(family, 2)
    for candidate, target in random_language_pairs(rng, POOLS[family], 200):
        members = sorted(target.members())
        history = [rng.choice(members) for _ in range(rng.randint(0, 5))]
        cex = hcheck(candidate, target, history)
        observed = smpl(history)
        if cex is None:
            eligible = [
                e for e in brute_difference(candidate, target)
                if observed and e < max(observed)
            ]
            assert not eligible
        else:
            assert observed and cex < max(observed)
            assert candidate.contains(cex)
            assert not target.contains(cex)


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
    rng = family_rng(family, 3)
    for candidate, target in random_language_pairs(rng, POOLS[family], 50):
        for cex in (check(candidate, target), mincheck(candidate, target)):
            if cex is not None:
                assert candidate.contains(cex) and not target.contains(cex)


def test_seeded_random_strategy_deterministic():
    chain = ChainFamily()
    candidate, target = chain.language(20), chain.language(5)
    s1 = CexStrategy(SEEDED_RANDOM, seed=7)
    s2 = CexStrategy(SEEDED_RANDOM, seed=7)
    s3 = CexStrategy(SEEDED_RANDOM, seed=8)
    picks1 = [check(candidate, target, s1) for _ in range(5)]
    picks2 = [check(candidate, target, s2) for _ in range(5)]
    assert picks1 == picks2
    assert any(check(candidate, target, s3) != p for p in picks1)
    for p in picks1:
        assert 6 <= p <= 20


def test_a_strategy_without_a_seed_uses_seed_0():
    # Seeds -1, 0 and 1 pick 48, 57 and 42 from this difference set.
    mask = sum(1 << e for e in range(0, 64, 3))
    assert CexStrategy(SEEDED_RANDOM).select(mask) == 57
    assert CexStrategy(SEEDED_RANDOM, seed=0).select(mask) == 57


def test_an_unknown_strategy_kind_is_refused():
    with pytest.raises(ValueError, match=r"^unknown strategy kind: nosuch$"):
        CexStrategy("nosuch")


def test_adversarial_max_strategy():
    chain = ChainFamily()
    cex = check(chain.language(9), chain.language(5), CexStrategy(ADVERSARIAL_MAX))
    assert cex == 9


def test_consistent_avoiding_strategy():
    chain = ChainFamily()
    strategy = CexStrategy(CONSISTENT_AVOIDING, avoid=frozenset({6}))
    cex = check(chain.language(7), chain.language(5), strategy)
    assert cex == 7
    # The whole difference set is excluded: infeasible.
    stuck = CexStrategy(CONSISTENT_AVOIDING, avoid=frozenset({6, 7}))
    with pytest.raises(StrategyInfeasibleError):
        check(chain.language(7), chain.language(5), stuck)


# ---------------------------------------------------------------------------
# The bitmask oracles against frozenset brute force


PROPERTY_FAMILIES = {
    "chain": ChainFamily(max_index=40),
    "rect2": RectangleFamily(grid_bound=2),
    "rect5": RectangleFamily(grid_bound=5),
    "rect32": RectangleFamily(grid_bound=32),
    "diagonal": DiagonalFamily(),
    "gold": GoldFamily(universe_bound=20),
}


@st.composite
def language_with_reference(draw, name):
    """A family language and its member set, built from the family's
    definition without going through a bitmask."""
    fam = PROPERTY_FAMILIES[name]
    if name == "chain":
        i = draw(st.integers(0, fam.max_index))
        return fam.language(i), frozenset(range(i + 1))
    if name.startswith("rect"):
        g = fam.grid_bound
        ax, bx = sorted(draw(st.lists(st.integers(-g, g), min_size=2, max_size=2)))
        ay, by = sorted(draw(st.lists(st.integers(-g, g), min_size=2, max_size=2)))
        box = frozenset(point_encode(x, y)
                        for x in range(ax, bx + 1) for y in range(ay, by + 1))
        return fam.language(ax, bx, ay, by), box
    if name == "diagonal":
        if draw(st.booleans()):
            i = draw(st.integers(0, fam.base_max))
            return fam.diag_language(i), frozenset(
                pair_encode(0, n) for n in range(i, fam.base_max + 1))
        pairs = draw(st.sets(st.tuples(st.integers(0, 1), st.integers(0, 20)), max_size=5))
        pairs |= {(1, draw(st.integers(0, 20)))}
        return fam.fin_language(pairs), frozenset(pair_encode(j, n) for j, n in pairs)
    full = frozenset(range(fam.universe_bound + 1))
    if draw(st.booleans()):
        return fam.full_language(), full
    i = draw(st.integers(0, fam.universe_bound))
    return fam.minus_language(i), full - {i}


def reference_key(name):
    if name.startswith("rect"):
        def radial(code):
            x, y = point_decode(code)
            return (x * x + y * y, x, y)
        return radial
    return lambda n: n


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bitmask_oracles_equal_frozenset_brute_force(data):
    name = data.draw(st.sampled_from(sorted(PROPERTY_FAMILIES)))
    candidate, cand_ref = data.draw(language_with_reference(name))
    target, tgt_ref = data.draw(language_with_reference(name))
    bound = target.universe_bound
    assert candidate.members() == cand_ref and target.members() == tgt_ref
    diff = sorted(cand_ref - tgt_ref)

    seed = data.draw(st.integers(0, 2**32))
    avoid = frozenset(data.draw(st.lists(st.sampled_from(diff), max_size=3))) if diff \
        else frozenset()
    expected = {FIRST_FOUND: diff[:1], ADVERSARIAL_MAX: diff[-1:], CONSISTENT_AVOIDING:
                [d for d in diff if d not in avoid][:1]}
    if diff:
        pick = MT19937(f"{seed}:{len(diff)}:{diff[0]}:{diff[-1]}").choice(diff)
        expected[SEEDED_RANDOM] = [pick]
    for kind in (FIRST_FOUND, ADVERSARIAL_MAX, CONSISTENT_AVOIDING, SEEDED_RANDOM):
        strategy = CexStrategy(kind, seed=seed, avoid=avoid)
        if diff and not expected.get(kind):
            with pytest.raises(StrategyInfeasibleError):
                check(candidate, target, strategy)
            continue
        cex = check(candidate, target, strategy)
        got = [] if cex is None else [cex]
        assert got == expected.get(kind, [])

    least = min(diff, key=reference_key(name)) if diff else None
    assert mincheck(candidate, target) == least
    # Differences of two family members rarely separate the radial order
    # from the code order, so the ordering is also probed on sparse sets.
    if candidate.ordering is not None:
        subset = data.draw(st.sets(st.integers(0, bound), min_size=1, max_size=6))
        least = candidate.ordering.least(sum(1 << e for e in subset))
        assert least == min(subset, key=reference_key(name))

    history = data.draw(st.lists(st.one_of(st.none(), st.integers(0, bound)), max_size=6))
    seen = [e for e in history if e is not None]
    eligible = [d for d in diff if seen and d < max(seen)]
    assert hcheck(candidate, target, history) == min(eligible, default=None)

    k = data.draw(st.integers(0, bound))
    assert intersect_singleton(candidate, k).members() == cand_ref & {k}
    # The simulation's cache keys a program on its language's members.
    lce = LceMap()
    lce.set(Program(None, candidate), k)
    assert (lce.get(Program(None, target)) == k) == (cand_ref == tgt_ref)
    assert semantically_equal(candidate, target) == (cand_ref == tgt_ref)
