"""Pairing, traces, and language plumbing."""

import random
import re
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from cegis_lab.core import (
    BOT,
    Trace,
    pair_decode,
    pair_encode,
    point_decode,
    point_encode,
    semantically_equal,
    trace_generate,
    zigzag_decode,
    zigzag_encode,
)
from cegis_lab.families import ChainFamily, DiagonalFamily, GoldFamily, RectangleFamily
from reference import explicit_language, intersect_singleton, smpl


# ---------------------------------------------------------------------------
# Cantor pairing


def brute_pair_decode(code: int) -> tuple[int, int]:
    """Independent oracle: scan codes upward until the formula matches."""
    n = 0
    while True:
        for b in range(n + 1):
            a = n - b
            if (a + b) * (a + b + 1) // 2 + b == code:
                return a, b
        n += 1


def test_pair_encode_known_values():
    assert pair_encode(0, 0) == 0
    assert pair_encode(1, 1) == 4
    assert pair_encode(0, 1) == 2
    assert pair_encode(1, 0) == 1


def test_pair_decode_known_values():
    assert pair_decode(0) == (0, 0)
    assert pair_decode(4) == (1, 1)
    assert pair_decode(7) == (2, 1)


def test_pair_decode_matches_brute_force_scan():
    for code in range(200):
        assert pair_decode(code) == brute_pair_decode(code)


def test_pair_bijective_on_codes():
    for code in range(10_001):
        a, b = pair_decode(code)
        assert pair_encode(a, b) == code


def test_pair_bijective_on_arguments():
    for a in range(101):
        for b in range(101):
            assert pair_decode(pair_encode(a, b)) == (a, b)


def test_pair_monotone_in_each_argument():
    for a in range(101):
        for b in range(100):
            assert pair_encode(a, b) < pair_encode(a, b + 1)
    for b in range(101):
        for a in range(100):
            assert pair_encode(a, b) < pair_encode(a + 1, b)


def test_pair_first_argument_floor():
    for a in range(1001):
        assert pair_encode(a, 0) >= a


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_pair_roundtrip_property(a, b):
    assert pair_decode(pair_encode(a, b)) == (a, b)


@given(st.integers(min_value=0, max_value=10**9))
def test_pair_decode_roundtrip_property(code):
    a, b = pair_decode(code)
    assert pair_encode(a, b) == code


def test_pair_rejects_negative_and_oversized():
    for args in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="pairing is defined on naturals only"):
            pair_encode(*args)
    with pytest.raises(ValueError, match=re.escape(
            "pairing argument exceeds supported range: (0, 2199023255552)")):
        pair_encode(0, 1 << 41)
    # Each argument may be 2**40, and no more.
    top = 1 << 40
    assert pair_encode(top, 0) == top * (top + 1) // 2
    assert pair_encode(0, top) == top * (top + 1) // 2 + top
    for args in ((top + 1, 0), (0, top + 1)):
        with pytest.raises(ValueError, match="pairing argument exceeds supported range"):
            pair_encode(*args)
    with pytest.raises(ValueError, match="pair codes are naturals"):
        pair_decode(-1)


# ---------------------------------------------------------------------------
# Zigzag / point encoding


def test_zigzag_known_values():
    assert [zigzag_encode(z) for z in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError, match="zigzag codes are naturals"):
        zigzag_decode(-1)


@given(st.integers(min_value=-10**6, max_value=10**6))
def test_zigzag_roundtrip(z):
    assert zigzag_decode(zigzag_encode(z)) == z


@given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=-1000, max_value=1000))
def test_point_roundtrip(x, y):
    assert point_decode(point_encode(x, y)) == (x, y)


# ---------------------------------------------------------------------------
# Languages


def test_explicit_language_membership_and_equality():
    a = explicit_language({1, 2, 3}, universe_bound=10)
    b = explicit_language({3, 2, 1}, universe_bound=10)
    c = explicit_language({1, 2}, universe_bound=10)
    assert a.contains(2) and not a.contains(4)
    assert not a.contains(-1)  # below every universe: not a member, and no negative shift
    assert semantically_equal(a, b)
    assert not semantically_equal(a, c)


def test_intersect_singleton():
    a = explicit_language({1, 2, 3}, universe_bound=10)
    assert intersect_singleton(a, 2).members() == frozenset({2})
    assert intersect_singleton(a, 7).members() == frozenset()


def test_ordering_least_follows_the_order():
    fam = RectangleFamily(grid_bound=5)
    ordering = fam.universal_language().ordering
    suffix = 0
    for e in reversed(ordering.order):
        suffix |= 1 << e
        assert ordering.least(1 << e) == e
        assert ordering.least(suffix) == e
    with pytest.raises(ValueError, match="least element of an empty set"):
        ordering.least(0)


# ---------------------------------------------------------------------------
# Trace generation


def test_trace_canonical_chain_examples():
    fam = ChainFamily()
    l3 = fam.language(3)
    assert trace_generate(l3, "canonical", length=4).entries == (0, 1, 2, 3)
    assert trace_generate(l3, "canonical", length=6).entries == (0, 1, 2, 3, 3, 3)


def test_trace_zero_length():
    fam = ChainFamily()
    assert trace_generate(fam.language(3), "padded-seeded", seed=5, length=0).entries == ()
    for schedule in ("canonical", "seeded-random", "padded-seeded"):
        assert trace_generate(fam.language(3), schedule).entries == ()  # the default length
        with pytest.raises(ValueError, match="trace length must be nonnegative, got -1"):
            trace_generate(fam.language(3), schedule, seed=5, length=-1)


def test_trace_rejects_a_negative_seed():
    # random.Random(-3) seeds as random.Random(3), so a negative seed would
    # quietly give the trace of its absolute value.
    fam = ChainFamily()
    for schedule in ("canonical", "seeded-random", "padded-seeded"):
        for length in (0, 5):
            for seed in (-3, -1):
                with pytest.raises(ValueError, match=f"seed must be nonnegative, got {seed}"):
                    trace_generate(fam.language(3), schedule, seed=seed, length=length)
            assert len(trace_generate(fam.language(3), schedule, seed=0, length=length)) == length


def test_trace_entries_are_members_or_bot():
    fam = ChainFamily()
    l5 = fam.language(5)
    for schedule in ("canonical", "seeded-random", "padded-seeded"):
        trace = trace_generate(l5, schedule, seed=9, length=40)
        assert len(trace) == 40
        for e in trace.entries:
            assert e is BOT or l5.contains(e)
        if schedule != "padded-seeded":
            assert BOT not in trace.entries


def test_trace_every_member_eventually_enumerated():
    fam = ChainFamily()
    l5 = fam.language(5)
    for schedule in ("canonical", "seeded-random", "padded-seeded"):
        trace = trace_generate(l5, schedule, seed=3, length=60)
        assert smpl(trace.entries) == l5.members()


def test_trace_deterministic_per_seed():
    fam = ChainFamily()
    l5 = fam.language(5)
    t1 = trace_generate(l5, "padded-seeded", seed=11, length=50)
    t2 = trace_generate(l5, "padded-seeded", seed=11, length=50)
    t3 = trace_generate(l5, "padded-seeded", seed=12, length=50)
    assert t1.entries == t2.entries
    assert t1.entries != t3.entries
    # The default seed is 0: it gives seed 0's entries, which seed 1's are not.
    for schedule in ("seeded-random", "padded-seeded"):
        default = trace_generate(l5, schedule, length=50).entries
        assert default == trace_generate(l5, schedule, seed=0, length=50).entries
        assert default != trace_generate(l5, schedule, seed=1, length=50).entries


def test_trace_empty_language_rejected():
    empty = explicit_language(set(), universe_bound=5)
    with pytest.raises(ValueError, match="canonical schedule needs a nonempty language"):
        trace_generate(empty, "canonical", length=3)


def test_trace_of_given_entries():
    t = Trace((0, 1, BOT, 2))
    assert len(t) == 4
    assert list(t) == [0, 1, BOT, 2] and t.entries == (0, 1, BOT, 2)


def test_trace_prefix():
    t = Trace((0, 1, BOT, 2))
    assert tuple(islice(t, 2)) == (0, 1)
    assert tuple(islice(t, 0)) == ()
    assert tuple(islice(t, 9)) == (0, 1, BOT, 2)


def test_trace_indexing():
    """Entries are read in order; there is none past the last."""
    t = Trace((0, 1, BOT, 2))
    stream = iter(t)
    assert [next(stream) for _ in range(len(t))] == [0, 1, BOT, 2]
    with pytest.raises(StopIteration):
        next(stream)


# ---------------------------------------------------------------------------
# Lazy traces against the eager generator they replace


def eager_trace(language, schedule, seed, length):
    """Reference: every entry made up front, in the same RNG order."""
    if length == 0:
        return ()
    members = sorted(language.members())
    if schedule == "canonical":
        if not members:
            raise ValueError(f"canonical schedule needs a nonempty language: {language.descriptor}")
        return tuple(members[i] if i < len(members) else members[-1] for i in range(length))
    rng = random.Random(seed)
    if schedule == "seeded-random":
        return tuple(rng.choice(members) if members else BOT for _ in range(length))
    if not members:
        return (BOT,) * length
    entries = []
    while len(entries) < length:
        block = list(members)
        rng.shuffle(block)
        for m in block:
            if rng.random() < 0.25:
                entries.append(BOT)
            entries.append(m)
    return tuple(entries[:length])


_RECT = RectangleFamily(grid_bound=6)
_DIAG = DiagonalFamily()
_GOLD = GoldFamily()
_span = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(sorted)

LANGUAGES = st.one_of(
    st.integers(0, 40).map(ChainFamily().language),
    st.tuples(_span, _span).map(lambda s: _RECT.language(*s[0], *s[1])),
    st.integers(-1, 50).map(
        lambda i: _GOLD.full_language() if i < 0 else _GOLD.minus_language(i)
    ),
    st.integers(0, _DIAG.base_max).map(_DIAG.diag_language),
    st.frozensets(st.tuples(st.integers(0, 1), st.integers(0, 20)), max_size=6).map(
        lambda pairs: _DIAG.fin_language(pairs | {(1, 3)})
    ),
)
SCHEDULES = st.sampled_from(("canonical", "seeded-random", "padded-seeded"))


@settings(max_examples=300, deadline=None)
@given(LANGUAGES, SCHEDULES, st.integers(0, 2**32), st.integers(0, 700), st.integers(0, 800))
def test_lazy_trace_matches_eager(language, schedule, seed, length, k):
    expected = eager_trace(language, schedule, seed, length)
    trace = trace_generate(language, schedule, seed=seed, length=length)
    assert len(trace) == length
    assert tuple(islice(trace, k)) == expected[:k]
    assert trace.entries == expected
    assert len(trace) == length
    # Two iterations of a fresh trace in lockstep give the same entries.
    fresh = trace_generate(language, schedule, seed=seed, length=length)
    assert list(zip(fresh, fresh)) == list(zip(expected, expected))


@settings(max_examples=200, deadline=None)
@given(LANGUAGES, SCHEDULES, st.integers(0, 2**32), st.integers(0, 300),
       st.integers(0, 300), st.integers(0, 300))
def test_trace_iteration_yields_the_entries(language, schedule, seed, length, taken, ahead):
    """Iterating equals ``entries``, also when a second iteration reads
    ahead of (or behind) the first between two of its steps."""
    expected = eager_trace(language, schedule, seed, length)
    trace = trace_generate(language, schedule, seed=seed, length=length)
    stream = iter(trace)
    head = tuple(islice(stream, taken))
    assert tuple(islice(trace, ahead)) == expected[:ahead]
    assert head + tuple(stream) == expected == tuple(trace) == trace.entries


@settings(max_examples=200, deadline=None)
@given(LANGUAGES, SCHEDULES, st.integers(0, 2**32), st.integers(0, 300), st.integers(0, 300))
def test_trace_iteration_makes_no_block_past_the_last_entry_yielded(
    language, schedule, seed, length, taken,
):
    trace = trace_generate(language, schedule, seed=seed, length=length)
    sizes = []
    blocks = trace._blocks
    trace._blocks = lambda: (sizes.append(len(block)) or block for block in blocks())
    head = tuple(islice(trace, taken))
    assert head == eager_trace(language, schedule, seed, length)[:taken]
    made = sum(sizes)
    if head:  # the last block made holds the last entry yielded
        assert made - sizes[-1] < len(head) <= made
    else:
        assert made == 0


def test_lazy_trace_empty_language():
    empty = explicit_language(set(), universe_bound=5)
    with pytest.raises(ValueError, match="canonical schedule needs a nonempty language"):
        trace_generate(empty, "canonical", length=3)
    assert trace_generate(empty, "canonical", length=0).entries == ()
    for schedule in ("seeded-random", "padded-seeded"):
        trace = trace_generate(empty, schedule, seed=4, length=7)
        assert trace.entries == (BOT,) * 7 == eager_trace(empty, schedule, 4, 7)
    with pytest.raises(ValueError):
        trace_generate(empty, "nosuch", length=0)

