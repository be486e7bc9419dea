"""Indexed families: chain, rectangle, diagonal, gold."""

import re
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cegis_lab.core import bits, pair_encode, point_decode, point_encode, zigzag_encode
from cegis_lab.families import (
    ChainFamily,
    DiagonalFamily,
    GoldFamily,
    RadialOrdering,
    RectangleFamily,
)
from cegis_lab.verifiers import mincheck
from reference import (
    chain_template,
    diag_template,
    gold_template,
    radial_key,
    rectangle_template,
)


# ---------------------------------------------------------------------------
# Chain family


def test_chain_known_memberships():
    fam = ChainFamily()
    assert fam.language(0).members() == frozenset({0})
    l5 = fam.language(5)
    assert l5.contains(5)
    assert not l5.contains(6)


def test_chain_monotone_and_strict():
    fam = ChainFamily(max_index=40)
    for i in range(40):
        for j in range(i + 1, 41):
            li, lj = fam.language(i).members(), fam.language(j).members()
            assert li <= lj
            assert j in lj - li


def test_chain_index_bounds():
    fam = ChainFamily(max_index=10)
    with pytest.raises(ValueError, match=re.escape("chain index 11 not in [0, 10]")):
        fam.language(11)
    with pytest.raises(ValueError, match=re.escape("chain index -1 not in [0, 10]")):
        fam.language(-1)


def test_chain_template_matches_language():
    fam = ChainFamily(max_index=20)
    for i in range(0, 21, 5):
        lang = fam.language(i)
        for n in range(25):
            assert bool(chain_template(fam, i, n)) == lang.contains(n)


def _rectangle_template_cases():
    fam = RectangleFamily(grid_bound=3)
    for ax, bx, ay, by in product(range(-3, 4), repeat=4):
        if ax <= bx and ay <= by:
            za, zb, zc, zd = map(zigzag_encode, (ax, bx, ay, by))
            index = pair_encode(pair_encode(za, zb), pair_encode(zc, zd))
            yield fam, index, fam.language(ax, bx, ay, by)


def _diag_template_cases():
    fam = DiagonalFamily(universe_bound=100)
    for i in range(fam.base_max + 1):
        yield fam, i, fam.diag_language(i)


def _gold_template_cases():
    fam = GoldFamily(universe_bound=20)
    yield fam, 0, fam.full_language()
    for i in range(fam.universe_bound + 1):
        yield fam, i + 1, fam.minus_language(i)


@pytest.mark.parametrize("cases, template", [
    (_rectangle_template_cases, rectangle_template),
    (_diag_template_cases, diag_template),
    (_gold_template_cases, gold_template),
], ids=["rectangle", "diag", "gold"])
def test_template_matches_language(cases, template):
    """TEMPLATE is the brute-force membership reference for each family."""
    for fam, index, lang in cases():
        for n in range(lang.universe_bound + 1):
            assert bool(template(fam, index, n)) == lang.contains(n)


# ---------------------------------------------------------------------------
# Rectangle family


def test_rectangle_known_memberships():
    fam = RectangleFamily()
    lang = fam.language(-1, 1, -1, 1)
    assert lang.contains(point_encode(0, 0))
    assert lang.contains(point_encode(-1, -1))
    assert lang.contains(point_encode(1, 1))
    assert not lang.contains(point_encode(0, 2))
    point = fam.language(0, 0, 0, 0)
    assert point.contains(point_encode(0, 0))
    assert len(point.members()) == 1


def test_rectangle_agrees_with_four_inequalities():
    fam = RectangleFamily(grid_bound=6)
    cases = [(-1, 1, -1, 1), (-6, 6, -6, 6), (2, 5, -3, 0), (0, 0, -6, 6)]
    for ax, bx, ay, by in cases:
        lang = fam.language(ax, bx, ay, by)
        for x in range(-6, 7):
            for y in range(-6, 7):
                expected = ax <= x <= bx and ay <= y <= by
                assert lang.contains(point_encode(x, y)) == expected


@pytest.mark.parametrize("g", [1, 2, 3])
def test_every_rectangle_mask_is_its_point_in_box_set(g):
    fam = RectangleFamily(grid_bound=g)
    sides = [(a, b) for a in range(-g, g + 1) for b in range(a, g + 1)]
    for ax, bx in sides:
        for ay, by in sides:
            box = {point_encode(x, y) for x in range(ax, bx + 1) for y in range(ay, by + 1)}
            assert fam.language(ax, bx, ay, by).members() == box


@pytest.mark.parametrize("g", [0, 1, 2, 3, 4, 5, 6, 32])
def test_decode_reads_the_point_table(g):
    fam = RectangleFamily(grid_bound=g)
    grid = [(x, y) for x in range(-g, g + 1) for y in range(-g, g + 1)]
    table = fam.decode.__self__
    # the table's codes are computed inline; point_encode is their reference
    assert list(table.items()) == [(point_encode(x, y), (x, y)) for x, y in grid]
    for x, y in grid:
        code = point_encode(x, y)
        assert fam.decode(code) == (x, y) == point_decode(code)
    # the least code that is not a grid point; below the bound from g = 1 on
    outside = min(set(range(fam.universe_bound + 2)) - set(table))
    with pytest.raises(KeyError):
        fam.decode(outside)


@pytest.mark.parametrize("g", range(9))
def test_rectangle_tables_equal_a_build_from_point_encode(g):
    """_columns[i] and _rows[i] hold the grid points with x, and y, below i - g."""
    fam = RectangleFamily(grid_bound=g)
    span = range(-g, g + 1)
    points = {point_encode(x, y): (x, y) for x in span for y in span}
    assert fam.universe_bound == max(points)
    assert fam.decode.__self__ == points
    below = range(-g, g + 2)
    assert fam._columns == tuple(sum(1 << c for c, (x, _) in points.items() if x < i) for i in below)
    assert fam._rows == tuple(sum(1 << c for c, (_, y) in points.items() if y < i) for i in below)


def test_rectangle_universal_is_full_grid():
    fam = RectangleFamily(grid_bound=4)
    uni = fam.universal_language()
    assert len(uni.members()) == 9 * 9


def test_rectangle_radial_ordering():
    rank = RectangleFamily().universal_language().ordering.order.index
    # Radial key: squared radius first, then x, then y.
    origin = point_encode(0, 0)
    near = point_encode(1, 0)
    far = point_encode(0, 2)
    assert rank(origin) < rank(near) < rank(far)
    # Among the radius-4 points, (-2, 0) comes first under the tie-break.
    ring = [point_encode(p, q) for p, q in ((0, 2), (0, -2), (2, 0), (-2, 0))]
    assert min(ring, key=rank) == point_encode(-2, 0)


def test_grid32_order_and_blocks_equal_the_point_decode_reference():
    fam = RectangleFamily()
    ordering = fam.universal_language().ordering
    order = tuple(sorted(range(fam.universe_bound + 1), key=radial_key))
    assert ordering.order == order
    # The blocks are built out as far as a scan reads; the last code reads them all.
    assert ordering.least(1 << order[-1]) == order[-1]
    assert ordering._blocks == [
        (sum(1 << e for e in order[s:s + 64]), order[s:s + 64]) for s in range(0, len(order), 64)
    ]


@lru_cache(maxsize=None)
def radial_cases(g: int) -> tuple:
    """For grid g: the universe bound, its codes sorted by ``radial_key``,
    and the code lists a mask of a kind is drawn from (all codes; those past
    each radius a fresh ordering builds its blocks out to; those off the
    grid)."""
    bound = pair_encode(zigzag_encode(g), zigzag_encode(g))
    order = tuple(sorted(range(bound + 1), key=radial_key))
    pools = [order]
    r2 = RadialOrdering(bound)._r2
    while radial_key(order[-1])[0] > r2:
        pools.append([c for c in order if radial_key(c)[0] > r2])
        r2 *= 4
    pools.append([c for c in order if max(map(abs, point_decode(c))) > g])
    return bound, order, [pool for pool in pools if pool]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_radial_ordering_least_is_the_key_minimum(data):
    g = data.draw(st.one_of(st.integers(0, 12), st.just(32)), label="grid")
    bound, order, pools = radial_cases(g)
    masks = st.one_of(
        *(st.sets(st.sampled_from(pool), min_size=1, max_size=6) for pool in pools),
        st.integers(0, len(order) - 1).map(lambda i: set(order[i:i + 16])),
        st.just({order[-1]}),
    ).map(lambda codes: sum(1 << e for e in codes))
    # One fresh ordering answers the whole drawn sequence, so each answer is
    # checked after whatever the calls before it built.
    queries = data.draw(st.lists(st.one_of(masks, st.just(0), st.just("order")),
                                 min_size=1, max_size=5), label="queries")
    ordering = RadialOrdering(bound)
    for query in queries:
        if query == "order":
            assert ordering.order == order
        elif query == 0:
            with pytest.raises(ValueError, match="^least element of an empty set$"):
                ordering.least(0)
        else:
            assert ordering.least(query) == min(bits(query), key=radial_key)
        # What is built is always a prefix of the order,
        built = [e for _, block in ordering._blocks for e in block]
        assert built == list(order[:len(built)])
    # in blocks, each with its mask.
    assert all(block_mask == sum(1 << e for e in block) for block_mask, block in ordering._blocks)


def test_a_cold_mincheck_builds_only_the_radial_order_it_reads():
    fam = RectangleFamily(128)
    universal = fam.universal_language()
    assert fam.universe_bound + 1 == 131_585
    assert mincheck(universal, fam.language(-1, 1, -1, 1)) == point_encode(-2, 0)
    ordering = universal.ordering
    built = sum(len(block) for _, block in ordering._blocks)
    assert 0 < built < (fam.universe_bound + 1) / 100
    assert "order" not in vars(ordering)


def test_rectangle_invalid_bounds():
    fam = RectangleFamily(grid_bound=4)
    with pytest.raises(ValueError, match=re.escape("inverted bounds (2,1,0,0)")):
        fam.language(2, 1, 0, 0)
    with pytest.raises(ValueError, match=re.escape("bounds outside +/-4 grid")):
        fam.language(-5, 0, 0, 0)


def test_rectangle_witness_bound():
    fam = RectangleFamily()
    assert fam.universe_bound == pair_encode(64, 64) == 8320
    for code in fam.language(-32, 32, -32, 32).members():
        assert code <= fam.universe_bound


# ---------------------------------------------------------------------------
# Diagonal family


def test_diag_known_memberships():
    fam = DiagonalFamily()
    l3 = fam.diag_language(3)
    assert l3.contains(pair_encode(0, 3))
    assert not l3.contains(pair_encode(0, 2))
    assert not l3.contains(pair_encode(1, 3))


def test_diag_is_upward_base_plus_diagonal_point():
    fam = DiagonalFamily()
    l3 = fam.diag_language(3)
    for n in range(3, fam.base_max + 1):
        assert l3.contains(pair_encode(0, n))


def _base_max_by_counting(bound):
    n = 0
    while pair_encode(0, n + 1) <= bound:
        n += 1
    return n


# Near 2**20, the bounds on either side of <0, 1446> and <0, 1447>.
_NEAR_2_20 = [c + d for c in (pair_encode(0, 1446), 1 << 20, pair_encode(0, 1447))
              for d in (-1, 0, 1)]


def test_base_max_closed_form_equals_the_counting_loop():
    for bound in [*range(5001), *_NEAR_2_20]:
        assert DiagonalFamily(bound).base_max == _base_max_by_counting(bound)


def test_fin_known_memberships():
    fam = DiagonalFamily()
    lang = fam.fin_language({(0, 2), (1, 7)})
    assert lang.contains(pair_encode(1, 7))
    assert not lang.contains(pair_encode(0, 7))
    assert lang.members() == frozenset({pair_encode(0, 2), pair_encode(1, 7)})


def test_fin_requires_second_coordinate_one_element():
    fam = DiagonalFamily()
    with pytest.raises(ValueError, match=re.escape(
            "fin language needs at least one <1, .> member")):
        fam.fin_language({(0, 2)})
    with pytest.raises(ValueError, match="fin members must have first coordinate 0 or 1"):
        fam.fin_language({(2, 3), (1, 7)})


def test_diag_and_fin_are_disjoint_variants():
    # Every diag language omits <1,.> points; every fin language has one.
    fam = DiagonalFamily()
    for i in range(1, 8):
        diag = fam.diag_language(i)
        assert all(not diag.contains(pair_encode(1, k)) for k in range(10))
    fin = fam.fin_language({(0, 1), (1, 2)})
    assert any(c == pair_encode(1, 2) for c in fin.members())


# ---------------------------------------------------------------------------
# Gold family


def test_gold_known_memberships():
    fam = GoldFamily()
    assert fam.full_language().contains(17)
    assert not fam.minus_language(17).contains(17)
    assert fam.minus_language(17).contains(16)


def test_gold_full_minus_difference_is_singleton():
    fam = GoldFamily()
    full = fam.full_language().members()
    for i in range(0, 51, 7):
        assert full - fam.minus_language(i).members() == {i}


def test_gold_index_bounds():
    fam = GoldFamily()
    with pytest.raises(ValueError, match=re.escape("gold deletion index 51 not in [0, 50]")):
        fam.minus_language(fam.universe_bound + 1)


# ---------------------------------------------------------------------------
# Witness bounds


def test_every_family_member_below_witness_bound():
    families = [ChainFamily(), RectangleFamily(grid_bound=8), DiagonalFamily(), GoldFamily()]
    langs = [
        families[0].language(7),
        families[1].language(-3, 5, -8, 8),
        families[2].diag_language(4),
        families[2].fin_language({(0, 3), (1, 9)}),
        families[3].minus_language(20),
    ]
    for lang in langs:
        assert lang.members()
        assert all(0 <= c <= lang.universe_bound for c in lang.members())
