"""Brute-force references the tests check the package against, kept out of
``src`` because nothing in the package reads them."""

from cegis_lab.core import Language, bits, pair_decode, point_decode, zigzag_decode


def chain_template(family, i: int, n: int) -> int:
    """TEMPLATE for the chain: L_i = {n | n <= i}."""
    return 1 if n <= i else 0


def rectangle_template(family, i: int, n: int) -> int:
    """TEMPLATE for rectangles: the index packs the four zigzagged bounds."""
    ab, cd = pair_decode(i)
    za, zb = pair_decode(ab)
    zc, zd = pair_decode(cd)
    ax, bx, ay, by = map(zigzag_decode, (za, zb, zc, zd))
    if ax > bx or ay > by:
        return 0
    x, y = point_decode(n)
    return 1 if ax <= x <= bx and ay <= y <= by else 0


def diag_template(family, i: int, n: int) -> int:
    """TEMPLATE for the diag sub-family (fin members are parameter blocks)."""
    a, b = pair_decode(n)
    return 1 if a == 0 and i <= b <= family.base_max else 0


def gold_template(family, i: int, n: int) -> int:
    """Index 0 is the full set; index i+1 deletes point i."""
    if n > family.bound:
        return 0
    if i == 0:
        return 1
    return 0 if n == i - 1 else 1


def intersect_singleton(language: Language, k: int) -> Language:
    """The language's members that equal k, labelled as the simulation labels
    its probes."""
    return Language(
        language.mask & 1 << k, language.universe_bound,
        f"{language.descriptor}&{{{k}}}", language.ordering,
    )


def ordering_key(language: Language):
    """Sort key of the language's element ordering; the natural order when it
    declares none."""
    return (lambda n: n) if language.ordering is None else language.ordering.key


def lce_items(lce) -> list:
    """(member set, cached minimal counterexample) pairs of an LceMap."""
    return [(frozenset(bits(key)), value) for key, value in lce._entries.items()]
