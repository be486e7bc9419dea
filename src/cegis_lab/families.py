"""Built-in indexed families: chain, rectangle, diagonal, gold.

Each family declares a universe bound B that is a true witness bound: any
two distinct member languages differ on some element <= B.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import isqrt
from operator import or_
from typing import Callable, Iterable

from .core import (
    Language,
    Ordering,
    pair_decode,
    pair_encode,
    point_decode,
    point_encode,
    zigzag_decode,
    zigzag_encode,
)


class IndexOutOfRangeError(ValueError):
    """Family index beyond the harness cap."""


class InvalidRectangleError(ValueError):
    """Inverted rectangle bounds or bounds outside the grid."""


class InvalidFamilyMemberError(ValueError):
    """A finite diagonal-family member violating the family definition."""


@dataclass(frozen=True)
class ChainFamily:
    """L_i = {n | n <= i}; the languages form a strict chain."""

    max_index: int = 120

    @property
    def universe_bound(self) -> int:
        return self.max_index + 2

    def language(self, i: int) -> Language:
        if not 0 <= i <= self.max_index:
            raise IndexOutOfRangeError(f"chain index {i} not in [0, {self.max_index}]")
        return Language((1 << i + 1) - 1, self.universe_bound, f"chain[{i}]")

    def template(self, i: int, n: int) -> int:
        return 1 if n <= i else 0


@dataclass(frozen=True)
class RectangleFamily:
    """Axis-aligned rectangles on a signed grid, encoded as pair-codes.

    Elements are point_encode(x, y) for grid points; the element ordering
    is radial (x^2 + y^2) with lexicographic (x, y) tie-break.  The family
    includes one distinguished universal member covering the whole grid.

    Each grid point's code is computed once, when the family is built, into
    a point table {code: (x, y)}.  ``decode`` reads that table, so it raises
    KeyError for a code that is not a grid point; ``point_decode`` decodes
    any code.
    """

    grid_bound: int = 32
    # _columns[i] is the bitmask of the grid points with x < i - grid_bound,
    # _rows[i] the same for y, so a rectangle is four big-int operations.
    _columns: tuple = field(init=False, repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False, compare=False)
    _ordering: Ordering = field(init=False, repr=False, compare=False)
    decode: Callable[[int], tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.grid_bound
        span = range(-g, g + 1)
        points: dict[int, tuple[int, int]] = {}
        columns = [0] * len(span)
        rows = [0] * len(span)
        for i, x in enumerate(span):
            for j, y in enumerate(span):
                code = point_encode(x, y)
                points[code] = (x, y)
                columns[i] |= 1 << code
                rows[j] |= 1 << code
        object.__setattr__(self, "_columns", tuple(accumulate(columns, or_, initial=0)))
        object.__setattr__(self, "_rows", tuple(accumulate(rows, or_, initial=0)))
        object.__setattr__(self, "_ordering", Ordering(self.ordering_key, self.universe_bound))
        object.__setattr__(self, "decode", points.__getitem__)

    @property
    def universe_bound(self) -> int:
        g = self.grid_bound
        return pair_encode(zigzag_encode(g), zigzag_encode(g))

    @staticmethod
    def ordering_key(code: int) -> tuple:
        x, y = point_decode(code)
        return (x * x + y * y, x, y)

    def language(self, ax: int, bx: int, ay: int, by: int) -> Language:
        g = self.grid_bound
        if ax > bx or ay > by:
            raise InvalidRectangleError(f"inverted bounds ({ax},{bx},{ay},{by})")
        if min(ax, ay) < -g or max(bx, by) > g:
            raise InvalidRectangleError(f"bounds outside +/-{g} grid")
        cols, rows = self._columns, self._rows
        mask = (cols[bx + g + 1] ^ cols[ax + g]) & (rows[by + g + 1] ^ rows[ay + g])
        return Language(
            mask, self.universe_bound, f"rect[{ax},{bx},{ay},{by}]", self._ordering
        )

    def universal_language(self) -> Language:
        g = self.grid_bound
        return self.language(-g, g, -g, g)

    def template(self, i: int, n: int) -> int:
        """TEMPLATE for rectangles: the index packs the four zigzagged bounds."""
        ab, cd = pair_decode(i)
        za, zb = pair_decode(ab)
        zc, zd = pair_decode(cd)
        ax, bx, ay, by = map(zigzag_decode, (za, zb, zc, zd))
        if ax > bx or ay > by:
            return 0
        x, y = point_decode(n)
        return 1 if ax <= x <= bx and ay <= y <= by else 0


@dataclass(frozen=True)
class DiagonalFamily:
    """The two-form family over encoded pairs <j, n>.

    diag(i): {<0, n> | i <= n <= base_max}, so the index is the minimum of
    the base language.  fin(members): any finite set of <j, n> codes with
    j in {0, 1} and at least one <1, .> element.
    """

    universe_bound: int = 600

    decode = staticmethod(pair_decode)

    @property
    def base_max(self) -> int:
        """The largest n with <0, n> = n(n+3)/2 within the bound."""
        return (isqrt(8 * self.universe_bound + 9) - 3) // 2

    def diag_language(self, i: int) -> Language:
        top = self.base_max
        if not 0 <= i <= top:
            raise IndexOutOfRangeError(
                f"diag index {i} not representable below bound {self.universe_bound}"
            )
        mask = sum(1 << pair_encode(0, n) for n in range(i, top + 1))
        return Language(mask, self.universe_bound, f"diag[{i}]")

    def fin_language(self, members: Iterable[tuple[int, int]]) -> Language:
        members = [tuple(m) for m in members]
        # bool is an int subclass: True would pass as 1 and label as (True,2)
        if any(not isinstance(c, int) or isinstance(c, bool) for m in members for c in m):
            raise InvalidFamilyMemberError("fin member coordinates must be integers")
        pairs = sorted(set(members))
        if not pairs:
            raise InvalidFamilyMemberError("fin language must be nonempty")
        if any(j not in (0, 1) for j, _ in pairs):
            raise InvalidFamilyMemberError("fin members must have first coordinate 0 or 1")
        if not any(j == 1 for j, _ in pairs):
            raise InvalidFamilyMemberError("fin language needs at least one <1, .> member")
        codes = frozenset(pair_encode(j, n) for j, n in pairs)
        if max(codes) > self.universe_bound:
            raise InvalidFamilyMemberError(
                f"fin member code exceeds universe bound {self.universe_bound}"
            )
        label = ",".join(f"({j},{n})" for j, n in pairs)
        return Language(sum(1 << c for c in codes), self.universe_bound, f"fin[{label}]")

    def template(self, i: int, n: int) -> int:
        """TEMPLATE for the diag sub-family (fin members are parameter blocks)."""
        a, b = pair_decode(n)
        return 1 if a == 0 and i <= b <= self.base_max else 0


@dataclass(frozen=True)
class GoldFamily:
    """The universal set [0, B] together with every one-point deletion."""

    bound: int = 50

    @property
    def universe_bound(self) -> int:
        return self.bound

    def full_language(self) -> Language:
        return Language((1 << self.bound + 1) - 1, self.bound, "gold[full]")

    def minus_language(self, i: int) -> Language:
        if not 0 <= i <= self.bound:
            raise IndexOutOfRangeError(f"gold deletion index {i} not in [0, {self.bound}]")
        full = (1 << self.bound + 1) - 1
        return Language(full ^ (1 << i), self.bound, f"gold[-{i}]")

    def template(self, i: int, n: int) -> int:
        """Index 0 is the full set; index i+1 deletes point i."""
        if n > self.bound:
            return 0
        if i == 0:
            return 1
        return 0 if n == i - 1 else 1
