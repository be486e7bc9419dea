"""Built-in indexed families: chain, rectangle, diagonal, gold.

Each family declares a universe bound B that is a true witness bound: any
two distinct member languages differ on some element <= B.
"""
from __future__ import annotations

from itertools import accumulate
from math import isqrt
from operator import or_
from typing import Iterable, NamedTuple

from .core import (
    Language,
    Ordering,
    pair_decode,
    pair_encode,
    zigzag_encode,
)


class IndexOutOfRangeError(ValueError):
    """Family index beyond the harness cap."""


class InvalidRectangleError(ValueError):
    """Inverted rectangle bounds or bounds outside the grid."""


class InvalidFamilyMemberError(ValueError):
    """A finite diagonal-family member violating the family definition."""


class ChainFamily(NamedTuple):
    """L_i = {n | n <= i}; the languages form a strict chain."""

    max_index: int = 120

    @property
    def universe_bound(self) -> int:
        return self.max_index + 2

    def language(self, i: int) -> Language:
        if not 0 <= i <= self.max_index:
            raise IndexOutOfRangeError(f"chain index {i} not in [0, {self.max_index}]")
        return Language((1 << i + 1) - 1, self.universe_bound, f"chain[{i}]")


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

    __slots__ = ("grid_bound", "universe_bound", "decode", "_columns", "_rows", "_ordering")

    def __init__(self, grid_bound: int = 32):
        g = self.grid_bound = grid_bound
        span = range(-g, g + 1)
        # point_encode(x, y) inline: the Cantor code of the zigzagged axes
        zigzag = [2 * z if z >= 0 else -2 * z - 1 for z in span]
        points: dict[int, tuple[int, int]] = {}
        columns = [0] * len(span)
        rows = [0] * len(span)
        for i, (x, zx) in enumerate(zip(span, zigzag)):
            for j, (y, zy) in enumerate(zip(span, zigzag)):
                s = zx + zy
                code = s * (s + 1) // 2 + zy
                points[code] = (x, y)
                columns[i] |= 1 << code
                rows[j] |= 1 << code
        # _columns[i] is the bitmask of the grid points with x < i - g,
        # _rows[i] the same for y, so a rectangle is four big-int operations.
        self._columns = tuple(accumulate(columns, or_, initial=0))
        self._rows = tuple(accumulate(rows, or_, initial=0))
        self.universe_bound = pair_encode(zigzag_encode(g), zigzag_encode(g))
        self._ordering = Ordering(self.ordering_key, self.universe_bound)
        self.decode = points.__getitem__

    @staticmethod
    def ordering_key(code: int) -> tuple:
        s = (isqrt(8 * code + 1) - 1) >> 1  # point_decode(code) inline: unpair
        b = code - (s * (s + 1) >> 1)
        x, y = (s - b >> 1) ^ -(s - b & 1), (b >> 1) ^ -(b & 1)  # and unzigzag
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


class DiagonalFamily(NamedTuple):
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


class GoldFamily(NamedTuple):
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
