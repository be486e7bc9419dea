"""Built-in indexed families: chain, rectangle, diagonal, gold.

Each family declares a universe bound B that is a true witness bound: any
two distinct member languages differ on some element <= B.
"""
from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from math import isqrt
from operator import or_
from typing import Iterable, NamedTuple, Optional

from .core import (
    Language,
    pair_decode,
    pair_encode,
    zigzag_encode,
)


class ChainFamily(NamedTuple):
    """L_i = {n | n <= i}; the languages form a strict chain."""

    max_index: int = 120

    @property
    def universe_bound(self) -> int:
        return self.max_index + 2

    def language(self, i: int) -> Language:
        if not 0 <= i <= self.max_index:
            raise ValueError(f"chain index {i} not in [0, {self.max_index}]")
        return Language((1 << i + 1) - 1, self.universe_bound, f"chain[{i}]")


def _mask(codes: Iterable[int], bound: int) -> int:
    """The bitmask of ``codes``, each in [0, bound].  Its bits are set in
    bytes: an OR of 1 << code per code would copy an int as wide as the
    bound each time."""
    buf = bytearray(bound // 8 + 1)
    for code in codes:
        buf[code >> 3] |= 1 << (code & 7)
    return int.from_bytes(buf, "little")


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
        bound = self.universe_bound = pair_encode(zigzag_encode(g), zigzag_encode(g))
        # point_encode(x, y) inline: grid[i][j] is the Cantor code of the
        # zigzagged axes of the point (i - g, j - g).
        zigzag = [2 * z if z >= 0 else -2 * z - 1 for z in span]
        grid = [[(zx + zy) * (zx + zy + 1) // 2 + zy for zy in zigzag] for zx in zigzag]
        points = {code: (x, y) for x, codes in zip(span, grid) for y, code in zip(span, codes)}
        # _columns[i] is the bitmask of the grid points with x < i - g,
        # _rows[i] the same for y, so a rectangle is four big-int operations.
        self._columns = tuple(accumulate((_mask(c, bound) for c in grid), or_, initial=0))
        self._rows = tuple(accumulate((_mask(r, bound) for r in zip(*grid)), or_, initial=0))
        self._ordering = RadialOrdering(bound)
        self.decode = points.__getitem__

    def language(self, ax: int, bx: int, ay: int, by: int) -> Language:
        g = self.grid_bound
        if ax > bx or ay > by:
            raise ValueError(f"inverted bounds ({ax},{bx},{ay},{by})")
        if min(ax, ay) < -g or max(bx, by) > g:
            raise ValueError(f"bounds outside +/-{g} grid")
        cols, rows = self._columns, self._rows
        mask = (cols[bx + g + 1] ^ cols[ax + g]) & (rows[by + g + 1] ^ rows[ay + g])
        return Language(
            mask, self.universe_bound, f"rect[{ax},{bx},{ay},{by}]", self._ordering
        )

    def universal_language(self) -> Language:
        g = self.grid_bound
        return self.language(-g, g, -g, g)


class RadialOrdering:
    """The rectangle family's element ordering of the codes [0, bound]:
    x^2 + y^2, then x, then y, for the point (x, y) that ``point_decode``
    gives for a code, on the grid or off it.

    Nothing is built until it is read.  ``order`` lists every code, least
    first, for the simulation's probe sweeps.  ``least`` reads only the
    codes out to its answer's radius: it lists those within radius R of the
    origin, in blocks of 64 codes, each with the bitmask of its codes, so a
    scan skips a block per big-int AND and then tests at most 64 single
    bits.  A scan that runs past the blocks quadruples R^2 and goes on.
    """

    def __init__(self, bound: int):
        self.bound = bound
        self._blocks: list[tuple[int, tuple[int, ...]]] = []
        self._r2: Optional[int] = 64  # R^2 of the next blocks; None once all are built

    @cached_property
    def order(self) -> tuple[int, ...]:
        return self._within(self.bound)

    def least(self, mask: int) -> int:
        """The least element of a nonempty bitmask over [0, bound]."""
        for block_mask, block in self._blocks:
            if mask & block_mask:
                for e in block:
                    if mask & 1 << e:
                        return e
        if self._r2 is None:
            raise ValueError("least element of an empty set")
        self._grow()
        return self.least(mask)

    def _grow(self) -> None:
        """Block the codes within radius^2 ``_r2``, and quadruple it.  Those
        codes begin with the ones already blocked, so only a short last
        block is built again."""
        codes, blocks = self._within(self._r2), self._blocks
        if blocks and len(blocks[-1][1]) < 64:
            blocks.pop()
        for s in range(64 * len(blocks), len(codes), 64):
            blocks.append((_mask(codes[s:s + 64], self.bound), codes[s:s + 64]))
        self._r2 = None if len(codes) > self.bound else 4 * self._r2

    def _within(self, r2: int) -> tuple[int, ...]:
        """The codes whose point lies within radius^2 ``r2`` of the origin,
        least first: one sort of ints that pack (x^2 + y^2, x, y, code) in
        fields as wide as the bound needs.  A code is the Cantor pair of x'
        and y', the zigzag codes of x and y; its point has x^2 + y^2 <= code,
        so r2 = bound gives every code."""
        bound = self.bound
        top = (isqrt(8 * bound + 1) - 1) >> 1  # the largest zigzag sum x' + y' of a code
        last = bound - (top * (top + 1) >> 1)  # the codes with x' + y' = top have y' <= last
        m = top + 1 >> 1  # so |x|, |y| <= m
        y_at = bound.bit_length()  # the shifts of the y + m, x + m and x^2 + y^2 fields
        x_at = y_at + (2 * m).bit_length()
        r_at = x_at + (2 * m).bit_length()
        radius = min(m, isqrt(r2))
        # A code's y' part and triangle term do not depend on x, so each
        # column of codes is a sum of two list slices.
        ys = [zy >> 1 ^ -(zy & 1) for zy in range(top + 1)]  # y for each y'
        y_part = [(y * y << r_at) + (y + m << y_at) + zy for zy, y in enumerate(ys)]
        triangle = [s * (s + 1) >> 1 for s in range(top + 1)]
        packed: list[int] = []
        for x in range(-radius, min(radius, top >> 1) + 1):
            zx = 2 * x if x >= 0 else -2 * x - 1
            n = top - zx if top - zx <= last else top - zx - 1  # the largest y' of a code <= bound
            n = min(n, 2 * isqrt(r2 - x * x))  # |y| <= k exactly when y' <= 2k
            head = (x * x << r_at) + (x + m << x_at)
            packed += [head + a + b for a, b in zip(y_part[:n + 1], triangle[zx:])]
        packed.sort()
        low = (1 << y_at) - 1
        return tuple([p & low for p in packed])


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
            raise ValueError(f"diag index {i} not representable below bound {self.universe_bound}")
        mask = sum(1 << pair_encode(0, n) for n in range(i, top + 1))
        return Language(mask, self.universe_bound, f"diag[{i}]")

    def fin_language(self, members: Iterable[tuple[int, int]]) -> Language:
        members = [tuple(m) for m in members]
        # bool is an int subclass: True would pass as 1 and label as (True,2)
        if any(not isinstance(c, int) or isinstance(c, bool) for m in members for c in m):
            raise ValueError("fin member coordinates must be integers")
        pairs = sorted(set(members))
        if not pairs:
            raise ValueError("fin language must be nonempty")
        if any(j not in (0, 1) for j, _ in pairs):
            raise ValueError("fin members must have first coordinate 0 or 1")
        if not any(j == 1 for j, _ in pairs):
            raise ValueError("fin language needs at least one <1, .> member")
        codes = frozenset(pair_encode(j, n) for j, n in pairs)
        if max(codes) > self.universe_bound:
            raise ValueError(f"fin member code exceeds universe bound {self.universe_bound}")
        label = ",".join(f"({j},{n})" for j, n in pairs)
        return Language(sum(1 << c for c in codes), self.universe_bound, f"fin[{label}]")


class GoldFamily(NamedTuple):
    """The universal set [0, B] together with every one-point deletion."""

    universe_bound: int = 50

    def full_language(self) -> Language:
        return Language((1 << self.universe_bound + 1) - 1, self.universe_bound, "gold[full]")

    def minus_language(self, i: int) -> Language:
        if not 0 <= i <= self.universe_bound:
            raise ValueError(f"gold deletion index {i} not in [0, {self.universe_bound}]")
        full = (1 << self.universe_bound + 1) - 1
        return Language(full ^ (1 << i), self.universe_bound, f"gold[-{i}]")
