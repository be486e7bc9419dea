"""Core data model: pairing codec, languages, traces, programs.

Languages are sets of natural numbers within a declared universe bound B,
held as int bitmasks.  Every family built on top of these types guarantees
that two distinct member languages differ on some element <= B, which is
what makes bounded verifier search exact.
"""
from __future__ import annotations

import math
import random
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional

if TYPE_CHECKING:
    from .families import RadialOrdering

# The padding symbol in traces.  A trace entry is either a natural number
# or BOT (no information this step).
BOT = None

TraceEntry = Optional[int]

# Sanity cap for pairing arguments; Python ints are unbounded but code
# values this large indicate a caller bug, not a meaningful language.
_PAIR_ARG_LIMIT = 1 << 40


def pair_encode(n1: int, n2: int) -> int:
    """Cantor pairing code for (n1, n2).

    Strictly monotone in each argument and bijective, with
    pair_encode(a, 0) >= a (the floor property the singleton-probe
    constructions rely on).
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("pairing is defined on naturals only")
    if n1 > _PAIR_ARG_LIMIT or n2 > _PAIR_ARG_LIMIT:
        raise ValueError(f"pairing argument exceeds supported range: ({n1}, {n2})")
    s = n1 + n2
    return s * (s + 1) // 2 + n2


def pair_decode(code: int) -> tuple[int, int]:
    """Inverse of pair_encode."""
    if code < 0:
        raise ValueError("pair codes are naturals")
    s = (math.isqrt(8 * code + 1) - 1) // 2
    n2 = code - s * (s + 1) // 2
    return s - n2, n2


def zigzag_encode(z: int) -> int:
    """Map a signed integer onto a natural: 0->0, -1->1, 1->2, -2->3, ..."""
    return 2 * z if z >= 0 else -2 * z - 1


def zigzag_decode(n: int) -> int:
    if n < 0:
        raise ValueError("zigzag codes are naturals")
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


def point_encode(x: int, y: int) -> int:
    """Encode a signed grid point as a natural (zigzag both axes, then pair)."""
    return pair_encode(zigzag_encode(x), zigzag_encode(y))


def point_decode(code: int) -> tuple[int, int]:
    a, b = pair_decode(code)
    return zigzag_decode(a), zigzag_decode(b)


def bits(mask: int) -> list[int]:
    """The set bits of a nonnegative int bitmask, ascending."""
    text = bin(mask)[:1:-1]  # bit i is text[i]
    found = []
    i = text.find("1")
    while i >= 0:
        found.append(i)
        i = text.find("1", i + 1)
    return found


class Language(NamedTuple):
    """A set of naturals within [0, universe_bound], held as an int bitmask:
    n is a member iff bit n of ``mask`` is set.

    ``ordering`` is the family's element ordering, which decides the
    minimal counterexample: ``least(mask)`` is a mask's least member and
    ``order`` lists [0, universe_bound] least first.  The package's one
    ordering is the rectangle family's ``RadialOrdering``; None is the
    natural order.  Compare languages with ``semantically_equal``, not
    ``==``: the descriptor is a label.
    """

    mask: int
    universe_bound: int
    descriptor: str
    ordering: Optional[RadialOrdering] = None

    def contains(self, n: int) -> bool:
        return n >= 0 and bool(self.mask >> n & 1)

    def members(self) -> frozenset:
        """All members, as a set."""
        return frozenset(bits(self.mask))


def semantically_equal(a: Language, b: Language) -> bool:
    """Agreement on the shared bounded universe."""
    return a.mask == b.mask


class Trace:
    """A finite prefix of a presentation of positive examples: a length and
    a recipe for its entries, replayed on every iteration.

    ``Trace(entries)`` holds the given entries.  A trace from
    ``trace_generate`` makes its blocks from a fresh RNG on each iteration,
    one at a time as they are read, so every iteration gives the eager
    entries; nothing is memoized, and reading a trace does not change it.
    Stopped after entry i, an iteration has made no block past the one
    holding i.  ``len`` is the requested length and makes nothing.
    """

    def __init__(self, entries: Iterable[TraceEntry] = ()):
        entries = tuple(entries)
        self._length = len(entries)
        self._blocks: Callable[[], Iterable[Iterable[TraceEntry]]] = lambda: (entries,)

    def __iter__(self) -> Iterator[TraceEntry]:
        return islice(chain.from_iterable(self._blocks()), self._length)

    @property
    def entries(self) -> tuple[TraceEntry, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self._length

    def with_head(self, head: list[TraceEntry]) -> Trace:
        """This trace, its first ``len(head)`` entries read from ``head``,
        which must be the ones this trace gives: an iteration starts one of
        this trace, and so makes its entries again, only when read past them."""
        def blocks() -> Iterator[Iterable[TraceEntry]]:
            yield head
            yield islice(self, len(head), None)

        trace = Trace()
        trace._length, trace._blocks = self._length, blocks
        return trace


class Program(NamedTuple):
    """An index into a candidate space plus bounded engine-owned state.

    Two programs are semantically equal iff their language masks agree;
    ``aux`` never participates in identity.
    """

    index: object
    language: Language
    aux: object = None

    def descriptor(self) -> str:
        return self.language.descriptor


CANONICAL = "canonical"
SEEDED_RANDOM = "seeded-random"
PADDED_SEEDED = "padded-seeded"

_SCHEDULES = (CANONICAL, SEEDED_RANDOM, PADDED_SEEDED)


def trace_generate(
    language: Language,
    schedule: str,
    seed: int = 0,
    length: int = 0,
) -> Trace:
    """Sample a trace prefix for a language.

    canonical: members in ascending order, no padding, repeating the
    largest member once exhausted.  seeded-random: uniform member draws
    (all padding for an empty language).  padded-seeded: repeated shuffled
    passes over the members with interleaved padding, so every member
    recurs within a computable horizon.

    Bad arguments raise here; the entries are made as they are read (see
    ``Trace``), each iteration from a fresh RNG in the order of an eager
    pass, so every prefix is the same as that pass would give.
    """
    if schedule not in _SCHEDULES:
        raise ValueError(f"unknown schedule: {schedule}")
    if length < 0:
        raise ValueError(f"trace length must be nonnegative, got {length}")
    if seed < 0:  # random.Random seeds from |seed|, so -s would quietly run as s
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if length == 0:
        return Trace()
    members = bits(language.mask)
    if schedule == CANONICAL and not members:
        raise ValueError(f"canonical schedule needs a nonempty language: {language.descriptor}")
    trace = Trace()
    trace._length = length
    trace._blocks = lambda: _blocks(schedule, members, random.Random(seed))
    return trace


def _blocks(schedule: str, members: list[int], rng: random.Random) -> Iterator[list]:
    """The schedule's entries, block by block, without end."""
    if schedule == CANONICAL:
        yield members
        while True:
            yield members[-1:]
    while not members:
        yield [BOT]
    if schedule == SEEDED_RANDOM:
        while True:
            yield [rng.choice(members)]
    # padded-seeded: each pass shuffles the members as Random.shuffle does, but
    # from getrandbits alone, then pads before each member with probability 1/4.
    getrandbits, rand = rng.getrandbits, rng.random
    swaps = [(i, (i + 1).bit_length()) for i in range(len(members) - 1, 0, -1)]
    while True:
        block = list(members)
        for i, k in swaps:
            j = getrandbits(k)
            while j > i:  # randbelow(i + 1), by rejection
                j = getrandbits(k)
            block[i], block[j] = block[j], block[i]
        entries: list[TraceEntry] = []
        for m in block:
            if rand() < 0.25:
                entries.append(BOT)
            entries.append(m)
        yield entries
