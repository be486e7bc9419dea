"""Brute-force references the tests check the package against, kept out of
``src`` because nothing in the package reads them."""

from collections import deque
from functools import cached_property
from hashlib import sha512
from itertools import count, islice
from types import SimpleNamespace
from typing import Callable, Iterable, Optional, Sequence

from cegis_lab.core import (
    BOT,
    Language,
    Program,
    Trace,
    TraceEntry,
    bits,
    pair_decode,
    point_decode,
    zigzag_decode,
)
from cegis_lab.engines import (
    _TOP,
    BUDGET_EXHAUSTED,
    CEGIS,
    CONVERGED,
    HCEGIS,
    MINCEGIS,
    POSITIVE_ONLY,
    STALLED,
    EngineError,
    EngineRun,
    Generalizer,
    IterationRecord,
    LceMap,
    SimState,
    _new_tuple,
)
from cegis_lab.families import RadialOrdering
from cegis_lab.verifiers import FIRST_FOUND_STRATEGY, CexStrategy, check, hcheck, mincheck


def smpl(entries: Iterable[TraceEntry]) -> frozenset:
    """SMPL of a trace prefix: the naturals occurring in it (padding excluded),
    the set whose largest element bounds a history-bounded counterexample."""
    return frozenset(e for e in entries if e is not BOT)


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
    if n > family.universe_bound:
        return 0
    if i == 0:
        return 1
    return 0 if n == i - 1 else 1


def explicit_language(
    members: Iterable[int],
    universe_bound: int,
    descriptor: Optional[str] = None,
) -> Language:
    """The language of the given members; those outside [0, universe_bound]
    are dropped."""
    ms = {m for m in members if 0 <= m <= universe_bound}
    if descriptor is None:
        descriptor = "set{" + ",".join(str(m) for m in sorted(ms)) + "}"
    return Language(sum(1 << m for m in ms), universe_bound, descriptor)


def intersect_singleton(language: Language, k: int) -> Language:
    """The language's members that equal k, labelled as the simulation labels
    its probes."""
    return Language(
        language.mask & 1 << k, language.universe_bound,
        f"{language.descriptor}&{{{k}}}", language.ordering,
    )


def ordering_key(language: Language):
    """Sort key of the language's element ordering: the natural order when it
    declares none, and ``radial_key`` for the rectangle family's."""
    if language.ordering is None:
        return lambda n: n
    if isinstance(language.ordering, RadialOrdering):
        return radial_key
    return language.ordering.key


class Ordering:
    """A total order of [0, bound], given by ``key`` as ``sorted`` takes it:
    the ordering the generated finite families share.  ``order`` lists the
    elements least first; ``least`` takes the minimum by ``key``."""

    def __init__(self, key: Callable[[int], tuple], bound: int):
        self.key = key
        self.bound = bound

    @cached_property
    def order(self) -> tuple[int, ...]:
        return tuple(sorted(range(self.bound + 1), key=self.key))

    def least(self, mask: int) -> int:
        """The least element of a nonempty bitmask over [0, bound]."""
        if not mask:
            raise ValueError("least element of an empty set")
        return min(bits(mask), key=self.key)


def finite_family(masks: Sequence[int], bound: int, order: Sequence[int]) -> list[Language]:
    """A finite family over [0, bound]: one language per mask, labelled
    ``L<i>``, all sharing the element ordering that lists ``order`` (a
    permutation of [0, bound]) least first."""
    rank = {e: r for r, e in enumerate(order)}
    ordering = Ordering(rank.__getitem__, bound)
    return [Language(mask, bound, f"L{i}", ordering) for i, mask in enumerate(masks)]


def enumeration_generalizer(languages: Sequence[Language]) -> Generalizer:
    """Gold's identification by enumeration (E. M. Gold, "Language
    Identification in the Limit", 1967): conjecture the first language of
    the list that contains every positive example seen and no counterexample
    seen.  A program's aux is that (positives, counterexamples) pair of
    bitmasks; the index is the language's place in the list."""

    def conjecture(seen: int, refuted: int) -> Program:
        for i, lang in enumerate(languages):
            if lang.mask & seen == seen and not lang.mask & refuted:
                return Program(i, lang, (seen, refuted))
        raise EngineError("no language of the family is consistent with the examples")

    def step(prev: Program, entry, cex, probe=None) -> Program:
        seen, refuted = prev.aux
        if entry is not BOT:
            seen |= 1 << entry
        if cex is not None:
            refuted |= 1 << cex
        return conjecture(seen, refuted)

    return Generalizer(conjecture(0, 0), step)


def lce_items(lce) -> list:
    """(member set, cached minimal counterexample) pairs of an LceMap."""
    return [(frozenset(bits(key)), value) for key, value in lce._entries.items()]


def radial_key(code: int) -> tuple:
    """The rectangle family's element ordering: radius squared, then x, then y."""
    x, y = point_decode(code)
    return (x * x + y * y, x, y)


def rectangle_shrink(bounds, hull, xc: int, yc: int):
    """The rectangle learner's bound shrink on a counterexample (xc, yc),
    searching the axes and sides by name: the bounds after it, or
    EngineError when no bound can exclude the point."""
    ax, bx, ay, by = bounds
    axes = [("x", xc), ("y", yc)]
    if abs(yc) > abs(xc):
        axes.reverse()
    for axis, c in axes:
        lo, hi = (ax, bx) if axis == "x" else (ay, by)
        span = None
        if hull is not None:
            span = (hull[0], hull[1]) if axis == "x" else (hull[2], hull[3])
        if span is None:
            sides = ["upper", "lower"] if c >= 0 else ["lower", "upper"]
        elif c > span[1]:
            sides = ["upper"]
        elif c < span[0]:
            sides = ["lower"]
        else:
            continue
        for side in sides:
            nlo, nhi = (lo, c - 1) if side == "upper" else (c + 1, hi)
            if nlo > nhi:
                continue
            if span is not None and not (nlo <= span[0] and span[1] <= nhi):
                continue
            if axis == "x":
                return (nlo, nhi, ay, by)
            return (ax, bx, nlo, nhi)
    raise EngineError(f"counterexample ({xc},{yc}) inside the positive hull {hull}")


def direct_loop(target: Language, entries: Iterable[TraceEntry], generalizer: Generalizer,
                window: int, oracle: Callable, probing: bool = False):
    """The direct loop as the README's run semantics state it, kept apart
    from ``engines._Tally``.  Iteration i asks ``oracle(language, history)``
    about the conjecture, the history being every entry read before entry i;
    logs that query; reads entry i; and applies the learner's step, handing
    it ``oracle`` on the history through entry i as its probe when
    ``probing``.  The run stops once its conjecture froze, or stood
    unrefuted for ``window`` iterations having been refuted before or being
    right.  Yields the run's state before its first iteration and after
    each one."""
    run = SimpleNamespace(records=[], final=generalizer.initial, queries=0, probes=0, cexs=0,
                          streak=0, last_change=0, stopped=False)
    history: list[TraceEntry] = []

    def probe(language: Language) -> Optional[int]:
        run.probes += 1
        return oracle(language, history)

    yield run
    for i, entry in enumerate(entries, 1):
        prev = run.final
        cex = oracle(prev.language, history)
        run.records.append(IterationRecord(i, entry, prev.language.descriptor, cex, "conjecture"))
        run.queries += 1
        run.cexs += cex is not None
        history.append(entry)
        run.final = generalizer.step(prev, entry, cex, probe if probing else None)
        if run.final.language.mask != prev.language.mask:
            run.streak, run.last_change = 0, i
        else:
            run.streak = 0 if cex is not None else run.streak + 1
        frozen = getattr(run.final.aux, "frozen", False)
        if frozen:
            run.records.append(IterationRecord(i, entry, run.final.descriptor(), None, "freeze"))
        right = run.final.language.mask == target.mask
        run.stopped = frozen or run.streak >= window and (run.cexs > 0 or right)
        yield run
        if run.stopped:
            return


def run_status(stopped: bool, length: int, cexs: int, streak: int, window: int,
               right: bool) -> str:
    """The README's status of a run of ``length`` records: converged when it
    stopped, or when its budget ended on a right conjecture that stood
    unrefuted for the window or the whole run, whichever is shorter; stalled
    when it was never refuted and ended wrong; else budget-exhausted (also a
    run with no record)."""
    if stopped or length and right and streak >= min(window, length):
        return CONVERGED
    return STALLED if length and not cexs and not right else BUDGET_EXHAUSTED


def reference_run(variant: str, target: Language, trace: Trace, generalizer: Generalizer,
                  strategy: CexStrategy = FIRST_FOUND_STRATEGY, budget: int = 100,
                  stability_window: int = 10) -> EngineRun:
    """``engines.run_engine`` through ``direct_loop``, with its oracles:
    ``hcheck`` reads the whole history."""
    oracle = {
        CEGIS: lambda language, history: check(language, target, strategy),
        MINCEGIS: lambda language, history: mincheck(language, target),
        HCEGIS: lambda language, history: hcheck(language, target, history),
        POSITIVE_ONLY: lambda language, history: None,
    }[variant]
    loop = direct_loop(target, islice(trace, budget), generalizer, stability_window, oracle,
                       probing=variant == HCEGIS)
    run = next(loop)
    for _ in loop:
        pass
    right = run.final.language.mask == target.mask
    status = run_status(run.stopped, len(run.records), run.cexs, run.streak, stability_window,
                        right)
    converged_at = run.last_change if status == CONVERGED else None
    return EngineRun(run.records, run.final, status, converged_at, run.queries, run.probes,
                     run.cexs, stability_window, right)


def simulate_by_index(
    target: Language,
    trace: Trace,
    generalizer: Generalizer,
    strategy: Optional[CexStrategy] = None,
    budget: int = 10_000,
    stability_window: int = 10,
) -> EngineRun:
    """The simulation as one micro-step per trace entry: the loop
    ``engines.simulate_min_via_arbitrary`` replaced with one probe-sweep
    loop, kept to check that loop against.  It replays the direct run
    through ``direct_loop``, each cached minimal counterexample as a
    verdict, and classifies itself by ``run_status``."""
    strategy = strategy or CexStrategy()
    limit = min(budget, len(trace))

    base = generalizer.initial.language
    order = range(base.universe_bound + 1) if base.ordering is None else base.ordering.order

    lce = LceMap()
    p_last = generalizer.initial
    # While a sweep runs, the singleton probe {order[mu]} & p_last; else None.
    probe: Optional[Language] = None
    mu = 0
    backlog: deque = deque()
    tau_done = 0

    records: list[IterationRecord] = []
    queries = cexs = streak = last_change = 0
    # The simulated direct run reads the backlog's entries, each as it is replayed.
    direct = direct_loop(target, (backlog.popleft() for _ in count()), generalizer,
                         stability_window, lambda language, history: lce._entries[language.mask])
    replayed = next(direct)
    since_progress = 0

    for m, entry in zip(range(1, limit + 1), trace):
        backlog.append(entry)
        since_progress += 1
        # Progress invariant: between extensions of the consumed prefix the
        # simulation can spend at most one full probe sweep plus overhead.
        if since_progress > len(order) + 2:
            raise EngineError("simulation stopped making progress")

        if probe is None:
            cex = check(p_last.language, target, strategy)
            records.append(IterationRecord(m, entry, p_last.descriptor(), cex, "conjecture"))
            if cex is None:  # Case 1.2
                lce.set(p_last, None)
            # Case 1.1.2 sweeps for the minimum; in Case 1.1.1 it is cached.
            sweep = cex is not None and lce.get(p_last) is _TOP
        else:
            cex = check(probe, target, strategy)
            records.append(IterationRecord(m, entry, probe.descriptor, cex, "probe"))
            sweep = cex is None
            if sweep:  # Case 2.2
                mu += 1
                if mu >= len(order):
                    raise EngineError(
                        "probe sweep exhausted the universe without a counterexample"
                    )
            else:  # Case 2.1: the probe's sole element is the minimal counterexample
                lce.set(p_last, cex)
                mu = 0  # also where the next sweep starts
                probe = None
        queries += 1
        cexs += cex is not None
        if sweep:
            # The singleton probe {order[mu]} & p_last, built in place
            k = order[mu]
            lang = p_last.language
            probe = _new_tuple(Language, (
                lang.mask & 1 << k, lang.universe_bound,
                f"{lang.descriptor}&{{{k}}}", lang.ordering,
            ))
            continue

        # Replay the backlog as far as the cache allows, each entry as the next
        # direct iteration with its cached minimal counterexample as verdict.
        consumed = 0
        while backlog and not replayed.stopped and lce.get(replayed.final) is not _TOP:
            next(direct)
            consumed += 1
        tau_done += consumed
        if consumed:
            since_progress = 0
        prog = replayed.final
        changed = prog.language.mask != p_last.language.mask
        if changed:
            last_change = m
        streak = 0 if changed or cex is not None else streak + 1
        # Logged always after a counterexample, else only on a change.
        if cex is not None or changed:
            records.append(IterationRecord(m, None, prog.descriptor(), None, "replay"))
        p_last = prog
        if replayed.stopped:
            break

    # A run cut mid-sweep reports the pending probe as its simulated program.
    p_sim = p_last if probe is None else Program(("probe", order[mu]), probe)
    right = p_last.language.mask == target.mask
    # Ended where the direct run stops, it is classified as that run.
    status = run_status(replayed.stopped, len(records), cexs, streak, stability_window, right)
    return EngineRun(
        records, p_last, status, last_change if status == CONVERGED else None, queries, 0, cexs,
        stability_window, right, SimState(lce, p_sim, mu, tuple(backlog), tau_done),
    )


class MT19937:
    """The Mersenne Twister, written from the reference code ``mt19937ar.c``
    of M. Matsumoto and T. Nishimura ("Mersenne Twister: A 623-dimensionally
    equidistributed uniform pseudo-random number generator", ACM TOMACS
    8(1), 1998), with the seeding and the draws of Python's
    ``random.Random`` that the package's bytes rest on, so that the tests
    check those bytes against the published generator and not against the
    interpreter that runs them:

    - an int seed: ``init_by_array`` over the 32-bit words of its absolute
      value, least significant first (one word 0 for seed 0);
    - a str seed (version 2): its UTF-8 bytes followed by their SHA-512
      digest, read as one big-endian int seed;
    - ``getrandbits(k)``, k <= 32: the top k bits of one output;
    - ``random()``: 27 and 26 top bits of two outputs, as 53 bits over 2**53;
    - ``randbelow(n)``: ``getrandbits(n.bit_length())`` until it is below n,
      which ``choice`` and the shuffle use.
    """

    N, M = 624, 397

    def __init__(self, seed=None):
        if isinstance(seed, str):
            data = seed.encode()
            seed = int.from_bytes(data + sha512(data).digest(), "big")
        if seed is not None:
            n = abs(seed)
            self.init_by_array([n >> s & 0xFFFFFFFF for s in range(0, max(n.bit_length(), 1), 32)])

    def init_genrand(self, s: int) -> None:
        mt = [s & 0xFFFFFFFF]
        for i in range(1, self.N):
            mt.append((1812433253 * (mt[-1] ^ mt[-1] >> 30) + i) & 0xFFFFFFFF)
        self.mt, self.index = mt, self.N

    def init_by_array(self, key: Sequence[int]) -> None:
        self.init_genrand(19650218)
        mt, n = self.mt, self.N
        i, j = 1, 0
        for _ in range(max(n, len(key))):
            mt[i] = ((mt[i] ^ (mt[i - 1] ^ mt[i - 1] >> 30) * 1664525) + key[j] + j) & 0xFFFFFFFF
            i, j = i + 1, (j + 1) % len(key)
            if i >= n:
                mt[0], i = mt[n - 1], 1
        for _ in range(n - 1):
            mt[i] = ((mt[i] ^ (mt[i - 1] ^ mt[i - 1] >> 30) * 1566083941) - i) & 0xFFFFFFFF
            i += 1
            if i >= n:
                mt[0], i = mt[n - 1], 1
        mt[0] = 0x80000000  # the most significant bit is 1: a nonzero initial array

    def genrand_uint32(self) -> int:
        """The next tempered 32-bit output."""
        mt, n = self.mt, self.N
        if self.index >= n:
            for k in range(n):  # in place, as the reference's three loops are
                y = mt[k] & 0x80000000 | mt[(k + 1) % n] & 0x7FFFFFFF
                mt[k] = mt[(k + self.M) % n] ^ y >> 1 ^ (0x9908B0DF if y & 1 else 0)
            self.index = 0
        y = mt[self.index]
        self.index += 1
        y ^= y >> 11
        y ^= y << 7 & 0x9D2C5680
        y ^= y << 15 & 0xEFC60000
        return y ^ y >> 18

    def getrandbits(self, k: int) -> int:
        if not 0 <= k <= 32:
            raise ValueError("the reference draws at most 32 bits at a time")
        return self.genrand_uint32() >> 32 - k if k else 0

    def random(self) -> float:
        a, b = self.genrand_uint32() >> 5, self.genrand_uint32() >> 6
        return (a * 67108864 + b) / 9007199254740992

    def randbelow(self, n: int) -> int:
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return r

    def choice(self, seq: Sequence):
        return seq[self.randbelow(len(seq))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
