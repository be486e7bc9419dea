"""Brute-force references the tests check the package against, kept out of
``src`` because nothing in the package reads them."""

from typing import Iterable, Optional

from cegis_lab.core import (
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
    EngineError,
    EngineRun,
    Generalizer,
    IterationRecord,
    LceMap,
    SimState,
    _new_tuple,
    _Tally,
)
from cegis_lab.verifiers import CexStrategy, check


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
    """Sort key of the language's element ordering; the natural order when it
    declares none."""
    return (lambda n: n) if language.ordering is None else language.ordering.key


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
    loop, kept to check that loop against."""
    strategy = strategy or CexStrategy()
    limit = min(budget, len(trace))
    step = generalizer.step

    base = generalizer.initial.language
    order = range(base.universe_bound + 1) if base.ordering is None else base.ordering.order

    lce = LceMap()
    p_last = generalizer.initial
    # While a sweep runs, the singleton probe {order[mu]} & p_last; else None.
    probe: Optional[Language] = None
    mu = 0
    backlog: list[TraceEntry] = []
    tau_done = 0

    tally = _Tally(target, stability_window)
    # The simulated direct run: its streak and counterexample count, no queries.
    direct = _Tally(target, stability_window)
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
            tally.query(m, entry, p_last.descriptor(), cex, "conjecture")
            if cex is None:  # Case 1.2
                lce.set(p_last, None)
            # Case 1.1.2 sweeps for the minimum; in Case 1.1.1 it is cached.
            sweep = cex is not None and lce.get(p_last) is _TOP
        else:
            cex = check(probe, target, strategy)
            tally.query(m, entry, probe.descriptor, cex, "probe")
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
        prog = p_last
        consumed = 0
        for e in backlog:
            value = lce.get(prog)
            if value is _TOP:
                break
            consumed += 1
            direct.cex_count += value is not None
            prog = direct.iterate(tau_done + consumed, e, prog, value, step, None)
            if direct.stopped:
                break
        del backlog[:consumed]
        tau_done += consumed
        if consumed:
            since_progress = 0
        changed = prog.language.mask != p_last.language.mask
        tally.settle(m, changed, cex)
        # Logged always after a counterexample, else only on a change.
        if cex is not None or changed:
            tally.records.append(IterationRecord(m, None, prog.descriptor(), None, "replay"))
        p_last = prog
        if direct.stopped:
            break

    # A run cut mid-sweep reports the pending probe as its simulated program.
    p_sim = p_last if probe is None else Program(p_last.family, ("probe", order[mu]), probe)
    return tally.finish(
        p_last, sim_state=SimState(lce, p_sim, mu, tuple(backlog), tau_done),
        ruled_by=(direct, tau_done) if direct.stopped else None,
    )
