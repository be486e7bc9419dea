"""Synthesis engines: the CEGIS recursion, per-family generalizers, and
the simulation of minimal-counterexample synthesis on top of the
arbitrary-counterexample verifier.

A Generalizer is the inductive function F: it maps (previous program,
trace entry, verifier response) to the next program and is reused across
engine variants so that only the verifier changes between experiments.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .core import (
    BOT,
    Language,
    Program,
    Trace,
    TraceEntry,
    explicit_language,
    pair_decode,
    semantically_equal,
)
from .families import ChainFamily, DiagonalFamily, GoldFamily, RectangleFamily
from .verifiers import CexStrategy, check, hcheck, mincheck

CEGIS = "cegis"
MINCEGIS = "mincegis"
HCEGIS = "hcegis"
POSITIVE_ONLY = "positive-only"
SIMULATED_MINCEGIS = "simulated-mincegis"

VARIANTS = (CEGIS, MINCEGIS, HCEGIS, POSITIVE_ONLY)

CONVERGED = "converged"
STALLED = "stalled"
BUDGET_EXHAUSTED = "budget-exhausted"


class EngineFaultError(RuntimeError):
    """The simulation's progress guard fired: it stopped replaying the trace."""


class InconsistentOracleError(RuntimeError):
    """A verifier answer contradicts engine state; impossible when sound."""


class ProbeOverflowError(RuntimeError):
    """Auxiliary probe budget exhausted."""


ProbeFn = Callable[[Language], Optional[int]]
StepFn = Callable[[Program, TraceEntry, Optional[int], Optional[ProbeFn]], Program]


@dataclass(frozen=True)
class Generalizer:
    initial: Program
    step: StepFn


class IterationRecord(NamedTuple):
    iteration: int
    entry: TraceEntry
    candidate: str
    cex: Optional[int]
    event: str  # conjecture | probe | replay | freeze


# The records and probes made once per micro-step are built with
# tuple.__new__(Cls, fields): the __new__ that NamedTuple generates is a
# Python-level function, a frame of its own that costs about three times as
# much, and these two are built once per trace entry the simulation reads.
_new_tuple = tuple.__new__


class SimState(NamedTuple):
    lce: "LceMap"
    p_sim: Program
    p_last: Program
    mu: int
    backlog: tuple
    tau_done_len: int


class EngineRun(NamedTuple):
    variant: str
    iterations: list[IterationRecord]
    final: Program
    status: str
    converged_at: Optional[int]
    queries: int
    probes: int
    cex_count: int
    stability_window: int
    semantic_match: bool
    sim_state: Optional[SimState] = None


def default_stability_window(target: Language) -> int:
    return max(1, 2 * min(target.mask.bit_count(), 50))


def default_budget(target: Language) -> int:
    return 10 * max(target.universe_bound, 1)


def _is_frozen(program: Program) -> bool:
    return bool(getattr(program.aux, "frozen", False))


class _Tally:
    """The bookkeeping both engine loops share: the records, the query and
    counterexample counts, the stability streak, and the one rule that
    classifies a finished run."""

    def __init__(self, target: Language, window: int):
        self.target = target
        self.window = window
        self.records: list[IterationRecord] = []
        self.queries = 0
        self.cex_count = 0
        self.streak = 0
        self.last_change = 0

    def query(self, i: int, entry: TraceEntry, candidate: str, cex: Optional[int], event: str):
        self.records.append(_new_tuple(IterationRecord, (i, entry, candidate, cex, event)))
        self.queries += 1
        if cex is not None:
            self.cex_count += 1

    def settle(self, i: int, changed: bool, cex: Optional[int]) -> None:
        if changed:
            self.last_change = i
        self.streak = 0 if changed or cex is not None else self.streak + 1

    def stable(self, program: Program) -> bool:
        """Unrefuted for the whole window, and either refuted once before or
        right: a run that was never refuted has learned nothing from it."""
        return self.streak >= self.window and (
            self.cex_count > 0 or semantically_equal(program.language, self.target)
        )

    def finish(
        self, variant: str, final: Program, converged: bool,
        probes: int = 0, sim_state: Optional[SimState] = None,
    ) -> EngineRun:
        match = semantically_equal(final.language, self.target)
        if converged:
            status = CONVERGED
        elif not self.records:
            status = BUDGET_EXHAUSTED
        elif self.cex_count == 0 and not match:
            # Never refuted and wrong: the observable signature of
            # non-identifiability at this budget.
            status = STALLED
        elif self.streak >= min(self.window, len(self.records)) and match:
            status = CONVERGED
        else:
            status = BUDGET_EXHAUSTED
        return EngineRun(
            variant, self.records, final, status,
            self.last_change if status == CONVERGED else None,
            self.queries, probes, self.cex_count, self.window, match, sim_state,
        )


# ---------------------------------------------------------------------------
# Engine loop


def run_engine(
    variant: str,
    target: Language,
    trace: Trace,
    generalizer: Generalizer,
    strategy: Optional[CexStrategy] = None,
    budget: int = 100,
    stability_window: int = 10,
    probe_cap: int = 100_000,
) -> EngineRun:
    """Execute the recursion for up to ``budget`` steps.

    Iteration i verifies the candidate produced at iteration i-1 and then
    applies F to (candidate, tau(i), counterexample or None).  The run halts
    early on a frozen conjecture or once the candidate has been stable under
    no-counterexample answers for the stability window.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown engine variant: {variant}")
    strategy = strategy or CexStrategy()
    limit = min(budget, len(trace))

    tally = _Tally(target, stability_window)
    current = generalizer.initial
    # hcheck depends on a history only through its largest sample, so the
    # history handed to it is (largest non-BOT entry read so far,) or ().
    history: tuple[int, ...] = ()
    probes = 0
    converged = False

    def hprobe(lang: Language) -> Optional[int]:
        # Called only from the step, after this iteration's history update.
        nonlocal probes
        probes += 1
        if probes > probe_cap:
            raise ProbeOverflowError(f"more than {probe_cap} probes")
        return hcheck(lang, target, history)

    probe = hprobe if variant == HCEGIS else None

    for i in range(1, limit + 1):
        entry = trace[i - 1]
        prev = current

        if variant == CEGIS:
            cex = check(prev.language, target, strategy)
        elif variant == MINCEGIS:
            cex = mincheck(prev.language, target)
        elif variant == HCEGIS:
            cex = hcheck(prev.language, target, history)
            if entry is not BOT and (not history or entry > history[0]):
                history = (entry,)
        else:  # positive-only ablation: the counterexample channel is cut
            cex = None
        tally.query(i, entry, prev.descriptor(), cex, "conjecture")

        current = generalizer.step(prev, entry, cex, probe)
        changed = current is not prev and current.semantic_key() != prev.semantic_key()
        tally.settle(i, changed, cex)

        frozen = _is_frozen(current)
        if frozen:
            tally.records.append(IterationRecord(i, entry, current.descriptor(), None, "freeze"))
        if frozen or tally.stable(current):
            converged = True
            break

    return tally.finish(variant, current, converged, probes)


# ---------------------------------------------------------------------------
# Per-family generalizers


class FrozenAux(NamedTuple):
    frozen: bool = False


def chain_generalizer(family: ChainFamily) -> Generalizer:
    """Enumerate up the chain while unrefuted; freeze one below on refutation.
    The climb has no cap, as the paper's chain is infinite: past the universe
    bound B a conjecture is restricted to [0, B]."""
    bound = family.universe_bound

    def make(i: int, frozen: bool) -> Program:
        lang = Language((1 << min(i, bound) + 1) - 1, bound, f"chain[{i}]")
        return Program("chain", i, lang, FrozenAux(frozen))

    def step(prev: Program, entry, cex, probe=None) -> Program:
        if prev.aux.frozen:
            return prev
        j = prev.index
        if cex is not None:
            if j == 0:
                raise InconsistentOracleError("counterexample against chain[0]")
            return make(j - 1, True)
        return make(j + 1, False)

    return Generalizer(make(0, False), step)


class RectAux(NamedTuple):
    # Inner hull of positive examples as a bounding box, or None.
    hull: Optional[tuple[int, int, int, int]] = None


def rectangle_generalizer(family: RectangleFamily) -> Generalizer:
    """Start universal; grow the hull on positives, tighten bounds on cexs.

    A counterexample shrinks one bound on the axis with the largest
    absolute coordinate (tie: x first), on the side that excludes it
    without cutting the hull; with an empty hull the side follows the
    coordinate's sign.
    """
    g = family.grid_bound

    def make(bounds: tuple[int, int, int, int], hull) -> Program:
        ax, bx, ay, by = bounds
        return Program("rectangle", bounds, family.language(ax, bx, ay, by), RectAux(hull))

    def hull_add(hull, x: int, y: int):
        if hull is None:
            return (x, x, y, y)
        hx0, hx1, hy0, hy1 = hull
        return (min(hx0, x), max(hx1, x), min(hy0, y), max(hy1, y))

    def shrink(bounds, hull, xc: int, yc: int):
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
        raise InconsistentOracleError(
            f"counterexample ({xc},{yc}) inside the positive hull {hull}"
        )

    def step(prev: Program, entry, cex, probe=None) -> Program:
        bounds = prev.index
        hull = prev.aux.hull
        if entry is not BOT:
            x, y = family.decode(entry)
            if hull is None or not (hull[0] <= x <= hull[1] and hull[2] <= y <= hull[3]):
                hull = hull_add(hull, x, y)
            ax, bx, ay, by = bounds
            # Repair: a positive example outside the bounds re-expands them.
            if not (ax <= x <= bx and ay <= y <= by):
                bounds = (min(ax, x), max(bx, x), min(ay, y), max(by, y))
        if cex is not None:
            xc, yc = family.decode(cex)
            bounds = shrink(bounds, hull, xc, yc)
        if bounds == prev.index:
            if hull == prev.aux.hull:
                return prev
            return Program("rectangle", bounds, prev.language, RectAux(hull))
        return make(bounds, hull)

    return Generalizer(make((-g, g, -g, g), None), step)


class DiagAux(NamedTuple):
    min_j: Optional[int] = None
    x_max: Optional[int] = None
    recovered: frozenset = frozenset()


def diag_generalizer(family: DiagonalFamily) -> Generalizer:
    """The two-mode learner for the diagonal family (history-bounded runs).

    Mode A (no <1, .> code seen yet) conjectures diag(j) for the minimum j
    with <0, j> observed.  Mode B tracks the largest observed code x_max and
    reconstructs every smaller member through singleton probes: the probe
    {x'} draws no counterexample exactly when x' is in the target (x' < x_max
    keeps the probe inside the history bound).  Without a probe oracle the
    learner keeps only x_max, which is precisely what it cannot recover from.
    """
    bound = family.universe_bound

    def recset_program(aux: DiagAux) -> Program:
        members = frozenset(aux.recovered) | {aux.x_max}
        label = ",".join(str(m) for m in sorted(members))
        lang = explicit_language(members, bound, f"recset[{label}]")
        return Program("diagonal", ("recset", tuple(sorted(members))), lang, aux)

    def reconstruct(x_max: int, probe: Optional[ProbeFn]) -> frozenset:
        if probe is None:
            return frozenset()
        found = []
        for x in range(x_max):
            lang = explicit_language({x}, bound, f"probe[{x}]")
            if probe(lang) is None:
                found.append(x)
        return frozenset(found)

    def step(prev: Program, entry, cex, probe=None) -> Program:
        aux: DiagAux = prev.aux
        if entry is BOT:
            return prev
        j, n = pair_decode(entry)
        if aux.x_max is None and j == 0:  # mode A
            if aux.min_j is not None and n >= aux.min_j:
                return prev
            return Program("diagonal", ("diag", n), family.diag_language(n), DiagAux(n))
        if aux.x_max is not None and entry <= aux.x_max:
            return prev
        return recset_program(DiagAux(None, entry, reconstruct(entry, probe)))

    initial = Program(
        "diagonal",
        ("diag", "init"),
        explicit_language((), bound, "diag[init]"),
        DiagAux(),
    )
    return Generalizer(initial, step)


def gold_generalizer(family: GoldFamily) -> Generalizer:
    """Guess the universal set; one counterexample pins the deleted point."""

    def step(prev: Program, entry, cex, probe=None) -> Program:
        if cex is None:
            return prev
        if prev.aux.frozen:
            raise InconsistentOracleError(
                f"counterexample {cex} after the conjecture was pinned"
            )
        return Program("gold", ("minus", cex), family.minus_language(cex), FrozenAux(True))

    initial = Program("gold", ("full",), family.full_language(), FrozenAux(False))
    return Generalizer(initial, step)


# ---------------------------------------------------------------------------
# Simulation machinery: lce map, replay, and the micro-step engine


_TOP = "top"


class LceMap:
    """Finite cache from programs to their minimal counterexamples.

    Keys are semantic (member bitmasks): syntactically different programs
    for the same language share one entry.  Absent key = unknown (top); a
    stored None = no counterexample exists.
    """

    def __init__(self):
        self._entries: dict[int, Optional[int]] = {}

    def get(self, program: Program):
        return self._entries.get(program.semantic_key(), _TOP)

    def set(self, program: Program, value: Optional[int]) -> None:
        self._entries[program.semantic_key()] = value

    def __len__(self) -> int:
        return len(self._entries)


def _replay_longest(
    lce: LceMap, start: Program, entries: list[TraceEntry], step: StepFn
) -> tuple[Program, int]:
    """Replay F substituting cached minimal counterexamples for verifier
    calls; stop before the first program whose cache entry is unknown."""
    prog = start
    consumed = 0
    for e in entries:
        value = lce.get(prog)
        if value is _TOP:
            break
        prog = step(prog, e, value, None)
        consumed += 1
    return prog, consumed


def simulate_min_via_arbitrary(
    target: Language,
    trace: Trace,
    generalizer: Generalizer,
    strategy: Optional[CexStrategy] = None,
    budget: int = 10_000,
    stability_window: int = 10,
) -> EngineRun:
    """Reproduce a minimal-counterexample run using only the arbitrary
    verifier, finding each minimal counterexample in micro-steps.

    Probing walks the universe in the declared element ordering: the first
    singleton intersection that draws a counterexample is the minimal one.
    Every micro-step consumes one trace entry into a backlog that is
    replayed once the needed cache entries exist.
    """
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
    since_progress = 0
    converged = False

    for m in range(1, limit + 1):
        entry = trace[m - 1]
        backlog.append(entry)
        since_progress += 1
        # Progress invariant: between extensions of the consumed prefix the
        # simulation can spend at most one full probe sweep plus overhead.
        if since_progress > len(order) + 2:
            raise EngineFaultError("simulation stopped making progress")

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
                    raise InconsistentOracleError(
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

        # Replay the backlog as far as the cache allows and log the result:
        # always after a counterexample, else only on a change.
        prog, consumed = _replay_longest(lce, p_last, backlog, step)
        del backlog[:consumed]
        tau_done += consumed
        if consumed:
            since_progress = 0
        changed = prog.semantic_key() != p_last.semantic_key()
        tally.settle(m, changed, cex)
        if cex is not None or changed:
            tally.records.append(IterationRecord(m, None, prog.descriptor(), None, "replay"))
        p_last = prog
        if cex is None and (_is_frozen(p_last) or tally.stable(p_last)):  # Case 1.2 only
            converged = True
            break

    # A run cut mid-sweep reports the pending probe as its simulated program.
    p_sim = p_last if probe is None else Program(p_last.family, ("probe", order[mu]), probe)
    return tally.finish(
        SIMULATED_MINCEGIS, p_last, converged,
        sim_state=SimState(lce, p_sim, p_last, mu, tuple(backlog), tau_done),
    )
