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
    pair_decode,
    semantically_equal,
)
from .families import ChainFamily, DiagonalFamily, GoldFamily, RectangleFamily
from .verifiers import FIRST_FOUND_STRATEGY, CexStrategy, check, hcheck, mincheck

CEGIS = "cegis"
MINCEGIS = "mincegis"
HCEGIS = "hcegis"
POSITIVE_ONLY = "positive-only"
SIMULATED_MINCEGIS = "simulated-mincegis"

VARIANTS = (CEGIS, MINCEGIS, HCEGIS, POSITIVE_ONLY)

CONVERGED = "converged"
STALLED = "stalled"
BUDGET_EXHAUSTED = "budget-exhausted"


class EngineError(RuntimeError):
    """An engine fault: a replay that consumes no entry (the cache lost a
    verdict), an oracle answer contradicting the engine, or too many probes."""


# The most probes one HCEGIS run may ask; read when a probe runs.
PROBE_CAP = 100_000


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


# Tuples built once per micro-step, step or run are built with
# tuple.__new__(Cls, fields), which takes every field, defaults included:
# - every IterationRecord (conjecture, probe, replay and freeze);
# - the simulation's probe languages and its SimState;
# - the EngineRun that _Tally.finish returns;
# - the programs and languages of the chain, rectangle and diagonal steps,
#   the diagonal learner's probe languages, and the rectangle and diagonal
#   steps' RectAux and DiagAux (the chain step reuses two FrozenAux values).
# The __new__ that NamedTuple generates is a Python-level function, a frame
# of its own: on CPython 3.11.7 (x86-64) it took about 330 ns for a
# five-field record and 400-440 ns for an EngineRun, against about 140 ns
# and 220-230 ns for tuple.__new__.
_new_tuple = tuple.__new__


class SimState(NamedTuple):
    lce: "LceMap"
    p_sim: Program
    mu: int
    backlog: tuple
    tau_done_len: int


class EngineRun(NamedTuple):
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


class _Tally:
    """The bookkeeping of one run, shared by both engine loops: the learner
    step and the probe oracle it is handed, the records, the query, probe
    and counterexample counts, the stability streak, the stop rule that sets
    ``stopped``, and the one rule that classifies a finished run."""

    def __init__(self, target: Language, window: int, step: StepFn,
                 probe: Optional[ProbeFn] = None):
        self.target = target
        self.window = window
        self.step = step
        self.oracle = probe
        self.probe = None if probe is None else self._probe  # counted and capped
        self.records: list[IterationRecord] = []
        self.queries = 0
        self.probes = 0
        self.cex_count = 0
        self.streak = 0
        self.last_change = 0
        self.stopped = False

    def _probe(self, lang: Language) -> Optional[int]:
        self.probes += 1
        if self.probes > PROBE_CAP:
            raise EngineError(f"more than {PROBE_CAP} probes")
        return self.oracle(lang)

    def query(self, i: int, entry: TraceEntry, candidate: str, cex: Optional[int], event: str):
        self.records.append(_new_tuple(IterationRecord, (i, entry, candidate, cex, event)))
        self.queries += 1
        self.cex_count += cex is not None

    def settle(self, i: int, changed: bool, cex: Optional[int]) -> None:
        if changed:
            self.last_change = i
        self.streak = 0 if changed or cex is not None else self.streak + 1

    def iterate(self, i: int, entry: TraceEntry, prev: Program, cex: Optional[int]) -> Program:
        """Iteration i of a direct run after its query: apply F, settle the
        streak, log a freeze, and stop on a frozen conjecture or on one
        unrefuted for the whole window and either refuted once before or
        right (a run never refuted has learned nothing from it)."""
        current = self.step(prev, entry, cex, self.probe)
        changed = current is not prev and current.language.mask != prev.language.mask
        self.settle(i, changed, cex)
        frozen = getattr(current.aux, "frozen", False)
        if frozen:
            record = (i, entry, current.language.descriptor, None, "freeze")
            self.records.append(_new_tuple(IterationRecord, record))
        self.stopped = frozen or self.streak >= self.window and (
            self.cex_count > 0 or semantically_equal(current.language, self.target))
        return current

    def finish(
        self, final: Program, sim_state: Optional[SimState] = None,
        ruled_by: Optional[tuple[_Tally, int]] = None,
    ) -> EngineRun:
        match = semantically_equal(final.language, self.target)
        # The tally and record count of the run whose state classifies this one.
        rule, records = ruled_by or (self, len(self.records))
        if rule.stopped:
            status = CONVERGED
        elif not records:
            status = BUDGET_EXHAUSTED
        elif rule.cex_count == 0 and not match:
            # Never refuted and wrong: the observable signature of
            # non-identifiability at this budget.
            status = STALLED
        elif rule.streak >= min(rule.window, records) and match:
            status = CONVERGED
        else:
            status = BUDGET_EXHAUSTED
        return _new_tuple(EngineRun, (
            self.records, final, status,
            self.last_change if status == CONVERGED else None,
            self.queries, self.probes, self.cex_count, self.window, match, sim_state,
        ))


# ---------------------------------------------------------------------------
# Engine loop


def run_engine(
    variant: str,
    target: Language,
    trace: Trace,
    generalizer: Generalizer,
    strategy: CexStrategy = FIRST_FOUND_STRATEGY,
    budget: int = 100,
    stability_window: int = 10,
) -> EngineRun:
    """Execute the recursion for up to ``budget`` steps.

    Iteration i verifies the candidate produced at iteration i-1 and then
    applies F to (candidate, tau(i), counterexample or None).  The run halts
    early on a frozen conjecture or once the candidate has been stable under
    no-counterexample answers for the stability window.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown engine variant: {variant}")
    limit = min(budget, len(trace))
    # hcheck depends on a history only through its largest sample, so the
    # history handed to it is (largest non-BOT entry read so far,) or ().
    history: tuple[int, ...] = ()

    def hprobe(lang: Language) -> Optional[int]:
        # Called only from the step, after this iteration's history update.
        return hcheck(lang, target, history)

    tally = _Tally(target, stability_window, generalizer.step,
                   hprobe if variant == HCEGIS else None)
    current = generalizer.initial
    for i, entry in zip(range(1, limit + 1), trace):
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
        tally.query(i, entry, prev.language.descriptor, cex, "conjecture")
        current = tally.iterate(i, entry, prev, cex)
        if tally.stopped:
            break

    return tally.finish(current)


# ---------------------------------------------------------------------------
# Per-family generalizers


class FrozenAux(NamedTuple):
    frozen: bool = False


def chain_generalizer(family: ChainFamily) -> Generalizer:
    """Enumerate up the chain while unrefuted; freeze one below on refutation.
    The climb has no cap, as the paper's chain is infinite: past the universe
    bound B a conjecture is restricted to [0, B]."""
    bound = family.universe_bound
    climbing, frozen = FrozenAux(False), FrozenAux(True)

    def make(i: int, aux: FrozenAux) -> Program:
        language = _new_tuple(Language, ((1 << min(i, bound) + 1) - 1, bound, f"chain[{i}]", None))
        return _new_tuple(Program, (i, language, aux))

    def step(prev: Program, entry, cex, probe=None) -> Program:
        if prev.aux.frozen:
            return prev
        j = prev.index
        if cex is not None:
            if j == 0:
                raise EngineError("counterexample against chain[0]")
            return make(j - 1, frozen)
        # The climb is the step taken on every unrefuted query, so it builds
        # its program inline, without a call to make.  Past B every mask is
        # [0, B]'s: reusing prev's int object lets the engine loop compare
        # the two masks in O(1) rather than O(B).
        j += 1
        mask = prev.language.mask if j > bound else (1 << j + 1) - 1
        language = _new_tuple(Language, (mask, bound, f"chain[{j}]", None))
        return _new_tuple(Program, (j, language, climbing))

    return Generalizer(make(0, climbing), step)


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
        aux = _new_tuple(RectAux, (hull,))
        return _new_tuple(Program, (bounds, family.language(ax, bx, ay, by), aux))

    def shrink(bounds, hull, xc: int, yc: int):
        ax, bx, ay, by = bounds
        # a is the axis's offset into the (ax, bx, ay, by) bounds and hull
        for a, c in ((2, yc), (0, xc)) if abs(yc) > abs(xc) else ((0, xc), (2, yc)):
            upper, lower = (bounds[a], c - 1), (c + 1, bounds[a + 1])
            if hull is None:
                sides = (upper, lower) if c >= 0 else (lower, upper)
            elif c > hull[a + 1]:
                sides = (upper,)
            elif c < hull[a]:
                sides = (lower,)
            else:
                continue
            for nlo, nhi in sides:
                if nlo > nhi:
                    continue
                if hull is not None and not (nlo <= hull[a] and hull[a + 1] <= nhi):
                    continue
                return (nlo, nhi, ay, by) if a == 0 else (ax, bx, nlo, nhi)
        raise EngineError(f"counterexample ({xc},{yc}) inside the positive hull {hull}")

    def step(prev: Program, entry, cex, probe=None) -> Program:
        bounds = prev.index
        hull = prev.aux.hull
        if entry is not BOT:
            x, y = family.decode(entry)
            if hull is None:
                hull = (x, x, y, y)
            elif not (hull[0] <= x <= hull[1] and hull[2] <= y <= hull[3]):
                hull = (min(hull[0], x), max(hull[1], x), min(hull[2], y), max(hull[3], y))
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
            aux = _new_tuple(RectAux, (hull,))
            return _new_tuple(Program, (bounds, prev.language, aux))
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

    # Each member and probe below is at most x_max, a trace entry of a target
    # in this family, so every mask built here lies within [0, bound].
    def recset_program(aux: DiagAux) -> Program:
        members = sorted(aux.recovered | {aux.x_max})
        label = ",".join(map(str, members))
        mask = sum(1 << m for m in members)
        lang = _new_tuple(Language, (mask, bound, f"recset[{label}]", None))
        return _new_tuple(Program, (("recset", tuple(members)), lang, aux))

    def reconstruct(x_max: int, probe: Optional[ProbeFn]) -> frozenset:
        if probe is None:
            return frozenset()
        found = []
        for x in range(x_max):
            if probe(_new_tuple(Language, (1 << x, bound, f"probe[{x}]", None))) is None:
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
            aux = _new_tuple(DiagAux, (n, None, frozenset()))
            return _new_tuple(Program, (("diag", n), family.diag_language(n), aux))
        if aux.x_max is not None and entry <= aux.x_max:
            return prev
        return recset_program(_new_tuple(DiagAux, (None, entry, reconstruct(entry, probe))))

    initial = Program(("diag", "init"), Language(0, bound, "diag[init]"), DiagAux())
    return Generalizer(initial, step)


def gold_generalizer(family: GoldFamily) -> Generalizer:
    """Guess the universal set; one counterexample pins the deleted point."""

    def step(prev: Program, entry, cex, probe=None) -> Program:
        if cex is None:
            return prev
        if prev.aux.frozen:
            raise EngineError(f"counterexample {cex} after the conjecture was pinned")
        return Program(("minus", cex), family.minus_language(cex), FrozenAux(True))

    initial = Program(("full",), family.full_language(), FrozenAux(False))
    return Generalizer(initial, step)


# ---------------------------------------------------------------------------
# Simulation machinery: lce map, replay, and the micro-step engine


_TOP = "top"


class LceMap:
    """Finite cache from programs to their minimal counterexamples.

    Keys are the languages' member bitmasks: syntactically different
    programs for the same language share one entry.  Absent key = unknown
    (top); a stored None = no counterexample exists.
    """

    def __init__(self):
        self._entries: dict[int, Optional[int]] = {}

    def get(self, program: Program):
        return self._entries.get(program.language.mask, _TOP)

    def set(self, program: Program, value: Optional[int]) -> None:
        self._entries[program.language.mask] = value

    def __len__(self) -> int:
        return len(self._entries)


def simulate_min_via_arbitrary(
    target: Language,
    trace: Trace,
    generalizer: Generalizer,
    strategy: CexStrategy = FIRST_FOUND_STRATEGY,
    budget: int = 10_000,
    stability_window: int = 10,
    direct_budget: Optional[int] = None,
) -> EngineRun:
    """Reproduce a minimal-counterexample run using only the arbitrary
    verifier, finding each minimal counterexample by a probe sweep.

    Every micro-step reads one trace entry into a backlog and asks one
    query.  A refuted conjecture whose minimal counterexample is not cached
    starts a sweep, one inner loop over the singleton probes {order[0]} & p,
    {order[1]} & p, ... in the family's element ordering: the first probe
    that draws a counterexample names the minimal one.  The backlog is then
    replayed as far as the cache allows, entry by entry as the iterations of
    the direct MinCEGIS run: the simulation reads the entries that run reads
    and stops where it stops, also where ``direct_budget``, that run's
    budget (None: unbounded), stops it, with the status it has there.
    Each micro-step caches the verdict the replay reads first, so a replay
    that consumes no entry means the cache lost a verdict: an EngineError.
    """
    if direct_budget is not None:  # the direct run reads at most this many entries
        direct_budget = max(min(direct_budget, len(trace)), 0)
    limit = 0 if direct_budget == 0 else min(budget, len(trace))

    base = generalizer.initial.language
    order = range(base.universe_bound + 1) if base.ordering is None else base.ordering.order

    lce = LceMap()
    # Where the simulation stands: p_last, or {order[mu]} & p_last when the
    # budget cut a sweep short after mu probes.
    p_last = p_sim = generalizer.initial
    mu = 0
    backlog: list[TraceEntry] = []
    tau_done = 0

    tally = _Tally(target, stability_window, generalizer.step)
    records = tally.records
    # The simulated direct run: its streak and counterexample count, no queries.
    direct = _Tally(target, stability_window, generalizer.step)
    ruled_by = None

    stream = zip(range(1, limit + 1), trace)
    for m, entry in stream:
        backlog.append(entry)
        cex = check(p_last.language, target, strategy)
        tally.query(m, entry, p_last.language.descriptor, cex, "conjecture")
        if cex is None:  # Case 1.2
            lce.set(p_last, None)
        elif lce.get(p_last) is _TOP:
            # Case 1.1.2 sweeps for the minimum, a probe per entry (Case 1.1.1 has it cached).
            lang = p_last.language
            mask, bound, ordering = lang.mask, lang.universe_bound, lang.ordering
            label, start, cex = lang.descriptor + "&{", len(records), None
            for k, (m, entry) in zip(order, stream):
                backlog.append(entry)
                descriptor = f"{label}{k}}}"
                probe = _new_tuple(Language, (mask & 1 << k, bound, descriptor, ordering))
                cex = check(probe, target, strategy)
                records.append(_new_tuple(IterationRecord, (m, entry, descriptor, cex, "probe")))
                if cex is not None:  # Case 2.1, else Case 2.2
                    break
            probes = len(records) - start
            tally.queries += probes
            if cex is None:
                if probes == len(order):
                    raise EngineError("probe sweep exhausted the universe without a counterexample")
                mu, k = probes, order[probes]  # the budget cut the sweep short
                probe = _new_tuple(Language, (mask & 1 << k, bound, f"{label}{k}}}", ordering))
                p_sim = Program(("probe", k), probe)
                break
            # Case 2.1: the probe's sole element is the minimal counterexample.
            tally.cex_count += 1
            lce.set(p_last, cex)

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
            prog = direct.iterate(tau_done + consumed, e, prog, value)
            if direct.stopped or tau_done + consumed == direct_budget:
                break
        if not consumed:  # each case above cached p_last's verdict: the cache lost it
            raise EngineError("simulation stopped making progress")
        del backlog[:consumed]
        tau_done += consumed
        changed = prog.language.mask != p_last.language.mask
        tally.settle(m, changed, cex)
        # Logged always after a counterexample, else only on a change.
        if cex is not None or changed:
            record = (m, None, prog.language.descriptor, None, "replay")
            records.append(_new_tuple(IterationRecord, record))
        p_last = p_sim = prog
        if direct.stopped or tau_done == direct_budget:
            # Ended where the direct run stops, it is classified as that run.
            ruled_by = (direct, tau_done)
            break

    sim_state = _new_tuple(SimState, (lce, p_sim, mu, tuple(backlog), tau_done))
    return tally.finish(p_last, sim_state=sim_state, ruled_by=ruled_by)
