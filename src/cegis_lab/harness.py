"""Experiment orchestration: the headline demonstrations, each report the
dict that ``demo-<name>.json`` holds, and the one Markdown rendering of it.

Identification "in the limit" is not decidable from a finite run, so each
run's status, set by the engine, is a finite proxy: stability of the
conjecture under no-counterexample verdicts, with the ground-truth
semantic match reported alongside rather than folded in.  A run that was
never refuted and ended wrong is reported as stalled; that is the
observable signature of non-identifiability in every separation demo here.
"""
from __future__ import annotations

import random
from inspect import signature
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import (
    CANONICAL,
    PADDED_SEEDED,
    Language,
    Trace,
    pair_decode,
    pair_encode,
    semantically_equal,
    trace_generate,
)
from .engines import (
    CEGIS,
    CONVERGED,
    HCEGIS,
    MINCEGIS,
    POSITIVE_ONLY,
    STALLED,
    EngineRun,
    Generalizer,
    chain_generalizer,
    default_budget,  # noqa: F401  (harness.default_budget stays importable)
    default_stability_window,
    diag_generalizer,
    gold_generalizer,
    rectangle_generalizer,
    run_engine,
    simulate_min_via_arbitrary,
)
from .families import ChainFamily, DiagonalFamily, GoldFamily, RectangleFamily
from .logio import run_jsonl
from .verifiers import CONSISTENT_AVOIDING, CexStrategy, StrategyInfeasibleError


class HarnessVerdict(NamedTuple):
    status: str
    converged_at: Optional[int]
    semantic_match: bool


def convergence_verdict(run: EngineRun, target: Language) -> HarnessVerdict:
    """The engine's own status and convergence point, and whether the final
    conjecture equals ``target``."""
    return HarnessVerdict(
        run.status, run.converged_at, semantically_equal(run.final.language, target)
    )


def _cell(value) -> str:
    """``str(value)`` on one line, with ``|`` written ``\\|`` and each line break
    (what ``str.splitlines`` splits at) ``<br>``; the ``x`` keeps a trailing one."""
    return "<br>".join((str(value).replace("|", r"\|") + "x").splitlines())[:-1]


def markdown_table(header: Sequence[str], rows: Iterable[Sequence]) -> list[str]:
    """A Markdown table's lines: ``header``, its rule, and one line per row,
    each cell written by ``_cell``."""
    def line(cells) -> str:
        return "| " + " | ".join(map(_cell, cells)) + " |"
    return [line(header), "|" + "---|" * len(header)] + [line(row) for row in rows]


def report_markdown(report: dict) -> str:
    """A demo report (its ``title``, ``rows``, ``conclusion`` and ``passed``) as
    Markdown.  Every key is read with ``get``, so that a report written
    elsewhere renders too, a missing value blank; the title, conclusion and
    passed are written as a table's cells are, so each stays on its line."""
    keys = "family target variant seed status semantic_match queries counterexamples".split()
    header = "family target variant seed status match queries cexs".split()
    lines = [f"# {_cell(report.get('title', ''))}", ""]
    lines += markdown_table(header, ([row.get(k, "") for k in keys]
                                     for row in report.get("rows", [])))
    lines += ["", f"**Conclusion**: {_cell(report.get('conclusion', ''))}",
              f"**Passed**: {_cell(report.get('passed', ''))}", ""]
    return "\n".join(lines)


def _row(family: str, target: Language, variant: str, run: EngineRun, **extra) -> dict:
    return {"family": family, "target": target.descriptor, "variant": variant, "seed": None,
            "status": run.status, "semantic_match": run.semantic_match, "queries": run.queries,
            "counterexamples": run.cex_count, **extra}


# ---------------------------------------------------------------------------
# theorem1 demo: direct MinCEGIS vs its simulation by the arbitrary verifier


def _random_rectangles(rng: random.Random, count: int):
    rects = []
    for _ in range(count):
        ax = rng.randint(-8, 8)
        bx = rng.randint(ax, 8)
        ay = rng.randint(-8, 8)
        by = rng.randint(ay, 8)
        rects.append((ax, bx, ay, by))
    return rects


def theorem1_pair(
    target: Language,
    generalizer: Generalizer,
    trace: Trace,
    direct_budget: int,
    sim_budget: int,
) -> tuple[EngineRun, EngineRun, bool]:
    """Direct MinCEGIS and its simulation by the arbitrary oracle on one
    trace, and whether they end on the same language with the same status.

    The pair iterates ``trace`` once: the simulation runs on it, and the
    direct run reads the entries the simulation's conjecture and probe
    records hold, in order.  Those are every entry the direct run reads
    unless ``sim_budget`` stopped the simulation first; only then does the
    direct run go on from a fresh iteration of ``trace``, started when it
    reads past them.
    """
    stability_window = default_stability_window(target)
    sim = simulate_min_via_arbitrary(
        target, trace, generalizer,
        budget=sim_budget, stability_window=stability_window, direct_budget=direct_budget,
    )
    # The simulation's own tally logs no freeze (its direct tally does), so
    # every record but a replay is a conjecture or a probe.
    head = [r.entry for r in sim.iterations if r.event != "replay"]
    direct = run_engine(
        MINCEGIS, target, trace.with_head(head), generalizer,
        budget=direct_budget, stability_window=stability_window,
    )
    equal = semantically_equal(direct.final.language, sim.final.language)
    return direct, sim, equal and direct.status == sim.status


def demo_theorem1() -> dict:
    chain, rect = ChainFamily(), RectangleFamily()
    rects = [(-1, 1, -1, 1)] + _random_rectangles(random.Random(7), 10)
    cases = (  # family, learner, targets, direct budget, trace length = simulation budget
        ("chain", chain_generalizer(chain), [chain.language(i) for i in range(21)], 300, 600),
        ("rectangle", rectangle_generalizer(rect), [rect.language(*b) for b in rects],
         2000, 60_000),
    )
    rows: list[dict] = []
    for name, gen, targets, direct_budget, length in cases:
        for target in targets:
            for seed in (11, 23, 37):
                trace = trace_generate(target, PADDED_SEEDED, seed=seed, length=length)
                direct, sim, equal = theorem1_pair(target, gen, trace, direct_budget, length)
                rows.append({
                    "family": name, "target": target.descriptor, "variant": "mincegis-vs-sim",
                    "seed": seed, "status": f"{direct.status}/{sim.status}",
                    "semantic_match": equal, "queries": direct.queries + sim.queries,
                    "counterexamples": direct.cex_count + sim.cex_count, "equal_finals": equal,
                })

    n = len(rows)
    agree = sum(1 for r in rows if r["equal_finals"])
    conclusion = (
        f"direct minimal-counterexample runs and their arbitrary-counterexample "
        f"simulations agree on {agree}/{n} (family, target, seed) cases"
    )
    return dict(title="theorem1-equivalence", rows=rows, conclusion=conclusion, passed=agree == n)


# ---------------------------------------------------------------------------
# lemma1 demo: the chain family separates arbitrary from history-bounded


def demo_lemma1(i_max: int = 20, budget: int = 100) -> dict:
    demo_kwargs("lemma1", i_max, budget)
    chain = ChainFamily()
    gen = chain_generalizer(chain)
    rows: list[dict] = []
    ok = True
    for i in range(i_max + 1):
        target = chain.language(i)
        trace = trace_generate(target, CANONICAL, length=budget)

        c_run = run_engine(CEGIS, target, trace, gen, budget=budget)
        rows.append(_row("chain", target, CEGIS, c_run))
        ok = ok and c_run.status == CONVERGED and c_run.semantic_match
        ok = ok and c_run.queries == i + 2

        h_run = run_engine(HCEGIS, target, trace, gen, budget=budget)
        rows.append(_row("chain", target, HCEGIS, h_run))
        ok = ok and h_run.status == STALLED and h_run.cex_count == 0

    conclusion = (
        "arbitrary counterexamples identify every chain target with i+2 subset "
        "queries; history-bounded verification never yields a counterexample and stalls"
    )
    return dict(title="lemma1-separation", rows=rows, conclusion=conclusion, passed=ok)


# ---------------------------------------------------------------------------
# lemma2 demo: the diagonal family separates history-bounded from arbitrary


def _crafted_fin_instances(rng: random.Random, count: int, family: DiagonalFamily):
    instances = []
    for _ in range(count):
        size = rng.randint(2, 8)
        pairs = {(1, rng.randint(0, 25))}
        while len(pairs) < size:
            pairs.add((rng.randint(0, 1), rng.randint(0, 25)))
        instances.append(family.fin_language(pairs))
    return instances


def demo_lemma2(budget: int = 120) -> dict:
    family = DiagonalFamily()
    gen = diag_generalizer(family)
    rows: list[dict] = []
    ok = True

    targets = _crafted_fin_instances(random.Random(5), 10, family)
    targets += [family.diag_language(i) for i in range(1, 11)]
    for target in targets:
        run = run_engine(HCEGIS, target, trace_generate(target, CANONICAL, length=budget),
                         gen, budget=budget)
        rows.append(_row("diagonal", target, HCEGIS, run, probes=run.probes))
        ok = ok and run.status == CONVERGED and run.semantic_match

    # Negative direction: crafted indistinguishable pairs for the
    # arbitrary-counterexample engine.
    pair_specs = [
        ((pair_encode(0, 2),), 7, 9),
        ((pair_encode(0, 1), pair_encode(0, 4)), 3, 11),
        ((pair_encode(0, 6),), 2, 13),
        ((pair_encode(0, 3), pair_encode(0, 8)), 5, 15),
        ((pair_encode(0, 10),), 12, 17),
    ]
    for base, z1, z2 in pair_specs:
        report = indistinguishability_demo(base, z1, z2, budget=40)
        rows.append({
            "family": "diagonal", "target": report["pair"], "variant": CEGIS, "seed": None,
            "status": "indistinguishable" if report["logs_identical"] else "distinguished",
            "semantic_match": False, "queries": 0, "counterexamples": 0, **report,
        })
        ok = ok and report["logs_identical"] and report["mismatched"] >= 1

    conclusion = (
        "the history-bounded engine identifies every diagonal-family instance; "
        "the arbitrary-counterexample engine produces identical runs for crafted "
        "target pairs that provably differ, so it misidentifies at least one of each"
    )
    return dict(title="lemma2-separation", rows=rows, conclusion=conclusion, passed=ok)


def indistinguishability_demo(
    base_prefix: Sequence[int],
    z1: int,
    z2: int,
    budget: int = 40,
) -> dict:
    """Run the same arbitrary-counterexample engine against two targets
    differing only at <0, z2>, with a verifier that answers consistently
    for both; identical logs force at least one wrong final conjecture."""
    family = DiagonalFamily()
    probe_code = pair_encode(0, z2)
    if probe_code in base_prefix:
        raise ValueError("z2 must not occur in the base prefix")

    base_pairs = {pair_decode(c) for c in base_prefix}
    l_d = family.fin_language(base_pairs | {(1, z1)})
    l_dp = family.fin_language(base_pairs | {(0, z2), (1, z1)})
    assert l_dp.contains(probe_code) and not l_d.contains(probe_code)

    entries = tuple(base_prefix) + (pair_encode(1, z1),) * max(0, budget - len(base_prefix))
    trace = Trace(entries)
    gen = diag_generalizer(family)
    strategy = CexStrategy(CONSISTENT_AVOIDING, avoid=frozenset({probe_code}))

    try:
        run_d = run_engine(CEGIS, l_d, trace, gen, strategy, budget=budget)
        run_dp = run_engine(CEGIS, l_dp, trace, gen, strategy, budget=budget)
    except StrategyInfeasibleError as exc:
        return {
            "pair": f"{l_d.descriptor} / {l_dp.descriptor}",
            "logs_identical": False,
            "mismatched": 0,
            "skipped": str(exc),
        }

    log_d = run_jsonl(run_d)
    log_dp = run_jsonl(run_dp)
    mismatched = int(not run_d.semantic_match) + int(not run_dp.semantic_match)
    return {
        "pair": f"{l_d.descriptor} / {l_dp.descriptor}",
        "logs_identical": log_d == log_dp,
        "targets_differ_at": probe_code,
        "mismatched": mismatched,
        "log_bytes": len(log_d),
    }


# ---------------------------------------------------------------------------
# Gold family: one counterexample suffices; none can never distinguish


def demo_gold(budget: int = 60) -> dict:
    family = GoldFamily()
    gen = gold_generalizer(family)
    rows: list[dict] = []
    ok = True

    targets = [family.full_language()] + [family.minus_language(i) for i in (0, 5, 17, 33, 50)]
    for target in targets:
        trace = trace_generate(target, CANONICAL, length=budget)
        run = run_engine(CEGIS, target, trace, gen, budget=budget)
        conjectures = len({r.candidate for r in run.iterations})
        rows.append(_row("gold", target, CEGIS, run, conjectures=conjectures))
        ok = ok and run.status == CONVERGED and run.semantic_match
        ok = ok and conjectures <= 2

        # Positive-only ablation: cutting the counterexample channel makes
        # the one-point deletions indistinguishable from the full set.
        ab = run_engine(POSITIVE_ONLY, target, trace, gen, budget=budget)
        rows.append(_row("gold", target, POSITIVE_ONLY, ab, final=ab.final.descriptor()))
        expected = CONVERGED if target.descriptor == "gold[full]" else STALLED
        ok = ok and ab.status == expected
        ok = ok and ab.final.descriptor() == "gold[full]"

    conclusion = (
        "with counterexamples, one refutation pins the deleted point in at most "
        "two conjectures; positive data alone never leaves the universal guess"
    )
    return dict(title="gold-demo", rows=rows, conclusion=conclusion, passed=ok)


# ---------------------------------------------------------------------------
# Rectangle demo: the motivating minimal-counterexample run


def demo_rectangle(budget: int = 600) -> dict:
    family = RectangleFamily()
    gen = rectangle_generalizer(family)
    target = family.language(-1, 1, -1, 1)
    trace = trace_generate(target, CANONICAL, length=budget)
    run = run_engine(MINCEGIS, target, trace, gen, budget=budget)

    cexs = [r.cex for r in run.iterations if r.cex is not None]
    first = family.decode(cexs[0]) if cexs else None
    first_key = None if first is None else first[0] ** 2 + first[1] ** 2
    ok = (
        run.status == CONVERGED
        and run.semantic_match
        and first == (-2, 0)
        and first_key == 4
    )
    rows = [_row(
        "rectangle", target, MINCEGIS, run,
        first_cex=list(first) if first else None,
        first_cex_radial_key=first_key,
        cex_points=[list(family.decode(c)) for c in cexs],
    )]
    conclusion = (
        f"first minimal counterexample {first} has radial key {first_key}; "
        f"final conjecture {run.final.descriptor()}"
    )
    return dict(title="rectangle-demo", rows=rows, conclusion=conclusion, passed=ok)


def demo_kwargs(name: str, i_max: Optional[int] = None, budget: Optional[int] = None) -> dict:
    """The keyword arguments that run demo ``name`` with the ``--imax`` and
    ``--budget`` given (None: not given), or a ValueError, before any run: a
    demo takes the flags that name its parameters, and lemma1's ``i_max``,
    given or its default, indexes the chain and is at most its budget - 2."""
    if name not in DEMOS:
        raise ValueError(f"unknown demo: {name}")
    kwargs = {}
    for key, flag, value in (("i_max", "--imax", i_max), ("budget", "--budget", budget)):
        if value is not None:
            if key not in signature(DEMOS[name]).parameters:
                raise ValueError(f"demo {name} takes no {flag}")
            kwargs[key] = value
    if name == "lemma1":
        call = signature(demo_lemma1).bind(**kwargs)
        call.apply_defaults()
        i_max, budget = call.args
        top = ChainFamily().max_index
        if not 0 <= i_max <= top:
            raise ValueError(f"demo lemma1 needs i_max in [0, {top}], got {i_max}")
        if budget < i_max + 2:
            raise ValueError(f"demo lemma1 needs a budget of at least i_max + 2 = {i_max + 2} "
                             f"(Lemma 1's query count for chain[{i_max}]), got {budget}")
    return kwargs


DEMOS = {
    "theorem1": demo_theorem1,
    "lemma1": demo_lemma1,
    "lemma2": demo_lemma2,
    "rectangle": demo_rectangle,
    "gold": demo_gold,
}
