"""Experiment orchestration: the headline demonstrations and report
assembly.

Identification "in the limit" is not decidable from a finite run, so each
run's status, set by the engine, is a finite proxy: stability of the
conjecture under no-counterexample verdicts, with the ground-truth
semantic match reported alongside rather than folded in.  A run that was
never refuted and ended wrong is reported as stalled; that is the
observable signature of non-identifiability in every separation demo here.
"""
from __future__ import annotations

import random
from typing import NamedTuple, Optional, Sequence

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


class ReportRow(NamedTuple):
    family: str
    target: str
    variant: str
    seed: Optional[int]
    status: str
    semantic_match: bool
    queries: int
    counterexamples: int
    extra: dict


class SeparationReport(NamedTuple):
    title: str
    rows: list[ReportRow]
    conclusion: str
    passed: bool

    def to_dict(self) -> dict:
        """The report as JSON-ready data; each row's extra keys sit beside its fields."""
        rows = []
        for row in self.rows:
            doc = row._asdict()
            doc.update(doc.pop("extra"))
            rows.append(doc)
        return {"title": self.title, "rows": rows, "conclusion": self.conclusion,
                "passed": self.passed}

    def to_markdown(self) -> str:
        lines = [f"# {self.title}", ""]
        header = "| family | target | variant | seed | status | match | queries | cexs |"
        lines.append(header)
        lines.append("|---|---|---|---|---|---|---|---|")
        for r in self.rows:
            lines.append(
                f"| {r.family} | {r.target} | {r.variant} | {r.seed} "
                f"| {r.status} | {r.semantic_match} | {r.queries} | {r.counterexamples} |"
            )
        lines += ["", f"**Conclusion**: {self.conclusion}", f"**Passed**: {self.passed}", ""]
        return "\n".join(lines)


def _row(family: str, target: Language, variant: str, run: EngineRun,
         extra: Optional[dict] = None) -> ReportRow:
    return ReportRow(family, target.descriptor, variant, None, run.status,
                     run.semantic_match, run.queries, run.cex_count, extra or {})


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
    stability_window = default_stability_window(target)
    direct = run_engine(
        MINCEGIS, target, trace, generalizer,
        budget=direct_budget, stability_window=stability_window,
    )
    sim = simulate_min_via_arbitrary(
        target, trace, generalizer,
        budget=sim_budget, stability_window=stability_window,
    )
    equal = (
        semantically_equal(direct.final.language, sim.final.language)
        and direct.status == sim.status
    )
    return direct, sim, equal


def demo_theorem1() -> SeparationReport:
    chain, rect = ChainFamily(), RectangleFamily()
    rects = [(-1, 1, -1, 1)] + _random_rectangles(random.Random(7), 10)
    cases = (  # family, learner, targets, direct budget, trace length = simulation budget
        ("chain", chain_generalizer(chain), [chain.language(i) for i in range(21)], 300, 600),
        ("rectangle", rectangle_generalizer(rect), [rect.language(*b) for b in rects],
         2000, 60_000),
    )
    rows: list[ReportRow] = []
    for name, gen, targets, direct_budget, length in cases:
        for target in targets:
            for seed in (11, 23, 37):
                trace = trace_generate(target, PADDED_SEEDED, seed=seed, length=length)
                direct, sim, equal = theorem1_pair(target, gen, trace, direct_budget, length)
                rows.append(ReportRow(
                    name, target.descriptor, "mincegis-vs-sim", seed,
                    f"{direct.status}/{sim.status}", equal,
                    direct.queries + sim.queries, direct.cex_count + sim.cex_count,
                    {"equal_finals": equal},
                ))

    n = len(rows)
    agree = sum(1 for r in rows if r.extra["equal_finals"])
    conclusion = (
        f"direct minimal-counterexample runs and their arbitrary-counterexample "
        f"simulations agree on {agree}/{n} (family, target, seed) cases"
    )
    return SeparationReport("theorem1-equivalence", rows, conclusion, agree == n)


# ---------------------------------------------------------------------------
# lemma1 demo: the chain family separates arbitrary from history-bounded


def demo_lemma1(i_max: int = 20, budget: int = 100) -> SeparationReport:
    chain = ChainFamily()
    gen = chain_generalizer(chain)
    rows: list[ReportRow] = []
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
    return SeparationReport("lemma1-separation", rows, conclusion, ok)


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


def demo_lemma2(budget: int = 120) -> SeparationReport:
    family = DiagonalFamily()
    gen = diag_generalizer(family)
    rows: list[ReportRow] = []
    ok = True

    targets = _crafted_fin_instances(random.Random(5), 10, family)
    targets += [family.diag_language(i) for i in range(1, 11)]
    for target in targets:
        run = run_engine(HCEGIS, target, trace_generate(target, CANONICAL, length=budget),
                         gen, budget=budget)
        rows.append(_row("diagonal", target, HCEGIS, run, {"probes": run.probes}))
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
        rows.append(ReportRow(
            "diagonal", report["pair"], CEGIS, None,
            "indistinguishable" if report["logs_identical"] else "distinguished",
            False, 0, 0, report,
        ))
        ok = ok and report["logs_identical"] and report["mismatched"] >= 1

    conclusion = (
        "the history-bounded engine identifies every diagonal-family instance; "
        "the arbitrary-counterexample engine produces identical runs for crafted "
        "target pairs that provably differ, so it misidentifies at least one of each"
    )
    return SeparationReport("lemma2-separation", rows, conclusion, ok)


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


def demo_gold(budget: int = 60) -> SeparationReport:
    family = GoldFamily()
    gen = gold_generalizer(family)
    rows: list[ReportRow] = []
    ok = True

    targets = [family.full_language()] + [family.minus_language(i) for i in (0, 5, 17, 33, 50)]
    for target in targets:
        trace = trace_generate(target, CANONICAL, length=budget)
        run = run_engine(CEGIS, target, trace, gen, budget=budget)
        conjectures = len({r.candidate for r in run.iterations})
        rows.append(_row("gold", target, CEGIS, run, {"conjectures": conjectures}))
        ok = ok and run.status == CONVERGED and run.semantic_match
        ok = ok and conjectures <= 2

        # Positive-only ablation: cutting the counterexample channel makes
        # the one-point deletions indistinguishable from the full set.
        ab = run_engine(POSITIVE_ONLY, target, trace, gen, budget=budget)
        rows.append(_row("gold", target, POSITIVE_ONLY, ab, {"final": ab.final.descriptor()}))
        expected = CONVERGED if target.descriptor == "gold[full]" else STALLED
        ok = ok and ab.status == expected
        ok = ok and ab.final.descriptor() == "gold[full]"

    conclusion = (
        "with counterexamples, one refutation pins the deleted point in at most "
        "two conjectures; positive data alone never leaves the universal guess"
    )
    return SeparationReport("gold-demo", rows, conclusion, ok)


# ---------------------------------------------------------------------------
# Rectangle demo: the motivating minimal-counterexample run


def demo_rectangle(budget: int = 600) -> SeparationReport:
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
    rows = [_row("rectangle", target, MINCEGIS, run, {
        "first_cex": list(first) if first else None,
        "first_cex_radial_key": first_key,
        "cex_points": [list(family.decode(c)) for c in cexs],
    })]
    conclusion = (
        f"first minimal counterexample {first} has radial key {first_key}; "
        f"final conjecture {run.final.descriptor()}"
    )
    return SeparationReport("rectangle-demo", rows, conclusion, ok)


DEMOS = {
    "theorem1": demo_theorem1,
    "lemma1": demo_lemma1,
    "lemma2": demo_lemma2,
    "rectangle": demo_rectangle,
    "gold": demo_gold,
}
