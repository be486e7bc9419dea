"""Harness verdicts, demos, and reports."""

import pytest

from cegis_lab.core import pair_encode, trace_generate
from cegis_lab.engines import (
    BUDGET_EXHAUSTED,
    CEGIS,
    CONVERGED,
    HCEGIS,
    SIMULATED_MINCEGIS,
    STALLED,
    VARIANTS,
    chain_generalizer,
    diag_generalizer,
    gold_generalizer,
    rectangle_generalizer,
    run_engine,
    simulate_min_via_arbitrary,
)
from cegis_lab.families import ChainFamily, DiagonalFamily, GoldFamily, RectangleFamily
from cegis_lab.harness import (
    convergence_verdict,
    default_budget,
    default_stability_window,
    demo_gold,
    demo_lemma1,
    demo_lemma2,
    demo_rectangle,
    demo_theorem1,
    indistinguishability_demo,
    theorem1_pair,
    DEMOS,
)


# ---------------------------------------------------------------------------
# Verdicts


def test_convergence_verdict_cegis_on_chain():
    fam = ChainFamily()
    target = fam.language(5)
    run = run_engine(CEGIS, target, trace_generate(target, "canonical", length=100),
                     chain_generalizer(fam), budget=100)
    verdict = convergence_verdict(run, target)
    assert verdict.status == CONVERGED and verdict.semantic_match


def test_convergence_verdict_hcegis_on_chain():
    fam = ChainFamily()
    target = fam.language(5)
    run = run_engine(HCEGIS, target, trace_generate(target, "canonical", length=100),
                     chain_generalizer(fam), budget=100)
    verdict = convergence_verdict(run, target)
    assert verdict.status == STALLED and not verdict.semantic_match


def test_convergence_verdict_budget_zero():
    fam = ChainFamily()
    target = fam.language(5)
    run = run_engine(CEGIS, target, trace_generate(target, "canonical", length=10),
                     chain_generalizer(fam), budget=0)
    assert convergence_verdict(run, target).status == BUDGET_EXHAUSTED


# The README's run targets, one per family.
README_RUNS = {
    "chain": (ChainFamily(), chain_generalizer, lambda fam: fam.language(1)),
    "rectangle": (RectangleFamily(), rectangle_generalizer, lambda fam: fam.language(-1, 1, -1, 1)),
    "diagonal": (DiagonalFamily(), diag_generalizer, lambda fam: fam.diag_language(3)),
    "gold": (GoldFamily(), gold_generalizer, lambda fam: fam.minus_language(17)),
}


@pytest.mark.parametrize("budget", [1, 2, 5, None])
@pytest.mark.parametrize("engine", VARIANTS + (SIMULATED_MINCEGIS,))
@pytest.mark.parametrize("family", sorted(README_RUNS))
def test_verdict_is_the_engine_status(family, engine, budget):
    """Runs set up as `cegis-lab run` sets them up: the harness verdict is the
    engine's own, and a run has a convergence point exactly when it converged."""
    fam, make_generalizer, make_target = README_RUNS[family]
    target = make_target(fam)
    budget = budget or default_budget(target)
    window = min(default_stability_window(target), budget)
    trace = trace_generate(target, "canonical", length=budget)
    if engine == SIMULATED_MINCEGIS:
        run = simulate_min_via_arbitrary(
            target, trace, make_generalizer(fam), budget=budget, stability_window=window)
    else:
        run = run_engine(engine, target, trace, make_generalizer(fam),
                         budget=budget, stability_window=window)
    assert (run.status == CONVERGED) == (run.converged_at is not None)
    verdict = convergence_verdict(run, target)
    assert tuple(verdict) == (run.status, run.converged_at, run.semantic_match)


def test_default_knobs_scale_with_target():
    fam = ChainFamily()
    small, large = fam.language(2), fam.language(60)
    assert default_stability_window(small) == 6
    assert default_stability_window(large) == 100
    assert default_budget(small) == 10 * small.universe_bound


# ---------------------------------------------------------------------------
# theorem1 pairing


def test_theorem1_pair_chain():
    fam = ChainFamily()
    target = fam.language(4)
    gen = chain_generalizer(fam)
    trace = trace_generate(target, "padded-seeded", seed=11, length=600)
    direct, sim, equal = theorem1_pair(target, gen, trace, 300, 600)
    assert equal
    assert direct.status == sim.status == CONVERGED


def test_theorem1_pair_degenerate_target():
    fam = RectangleFamily()
    target = fam.universal_language()
    from cegis_lab.engines import rectangle_generalizer
    gen = rectangle_generalizer(fam)
    trace = trace_generate(target, "padded-seeded", seed=11, length=60_000)
    direct, sim, equal = theorem1_pair(target, gen, trace, 2000, 60_000)
    assert equal and direct.status == CONVERGED
    assert direct.cex_count == sim.cex_count == 0


def test_theorem1_pair_reads_a_long_trace_lazily():
    fam = ChainFamily()
    target = fam.language(4)
    gen = chain_generalizer(fam)
    trace = trace_generate(target, "padded-seeded", seed=11, length=10**9)
    direct, sim, equal = theorem1_pair(target, gen, trace, 300, 600)
    assert equal and len(trace) == 10**9
    short = trace_generate(target, "padded-seeded", seed=11, length=600)
    s_direct, s_sim, _ = theorem1_pair(target, gen, short, 300, 600)
    assert direct.iterations == s_direct.iterations
    assert sim.iterations == s_sim.iterations


# ---------------------------------------------------------------------------
# Demos


def test_demo_theorem1_all_pairs_equal():
    report = demo_theorem1()
    assert report.passed
    assert all(row.extra["equal_finals"] for row in report.rows)
    chain_rows = [r for r in report.rows if r.family == "chain"]
    rect_rows = [r for r in report.rows if r.family == "rectangle"]
    assert len(chain_rows) == 21 * 3
    assert len(rect_rows) == 11 * 3


def test_demo_lemma1_exact_counts():
    report = demo_lemma1()
    assert report.passed
    cegis_rows = [r for r in report.rows if r.variant == CEGIS]
    hcegis_rows = [r for r in report.rows if r.variant == HCEGIS]
    assert len(cegis_rows) == len(hcegis_rows) == 21
    for i, row in enumerate(cegis_rows):
        assert row.status == CONVERGED and row.semantic_match
        assert row.queries == i + 2
    for row in hcegis_rows:
        assert row.status == STALLED and row.counterexamples == 0


def test_demo_lemma2_both_directions():
    report = demo_lemma2()
    assert report.passed
    hcegis_rows = [r for r in report.rows if r.variant == HCEGIS]
    pair_rows = [r for r in report.rows if r.variant == CEGIS]
    assert len(hcegis_rows) == 20  # 10 fin instances + diag 1..10
    assert all(r.status == CONVERGED and r.semantic_match for r in hcegis_rows)
    assert len(pair_rows) == 5
    for row in pair_rows:
        assert row.status == "indistinguishable"
        assert row.extra["mismatched"] >= 1


def test_indistinguishability_known_pair():
    report = indistinguishability_demo((pair_encode(0, 2),), 7, 9)
    assert report["logs_identical"]
    assert report["mismatched"] >= 1
    assert report["targets_differ_at"] == pair_encode(0, 9)


def test_indistinguishability_budget_zero():
    report = indistinguishability_demo((), 7, 9, budget=0)
    assert report["logs_identical"]


def test_demo_gold():
    report = demo_gold()
    assert report.passed
    ablations = [r for r in report.rows
                 if r.variant == "positive-only" and r.target != "gold[full]"]
    assert ablations and all(r.status == STALLED for r in ablations)


def test_demo_rectangle():
    report = demo_rectangle()
    assert report.passed


def test_demo_registry_complete():
    assert set(DEMOS) == {"theorem1", "lemma1", "lemma2", "rectangle", "gold"}
