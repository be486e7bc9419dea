"""Harness verdicts, demos, and reports."""

import re

import pytest
from hypothesis import given, strategies as st

from cegis_lab import core, harness
from cegis_lab.core import pair_encode, trace_generate
from cegis_lab.engines import (
    BUDGET_EXHAUSTED,
    CEGIS,
    CONVERGED,
    HCEGIS,
    MINCEGIS,
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


def test_the_simulation_logs_no_freeze():
    # theorem1_pair hands the direct run the entries of every simulation
    # record but the replays.  That is the conjecture and probe entries only
    # because the simulation's own tally logs no freeze: the freezes of the
    # run it replays go to its direct tally.
    chain, gold = ChainFamily(), GoldFamily(universe_bound=12)
    cases = [(chain_generalizer(chain), chain.language(i)) for i in range(8)]
    cases += [(gold_generalizer(gold), gold.minus_language(i)) for i in range(0, 13, 3)]
    for gen, target in cases:
        trace = trace_generate(target, "padded-seeded", seed=11, length=600)
        direct, sim, equal = theorem1_pair(target, gen, trace, 300, 600)
        assert equal and direct.status == sim.status == CONVERGED
        assert direct.iterations[-1].event == "freeze"
        assert {r.event for r in sim.iterations} == {"conjecture", "probe", "replay"}


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


def entries_made(monkeypatch) -> list[int]:
    """From now on, the entries each iteration of a generated trace makes,
    one count per iteration started (and RNG seeded), read or not."""
    made: list[int] = []
    blocks = core._blocks

    def counted(*args):
        made.append(0)
        return counting(len(made) - 1, blocks(*args))

    def counting(k, blocks):
        for block in blocks:
            made[k] += len(block)
            yield block

    monkeypatch.setattr(core, "_blocks", counted)
    return made


THEOREM1_PAIR_CHAIN = ChainFamily()
THEOREM1_PAIR_RECT = RectangleFamily(grid_bound=6)


@pytest.mark.parametrize("family,target,direct_budget,sim_budget,iterations", [
    ("chain", 20, 300, 600, 1),
    ("chain", 20, 10, 600, 1),  # the direct budget stops both runs
    ("chain", 20, 300, 15, 2),  # the simulation stops after 15 entries, the direct run after 22
    ("rectangle", (-2, 1, -1, 3), 400, 5000, 1),
    ("rectangle", (-2, 1, -1, 3), 400, 40, 2),  # 40 entries against the direct run's 44
])
def test_theorem1_pair_runs_equal_the_runs_on_fresh_traces(
        monkeypatch, family, target, direct_budget, sim_budget, iterations):
    """Each run of the pair equals its engine's run on a fresh trace, record
    for record, while the pair iterates its trace once; a second iteration
    starts only where the direct run reads past the simulation."""
    if family == "chain":
        target, gen = THEOREM1_PAIR_CHAIN.language(target), chain_generalizer(THEOREM1_PAIR_CHAIN)
    else:
        target = THEOREM1_PAIR_RECT.language(*target)
        gen = rectangle_generalizer(THEOREM1_PAIR_RECT)

    def fresh():
        return trace_generate(target, "padded-seeded", seed=5, length=5000)

    made = entries_made(monkeypatch)
    direct, sim, _ = theorem1_pair(target, gen, fresh(), direct_budget, sim_budget)
    assert len(made) == iterations
    window = default_stability_window(target)
    assert direct == run_engine(MINCEGIS, target, fresh(), gen, budget=direct_budget,
                                stability_window=window)
    expected = simulate_min_via_arbitrary(target, fresh(), gen, budget=sim_budget,
                                          stability_window=window, direct_budget=direct_budget)
    assert sim[:-1] == expected[:-1]  # all but sim_state, whose cache has no ==
    assert sim.sim_state[1:] == expected.sim_state[1:]


# ---------------------------------------------------------------------------
# Demos


def test_demo_theorem1_makes_each_trace_entry_once(monkeypatch):
    # One iteration per case: a second one, for the direct run, made 20,077.
    made = entries_made(monkeypatch)
    assert demo_theorem1()["passed"]
    assert (len(made), sum(made)) == (96, 16_378)


def test_demo_theorem1_all_pairs_equal():
    report = demo_theorem1()
    assert report["passed"]
    assert all(row["equal_finals"] for row in report["rows"])
    chain_rows = [r for r in report["rows"] if r["family"] == "chain"]
    rect_rows = [r for r in report["rows"] if r["family"] == "rectangle"]
    assert len(chain_rows) == 21 * 3
    assert len(rect_rows) == 11 * 3


def test_demo_lemma1_exact_counts():
    report = demo_lemma1()
    assert report["passed"]
    cegis_rows = [r for r in report["rows"] if r["variant"] == CEGIS]
    hcegis_rows = [r for r in report["rows"] if r["variant"] == HCEGIS]
    assert len(cegis_rows) == len(hcegis_rows) == 21
    for i, row in enumerate(cegis_rows):
        assert row["status"] == CONVERGED and row["semantic_match"]
        assert row["queries"] == i + 2
    for row in hcegis_rows:
        assert row["status"] == STALLED and row["counterexamples"] == 0


def test_demo_lemma1_refuses_a_budget_below_the_query_count(monkeypatch):
    """Checked before any run: Lemma 1 needs i_max + 2 queries for chain[i_max]."""
    monkeypatch.setattr(harness, "run_engine", None)
    with pytest.raises(ValueError, match=r"^demo lemma1 needs a budget of at least "
                       r"i_max \+ 2 = 22 \(Lemma 1's query count for chain\[20\]\), got 21$"):
        demo_lemma1(budget=21)
    with pytest.raises(ValueError, match=r"= 101 .* got 100$"):
        demo_lemma1(i_max=99)
    monkeypatch.undo()
    assert demo_lemma1(i_max=3, budget=5)["passed"]


@pytest.mark.parametrize("i_max", [-1, 121])
def test_demo_lemma1_refuses_an_i_max_outside_the_chain(monkeypatch, i_max):
    """Checked before the budget and before any run."""
    monkeypatch.setattr(harness, "run_engine", None)
    with pytest.raises(ValueError, match=rf"^demo lemma1 needs i_max in \[0, 120\], got {i_max}$"):
        demo_lemma1(i_max=i_max, budget=1000)


def test_demo_lemma2_both_directions():
    report = demo_lemma2()
    assert report["passed"]
    hcegis_rows = [r for r in report["rows"] if r["variant"] == HCEGIS]
    pair_rows = [r for r in report["rows"] if r["variant"] == CEGIS]
    assert len(hcegis_rows) == 20  # 10 fin instances + diag 1..10
    assert all(r["status"] == CONVERGED and r["semantic_match"] for r in hcegis_rows)
    assert len(pair_rows) == 5
    for row in pair_rows:
        assert row["status"] == "indistinguishable"
        assert row["mismatched"] >= 1


def test_indistinguishability_known_pair():
    report = indistinguishability_demo((pair_encode(0, 2),), 7, 9)
    assert report["logs_identical"]
    assert report["mismatched"] >= 1
    assert report["targets_differ_at"] == pair_encode(0, 9)


def test_indistinguishability_budget_zero():
    report = indistinguishability_demo((), 7, 9, budget=0)
    assert report["logs_identical"]


def test_indistinguishability_rejects_z2_in_the_base_prefix():
    with pytest.raises(ValueError, match="z2 must not occur in the base prefix"):
        indistinguishability_demo((pair_encode(0, 4), pair_encode(0, 9)), 7, 9)


def test_indistinguishability_skips_a_pair_the_verifier_cannot_refute():
    # Every <0, n> up to base_max but z2: diag[0] differs from the first
    # target at <0, 9> alone, the one code the verifier may not name.
    fam = DiagonalFamily()
    base = [n for n in range(fam.base_max + 1) if n != 9]
    report = indistinguishability_demo([pair_encode(0, n) for n in base], 7, 9)
    pairs = {(0, n) for n in base} | {(1, 7)}
    assert report == {
        "pair": f"{fam.fin_language(pairs).descriptor} / "
                f"{fam.fin_language(pairs | {(0, 9)}).descriptor}",
        "logs_identical": False, "mismatched": 0,
        "skipped": "every counterexample is in the avoid set",
    }


def test_demo_gold():
    report = demo_gold()
    assert report["passed"]
    ablations = [r for r in report["rows"]
                 if r["variant"] == "positive-only" and r["target"] != "gold[full]"]
    assert ablations and all(r["status"] == STALLED for r in ablations)


def test_demo_gold_at_a_budget_below_the_window():
    # Each gold[full] run ends at budget 5, before its window of 10: it is
    # correct and unrefuted throughout, so it has converged.
    report = demo_gold(budget=5)
    assert report["passed"]
    full = [r for r in report["rows"] if r["target"] == "gold[full]"]
    assert len(full) == 2 and all(r["status"] == CONVERGED for r in full)


def test_demo_rectangle():
    report = demo_rectangle()
    assert report["passed"]


def test_demo_registry_complete():
    assert set(DEMOS) == {"theorem1", "lemma1", "lemma2", "rectangle", "gold"}


# ---------------------------------------------------------------------------
# The table writer

# What markdown_table wrote a line break as before it used str.splitlines:
# each separator that splitlines splits at, by hand, with \r\n as one.
LINE_BREAK = re.compile(r"\r\n|[\n\v\f\r\x1c-\x1e\x85\u2028\u2029]")
SEPARATORS = "\r\n\v\f\x1c\x1d\x1e\x85\u2028\u2029"
CELL_TEXT = (st.text(alphabet=SEPARATORS + "|\x00ab", max_size=8)
             | st.sampled_from(["a\r\n", "a\x85", "a\u2028", "\r\n", "a\r\n\r\n", "|\r"]))


@given(cells=st.lists(CELL_TEXT | st.integers() | st.none(), min_size=1, max_size=4))
def test_markdown_table_cells_equal_the_regex_rule(cells):
    """Each cell is ``str(value)`` with ``|`` written ``\\|`` and each line break
    ``<br>``, a trailing one included."""
    expected = [LINE_BREAK.sub("<br>", str(c).replace("|", r"\|")) for c in cells]
    header, rule, row = harness.markdown_table(["h"] * len(cells), [cells])
    assert row == "| " + " | ".join(expected) + " |"
    assert "\n" not in row and rule == "|" + "---|" * len(cells)


def test_report_markdown_writes_the_title_conclusion_and_passed_as_cells():
    report = {"title": "a\nb|c", "rows": [], "conclusion": "d\r\n", "passed": "e\x85"}
    lines = harness.report_markdown(report).splitlines()
    assert lines[:2] == ["# a<br>b\\|c", ""]
    assert lines[-2:] == ["**Conclusion**: d<br>", "**Passed**: e<br>"]
