"""Engine variants, generalizers, and the minimal-counterexample simulation."""

import random
import re
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from cegis_lab import engines
from cegis_lab.core import (
    BOT,
    Program,
    pair_encode,
    point_encode,
    semantically_equal,
    trace_generate,
)
from cegis_lab.engines import (
    BUDGET_EXHAUSTED,
    CEGIS,
    CONVERGED,
    HCEGIS,
    EngineError,
    IterationRecord,
    LceMap,
    MINCEGIS,
    POSITIVE_ONLY,
    SIMULATED_MINCEGIS,
    STALLED,
    RectAux,
    _TOP,
    chain_generalizer,
    default_budget,
    default_stability_window,
    diag_generalizer,
    gold_generalizer,
    rectangle_generalizer,
    run_engine,
    simulate_min_via_arbitrary,
)
from cegis_lab.families import ChainFamily, DiagonalFamily, GoldFamily, RectangleFamily
from cegis_lab.harness import (
    ReportRow, SeparationReport, convergence_verdict, indistinguishability_demo, theorem1_pair,
)
from cegis_lab.logio import run_jsonl
from cegis_lab.verifiers import (
    ADVERSARIAL_MAX,
    FIRST_FOUND,
    SEEDED_RANDOM,
    CexStrategy,
    hcheck,
    mincheck,
)
from reference import (
    explicit_language, lce_items, ordering_key, rectangle_shrink, simulate_by_index,
)


# ---------------------------------------------------------------------------
# Chain generalizer


def test_chain_step_examples():
    fam = ChainFamily()
    gen = chain_generalizer(fam)
    l3 = gen.step(gen.step(gen.step(gen.initial, 0, None), 1, None), 2, None)
    assert l3.index == 3
    assert gen.step(l3, 2, None).index == 4
    frozen = Program("chain", 6, fam.language(6), type(gen.initial.aux)(False))
    after = gen.step(frozen, 4, 6)
    assert after.index == 5 and after.aux.frozen
    assert gen.step(after, 9, None) is after


def test_chain_cex_against_bottom_is_inconsistent():
    gen = chain_generalizer(ChainFamily())
    with pytest.raises(EngineError, match=re.escape("counterexample against chain[0]")):
        gen.step(gen.initial, 0, 0)


# ---------------------------------------------------------------------------
# Rectangle generalizer


def test_rectangle_step_examples():
    fam = RectangleFamily()
    gen = rectangle_generalizer(fam)
    g = fam.grid_bound

    grown = gen.step(gen.initial, point_encode(0, 0), None)
    assert grown.aux.hull == (0, 0, 0, 0)
    assert grown.index == (-g, g, -g, g)

    shrunk_y = gen.step(gen.initial, BOT, point_encode(0, 2))
    assert shrunk_y.index == (-g, g, -g, 1)

    shrunk_x = gen.step(shrunk_y, BOT, point_encode(2, 0))
    assert shrunk_x.index == (-g, 1, -g, 1)


def test_rectangle_entry_inside_the_hull_returns_prev():
    fam = RectangleFamily()
    gen = rectangle_generalizer(fam)
    prog = gen.step(gen.initial, point_encode(-1, -1), None)
    prog = gen.step(prog, point_encode(2, 1), None)
    assert prog.aux.hull == (-1, 2, -1, 1)
    for x, y in ((0, 0), (-1, 1), (2, -1)):
        assert gen.step(prog, point_encode(x, y), None) is prog


def test_rectangle_cex_inside_hull_is_inconsistent():
    fam = RectangleFamily()
    gen = rectangle_generalizer(fam)
    prog = gen.step(gen.initial, point_encode(0, 0), None)
    with pytest.raises(EngineError, match=re.escape(
            "counterexample (0,0) inside the positive hull (0, 0, 0, 0)")):
        gen.step(prog, BOT, point_encode(0, 0))


_GRID4 = RectangleFamily(grid_bound=4)
_COORD = st.integers(-4, 4)
_SPAN = st.tuples(_COORD, _COORD).map(sorted)  # one wide when both ends meet


@settings(max_examples=150, deadline=None)
@given(data=st.data(), xs=_SPAN, ys=_SPAN, hull=st.none() | st.tuples(_SPAN, _SPAN))
def test_rectangle_shrink_equals_the_axis_name_reference(data, xs, ys, hull):
    """A counterexample moves the bounds as the reference shrink does, or
    neither finds a bound to move: also with no hull, on one-wide strips,
    and with a hull the bounds do not contain."""
    bounds = (*xs, *ys)
    hull = None if hull is None else (*hull[0], *hull[1])
    # A counterexample is a member of the conjecture: a point in the bounds.
    point = data.draw(st.tuples(st.integers(*xs), st.integers(*ys)))
    prev = Program("rectangle", bounds, _GRID4.language(*bounds), RectAux(hull))
    step = rectangle_generalizer(_GRID4).step
    try:
        expected = rectangle_shrink(bounds, hull, *point)
    except EngineError as exc:
        with pytest.raises(EngineError, match=re.escape(str(exc))):
            step(prev, BOT, point_encode(*point))
    else:
        after = step(prev, BOT, point_encode(*point))
        assert after.index == expected and after.aux.hull == hull
        assert after.language == _GRID4.language(*expected)


# ---------------------------------------------------------------------------
# Gold generalizer


def test_gold_step_examples():
    fam = GoldFamily()
    gen = gold_generalizer(fam)
    assert gen.step(gen.initial, 0, None) is gen.initial
    pinned = gen.step(gen.initial, 0, 17)
    assert pinned.index == ("minus", 17)
    assert not pinned.language.contains(17)
    assert gen.step(pinned, 3, None) is pinned
    with pytest.raises(EngineError, match="counterexample 5 after the conjecture was pinned"):
        gen.step(pinned, 3, 5)


# ---------------------------------------------------------------------------
# Generalizer purity (finite-memory contract)


@pytest.mark.parametrize("maker,family", [
    (chain_generalizer, ChainFamily()),
    (rectangle_generalizer, RectangleFamily(grid_bound=6)),
    (gold_generalizer, GoldFamily()),
])
def test_generalizer_purity(maker, family):
    gen = maker(family)
    rng = random.Random(4)
    prog = gen.initial
    members = sorted(prog.language.members())
    for _ in range(30):
        entry = rng.choice(members) if members and rng.random() < 0.8 else BOT
        first = gen.step(prog, entry, None)
        second = gen.step(prog, entry, None)
        assert first.language.mask == second.language.mask
        assert first.aux == second.aux
        prog = first
        members = sorted(prog.language.members())


# ---------------------------------------------------------------------------
# run_engine


def test_cegis_chain_lemma1_trace():
    fam = ChainFamily()
    target = fam.language(5)
    run = run_engine(CEGIS, target, trace_generate(target, "canonical", length=100),
                     chain_generalizer(fam), budget=100)
    assert run.status == CONVERGED
    assert run.final.index == 5
    assert run.semantic_match
    assert run.queries == 7  # conjectures chain[0] .. chain[6]
    proposed = [r.candidate for r in run.iterations if r.event == "conjecture"]
    assert proposed == [f"chain[{i}]" for i in range(7)]
    refuted = [r for r in run.iterations if r.cex is not None]
    assert len(refuted) == 1 and refuted[0].cex == 6 and refuted[0].candidate == "chain[6]"


def test_hcegis_chain_stalls_with_all_bot():
    fam = ChainFamily()
    target = fam.language(5)
    run = run_engine(HCEGIS, target, trace_generate(target, "canonical", length=100),
                     chain_generalizer(fam), budget=100)
    assert run.status == STALLED
    assert run.cex_count == 0
    assert not run.semantic_match
    assert all(r.cex is None for r in run.iterations)


def test_mincegis_rectangle_counterexamples_on_boundary():
    fam = RectangleFamily()
    target = fam.language(-1, 1, -1, 1)
    trace = trace_generate(target, "canonical", length=500)
    run = run_engine(MINCEGIS, target, trace, rectangle_generalizer(fam), budget=500)
    assert run.status == CONVERGED and run.semantic_match
    assert run.final.index == (-1, 1, -1, 1)
    first_ring = {point_encode(p, q) for p, q in ((0, 2), (0, -2), (2, 0), (-2, 0))}
    cexs = [r.cex for r in run.iterations if r.cex is not None]
    assert cexs and cexs[0] in first_ring
    assert cexs[0] == point_encode(-2, 0)


def test_run_engine_rejects_an_unknown_variant():
    fam = ChainFamily()
    target = fam.language(2)
    trace = trace_generate(target, "canonical", length=5)
    with pytest.raises(ValueError, match="unknown engine variant: nosuch"):
        run_engine("nosuch", target, trace, chain_generalizer(fam))


def test_budget_zero_is_exhausted():
    fam = ChainFamily()
    target = fam.language(5)
    run = run_engine(CEGIS, target, trace_generate(target, "canonical", length=10),
                     chain_generalizer(fam), budget=0)
    assert run.status == BUDGET_EXHAUSTED
    assert run.iterations == []


def test_positive_only_gold_stalls():
    fam = GoldFamily()
    target = fam.minus_language(17)
    run = run_engine(POSITIVE_ONLY, target, trace_generate(target, "canonical", length=60),
                     gold_generalizer(fam), budget=60)
    assert run.status == STALLED
    assert run.final.index == ("full",)
    assert not run.semantic_match


def test_gold_two_step_convergence():
    fam = GoldFamily()
    target = fam.minus_language(17)
    run = run_engine(CEGIS, target, trace_generate(target, "canonical", length=60),
                     gold_generalizer(fam), budget=60)
    assert run.status == CONVERGED and run.semantic_match
    assert run.final.index == ("minus", 17)
    assert run.cex_count == 1


def test_hcegis_diag_convergence():
    fam = DiagonalFamily()
    target = fam.diag_language(3)
    run = run_engine(HCEGIS, target, trace_generate(target, "canonical", length=120),
                     diag_generalizer(fam), budget=120)
    assert run.status == CONVERGED and run.semantic_match
    assert run.final.index == ("diag", 3)


def test_hcegis_fin_reconstruction():
    fam = DiagonalFamily()
    target = fam.fin_language({(0, 2), (1, 7)})
    run = run_engine(HCEGIS, target, trace_generate(target, "canonical", length=80),
                     diag_generalizer(fam), budget=80)
    assert run.status == CONVERGED and run.semantic_match
    assert run.final.language.members() == {pair_encode(0, 2), pair_encode(1, 7)}
    assert run.probes > 0


def test_cegis_fin_forgets_small_members():
    # Without the probe channel the learner keeps only the largest code.
    fam = DiagonalFamily()
    target = fam.fin_language({(0, 2), (1, 7)})
    run = run_engine(CEGIS, target, trace_generate(target, "canonical", length=80),
                     diag_generalizer(fam), budget=80)
    assert not run.semantic_match
    assert run.final.language.members() == {pair_encode(1, 7)}


# ---------------------------------------------------------------------------
# Simulation of MinCEGIS by the arbitrary verifier


def test_simulation_chain_matches_direct_and_lce_is_sound():
    fam = ChainFamily()
    target = fam.language(5)
    gen = chain_generalizer(fam)
    trace = trace_generate(target, "canonical", length=200)
    sim = simulate_min_via_arbitrary(target, trace, gen, budget=200)
    assert sim.status == CONVERGED and sim.semantic_match
    assert sim.final.index == 5

    bound = target.universe_bound
    for member_set, value in lce_items(sim.sim_state.lce):
        lang = explicit_language(member_set, bound)
        assert mincheck(lang, target) == value


def test_simulation_rectangle_equals_direct_run():
    fam = RectangleFamily()
    target = fam.language(-1, 1, -1, 1)
    gen = rectangle_generalizer(fam)
    trace = trace_generate(target, "padded-seeded", seed=11, length=20_000)
    direct = run_engine(MINCEGIS, target, trace, gen, budget=500, stability_window=18)
    sim = simulate_min_via_arbitrary(target, trace, gen, budget=20_000, stability_window=18)
    assert direct.status == sim.status == CONVERGED
    assert semantically_equal(direct.final.language, sim.final.language)


def test_simulation_correct_initial_guess_converges_immediately():
    fam = GoldFamily()
    target = fam.full_language()
    gen = gold_generalizer(fam)
    trace = trace_generate(target, "canonical", length=40)
    sim = simulate_min_via_arbitrary(target, trace, gen, budget=40, stability_window=5)
    assert sim.status == CONVERGED and sim.semantic_match
    assert sim.cex_count == 0
    assert sim.sim_state.lce.get(gen.initial) is None  # cached: no counterexample


def test_simulation_consumes_trace_monotonically():
    fam = ChainFamily()
    target = fam.language(7)
    gen = chain_generalizer(fam)
    trace = trace_generate(target, "seeded-random", seed=3, length=300)
    sim = simulate_min_via_arbitrary(target, trace, gen, budget=300)
    direct = run_engine(MINCEGIS, target, trace, gen, budget=300)
    assert sim.status == direct.status == CONVERGED
    # The replay reads exactly the entries the direct run reads, up to the
    # frozen conjecture where it stops.
    conjectures = sum(r.event == "conjecture" for r in direct.iterations)
    assert sim.sim_state.tau_done_len == conjectures
    assert direct.iterations[-1].event == "freeze"


def test_simulation_cut_mid_sweep_reports_the_pending_probe():
    fam = RectangleFamily(grid_bound=4)
    target = fam.language(-1, 1, -1, 1)
    trace = trace_generate(target, "canonical", length=60)
    # Budget 18 stops inside the second sweep, after six probes of rect[-1,4,-4,4].
    sim = simulate_min_via_arbitrary(target, trace, rectangle_generalizer(fam), budget=18)
    state = sim.sim_state
    assert sim.status == BUDGET_EXHAUSTED and state.mu == 6
    p_last, p_sim = sim.final, state.p_sim
    assert p_last.descriptor() == "rect[-1,4,-4,4]"
    k = target.ordering.order[state.mu]
    assert p_sim.index == ("probe", k) and p_sim.family == p_last.family
    assert p_sim.descriptor() == f"{p_last.descriptor()}&{{{k}}}"
    assert p_sim.language.mask == p_last.language.mask & 1 << k
    assert sim.iterations[-1].event == "probe"
    assert sim.iterations[-1].candidate == f"{p_last.descriptor()}&{{{target.ordering.order[5]}}}"


def test_simulation_cut_after_a_probe_counterexample_reports_the_replayed_program():
    # Budget 11 ends on Case 2.1: the last probe draws counterexample 6, the
    # sweep ends and the backlog is replayed, so no probe is pending.
    fam = RectangleFamily(grid_bound=4)
    target = fam.language(-1, 1, -1, 1)
    trace = trace_generate(target, "canonical", length=60)
    sim = simulate_min_via_arbitrary(target, trace, rectangle_generalizer(fam), budget=11)
    state = sim.sim_state
    assert sim.status == BUDGET_EXHAUSTED and state.mu == 0
    assert state.p_sim is sim.final
    assert sim.final.descriptor() == "rect[-1,4,-4,4]"
    assert [r.event for r in sim.iterations[-2:]] == ["probe", "replay"]
    assert sim.iterations[-2].cex == 6


def test_lce_map_len_is_the_number_of_distinct_masks_cached(monkeypatch):
    assert len(LceMap()) == 0
    cached = []
    set_value = LceMap.set
    monkeypatch.setattr(LceMap, "set", lambda lce, program, value: (
        cached.append(program.language.mask), set_value(lce, program, value)))
    fam = RectangleFamily(grid_bound=4)
    target = fam.language(-1, 1, -1, 1)
    trace = trace_generate(target, "padded-seeded", seed=3, length=2000)
    sim = simulate_min_via_arbitrary(target, trace, rectangle_generalizer(fam), budget=2000,
                                     stability_window=50)
    # A conjecture asked again is cached again, under the key it has.
    assert len(sim.sim_state.lce) == len(set(cached)) == 5 < len(cached)


def test_direct_and_simulated_runs_read_a_trace_in_either_order():
    """Reading a trace does not change it: either engine gives, on a trace the
    other has read, the log it gives on a fresh one."""
    fam = RectangleFamily(grid_bound=6)
    target = fam.language(-2, 1, -1, 3)
    gen = rectangle_generalizer(fam)

    def fresh():
        return trace_generate(target, "padded-seeded", seed=5, length=5000)

    def direct(trace):
        return run_jsonl(run_engine(MINCEGIS, target, trace, gen, budget=400), fam.decode)

    def simulated(trace):
        return run_jsonl(simulate_min_via_arbitrary(target, trace, gen, budget=5000), fam.decode)

    expected = direct(fresh()), simulated(fresh())
    trace = fresh()
    assert (direct(trace), simulated(trace)) == expected
    trace = fresh()
    assert simulated(trace) == expected[1] and direct(trace) == expected[0]


THEOREM1_CHAIN = ChainFamily(max_index=12)
THEOREM1_RECT = RectangleFamily(grid_bound=6)
THEOREM1_DIAG = DiagonalFamily(universe_bound=60)
THEOREM1_GOLD = GoldFamily(bound=12)
THEOREM1_GENS = {
    "chain": chain_generalizer(THEOREM1_CHAIN),
    "rectangle": rectangle_generalizer(THEOREM1_RECT),
    "diagonal": diag_generalizer(THEOREM1_DIAG),
    "gold": gold_generalizer(THEOREM1_GOLD),
}
# The diagonal pairs (j, n) whose codes lie within the bound.
_DIAG_PAIRS = [(j, n) for j in (0, 1) for n in range(12) if pair_encode(j, n) <= 60]


@st.composite
def theorem1_targets(draw):
    kind = draw(st.sampled_from(["chain", "rectangle", "diag", "fin", "gold"]))
    if kind == "chain":
        return "chain", THEOREM1_CHAIN.language(draw(st.integers(0, 12)))
    if kind == "rectangle":
        ax, bx = sorted(draw(st.lists(st.integers(-6, 6), min_size=2, max_size=2)))
        ay, by = sorted(draw(st.lists(st.integers(-6, 6), min_size=2, max_size=2)))
        return "rectangle", THEOREM1_RECT.language(ax, bx, ay, by)
    if kind == "diag":
        return "diagonal", THEOREM1_DIAG.diag_language(draw(st.integers(0, THEOREM1_DIAG.base_max)))
    if kind == "fin":
        pairs = draw(st.sets(st.sampled_from(_DIAG_PAIRS), min_size=1, max_size=6))
        ones = [p for p in _DIAG_PAIRS if p[0] == 1]
        return "diagonal", THEOREM1_DIAG.fin_language(pairs | {draw(st.sampled_from(ones))})
    i = draw(st.integers(-1, THEOREM1_GOLD.bound))
    return "gold", THEOREM1_GOLD.full_language() if i < 0 else THEOREM1_GOLD.minus_language(i)


def _theorem1_runs(gen, target, kind, schedule, seed, direct_budget=None):
    length = 40 * (target.universe_bound + 1)
    trace = trace_generate(target, schedule, seed=seed, length=length)
    window = default_stability_window(target)
    direct = run_engine(MINCEGIS, target, trace, gen, budget=direct_budget or length,
                        stability_window=window)
    sim = simulate_min_via_arbitrary(
        target, trace, gen, CexStrategy(kind, seed=seed), budget=length, stability_window=window,
        direct_budget=direct_budget,
    )
    return direct, sim


@settings(max_examples=60, deadline=None)
@given(
    case=theorem1_targets(),
    kind=st.sampled_from([FIRST_FOUND, SEEDED_RANDOM, ADVERSARIAL_MAX]),
    schedule=st.sampled_from(["canonical", "seeded-random", "padded-seeded"]),
    seed=st.sampled_from([1, 2]),
    direct_budget=st.one_of(st.none(), st.integers(1, 40)),
)
def test_theorem1_simulation_equals_direct_mincegis(case, kind, schedule, seed, direct_budget):
    """Theorem 1 as a property: driven only by the arbitrary oracle, the
    simulation ends where direct MinCEGIS ends, with the same status, also
    where the direct run's budget cuts it short; its cache holds only true
    minimal counterexamples; and it never fires its progress guard (an
    EngineError would fail the test)."""
    family, target = case
    direct, sim = _theorem1_runs(
        THEOREM1_GENS[family], target, kind, schedule, seed, direct_budget
    )
    assert semantically_equal(direct.final.language, sim.final.language)
    assert direct.status == sim.status
    conjectures = sum(r.event == "conjecture" for r in direct.iterations)
    assert sim.sim_state.tau_done_len <= conjectures
    if direct.status == CONVERGED:
        # The replay read exactly the entries the direct run read.
        assert sim.sim_state.tau_done_len == conjectures
    for member_set, value in lce_items(sim.sim_state.lce):
        lang = target._replace(mask=sum(1 << m for m in member_set), descriptor="cached")
        assert mincheck(lang, target) == value


def test_theorem1_simulation_stops_where_direct_mincegis_stops():
    # Direct MinCEGIS stops after 23 entries, the last 18 unrefuted, on
    # rect[-4,3,-2,-2], short of the target; the simulation stops there too.
    target = THEOREM1_RECT.language(-5, 3, -2, -2)
    direct, sim = _theorem1_runs(
        THEOREM1_GENS["rectangle"], target, FIRST_FOUND, "seeded-random", 1
    )
    assert semantically_equal(direct.final.language, sim.final.language)
    assert direct.status == sim.status == CONVERGED and not sim.semantic_match
    assert sim.sim_state.tau_done_len == len(direct.iterations) == 23


def test_theorem1_pair_simulation_stops_at_the_direct_budget():
    # With no bound of its own, the simulation replayed past the direct run's
    # budget: at every budget from 1 to 21 it reported converged after 22
    # entries, where the direct run stopped short of the target.
    fam = ChainFamily()
    target, gen = fam.language(20), chain_generalizer(fam)
    trace = trace_generate(target, "padded-seeded", seed=11, length=600)
    wrong = []
    for direct_budget in range(1, 31):
        direct, sim, equal = theorem1_pair(target, gen, trace, direct_budget, 600)
        if not equal or sim.sim_state.tau_done_len > direct_budget:
            wrong.append((direct_budget, direct.status, sim.status, sim.sim_state.tau_done_len))
    assert wrong == []


@settings(max_examples=150, deadline=None)
@given(
    case=theorem1_targets(),
    kind=st.sampled_from([FIRST_FOUND, SEEDED_RANDOM, ADVERSARIAL_MAX]),
    schedule=st.sampled_from(["canonical", "seeded-random", "padded-seeded"]),
    seed=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_the_sweep_loop_equals_the_micro_step_loop(case, kind, schedule, seed, data):
    """The simulation's probe-sweep loop against the one-entry-per-step loop
    it replaced, at budgets that cut runs short, many of them mid-sweep."""
    family, target = case
    gen = THEOREM1_GENS[family]
    length = 40 * (target.universe_bound + 1)
    trace = trace_generate(target, schedule, seed=seed, length=length)
    window = default_stability_window(target)
    strategy = CexStrategy(kind, seed=seed)
    full = simulate_by_index(target, trace, gen, strategy, budget=length, stability_window=window)
    read = sum(r.event != "replay" for r in full.iterations)
    budget = data.draw(st.one_of(st.integers(1, read), st.integers(1, length)), label="budget")
    ref = simulate_by_index(target, trace, gen, strategy, budget=budget, stability_window=window)
    new = simulate_min_via_arbitrary(
        target, trace, gen, strategy, budget=budget, stability_window=window
    )
    assert run_jsonl(new) == run_jsonl(ref)
    assert (new.queries, new.probes, new.cex_count, new.status) == (
        ref.queries, ref.probes, ref.cex_count, ref.status)
    assert new.final.descriptor() == ref.final.descriptor()
    state, expected = new.sim_state, ref.sim_state
    assert (state.mu, state.backlog, state.tau_done_len, state.p_sim.descriptor()) == (
        expected.mu, expected.backlog, expected.tau_done_len, expected.p_sim.descriptor())


# ---------------------------------------------------------------------------
# Lemmas 1 and 2 and Gold's observation as properties


SCHEDULES = st.sampled_from(["canonical", "seeded-random", "padded-seeded"])
STRATEGIES = st.sampled_from([FIRST_FOUND, SEEDED_RANDOM, ADVERSARIAL_MAX])


def _default_run(variant, target, gen, schedule, seed, kind=FIRST_FOUND):
    """A run set up as `cegis-lab run` sets it up: budget and window at their defaults."""
    budget = default_budget(target)
    trace = trace_generate(target, schedule, seed=seed, length=budget)
    window = min(default_stability_window(target), budget)
    return run_engine(variant, target, trace, gen, CexStrategy(kind, seed=seed),
                      budget=budget, stability_window=window)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), schedule=SCHEDULES, kind=STRATEGIES, seed=st.integers(0, 2**16))
def test_lemma1_cegis_takes_i_plus_2_queries_and_hcegis_stalls(data, schedule, kind, seed):
    """Lemma 1: arbitrary counterexamples identify chain[i] in i + 2 queries.
    A history holds only members of chain[i], all below the least
    counterexample i + 1, so history-bounded verification never refutes."""
    fam = ChainFamily(max_index=data.draw(st.integers(0, 30)))
    i = data.draw(st.integers(0, fam.max_index))
    target, gen = fam.language(i), chain_generalizer(fam)
    cegis = _default_run(CEGIS, target, gen, schedule, seed, kind)
    assert cegis.status == CONVERGED and cegis.semantic_match and cegis.queries == i + 2
    hcegis = _default_run(HCEGIS, target, gen, schedule, seed)
    assert hcegis.status == STALLED and hcegis.cex_count == 0


@settings(max_examples=100, deadline=None)
@given(data=st.data(), schedule=SCHEDULES, kind=STRATEGIES, seed=st.integers(0, 2**16))
def test_gold_one_counterexample_pins_the_target_and_positives_never_do(
    data, schedule, kind, seed,
):
    """Gold: CEGIS identifies every member in at most two conjectures; with
    the counterexample channel cut, the learner never leaves gold[full]."""
    fam = GoldFamily(bound=data.draw(st.integers(0, 60)))
    k = data.draw(st.integers(-1, fam.bound))
    target = fam.full_language() if k < 0 else fam.minus_language(k)
    # gold[-0] at bound 0 is empty, which the canonical schedule cannot list.
    assume(target.mask or schedule != "canonical")
    gen = gold_generalizer(fam)
    cegis = _default_run(CEGIS, target, gen, schedule, seed, kind)
    assert cegis.status == CONVERGED and cegis.semantic_match
    assert len({r.candidate for r in cegis.iterations}) <= 2
    positive = _default_run(POSITIVE_ONLY, target, gen, schedule, seed)
    assert positive.final.descriptor() == "gold[full]"
    assert positive.status == (CONVERGED if k < 0 else STALLED)


_DIAG = DiagonalFamily()
_BASE = st.integers(0, _DIAG.base_max)  # n of a <0, n> code within the bound
_Z1 = st.integers(0, 32)  # <1, 32> = 593 is the largest <1, n> code within it


@settings(max_examples=60, deadline=None)
@given(data=st.data(), fin=st.booleans(), schedule=st.sampled_from(["canonical", "padded-seeded"]),
       seed=st.integers(0, 2**16))
def test_lemma2_hcegis_identifies_fin_and_diag_targets(data, fin, schedule, seed):
    """Lemma 2, positive direction: the history-bounded engine identifies
    every member of the diagonal family, its probes recovering each code
    below the largest one seen.  Within a pass of these schedules every
    member is seen before a stability window of unrefuted steps ends."""
    if fin:
        pairs = data.draw(st.frozensets(st.tuples(st.integers(0, 1), _Z1), max_size=7))
        target = _DIAG.fin_language(pairs | {(1, data.draw(_Z1))})
    else:
        target = _DIAG.diag_language(data.draw(_BASE))
    run = _default_run(HCEGIS, target, diag_generalizer(_DIAG), schedule, seed)
    assert run.status == CONVERGED and run.semantic_match
    assert run.final.language.mask == target.mask


@settings(max_examples=80, deadline=None)
@given(data=st.data(), z1=_Z1, z2=_BASE, start=st.none() | _BASE)
def test_lemma2_arbitrary_counterexamples_cannot_tell_a_pair_apart(data, z1, z2, start):
    """Lemma 2, negative direction: against the targets base + <1, z1> and
    base + <0, z2> + <1, z1>, a verifier that never names <0, z2> gives the
    CEGIS engine byte-identical logs, so at least one final is wrong.  It
    has nothing to name, and the demo reports ``skipped``, exactly when a
    conjecture diag(m), m the least base entry seen, differs from the
    first target at <0, z2> alone.  (With an empty base the first target's
    run, never refuted, stops once its conjecture is right and the other
    runs on, so the base has at least one entry.)"""
    others = [n for n in range(_DIAG.base_max + 1) if n != z2]
    if start is None:
        base = data.draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
    else:  # every n >= start but z2: skipped if start <= z2, else never refuted
        base = data.draw(st.permutations([n for n in others if n >= start]))
        assume(base)
    out = indistinguishability_demo([pair_encode(0, n) for n in base], z1, z2)
    seen = base[:40]  # the default budget reads at most 40 entries
    lone = any(set(range(low, _DIAG.base_max + 1)) - set(base) == {z2}
               for low in {min(seen[:i]) for i in range(1, len(seen) + 1)})
    assert ("skipped" in out) == lone
    if not lone:
        assert out["logs_identical"] and out["mismatched"] >= 1
        assert out["targets_differ_at"] == pair_encode(0, z2)


def test_value_types_are_immutable():
    lang = explicit_language({1, 2}, 5)
    target = ChainFamily().language(2)
    trace = trace_generate(target, "canonical", length=20)
    gen = chain_generalizer(ChainFamily())
    run = run_engine(CEGIS, target, trace, gen, budget=20)
    sim = simulate_min_via_arbitrary(target, trace, gen, budget=20)
    values = [
        (lang, "mask"),
        (Program("chain", 0, lang), "language"),
        (IterationRecord(1, None, "chain[0]", None, "conjecture"), "event"),
        (RectAux(), "hull"),
        (ChainFamily(), "max_index"),
        (DiagonalFamily(), "universe_bound"),
        (GoldFamily(), "bound"),
        (run, "status"),
        (sim.sim_state, "mu"),
        (convergence_verdict(run, target), "status"),
        (ReportRow("chain", "chain[2]", CEGIS, None, CONVERGED, True, 4, 1, {}), "queries"),
        (SeparationReport("title", [], "conclusion", True), "passed"),
    ]
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = 1


@pytest.mark.parametrize("schedule", ["seeded-random", "padded-seeded"])
def test_hcegis_verdicts_equal_full_history_verdicts(schedule):
    """run_engine hands hcheck only the history's running maximum; every
    verdict and probe answer must equal the one from the whole prefix."""
    fam = DiagonalFamily()
    target = fam.fin_language({(0, 3), (0, 9), (0, 12), (1, 20)})
    # Seed 4 gives counterexamples whose history maximum is not the
    # latest entry, under both schedules.
    trace = trace_generate(target, schedule, seed=4, length=80)
    entries = trace.entries
    inner = diag_generalizer(fam)
    steps = []

    def step(prev, entry, cex, probe=None):
        i = len(steps) + 1
        steps.append((prev, cex))

        def full_history_probe(lang):
            answer = probe(lang)
            assert answer == hcheck(lang, target, entries[:i])
            return answer

        return inner.step(prev, entry, cex, full_history_probe)

    run = run_engine(HCEGIS, target, trace, replace(inner, step=step), budget=80)
    assert run.probes > 0 and any(cex is not None for _, cex in steps)
    for i, (prev, cex) in enumerate(steps, 1):
        assert cex == hcheck(prev.language, target, entries[:i - 1])


def test_probe_order_is_the_family_ordering():
    fam = RectangleFamily(grid_bound=4)
    lang = fam.universal_language()
    order = lang.ordering.order
    assert list(order) == sorted(range(lang.universe_bound + 1), key=ordering_key(lang))
    # One order per family, built once and shared by all its languages.
    assert fam.language(-1, 1, 0, 2).ordering.order is order
    assert ChainFamily(10).language(3).ordering is None  # the natural order
    # Each probe sweep of the simulation walks that order from its start.
    target = fam.language(-1, 1, -1, 1)
    trace = trace_generate(target, "padded-seeded", seed=1, length=2000)
    sim = simulate_min_via_arbitrary(target, trace, rectangle_generalizer(fam), budget=2000)
    probed = [int(r.candidate.rsplit("&{", 1)[1][:-1])
              for r in sim.iterations if r.event == "probe"]
    assert probed
    starts = [i for i, e in enumerate(probed) if e == order[0]] + [len(probed)]
    assert starts[0] == 0
    for start, end in zip(starts, starts[1:]):
        assert probed[start:end] == list(order[:end - start])


# ---------------------------------------------------------------------------
# Error paths


def test_chain_learner_identifies_its_top_target():
    # Lemma 1 at max_index: the learner climbs to chain[4], one past the
    # top target, draws its counterexample there and freezes, in i + 2 queries.
    fam = ChainFamily(max_index=3)
    target = fam.language(3)
    trace = trace_generate(target, "canonical", length=10)
    run = run_engine(CEGIS, target, trace, chain_generalizer(fam), budget=10)
    assert run.status == CONVERGED and run.semantic_match and run.queries == 5


def test_simulation_progress_guard_fires_when_the_cache_forgets(monkeypatch):
    # A cache that never answers: every replay consumes nothing, so the
    # simulation sweeps forever unless the guard stops it.
    monkeypatch.setattr(LceMap, "get", lambda self, program: _TOP)
    fam = GoldFamily(bound=8)
    target = fam.minus_language(3)
    trace = trace_generate(target, "canonical", length=100)
    with pytest.raises(EngineError, match="simulation stopped making progress"):
        simulate_min_via_arbitrary(target, trace, gold_generalizer(fam), budget=100)


@pytest.mark.parametrize("variant,oracle", [
    (SIMULATED_MINCEGIS, "check"), (CEGIS, "check"), (MINCEGIS, "mincheck"), (HCEGIS, "hcheck"),
], ids=["simulation-check", "cegis-check", "mincegis-mincheck", "hcegis-hcheck"])
def test_the_simulation_asks_the_module_level_check(monkeypatch, variant, oracle):
    # A tracer that wraps an oracle in engines, as the benchmark does, must
    # see every query of the run and every probe of an HCEGIS run.
    calls = []
    real = getattr(engines, oracle)
    monkeypatch.setattr(engines, oracle, lambda *args: calls.append(1) or real(*args))
    if variant == HCEGIS:
        fam = DiagonalFamily()
        target, gen = fam.fin_language({(0, 2), (1, 5)}), diag_generalizer(fam)
    else:
        fam = RectangleFamily(grid_bound=2)
        target, gen = fam.language(-1, 1, -1, 0), rectangle_generalizer(fam)
    trace = trace_generate(target, "canonical", length=200)
    if variant == SIMULATED_MINCEGIS:
        run = simulate_min_via_arbitrary(target, trace, gen, budget=200)
        assert any(r.event == "probe" for r in run.iterations)
    else:
        run = run_engine(variant, target, trace, gen, budget=200)
    assert run.probes > 0 if variant == HCEGIS else run.probes == 0
    assert len(calls) == run.queries + run.probes


def test_probe_cap_overflow_on_diagonal_hcegis(monkeypatch):
    fam = DiagonalFamily()
    target = fam.fin_language({(0, 2), (1, 5)})
    trace = trace_generate(target, "canonical", length=20)
    gen = diag_generalizer(fam)
    # The <1, 5> entry (code 26) makes the learner probe every code below it.
    monkeypatch.setattr(engines, "PROBE_CAP", 26)
    run = run_engine(HCEGIS, target, trace, gen, budget=20)
    assert run.probes == 26 and run.semantic_match
    monkeypatch.setattr(engines, "PROBE_CAP", 25)
    with pytest.raises(EngineError, match="more than 25 probes"):
        run_engine(HCEGIS, target, trace, gen, budget=20)
