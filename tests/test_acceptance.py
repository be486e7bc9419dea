"""Acceptance gate: one pass/fail line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
report lines.
"""

import json
import random
import time
from pathlib import Path

from cegis_lab.core import pair_decode, pair_encode, point_encode, smpl, trace_generate
from cegis_lab.engines import CEGIS, CONVERGED, HCEGIS, MINCEGIS, STALLED, run_engine
from cegis_lab.engines import chain_generalizer, diag_generalizer, rectangle_generalizer
from cegis_lab.families import ChainFamily, DiagonalFamily, GoldFamily, RectangleFamily
from cegis_lab.harness import convergence_verdict, demo_lemma2, demo_theorem1
from cegis_lab.harness import indistinguishability_demo
from cegis_lab.verifiers import check, hcheck, mincheck
from cegis_lab.cli import main as cli_main
from reference import ordering_key


GOLDEN_DIR = Path(__file__).parent / "golden"


def report(criterion: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    return ok


def test_criterion_1_theorem1_equivalence():
    start = time.monotonic()
    rep = demo_theorem1()
    elapsed = time.monotonic() - start
    all_equal = all(row.extra["equal_finals"] for row in rep.rows)
    ok = rep.passed and all_equal and len(rep.rows) == 96 and elapsed < 60.0
    assert report(
        f"criterion 1: theorem-1 equivalence on {len(rep.rows)} cases "
        f"in {elapsed:.1f}s", ok)


def test_criterion_2_lemma1_separation():
    fam = ChainFamily()
    gen = chain_generalizer(fam)
    ok = True
    for i in range(21):
        target = fam.language(i)
        trace = trace_generate(target, "canonical", length=100)
        c = run_engine(CEGIS, target, trace, gen, budget=100)
        ok = ok and c.status == CONVERGED and c.semantic_match and c.queries == i + 2
        h = run_engine(HCEGIS, target, trace, gen, budget=100)
        hv = convergence_verdict(h, target)
        ok = ok and h.cex_count == 0 and hv.status == STALLED
    assert report("criterion 2: lemma-1 separation, exact query counts for i <= 20", ok)


def test_criterion_3_lemma2_positive():
    rep = demo_lemma2()
    rows = [r for r in rep.rows if r.variant == HCEGIS]
    fin_rows = [r for r in rows if r.target.startswith("fin")]
    diag_rows = [r for r in rows if r.target.startswith("diag")]
    ok = (
        len(fin_rows) == 10 and len(diag_rows) == 10
        and all(r.status == CONVERGED and r.semantic_match for r in rows)
    )
    assert report("criterion 3: lemma-2 positive direction (10 fin + diag 1..10)", ok)


def test_criterion_4_lemma2_negative():
    specs = [
        ((pair_encode(0, 2),), 7, 9),
        ((pair_encode(0, 1), pair_encode(0, 4)), 3, 11),
        ((pair_encode(0, 6),), 2, 13),
        ((pair_encode(0, 3), pair_encode(0, 8)), 5, 15),
        ((pair_encode(0, 10),), 12, 17),
    ]
    ok = True
    fam = DiagonalFamily()
    for base, z1, z2 in specs:
        out = indistinguishability_demo(base, z1, z2)
        probe = pair_encode(0, z2)
        base_pairs = {pair_decode(c) for c in base}
        differs = (
            not fam.fin_language(base_pairs | {(1, z1)}).contains(probe)
            and fam.fin_language(base_pairs | {(0, z2), (1, z1)}).contains(probe)
        )
        ok = ok and out["logs_identical"] and differs and out["mismatched"] >= 1
    assert report(
        f"criterion 4: lemma-2 negative direction on {len(specs)} crafted pairs", ok)


def test_criterion_5_verifier_oracle_equivalence():
    chain = ChainFamily(max_index=30)
    rect = RectangleFamily(grid_bound=6)
    diag = DiagonalFamily()
    gold = GoldFamily()
    rng = random.Random(2024)
    pools = {
        "chain": [chain.language(i) for i in range(31)],
        "rectangle": [],
        "diagonal": [diag.diag_language(i) for i in range(1, 16)],
        "gold": [gold.full_language()] + [gold.minus_language(i) for i in range(0, 51, 2)],
    }
    for _ in range(25):
        ax = rng.randint(-6, 6); bx = rng.randint(ax, 6)
        ay = rng.randint(-6, 6); by = rng.randint(ay, 6)
        pools["rectangle"].append(rect.language(ax, bx, ay, by))
    for _ in range(10):
        zeros = {(0, rng.randint(0, 20)) for _ in range(rng.randint(0, 4))}
        pools["diagonal"].append(diag.fin_language(zeros | {(1, rng.randint(0, 20))}))

    ok = True
    for name, pool in pools.items():
        for _ in range(200):
            cand = rng.choice(pool)
            tgt = rng.choice(pool)
            diff = sorted(c for c in cand.members() if not tgt.contains(c))
            ok = ok and (check(cand, tgt) is None) == (not diff)
            mv = mincheck(cand, tgt)
            if diff:
                ok = ok and mv == min(diff, key=ordering_key(cand))
            else:
                ok = ok and mv is None
            members = sorted(tgt.members())
            history = [rng.choice(members) for _ in range(rng.randint(0, 4))]
            hv = hcheck(cand, tgt, history)
            seen = smpl(history)
            if hv is not None:
                ok = ok and bool(seen) and hv < max(seen)
    assert report("criterion 5: verifier oracles vs brute force, 200 pairs/family", ok)


def test_criterion_6_pairing_properties():
    ok = all(pair_encode(*pair_decode(c)) == c for c in range(10_001))
    for a in range(101):
        for b in range(101):
            ok = ok and pair_decode(pair_encode(a, b)) == (a, b)
        for b in range(100):
            ok = ok and pair_encode(a, b) < pair_encode(a, b + 1)
            ok = ok and pair_encode(b, a) < pair_encode(b + 1, a)
    ok = ok and all(pair_encode(a, 0) >= a for a in range(1001))
    assert report("criterion 6: pairing bijectivity, monotonicity, floor property", ok)


def test_criterion_7_rectangle_demo():
    fam = RectangleFamily()
    target = fam.language(-1, 1, -1, 1)
    run = run_engine(MINCEGIS, target, trace_generate(target, "canonical", length=600),
                     rectangle_generalizer(fam), budget=600)
    cexs = [r.cex for r in run.iterations if r.cex is not None]
    ring = {point_encode(p, q) for p, q in ((0, 2), (0, -2), (2, 0), (-2, 0))}
    ok = (
        bool(cexs)
        and cexs[0] in ring
        and cexs[0] == point_encode(-2, 0)
        and run.status == CONVERGED
        and run.final.index == (-1, 1, -1, 1)
    )
    assert report("criterion 7: rectangle demo, first minimal cex (-2,0), exact fit", ok)


def test_criterion_8_replay_determinism(tmp_path):
    code = cli_main(["run", "--family", "chain", "--target", "5",
                     "--engine", "cegis", "--out", str(tmp_path)])
    fresh = (tmp_path / "chain-cegis-5.jsonl").read_bytes()
    golden = (GOLDEN_DIR / "chain-cegis-5.jsonl").read_bytes()
    ok = code == 0 and fresh == golden
    assert report("criterion 8: replay determinism vs golden JSONL log", ok)
