"""The four benchmark workloads: seeded inputs, the timed op of each case,
and the check of its output.

Ops call the package only through module attributes (``core.trace_generate``,
``engines.run_engine``, ...) and take generalizers from ``Context.gens`` at
call time, so the traced pass, which patches those names, sees every call.
Why each workload exists, and what it should and should not move, is in
NOTES.md beside this file.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from cegis_lab import core, engines, families, harness, logio, verifiers

# The seed that reproduces the shipped `demo theorem1` matrix exactly.
DEMO_SEED = 0

LADDER_CHAIN = (120, 1000, 4000)
LADDER_GRID = (32, 64, 128)
# Three targets per rung put op_p90_ms of `oracle-ladder` on the seed-free
# chain N=1000 pair, between the rectangle G=128 simulations and N=4000.
RECT_TARGETS_PER_RUNG = 3
# cmd_run's default budget (10 * B) would make the G=128 trace 1.3M entries
# long, of which a run reads a few hundred, and the diagonal traces 120k
# entries long, of which a run reads under a hundred.  These two workloads
# time the oracles; trace cost is what `theorem1` measures.  Every run
# converges well inside these budgets.
RECT_BUDGET = 4000
DIAG_BUDGET = 2000
STALL_CHAIN = (1000, 4000)
DIAG_BOUNDS = (600, 3000, 12000)
DIAG_TARGETS_PER_RUNG = 16
# The diagonal targets are one fixed draw; the workload seed draws their
# trace seeds.  A run's probe count swings about 60-fold with the target
# drawn, so seed-drawn targets made `wall_s` and the op percentiles of
# `history-probes` move by a third between seeds.
DIAG_TARGET_SEED = 5
DIAG_SCHEDULES = (core.PADDED_SEEDED, core.SEEDED_RANDOM)
# Lemma 2's indistinguishable pairs, as shipped in `demo lemma2`:
# (base prefix codes, z1, z2) with budget 40.
LEMMA2_PAIRS = (
    ((core.pair_encode(0, 2),), 7, 9),
    ((core.pair_encode(0, 1), core.pair_encode(0, 4)), 3, 11),
    ((core.pair_encode(0, 6),), 2, 13),
    ((core.pair_encode(0, 3), core.pair_encode(0, 8)), 5, 15),
    ((core.pair_encode(0, 10),), 12, 17),
)

# The console script `cegis-lab` that `pip install` would generate.
CONSOLE_SCRIPT = "import sys; from cegis_lab.cli import main; sys.exit(main())"

# (command, exit code the README promises, universe bound for the scaling
# ladder).  The README's four `run` examples, two more chain engines, the
# largest chain target, and four demos.
CLI_OPS = (
    ("run --family chain --target 5 --engine cegis", 0, 122),
    ("run --family rectangle --target=-1,1,-1,1 --engine mincegis", 0, 8320),
    ("run --family diagonal --target diag:3 --engine hcegis", 0, 600),
    ("run --family gold --target minus:17 --engine cegis", 0, 50),
    # Lemma 1's negative side: the history-bounded verifier stalls (exit 2).
    ("run --family chain --target 5 --engine hcegis", 2, None),
    ("run --family chain --target 5 --engine simulated-mincegis", 0, None),
    # i + 2 queries on the largest chain target.
    ("run --family chain --target 120 --engine cegis", 0, None),
    ("demo lemma1", 0, None),
    ("demo lemma2", 0, None),
    ("demo rectangle", 0, None),
    ("demo gold", 0, None),
)

# Ops that fail at the seed commit.  At its default budget (10 * B) the
# chain learner climbs past max_index=120, and the CLI exits 1 through an
# EngineFaultError traceback where the README promises 2, or 0.  They stay in
# the workload and count as failed in every pass; `correct` turns false only
# when an op outside this set fails.
KNOWN_DEFECTS = frozenset({
    "cegis-lab run --family chain --target 5 --engine hcegis",
    "cegis-lab run --family chain --target 120 --engine cegis",
})


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    # Raises CheckFailed (or anything else) when the output is wrong;
    # returns the exact counts of the op for the pass fingerprint.
    check: Callable[[Any], dict]
    # (ladder name, rung size) for scaling_exp, or None.
    ladder: Optional[tuple[str, int]] = None


@dataclass
class Context:
    """What setup builds before the first timed op."""

    fams: dict = field(default_factory=dict)
    gens: dict = field(default_factory=dict)
    # Check references computed once per process and reused by later passes.
    refs: dict = field(default_factory=dict)
    root: Optional[Path] = None
    # Set during the traced pass: CLI children then run under span tracing
    # and write their spans here.
    cli_trace_dir: Optional[Path] = None


def setup(workload: str, root: Path) -> Context:
    """Build the families, generalizers and rectangle tables a workload uses."""
    ctx = Context(root=root)
    if workload == "theorem1":
        _add_chain(ctx, 120)
        _add_rect(ctx, 32)
    elif workload == "oracle-ladder":
        for n in LADDER_CHAIN:
            _add_chain(ctx, n)
        for g in LADDER_GRID:
            _add_rect(ctx, g)
    elif workload == "history-probes":
        for n in STALL_CHAIN:
            _add_chain(ctx, n)
        for b in DIAG_BOUNDS:
            fam = families.DiagonalFamily(b)
            ctx.fams["diagonal", b] = fam
            ctx.gens["diagonal", b] = engines.diag_generalizer(fam)
    elif workload == "cli-cold":
        import cegis_lab.cli  # noqa: F401  (the import users pay on every run)

        families.ChainFamily().language(0)
        families.RectangleFamily().universal_language()
        families.DiagonalFamily().diag_language(0)
        families.GoldFamily().full_language()
    else:
        raise ValueError(f"unknown workload: {workload}")
    return ctx


def _add_chain(ctx: Context, max_index: int) -> None:
    fam = families.ChainFamily(max_index)
    ctx.fams["chain", max_index] = fam
    ctx.gens["chain", max_index] = engines.chain_generalizer(fam)


def _add_rect(ctx: Context, grid: int) -> None:
    fam = families.RectangleFamily(grid)
    fam.universal_language()  # builds the decode tables and the radial order
    ctx.fams["rectangle", grid] = fam
    ctx.gens["rectangle", grid] = engines.rectangle_generalizer(fam)


def build_ops(workload: str, ctx: Context, seed: int) -> list[Op]:
    return {
        "theorem1": theorem1_ops,
        "oracle-ladder": oracle_ladder_ops,
        "history-probes": history_probe_ops,
        "cli-cold": cli_cold_ops,
    }[workload](ctx, seed)


# ---------------------------------------------------------------------------
# Shared pieces


def random_rectangles(rng: random.Random, count: int, extent: int = 8) -> list:
    """Same draw as the shipped theorem1 demo, so DEMO_SEED reproduces it."""
    rects = []
    for _ in range(count):
        ax = rng.randint(-extent, extent)
        bx = rng.randint(ax, extent)
        ay = rng.randint(-extent, extent)
        by = rng.randint(ay, extent)
        rects.append((ax, bx, ay, by))
    return rects


def entries_read(run) -> int:
    """Trace entries an engine consumed: one per conjecture or probe step."""
    return sum(1 for r in run.iterations if r.event in ("conjecture", "probe"))


def same_outcome(a, b) -> bool:
    return a.final.language.members() == b.final.language.members() and a.status == b.status


@dataclass
class RunOutput:
    trace: Any
    run: Any
    verdict: Any
    log: str
    summary: str


def cmd_run(variant, target, gen, schedule, budget, seed=0, decoder=None) -> RunOutput:
    """What `cegis-lab run` does, in memory: trace, engine, verdict, JSONL
    log and summary document."""
    trace = core.trace_generate(target, schedule, seed=seed, length=budget)
    window = min(harness.default_stability_window(target), budget)
    strategy = verifiers.CexStrategy(kind=verifiers.FIRST_FOUND, seed=seed)
    if variant == engines.SIMULATED_MINCEGIS:
        run = engines.simulate_min_via_arbitrary(
            target, trace, gen, strategy, budget=budget, stability_window=window,
        )
    else:
        run = engines.run_engine(
            variant, target, trace, gen, strategy, budget=budget, stability_window=window,
        )
    verdict = harness.convergence_verdict(run, target)
    log = logio.run_jsonl(run, decoder)
    summary = logio.summary_dict(run)
    summary["verdict"] = verdict.status
    summary["semantic_match"] = verdict.semantic_match
    return RunOutput(trace, run, verdict, log, json.dumps(summary, indent=2, sort_keys=True))


def run_counts(out: RunOutput) -> dict:
    run = out.run
    return {
        "queries": run.queries + run.probes,
        "iterations": len(run.iterations),
        "trace_generated": len(out.trace),
        "trace_consumed": entries_read(run),
        "jsonl_bytes": len(out.log.encode()),
        "lce_entries": len(run.sim_state.lce) if run.sim_state is not None else 0,
    }


def converged_to_target(out: RunOutput) -> None:
    require(out.verdict.status == engines.CONVERGED and out.verdict.semantic_match,
            f"verdict {out.verdict.status}, match={out.verdict.semantic_match}")


def matches_direct_mincegis(ctx: Context, key, out: RunOutput, target, gen_key) -> None:
    """A simulated-mincegis run must equal a direct mincegis run on the same trace."""
    if key not in ctx.refs:
        run = out.run
        ctx.refs[key] = engines.run_engine(
            engines.MINCEGIS, target, out.trace, ctx.gens[gen_key],
            budget=len(out.trace), stability_window=run.stability_window,
        )
    direct = ctx.refs[key]
    require(same_outcome(direct, out.run),
            f"simulation {out.run.status} {out.run.final.descriptor()} != "
            f"direct {direct.status} {direct.final.descriptor()}")


# ---------------------------------------------------------------------------
# theorem1: the full Theorem-1 matrix, case by case


def theorem1_ops(ctx: Context, seed: int) -> list[Op]:
    """The demo's targets; the seed draws the three trace seeds, so that the
    matrix keeps its size and only the presentations change."""
    if seed == DEMO_SEED:
        trace_seeds = (11, 23, 37)
    else:
        trace_seeds = tuple(random.Random(seed).sample(range(1, 1000), 3))
    chain, rect = ctx.fams["chain", 120], ctx.fams["rectangle", 32]
    cases = [(f"chain[{i}]", chain.language(i), ("chain", 120), 600, 300, 600)
             for i in range(21)]
    rects = [(-1, 1, -1, 1)] + random_rectangles(random.Random(7), 10)
    cases += [(f"rect{b}", rect.language(*b), ("rectangle", 32), 60_000, 2000, 60_000)
              for b in rects]
    ops = []
    for label, target, gen_key, length, direct_budget, sim_budget in cases:
        for s in trace_seeds:
            def run(target=target, gen_key=gen_key, s=s, length=length,
                    db=direct_budget, sb=sim_budget):
                trace = core.trace_generate(target, core.PADDED_SEEDED, seed=s, length=length)
                direct, sim, _ = harness.theorem1_pair(target, ctx.gens[gen_key], trace, db, sb)
                return trace, direct, sim

            def check(out):
                trace, direct, sim = out
                require(same_outcome(direct, sim),
                        f"direct {direct.status} {direct.final.descriptor()} != "
                        f"simulated {sim.status} {sim.final.descriptor()}")
                return {
                    "queries": direct.queries + direct.probes + sim.queries + sim.probes,
                    "iterations": len(direct.iterations) + len(sim.iterations),
                    "trace_generated": len(trace),
                    "trace_consumed": max(entries_read(direct), entries_read(sim)),
                    "lce_entries": len(sim.sim_state.lce),
                }

            ops.append(Op(f"theorem1 {label} seed={s}", run, check, ("trace-length", length)))
    return ops


# ---------------------------------------------------------------------------
# oracle-ladder: arbitrary and minimal oracles at growing universe sizes


def oracle_ladder_ops(ctx: Context, seed: int) -> list[Op]:
    ops = []
    for n in LADDER_CHAIN:
        # Target N-1, not N: the top index faults at the chain cap, and that
        # defect is already measured by `cli-cold`.
        target = ctx.fams["chain", n].language(n - 1)
        budget = harness.default_budget(target)
        for variant in (engines.CEGIS, engines.SIMULATED_MINCEGIS):
            def run(target=target, n=n, variant=variant, budget=budget):
                return cmd_run(variant, target, ctx.gens["chain", n], core.CANONICAL, budget)

            def check(out, n=n, variant=variant, target=target):
                converged_to_target(out)
                if variant == engines.CEGIS:
                    require(out.run.queries == (n - 1) + 2,
                            f"{out.run.queries} queries, Lemma 1 says {n + 1}")
                else:
                    matches_direct_mincegis(ctx, ("chain", n), out, target, ("chain", n))
                return run_counts(out)

            ops.append(Op(f"ladder chain N={n} {variant}", run, check, (f"chain-{variant}", n)))

    rng = random.Random(seed)
    # Rectangles around the origin, like the README's (-1,1,-1,1): each side
    # at a seed-drawn distance of 2-5 from it.  Off-origin targets of any
    # size make a run's cost swing several times more with the draw.
    rects = [(-rng.randint(2, 5), rng.randint(2, 5), -rng.randint(2, 5), rng.randint(2, 5))
             for _ in range(RECT_TARGETS_PER_RUNG)]
    for g in LADDER_GRID:
        fam = ctx.fams["rectangle", g]
        for bounds in rects:
            target = fam.language(*bounds)
            for variant in (engines.MINCEGIS, engines.SIMULATED_MINCEGIS):
                def run(target=target, g=g, variant=variant):
                    return cmd_run(variant, target, ctx.gens["rectangle", g], core.CANONICAL,
                                   RECT_BUDGET, decoder=core.point_decode)

                def check(out, g=g, variant=variant, target=target, bounds=bounds):
                    converged_to_target(out)
                    if variant == engines.MINCEGIS:
                        first = next(r.cex for r in out.run.iterations if r.cex is not None)
                        want = radial_minimum_outside(g, bounds)
                        require(first == want,
                                f"first cex {core.point_decode(first)} != brute-force "
                                f"minimum {core.point_decode(want)}")
                    else:
                        matches_direct_mincegis(ctx, ("rectangle", g, bounds), out, target,
                                                ("rectangle", g))
                    return run_counts(out)

                ops.append(Op(f"ladder rect G={g} {bounds} {variant}", run, check,
                              (f"rect-{variant}", g)))
    return ops


def radial_minimum_outside(grid: int, bounds) -> int:
    """Brute force: the grid point outside the target rectangle that is
    least by (x^2 + y^2, x, y), which is the universal first candidate's
    minimal counterexample."""
    ax, bx, ay, by = bounds
    best = min(
        (x * x + y * y, x, y)
        for x in range(-grid, grid + 1)
        for y in range(-grid, grid + 1)
        if not (ax <= x <= bx and ay <= y <= by)
    )
    return core.point_encode(best[1], best[2])


# ---------------------------------------------------------------------------
# history-probes: the history-bounded verifier against long histories


def fin_targets(rng: random.Random, fam, count: int) -> list:
    """Random diagonal-family `fin` members with codes up to the bound."""
    top = 0
    while core.pair_encode(1, top + 1) <= fam.universe_bound:
        top += 1
    targets = []
    for _ in range(count):
        size = rng.randint(2, 8)
        pairs = {(1, rng.randint(0, top))}
        while len(pairs) < size:
            pairs.add((rng.randint(0, 1), rng.randint(0, top)))
        targets.append(fam.fin_language(pairs))
    return targets


def history_probe_ops(ctx: Context, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n in STALL_CHAIN:
        target = ctx.fams["chain", n].language(rng.randint(n // 2, n - 1))

        def run(target=target, n=n):
            # Budget N keeps the climbing learner below the chain cap.
            return cmd_run(engines.HCEGIS, target, ctx.gens["chain", n], core.CANONICAL, n)

        def check(out):
            require(out.verdict.status == engines.STALLED and out.run.cex_count == 0,
                    f"verdict {out.verdict.status} with {out.run.cex_count} counterexamples")
            return run_counts(out)

        ops.append(Op(f"stall chain N={n} {target.descriptor}", run, check, ("chain-hcegis", n)))

    target_rng = random.Random(DIAG_TARGET_SEED)
    for b in DIAG_BOUNDS:
        fam = ctx.fams["diagonal", b]
        for target in fin_targets(target_rng, fam, DIAG_TARGETS_PER_RUNG):
            for schedule in DIAG_SCHEDULES:
                trace_seed = rng.randrange(1 << 30)

                def run(target=target, b=b, schedule=schedule, trace_seed=trace_seed):
                    return cmd_run(engines.HCEGIS, target, ctx.gens["diagonal", b], schedule,
                                   DIAG_BUDGET, seed=trace_seed, decoder=core.pair_decode)

                def check(out, target=target):
                    if presents_max_after_first_one(out, target):
                        require(out.run.final.language.members() == target.members(),
                                f"final {out.run.final.descriptor()} != {target.descriptor}")
                    return run_counts(out)

                ops.append(Op(f"diag B={b} {target.descriptor} {schedule} seed={trace_seed}",
                              run, check, ("diag-hcegis", b)))

    for base, z1, z2 in LEMMA2_PAIRS:
        def run(base=base, z1=z1, z2=z2):
            return lemma2_pair(ctx, base, z1, z2)

        def check(out):
            (t_d, run_d, log_d), (t_dp, run_dp, log_dp) = out
            require(log_d == log_dp, "the two logs differ")
            wrong = [r for r, t in ((run_d, t_d), (run_dp, t_dp))
                     if r.final.language.members() != t.members()]
            require(len(wrong) >= 1, "both finals are right")
            return {
                "queries": run_d.queries + run_dp.queries,
                "iterations": len(run_d.iterations) + len(run_dp.iterations),
                "jsonl_bytes": len(log_d.encode()) + len(log_dp.encode()),
            }

        ops.append(Op(f"lemma2 pair z1={z1} z2={z2}", run, check))
    return ops


def presents_max_after_first_one(out: RunOutput, target) -> bool:
    """Whether the consumed prefix shows the target's maximum at or after
    its first <1, .> element, the condition under which the learner's
    final conjecture must be the target."""
    prefix = out.trace.entries[: entries_read(out.run)]
    first_one = next((k for k, e in enumerate(prefix)
                      if e is not None and core.pair_decode(e)[0] == 1), None)
    if first_one is None:
        return False
    return max(target.members()) in prefix[first_one:]


def lemma2_pair(ctx: Context, base, z1: int, z2: int):
    """Run CEGIS against two diagonal targets that differ only at <0, z2>,
    with one verifier strategy that never names <0, z2>."""
    fam = families.DiagonalFamily()
    budget = 40
    base_pairs = {core.pair_decode(c) for c in base}
    l_d = fam.fin_language(base_pairs | {(1, z1)})
    l_dp = fam.fin_language(base_pairs | {(0, z2), (1, z1)})
    entries = tuple(base) + (core.pair_encode(1, z1),) * (budget - len(base))
    strategy = verifiers.CexStrategy(
        verifiers.CONSISTENT_AVOIDING, avoid=frozenset({core.pair_encode(0, z2)}),
    )
    gen = ctx.gens["diagonal", 600]
    out = []
    for target in (l_d, l_dp):
        run = engines.run_engine(engines.CEGIS, target, core.Trace(entries), gen, strategy,
                                 budget=budget)
        out.append((target, run, logio.run_jsonl(run)))
    return out


# ---------------------------------------------------------------------------
# cli-cold: fresh `cegis-lab` processes, one after another


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("CEGIS_LAB_LOG_DIR", None)
    return env


CLI_TIMEOUT_S = 60


def cli_cold_ops(ctx: Context, seed: int) -> list[Op]:
    """The README's commands.  They take no seed: canonical traces and the
    first-found strategy do not use one."""
    ops = []
    for k, (command, expected, bound) in enumerate(CLI_OPS):
        args = command.split()
        out_dir = ctx.root / ".perfbench_out" / "cli" / str(k)

        def run(args=args, out_dir=out_dir, k=k):
            out_dir.mkdir(parents=True, exist_ok=True)
            for old in out_dir.iterdir():
                old.unlink()
            if ctx.cli_trace_dir is None:
                cmd = [sys.executable, "-c", CONSOLE_SCRIPT]
            else:
                child = Path(__file__).resolve().parent / "child.py"
                cmd = [sys.executable, str(child), "cli", str(ctx.cli_trace_dir / f"{k}.spans")]
            return subprocess.run(
                [*cmd, *args, "--out", str(out_dir)], cwd=ctx.root, env=child_env(ctx.root),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S,
            ), out_dir

        def check(out, args=args, expected=expected):
            proc, out_dir = out
            require(proc.returncode == expected,
                    f"exit {proc.returncode}, README promises {expected}: "
                    f"{proc.stderr.decode(errors='replace').strip().splitlines()[-1:]}")
            docs = sorted(out_dir.glob("*.json"))
            require(len(docs) == 1, f"expected one JSON document, found {len(docs)}")
            doc = json.loads(docs[0].read_text())
            counts = {"exit_code": proc.returncode}
            if args[0] == "run":
                counts["queries"] = doc["queries"] + doc["probes"]
                counts["iterations"] = doc["iterations"]
                counts["jsonl_bytes"] = sum(p.stat().st_size for p in out_dir.glob("*.jsonl"))
            else:
                require(doc["passed"] is True, "demo conclusion does not hold")
                counts["queries"] = sum(r["queries"] + r.get("probes", 0) for r in doc["rows"])
                counts["report_bytes"] = docs[0].stat().st_size
            return counts

        ladder = ("universe", bound) if bound is not None else None
        ops.append(Op(f"cegis-lab {command}", run, check, ladder))
    return ops
