"""Command-line entry point: single runs, demos, and report tables.

Exit codes for ``run``: 0 converged with semantic match, 2 stalled (or
converged on the wrong language), 3 budget exhausted, 1 an error.  ``demo``
exits 0 iff the demo's expected conclusion holds.  An error prints one
``error: ...`` line and exits 1: bad input (a flag, config key or value, or
target that the command cannot use, or a repeated config key), a config file
or report that cannot be read or is not UTF-8, an output directory (by
``--out`` or ``CEGIS_LAB_LOG_DIR``) that cannot be made, or an engine error
(a replay that consumes no entry: the cache lost a verdict; an oracle answer
contradicted the engine; or the probe budget ran out).  Bad input raises
ValueError, a file that cannot be read or made OSError, and an engine fault
EngineError; ``main`` alone turns each into the message.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .core import CANONICAL, PADDED_SEEDED, SCHEDULES, SEEDED_RANDOM, trace_generate
from .engines import (
    CEGIS,
    CONVERGED,
    ENGINES,
    SIMULATED_MINCEGIS,
    STALLED,
    EngineError,
    chain_generalizer,
    default_budget,
    default_stability_window,
    diag_generalizer,
    gold_generalizer,
    rectangle_generalizer,
    run_engine,
    simulate_min_via_arbitrary,
)
from .families import ChainFamily, DiagonalFamily, GoldFamily, RectangleFamily
from .logio import run_jsonl, summary_dict
from .verifiers import CONSISTENT_AVOIDING, FIRST_FOUND, STRATEGIES, CexStrategy
from .verifiers import SEEDED_RANDOM as RANDOM_CEX


# Gold and diagonal languages are (B+1)-bit masks, so their bound has a
# ceiling; a chain mask is min(i, B)+1 bits, and a rectangle's grid fixes B.
MASK_CEILING = 1 << 20
FAMILIES = ("chain", "rectangle", "diagonal", "gold")
# harness.DEMOS's names, stated here so that `run` does not load the demos
DEMOS = ("theorem1", "lemma1", "lemma2", "rectangle", "gold")
ASKS_CHECK = (CEGIS, SIMULATED_MINCEGIS)  # the engines that take a strategy


def _read(kind: str, path: str) -> str:
    """The text of the UTF-8 file at ``path``, a ``kind`` (config or report)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {kind} {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{kind} {path} is not UTF-8: {exc}") from exc


def _load_config(path: str) -> dict:
    """A UTF-8 file of one ``key = value`` per line, the value optionally quoted;
    a ``#`` comment stands on its own line, as after a value it is part of it."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(_read("config", path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:  # TOML forbids a repeated key too
            raise ValueError(f"{path}:{lineno}: duplicate key {key}")
        values[key] = value.strip().strip('"').strip("'")
    return values


def _setup(name: str, bound: Optional[int], spec: str):
    """The family ``name`` at universe bound ``bound`` (None: its default),
    the target ``spec`` names in it, and the family's generalizer.  The
    family and its bound range are checked first, and then the target's
    syntax, so that "bad target" prefixes only the target's own errors."""

    def within(least: int, most: Optional[int] = None) -> int:
        if bound < least:
            raise ValueError(f"universe bound must be at least {least} for family {name}, "
                             f"got {bound}")
        if most is not None and bound > most:
            raise ValueError(f"universe bound must be at most {most} for family {name}, "
                             f"got {bound}")
        return bound

    if name not in FAMILIES:
        raise ValueError(f"unknown family: {name}")
    if name == "chain":
        family = ChainFamily() if bound is None else ChainFamily(within(2) - 2)
    elif name == "rectangle":
        if bound is not None:
            raise ValueError("rectangle takes no universe bound: its grid fixes it")
        family = RectangleFamily()
    elif name == "diagonal":
        family = DiagonalFamily() if bound is None else DiagonalFamily(within(0, MASK_CEILING))
    else:
        family = GoldFamily() if bound is None else GoldFamily(within(0, MASK_CEILING))
    try:
        if name == "chain":
            return family, family.language(int(spec)), chain_generalizer(family)
        if name == "rectangle":
            ax, bx, ay, by = (int(v) for v in spec.split(","))
            return family, family.language(ax, bx, ay, by), rectangle_generalizer(family)
        if name == "diagonal":
            if spec.startswith("diag:"):
                target = family.diag_language(int(spec[5:]))
            elif spec.startswith("fin:"):
                target = family.fin_language(tuple(map(tuple, json.loads(spec[4:]))))
            else:
                raise ValueError("diagonal target must be diag:<i> or fin:<json pairs>")
            return family, target, diag_generalizer(family)
        if spec == "full":  # gold
            target = family.full_language()
        elif spec.startswith("minus:"):
            target = family.minus_language(int(spec[6:]))
        else:
            raise ValueError("gold target must be full or minus:<i>")
        return family, target, gold_generalizer(family)
    except (ValueError, TypeError, RecursionError) as exc:  # fin: JSON can nest too deeply
        raise ValueError(f"bad target {spec!r} for family {name}: {exc}") from exc


def _out_dir(arg: Optional[str]) -> Path:
    """The output directory, made with its missing parents; if it cannot be
    made, the parents made for it are removed again, deepest first."""
    path = Path(arg or os.environ.get("CEGIS_LAB_LOG_DIR") or ".")
    missing = [parent for parent in path.parents if not os.path.lexists(parent)]
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:
        for parent in filter(Path.is_dir, missing):
            parent.rmdir()
        raise
    return path


def _check_budget(budget: int) -> int:
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget}")
    if budget > sys.maxsize:  # a trace's length must fit len()
        raise ValueError(f"budget must be at most {sys.maxsize}, got {budget}")
    return budget


def cmd_run(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    read: set[str] = set()

    def pick(key, cast=str, default=None):
        read.add(key)
        if getattr(args, key) is not None:
            return getattr(args, key)
        if key in cfg:
            try:
                return cast(cfg[key])
            except ValueError:
                raise ValueError(f"config {key} = {cfg[key]!r} is not an integer") from None
        return default

    family_name, target_spec = pick("family"), pick("target")
    engine = pick("engine", default=CEGIS)
    bound, seed, budget = pick("universe_bound", int), pick("seed", int), pick("budget", int)
    schedule = pick("schedule", default=CANONICAL)
    kind = pick("strategy")
    unread = sorted(set(cfg) - read)
    if unread:
        raise ValueError(f"{args.config}: unknown key {unread[0]}; "
                         f"the keys are {', '.join(sorted(read))}")
    if family_name is None or target_spec is None:
        raise ValueError("run requires --family and --target")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine: {engine}")

    family, target, generalizer = _setup(family_name, bound, target_spec)
    budget = _check_budget(default_budget(target) if budget is None else budget)
    window = min(default_stability_window(target), budget)
    if kind is not None and engine not in ASKS_CHECK:
        raise ValueError(f"engine {engine} takes no strategy: only {' and '.join(ASKS_CHECK)} "
                         "ask the arbitrary-counterexample oracle")
    if kind == CONSISTENT_AVOIDING:
        raise ValueError("strategy consistent-avoiding needs an avoid set, "
                         "which the command line cannot give")
    if seed is not None and schedule not in (SEEDED_RANDOM, PADDED_SEEDED) and kind != RANDOM_CEX:
        raise ValueError(f"seed {seed} is unused: only the seeded-random and padded-seeded "
                         "schedules and the seeded-random strategy read it")
    seed = seed or 0
    strategy = CexStrategy(kind=kind or FIRST_FOUND, seed=seed)
    trace = trace_generate(target, schedule, seed=seed, length=budget)
    out = _out_dir(args.out)  # before any work: trace_generate makes no entry yet
    if engine == SIMULATED_MINCEGIS:
        run = simulate_min_via_arbitrary(
            target, trace, generalizer, strategy, budget=budget, stability_window=window,
        )
    else:
        run = run_engine(
            engine, target, trace, generalizer, strategy,
            budget=budget, stability_window=window,
        )

    stem = f"{family_name}-{engine}-{target_spec.replace(':', '_').replace(',', '_')}"
    log_path = out / f"{stem}.jsonl"
    log_path.write_text(run_jsonl(run, getattr(family, "decode", None)), encoding="utf-8")
    summary_path = out / f"{stem}.summary.json"
    summary_path.write_text(json.dumps(summary_dict(run), indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"{run.status} match={run.semantic_match} queries={run.queries} log={log_path}")

    if run.status == CONVERGED and run.semantic_match:
        return 0
    if run.status == STALLED or run.status == CONVERGED:
        return 2
    return 3


def cmd_demo(args) -> int:
    from . import harness  # the demos; `run` does not load them

    kwargs = harness.demo_kwargs(args.name, args.imax, args.budget)
    if args.budget is not None:
        _check_budget(args.budget)
    out = _out_dir(args.out)  # only once the flags are known good: a refused demo makes nothing
    report = harness.DEMOS[args.name](**kwargs)

    (out / f"demo-{args.name}.md").write_text(harness.report_markdown(report), encoding="utf-8")
    doc = json.dumps(report, indent=2, sort_keys=True) + "\n"
    (out / f"demo-{args.name}.json").write_text(doc, encoding="utf-8")
    print(f"{report['title']}: passed={report['passed']}")
    print(report["conclusion"])
    return 0 if report["passed"] else 1


def cmd_table(args) -> int:
    text = _read("report", args.report)
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"report {args.report} is not JSON: {exc}") from exc
    except RecursionError as exc:  # a RuntimeError, raised past the recursion limit
        raise ValueError(f"report {args.report} nests too deeply to read") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"report {args.report} is not a JSON object")
    from . import harness  # as in `demo`; `run` does not load it

    if "rows" in doc:  # demo report
        rows = doc["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
            raise ValueError(f"report {args.report}: rows must be a list of objects")
        print(harness.report_markdown(doc), end="")
    else:  # run summary
        print("\n".join(harness.markdown_table(("field", "value"),
                                                ((key, doc[key]) for key in sorted(doc)))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cegis-lab",
        description="Counterexample-guided inductive synthesis laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one synthesis run")
    run_p.add_argument("--config", help="flat key = value config file")
    run_p.add_argument("--family", help="|".join(FAMILIES))
    run_p.add_argument("--target", help="target spec (family-dependent)")
    run_p.add_argument("--engine", help="|".join(ENGINES))
    offered = (kind for kind in STRATEGIES if kind != CONSISTENT_AVOIDING)
    run_p.add_argument("--strategy", help=f"{'|'.join(offered)} ({', '.join(ASKS_CHECK)})")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--budget", type=int)
    run_p.add_argument("--universe-bound", dest="universe_bound", type=int)
    run_p.add_argument("--schedule", help="|".join(SCHEDULES))
    run_p.add_argument("--out", help="output directory (default: $CEGIS_LAB_LOG_DIR or .)")
    run_p.set_defaults(func=cmd_run)

    demo_p = sub.add_parser("demo", help="run a shipped demonstration")
    demo_p.add_argument("name", help="|".join(DEMOS))
    demo_p.add_argument("--imax", type=int)
    demo_p.add_argument("--budget", type=int)
    demo_p.add_argument("--out")
    demo_p.set_defaults(func=cmd_demo)

    table_p = sub.add_parser("table", help="render a report or summary JSON as Markdown")
    table_p.add_argument("report")
    table_p.set_defaults(func=cmd_table)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed its error; 2 is "stalled" here
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError, EngineError) as exc:  # the one place an error is shown
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
