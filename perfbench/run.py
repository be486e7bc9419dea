"""The cegis-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N        # all four workloads, untraced then traced

Run it from the root of a checkout: the package is imported from ./src, and
logs, spans and result files go to ./.perfbench_out.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer split of a separate traced pass.
NOTES.md beside this file describes workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

from tracing import Tracer, load_summary

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent

# Fresh processes that time setup: one before the ops, then one after a
# pass whenever a sixteenth of --seconds has gone by since the last, so that
# the samples spread over the run; at least five in all.  Their median is
# setup_s.  One more runs first, untimed, so that every timed start finds
# compiled bytecode.
MIN_SETUP_SAMPLES = 5
SETUP_SPACING = 1 / 16
# Timed passes run while the next one fits in --seconds, and at least this
# often, so that each op is timed several times and its fastest time can
# reject the passes that other load on the host slowed.
MIN_TIMED_PASSES = 3
CHILD_TIMEOUT_S = 150



WORKLOADS = ("theorem1", "oracle-ladder", "history-probes", "cli-cold")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units(kind: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in benchmark_json()[kind]}


@dataclass
class PassResult:
    times: list = field(default_factory=list)  # seconds per op, in op order
    failures: list = field(default_factory=list)  # (op name, message)
    counts: Counter = field(default_factory=Counter)

    @property
    def wall(self) -> float:
        return sum(self.times)

    def fingerprint(self) -> dict:
        return {"counts": dict(sorted(self.counts.items())),
                "failed": sorted(name for name, _ in self.failures)}


def run_pass(ops, tracer=None) -> PassResult:
    """Run every op once.  Only the op itself is timed; its check, which
    also yields the op's exact counts, runs afterwards with tracing paused."""
    result = PassResult()
    for op in ops:
        call = op.run if tracer is None else tracer.wrap("op", op.run)
        error = None
        t0 = perf_counter()
        try:
            out = call()
        except Exception as exc:  # an op that raises is a failed op, never a crash
            error = f"raised {type(exc).__name__}: {exc}"
        result.times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
        try:
            if error is None:
                result.counts.update(op.check(out))
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.enabled = True
        if error is not None:
            result.failures.append((op.name, error))
    return result


def setup_time(workload: str) -> float:
    import workloads

    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "setup", workload],
        cwd=ROOT, env=workloads.child_env(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"]


def quantile(values, q: float) -> float:
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def scaling_exponent(ops, passes) -> tuple[float, dict]:
    """Mean over the workload's ladders of the log-log slope of op time
    between each ladder's two largest rungs.  A rung's time in a pass is the
    median over its ops; each ladder's slope is taken within every pass and
    its median over the passes is reported.  Both rungs of a pass ran
    seconds apart, so a host that slows for a while moves them together and
    leaves their ratio alone."""
    per_pass: dict = {}
    for p in passes:
        rungs: dict = {}
        for op, t in zip(ops, p.times):
            if op.ladder is not None:
                name, size = op.ladder
                rungs.setdefault(name, {}).setdefault(size, []).append(t)
        for name, by_size in rungs.items():
            (s1, t1), (s2, t2) = [(s, statistics.median(ts))
                                  for s, ts in sorted(by_size.items())[-2:]]
            per_pass.setdefault(name, []).append(math.log(t2 / t1) / math.log(s2 / s1))
    slopes = {name: statistics.median(v) for name, v in per_pass.items()}
    return statistics.mean(slopes.values()), slopes


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cegis_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=30)
        commit = proc.stdout.decode().strip() or commit
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy_version,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import workloads

    setup_time(workload)
    setup_samples = [setup_time(workload)]
    last_sample = perf_counter()
    ctx = workloads.setup(workload, ROOT)
    ops = workloads.build_ops(workload, ctx, seed)
    # Untimed warm-up pass: fills the families' language caches and the
    # check references, as a long-running session would have them.
    passes = [run_pass(ops)]
    # A traced run times one untraced pass, the baseline for tracing overhead.
    min_passes, budget = (1, 0.0) if traced else (MIN_TIMED_PASSES, seconds)
    timed = []
    while len(timed) < min_passes or sum(p.wall for p in timed) + timed[-1].wall <= budget:
        timed.append(run_pass(ops))
        if perf_counter() - last_sample >= seconds * SETUP_SPACING:
            setup_samples.append(setup_time(workload))
            last_sample = perf_counter()
    while len(setup_samples) < MIN_SETUP_SAMPLES:
        setup_samples.append(setup_time(workload))
    passes += timed

    layers = None
    if traced:
        tracer = Tracer()
        tracer.install()
        ctx.gens = {k: tracer.traced_step(g) for k, g in ctx.gens.items()}
        if workload == "cli-cold":
            ctx.cli_trace_dir = OUT / "cli-spans"
            ctx.cli_trace_dir.mkdir(parents=True, exist_ok=True)
            for old in ctx.cli_trace_dir.iterdir():
                old.unlink()
        try:
            traced_pass = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced_pass)
        summary = tracer.summary()
        tracer.dump(OUT / f"spans-{workload}-seed{seed}.bin", {"workload": workload})
        import_s, numpy_loaded = 0.0, "numpy" in sys.modules
        if workload == "cli-cold":
            import_s, numpy_loaded, summary = merge_cli_spans(ctx.cli_trace_dir, summary)
        layers = layer_metrics(summary, import_s, numpy_loaded,
                               traced_pass.wall, statistics.median(p.wall for p in timed))

    # Every pass must reproduce the warm-up pass's exact counts.
    reference = passes[0].fingerprint()
    drift = [k for k, p in enumerate(passes) if p.fingerprint() != reference]
    attempted = len(ops) * len(passes)
    failures = [f for p in passes for f in p.failures]
    unexpected = sorted({name for name, _ in failures} - workloads.KNOWN_DEFECTS)

    walls = [p.wall for p in timed]
    # Each op at its fastest over the timed passes.  Other tenants of the
    # host only ever add time, and they slow the whole host by up to half for
    # many seconds at a stretch, which moves a median of passes; the fastest
    # time needs only one pass the host left alone.
    op_times = [min(ts) for ts in zip(*(p.times for p in timed))]
    wall = sum(op_times)
    scaling, slopes = scaling_exponent(ops, timed)
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "op_p50_ms": quantile(op_times, 0.5) * 1000,
        "op_p90_ms": quantile(op_times, 0.9) * 1000,
        "queries_per_s": reference["counts"].get("queries", 0) / wall,
        "scaling_exp": scaling,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ops_ok_ratio": (attempted - len(failures)) / attempted,
    }
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "correct": not drift and not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "end_to_end": end_to_end,
        "per_layer": layers,
        "detail": {
            "env": environment(),
            "setup_samples_s": setup_samples,
            "timed_passes": len(timed),
            "pass_walls_s": walls,
            "op_samples": len(op_times),
            "ops_per_pass": len(ops),
            "ladder_slopes": slopes,
            "fingerprint": reference,
            "fingerprint_drift_passes": drift,
            "failures": sorted({f"{name}: {msg}" for name, msg in failures}),
            "unexpected_failures": unexpected,
        },
    }


def merge_cli_spans(span_dir: Path, parent_summary: dict):
    """Fold the CLI children's span files into the parent's summary.  A
    child that died before writing its file is already a failed op."""
    import_s = 0.0
    numpy_loaded = False
    merged = {"calls": Counter(parent_summary["calls"]),
              "self_s": Counter(parent_summary["self_s"]),
              "total_s": Counter(parent_summary["total_s"]),
              "counts": Counter(parent_summary["counts"]),
              "spans": parent_summary["spans"]}
    for path in sorted(span_dir.glob("*.spans")):
        header, summary = load_summary(path)
        import_s += header["import_s"]
        numpy_loaded = numpy_loaded or header["numpy_loaded"]
        for key in ("calls", "self_s", "total_s", "counts"):
            merged[key].update(summary[key])
        merged["spans"] += summary["spans"]
    return import_s, numpy_loaded, merged


SPAN_METRICS = {
    # metric prefix -> span name; `.s` is self time (span minus child spans)
    "core.trace_generate": ("calls", "s"),
    "core.members": ("calls", "s"),
    "core.semantically_equal": ("calls", "s"),
    "families.language": ("calls", "s"),
    "verifiers.check": ("calls", "s"),
    "verifiers.mincheck": ("calls", "s"),
    "verifiers.hcheck": ("calls", "s"),
    "engines.step": ("calls", "s"),
    "harness.theorem1_pair": ("s",),
    "harness.convergence_verdict": ("calls", "s"),
    "logio.run_jsonl": ("calls", "s"),
    "cli.main": ("s",),
}


def layer_metrics(summary: dict, import_s: float, numpy_loaded: bool,
                  traced_wall: float, untraced_wall: float) -> dict:
    calls, self_s, total_s, counts = (
        summary["calls"], summary["self_s"], summary["total_s"], summary["counts"],
    )
    m: dict = {}
    for span, kinds in SPAN_METRICS.items():
        if "calls" in kinds:
            m[f"{span}.calls"] = calls.get(span, 0)
        if "s" in kinds:
            m[f"{span}.s"] = self_s.get(span, 0.0)
    generated = counts.get("core.trace_entries_generated", 0)
    consumed = counts.get("core.trace_entries_consumed", 0)
    hchecks = calls.get("verifiers.hcheck", 0)
    m.update({
        "core.trace_entries_generated": generated,
        "core.trace_entries_consumed": consumed,
        "core.trace_use_ratio": consumed / generated if generated else 0.0,
        "families.numpy_loaded": int(numpy_loaded),
        "verifiers.hcheck.history_len_mean":
            counts.get("verifiers.hcheck.history_len", 0) / hchecks if hchecks else 0.0,
        # Inclusive engine spans.  Their self time is the loops' own
        # bookkeeping: each engine span minus its verifier, core and step
        # children.
        "engines.run_engine.s": total_s.get("engines.run_engine", 0.0),
        "engines.simulate.s": total_s.get("engines.simulate", 0.0),
        "engines.self_s": self_s.get("engines.run_engine", 0.0)
        + self_s.get("engines.simulate", 0.0),
        "engines.queries": counts.get("engines.queries", 0),
        "engines.iterations": counts.get("engines.iterations", 0),
        "engines.probes": counts.get("engines.probes", 0),
        "engines.probe_records": counts.get("engines.probe_records", 0),
        "engines.replay_records": counts.get("engines.replay_records", 0),
        "engines.lce.hits": counts.get("engines.lce.hits", 0),
        "engines.lce.misses": counts.get("engines.lce.misses", 0),
        "engines.lce.entries": counts.get("engines.lce.entries", 0),
        "logio.bytes": counts.get("logio.bytes", 0),
        "cli.import_s": import_s,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": summary["spans"],
    })
    return m


# Self-time rows of the printed split; what no span covers is "other" (the
# benchmark's op glue, and for CLI children interpreter start and exit).
SPLIT = (
    "core.trace_generate.s", "core.members.s", "core.semantically_equal.s",
    "families.language.s", "verifiers.check.s", "verifiers.mincheck.s", "verifiers.hcheck.s",
    "engines.self_s", "engines.step.s", "harness.theorem1_pair.s",
    "harness.convergence_verdict.s", "logio.run_jsonl.s", "cli.import_s", "cli.main.s",
)


def split_rows(layers: dict) -> list[tuple[str, float, float]]:
    wall = layers["trace.wall_s"]
    rows = [(name, layers[name]) for name in SPLIT]
    rows.append(("other", wall - sum(v for _, v in rows)))
    return [(name, v, v / wall) for name, v in sorted(rows, key=lambda r: -r[1])]


def report_lines(result: dict) -> list[str]:
    d = result["detail"]
    lines = [
        f"# workload {result['workload']}  seed {result['seed']}  "
        f"traced={int(result['traced'])}  correct={result['correct']}",
        f"# env {json.dumps(d['env'], sort_keys=True)}",
        f"# ops attempted {result['attempted']}  failed {result['failed']}  "
        f"({d['ops_per_pass']} ops/pass; warm-up + {d['timed_passes']} timed"
        f"{' + 1 traced' if result['traced'] else ''} passes)",
    ]
    for failure in d["failures"]:
        lines.append(f"#   failed: {failure}")
    if result["per_layer"] is None:
        lines += end_to_end_lines(result)
    else:
        layers = result["per_layer"]
        lines.append(f"# traced per-layer split (one traced pass; overhead "
                     f"{layers['trace.overhead_s']:+.3f} s over one untraced pass)")
        for label, value, share in split_rows(layers):
            lines.append(f"#   {label:<26} {value:>10.4f} s {share:>7.1%}")
        lines.append("# per-layer metrics")
        for name, unit in declared_units("per_layer").items():
            lines.append(f"#   {name:<36} {layers[name]:>14.6g} {unit}")
    return lines


def end_to_end_lines(result: dict) -> list[str]:
    d = result["detail"]
    e = result["end_to_end"]
    n = d["op_samples"]
    notes = {
        "setup_s": f"median of {len(d['setup_samples_s'])} fresh processes",
        "wall_s": f"sum over ops of each op's fastest of {d['timed_passes']} passes",
        "op_p50_ms": f"{n} ops, each its fastest of {d['timed_passes']} passes",
        "op_p90_ms": f"{n} ops, each its fastest of {d['timed_passes']} passes",
        "scaling_exp": ", ".join(f"{k} {v:.3f}" for k, v in sorted(d["ladder_slopes"].items())),
        "ops_ok_ratio": f"{result['attempted'] - result['failed']} ok of {result['attempted']}",
    }
    lines = ["# end-to-end metrics (untraced passes)"]
    for name, unit in declared_units("end_to_end").items():
        lines.append(f"#   {name:<14} {e[name]:>14.6g} {unit:<6} {notes.get(name, '')}")
    return lines


def result_line(result: dict) -> dict:
    kind = "end_to_end" if result["per_layer"] is None else "per_layer"
    values = result[kind]
    units = declared_units(kind)
    if set(units) != set(values):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_one(args) -> int:
    OUT.mkdir(exist_ok=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    print("\n".join(report_lines(result)))
    print(json.dumps(result_line(result)), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own fresh process: all untraced, then all traced.
    Prints the end-to-end table, then each workload's per-layer split."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = {}
    for trace in (0, 1):
        for workload in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
            lines = proc.stdout.decode().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode not in (0, 1) or not lines:
                combined["correct"] = False
                continue
            last = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and last["correct"]
            if trace == 0:
                combined["attempted"] += last["attempted"]
                combined["failed"] += last["failed"]
                table[workload] = last
            for name, metric in last["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
        if trace == 0:
            print(f"# end-to-end metrics, seed {args.seed}, untraced")
            print("#   " + f"{'metric':<14} {'unit':<6}" + "".join(f"{w:>16}" for w in table))
            for name, unit in declared_units("end_to_end").items():
                print("#   " + f"{name:<14} {unit:<6}" + "".join(
                    f"{table[w]['metrics'][name]['value']:>16.6g}" for w in table))
            print("#   " + f"{'failed/attempted':<21}" + "".join(
                f"{str(table[w]['failed']) + '/' + str(table[w]['attempted']):>16}" for w in table))
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark_json()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cegis_lab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cegis_lab'}; run from a cegis-lab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import cegis_lab

    if Path(cegis_lab.__file__).resolve().parent != (SRC / "cegis_lab").resolve():
        print(f"error: imported cegis_lab from {cegis_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
