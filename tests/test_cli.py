"""Command-line interface: exit codes, log files, determinism."""

import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cegis_lab
from cegis_lab import cli, engines, harness
from cegis_lab.cli import main


GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(*argv):
    return main(list(argv))


def chain5_args(out):
    return ("run", "--family", "chain", "--target", "5", "--engine", "cegis",
            "--out", str(out))


def test_run_chain_cegis_exit_and_log(tmp_path):
    assert run_cli(*chain5_args(tmp_path)) == 0
    log = (tmp_path / "chain-cegis-5.jsonl").read_text()
    lines = [json.loads(line) for line in log.splitlines()]
    assert len(lines) == 8  # conjectures chain[0]..chain[6] plus the freeze line
    assert sum(1 for l in lines if l["event"] == "conjecture") == 7
    assert sum(1 for l in lines if l["event"] == "freeze") == 1
    text = (tmp_path / "chain-cegis-5.summary.json").read_text()
    summary = json.loads(text)
    assert text == json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert summary["verdict"] == "converged"
    assert summary["semantic_match"] is True
    assert summary["final"] == "chain[5]"
    assert summary["queries"] == 7


def test_run_chain_hcegis_exit_2(tmp_path):
    code = run_cli("run", "--family", "chain", "--target", "5", "--engine", "hcegis",
                   "--budget", "100", "--out", str(tmp_path))
    assert code == 2
    summary = json.loads((tmp_path / "chain-hcegis-5.summary.json").read_text())
    assert summary["verdict"] == "stalled"


def test_run_unknown_family_exit_1(tmp_path):
    code = run_cli("run", "--family", "nosuch", "--target", "5", "--out", str(tmp_path))
    assert code == 1


def test_run_unknown_engine_exit_1(tmp_path):
    code = run_cli("run", "--family", "chain", "--target", "5",
                   "--engine", "nosuch", "--out", str(tmp_path))
    assert code == 1


def test_run_missing_target_exit_1(tmp_path):
    assert run_cli("run", "--family", "chain", "--out", str(tmp_path)) == 1


def test_run_budget_exhausted_exit_3(tmp_path):
    code = run_cli("run", "--family", "rectangle", "--target=-1,1,-1,1",
                   "--engine", "mincegis", "--budget", "3", "--out", str(tmp_path))
    assert code == 3


def test_run_verdict_is_the_engine_status(tmp_path, capsys):
    # The one step moves chain[0] to chain[1], which the budget never lets
    # the verifier see: the run has not converged.
    code = run_cli("run", "--family", "chain", "--target", "1", "--engine", "cegis",
                   "--budget", "1", "--out", str(tmp_path))
    assert code == 3
    assert capsys.readouterr().out.startswith("budget-exhausted ")
    summary = json.loads((tmp_path / "chain-cegis-1.summary.json").read_text())
    assert summary["verdict"] == "budget-exhausted"
    assert summary["converged_at"] is None


def test_run_rectangle_target_spec(tmp_path):
    code = run_cli("run", "--family", "rectangle", "--target=-1,1,-1,1",
                   "--engine", "mincegis", "--budget", "400", "--out", str(tmp_path))
    assert code == 0
    log = (tmp_path / "rectangle-mincegis--1_1_-1_1.jsonl").read_text()
    first = json.loads(log.splitlines()[0])
    assert "trace_entry_pair" in first or first["trace_entry"] is None


def test_run_diagonal_and_gold_target_specs(tmp_path):
    assert run_cli("run", "--family", "diagonal", "--target", "diag:3",
                   "--engine", "hcegis", "--budget", "120", "--out", str(tmp_path)) == 0
    assert run_cli("run", "--family", "gold", "--target", "minus:17",
                   "--engine", "cegis", "--out", str(tmp_path)) == 0


def test_run_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = chain\ntarget = 5\nengine = cegis\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 0


def test_config_comments_and_blank_lines_are_skipped(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a chain run\n\nfamily = chain\n   \n  # target below\ntarget = 5\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 0
    golden = (GOLDEN_DIR / "chain-cegis-5.jsonl").read_bytes()
    assert (tmp_path / "chain-cegis-5.jsonl").read_bytes() == golden


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CEGIS_LAB_LOG_DIR", str(tmp_path / "logs"))
    assert run_cli("run", "--family", "chain", "--target", "5",
                   "--engine", "cegis") == 0
    assert (tmp_path / "logs" / "chain-cegis-5.jsonl").exists()


def test_replay_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("run", "--family", "rectangle", "--target=-1,1,-1,1",
                "--engine", "simulated-mincegis", "--schedule", "padded-seeded",
                "--seed", "11", "--budget", "20000", "--out", str(out))
    name = "rectangle-simulated-mincegis--1_1_-1_1.jsonl"
    assert (a / name).read_bytes() == (b / name).read_bytes()


RECTANGLE = ("run", "--family", "rectangle", "--target=-1,1,-1,1", "--engine")
DEMOS = ("gold", "lemma1", "lemma2", "rectangle", "theorem1")
# Each file under tests/golden/, and the command that writes it.
GOLDEN = [
    (("run", "--family", "chain", "--target", "5", "--engine", "cegis"), "chain-cegis-5.jsonl"),
    # Every probe record and its "...&{k}" descriptor of a rectangle run.
    (RECTANGLE + ("simulated-mincegis",), "rectangle-simulated-mincegis--1_1_-1_1.jsonl"),
    # Each minimal counterexample of the direct run, the radial least of its difference set.
    (RECTANGLE + ("mincegis",), "rectangle-mincegis--1_1_-1_1.jsonl"),
] + [(("demo", demo), f"demo-{demo}.{ext}") for demo in DEMOS for ext in ("json", "md")]


@pytest.mark.parametrize("argv,name", GOLDEN, ids=[name for _, name in GOLDEN])
def test_golden(tmp_path, argv, name):
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(name for _, name in GOLDEN)


def test_demo_subcommand_writes_reports(tmp_path):
    assert run_cli("demo", "lemma1", "--imax", "5", "--out", str(tmp_path)) == 0
    md = (tmp_path / "demo-lemma1.md").read_text()
    doc = json.loads((tmp_path / "demo-lemma1.json").read_text())
    assert doc["passed"] is True
    assert "| family |" in md


def test_demo_unknown_name_exit_1(tmp_path):
    assert run_cli("demo", "nosuch", "--out", str(tmp_path)) == 1


def test_table_subcommand(tmp_path, capsys):
    run_cli("demo", "lemma1", "--imax", "2", "--out", str(tmp_path))
    capsys.readouterr()
    assert run_cli("table", str(tmp_path / "demo-lemma1.json")) == 0
    # A demo report renders as the Markdown that `demo` wrote beside it.
    assert capsys.readouterr().out == (tmp_path / "demo-lemma1.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("demo", DEMOS)
def test_table_prints_the_golden_markdown_of_each_demo(demo):
    code, out, err = invoke(["table", str(GOLDEN_DIR / f"demo-{demo}.json")])
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN_DIR / f"demo-{demo}.md").read_bytes()


DEMO_HEADER = "| family | target | variant | seed | status | match | queries | cexs |"
ROW_KEYS = ("family", "target", "variant", "seed", "status", "semantic_match", "queries",
            "counterexamples")
JSON_TEXT = st.text(max_size=8) | st.sampled_from(["|", "a | b", "|---|", "\n"])
# Text that holds line breaks: each separator str.splitlines splits at, trailing too.
BROKEN_TEXT = st.text(alphabet="\r\n\v\f\x1c\x1d\x1e\x85\u2028\u2029|a", max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_TEXT, inner, max_size=3),
    max_leaves=6,
)
REPORT_ROWS = st.lists(
    st.fixed_dictionaries({}, optional={key: JSON_VALUES for key in ROW_KEYS + ("extra",)}),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(doc=st.fixed_dictionaries({}, optional={
    "title": BROKEN_TEXT | JSON_VALUES, "rows": REPORT_ROWS | JSON_VALUES,
    "conclusion": BROKEN_TEXT | JSON_VALUES, "passed": BROKEN_TEXT | JSON_VALUES,
    "verdict": JSON_VALUES,
}))
def test_table_never_shows_a_traceback(doc):
    """Any JSON object, with or without rows, renders (exit 0, nothing on
    stderr) or is refused with one ``error:`` line (exit 1, nothing on stdout).
    A rendered table has one line per report row, or per key of a run summary,
    each with the header's cell count: a ``|`` or a line break in a value
    stays inside its cell.  A report's heading is one line, and so are its
    conclusion and its passed line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = invoke(["table", str(path)])
    if code == 0:
        assert err == ""
        lines = out.splitlines()
        if "rows" in doc:  # a demo report: its heading is one line
            header, rows = DEMO_HEADER, doc["rows"]
            assert lines[0].startswith("# ") and lines[1:3] == ["", header]
        else:
            header, rows = "| field | value |", doc
        cells = len(header.split(" | "))
        top = lines.index(header) + 2
        assert lines[top - 1] == "|" + "---|" * cells
        after = lines[top + len(rows):]
        if "rows" in doc:  # the table ends at a blank line, and two one-line values follow
            assert len(after) == 3 and after[0] == ""
            assert after[1].startswith("**Conclusion**: ") and after[2].startswith("**Passed**: ")
        else:  # a run summary: its table is the whole output
            assert after == []
        for line in lines[top:top + len(rows)]:
            assert line.startswith("| ") and line.endswith(" |")
            assert len(re.split(r"(?<!\\)\|", line)) == cells + 2  # unescaped pipes
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_table_renders_a_run_summary(tmp_path, capsys):
    assert run_cli(*chain5_args(tmp_path)) == 0
    capsys.readouterr()
    assert run_cli("table", str(tmp_path / "chain-cegis-5.summary.json")) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "| field | value |\n|---|---|\n| converged_at | 7 |\n| counterexamples | 1 |\n"
        "| final | chain[5] |\n| iterations | 8 |\n| probes | 0 |\n| queries | 7 |\n"
        "| semantic_match | True |\n| verdict | converged |\n"
    )
    assert captured.err == ""


def test_simulation_sweep_that_never_refutes_exits_1(tmp_path, capsys, monkeypatch):
    # A verifier that refutes conjectures but never a singleton probe: the
    # first sweep walks the whole universe and the engine reports it.
    real = engines.check
    monkeypatch.setattr(engines, "check", lambda c, t, s: None if "&{" in c.descriptor
                        else real(c, t, s))
    code = run_cli("run", "--family", "gold", "--universe-bound", "8", "--target", "minus:3",
                   "--engine", "simulated-mincegis", "--out", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: probe sweep exhausted the universe without a counterexample\n"


def test_summary_queries_recomputable_from_log(tmp_path):
    run_cli("run", "--family", "rectangle", "--target=-1,1,-1,1",
            "--engine", "mincegis", "--budget", "400", "--out", str(tmp_path))
    stem = tmp_path / "rectangle-mincegis--1_1_-1_1"
    lines = [json.loads(l) for l in (stem.parent / (stem.name + ".jsonl")).read_text().splitlines()]
    summary = json.loads((stem.parent / (stem.name + ".summary.json")).read_text())
    queried = [l for l in lines if l["event"] in ("conjecture", "probe")]
    assert summary["queries"] == len(queried)
    assert summary["queries"] == sum(1 for l in queried if l["cex"] is not None) + \
        sum(1 for l in queried if l["cex"] is None)


CHAIN5 = ("run", "--family", "chain", "--target", "5", "--engine", "cegis")
CHAIN7 = ("run", "--family", "chain", "--target", "7", "--engine")


@pytest.mark.parametrize("argv", [
    CHAIN5 + ("--budget", "0"),
    CHAIN5 + ("--budget", "-3"),
    CHAIN5 + ("--strategy", "nosuch"),
    CHAIN5 + ("--schedule", "nosuch"),
    # A strategy for an engine that never asks the arbitrary oracle.
    CHAIN7 + ("mincegis", "--strategy", "adversarial-max"),
    CHAIN7 + ("hcegis", "--strategy", "first-found"),
    CHAIN7 + ("positive-only", "--strategy", "seeded-random", "--seed", "9"),
    ("run", "--config", "{tmp}/mincegis-strategy.cfg"),
    # consistent-avoiding has no way to receive its avoid set.
    CHAIN7 + ("cegis", "--strategy", "consistent-avoiding"),
    CHAIN7 + ("simulated-mincegis", "--strategy", "consistent-avoiding"),
    ("run", "--config", "{tmp}/missing.cfg"),
    ("run", "--config", "{tmp}/bad-budget.cfg"),
    ("run", "--family", "rectangle", "--target=-1,1,-1,1", "--universe-bound", "100"),
    ("demo", "theorem1", "--budget", "10"),
    ("demo", "lemma1", "--budget", "0"),
    ("demo", "lemma1", "--imax", "121"),
    ("demo", "lemma2", "--imax", "3"),
    ("demo", "gold", "--imax", "3"),
    ("demo", "nosuch"),
    # A lemma1 budget below i_max + 2, Lemma 1's query count.
    ("demo", "lemma1", "--imax", "99"),
    ("demo", "lemma1", "--budget", "21"),
    # A seed that neither the schedule nor the strategy reads.
    CHAIN5 + ("--seed", "9"),
    CHAIN7 + ("mincegis", "--seed", "9"),
    CHAIN7 + ("cegis", "--strategy", "adversarial-max", "--seed", "3"),
    ("run", "--config", "{tmp}/unused-seed.cfg"),
    # Config keys that nothing reads.
    ("run", "--config", "{tmp}/typo.cfg"),
    ("run", "--config", "{tmp}/out.cfg"),
    ("run", "--config", "{tmp}/generalizer.cfg"),
    # Universe bounds below the family's least bound.
    ("run", "--family", "diagonal", "--universe-bound", "-5", "--target", "diag:0"),
    ("run", "--family", "gold", "--universe-bound", "-3", "--target", "full"),
    ("run", "--family", "chain", "--universe-bound", "1", "--target", "0"),
    ("run", "--config", "{tmp}/low-bound.cfg"),
    # Budgets too large for a trace's length, given or the default 10 * B.
    CHAIN5 + ("--budget", "99999999999999999999"),
    ("demo", "lemma1", "--budget", "99999999999999999999"),
    ("run", "--family", "chain", "--universe-bound", "99999999999999999999", "--target", "5"),
    # fin: coordinates that are JSON values other than integers.
    ("run", "--family", "diagonal", "--target", "fin:[[true,2]]"),
    ("run", "--family", "diagonal", "--target", "fin:[[false,2],[1,3]]"),
    ("run", "--family", "diagonal", "--target", "fin:[[1,2.0]]"),
    # Gold and diagonal masks are B+1 bits: bounds above 2**20 are refused.
    ("run", "--family", "gold", "--universe-bound", "99999999999999999999", "--target", "full"),
    ("run", "--family", "diagonal", "--target", "diag:3", "--universe-bound", "99999999999999"),
    ("run", "--family", "gold", "--universe-bound", "1048577", "--target", "full"),
    ("run", "--family", "diagonal", "--universe-bound", "1048577", "--target", "diag:3"),
    # Targets that name no member of the family.
    ("run", "--family", "diagonal", "--target", "foo"),
    ("run", "--family", "gold", "--target", "foo"),
    ("run", "--family", "diagonal", "--target", "fin:[]"),
    ("run", "--family", "diagonal", "--target", "fin:[[1,40]]"),
    ("run", "--family", "diagonal", "--target", "diag:40"),
    # A config line that is not key = value.
    ("run", "--config", "{tmp}/no-equals.cfg"),
    # A comment after a value is part of the value: the family "chain\"  # the chain family".
    ("run", "--config", "{tmp}/trailing-comment.cfg"),
    # A fin: list nested past the recursion limit.
    ("run", "--family", "diagonal", "--target", "fin:" + "[" * 3000 + "]" * 3000),
])
def test_bad_flags_exit_1_with_a_message(tmp_path, capsys, argv):
    (tmp_path / "bad-budget.cfg").write_text("family = chain\ntarget = 5\nbudget = ten\n")
    (tmp_path / "mincegis-strategy.cfg").write_text(
        "family = chain\ntarget = 7\nengine = mincegis\nstrategy = first-found\n")
    (tmp_path / "unused-seed.cfg").write_text("family = chain\ntarget = 5\nseed = 9\n")
    (tmp_path / "typo.cfg").write_text("family = chain\ntarget = 5\nbudgett = 3\n")
    (tmp_path / "out.cfg").write_text(f"family = chain\ntarget = 5\nout = {tmp_path}/cfg-out\n")
    (tmp_path / "generalizer.cfg").write_text("family = chain\ntarget = 5\ngeneralizer = chain\n")
    (tmp_path / "low-bound.cfg").write_text("family = chain\ntarget = 0\nuniverse_bound = -1\n")
    (tmp_path / "no-equals.cfg").write_text("family = chain\ntarget 5\n")
    (tmp_path / "trailing-comment.cfg").write_text(
        'family = "chain"  # the chain family\ntarget = 5\n')
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run_cli(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv,code,queries", [
    # Lemma 1 at the top target: i + 2 queries, the last one on chain[121].
    (("run", "--family", "chain", "--target", "120", "--engine", "cegis"), 0, 122),
    # Unrefuted, the learner climbs the whole default budget and stalls.
    (CHAIN5[:-1] + ("hcegis",), 2, 1220),
    (CHAIN5[:-1] + ("positive-only",), 2, 1220),
    (("run", "--family", "chain", "--universe-bound", "2", "--target", "0"), 0, 2),
    (("demo", "lemma1", "--imax", "118", "--budget", "200"), 0, None),
])
def test_the_chain_learner_has_no_cap(tmp_path, capsys, argv, code, queries):
    assert run_cli(*argv, "--out", str(tmp_path)) == code
    if queries is not None:
        assert f" queries={queries} " in capsys.readouterr().out


def test_unknown_config_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = chain\ntarget = 5\nzeta = 1\nbudgett = 3\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 1
    assert "unknown key budgett" in capsys.readouterr().err  # the first of two, sorted


@pytest.mark.parametrize("argv,message", [
    (("run", "--family", "nosuch", "--target", "5"), "unknown family: nosuch"),
    (("run", "--family", "chain"), "run requires --family and --target"),
    (("run", "--target", "5"), "run requires --family and --target"),
    (CHAIN7 + ("mincegis", "--strategy", "adversarial-max"), "engine mincegis takes no strategy: "
     "only cegis and simulated-mincegis ask the arbitrary-counterexample oracle"),
    (("run", "--config", "{tmp}/no-equals.cfg"), "{tmp}/no-equals.cfg:2: expected key = value"),
])
def test_an_error_names_its_fault(tmp_path, argv, message):
    (tmp_path / "no-equals.cfg").write_text("family = chain\ntarget 5\n")
    code, stdout, stderr = invoke([a.format(tmp=tmp_path) for a in argv])
    assert (code, stdout, stderr) == (1, "", f"error: {message.format(tmp=tmp_path)}\n")


def test_repeated_config_key_is_named(tmp_path):
    # TOML forbids a repeated key; keeping the last value would run chain[7].
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = chain\ntarget = 5\ntarget = 7\n")
    out = tmp_path / "out"
    code, stdout, stderr = invoke(["run", "--config", str(cfg), "--out", str(out)])
    assert (code, stdout, stderr) == (1, "", f"error: {cfg}:3: duplicate key target\n")
    assert not out.exists()


@pytest.mark.parametrize("family,bound,target,least", [
    ("chain", "1", "0", 2),
    ("gold", "-3", "full", 0),
    ("diagonal", "-5", "diag:0", 0),
])
def test_universe_bound_below_the_least_names_it(tmp_path, capsys, family, bound, target, least):
    assert run_cli("run", "--family", family, "--universe-bound", bound, "--target", target,
                   "--out", str(tmp_path)) == 1
    assert f"at least {least} for family {family}" in capsys.readouterr().err


@pytest.mark.parametrize("family,target", [("gold", "full"), ("diagonal", "diag:3")])
def test_universe_bound_above_the_ceiling_names_it(tmp_path, capsys, family, target):
    assert run_cli("run", "--family", family, "--universe-bound", "1048577", "--target", target,
                   "--out", str(tmp_path)) == 1
    assert f"at most 1048576 for family {family}, got 1048577" in capsys.readouterr().err


def test_universe_bound_at_the_ceiling_is_accepted(tmp_path, capsys):
    assert run_cli("run", "--family", "gold", "--universe-bound", "1048576",
                   "--target", "minus:17", "--engine", "cegis", "--out", str(tmp_path)) == 0
    assert " queries=1 " in capsys.readouterr().out


def test_generalizer_flag_is_gone(tmp_path, capsys):
    assert run_cli(*CHAIN5, "--generalizer", "chain", "--out", str(tmp_path)) == 1
    assert "--generalizer" in capsys.readouterr().err


def test_unparsable_flag_exits_1_not_the_stalled_code(tmp_path, capsys):
    assert run_cli(*CHAIN5, "--budget", "ten", "--out", str(tmp_path)) == 1
    assert "invalid int value" in capsys.readouterr().err


@pytest.mark.parametrize("argv,usage", [
    (("--help",), "usage: cegis-lab [-h]"), (("run", "--help"), "usage: cegis-lab run [-h]"),
])
def test_help_exits_0_with_the_usage_on_stdout(argv, usage):
    code, stdout, stderr = invoke(list(argv))
    assert code == 0 and stderr == "" and stdout.startswith(usage)


def test_each_help_list_is_the_list_that_decides(monkeypatch):
    """The help lists the families, engines, strategies, schedules and demos in
    the words it always has; cli.DEMOS holds harness.DEMOS's names, in order,
    and _setup accepts each of cli.FAMILIES."""
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps the help at the terminal's width
    helps = {command: invoke([command, "--help"])[1] for command in ("run", "demo")}
    for command, words in (
            ("run", "chain|rectangle|diagonal|gold"),
            ("run", "cegis|mincegis|hcegis|positive-only|simulated-mincegis"),
            ("run", "first-found|seeded-random|adversarial-max (cegis, simulated-mincegis)"),
            ("run", "canonical|seeded-random|padded-seeded"),
            ("demo", "theorem1|lemma1|lemma2|rectangle|gold")):
        assert f"  {words}\n" in helps[command]
    assert cli.DEMOS == tuple(harness.DEMOS)
    targets = {"chain": "5", "rectangle": "-1,1,-1,1", "diagonal": "diag:3", "gold": "full"}
    assert cli.FAMILIES == tuple(targets)
    for name, target in targets.items():
        _, language, _ = cli._setup(name, None, target)
        assert language.descriptor.startswith(name[:4])


def test_chain_universe_bound_is_used(tmp_path):
    # Bound 12 caps the chain at index 10.
    assert run_cli(*CHAIN5, "--universe-bound", "12", "--out", str(tmp_path)) == 0
    assert run_cli("run", "--family", "chain", "--target", "11", "--universe-bound", "12",
                   "--out", str(tmp_path)) == 1


def test_universe_bound_zero_has_a_default_budget(tmp_path, capsys):
    for family, target in (("gold", "full"), ("diagonal", "diag:0")):
        assert run_cli("run", "--family", family, "--universe-bound", "0",
                       "--target", target, "--out", str(tmp_path)) == 0
    # gold[-0] at B = 0 is empty: the error names that, not a budget never given.
    assert run_cli("run", "--family", "gold", "--universe-bound", "0",
                   "--target", "minus:0", "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "budget" not in err and "nonempty language" in err


def test_rectangle_runs_do_not_import_numpy(tmp_path):
    script = ("import sys; from cegis_lab.cli import main; code = main(sys.argv[1:]); "
              "print('numpy' in sys.modules); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(Path(cegis_lab.__file__).parents[1]))
    for argv in (("run", "--family", "rectangle", "--target=-1,1,-1,1", "--engine", "mincegis"),
                 ("demo", "rectangle")):
        proc = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


def test_cli_import_loads_no_demos_and_one_dataclass():
    """A fresh `import cegis_lab.cli` leaves the demos in `harness` unloaded,
    and Generalizer is the package's only dataclass."""
    script = (
        "import importlib, pkgutil, sys, cegis_lab, cegis_lab.cli\n"
        "print('cegis_lab.harness' in sys.modules)\n"
        "mods = [importlib.import_module('cegis_lab.' + m.name)\n"
        "        for m in pkgutil.iter_modules(cegis_lab.__path__)]\n"
        "print(sorted({f'{v.__module__}.{v.__qualname__}' for m in mods\n"
        "              for v in vars(m).values() if isinstance(v, type)\n"
        "              and v.__module__.startswith('cegis_lab')\n"
        "              and hasattr(v, '__dataclass_fields__')}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cegis_lab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "['cegis_lab.engines.Generalizer']"]


def test_no_runtime_dependencies():
    pyproject = Path(cegis_lab.__file__).parents[2] / "pyproject.toml"
    assert "\ndependencies = []\n" in pyproject.read_text()


@pytest.mark.parametrize("engine,strategy", [
    ("cegis", "adversarial-max"),
    ("simulated-mincegis", "seeded-random"),
])
def test_strategy_is_accepted_where_it_is_used(tmp_path, engine, strategy):
    assert run_cli(*CHAIN7, engine, "--strategy", strategy, "--out", str(tmp_path)) == 0


@pytest.mark.parametrize("flags", [
    ("--schedule", "padded-seeded"),
    ("--engine", "cegis", "--strategy", "seeded-random"),
])
def test_seed_is_accepted_where_it_is_read(tmp_path, flags):
    argv = ("run", "--family", "chain", "--target", "5", "--seed", "9", *flags)
    assert run_cli(*argv, "--out", str(tmp_path)) == 0


def test_a_seeded_schedule_without_a_seed_runs_seed_0(tmp_path):
    logs = {}
    for seed in (None, "0", "1"):
        out = tmp_path / str(seed)
        flags = () if seed is None else ("--seed", seed)
        assert run_cli(*CHAIN5, "--schedule", "padded-seeded", *flags, "--out", str(out)) == 0
        logs[seed] = (out / "chain-cegis-5.jsonl").read_bytes()
    assert logs[None] == logs["0"] != logs["1"]


def test_a_budget_of_sys_maxsize_is_accepted(tmp_path):
    # The largest budget a trace's length can take; one more is bad input.
    assert run_cli(*CHAIN5, "--budget", str(sys.maxsize), "--out", str(tmp_path)) == 0


@pytest.mark.parametrize("name,content", [
    ("missing.json", None),
    ("broken.json", "{not json"),
    ("list.json", "[1,2]"),
    ("rows.json", '{"rows": 5}'),
    # Nested past the recursion limit, where json.loads raises RecursionError.
    pytest.param("deep.json", "[" * 100_000 + "]" * 100_000, id="deep.json-100000-levels"),
    ("latin1.json", b'{"rows": [], "conclusion": "caf\xe9"}'),
])
def test_table_bad_report_exits_1_with_a_message(tmp_path, capsys, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    assert run_cli("table", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert str(path) in captured.err
    assert captured.out == ""


def cli_process(cwd: Path, *argv, python_flags=(), **env) -> subprocess.CompletedProcess:
    """``cegis-lab argv`` in a fresh interpreter, run in ``cwd`` with ``env``
    added to this process's environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(cegis_lab.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, *python_flags, "-m", "cegis_lab.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


def test_a_utf8_config_runs_in_an_ascii_locale(tmp_path):
    (tmp_path / "run.cfg").write_bytes("family = chain\ntarget = 5\n# café\n".encode())
    proc = cli_process(tmp_path, "run", "--config", "run.cfg",
                       LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert proc.returncode == 0, proc.stderr
    golden = (GOLDEN_DIR / "chain-cegis-5.jsonl").read_bytes()
    assert (tmp_path / "chain-cegis-5.jsonl").read_bytes() == golden


def test_every_file_is_read_and_written_as_utf8(tmp_path):
    """No read or write leaves the encoding to the locale: each would warn."""
    (tmp_path / "run.cfg").write_text("family = chain\ntarget = 5\n")
    for argv in (("run", "--family", "chain", "--target", "5"), ("run", "--config", "run.cfg"),
                 ("demo", "lemma1", "--imax", "2"), ("table", "demo-lemma1.json"),
                 ("table", "chain-cegis-5.summary.json")):
        proc = cli_process(tmp_path, *argv, python_flags=(
            "-X", "warn_default_encoding", "-W", "error::EncodingWarning"))
        assert proc.returncode == 0, (argv, proc.stderr)


def test_an_unusable_out_fails_before_any_work(tmp_path, capsys, monkeypatch):
    def work(*args, **kwargs):
        pytest.fail("the run started before its output directory was made")

    monkeypatch.setattr(cli, "run_engine", work)
    monkeypatch.setattr(cli, "simulate_min_via_arbitrary", work)
    for name in harness.DEMOS:
        monkeypatch.setitem(harness.DEMOS, name, work)
    (tmp_path / "afile").write_text("not a directory\n")
    for argv in (CHAIN5, CHAIN7 + ("simulated-mincegis",), ("demo", "lemma1")):
        assert run_cli(*argv, "--out", str(tmp_path / "afile" / "x")) == 1
        assert capsys.readouterr().err.startswith("error: ")


def tree(root: Path) -> dict:
    """Every path under ``root``, with a file's bytes (None for a directory)."""
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("argv,log_dir", [
    (("run", "--config", "{tmp}/latin1.cfg", "--out", "{tmp}/out"), None),
    (CHAIN5 + ("--out", "{tmp}/afile"), None),
    (CHAIN5 + ("--out", "{tmp}/afile/sub"), None),
    (CHAIN5, "{tmp}/afile"),
    # A name too long for the file system, under a directory that is made first.
    (CHAIN5 + ("--out", "{tmp}/new/" + "x" * 300), None),
    (("demo", "gold", "--out", "{tmp}/new/deeper/" + "x" * 300), None),
], ids=["config-not-utf8", "out-is-a-file", "out-under-a-file", "log-dir-is-a-file",
        "out-name-too-long", "demo-out-name-too-long"])
def test_unreadable_config_or_output_dir_exits_1_with_a_message(
        tmp_path, capsys, monkeypatch, argv, log_dir):
    (tmp_path / "latin1.cfg").write_bytes(b"family = chain\ntarget = 5\n# caf\xe9\n")
    (tmp_path / "afile").write_text("not a directory\n")
    monkeypatch.chdir(tmp_path)  # where a run without --out would write
    if log_dir is not None:
        monkeypatch.setenv("CEGIS_LAB_LOG_DIR", log_dir.format(tmp=tmp_path))
    before = tree(tmp_path)
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert str(tmp_path) in captured.err  # the path of the config or the output directory
    assert tree(tmp_path) == before


# ---------------------------------------------------------------------------
# The CLI contract as a property: a valid run setting, delivered by flags or
# by a config file, with at most one defect injected.

FAMILIES = ("chain", "rectangle", "diagonal", "gold")
ENGINES = ("cegis", "mincegis", "hcegis", "positive-only", "simulated-mincegis")
ASKS_CHECK = ("cegis", "simulated-mincegis")  # the engines that take a strategy
KINDS = ("first-found", "seeded-random", "adversarial-max")
SEEDED = ("seeded-random", "padded-seeded")


@st.composite
def run_settings(draw, families=FAMILIES):
    """A setting the CLI accepts, as {config key: value}: small bounds and
    budgets, and a budget always for the rectangle family and the diagonal
    family at its default bound of 600."""
    family = draw(st.sampled_from(families))
    bound = None
    if family == "chain":
        bound = draw(st.none() | st.integers(2, 12))
        target = str(draw(st.integers(0, 120 if bound is None else bound - 2)))
    elif family == "rectangle":
        (ax, bx), (ay, by) = (sorted(draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2)))
                              for _ in range(2))
        target = f"{ax},{bx},{ay},{by}"
    elif family == "diagonal":
        bound = draw(st.none() | st.integers(20, 60))  # fin codes below reach 19
        if draw(st.booleans()):
            top = (isqrt(8 * (bound or 600) + 9) - 3) // 2
            target = f"diag:{draw(st.integers(0, top))}"
        else:
            pairs = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 4)), max_size=2))
            pairs.append((1, draw(st.integers(0, 4))))
            target = "fin:" + json.dumps(pairs, separators=(",", ":"))
    else:
        bound = draw(st.none() | st.integers(1, 12))  # gold[-0] at B = 0 is empty
        target = draw(st.just("full") | st.integers(0, bound or 50).map("minus:{}".format))
    engine = draw(st.sampled_from(ENGINES))
    strategy = draw(st.none() | st.sampled_from(KINDS)) if engine in ASKS_CHECK else None
    schedule = draw(st.none() | st.sampled_from(("canonical",) + SEEDED))
    seed = None
    if schedule in SEEDED or strategy == "seeded-random":
        seed = draw(st.none() | st.integers(0, 99))
    if family == "rectangle" or family == "diagonal" and bound is None:
        budget = draw(st.integers(1, 40))
    else:
        budget = draw(st.none() | st.integers(1, 40))
    setting = {"family": family, "target": target, "engine": engine, "strategy": strategy,
               "schedule": schedule, "seed": seed, "budget": budget, "universe_bound": bound}
    return {key: str(value) for key, value in setting.items() if value is not None}


def inject(defect, setting, draw):
    """Make ``setting`` wrong in the one way ``defect`` names.  Return the
    config lines to add (None: the defect is in the setting alone) and
    whether ``--out`` names a file."""
    family, extra, out_is_file = setting["family"], None, False
    if defect == "unknown-engine":
        setting["engine"] = "nosuch"
    elif defect == "unknown-schedule":
        setting["schedule"] = "nosuch"
    elif defect == "unknown-strategy":
        setting.update(engine=draw(st.sampled_from(ASKS_CHECK)), strategy="nosuch")
    elif defect == "strategy-without-check":
        setting.update(engine=draw(st.sampled_from(("mincegis", "hcegis", "positive-only"))),
                       strategy=draw(st.sampled_from(KINDS)))
    elif defect == "consistent-avoiding":
        setting.update(engine=draw(st.sampled_from(ASKS_CHECK)), strategy="consistent-avoiding")
    elif defect == "unused-seed":
        if setting.get("strategy") == "seeded-random":
            del setting["strategy"]
        setting.pop("schedule", None)
        if draw(st.booleans()):
            setting["schedule"] = "canonical"
        setting["seed"] = str(draw(st.integers(0, 99)))
    elif defect == "negative-seed":
        if setting.get("schedule") not in SEEDED and setting.get("strategy") != "seeded-random":
            setting["schedule"] = draw(st.sampled_from(SEEDED))  # else the seed is unused
        setting["seed"] = str(draw(st.integers(-99, -1)))
    elif defect == "budget":
        setting["budget"] = str(draw(st.sampled_from((0, -1, -40, sys.maxsize + 1, 10**20))))
    elif defect == "unknown-config-key":
        extra = [draw(st.sampled_from(("budgett = 3", "out = elsewhere", "generalizer = chain")))]
    elif defect == "config-line-without-equals":
        extra = [draw(st.sampled_from(("target 5", "family", "seed: 3")))]
    elif defect == "config-duplicate-key":
        key = draw(st.sampled_from(sorted(setting)))
        extra = [f"{key} = {setting[key]}"]
    elif defect == "config-not-utf8":
        extra = ["# caf\udce9"]  # written back as the single byte 0xe9
    elif defect == "bound-out-of-range":
        if family == "chain":
            outside = st.integers(-5, 1)
        else:
            outside = st.integers(-5, -1) | st.integers(2**20 + 1, 2**21)
        setting["universe_bound"] = str(draw(outside))
    elif defect == "rectangle-with-bound":
        setting["universe_bound"] = str(draw(st.integers(0, 10**4)))
    elif defect == "malformed-target":
        setting["target"] = draw(st.sampled_from(("foo", "", "1,2", "diag:x", "minus:x", "fin:[]")))
    elif defect == "out-is-a-file":
        out_is_file = True
    if defect in ("unknown-schedule", "unknown-strategy") and not (
            setting.get("schedule") in SEEDED or setting.get("strategy") == "seeded-random"):
        setting.pop("seed", None)  # else the seed, no longer read, is a second defect
    return extra, out_is_file


DEFECTS = (
    "unknown-engine", "unknown-schedule", "unknown-strategy", "strategy-without-check",
    "consistent-avoiding", "unused-seed", "negative-seed", "budget", "unknown-config-key",
    "config-line-without-equals", "config-duplicate-key", "config-not-utf8",
    "bound-out-of-range", "rectangle-with-bound", "malformed-target", "out-is-a-file",
)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("defect", (None,) + DEFECTS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_cli_contract_property(defect, data):
    """Exit 1 exactly when a defect was injected, and then an empty stdout,
    one ``error:`` line and no file written; otherwise both output files.
    The setting given by flags or by a config file runs byte-identically."""
    families = {"bound-out-of-range": ("chain", "diagonal", "gold"),
                "rectangle-with-bound": ("rectangle",)}.get(defect, FAMILIES)
    setting = data.draw(run_settings(families))
    extra, out_is_file = inject(defect, setting, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "afile").write_text("not a directory\n")
        runs = {}
        # A defect in the config file's lines is given only there.
        for delivery in ("config",) if extra is not None else ("flags", "config"):
            out = root / "afile" if out_is_file else root / delivery
            if delivery == "flags":
                argv = [f"--{key.replace('_', '-')}={value}" for key, value in setting.items()]
            else:
                cfg = root / "run.cfg"
                lines = [f"{key} = {value}" for key, value in setting.items()] + (extra or [])
                cfg.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
                argv = ["--config", str(cfg)]
            before = tree(root)
            code, stdout, stderr = invoke(["run", *argv, "--out", str(out)])
            assert (code == 1) == (defect is not None), (delivery, setting, stderr)
            if code == 1:
                assert stdout == ""
                assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1
                assert tree(root) == before
                continue
            assert code in (0, 2, 3) and stderr == ""
            written = {p.name: p.read_bytes() for p in out.iterdir()}
            assert len(written) == 2
            assert any(name.endswith(".summary.json") for name in written)
            runs[delivery] = written
        if len(runs) == 2:
            assert runs["flags"] == runs["config"]


# ---------------------------------------------------------------------------
# The demo contract as a property: a demo name, --imax and --budget, each
# drawn inside or outside what the demo accepts.

@st.composite
def demo_settings(draw):
    """(name, imax, budget), None for a flag not given.  A valid theorem1 runs
    for seconds, so theorem1 is drawn only with a flag it refuses."""
    name = draw(st.sampled_from(DEMOS + ("nosuch",)))
    imax = budget = None  # each flag is given half the time
    if draw(st.booleans()):  # in range, or outside [0, 120]
        imax = draw(st.integers(0, 6) | st.integers(-5, -1) | st.integers(121, 200))
    if draw(st.booleans()):  # below 1, at least 1, or above sys.maxsize
        budget = draw(st.integers(-3, 0) | st.integers(1, 40) | st.integers(sys.maxsize + 1, 2**70))
    if name == "theorem1" and imax is None and budget is None:
        budget = draw(st.integers(-3, 40))
    return name, imax, budget


def demo_is_bad_input(name, imax, budget) -> bool:
    """Whether one of the README's bad-input rules for `demo` applies."""
    if name not in DEMOS:
        return True  # an unknown demo
    if imax is not None and name != "lemma1" or budget is not None and name == "theorem1":
        return True  # a flag the demo does not take
    if budget is not None and not 1 <= budget <= sys.maxsize:
        return True  # a budget below 1 or above sys.maxsize
    if name == "lemma1":  # its defaults are i_max 20 and budget 100
        imax, budget = 20 if imax is None else imax, 100 if budget is None else budget
        return not 0 <= imax <= 120 or budget < imax + 2
    return False


@settings(max_examples=300, deadline=None)  # about 30 of them run a demo
@given(case=demo_settings())
def test_demo_contract_property(case):
    """Bad input exits 1 with an empty stdout, one ``error:`` line and no
    ``--out`` made; any other demo writes its two reports and exits 0
    exactly when its conclusion holds."""
    name, imax, budget = case
    flags = [f"--{flag}={value}" for flag, value in (("imax", imax), ("budget", budget))
             if value is not None]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out" / "sub"
        code, stdout, stderr = invoke(["demo", name, *flags, "--out", str(out)])
        if demo_is_bad_input(name, imax, budget):
            assert code == 1 and stdout == ""
            assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1
            assert not (Path(tmp) / "out").exists()
            return
        assert stderr == ""
        assert sorted(p.name for p in out.iterdir()) == [f"demo-{name}.json", f"demo-{name}.md"]
        report = json.loads((out / f"demo-{name}.json").read_text(encoding="utf-8"))
        assert code == (0 if report["passed"] else 1)
        assert stdout.startswith(f"{report['title']}: passed={report['passed']}\n")
