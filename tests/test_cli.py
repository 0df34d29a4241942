import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gtlc
from conftest import (
    ID_BOUNDARY, ID_BOUNDARY_OPTIMIZED_CORE, OWN_HOLE_ARGUMENT, TYPED_REEXPORT, parse_ok,
    structurally_equal,
)
from gtlc import bench, interp
from gtlc.cli import build_parser, main
from gtlc.frontend import parse_expr
from gtlc.optimize import analyze_slice, blameless_modules, obliged_modules, optimize_program
from gtlc.translate import compile_program, erase


@pytest.fixture()
def id_boundary_file(tmp_path):
    path = tmp_path / "idboundary.gtl"
    path.write_text(ID_BOUNDARY, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_gtlc(*argv, stdout=subprocess.PIPE):
    """Run the CLI in a fresh interpreter that imports this checkout's gtlc."""
    src = str(Path(gtlc.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "gtlc.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


def test_check_ok(capsys, id_boundary_file):
    code, out, _ = run_cli(capsys, "check", id_boundary_file)
    assert code == 0 and "ok" in out


def test_check_forward_require(capsys, tmp_path):
    path = tmp_path / "bad.gtl"
    path.write_text("(module u (require t) (t 5))\n"
                    "(module t (-> Int Int) (λ (x : Int) x))\n"
                    "(module main 5)", encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 1 and "unbound" in err


def test_check_empty_file(capsys, tmp_path):
    path = tmp_path / "empty.gtl"
    path.write_text("", encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 1 and "main-missing" in err


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_unreadable_file_is_a_diagnostic(tmp_path, case):
    path = tmp_path / "prog.gtl"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"(module main \xff)")
    proc = run_gtlc("check", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and str(path) in proc.stderr


def assert_one_line_diagnostic(proc, prefix, path):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{prefix} {path}: "), proc.stderr


def test_unreadable_corpus_is_a_diagnostic(tmp_path):
    missing = tmp_path / "no-such-dir"
    assert_one_line_diagnostic(run_gtlc("bench", str(missing)), "cannot read", missing)


@pytest.mark.parametrize("command", ["run", "analyze", "optimize", "bench"])
def test_unwritable_json_is_a_diagnostic(tmp_path, id_boundary_file, command):
    target = tmp_path / "no-such-dir" / "report.json"
    if command == "bench":
        entry = tmp_path / "corpus" / "five"
        entry.mkdir(parents=True)
        (entry / "0.gtl").write_text("(module main 5)", encoding="utf-8")
        argv = ["bench", str(entry.parent), "--iterations", "1"]
    else:
        argv = [command, id_boundary_file]
    proc = run_gtlc(*argv, "--json", str(target))
    assert_one_line_diagnostic(proc, "cannot write", target)


def test_closed_stdout_ends_quietly(id_boundary_file):
    # As `gtlc run F.gtl | head -1` once head has exited: the pipe's read
    # end is closed before the report is written.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_gtlc("run", id_boundary_file, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_unexpected_failure_is_one_line_with_its_own_exit_code(tmp_path):
    # Nested deeper than the reader's recursion can go.
    depth = 3_000
    path = tmp_path / "deep.gtl"
    path.write_text("(module main " + "(λ (x) " * depth + "1" + ")" * depth + ")",
                    encoding="utf-8")
    proc = run_gtlc("check", str(path))
    assert proc.returncode == 5
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: "), proc.stderr


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter converts integers of any length")
def test_overlong_integer_literal_is_a_diagnostic(tmp_path):
    digits = "9" * max(5_000, sys.get_int_max_str_digits() + 1)
    path = tmp_path / "long.gtl"
    path.write_text(f"(module main {digits})", encoding="utf-8")
    proc = run_gtlc("check", str(path))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"parse at 13..{13 + len(digits)}: integer literal too long"]


@pytest.mark.parametrize("argv, flag", [
    (["frobnicate"], "frobnicate"),
    (["run", "{path}", "--fuel", "abc"], "--fuel"),
    (["run", "{path}", "--fuel", "0"], "--fuel"),
    (["analyze", "{path}", "--budget", "-3"], "--budget"),
    (["optimize", "{path}", "--budget", "0"], "--budget"),
    (["bench", "--iterations", "0"], "--iterations"),
    (["run", "{path}", "--no-such-flag"], "--no-such-flag"),
    (["analyze", "{path}", "--emit", "blame"], "--emit"),
    (["optimize", "{path}", "--emit", "con"], "--emit"),
])
def test_usage_error_is_a_diagnostic(id_boundary_file, argv, flag):
    # Exit 2 is the blame code, so a usage error must not take argparse's 2.
    proc = run_gtlc(*(a.format(path=id_boundary_file) for a in argv))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    (error,) = [l for l in proc.stderr.splitlines() if "error:" in l]
    assert error.startswith("gtlc") and flag in error, proc.stderr


def test_run_blame_exit_and_report(capsys, id_boundary_file):
    code, out, _ = run_cli(capsys, "run", id_boundary_file)
    assert code == 2
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["answer"] == {"kind": "blame", "blamed": "u2", "holder": "t1"}
    assert doc["metrics"]["flat_checks"] == 3


def test_run_optimized_reduces_checks(capsys, id_boundary_file):
    code, out, _ = run_cli(capsys, "run", id_boundary_file, "--optimized")
    assert code == 2
    doc = json.loads(out)
    assert doc["answer"]["blamed"] == "u2"
    assert doc["metrics"]["flat_checks"] < 3


def test_run_value_exit(capsys, tmp_path):
    path = tmp_path / "five.gtl"
    path.write_text("(module main 5)", encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"]["value"] == {"type": "int", "n": 5}
    assert doc["metrics"]["flat_checks"] == 0


def test_run_primitive_value(capsys, tmp_path):
    # A program whose value is a primitive answers a procedure.
    path = tmp_path / "prim.gtl"
    path.write_text("(module main int?)", encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    assert json.loads(out)["answer"] == {
        "kind": "value", "display": "#<procedure>", "value": {"type": "function"}}
    root = compile_program(parse_ok("(module main int?)")).root
    a, b = interp.evaluate(root)[0], interp.evaluate(root)[0]
    assert bench.answers_agree(a, b)
    assert not bench.answers_agree(a, interp.ValA(1))
    # A primitive passes an arrow contract and is applied through its guard.
    guarded = ("(module u int?) (module t (-> Int Bool) (require/typed u (-> Int Bool)) u)"
               " (module main (require t) (if (t 5) (t #t) 0))")
    answer, m = interp.evaluate(compile_program(parse_ok(guarded)).root)
    assert interp.answer_to_json(answer) == {"kind": "blame", "blamed": "main", "holder": "t"}
    assert (m.flat_checks, m.wrappers_allocated, m.wrapped_calls, m.steps) == (5, 2, 3, 28)


def test_run_stuck_exit(capsys, tmp_path):
    path = tmp_path / "stuck.gtl"
    path.write_text("(module main (5 5))", encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 3


def test_run_fuel_exit(capsys, tmp_path):
    path = tmp_path / "omega.gtl"
    path.write_text("(module main ((λ (x) (x x)) (λ (x) (x x))))", encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", str(path), "--fuel", "5000")
    assert code == 4
    assert json.loads(out)["answer"]["kind"] == "fuel-exhausted"


def test_run_emit_core(capsys, id_boundary_file):
    code, out, _ = run_cli(capsys, "run", id_boundary_file, "--emit", "con")
    assert code == 0
    assert "(mon (t1 u1) (-> int? int?) t1)" in out


def test_analyze_module_slice(capsys, id_boundary_file):
    code, out, _ = run_cli(capsys, "analyze", id_boundary_file, "--module", "u1")
    assert code == 0
    doc = json.loads(out)
    labels = {(l["blamed"], l["holder"]) for l in doc["labels"]}
    assert ("t1", "u1") in labels
    assert ("u1", "t1") not in labels
    assert doc["exhausted"] is False


def test_analyze_module_lists_only_its_own_labels(capsys, id_boundary_file):
    # u1's slice is analyzed at u1's boundaries only: the t1/u2 monitor,
    # whose labels the whole slice would also reach, is dropped.
    _, out, _ = run_cli(capsys, "analyze", id_boundary_file, "--module", "u1")
    labels = {(l["blamed"], l["holder"]) for l in json.loads(out)["labels"]}
    assert labels == {("t1", "u1")}


def test_analyze_blameless_provider(capsys, id_boundary_file):
    code, out, _ = run_cli(capsys, "analyze", id_boundary_file, "--module", "t1")
    doc = json.loads(out)
    assert all(l["blamed"] != "t1" for l in doc["labels"])


def test_analyze_single_module_program(capsys, tmp_path):
    path = tmp_path / "one.gtl"
    path.write_text("(module main 5)", encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--module", "main")
    assert code == 0 and json.loads(out)["labels"] == []


def test_analyze_unknown_module(capsys, id_boundary_file):
    code, _, err = run_cli(capsys, "analyze", id_boundary_file, "--module", "ghost")
    assert code == 1 and "unknown" in err


def test_analyze_all_verdicts(capsys, id_boundary_file):
    code, out, _ = run_cli(capsys, "analyze", id_boundary_file)
    doc = json.loads(out)
    verdicts = {v["module"]: v for v in doc["verdicts"]}
    assert "t1" not in verdicts["u2"]["safe_against"]
    assert set(verdicts["t1"]["safe_against"]) == {"main", "u1", "u2"}


def test_analyze_reports_states_per_module(capsys, id_boundary_file):
    # Each module's analysis cost, in states next to its time: the states
    # its slice's analysis explored.  The typed identity t1 is blameless,
    # and main is the party of no monitor, so both are proven with no slice
    # and read 0 in both; with unknown code in its body t1 is analyzed like
    # u1 and u2, and main still reads 0.
    _, out, _ = run_cli(capsys, "analyze", id_boundary_file)
    doc = json.loads(out)
    program = parse_ok(ID_BOUNDARY)
    assert blameless_modules(program) == {"t1"}
    assert obliged_modules(program) == {"t1", "u1", "u2"}
    assert doc["analysis_states"] == {
        m.name: 0 if m.name in ("t1", "main") else analyze_slice(program, m.name).states
        for m in program.modules}
    assert doc["analysis_states"].keys() == doc["analysis_seconds"].keys()
    assert doc["analysis_seconds"]["t1"] == doc["analysis_seconds"]["main"] == 0
    assert doc["analysis_states"]["u1"] > 0 and doc["analysis_states"]["u2"] > 0
    with_hole = ID_BOUNDARY.replace("(λ (x : Int) x)", "(λ (x : Int) opaque)")
    path = Path(id_boundary_file).with_name("hole.gtl")
    path.write_text(with_hole, encoding="utf-8")
    _, out, _ = run_cli(capsys, "analyze", str(path))
    doc = json.loads(out)
    program = parse_ok(with_hole)
    assert doc["analysis_states"] == {
        m.name: 0 if m.name == "main" else analyze_slice(program, m.name).states
        for m in program.modules}
    assert all(n > 0 for m, n in doc["analysis_states"].items() if m != "main")


def test_analyze_module_blames_no_typed_neighbour(capsys, tmp_path):
    # Typed x re-exports typed t to untyped u.  Its slice, analyzed as
    # `--module x` asks, lets t's hole be any value, so x is blamed toward
    # u there, but never t.  `gtlc analyze` skips that slice: x is
    # blameless, safe against every other module.
    path = tmp_path / "reexport.gtl"
    path.write_text(TYPED_REEXPORT, encoding="utf-8")
    program = parse_ok(TYPED_REEXPORT)
    code, out, _ = run_cli(capsys, "analyze", str(path), "--module", "x")
    labels = json.loads(out)["labels"]
    assert code == 0 and labels == analyze_slice(program, "x").as_json()["labels"]
    assert {(l["blamed"], l["holder"]) for l in labels} == {("u", "x"), ("x", "u")}
    _, out, _ = run_cli(capsys, "analyze", str(path))
    doc = json.loads(out)
    verdicts = {v["module"]: set(v["safe_against"]) for v in doc["verdicts"]}
    assert verdicts["x"] == {"t", "u", "main"}
    assert doc["analysis_states"]["x"] == 0


def test_optimize_report_and_emit(capsys, id_boundary_file):
    code, out, _ = run_cli(capsys, "optimize", id_boundary_file)
    doc = json.loads(out)
    assert (doc["monitors_before"], doc["removed"], doc["weakened"]) == (2, 1, 1)

    code, out, _ = run_cli(capsys, "optimize", id_boundary_file,
                           "--emit", "optimized")
    assert code == 0
    assert structurally_equal(parse_expr(out.strip()),
                              parse_expr(ID_BOUNDARY_OPTIMIZED_CORE))


def test_emit_prints_the_core_without_annotations(capsys, corpus_path):
    # Compiled trees keep the lambda annotations of typed bodies; core text
    # has no syntax for them, so both emit sites print the erased tree, and
    # it reads back as that tree.
    files = sorted(corpus_path.glob("*/*.gtl"))
    for path in files:
        program = parse_ok(path.read_text(encoding="utf-8"))
        code, out, _ = run_cli(capsys, "run", str(path), "--emit", "con")
        assert code == 0
        assert structurally_equal(parse_expr(out),
                                  erase(compile_program(program).root)), path
        code, out, _ = run_cli(capsys, "optimize", str(path), "--emit", "optimized")
        assert code == 0
        root = optimize_program(program)[0].root
        assert structurally_equal(parse_expr(out), erase(root)), path
    assert len(files) == 12


def test_optimize_proves_typed_modules_as_analyze_does(capsys, tmp_path):
    # x passes its own unknown code through typed t and exports the result
    # at Int: with #t, the monitor between x and main blames x.  So
    # `gtlc optimize` keeps that check, and gives every module the verdict
    # `gtlc analyze` reports.  No command trusts typed modules, so none
    # takes a flag to.
    path = tmp_path / "own_hole.gtl"
    path.write_text(OWN_HOLE_ARGUMENT, encoding="utf-8")
    code, out, _ = run_cli(capsys, "optimize", str(path))
    assert code == 0
    optimized = json.loads(out)
    assert [(d["pos"], d["neg"], d["after"], d["kind"]) for d in optimized["dispositions"]] \
        == [("x", "main", "int?", "kept")]
    _, out, _ = run_cli(capsys, "analyze", str(path))
    assert obliged_modules(parse_ok(OWN_HOLE_ARGUMENT)) == {"x"}
    assert optimized["verdicts"] == json.loads(out)["verdicts"]
    for flag in ("--trust-typed", "--no-trust-typed"):
        proc = run_gtlc("optimize", str(path), flag)
        assert proc.returncode == 1 and proc.stdout == "", proc.stderr
        assert f"unrecognized arguments: {flag}" in proc.stderr


def _option_strings(parser):
    """Every option string of `parser`'s subcommands, but -h and --help."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {flag for sub in commands.choices.values() for action in sub._actions
            for flag in action.option_strings} - {"-h", "--help"}


def test_readme_cli_section_names_every_flag():
    # The README's CLI section lists exactly the flags the parser takes.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert documented == _option_strings(build_parser())


def test_json_report_roundtrips(capsys, id_boundary_file, tmp_path):
    out_path = tmp_path / "report.json"
    _, out, _ = run_cli(capsys, "run", id_boundary_file, "--json", str(out_path))
    on_stdout = json.loads(out)
    on_disk = json.loads(out_path.read_text(encoding="utf-8"))
    assert on_stdout == on_disk


def test_bench_small_corpus(capsys, tmp_path, corpus_path):
    # A trimmed corpus keeps this fast; the full corpus runs in acceptance.
    for entry in ("idboundary", "flaggate"):
        shutil.copytree(corpus_path / entry, tmp_path / "corpus" / entry)
    json_path = tmp_path / "bench.json"
    code, out, _ = run_cli(capsys, "bench", str(tmp_path / "corpus"),
                           "--iterations", "1", "--json", str(json_path))
    assert code == 0
    report = json.loads(json_path.read_text(encoding="utf-8"))
    assert report["schema"] == 1
    by_name = {e["entry"]: e for e in report["entries"]}
    configs = by_name["idboundary"]["configs"]
    assert [c["id"] for c in configs] == ["00", "01", "10", "11"]
    assert configs[0]["overhead_unoptimized"] == 1.0
    # The blame theorem proves typed t1 and u1, so their slices are
    # skipped: 0 states.  So is main's: it requires only untyped u2, so no
    # monitor obliges it.
    states = configs[3]["analysis_states"]
    assert states.keys() == configs[3]["analysis_seconds"].keys()
    assert states["t1"] == states["u1"] == states["main"] == 0
    assert states["u2"] > 0
    assert all(c["agree"] for e in report["entries"] for c in e["configs"])


def test_bench_agreement_is_answers_agree(monkeypatch, corpus_path):
    # `gtlc bench` shares the tests' agreement rule: two stuck runs agree
    # whatever their reasons, so every run made stuck with its own reason
    # leaves every configuration agreeing.
    evaluate, calls = interp.evaluate, []

    def stuck(root, fuel):
        _, metrics = evaluate(root, fuel=fuel)
        calls.append(root)
        return interp.StuckA(f"reason {len(calls)}"), metrics

    monkeypatch.setattr(interp, "evaluate", stuck)
    report = bench.bench_entry(corpus_path / "idboundary", iterations=1)
    configs = report["configs"]
    assert len(configs) == 4 and len(calls) == 11
    assert all(c["optimized"]["answer"]["kind"] == "stuck" for c in configs)
    assert all(c["agree"] for c in configs)


@pytest.mark.parametrize("baseline", ["missing", "failed"])
def test_bench_without_baseline_reports_no_overheads(capsys, tmp_path, corpus_path, baseline):
    # Overheads are measured against the untyped configuration only, never
    # against the first typed one that happens to compile.
    entry = tmp_path / "corpus" / "idboundary"
    entry.mkdir(parents=True)
    for config in ("01", "11"):
        shutil.copy(corpus_path / "idboundary" / f"{config}.gtl", entry)
    if baseline == "failed":
        (entry / "00.gtl").write_text("(module main", encoding="utf-8")
    json_path = tmp_path / "bench.json"
    code, out, _ = run_cli(capsys, "bench", str(entry.parent),
                           "--iterations", "1", "--json", str(json_path))
    assert code == 1
    configs = json.loads(json_path.read_text(encoding="utf-8"))["entries"][0]["configs"]
    compiled = [c for c in configs if not c["failed"]]
    assert [c["id"] for c in compiled] == ["01", "11"]
    assert all(c["overhead_unoptimized"] is None and c["overhead_optimized"] is None
               for c in compiled)
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert [row[2:4] for row in rows if row[1] in ("01", "11")] == [["-", "-"]] * 2


def test_bench_steps_ratios_need_an_agreeing_baseline(capsys, tmp_path, corpus_path):
    # The deterministic twin of each overhead: the run's steps over the
    # untyped baseline's, null where their answers disagree (10 and 11 blame
    # u2, the baseline answers #f) or where there is no baseline.
    entry = tmp_path / "corpus" / "idboundary"
    shutil.copytree(corpus_path / "idboundary", entry)
    json_path = tmp_path / "bench.json"
    code, out, _ = run_cli(capsys, "bench", str(entry.parent),
                           "--iterations", "1", "--json", str(json_path))
    assert code == 0
    configs = json.loads(json_path.read_text(encoding="utf-8"))["entries"][0]["configs"]
    ratios = {c["id"]: (c["steps_ratio_unoptimized"], c["steps_ratio_optimized"])
              for c in configs}
    assert ratios == {"00": (1.0, 1.0), "01": (25 / 18, 25 / 18),
                      "10": (None, None), "11": (None, None)}
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[0][-2:] == ["steps_ratio", "steps_ratio_opt"]
    assert [row[-2:] for row in rows[1:]] == [["1.00x", "1.00x"], ["1.39x", "1.39x"],
                                              ["-", "-"], ["-", "-"]]

    (entry / "00.gtl").write_text("(module main", encoding="utf-8")
    code, out, _ = run_cli(capsys, "bench", str(entry.parent),
                           "--iterations", "1", "--json", str(json_path))
    assert code == 1
    configs = json.loads(json_path.read_text(encoding="utf-8"))["entries"][0]["configs"]
    assert all(c["steps_ratio_unoptimized"] is None and c["steps_ratio_optimized"] is None
               for c in configs if not c["failed"])
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[1] == ["idboundary", "00", "FAILED"] + ["-"] * 7
    assert {len(row) for row in rows} == {10}


def test_bench_empty_corpus_is_a_diagnostic(tmp_path):
    corpus = tmp_path / "corpus"
    (corpus / "not-an-entry").mkdir(parents=True)
    proc = run_gtlc("bench", str(corpus))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"no benchmark entries in {corpus}"]


def test_console_entry_point(id_boundary_file):
    proc = run_gtlc("check", id_boundary_file)
    assert proc.returncode == 0, proc.stderr
