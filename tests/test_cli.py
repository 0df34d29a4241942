import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gtlc
from conftest import ID_BOUNDARY, ID_BOUNDARY_OPTIMIZED_CORE
from gtlc.cli import main
from gtlc.frontend import parse_expr
from gtlc.syntax import structurally_equal


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


def test_optimize_report_and_emit(capsys, id_boundary_file):
    code, out, _ = run_cli(capsys, "optimize", id_boundary_file)
    doc = json.loads(out)
    assert (doc["monitors_before"], doc["removed"], doc["weakened"]) == (2, 1, 1)

    code, out, _ = run_cli(capsys, "optimize", id_boundary_file,
                           "--emit", "optimized")
    assert code == 0
    assert structurally_equal(parse_expr(out.strip()),
                              parse_expr(ID_BOUNDARY_OPTIMIZED_CORE))


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
    assert all(c["agree"] for e in report["entries"] for c in e["configs"])


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


def test_bench_empty_corpus_is_a_diagnostic(tmp_path):
    corpus = tmp_path / "corpus"
    (corpus / "not-an-entry").mkdir(parents=True)
    proc = run_gtlc("bench", str(corpus))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"no benchmark entries in {corpus}"]


def test_console_entry_point(id_boundary_file):
    proc = run_gtlc("check", id_boundary_file)
    assert proc.returncode == 0, proc.stderr
