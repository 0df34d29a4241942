"""Command-line driver.

    gtlc check PROGRAM.gtl
    gtlc run PROGRAM.gtl [--optimized] [--emit con] [--fuel N] [--budget N]
    gtlc analyze PROGRAM.gtl [--module X] [--budget N]
    gtlc optimize PROGRAM.gtl [--emit optimized] [--budget N]
    gtlc bench [CORPUS_DIR] [--iterations N] [--fuel N] [--budget N]

No typed module is trusted: optimize, run --optimized and bench take a
typed module as safe only when the blame theorem proves it, as analyze
does.

Exit codes: 0 ok; 1 diagnostics, usage errors included; 2 blame; 3 stuck;
4 fuel exhausted; 5 internal error (one line on stderr); 141 stdout closed
early.
Reports are JSON on stdout under a top-level {"schema": 1} key; --json PATH,
which every command but check takes, also writes the same document to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import analysis, bench, interp, optimize
from .frontend import check_wellformed, parse_program
from .syntax import format_expr
from .translate import compile_program, erase

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_BLAME = 2
EXIT_STUCK = 3
EXIT_FUEL = 4
EXIT_INTERNAL = 5
EXIT_PIPE = 128 + 13  # as a shell reports a process killed by SIGPIPE


def _load(path: str):
    """Parse and check `path`: the program, or None once its diagnostics are
    printed to stderr.  A file that cannot be read or decoded yields one
    diagnostic naming it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        print(f"cannot read {path}: {err}", file=sys.stderr)
        return None
    program, diags = parse_program(text)
    if program is not None:
        diags += check_wellformed(program)
    for d in diags:
        print(d, file=sys.stderr)
    return None if diags else program


def _write(path: str, text: str) -> bool:
    """Write `text` to `path`.  A file that cannot be written yields one
    diagnostic naming it."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as err:
        print(f"cannot write {path}: {err}", file=sys.stderr)
        return False
    return True


def _emit_json(doc: dict, json_path: str | None) -> bool:
    """Print `doc`, and write it to `json_path` if given; False when that
    write failed."""
    rendered = json.dumps(doc, indent=2, sort_keys=True)
    print(rendered)
    return not json_path or _write(json_path, rendered + "\n")


def cmd_check(args) -> int:
    program = _load(args.path)
    if program is None:
        return EXIT_DIAGNOSTICS
    print(f"ok: {len(program.modules)} modules")
    return EXIT_OK


def _exit_for(answer) -> int:
    match answer:
        case interp.ValA(_):
            return EXIT_OK
        case interp.BlamedA(_):
            return EXIT_BLAME
        case interp.StuckA(_):
            return EXIT_STUCK
        case _:
            return EXIT_FUEL


def cmd_run(args) -> int:
    program = _load(args.path)
    if program is None:
        return EXIT_DIAGNOSTICS
    if args.optimized:
        compiled, report = optimize.optimize_program(program, budget=args.budget)
    else:
        compiled, report = compile_program(program), None
    if args.emit == "con":
        print(format_expr(erase(compiled.root)))
        return EXIT_OK
    answer, metrics = interp.evaluate(compiled.root, fuel=args.fuel)
    doc = {
        "schema": 1,
        "path": args.path,
        "optimized": bool(args.optimized),
        "answer": interp.answer_to_json(answer),
        "metrics": metrics.as_dict(),
    }
    if report is not None:
        doc["optimization"] = report.as_json()
    if not _emit_json(doc, args.json):
        return EXIT_DIAGNOSTICS
    return _exit_for(answer)


def cmd_analyze(args) -> int:
    program = _load(args.path)
    if program is None:
        return EXIT_DIAGNOSTICS
    if args.module is not None:
        if program.module_named(args.module) is None:
            print(f"unknown module {args.module!r}", file=sys.stderr)
            return EXIT_DIAGNOSTICS
        bs = optimize.analyze_slice(program, args.module, args.budget)
        doc = {"schema": 1, "module": args.module, **bs.as_json()}
        return EXIT_OK if _emit_json(doc, args.json) else EXIT_DIAGNOSTICS
    verdicts = optimize.compute_verdicts(program, budget=args.budget)
    doc = {
        "schema": 1,
        "path": args.path,
        "verdicts": [v.as_json() for v in verdicts],
        "analysis_seconds": {v.module: v.seconds for v in verdicts},
        "analysis_states": {v.module: v.states for v in verdicts},
    }
    return EXIT_OK if _emit_json(doc, args.json) else EXIT_DIAGNOSTICS


def cmd_optimize(args) -> int:
    program = _load(args.path)
    if program is None:
        return EXIT_DIAGNOSTICS
    compiled, report = optimize.optimize_program(program, budget=args.budget)
    if args.emit == "optimized":
        print(format_expr(erase(compiled.root)))
        return EXIT_OK
    doc = {"schema": 1, "path": args.path, **report.as_json()}
    return EXIT_OK if _emit_json(doc, args.json) else EXIT_DIAGNOSTICS


def cmd_bench(args) -> int:
    corpus = Path(args.corpus) if args.corpus else bench.corpus_dir()
    try:
        report = bench.bench_corpus(corpus, iterations=args.iterations,
                                    fuel=args.fuel, budget=args.budget)
    except (OSError, UnicodeDecodeError) as err:
        path = getattr(err, "filename", None) or corpus
        print(f"cannot read {path}: {err}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    if not report["entries"]:
        print(f"no benchmark entries in {corpus}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    print(bench.render_table(report))
    if args.json:
        rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if not _write(args.json, rendered):
            return EXIT_DIAGNOSTICS
    # A configuration that failed, disagrees or has no baseline to measure
    # against fails the run.
    failed = any(c["failed"] or not c["agree"] or c["overhead_unoptimized"] is None
                 for e in report["entries"] for c in e["configs"])
    return EXIT_DIAGNOSTICS if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse, except that a usage error exits with the diagnostics code:
    its own code 2 is the blame code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_DIAGNOSTICS, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {n}")
    return n


def _add_common(sp, fuel=None):
    if fuel is not None:
        sp.add_argument("--fuel", type=_positive_int, default=fuel,
                        help="evaluation step budget")
    sp.add_argument("--budget", type=_positive_int, default=analysis.DEFAULT_BUDGET,
                    help="abstract state cap for the verifier")
    sp.add_argument("--json", metavar="PATH", default=None,
                    help="also write the JSON report to PATH")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="gtlc", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="parse and check well-formedness")
    sp.add_argument("path")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("run", help="compile and evaluate")
    sp.add_argument("path")
    sp.add_argument("--optimized", action="store_true",
                    help="strip verified contracts before running")
    sp.add_argument("--emit", choices=["con"], default=None,
                    help="print the compiled core program instead of running")
    _add_common(sp, fuel=interp.DEFAULT_FUEL)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("analyze", help="modular blame analysis")
    sp.add_argument("path")
    sp.add_argument("--module", default=None,
                    help="analyze the slice for one module; omit for all verdicts")
    _add_common(sp)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("optimize", help="verdict-driven contract elimination")
    sp.add_argument("path")
    sp.add_argument("--emit", choices=["optimized"], default=None,
                    help="print the optimized core program instead of the report")
    _add_common(sp)
    sp.set_defaults(fn=cmd_optimize)

    sp = sub.add_parser("bench", help="run a corpus of configuration lattices")
    sp.add_argument("corpus", nargs="?", default=None,
                    help="corpus directory (default: the bundled corpus)")
    sp.add_argument("--iterations", type=_positive_int, default=3,
                    help="timed runs per configuration")
    _add_common(sp, fuel=bench.BENCH_FUEL)
    sp.set_defaults(fn=cmd_bench)

    return ap


def main(argv=None) -> int:
    """Run one command.  A reader that closes stdout early ends the run
    quietly; any other failure is one `internal error` line, not a
    traceback."""
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at /dev/null so the flush at interpreter exit has
        # nowhere left to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except Exception as err:
        detail = " ".join(str(err).split())
        print(f"internal error: {type(err).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
