"""Command-line driver.

    gtlc check PROGRAM.gtl
    gtlc run PROGRAM.gtl [--optimized] [--fuel N] [--emit con]
    gtlc analyze PROGRAM.gtl [--module X] [--budget N] [--emit blame]
    gtlc optimize PROGRAM.gtl [--emit optimized|con]
    gtlc bench CORPUS_DIR [--iterations N]

Exit codes: 0 ok; 1 diagnostics; 2 blame; 3 stuck; 4 fuel exhausted.
Reports are JSON on stdout under a top-level {"schema": 1} key; --json
additionally writes the same document to a file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, bench, interp, optimize
from .frontend import check_wellformed, parse_program
from .syntax import format_expr
from .translate import compile_program

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_BLAME = 2
EXIT_STUCK = 3
EXIT_FUEL = 4


def _load(path: str):
    """Parse and check `path`.  A file that cannot be read or decoded yields
    one diagnostic naming it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        return None, [f"cannot read {path}: {err}"]
    program, diags = parse_program(text)
    if program is not None:
        diags = diags + check_wellformed(program)
    return program, diags


def _emit_json(doc: dict, json_path: str | None) -> None:
    rendered = json.dumps(doc, indent=2, sort_keys=True)
    print(rendered)
    if json_path:
        Path(json_path).write_text(rendered + "\n", encoding="utf-8")


def _print_diags(diags) -> None:
    for d in diags:
        print(str(d), file=sys.stderr)


def cmd_check(args) -> int:
    program, diags = _load(args.path)
    if diags:
        _print_diags(diags)
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
    program, diags = _load(args.path)
    if diags:
        _print_diags(diags)
        return EXIT_DIAGNOSTICS
    if args.optimized:
        compiled, report = optimize.optimize_program(
            program, trust_typed=args.trust_typed, budget=args.budget)
    else:
        compiled, report = compile_program(program), None
    if args.emit == "con":
        print(format_expr(compiled.root))
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
    _emit_json(doc, args.json)
    return _exit_for(answer)


def cmd_analyze(args) -> int:
    program, diags = _load(args.path)
    if diags:
        _print_diags(diags)
        return EXIT_DIAGNOSTICS
    if args.module is not None:
        if program.module_named(args.module) is None:
            print(f"unknown module {args.module!r}", file=sys.stderr)
            return EXIT_DIAGNOSTICS
        root = compile_program(optimize.slice_for_module(program, args.module)).root
        bs = analysis.analyze(root, args.budget)
        _emit_json({"schema": 1, "module": args.module, **bs.as_json()}, args.json)
        return EXIT_OK
    verdicts = optimize.compute_verdicts(program, trust_typed=False,
                                         budget=args.budget)
    doc = {
        "schema": 1,
        "path": args.path,
        "verdicts": [v.as_json() for v in verdicts],
        "analysis_seconds": {v.module: v.seconds for v in verdicts},
    }
    _emit_json(doc, args.json)
    return EXIT_OK


def cmd_optimize(args) -> int:
    program, diags = _load(args.path)
    if diags:
        _print_diags(diags)
        return EXIT_DIAGNOSTICS
    compiled, report = optimize.optimize_program(
        program, trust_typed=args.trust_typed, budget=args.budget)
    if args.emit in ("optimized", "con"):
        print(format_expr(compiled.root))
        return EXIT_OK
    _emit_json({"schema": 1, "path": args.path, **report.as_json()}, args.json)
    return EXIT_OK


def cmd_bench(args) -> int:
    corpus = Path(args.corpus) if args.corpus else bench.corpus_dir()
    report = bench.bench_corpus(corpus, iterations=args.iterations,
                                fuel=args.fuel, budget=args.budget,
                                trust_typed=args.trust_typed)
    print(bench.render_table(report))
    if args.json:
        Path(args.json).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    failed = any(c.get("failed") or not c.get("agree", True)
                 for e in report["entries"] for c in e["configs"])
    return EXIT_DIAGNOSTICS if failed else EXIT_OK


def _add_common(sp, budget=True, trust=True, fuel=None, json_flag=True):
    if fuel is not None:
        sp.add_argument("--fuel", type=int, default=fuel,
                        help="evaluation step budget")
    if budget:
        sp.add_argument("--budget", type=int, default=analysis.DEFAULT_BUDGET,
                        help="abstract state cap for the verifier")
    if trust:
        sp.add_argument("--trust-typed", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="treat typed modules as blame-free without analysis")
    if json_flag:
        sp.add_argument("--json", metavar="PATH", default=None,
                        help="also write the JSON report to PATH")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gtlc", description=__doc__,
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
    sp.add_argument("--emit", choices=["blame"], default="blame")
    _add_common(sp, trust=False)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("optimize", help="verdict-driven contract elimination")
    sp.add_argument("path")
    sp.add_argument("--emit", choices=["optimized", "con"], default=None,
                    help="print the optimized core program instead of the report")
    _add_common(sp)
    sp.set_defaults(fn=cmd_optimize)

    sp = sub.add_parser("bench", help="run a corpus of configuration lattices")
    sp.add_argument("corpus", nargs="?", default=None,
                    help="corpus directory (default: the bundled corpus)")
    sp.add_argument("--iterations", type=int, default=3,
                    help="timed runs per configuration")
    _add_common(sp, fuel=bench.BENCH_FUEL)
    sp.set_defaults(fn=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
