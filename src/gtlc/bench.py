"""Benchmark harness over a corpus of configuration lattices.

A corpus directory holds one subdirectory per benchmark entry; each entry
holds one `.gtl` file per typed/untyped configuration, named by a bitstring
over the entry's toggleable modules ('1' = typed), so the lattice is
enumerated by the files themselves.  The file whose bitstring has no '1'
is the fully-untyped baseline; the first in lattice order, it is the only
configuration overheads are measured against, so an entry whose baseline
is missing or fails to compile reports no overheads.

For every configuration the harness runs the program unoptimized and
optimized, interleaved round by round with the baseline's unoptimized
program, and reports the wall-time overhead of each against the baseline
and the check-count ratio of optimized to unoptimized.  An overhead is the
fastest of the requested iterations over the baseline's fastest in the
same rounds: the host only ever slows a run down, so the fastest run is
the one least disturbed.  Check counts are the deterministic signal; wall
time is informational.  Configurations whose optimized answer disagrees
with the unoptimized one are flagged, never fatal.
"""

from __future__ import annotations

import importlib.resources
import statistics
from pathlib import Path

from . import analysis, interp, optimize
from .frontend import check_wellformed, parse_program
from .syntax import Program
from .translate import compile_program

BENCH_FUEL = 100_000_000


def corpus_dir() -> Path:
    """The corpus bundled with the package."""
    return Path(importlib.resources.files("gtlc") / "corpus")


def list_entries(corpus: Path) -> list[str]:
    return sorted(d.name for d in corpus.iterdir() if d.is_dir()
                  and any(f.suffix == ".gtl" for f in d.iterdir()))


def lattice_configs(entry_dir: Path) -> list[Path]:
    """Configuration files in lattice order: by number of typed modules,
    then by bitstring value."""
    files = [f for f in entry_dir.iterdir() if f.suffix == ".gtl"]
    return sorted(files, key=lambda f: (f.stem.count("1"), f.stem))


def _interleaved_runs(roots: list, fuel: int, iterations: int) -> list[tuple]:
    """Evaluate each root once per round for `iterations` rounds, so that
    the host's drift in speed hits every root alike; the order rotates from
    round to round, so no root always runs after the same one.  Returns,
    per root, its answer, its metrics and its wall times."""
    n = len(roots)
    last: list = [None] * n
    times: list[list[float]] = [[] for _ in roots]
    for r in range(max(1, iterations)):
        for k in range(n):
            i = (r + k) % n
            last[i] = interp.evaluate(roots[i], fuel=fuel)
            times[i].append(last[i][1].wall_time)
    return [(a, m, t) for (a, m), t in zip(last, times)]


def _timing(times: list[float]) -> dict:
    return {"time_min": min(times), "time_mean": statistics.fmean(times),
            "time_sd": statistics.stdev(times) if len(times) > 1 else 0.0}


def bench_entry(entry_dir: Path, iterations: int = 3, fuel: int = BENCH_FUEL,
                budget: int = analysis.DEFAULT_BUDGET,
                trust_typed: bool = True) -> dict:
    configs = []
    baseline_root = None
    for path in lattice_configs(entry_dir):
        text = path.read_text(encoding="utf-8")
        program, diags = parse_program(text)
        if program is not None:
            diags = diags + check_wellformed(program)
        if program is None or diags:
            configs.append({"id": path.stem, "path": str(path), "failed": True,
                            "diagnostics": [str(d) for d in diags]})
            continue
        compiled = compile_program(program)
        verdicts = optimize.compute_verdicts(program, trust_typed, budget)
        opt_compiled, report = optimize.optimize_program(
            program, trust_typed=trust_typed, budget=budget, verdicts=verdicts)

        roots = [compiled.root, opt_compiled.root]
        if baseline_root is not None:
            roots.append(baseline_root)
        elif "1" not in path.stem:
            baseline_root = compiled.root
        runs = _interleaved_runs(roots, fuel, iterations)
        (answer, metrics, times), (opt_answer, opt_metrics, opt_times) = runs[:2]
        if baseline_root is None:
            base_time = None
        else:  # the baseline's own runs when this is the baseline
            base_time = min(runs[2][2] if len(runs) > 2 else times)

        checks = metrics.flat_checks
        configs.append({
            "id": path.stem,
            "path": str(path),
            "failed": False,
            "typed_modules": [m.name for m in program.modules if m.typed],
            "unoptimized": {
                "answer": interp.answer_to_json(answer),
                "metrics": metrics.as_dict(),
                **_timing(times),
            },
            "optimized": {
                "answer": interp.answer_to_json(opt_answer),
                "metrics": opt_metrics.as_dict(),
                **_timing(opt_times),
            },
            "overhead_unoptimized": None if base_time is None else min(times) / base_time,
            "overhead_optimized": None if base_time is None else min(opt_times) / base_time,
            "check_ratio": (opt_metrics.flat_checks / checks) if checks else None,
            "agree": interp.answer_to_json(answer) == interp.answer_to_json(opt_answer),
            "optimization": report.as_json(),
            "analysis_seconds": {v.module: v.seconds for v in verdicts},
        })
    return {"entry": entry_dir.name, "configs": configs}


def bench_corpus(corpus: Path, iterations: int = 3, fuel: int = BENCH_FUEL,
                 budget: int = analysis.DEFAULT_BUDGET,
                 trust_typed: bool = True) -> dict:
    entries = [bench_entry(corpus / name, iterations, fuel, budget, trust_typed)
               for name in list_entries(corpus)]
    return {"schema": 1, "corpus": str(corpus), "iterations": iterations,
            "entries": entries}


# ---------------------------------------------------------------------------
# Differential and soundness harness primitives
# ---------------------------------------------------------------------------

def answers_agree(a: interp.Answer, b: interp.Answer) -> bool:
    """Semantic agreement of two run outcomes.  First-order results agree
    when their types and values are equal, so 1 never agrees with #t.
    Two function results count as agreeing, guards or not: optimization
    rewrites the monitors inside closure bodies, and the removals are
    justified only against the interactions the program itself performs,
    so applying result functions to fresh arguments would probe behaviour
    outside the guarantee."""
    if type(a) is not type(b):
        return False
    if isinstance(a, interp.BlamedA):
        return a.label == b.label
    if not isinstance(a, interp.ValA):
        return True  # both stuck, or both out of fuel
    va, vb = a.value, b.value
    if interp.is_function(va):
        return interp.is_function(vb)
    return type(va) is type(vb) and va == vb


def run_differential(program: Program, trust_typed: bool = True,
                     fuel: int = 1_000_000,
                     budget: int = analysis.DEFAULT_BUDGET) -> dict:
    """Evaluate a program unoptimized and optimized and compare.  When one
    side runs out of fuel, both are retried with a hundredfold budget before
    the outcomes are compared."""
    original = compile_program(program)
    optimized, report = optimize.optimize_program(
        program, trust_typed=trust_typed, budget=budget)
    a0, m0 = interp.evaluate(original.root, fuel=fuel)
    a1, m1 = interp.evaluate(optimized.root, fuel=fuel)
    if isinstance(a0, interp.OutOfFuelA) or isinstance(a1, interp.OutOfFuelA):
        a0, m0 = interp.evaluate(original.root, fuel=fuel * 100)
        a1, m1 = interp.evaluate(optimized.root, fuel=fuel * 100)
    return {
        "agree": answers_agree(a0, a1),
        "checks_reduced": (m1.flat_checks <= m0.flat_checks
                           and m1.wrappers_allocated <= m0.wrappers_allocated),
        "original": (a0, m0),
        "optimized": (a1, m1),
        "report": report,
    }


def party_slices_cover(program: Program, label,
                       budget: int = analysis.DEFAULT_BUDGET) -> bool:
    """Does the slice of each party of a blame label observed concretely,
    the blamed module's and the holder's, account for it?  A slice whose
    analysis is exhausted counts as covering it (fail-safe)."""
    for party in (label.blamed, label.holder):
        bs = optimize.analyze_slice(program, party, budget)
        if not (bs.exhausted or label in bs.labels):
            return False
    return True


def _ratio(x: float | None) -> str:
    return "-" if x is None else f"{x:.2f}x"


def render_table(report: dict) -> str:
    """Flat TSV overhead table, one row per configuration."""
    rows = ["entry\tconfig\toverhead\toverhead_opt\tchecks\tchecks_opt\twraps_opt\tagree"]
    for entry in report["entries"]:
        for c in entry["configs"]:
            if c.get("failed"):
                rows.append(f"{entry['entry']}\t{c['id']}\tFAILED\t-\t-\t-\t-\t-")
                continue
            rows.append("\t".join([
                entry["entry"], c["id"],
                _ratio(c["overhead_unoptimized"]),
                _ratio(c["overhead_optimized"]),
                str(c["unoptimized"]["metrics"]["flat_checks"]),
                str(c["optimized"]["metrics"]["flat_checks"]),
                str(c["optimized"]["metrics"]["wrappers_allocated"]),
                "yes" if c["agree"] else "NO",
            ]))
    return "\n".join(rows)
