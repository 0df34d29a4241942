"""Layered benchmark of gtlc: the verifier, the rewriter and the evaluator.

    python3 benchmark/run.py --workload gen-large [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (see README.md) in a single process, one program at a
time, for about `--seconds` seconds and at least two passes.  `--seconds`
defaults to `run_seconds` in BENCHMARK.json, the length every recorded
figure was measured at.  Prints a table of every metric by name and unit,
and as its last line one JSON object: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer metrics of a run whose odd passes
are traced.  A metric that nothing measured (every input failed) is null.
A traced run also writes its spans and per-input rows under
`benchmark/out/`.

Exit codes: 0 measured (see "correct" for the output check), 1 counters
differed between passes or a wrapped layer was never reached, 2 the gtlc
sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
OUT_DIR = HERE / "out"

if not (SRC / "gtlc" / "__init__.py").is_file():
    print(f"gtlc sources not found under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import CONFIGS, DEFAULT_SEED, WORKLOADS, build  # noqa: E402

E2E = (("setup_s", "s"), ("verify_s", "s"), ("optimize_s", "s"),
       ("optimize_p90_ms", "ms"), ("run_s", "s"), ("run_unopt_s", "s"),
       ("overhead_opt", "ratio"), ("overhead_unopt", "ratio"),
       ("monitors_removed_frac", "ratio"), ("peak_rss_mb", "MB"))
# Printed but not in the JSON result: each is 0 on some workload, so it
# cannot be gated by a share of its median.  fail_frac is `failed` over
# `attempted` in the result.
E2E_REPORTED = (("check_ratio", "ratio"), ("exhausted_frac", "ratio"),
                ("fail_frac", "ratio"))

PER_LAYER = (
    ("frontend.parse_s", "s"), ("frontend.wf_s", "s"), ("frontend.ast_nodes", "count"),
    ("frontend.nodes_per_s", "1/s"), ("frontend.diagnostics", "count"),
    ("translate.compile_s", "s"), ("translate.calls", "count"),
    ("translate.monitors", "count"), ("translate.core_nodes", "count"),
    ("analysis.analyze_s", "s"), ("analysis.slices", "count"), ("analysis.states", "count"),
    ("analysis.max_states", "count"), ("analysis.states_per_s", "1/s"),
    ("analysis.labels", "count"), ("analysis.exhausted", "count"),
    ("optimize.slice_s", "s"), ("optimize.verdicts_s", "s"), ("optimize.rewrite_s", "s"),
    ("optimize.pairs_proven", "count"), ("optimize.removed", "count"),
    ("optimize.weakened", "count"), ("optimize.kept", "count"),
    ("optimize.core_nodes_after", "count"),
    ("interp.eval_base_s", "s"), ("interp.eval_unopt_s", "s"), ("interp.eval_opt_s", "s"),
    ("interp.steps", "count"), ("interp.steps_per_s", "1/s"), ("interp.flat_checks", "count"),
    ("interp.wrappers_allocated", "count"), ("interp.wrapped_calls", "count"),
    ("interp.blamed", "count"), ("interp.stuck", "count"), ("interp.out_of_fuel", "count"),
    ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"),
)

SETUP_REPS = 5
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import gtlc; "
                 "print(time.perf_counter() - t)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]

    setup_s, work = _setup(args.workload, seed)
    passes = []
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(layers.run_pass(work, len(passes), seed, traced))
        elapsed = perf_counter() - start
        if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    e2e, wall = _end_to_end([p for p in passes if not p.traced], setup_s)
    same, digest = _deterministic(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.counters["failed"] for p in passes)
    unreached = sorted({name for p in passes for name in p.unreached})
    e2e["fail_frac"] = failed / attempted
    print(f"workload {work.name}  seed {seed}  inputs {len(work.inputs)}  "
          f"passes {len(passes)}  trace {args.trace}  elapsed {perf_counter() - start:.1f} s")
    _print_table("end to end (times at reference speed; wall clock beside them)",
                 E2E + E2E_REPORTED, e2e, wall)
    if args.trace:
        per_layer = _per_layer(work, passes)
        _print_table("per layer (per pass; interp per evaluation round)", PER_LAYER, per_layer)
        _print_rows(work, passes)
        path = _write_trace(work, seed, passes, per_layer)
        print(f"spans and rows written to {path.relative_to(HERE.parent)}")
    print(f"counters sha256:{digest}  (equal across passes: {'yes' if same else 'NO'})")
    for p in passes:
        for pid, stage, detail in p.failures:
            print(f"FAILED {pid} at {stage}: {detail}")
    if not same:
        print("counters differ between passes of one process", file=sys.stderr)
    if unreached:
        print(f"no call reached the wrapped layer(s) {', '.join(unreached)}: "
              "gtlc.optimize no longer calls them by those names, so their time "
              "and counts are missing", file=sys.stderr)

    names = PER_LAYER if args.trace else E2E
    values = per_layer if args.trace else e2e
    metrics = {n: {"value": values[n], "unit": u} for n, u in names}
    print(json.dumps({
        "correct": (failed == 0 and same and not unreached
                    and all(m["value"] is not None for m in metrics.values())),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if same and not unreached else 1


def _setup(name: str, seed: int):
    """Median over several set-ups, at reference speed, of a fresh
    interpreter's `import gtlc` plus building the workload's inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = SpeedProbe()
    samples = []
    for _ in range(SETUP_REPS):
        probe.probe()
        start = perf_counter()
        child = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                               capture_output=True, text=True, timeout=120, check=True)
        t0 = perf_counter()
        work = build(name, seed)
        end = perf_counter()
        probe.probe()
        samples.append((start, end - start, float(child.stdout) + end - t0))
    return statistics.median(s * probe.scale(start, span) for start, span, s in samples), work


def _times(passes, scaled: bool) -> dict:
    """Each input's median time over its repetitions (passes, compile
    repetitions, evaluation rounds), summed over the inputs; the p90 over
    inputs and compile repetitions of the optimize path; and the overheads,
    geometric means over the inputs of each input's median evaluation time
    over its baseline's.  At reference speed when `scaled`, else wall
    clock."""
    samples: dict = defaultdict(list)   # (path or config, input, rep) -> seconds
    for p in passes:
        for key, (wall, at_ref) in p.times.items():
            samples[key].append(at_ref if scaled else wall)
    per_input: dict = defaultdict(list)
    for (kind, k, _), ts in samples.items():
        per_input[kind, k].extend(ts)
    med = {key: statistics.median(ts) for key, ts in per_input.items()}
    total: dict = {}
    for (kind, _), t in med.items():
        total[kind] = total.get(kind, 0.0) + t

    def overhead(cfg: str) -> float | None:
        logs = [math.log(t / med["base", k]) for (kind, k), t in med.items()
                if kind == cfg and ("base", k) in med]
        return math.exp(statistics.fmean(logs)) if logs else None

    opt = [statistics.median(ts) for (kind, _, _), ts in samples.items() if kind == "optimize"]
    p90 = statistics.quantiles(opt, n=10, method="inclusive")[-1] if len(opt) > 1 else None
    return {
        "verify_s": total.get("verify"),
        "optimize_s": total.get("optimize"),
        "optimize_p90_ms": None if p90 is None else 1000.0 * p90,
        "run_s": total.get("opt"),
        "run_unopt_s": total.get("unopt"),
        "overhead_opt": overhead("opt"),
        "overhead_unopt": overhead("unopt"),
    }


def _ratio(a, b):
    return None if a is None or not b else a / b


def _end_to_end(passes, setup_s: float) -> tuple[dict, dict]:
    """The metrics, and the wall-clock versions of the scaled times."""
    c = passes[0].counters
    return {
        "setup_s": setup_s,
        **_times(passes, scaled=True),
        "monitors_removed_frac": _ratio(c["optimize.removed"], c["optimize.monitors_before"]),
        "check_ratio": _ratio(c["interp.opt.flat_checks"], c["interp.unopt.flat_checks"]),
        "exhausted_frac": _ratio(c["verify.exhausted"], c["verify.slices"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, _times(passes, scaled=False)


def _deterministic(passes) -> tuple[bool, str]:
    """Every pass must give the same counters; traced passes also the same
    per-layer counts."""
    first = passes[0].counters
    same = all(p.counters == first for p in passes)
    traced = [p.layer_counts for p in passes if p.traced]
    same = same and all(lc == traced[0] for lc in traced)
    digest = hashlib.sha256(json.dumps(sorted(first.items())).encode()).hexdigest()[:16]
    return same, digest


def _per_layer(work, passes) -> dict:
    """Per-layer metrics of the traced passes.  A time is the median over
    traced passes of the layer's summed self time at reference speed;
    `interp.*` is per evaluation round."""
    traced = [p for p in passes if p.traced]
    sums = []
    for p in traced:
        t = p.tracer
        own: dict = defaultdict(float)
        for name, start, end, self_s in zip(t.names, t.starts, t.ends, t.self_times()):
            own[name] += self_s * p.probe.scale(start, end - start)
        sums.append(own)

    def self_s(name: str) -> float:
        return statistics.median(own[name] for own in sums)

    lc = traced[0].layer_counts
    c = traced[0].counters
    out = {
        "frontend.parse_s": self_s("frontend.parse"),
        "frontend.wf_s": self_s("frontend.wf"),
        "frontend.ast_nodes": lc["frontend.ast_nodes"],
        "frontend.diagnostics": c["frontend.diagnostics"],
        "translate.compile_s": self_s("translate.compile"),
        "translate.calls": traced[0].tracer.names.count("translate.compile"),
        "translate.monitors": lc["translate.monitors"],
        "translate.core_nodes": lc["translate.core_nodes"],
        "analysis.analyze_s": self_s("analysis.analyze"),
        "optimize.slice_s": self_s("optimize.slice"),
        "optimize.verdicts_s": self_s("optimize.verdicts"),
        "optimize.rewrite_s": self_s("optimize.rewrite"),
        "optimize.pairs_proven": c["optimize.pairs_proven"],
        "optimize.removed": c["optimize.removed"],
        "optimize.weakened": c["optimize.weakened"],
        "optimize.kept": c["optimize.kept"],
        "optimize.core_nodes_after": lc["optimize.core_nodes_after"],
    }
    for name in ("slices", "states", "max_states", "labels", "exhausted"):
        out[f"analysis.{name}"] = lc[f"analysis.{name}"]
    out["frontend.nodes_per_s"] = _ratio(out["frontend.ast_nodes"], out["frontend.parse_s"])
    out["analysis.states_per_s"] = _ratio(out["analysis.states"], out["analysis.analyze_s"])
    for cfg in CONFIGS:
        out[f"interp.eval_{cfg}_s"] = self_s(f"interp.eval_{cfg}") / work.eval_rounds
    for name in ("steps", "flat_checks", "wrappers_allocated", "wrapped_calls",
                 "blamed", "stuck", "out_of_fuel"):
        out[f"interp.{name}"] = sum(c[f"interp.{cfg}.{name}"] for cfg in CONFIGS)
    out["interp.steps_per_s"] = _ratio(out["interp.steps"], sum(
        out[f"interp.eval_{cfg}_s"] for cfg in CONFIGS))
    plain_s = statistics.median(p.e2e_scaled_s for p in passes if not p.traced)
    out["trace.overhead_s"] = statistics.median(p.e2e_scaled_s for p in traced) - plain_s
    out["trace.overhead_frac"] = _ratio(out["trace.overhead_s"], plain_s)
    return out


def _print_table(title: str, names, values: dict, wall: dict | None = None) -> None:
    print(f"-- {title}")
    for name, unit in names:
        v = values[name]
        shown = "-" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v)
        beside = f"  wall {wall[name]:.6g}" if wall and wall.get(name) is not None else ""
        print(f"{name:28s} {shown:>14s} {unit}{beside}")


def _print_rows(work, passes) -> None:
    rows = next(p for p in passes if p.traced).rows
    if work.name == "hotloop":
        print("-- per configuration: answer, steps, flat checks, wrappers, eval ms")
        for row in rows:
            for cfg, e in row["eval"].items():
                print(f"{row['pid']} {cfg:5s} {e['answer']:>4s} {e['steps']:>9d} "
                      f"{e['flat_checks']:>8d} {e['wrappers_allocated']:>6d} {e['ms']:9.1f}")
        return
    shown = sorted(rows, key=lambda r: -r["optimize_ms"])
    if len(shown) > 150:
        shown = shown[:20]
    print(f"-- per input, slowest optimize path first ({len(shown)} of {len(rows)}): "
          "modules, monitors, optimize ms, self ms by layer")
    for row in shown:
        split = " ".join(f"{k}={v:.1f}" for k, v in row["split_ms"].items())
        print(f"{row['pid']:18s} {row['modules']:3d} {row['monitors']:4d} "
              f"{row['optimize_ms']:9.1f}  {split}")


def _write_trace(work, seed: int, passes, per_layer: dict) -> Path:
    """Spans of the last traced pass and the rows of every traced pass."""
    traced = [p for p in passes if p.traced]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{work.name}-seed{seed}.json"
    doc = {
        "workload": work.name, "seed": seed,
        "span_fields": ["name", "pid", "parent", "start_s", "end_s"],
        "spans": traced[-1].tracer.as_rows(),
        "rows": [p.rows for p in traced],
        "per_layer": per_layer,
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


if __name__ == "__main__":
    sys.exit(main())
