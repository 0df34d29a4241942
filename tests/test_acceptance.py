"""Acceptance suite.

Each test implements one release criterion end to end and prints a single
PASS/FAIL line (run with `pytest -s` to see them as they complete).  The
randomized suites share one fixed seed set; all tolerances are stated
inline.
"""

import time

import pytest

from conftest import (
    ID_BOUNDARY, ID_BOUNDARY_CORE, ID_BOUNDARY_OPTIMIZED_CORE,
    ID_BOUNDARY_SLICE_U1, contracts_up_to, full_slice, parse_ok, party_slices_cover,
    run_differential, structurally_equal,
)
from gtlc.analysis import analyze
from gtlc.bench import _interleaved_runs, bench_entry, lattice_configs
from gtlc.frontend import parse_expr, parse_program
from gtlc.gen import GenConfig, gen_program
from gtlc.interp import BlamedA, evaluate
from gtlc.optimize import copt, optimize_program
from gtlc.syntax import (
    ANY_C, ArrowC, BlameLabel, INT_C, Polarity,
)
from gtlc.translate import compile_program, erase

SEED_COUNT = 1000
GEN_FUEL = 300_000
CORPUS_FUEL = 100_000_000
# Criterion 6 times the hot loop in this many slices of this much fuel per
# program (about 0.01 s each).
TIMING_ROUNDS = 96
TIMING_FUEL = 75_000


def _report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num} {name}: {status}")
    assert not failures, failures[:10]


@pytest.fixture(scope="module")
def generated():
    """The pinned random programs together with their concrete outcomes."""
    out = []
    for seed in range(SEED_COUNT):
        program = gen_program(GenConfig(seed=seed))
        answer, metrics = evaluate(compile_program(program).root, fuel=GEN_FUEL)
        typed = frozenset(m.name for m in program.modules if m.typed)
        out.append((seed, program, answer, metrics, typed))
    return out


@pytest.fixture(scope="module")
def corpus_programs(corpus_path):
    out = []
    for entry in sorted(p for p in corpus_path.iterdir() if p.is_dir()):
        for config in lattice_configs(entry):
            program, diags = parse_program(config.read_text(encoding="utf-8"))
            assert program is not None and not diags, config
            out.append((f"{entry.name}/{config.stem}", program))
    return out


def test_criterion_1_golden_chain():
    failures = []
    t0 = time.perf_counter()

    program = parse_ok(ID_BOUNDARY)
    compiled = compile_program(program)
    if not structurally_equal(erase(compiled.root), parse_expr(ID_BOUNDARY_CORE)):
        failures.append("compilation does not match the expected core program")

    answer, _ = evaluate(compiled.root)
    if answer != BlamedA(BlameLabel("u2", "t1")):
        failures.append(f"expected blame (u2, t1), got {answer}")

    sliced = parse_ok(ID_BOUNDARY_SLICE_U1)
    labels = analyze(compile_program(sliced).root).labels
    if BlameLabel("u1", "t1") in labels:
        failures.append("slice analysis wrongly blames u1")
    if BlameLabel("t1", "u1") not in labels:
        failures.append("slice analysis misses the provider's obligation")

    optimized, report = optimize_program(program)
    if not structurally_equal(erase(optimized.root),
                              parse_expr(ID_BOUNDARY_OPTIMIZED_CORE)):
        failures.append("optimized program does not match the expected output")
    opt_answer, _ = evaluate(optimized.root)
    if opt_answer != BlamedA(BlameLabel("u2", "t1")):
        failures.append(f"optimized run changed the outcome: {opt_answer}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, bound is 1s")
    _report(1, "golden chain on the boundary example", failures)


def test_criterion_2_contract_rewrite_unit_suite():
    failures = []
    t0 = time.perf_counter()

    expected = [
        (INT_C, Polarity.POS, ANY_C),
        (ArrowC(INT_C, INT_C), Polarity.POS, ArrowC(INT_C, ANY_C)),
        (ArrowC(INT_C, INT_C), Polarity.NEG, ArrowC(ANY_C, INT_C)),
        (ArrowC(ANY_C, ANY_C), Polarity.POS, ANY_C),
    ]
    for contract, side, want in expected:
        got = copt(contract, side)
        if got != want:
            failures.append(f"copt({contract}, {side}) = {got}, want {want}")

    contracts = contracts_up_to(4)
    for c in contracts:
        for s in Polarity:
            once = copt(c, s)
            if copt(once, s) != once:
                failures.append(f"copt not idempotent on {c} at {s}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s over {len(contracts)} contracts, bound is 1s")
    _report(2, "contract rewriting unit suite", failures)


def test_criterion_3_differential_equivalence(generated, corpus_programs):
    failures = []
    t0 = time.perf_counter()

    for seed, program, answer, metrics, _ in generated:
        r = run_differential(program, fuel=GEN_FUEL)
        if not r["agree"]:
            failures.append(f"seed {seed}: answers diverge")
        if not r["checks_reduced"]:
            failures.append(f"seed {seed}: check counts grew")

    for name, program in corpus_programs:
        r = run_differential(program, fuel=CORPUS_FUEL)
        if not r["agree"]:
            failures.append(f"{name}: answers diverge")
        if not r["checks_reduced"]:
            failures.append(f"{name}: check counts grew")

    elapsed = time.perf_counter() - t0
    if elapsed >= 300:
        failures.append(f"took {elapsed:.0f}s, bound is 300s")
    _report(3, f"differential equivalence over {SEED_COUNT} programs + corpus",
            failures)


def test_criterion_4_blame_soundness(generated, corpus_programs):
    failures = []
    t0 = time.perf_counter()
    checked = 0

    for seed, program, answer, _, _ in generated:
        if isinstance(answer, BlamedA):
            checked += 1
            if not party_slices_cover(program, answer.label):
                failures.append(f"seed {seed}: {answer.label} missed by a party's slice")

    for name, program in corpus_programs:
        answer, _ = evaluate(compile_program(program).root, fuel=CORPUS_FUEL)
        if isinstance(answer, BlamedA):
            checked += 1
            if not party_slices_cover(program, answer.label):
                failures.append(f"{name}: {answer.label} missed by a party's slice")

    if checked < 50:
        failures.append(f"only {checked} blaming runs; the suite is undersized")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600:
        failures.append(f"took {elapsed:.0f}s, bound is 600s")
    _report(4, f"blame soundness over {checked} blaming runs", failures)


def test_criterion_5_typed_modules_never_blamed(generated, corpus_programs):
    failures = []

    for seed, program, answer, _, typed in generated:
        compiled, _ = optimize_program(program)
        optimized, _ = evaluate(compiled.root, fuel=GEN_FUEL)
        for a in (answer, optimized):
            if isinstance(a, BlamedA) and a.label.blamed in typed:
                failures.append(f"seed {seed}: typed module {a.label.blamed} blamed")

    for name, program in corpus_programs:
        typed = {m.name for m in program.modules if m.typed}
        answer, _ = evaluate(compile_program(program).root, fuel=CORPUS_FUEL)
        if isinstance(answer, BlamedA) and answer.label.blamed in typed:
            failures.append(f"{name}: typed module {answer.label.blamed} blamed")

    _report(5, "typed modules are never blamed", failures)


@pytest.fixture(scope="module")
def hotloop_report(corpus_path):
    return bench_entry(corpus_path / "hotloop", iterations=1, fuel=CORPUS_FUEL)


def test_criterion_6_check_elimination(corpus_path, hotloop_report):
    failures = []

    # Every configuration of the fully-verifiable entries must lose all
    # run-time checking.
    reports = {"chain": bench_entry(corpus_path / "chain", iterations=1, fuel=CORPUS_FUEL),
               "hotloop": hotloop_report}
    for entry, report in reports.items():
        for config in report["configs"]:
            metrics = config["optimized"]["metrics"]
            if metrics["flat_checks"] != 0 or metrics["wrappers_allocated"] != 0:
                failures.append(f"{entry}/{config['id']}: residual checking "
                                f"{metrics['flat_checks']}/{metrics['wrappers_allocated']}")
            if not config["agree"]:
                failures.append(f"{entry}/{config['id']}: answers diverge")

    # The hot loop: at least a million checks before, none after, and
    # exactly the baseline's steps.
    configs = {c["id"]: c for c in reports["hotloop"]["configs"]}
    base, hot = configs["0"], configs["1"]
    if hot["unoptimized"]["metrics"]["flat_checks"] < 1_000_000:
        failures.append("hot loop performs fewer than 1e6 checks unoptimized")
    if hot["optimized"]["metrics"]["flat_checks"] != 0:
        failures.append("hot loop keeps checks after optimization")
    steps, base_steps = (hot["optimized"]["metrics"]["steps"],
                         base["unoptimized"]["metrics"]["steps"])
    if steps != base_steps:
        failures.append(f"optimized hot loop takes {steps} steps, baseline {base_steps}")
    # The deterministic claim beneath the timing: the optimized hot loop is
    # the untyped baseline's program, up to the lambda annotations its
    # typed bodies keep and no pass reads, so the ratio below can only
    # measure the host.
    hot_program, base_program = (
        parse_ok((corpus_path / "hotloop" / f"{config}.gtl").read_text(encoding="utf-8"))
        for config in ("1", "0"))
    optimized, _ = optimize_program(hot_program)
    base_root = compile_program(base_program).root
    if not structurally_equal(erase(optimized.root), base_root):
        failures.append("optimized hot loop differs from the compiled untyped baseline")
    # Wall time within 10% of the baseline's.  Runs of one program can
    # differ by 40% within seconds on a shared host, so the two run in
    # short fuel-bounded slices, interleaved with the first of each pair
    # alternating, and the fastest slices are compared: drift in the
    # host's speed then hits both alike.
    (_, _, hot_times), (_, _, base_times) = _interleaved_runs(
        [optimized.root, base_root], fuel=TIMING_FUEL, iterations=TIMING_ROUNDS)
    ratio = min(hot_times) / min(base_times)
    if ratio > 1.10:
        failures.append(f"optimized hot loop at {ratio:.3f}x baseline, bound 1.10x")

    _report(6, "check elimination on fully-verifiable entries", failures)


def test_hot_loop_steps_ratios(hotloop_report):
    # The deterministic twin of the hot loop's overheads: the guarded run
    # takes 1.9 times the baseline's steps, the optimized run exactly its
    # steps.
    configs = {c["id"]: c for c in hotloop_report["configs"]}
    assert (configs["0"]["steps_ratio_unoptimized"], configs["0"]["steps_ratio_optimized"]) \
        == (1.0, 1.0)
    assert configs["1"]["steps_ratio_unoptimized"] == 6_333_374 / 3_333_370
    assert configs["1"]["steps_ratio_optimized"] == 1.0
    # The unoptimized hot loop's exact counts: a million guarded calls of
    # `tick`, each checking its domain and its range.
    metrics = configs["1"]["unoptimized"]["metrics"]
    assert (metrics["steps"], metrics["flat_checks"], metrics["wrappers_allocated"],
            metrics["wrapped_calls"]) == (6_333_374, 2_000_000, 1, 1_000_000)


def test_criterion_7_unverifiable_entry_fails_safe(corpus_path):
    failures = []
    text = (corpus_path / "flaggate" / "1.gtl").read_text(encoding="utf-8")
    program = parse_ok(text)

    baseline, _ = evaluate(compile_program(program).root)
    compiled, report = optimize_program(program)
    optimized, _ = evaluate(compiled.root)

    surviving = [d for d in report.dispositions if d.kind != "removed"]
    if not surviving:
        failures.append("the violated obligation was removed")
    else:
        kept_domains = [d.after.dom for d in surviving
                        if isinstance(d.after, ArrowC)]
        if INT_C not in kept_domains:
            failures.append(f"domain obligation missing from {surviving}")
    if not isinstance(baseline, BlamedA):
        failures.append(f"expected the unoptimized run to blame, got {baseline}")
    elif optimized != baseline:
        failures.append(f"blame changed: {baseline} vs {optimized}")

    _report(7, "unverifiable entry keeps its obligation", failures)


def test_criterion_8_analysis_terminates(corpus_programs):
    failures = []
    t0 = time.perf_counter()

    for name, program in corpus_programs:
        for m in program.modules:
            root = compile_program(full_slice(program, m.name)).root
            bs = analyze(root)
            if bs.exhausted:
                failures.append(f"{name}, module {m.name}: hit the state cap")

    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        failures.append(f"took {elapsed:.0f}s, bound is 120s")
    _report(8, "analysis terminates on the whole corpus", failures)
