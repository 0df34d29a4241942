from conftest import ID_BOUNDARY, ID_BOUNDARY_OPTIMIZED_CORE, parse_ok
from gtlc.bench import answers_agree
from gtlc.frontend import parse_expr
from gtlc.gen import GenConfig, gen_program
from gtlc.interp import (
    BlamedA, OutOfFuelA, StuckA, ValA, answer_to_json, evaluate,
)
from gtlc.syntax import BlameLabel
from gtlc.translate import compile_program


def run(text, **kw):
    return evaluate(parse_expr(text), **kw)


def same(a, b):
    """Answer equality that tells 1 from #t: the host has `True == 1`."""
    return answer_to_json(a) == answer_to_json(b)


def test_ints_and_bools_are_never_confused():
    for n, b in ((1, True), (0, False)):
        assert not answers_agree(ValA(n), ValA(b))
        assert not same(ValA(n), ValA(b))
        assert answers_agree(ValA(n), ValA(n)) and answers_agree(ValA(b), ValA(b))
    assert same(run("(int? 1)")[0], ValA(True))
    assert not same(run("(int? #t)")[0], ValA(True))
    assert isinstance(run("(if 1 2 3)")[0], StuckA)
    assert isinstance(run("(mon (t u) bool? 0)")[0], BlamedA)


def test_id_boundary_blames_bad_client():
    answer, metrics = evaluate(compile_program(parse_ok(ID_BOUNDARY)).root)
    assert answer == BlamedA(BlameLabel("u2", "t1"))
    assert metrics.flat_checks == 3
    assert metrics.wrappers_allocated == 2
    assert metrics.wrapped_calls == 2


def test_let_without_monitors():
    answer, metrics = run("(let [x 5] x)")
    assert same(answer, ValA(5))
    assert metrics.flat_checks == 0


def test_let_evaluates_like_immediate_application():
    pairs = [
        ("(let [x 5] x)", "((λ (x) x) 5)"),
        ("(let [x (mon (a b) int? #t)] 9)", "((λ (x) 9) (mon (a b) int? #t))"),
        ("(let [f (λ (y) y)] (f 3))", "((λ (f) (f 3)) (λ (y) y))"),
    ]
    for with_let, desugared in pairs:
        a1, m1 = run(with_let)
        a2, m2 = run(desugared)
        assert same(a1, a2)
        assert m1.flat_checks == m2.flat_checks


def test_flat_monitor_pass_counts_once():
    answer, metrics = run("(mon (t1 u1) int? 5)")
    assert same(answer, ValA(5))
    assert metrics.flat_checks == 1


def test_flat_monitor_failure_blames_positive_party():
    answer, _ = run("(mon (t1 u1) int? #f)")
    assert answer == BlamedA(BlameLabel("t1", "u1"))


def test_double_flat_wrap_is_idempotent_but_counted():
    answer, metrics = run("(mon (t1 u1) int? (mon (t1 u1) int? 5))")
    assert same(answer, ValA(5))
    assert metrics.flat_checks == 2


def test_optimized_id_boundary_still_blames():
    answer, metrics = evaluate(parse_expr(ID_BOUNDARY_OPTIMIZED_CORE))
    assert answer == BlamedA(BlameLabel("u2", "t1"))
    assert metrics.flat_checks == 1


def test_domain_check_swaps_parties():
    # The guarded value's context supplies the argument, so a bad argument
    # blames the monitor's negative party.
    answer, _ = run("((mon (t1 u1) (-> int? int?) (λ (x) x)) #f)")
    assert answer == BlamedA(BlameLabel("u1", "t1"))


def test_range_check_blames_positive_party():
    answer, _ = run("((mon (t1 u1) (-> int? int?) (λ (x) #t)) 5)")
    assert answer == BlamedA(BlameLabel("t1", "u1"))


def test_arrow_monitor_on_non_function_blames():
    answer, _ = run("(mon (t1 u1) (-> int? int?) 7)")
    assert answer == BlamedA(BlameLabel("t1", "u1"))


def test_trivial_contract_checks_nothing():
    answer, metrics = run("(mon (t1 u1) any/c #f)")
    assert same(answer, ValA(False))
    assert metrics.flat_checks == 0 and metrics.wrappers_allocated == 0


def test_predicates_reject_wrapped_functions():
    answer, _ = run("(int? (mon (t1 u1) (-> int? int?) (λ (x) x)))")
    assert same(answer, ValA(False))
    answer, _ = run("(bool? (mon (t1 u1) (-> int? int?) (λ (x) x)))")
    assert same(answer, ValA(False))


def test_stuck_outside_monitors():
    assert isinstance(run("(5 5)")[0], StuckA)
    assert isinstance(run("(if 3 1 2)")[0], StuckA)
    assert isinstance(run("(if (λ (x) x) 1 2)")[0], StuckA)


def test_opaque_is_stuck_at_run_time():
    assert isinstance(run("opaque")[0], StuckA)


def test_fuel_exhaustion_is_not_stuck():
    omega = "((λ (x) (x x)) (λ (x) (x x)))"
    answer, _ = run(omega, fuel=5000)
    assert isinstance(answer, OutOfFuelA)
    assert not isinstance(answer, StuckA)


def test_determinism():
    root = compile_program(parse_ok(ID_BOUNDARY)).root
    a1, m1 = evaluate(root)
    a2, m2 = evaluate(root)
    assert same(a1, a2)
    assert (m1.flat_checks, m1.wrappers_allocated, m1.wrapped_calls, m1.steps) == \
        (m2.flat_checks, m2.wrappers_allocated, m2.wrapped_calls, m2.steps)


def test_monitored_call_checks_domain_and_range():
    result, metrics = run("((mon (t1 u1) (-> int? int?) (λ (x) x)) 3)")
    assert same(result, ValA(3))
    assert metrics.wrapped_calls == 1 and metrics.flat_checks == 2


def test_typed_modules_never_blamed_quick():
    # Exercised in full by the acceptance suite; a fast spot check here.
    for seed in range(200):
        p = gen_program(GenConfig(seed=seed))
        typed = {m.name for m in p.modules if m.typed}
        answer, _ = evaluate(compile_program(p).root, fuel=300_000)
        if isinstance(answer, BlamedA):
            assert answer.label.blamed not in typed, f"seed {seed}"
