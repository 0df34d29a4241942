import hashlib
from collections import Counter

import pytest

from conftest import ID_BOUNDARY, ID_BOUNDARY_OPTIMIZED_CORE, parse_ok
from gtlc.bench import answers_agree, lattice_configs
from gtlc.frontend import parse_expr
from gtlc.gen import GenConfig, gen_program
from gtlc.interp import (
    BlamedA, OutOfFuelA, StuckA, ValA, answer_to_json, evaluate,
)
from gtlc.optimize import optimize_program
from gtlc.syntax import BlameLabel, Module, Program, Require
from gtlc.translate import compile_program, erase


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
    for text in ("(5 5)", "((λ (f) (f 1)) 5)"):
        # The second pushes its non-function through the fused path of an
        # application whose operator is a variable.
        assert run(text)[0] == StuckA("applied a non-function"), text
    assert run("((λ (f) (f 1)) 5)")[1].steps == 6
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


def counters(m):
    return (m.steps, m.flat_checks, m.wrappers_allocated, m.wrapped_calls)


def outcome(text, **kw):
    """(answer, steps, flat_checks, wrappers_allocated, wrapped_calls)."""
    answer, m = run(text, **kw)
    j = answer_to_json(answer)
    if j["kind"] == "value":
        shown = j["display"]
    elif j["kind"] == "blame":
        shown = (j["blamed"], j["holder"])
    else:
        shown = j["kind"]
    return (shown,) + counters(m)


def assert_fuel_boundary(root, fuels=None):
    """With S the unlimited step count, every fuel f < S (or each of
    `fuels`) stops with OutOfFuelA after exactly f steps, with counters that
    never fall as f grows and never pass their final values; fuel S gives
    the unlimited answer and counters."""
    answer, final = evaluate(root)
    limit = counters(final)
    previous = (0, 0, 0, 0)
    for f in range(limit[0]) if fuels is None else fuels:
        a, m = evaluate(root, fuel=f)
        assert isinstance(a, OutOfFuelA) and m.steps == f, f
        now = counters(m)
        assert all(p <= x <= y for p, x, y in zip(previous, now, limit)), f
        previous = now
    a, m = evaluate(root, fuel=limit[0])
    assert same(a, answer) and counters(m) == limit


def test_fuel_boundary_on_generated_programs():
    configs = [GenConfig(seed=seed) for seed in range(200)]
    configs += [GenConfig(seed=seed, expr_size=64) for seed in range(20)]
    for cfg in configs:
        assert_fuel_boundary(compile_program(gen_program(cfg)).root)


def test_fuel_boundary_on_corpus_compiled_and_optimized(corpus_path):
    programs = [parse_ok(ID_BOUNDARY)]
    for entry in sorted(d for d in corpus_path.iterdir() if d.is_dir() and d.name != "hotloop"):
        programs += [parse_ok(f.read_text(encoding="utf-8")) for f in lattice_configs(entry)]
    for p in programs:
        assert_fuel_boundary(compile_program(p).root)
        assert_fuel_boundary(optimize_program(p)[0].root)


def test_fuel_boundary_on_hot_loop_window(corpus_path):
    base, typed = (parse_ok((corpus_path / "hotloop" / f"{c}.gtl").read_text(encoding="utf-8"))
                   for c in ("0", "1"))
    for root in (compile_program(base).root, compile_program(typed).root,
                 optimize_program(typed)[0].root):
        assert_fuel_boundary(root, range(10_000, 10_101))


# Outcomes of guard calls, pinned as the interpreter measured them when it
# took one transition per loop iteration: fusing transitions changes none.
@pytest.mark.parametrize("text, expected", [
    # Guard on guard: both applications fuse, and the inner one loops.
    ("((mon (a b) (-> int? int?) (mon (c d) (-> int? int?) (λ (x) x))) 3)",
     ("3", 14, 4, 2, 2)),
    # An any/c domain, the weakened shape the optimizer emits.
    ("((mon (a b) (-> any/c int?) (λ (x) 7)) #t)", ("7", 9, 1, 1, 1)),
    ("((mon (a b) (-> any/c int?) (λ (x) x)) #t)", (("a", "b"), 8, 1, 1, 1)),
    # A guard around a primitive.
    ("((mon (a b) (-> int? bool?) int?) 5)", ("#t", 9, 2, 1, 1)),
    ("((mon (a b) (-> bool? bool?) int?) 5)", (("b", "a"), 6, 1, 1, 1)),
    # Domain blame names the guard whose domain failed.
    ("((mon (a b) (-> int? int?) (mon (c d) (-> int? int?) (λ (x) x))) #f)",
     (("b", "a"), 8, 1, 2, 1)),
    ("((mon (a b) (-> any/c int?) (mon (c d) (-> int? int?) (λ (x) x))) #t)",
     (("d", "c"), 10, 1, 2, 2)),
    # A higher-order domain takes single steps.
    ("((mon (a b) (-> (-> int? int?) int?) (λ (f) (f 1))) (λ (y) y))",
     ("1", 15, 3, 2, 2)),
    ("((mon (a b) (-> (-> int? int?) int?) (λ (f) (f 1))) (λ (y) #t))",
     (("b", "a"), 13, 2, 2, 2)),
    # Stuck in the body of a fused guard call.
    ("((mon (a b) (-> bool? int?) (λ (x) y)) #t)", ("stuck", 8, 1, 1, 1)),
    ("((mon (a b) (-> int? int?) (λ (x) (x 1))) 2)", ("stuck", 10, 1, 1, 1)),
    # One guard applied twice: both calls push the range frame it carries,
    # and the second blames through it.
    ("((λ (g) ((λ (_) (g 2)) (g 1))) (mon (a b) (-> int? int?) (λ (x) x)))",
     ("2", 21, 4, 1, 2)),
    ("((λ (g) ((λ (_) (g #t)) (g 1))) (mon (a b) (-> any/c int?) (λ (x) x)))",
     (("a", "b"), 20, 2, 1, 2)),
])
def test_guard_calls_pinned(text, expected):
    assert outcome(text) == expected


def test_fuel_runs_out_inside_guard_calls_pinned():
    # (flat_checks, wrappers_allocated, wrapped_calls) at fuel 0 .. 13 of
    # the guard on guard above.  Fuel 7 to 10 run out inside the two guard
    # calls (steps 7-9 and 9-11), before all of a fused call's steps.
    text = "((mon (a b) (-> int? int?) (mon (c d) (-> int? int?) (λ (x) x))) 3)"
    pinned = [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 1, 0),
              (0, 2, 0), (0, 2, 0), (0, 2, 1), (1, 2, 1), (1, 2, 2),
              (2, 2, 2), (2, 2, 2), (3, 2, 2), (4, 2, 2)]
    for f, expected in enumerate(pinned):
        assert outcome(text, fuel=f) == ("fuel-exhausted", f) + expected
    assert outcome(text, fuel=14) == ("3", 14, 4, 2, 2)


# Scoping through the pending binding (see Environments in `interp`'s
# docstring), pinned as the interpreter measured them when every closure
# application copied its environment.
@pytest.mark.parametrize("text, expected", [
    # A parameter that shadows a `let`-bound name, and the `let`-bound name
    # read again once the call has returned.
    ("(let [x 1] ((λ (x) x) 2))", ("2", 6, 0, 0, 0)),
    ("(let [x 1] (let [y ((λ (x) x) 2)] x))", ("1", 8, 0, 0, 0)),
    ("(let [a 1] ((λ (b) a) 2))", ("1", 6, 0, 0, 0)),
    # A `let` that shadows the parameter, read and then captured by a λ.
    ("((λ (x) (let [x #t] x)) 5)", ("#t", 6, 0, 0, 0)),
    ("((λ (x) (let [x #t] ((λ (f) (f 0)) (λ (y) x)))) 5)", ("#t", 12, 0, 0, 0)),
    ("((λ (x) (let [g (let [x #t] (λ (z) x))] (if (g 0) x 0))) 5)", ("5", 13, 0, 0, 0)),
    # A closure created under a pending binding, applied after its creator
    # returned.
    ("(let [mk (λ (a) (λ (b) a))] (let [g (mk 7)] (g 0)))", ("7", 11, 0, 0, 0)),
    ("(let [mk (λ (a) (let [c (int? a)] (λ (b) (if c a b))))] ((mk 7) 0))",
     ("7", 16, 0, 0, 0)),
    # A returned closure's parameter is unbound outside it: by a plain read,
    # through the fused path of an application, and as a closure's free name.
    ("(let [f (λ (q) q)] (let [r (f 1)] q))", ("stuck", 8, 0, 0, 0)),
    ("(let [r ((λ (q) q) 1)] (q 2))", ("stuck", 7, 0, 0, 0)),
    ("((λ (g) q) ((λ (q) (λ (z) q)) 3))", ("stuck", 7, 0, 0, 0)),
    # An `if`, argument or `let` frame restores the pending binding it was
    # pushed under once a call that rebinds the same name returns.
    ("((λ (x) (if ((λ (x) (bool? x)) #t) x 0)) 5)", ("5", 12, 0, 0, 0)),
    ("((λ (x) (((λ (x) (λ (y) y)) #t) x)) 5)", ("5", 10, 0, 0, 0)),
    ("((λ (x) (let [y ((λ (x) x) #t)] x)) 5)", ("5", 9, 0, 0, 0)),
    # The same inside the wrapped function of a guard.
    ("((mon (a b) (-> int? int?) (λ (x) (let [y ((λ (x) #t) x)] x))) 3)",
     ("3", 14, 2, 1, 1)),
])
def test_pending_binding_scopes_pinned(text, expected):
    assert outcome(text) == expected
    if expected[0] == "stuck":
        assert run(text)[0] == StuckA("unbound variable 'q'")
    assert_fuel_boundary(parse_expr(text))


# A `let` that rebinds the pending name shadows it, so its pop writes
# nothing into a copy of the dict.  Pinned as the interpreter measured them
# when that pop still copied the dict.
@pytest.mark.parametrize("text, expected", [
    ("(let [x 1] (let [x 2] x))", ("2", 5, 0, 0, 0)),
    ("(let [x 1] (let [y 0] (let [x 2] (if (bool? y) y x))))", ("2", 12, 0, 0, 0)),
    # The shape of a module spine: a require rebinds the module's name to
    # its monitored value.
    ("(let [t1 (λ (x) x)] (let [u1 (let [t1 (mon (t1 u1) (-> int? int?) t1)] (t1 5))] u1))",
     ("5", 15, 2, 1, 1)),
    ("(let [t1 (λ (x) x)] (let [u1 (let [t1 (mon (t1 u1) (-> int? int?) t1)] (t1 #f))] u1))",
     (("u1", "t1"), 11, 1, 1, 1)),
    # A λ that captures the environment after the shadowing.
    ("(let [x 1] (let [x 2] ((λ (f) (f 0)) (λ (y) x))))", ("2", 11, 0, 0, 0)),
    ("((λ (x) (let [x 2] (let [x 3] (λ (y) x)))) 1)", ("#<procedure>", 8, 0, 0, 0)),
    ("(((λ (x) (let [x 2] (let [x 3] (λ (y) x)))) 1) 0)", ("3", 11, 0, 0, 0)),
    ("(let [x 1] (let [g (let [x 2] (λ (y) x))] (if (int? (g 0)) x 0)))", ("1", 15, 0, 0, 0)),
])
def test_shadowing_let_pinned(text, expected):
    assert outcome(text) == expected
    assert_fuel_boundary(parse_expr(text))


# Applications of closures whose body is a variable, which the value phase
# reads on the spot (see Steps in `interp`'s docstring).  Pinned as the
# interpreter measured them when it entered every body as an expression.
@pytest.mark.parametrize("text, expected", [
    # An identity at the bottom of the stack.
    ("((λ (x) x) 3)", ("3", 4, 0, 0, 0)),
    # A chain of identities: each read pops the next call frame.
    ("(let [f (λ (x) x)] (f (f (f 1))))", ("1", 12, 0, 0, 0)),
    # A projection of a captured name.
    ("((λ (a) ((λ (b) a) 2)) 1)", ("1", 7, 0, 0, 0)),
    # A parameter that shadows a captured name of its own.
    ("(let [x 1] ((λ (x) x) 2))", ("2", 6, 0, 0, 0)),
    ("(let [x #t] (let [f (λ (x) x)] (f (f 3))))", ("3", 11, 0, 0, 0)),
    # A variable body whose name is unbound is stuck.
    ("((λ (x) y) 1)", ("stuck", 4, 0, 0, 0)),
    ("(let [f (λ (x) y)] (f (f 1)))", ("stuck", 8, 0, 0, 0)),
    # Guard-wrapped identities: `int?`, `any/c` and failing ranges.
    ("((mon (a b) (-> int? int?) (λ (x) x)) 3)", ("3", 9, 2, 1, 1)),
    ("((mon (a b) (-> any/c any/c) (λ (x) x)) #t)", ("#t", 9, 0, 1, 1)),
    ("((mon (a b) (-> any/c int?) (λ (x) x)) 3)", ("3", 9, 1, 1, 1)),
    ("((mon (a b) (-> any/c int?) (λ (x) x)) #t)", (("a", "b"), 8, 1, 1, 1)),
    ("((mon (a b) (-> int? bool?) (λ (x) x)) 3)", (("a", "b"), 8, 2, 1, 1)),
    ("((mon (a b) (-> int? int?) (λ (x) y)) 3)", ("stuck", 8, 1, 1, 1)),
    ("(let [x 1] ((mon (a b) (-> int? int?) (λ (x) x)) 2))", ("2", 11, 2, 1, 1)),
    # Nested guards, a guard applied twice, and higher-order domains that
    # take single steps before the wrapped identity is read.
    ("((mon (a b) (-> int? int?) (mon (c d) (-> any/c int?) (λ (x) x))) 4)",
     ("4", 14, 3, 2, 2)),
    ("((λ (g) (g (g 1))) (mon (a b) (-> int? int?) (λ (x) x)))", ("1", 18, 4, 1, 2)),
    ("((mon (a b) (-> (-> int? int?) (-> int? int?)) (λ (f) f)) (λ (x) x))",
     ("#<procedure>", 9, 0, 3, 1)),
    ("(((mon (a b) (-> (-> int? int?) (-> int? int?)) (λ (f) f)) (λ (x) x)) 5)",
     ("5", 18, 4, 3, 3)),
    ("(((mon (a b) (-> (-> int? int?) (-> int? int?)) (λ (f) f)) (λ (x) #f)) 5)",
     (("b", "a"), 16, 3, 3, 3)),
])
def test_variable_body_applications_pinned(text, expected):
    assert outcome(text) == expected
    if expected[0] == "stuck":
        assert run(text)[0] == StuckA("unbound variable 'y'")
    assert_fuel_boundary(parse_expr(text))


def _untyped_config(p):
    """`p` with every module untyped and unannotated: its baseline."""
    return Program([Module(m.name, None, [Require(r.target, opaque=r.opaque) for r in m.requires],
                           erase(m.body)) for m in p.modules])


# sha256 over (answer_to_json, steps, flat_checks, wrappers_allocated,
# wrapped_calls) of the base (untyped configuration), unoptimized and
# optimized evaluation, at fuel 300,000, of `gen` seeds 0-199, seeds 0-39 at
# expr_size 64 with 16 modules, and every corpus configuration.  Recorded
# before closures bound their parameter as a pending binding instead of
# copying their environment, and unchanged by that rewrite.
GOLDEN_EVAL_DIGEST = "023d87b0476f6d29e121c4a21ce2179b1fdbca803e2a3c37f6ac1f5d007cc8fd"


def test_evaluation_matches_golden_digest(corpus_path):
    programs = [gen_program(GenConfig(seed=s)) for s in range(200)]
    programs += [gen_program(GenConfig(seed=s, expr_size=64, max_modules=16)) for s in range(40)]
    programs += [parse_ok(f.read_text(encoding="utf-8"))
                 for d in sorted(d for d in corpus_path.iterdir() if d.is_dir())
                 for f in lattice_configs(d)]
    h = hashlib.sha256()
    kinds = Counter()
    for p in programs:
        for root in (compile_program(_untyped_config(p)).root, compile_program(p).root,
                     optimize_program(p)[0].root):
            answer, m = evaluate(root, fuel=300_000)
            j = answer_to_json(answer)
            kinds[j["kind"]] += 1
            h.update(repr((j,) + counters(m)).encode())
    assert len(programs) == 252
    assert kinds == {"value": 598, "blame": 104, "stuck": 48, "fuel-exhausted": 6}
    assert h.hexdigest() == GOLDEN_EVAL_DIGEST
