import ast
import hashlib
from itertools import combinations, permutations
from pathlib import Path

from conftest import (
    HOLES_UNDER_BINDERS, HOLES_UNDER_LAMBDAS, ID_BOUNDARY, ID_BOUNDARY_SLICE_U1,
    OPAQUE_UNDER_LAMBDA, expr_nodes, full_slice, parse_ok,
)
from gtlc import analysis
from gtlc.analysis import (
    _BOOL, _BOOL_T, _CLOS, _FN_T, _GUARD, _IF, _INT, _INT_T, _LAM, _LET,
    _MON, _OPAQUE, _OPQ, _PRIM, _SOME_INT, _SOME_VALUE, _VAL, _VAR, _admits,
    _refine, analyze, lower, reachable_states,
)
from gtlc.bench import corpus_dir, lattice_configs
from gtlc.frontend import parse_expr
from gtlc.gen import GenConfig, gen_program
from gtlc.interp import BlamedA, evaluate
from gtlc.optimize import analyze_slice, slice_for_module
from gtlc.syntax import (
    App, ArrowC, BlameLabel, BOOL_C, BoolLit, If, INT_C, IntLit, Lam, Let,
    Module, Mon, Opaque, Prim, Program, Require, TArrow, TInt, Var,
)
from gtlc.translate import compile_program, erase


def analyze_source(text, **kw):
    return analyze(compile_program(parse_ok(text)).root, **kw)


def test_slice_golden_labels():
    bs = analyze_source(ID_BOUNDARY_SLICE_U1)
    assert not bs.exhausted
    assert BlameLabel("t1", "u1") in bs.labels
    assert BlameLabel("u1", "t1") not in bs.labels


def test_single_passing_flat_monitor():
    bs = analyze(parse_expr("(mon (t1 u1) int? 5)"))
    assert bs.labels == frozenset() and not bs.exhausted


def test_slice_for_bad_client_overapproximates_concrete_blame():
    # Oracle first: the full program's concrete run pins the expected label.
    program = parse_ok(ID_BOUNDARY)
    concrete, _ = evaluate(compile_program(program).root)
    assert isinstance(concrete, BlamedA)
    label = concrete.label
    assert label == BlameLabel("u2", "t1")

    sliced = full_slice(program, label.blamed)
    bs = analyze(compile_program(sliced).root)
    assert label in bs.labels


def test_refine_records_outcome():
    o = (_OPQ, 0)
    assert _refine(o, _INT_T) == (_OPQ, _INT_T)


def test_refine_contradiction_pruned():
    o = (_OPQ, _INT_T)
    assert _refine(o, _INT_T << 3) is None


def test_refine_disjoint_base_types():
    o = (_OPQ, _INT_T)
    assert _refine(o, _BOOL_T) is None
    assert _refine(o, _FN_T) is None


def test_first_order_values_are_not_applicable():
    # Every integer literal is the one abstract integer.
    assert lower(IntLit(5)) == [(_VAL, _SOME_INT)]
    assert not _admits(_SOME_INT, _FN_T)
    assert _admits((_OPQ, 0), _FN_T)
    assert not _admits((_OPQ, _FN_T << 3), _FN_T)


# -- lowering ------------------------------------------------------------------

def _lowering_programs():
    programs = [gen_program(GenConfig(seed=s)) for s in range(20)]
    programs += [gen_program(GenConfig(seed=s, expr_size=64, max_modules=16))
                 for s in range(4)]
    return programs + [parse_ok(ID_BOUNDARY), parse_ok(OPAQUE_UNDER_LAMBDA)]


def _labels(root):
    """The label `lower` gives each node of `root`, by node identity: its
    pre-order index."""
    return {id(e): i for i, e in enumerate(expr_nodes(root))}


def test_every_opaque_of_a_slice_has_a_scope():
    # A slice's holes and the opaque terms the reader gives its module's
    # body are all scoped, so each lowers to the addresses of no more
    # names than its scope holds, and each module's hole to one address,
    # unrefined, per module it requires that the slice keeps, whichever
    # slice it is in.
    for p in _lowering_programs():
        for m in p.modules:
            holes = [e for e in expr_nodes(m.body) if type(e) is Opaque]
            assert all(h.allowed is not None for h in holes)
            sliced = slice_for_module(p, m.name)
            root = compile_program(sliced).root
            for tree in (m.body, root):  # lowered alone, then in its slice
                code, at = lower(tree), _labels(tree)
                assert all(len(code[at[id(h)]][1]) <= len(h.allowed)
                           for h in holes if id(h) in at), m.name
            for hole in sliced.modules:
                original = p.module_named(hole.name)
                if hole.body is original.body:
                    continue
                seen = code[at[id(hole.body)]][1]
                requires = {r.target for r in original.requires} & set(sliced.names())
                assert len(seen) == len(requires), (m.name, original.name)
                assert all(refs == 0 for _, refs in seen), (m.name, original.name)
    # u's body, with t and main bound around it, sees its lambda's
    # parameter and, through the scope the reader gave it, the module it
    # requires; not main.
    u = parse_ok(OPAQUE_UNDER_LAMBDA).module_named("u")
    code = lower(Let("t", IntLit(0), Let("main", IntLit(0), u.body)))
    assert [ins[1] for ins in code if ins[0] == _OPAQUE] == [((5, 0), (0, 0))]


def test_lowered_code_belongs_to_the_analysis():
    # No module of gtlc but `analysis` refers to `lower`, to the slots of a
    # lowered let, or to a private name of `analysis`, so the instruction
    # layout is the analysis' own.
    private = {"lower", "LET_RHS", "LET_BODY"}
    found = []
    for path in sorted(Path(analysis.__file__).parent.glob("*.py")):
        if path.name == "analysis.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.ImportFrom) and node.module in ("analysis", "gtlc.analysis"):
                names = [a.name for a in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "analysis"):
                names = [node.attr]
            found += [(path.name, n) for n in names if n in private or n.startswith("_")]
    assert found == []


# -- name resolution ------------------------------------------------------------

def test_a_let_shadows_a_lambda_parameter():
    # (λ (x) (let [x x] x)): the rhs reads the parameter, the body the let.
    code = lower(Lam("x", None, Let("x", Var("x"), Var("x"))))
    assert code == [(_LAM, 1), (_LET, 2, 3), (_VAR, 0, 0), (_VAR, 1, 0)]


def test_a_refined_address_is_visible_only_inside_its_branch():
    # (λ (x) (let [y (if (int? x) x x)] x)): every read of x is at the
    # parameter's address, and only the reads inside a branch carry that
    # branch's outcome.
    e = Lam("x", None, Let("y", If(App(Prim("int?"), Var("x")), Var("x"), Var("x")),
                           Var("x")))
    code = lower(e)
    assert code[2] == (_IF, 3, 6, 7)
    assert [code[i] for i in (5, 6, 7, 8)] == [
        (_VAR, 0, 0), (_VAR, 0, _INT_T), (_VAR, 0, _INT_T << 3), (_VAR, 0, 0)]
    # A test of an unbound name refines nothing.
    assert lower(If(App(Prim("bool?"), Var("z")), Var("z"), IntLit(0)))[4] == \
        (_VAR, None, 0)


def test_an_unbound_name_is_pruned():
    assert lower(Var("z")) == [(_VAR, None, 0)]
    # The path that reads it ends there, so the monitor is never reached.
    bs = analyze(Mon("t", "u", INT_C, Var("z")))
    assert bs.labels == frozenset() and not bs.exhausted


def test_a_scoped_hole_sees_only_its_names():
    # (let [a 1] (λ (b) opaque)), the hole scoped to a and c.
    e = Let("a", IntLit(1), Lam("b", None, Opaque(frozenset({"a", "c"}))))
    assert lower(e)[-1] == (_OPAQUE, ((0, 0),))
    # In (let [c 0] (let [d 0] e)), e's let is at 4.
    assert lower(Let("c", IntLit(0), Let("d", IntLit(0), e)))[-1] == \
        (_OPAQUE, ((4, 0), (0, 0)))


def test_an_unscoped_hole_sees_the_innermost_binding_of_every_name():
    # (let [a 0] (let [c 0] (let [a 1] (λ (a) (λ (b) opaque))))): the
    # lambdas are at 6 and 7, and c's let at 2.
    e = Let("a", IntLit(1), Lam("a", None, Lam("b", None, Opaque())))
    assert lower(Let("a", IntLit(0), Let("c", IntLit(0), e)))[-1] == \
        (_OPAQUE, ((6, 0), (7, 0), (2, 0)))


def test_a_scope_binds_a_free_name():
    # (let [y m] (λ (m) m)) in (let [m 0] ...): m is the outer let's until
    # the lambda rebinds it.
    e = Let("y", Var("m"), Lam("m", None, Var("m")))
    assert lower(Let("m", IntLit(0), e)) == [
        (_LET, 1, 2), (_VAL, _SOME_INT), (_LET, 3, 4), (_VAR, 0, 0), (_LAM, 5), (_VAR, 4, 0)]
    assert lower(e)[1] == (_VAR, None, 0)


def _corpus_programs():
    for entry in sorted(corpus_dir().iterdir()):
        if entry.is_dir():
            for config in lattice_configs(entry):
                yield parse_ok(config.read_text(encoding="utf-8"))


def _lets_around(root, body):
    """Where the names bound around `body` live in the compiled `root`: at
    the innermost let on the way down to it that binds each name."""
    at = _labels(root)
    out, node = {}, root
    while node is not body:
        out[node.name] = at[id(node)]
        node = node.rhs if any(e is body for e in expr_nodes(node.rhs)) else node.body
    return out


def test_slice_code_lowers_the_erased_body():
    # A slice's module body enters the core as written, shared with the
    # program, and lowers as its erasure does; each hole keeps the scope
    # the reader gave it.
    programs = [*_lowering_programs(), *_corpus_programs(), HOLES_UNDER_BINDERS]
    for p in programs:
        for m in p.modules:
            sliced = slice_for_module(p, m.name)
            if sliced.module_named(m.name).body is not m.body:  # opaquely required
                continue
            root = compile_program(sliced).root
            assert any(e is m.body for e in expr_nodes(root)), m.name
            erased = Program([Module(k.name, k.ty, k.requires,
                                     erase(k.body) if k.name == m.name else k.body)
                              for k in sliced.modules])
            want = lower(compile_program(erased).root)
            assert lower(root) == want and repr(lower(root)) == repr(want), m.name
    # Each hole holds the addresses of the names the reader's scope gives
    # it, in name order and unrefined: t's holes see n's let and both
    # parameters, and u's see both parameters and the require lets of n
    # and t.
    p = parse_ok(HOLES_UNDER_LAMBDAS)
    scopes, lams, outer = {}, {}, {}
    for name in ("t", "u"):
        body = p.module_named(name).body
        root = compile_program(slice_for_module(p, name)).root
        code, at = lower(root), _labels(root)
        scopes[name] = [code[at[id(e)]][1] for e in expr_nodes(body) if type(e) is Opaque]
        lams[name] = [at[id(e)] for e in expr_nodes(body) if type(e) is Lam]
        outer[name] = _lets_around(root, body)
        if name == "u":  # u monitors its t: the let that binds t is a monitor's
            assert code[code[outer["u"]["t"]][1]][0] == _MON

    def unrefined(*addrs):
        return tuple((a, 0) for a in addrs)

    # t: (λ x (λ y (if y opaque (opaque x)))); u: (λ a ((λ b (opaque b)) a)).
    (x, y), (a, b) = lams["t"], lams["u"]
    assert scopes == {"t": [unrefined(outer["t"]["n"], x, y)] * 2,
                      "u": [unrefined(a, b, outer["u"]["n"], outer["u"]["t"])]}


def test_a_hole_under_deep_lambdas_is_sliced():
    body = Opaque()
    for i in range(DEEP):
        body = Lam(f"x{i}", TInt(), body)
    p = Program([Module("n", TInt(), [], IntLit(1)),
                 Module("d", None, [Require("n")], body)])
    root = compile_program(slice_for_module(p, "d")).root
    code, at = lower(root), _labels(root)
    # Built through the API, the hole is unscoped: it sees every parameter
    # around it, the outermost lambda first, and d's require let of n.
    outermost, n_let = at[id(body)], _lets_around(root, body)["n"]
    assert code[code[n_let][1]][0] == _MON
    seen = {f"x{i}": outermost + DEEP - 1 - i for i in range(DEEP)} | {"n": n_let}
    hole = code[outermost + DEEP]
    assert hole == (_OPAQUE, tuple((seen[name], 0) for name in sorted(seen)))


_TAGS = ("int", "bool", "fn")
_TEST_BIT = {"int": _INT_T, "bool": _BOOL_T, "fn": _FN_T}


def _refine_refs(refs, kind, outcome):
    """The refinement rule over sets of tag facts ("int", "!int", ...):
    record a test outcome, or report the path contradictory (None).  The
    base tags are mutually disjoint."""
    if outcome:
        if "!" + kind in refs or any(t in refs for t in _TAGS if t != kind):
            return None
        return refs | {kind}
    if kind in refs:
        return None
    return refs | {"!" + kind}


def _bits(refs):
    return sum(_TEST_BIT[f] if f in _TEST_BIT else _TEST_BIT[f[1:]] << 3
               for f in refs)


def _apply(refs, facts):
    """`refs` with the test outcomes `facts` recorded one at a time, in
    order, by the set rule, or None once the path is contradictory."""
    for f in facts:
        if refs is None:
            break
        refs = _refine_refs(refs, f.lstrip("!"), not f.startswith("!"))
    return refs


def test_refinement_bits_match_the_set_rule():
    # Refining by a mask of six bits is recording each of its test
    # outcomes one at a time, in any order, for all 64 masks.  An opaque
    # value starts from any refinements a path can give it; a value of any
    # other class passes exactly the test of its own tag, fails the
    # others, and is left as it is when it is consistent.
    facts = _TAGS + tuple("!" + t for t in _TAGS)
    masks = [frozenset(c) for n in range(len(facts) + 1)
             for c in combinations(facts, n)]
    assert sorted(map(_bits, masks)) == list(range(64))
    orders = {mask: list(permutations(mask)) for mask in masks}
    guard = (_GUARD, ArrowC(INT_C, INT_C), ("m", 0), "t", "u", 0)
    starts = [((_OPQ, _bits(refs)), refs) for refs in masks
              if _apply(frozenset(), refs) is not None]
    assert len(starts) == 20
    for v, tag in [((_INT,), "int"), ((_BOOL, None), "bool"),
                   ((_BOOL, False), "bool"), ((_CLOS, 0), "fn"),
                   ((_PRIM, "int?"), "fn"), (guard, "fn")]:
        starts.append((v, frozenset({tag} | {"!" + t for t in _TAGS if t != tag})))
    for v, refs in starts:
        for mask in masks:
            (want,) = {_apply(refs, order) for order in orders[mask]}
            if want is not None:
                want = (_OPQ, _bits(want)) if v[0] == _OPQ else v
            assert _refine(v, _bits(mask)) == want, (v, mask)
            assert _admits(v, _bits(mask)) is (want is not None), (v, mask)


# Hand-built programs whose labels depend on refining a variable where it
# is read: (name, program, labels as (blamed, holder), states).  The labels
# and state counts were recorded with the engine that kept a refined copy
# of each tested variable at an address of its own, and are pinned here.
_ID = Lam("y", None, Var("y"))
_REFINEMENT_ORACLE = [
    # g is a monitored (-> int? int?) identity, f = (λ (x) (if (int? x)
    # opaque{x} 0)), and the program calls (f g) then (f 1).  The hole
    # sees x only as an integer, so g never reaches unknown code.
    ("a scoped hole in a refined branch",
     Let("g", Mon("t", "u", ArrowC(INT_C, INT_C), _ID),
         Let("f", Lam("x", None, If(App(Prim("int?"), Var("x")),
                                    Opaque(frozenset({"x"})), IntLit(0))),
             Let("_", App(Var("f"), Var("g")), App(Var("f"), IntLit(1))))),
     set(), 17),
    # f = (λ (x) (if (int? x) (λ (_) x) (λ (_) 0))): the closure of (f 1)
    # reads x when it is called, after (f g) has grown x with a closure.
    ("a closure made in a branch reads x after x has grown",
     Let("g", _ID,
         Let("f", Lam("x", None, If(App(Prim("int?"), Var("x")),
                                    Lam("_", None, Var("x")), Lam("_", None, IntLit(0)))),
             Let("h", App(Var("f"), IntLit(1)),
                 Let("_", App(Var("f"), Var("g")),
                     Mon("p", "q", INT_C, App(Var("h"), IntLit(0))))))),
     set(), 23),
    # x is an integer, a boolean or unknown; each branch of two nested
    # tests checks what it must hold, and the branch of neither checks
    # that it is a function, which fails: (g, h).  The unscoped hole of the
    # last call sees f, so unknown code calls f too, and calls the guard f
    # returns with a non-integer: (h, g).
    ("nested tests of one variable with both outcomes",
     Let("f", Lam("x", None,
                  If(App(Prim("int?"), Var("x")),
                     If(App(Prim("int?"), Var("x")),
                        Mon("a", "b", INT_C, Var("x")), Mon("c", "d", INT_C, Var("x"))),
                     If(App(Prim("bool?"), Var("x")),
                        Mon("e", "f", BOOL_C, Var("x")),
                        Mon("g", "h", ArrowC(INT_C, INT_C), Var("x"))))),
         Let("_", App(Var("f"), IntLit(1)),
             Let("_", App(Var("f"), BoolLit(True)), App(Var("f"), Opaque())))),
     {("g", "h"), ("h", "g")}, 65),
    # (let [x opaque] (if (bool? x) (mon bool? x) (mon int? x)))
    ("a bool? test",
     Let("x", Opaque(), If(App(Prim("bool?"), Var("x")),
                           Mon("a", "b", BOOL_C, Var("x")), Mon("c", "d", INT_C, Var("x")))),
     {("c", "d")}, 8),
    # z is unbound: the test prunes its path, and so does reading z.
    ("a test of an unbound name",
     Let("x", Opaque(), If(App(Prim("int?"), Var("z")),
                           Mon("a", "b", INT_C, Var("z")), Mon("c", "d", INT_C, Var("x")))),
     set(), 2),
]


def test_refinement_oracle_on_hand_built_programs():
    for name, program, labels, states in _REFINEMENT_ORACLE:
        bs = analyze(program)
        assert not bs.exhausted, name
        assert {(l.blamed, l.holder) for l in bs.labels} == labels, name
        assert bs.states == states, name


def test_escaped_guard_is_exercised():
    # A guarded function reaching unknown code is applied there; the domain
    # check branches on the unknown argument and can blame the negative
    # party, while the concrete body keeps the range obligation unblamed.
    bs = analyze(parse_expr(
        "(let [w (mon (t u) (-> bool? int?) (λ (x) 7))] opaque)"))
    assert BlameLabel("u", "t") in bs.labels
    assert BlameLabel("t", "u") not in bs.labels


def test_escaped_guard_range_can_blame_provider():
    bs = analyze(parse_expr(
        "(let [w (mon (t u) (-> bool? int?) (λ (x) x))] opaque)"))
    # The identity returns the boolean the domain admitted, failing int?.
    assert BlameLabel("t", "u") in bs.labels


def test_guard_wrapping_an_opaque_can_blame_either_side():
    bs = analyze(parse_expr("(let [w (mon (t u) (-> int? int?) opaque)] (w 5))"))
    # The opaque provider may be a non-function or return a non-integer.
    assert BlameLabel("t", "u") in bs.labels
    # The concrete caller supplies 5, which always satisfies the domain.
    assert BlameLabel("u", "t") not in bs.labels


def test_refinement_threads_through_branch():
    # Unknown input tested before use: the guarded branch cannot blame.
    text = """\
(module helper (-> Int Int) (λ (x : Int) x))
(module source 5)
(module user (require helper) (require source)
  (if (int? source) (helper source) 0))
(module main (require user) user)
"""
    program = parse_ok(text)
    bs = analyze(compile_program(full_slice(program, "user")).root)
    assert not any(l.blamed == "user" for l in bs.labels)


def test_budget_exhaustion_reported():
    bs = analyze_source(ID_BOUNDARY_SLICE_U1, budget=5)
    assert bs.exhausted


def test_terminates_on_corpus_without_cap():
    total_states = 0
    for program in _corpus_programs():
        for m in program.modules:
            root = compile_program(full_slice(program, m.name)).root
            bs = analyze(root)
            assert not bs.exhausted, m.name
            total_states += bs.states
    # Monovariant addressing keeps the reachable space small.
    assert total_states < 200_000


def test_reexported_wrapper_blame_is_covered():
    # A module that re-exports its monitored import is the negative party
    # of that wrapper wherever it ends up, so a third party's bad call
    # concretely blames the re-exporter; the re-exporter's slice must
    # predict that label even though the bad call comes from opaque code.
    text = """\
(module t (-> Int Int) (λ (x : Int) x))
(module u (require t) t)
(module m (require u) (u #f))
(module main (require m) m)
"""
    program = parse_ok(text)
    concrete, _ = evaluate(compile_program(program).root)
    assert concrete == BlamedA(BlameLabel("u", "t"))
    bs = analyze(compile_program(full_slice(program, "u")).root)
    assert BlameLabel("u", "t") in bs.labels


def test_opaque_under_a_lambda_reaches_its_scope():
    # The hole may be `(t #f)`, which blames u; the lambda around it must
    # not trim the monitored t out of what the hole can reach.
    instance = parse_ok(OPAQUE_UNDER_LAMBDA.replace("opaque", "(t #f)"))
    concrete, _ = evaluate(compile_program(instance).root)
    assert concrete == BlamedA(BlameLabel("u", "t"))
    bs = analyze_slice(parse_ok(OPAQUE_UNDER_LAMBDA), "u")
    assert BlameLabel("u", "t") in bs.labels


def test_opaque_without_a_scope_under_a_lambda_reaches_every_binding():
    bs = analyze(parse_expr(
        "(let [f (mon (t u) (-> int? int?) (λ (x) x))] ((λ (_) opaque) 0))"))
    assert BlameLabel("u", "t") in bs.labels


def test_an_unscoped_hole_in_a_body_reaches_what_its_module_requires():
    # Built through the API, u's hole has no scope.  Its slice lowers u's
    # body on its own, and the lambda around the hole must still keep t,
    # which is bound outside the body: the hole may be `(t #f)`.
    p = Program([
        Module("t", TArrow(TInt(), TInt()), [], Lam("x", TInt(), Var("x"))),
        Module("u", None, [Require("t")], App(Lam("_", None, Opaque()), IntLit(0))),
    ])
    assert BlameLabel("u", "t") in analyze_slice(p, "u").labels


def test_slicing_monotone_for_labels_mentioning_module():
    # Analyzing a module's slice finds at least the labels mentioning that
    # module that full-program analysis finds.
    for seed in range(80):
        program = gen_program(GenConfig(seed=seed))
        full = analyze(compile_program(program).root)
        if full.exhausted:
            continue
        for m in program.modules:
            mine = {l for l in full.labels if m.name in (l.blamed, l.holder)}
            if not mine:
                continue
            sliced = analyze(compile_program(full_slice(program, m.name)).root)
            assert sliced.exhausted or mine <= sliced.labels, (seed, m.name)


# -- collapsed transitions ----------------------------------------------------

def hole_chain(n):
    """(let [x0 opaque] (let [x1 opaque] ... x0)), `n` lets deep: the shape
    of a slice's chain of module lets around their holes."""
    e = Var("x0")
    for i in reversed(range(n)):
        e = Let(f"x{i}", Opaque(), e)
    return e


def test_a_chain_of_hole_lets_takes_states_independent_of_its_length():
    # Every hole is the one unknown value, and a let of an atomic term
    # binds and goes on in the state that reached it.
    short, long = analyze(hole_chain(10)), analyze(hole_chain(200))
    assert short.labels == long.labels == frozenset()
    assert short.states == long.states


def test_two_holes_lower_to_one_opaque_value():
    code = lower(Let("a", Opaque(), Let("b", Opaque(), Var("a"))))
    # The first sees no binding, the second a's; neither is told more.
    assert (code[1], code[3]) == ((_OPAQUE, ()), (_OPAQUE, ((0, 0),)))
    machine = analysis._Machine(code, analysis.DEFAULT_BUDGET)
    assert machine.run().labels == frozenset()
    # Each let binds its variable at its own label.
    assert machine.store[0] == machine.store[2] == {_SOME_VALUE}


def test_a_let_of_a_monitored_variable_is_checked_in_place():
    # (let [y v] (let [x (mon (t u) c y)] x)): the monitor of y is atomic,
    # so the let chain, the check and the binding of x are the state that
    # reached them.  Monitoring a compound term of the same value instead
    # finds the same labels through a frame and states of its own.
    for contract, v, states in [(INT_C, Opaque(), 2),
                                (ArrowC(INT_C, INT_C), IntLit(5), 1)]:
        def program(term):
            return Let("y", v, Let("x", Mon("t", "u", contract, term), Var("x")))
        atomic = analyze(program(Var("y")))
        compound = analyze(program(App(Lam("z", None, Var("z")), Var("y"))))
        assert atomic.labels == compound.labels == {BlameLabel("t", "u")}
        assert atomic.states == states < compound.states, contract


# The slices of the golden digests: every module of 100 default programs
# and 24 programs of expression size 64 with up to 16 modules.
GOLDEN_CONFIGS = ([GenConfig(seed=s) for s in range(100)]
                  + [GenConfig(seed=s, expr_size=64, max_modules=16) for s in range(24)])


def golden_slices():
    for cfg in GOLDEN_CONFIGS:
        program = gen_program(cfg)
        for m in program.modules:
            yield cfg, m.name, compile_program(full_slice(program, m.name)).root


# sha256 over (program seed, expr_size, module, sorted labels, exhausted) for
# every golden slice.  It is the same under every PYTHONHASHSEED tried, and
# it pins what the machine finds, not how it explores: a change to the
# exploration must leave it as it is.
GOLDEN_LABELS_DIGEST = "d4bf57035d0a5d11bc747c410d1ca3a331ef7a6c69dd9c995e3e0ad20f4c3e33"

# sha256 over (program seed, expr_size, module, reachable_states) for every
# golden slice: the number of states the machine explores, which a change
# to the exploration re-records.
GOLDEN_STATES_DIGEST = "a4f64729c19ee2502ac7b59962683e675989e89697212232c1cf0a41e81a776f"


def test_slice_analysis_matches_golden_digest():
    h = hashlib.sha256()
    slices = 0
    for cfg, module, root in golden_slices():
        bs = analyze(root)
        labels = sorted((l.blamed, l.holder) for l in bs.labels)
        h.update(repr((cfg.seed, cfg.expr_size, module, labels, bs.exhausted)).encode())
        slices += 1
    assert slices == 495
    assert h.hexdigest() == GOLDEN_LABELS_DIGEST


def test_slice_states_match_golden_digest():
    h = hashlib.sha256()
    for cfg, module, root in golden_slices():
        states = reachable_states(root)
        h.update(repr((cfg.seed, cfg.expr_size, module, states)).encode())
    assert h.hexdigest() == GOLDEN_STATES_DIGEST


# -- fixpoint ------------------------------------------------------------------

def _found(machine):
    """What a run has found: its states, its non-empty store and
    continuation store entries, and its labels."""
    def entries(table):
        return {k: frozenset(v) for k, v in table.items() if v}
    return (len(machine.states), entries(machine.store), entries(machine.kstore),
            frozenset(machine.found))


def is_fixpoint(machine):
    """Whether a finished run is a fixpoint: re-stepping every state it
    reached, and passing on the frames that re-stepping queues, adds no
    state, store value, frame or label."""
    before = _found(machine)
    states = machine.states
    for sid, st in enumerate(list(states)):
        if st[0] == analysis._EV:
            machine.step_eval(sid, st)
        elif st[0] == analysis._VA:
            machine.step_value(sid, st)
        else:
            machine.havoc(st[1])
        while machine.pending:
            waiting, frame = machine.pending.pop()
            machine.frame(waiting, frame, states[waiting][1])
    return _found(machine) == before


def _fixpoint_codes():
    """The lowered code of every golden slice, then of every corpus slice
    as the optimizer builds it."""
    for _, _, root in golden_slices():
        yield lower(root)
    for p in _corpus_programs():
        for m in p.modules:
            yield lower(compile_program(slice_for_module(p, m.name)).root)


def _run(code):
    machine = analysis._Machine(code, analysis.DEFAULT_BUDGET)
    return machine, machine.run()


def test_every_slice_analysis_ends_at_a_fixpoint():
    checked = 0
    for code in _fixpoint_codes():
        machine, bs = _run(code)
        if not bs.exhausted:
            assert is_fixpoint(machine), checked
            checked += 1
    assert checked > 495


def _flags_some_slice():
    return any(not is_fixpoint(machine) for machine, bs in map(_run, _fixpoint_codes())
               if not bs.exhausted)


def test_fixpoint_check_flags_a_run_that_skips_re_running_readers(monkeypatch):
    monkeypatch.setattr(analysis._Machine, "reschedule", lambda self, sid: None)
    assert _flags_some_slice()


def test_fixpoint_check_flags_a_frame_not_passed_waiting_values(monkeypatch):
    def kstore_join(self, kaddr, frame):
        self.kstore[kaddr].add(frame)

    monkeypatch.setattr(analysis._Machine, "kstore_join", kstore_join)
    assert _flags_some_slice()


# Deeper than the host stack allows a recursive walk to go.
DEEP = 3_000


def if_chain(name, depth):
    """(if (int? name) (if (int? name) ... name) 0), `depth` tests deep."""
    e = Var(name)
    for _ in range(depth):
        e = If(App(Prim("int?"), Var(name)), e, IntLit(0))
    return e


def test_deep_application_chain():
    # (mon (t u) int? (f (f (... (f opaque))))) with f the identity.
    e = Opaque()
    for _ in range(DEEP):
        e = App(Var("f"), e)
    root = Let("f", Lam("y", None, Var("y")), Mon("t", "u", INT_C, e))
    bs = analyze(root)
    assert not bs.exhausted
    assert bs.labels == frozenset({BlameLabel("t", "u")})


def test_deep_if_chain_on_one_variable():
    bs = analyze(Let("x", Opaque(), Mon("t", "u", INT_C, if_chain("x", DEEP))))
    assert not bs.exhausted
    # Every path to the monitor went through (int? x): it cannot fail.
    assert bs.labels == frozenset()


def test_deep_refinement_edge_chain():
    # Every read down the chain is of the parameter, refined by the tests
    # above it.  The first call's integer reaches the end; the second
    # call's unknown argument then grows the parameter, and each test's
    # readers re-run and refine it there.
    root = Let("f", Lam("x", None, if_chain("x", DEEP)),
               Let("a", App(Var("f"), IntLit(1)),
                   Mon("t", "u", INT_C, App(Var("f"), Opaque()))))
    bs = analyze(root)
    assert not bs.exhausted
    assert bs.labels == frozenset()


def guarded_call_chain(calls):
    """(f (f ... (f opaque))), `calls` deep, with f a monitored identity."""
    e = Opaque()
    for _ in range(calls):
        e = App(Var("f"), e)
    return Let("f", Mon("t", "u", ArrowC(INT_C, INT_C), Lam("y", None, Var("y"))), e)


def test_guarded_call_chain_takes_linear_frames(monkeypatch):
    # Every call of f returns through the guard's one range continuation,
    # which holds a frame per call site.  Each value waiting there must
    # take each frame once, not again every time a call site adds one.
    taken = 0
    frame = analysis._Machine.frame

    def counting(self, *args):
        nonlocal taken
        taken += 1
        return frame(self, *args)

    monkeypatch.setattr(analysis._Machine, "frame", counting)
    counts = []
    for calls in (400, 800):
        taken = 0
        bs = analyze(guarded_call_chain(calls))
        assert not bs.exhausted
        assert bs.labels == frozenset({BlameLabel("u", "t")})
        counts.append(taken)
    assert counts[1] <= 2.2 * counts[0], counts
