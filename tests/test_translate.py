import pytest

from conftest import (
    EXPR_TYPES, HOLES_UNDER_LAMBDAS, ID_BOUNDARY, ID_BOUNDARY_CORE,
    ID_BOUNDARY_SLICE_U1, ID_BOUNDARY_SLICE_U1_CORE, expr_nodes, full_slice, parse_ok,
    structurally_equal,
)
from gtlc.bench import corpus_dir
from gtlc.frontend import check_wellformed, parse_expr, parse_program
from gtlc.gen import GenConfig, gen_program
from gtlc.interp import evaluate
from gtlc.optimize import compute_verdicts, optimize_program
from gtlc.syntax import (
    ANY_C, App, ArrowC, BOOL_C, INT_C, IntLit, Lam, Let, Module, Mon, Opaque,
    Program, Require, TArrow, T_BOOL, T_INT, Var, format_program,
)
from gtlc.translate import compile_program, compile_type, erase, scan_boundaries


def test_compile_type():
    assert compile_type(T_INT) == INT_C
    assert compile_type(T_BOOL) == BOOL_C
    assert compile_type(TArrow(T_INT, T_INT)) == ArrowC(INT_C, INT_C)


def test_compile_type_never_trivial():
    deep = TArrow(TArrow(T_INT, T_BOOL), TArrow(T_BOOL, T_INT))
    out = compile_type(deep)

    def has_any(c):
        if c == ANY_C:
            return True
        return isinstance(c, ArrowC) and (has_any(c.dom) or has_any(c.cod))

    assert not has_any(out)


def test_erase():
    lam = parse_ok("(module main (λ (x) x))").modules[0].body
    typed, _ = parse_program("(module t (-> Int Int) (λ (x : Int) x))")
    assert erase(typed.modules[0].body) == lam
    five = parse_expr("5")
    assert erase(five) == five
    assert isinstance(erase(Opaque()), Opaque)


def test_compiled_bodies_keep_their_spans():
    # Typed t1 and untyped u1 and u2 are shared alike: their nodes carry
    # their source spans.
    p = parse_ok(ID_BOUNDARY)
    rhs = compile_program(p).root
    for m in p.modules:
        body = rhs.rhs
        while isinstance(body, Let):  # a monitored require's let
            body = body.body
        spans = [e.span for e in expr_nodes(body)]
        assert spans == [e.span for e in expr_nodes(m.body)], m.name
        assert None not in spans
        rhs = rhs.body


def _snapshot(p):
    """Every field of every module, require and expression node of `p`,
    each node's children by identity."""
    out = []
    for m in p.modules:
        out.append((id(m), dict(vars(m), body=id(m.body),
                                requires=[(id(r), dict(vars(r))) for r in m.requires])))
        for e in expr_nodes(m.body):
            out.append((id(e), type(e), {k: id(v) if type(v) in EXPR_TYPES else v
                                         for k, v in vars(e).items()}))
    return out


def _parsed_programs():
    yield parse_ok(HOLES_UNDER_LAMBDAS)
    for path in sorted(corpus_dir().glob("*/*.gtl")):
        yield parse_ok(path.read_text(encoding="utf-8"))
    for seed in range(40):
        yield parse_ok(format_program(gen_program(GenConfig(seed=seed))))
    for seed in range(4):
        cfg = GenConfig(seed=seed, expr_size=64, max_modules=16)
        yield parse_ok(format_program(gen_program(cfg)))


def test_no_pass_mutates_the_parsed_program():
    # Compiled trees share module bodies with the parsed program, whose
    # nodes are mutable dataclasses: no pass may change them.
    for p in _parsed_programs():
        before = _snapshot(p)
        assert not check_wellformed(p)
        compiled = compile_program(p)
        evaluate(compiled.root, fuel=10_000)
        compute_verdicts(p)
        optimized, _ = optimize_program(p)
        evaluate(optimized.root, fuel=10_000)
        assert _snapshot(p) == before
        # Each module's right-hand side, typed or untyped, holds its parsed
        # body.
        rhs = compiled.root
        for m in p.modules:
            assert any(e is m.body for e in expr_nodes(rhs.rhs)), m.name
            rhs = rhs.body


def test_compile_id_boundary_golden():
    compiled = compile_program(parse_ok(ID_BOUNDARY))
    assert structurally_equal(erase(compiled.root), parse_expr(ID_BOUNDARY_CORE))


def test_compile_trivial_program():
    compiled = compile_program(parse_ok("(module main 5)"))
    assert structurally_equal(compiled.root, parse_expr("(let [main 5] main)"))
    assert compiled.boundary_index == []


def test_compile_sliced_golden():
    compiled = compile_program(parse_ok(ID_BOUNDARY_SLICE_U1))
    assert structurally_equal(compiled.root, parse_expr(ID_BOUNDARY_SLICE_U1_CORE))
    # both boundary monitors survive slicing
    assert len(compiled.boundary_index) == 2


def test_boundary_orientation_and_paths():
    compiled = compile_program(parse_ok(ID_BOUNDARY))
    assert [(b.pos, b.neg) for b in compiled.boundary_index] == \
        [("t1", "u1"), ("t1", "u2")]
    # The entries are the monitors themselves, at the right-hand sides of
    # u1's and u2's require lets.
    module_lets = compiled.root.body
    expected = [module_lets.rhs.rhs, module_lets.body.rhs.rhs]
    assert all(isinstance(m, Mon) for m in expected)
    assert all(b is m for b, m in zip(compiled.boundary_index, expected, strict=True))


def test_monitors_carry_their_require_spans(corpus_path):
    # Each monitor, and the require let it sits in, spans the require form
    # it was compiled from: the require of `pos` in module `neg`.  The
    # rewrite keeps the spans of the monitors and lets it leaves in place.
    heads = ("(require ", "(require/typed ", "(opaque-require ")
    monitors = 0
    for path in sorted(corpus_path.glob("*/*.gtl")):
        text = path.read_text(encoding="utf-8")
        program = parse_ok(text)
        for root in (compile_program(program).root, optimize_program(program)[0].root):
            for mon in scan_boundaries(root):
                form = text[mon.span[0]:mon.span[1]]
                assert form.startswith(heads) and form.endswith(")"), (path, form)
                assert form[:-1].split()[1] == mon.pos, (path, form)
                monitors += 1
            stack = [root]
            while stack:
                e = stack.pop()
                if type(e) is Let:
                    if type(e.rhs) is Mon:
                        assert e.span == e.rhs.span, path
                    stack += (e.rhs, e.body)
    assert monitors >= 10


def _cross_kind_edges(p):
    count = 0
    for i, m in enumerate(p.modules):
        prior = {q.name: q for q in p.modules[:i]}
        for r in m.requires:
            target = prior[r.target]
            if m.typed:
                count += r.ann is not None
            else:
                count += target.typed
    return count


def test_monitor_count_matches_boundary_edges():
    for seed in range(120):
        p = gen_program(GenConfig(seed=seed))
        compiled = compile_program(p)
        assert len(compiled.boundary_index) == _cross_kind_edges(p), f"seed {seed}"


def test_all_typed_or_all_untyped_has_no_monitors():
    p = parse_ok("(module a 1)\n(module b (require a) a)\n"
                 "(module main (require b) b)")
    assert compile_program(p).boundary_index == []
    # main must stay untyped, so "all typed" means it imports nothing.
    p2 = parse_ok("(module a Int 1)\n(module b Int (require a) a)\n"
                  "(module main 5)")
    assert compile_program(p2).boundary_index == []


def test_compile_commutes_with_slicing():
    # Compiling a slice equals slicing the compiled program: replace each
    # non-target module's body with an opaque hole and compare.
    for seed in range(40):
        p = gen_program(GenConfig(seed=seed))
        for m in p.modules:
            sliced_then_compiled = compile_program(full_slice(p, m.name))
            by_hand = compile_program(p).root
            by_hand = _blank_bodies(by_hand, keep=m.name, program=p)
            assert structurally_equal(sliced_then_compiled.root, by_hand), \
                (seed, m.name)


def _blank_bodies(root, keep, program):
    """Rebuild a compiled tree with every module body except `keep`'s
    replaced by an opaque hole, preserving the monitored-require lets."""
    from gtlc.syntax import Let

    monitored = {}
    for i, m in enumerate(program.modules):
        prior = {q.name: q for q in program.modules[:i]}
        n = 0
        for r in m.requires:
            if m.typed:
                n += r.ann is not None
            else:
                n += prior[r.target].typed
        monitored[m.name] = n

    node = root
    out = []
    for m in program.modules:
        assert isinstance(node, Let) and m.name == node.name
        out.append((m.name, node.rhs))
        node = node.body

    def rebuild(names):
        if not names:
            return node  # the final `main` variable
        (name, rhs), rest = names[0], names[1:]
        if name != keep:
            core = rhs
            depth = 0
            while depth < monitored[name]:
                core = core.body
                depth += 1
            rhs = _replace_core(rhs, monitored[name])
        return Let(name, rhs, rebuild(rest))

    def _replace_core(rhs, depth):
        if depth == 0:
            return Opaque()
        return Let(rhs.name, rhs.rhs, _replace_core(rhs.body, depth - 1))

    return rebuild(out)


# Three monitored requires: two in one module, so that require order
# shows, and one in a later module.
FINAL_PROGRAM = """\
(module t (-> Int Int) (λ (x : Int) x))
(module b Bool #t)
(module u (require t) (require b) (if b (t 5) 0))
(module v (require t) (λ (_) (t #f)))
(module main (require u) u)
"""


def test_final_sees_each_monitor_once_in_scan_order():
    p = parse_ok(FINAL_PROGRAM)
    calls = []

    def final(pos, neg, contract):
        calls.append((pos, neg, contract))
        return contract

    compiled = compile_program(p, final)
    plain = compile_program(p)
    assert calls == [(b.pos, b.neg, b.contract) for b in scan_boundaries(plain.root)]
    assert calls == [("t", "u", ArrowC(INT_C, INT_C)), ("b", "u", BOOL_C),
                     ("t", "v", ArrowC(INT_C, INT_C))]
    # Returning the contract it was given changes nothing.
    assert compiled.root == plain.root
    assert [b.span for b in compiled.boundary_index] == \
        [b.span for b in plain.boundary_index]


def test_final_contract_is_the_monitors_and_any_c_drops_monitor_and_let():
    p = parse_ok(FINAL_PROGRAM)
    given = {("t", "u"): ANY_C, ("b", "u"): BOOL_C, ("t", "v"): ArrowC(INT_C, ANY_C)}
    compiled = compile_program(p, lambda pos, neg, contract: given[pos, neg])
    assert structurally_equal(erase(compiled.root), parse_expr("""\
(let [t (λ (x) x)]
  (let [b #t]
    (let [u (let [b (mon (b u) bool? b)] (if b (t 5) 0))]
      (let [v (let [t (mon (t v) (-> int? any/c) t)] (λ (_) (t #f)))]
        (let [main u]
          main)))))
"""))
    # The kept monitors, and their lets, carry their requires' spans.
    u, v = p.modules[2], p.modules[3]
    u_let = compiled.root.body.body.rhs
    v_let = compiled.root.body.body.body.rhs
    assert (u_let.span, u_let.rhs.span) == (u.requires[1].span,) * 2
    assert (v_let.span, v_let.rhs.span) == (v.requires[0].span,) * 2
    assert all(span is not None for span in (u_let.span, v_let.span))


def test_a_deep_typed_body_compiles_without_recursion():
    # A typed body of 2,000 nested annotated lambdas, which no monitor wraps,
    # enters the core as it is: compile walks only the module spine.
    body = Var("x0")
    ty = T_INT
    for i in reversed(range(2_000)):
        body = Lam(f"x{i}", T_INT, body)
        ty = TArrow(T_INT, ty)
    p = Program([Module("t", ty, [], body), Module("main", None, [], IntLit(0))])
    compiled = compile_program(p)
    assert compiled.root.rhs is body
    assert compiled.boundary_index == []


def test_require_of_a_later_module_is_rejected():
    # Only earlier modules can be required; compile_program assumes a
    # well-formed program but still refuses a forward require.
    p = Program([Module("u", None, [Require("t")], App(Var("t"), IntLit(5))),
                 Module("t", T_INT, [], IntLit(1)),
                 Module("main", None, [Require("u")], Var("u"))])
    with pytest.raises(ValueError, match="'t'"):
        compile_program(p)
    p.modules[0].requires = [Require("nowhere")]
    with pytest.raises(ValueError, match="'nowhere'"):
        compile_program(p)
