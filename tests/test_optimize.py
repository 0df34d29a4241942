import dataclasses
import itertools
from collections import Counter

from conftest import (
    EXPR_TYPES, HOLES_UNDER_BINDERS, HOLES_UNDER_LAMBDAS, ID_BOUNDARY,
    ID_BOUNDARY_OPTIMIZED_CORE, ID_BOUNDARY_SLICE_U1, OPAQUE_UNDER_LAMBDA, OWN_HOLE_ARGUMENT,
    REQUIRES_TWICE, TYPED_NEIGHBOURS, TYPED_REEXPORT, contracts_up_to, full_slice,
    parse_ok, run_differential, structurally_equal,
)
from gtlc import optimize
from gtlc.analysis import analyze, reachable_states
from gtlc.bench import answers_agree, lattice_configs
from gtlc.frontend import parse_expr
from gtlc.gen import GenConfig, gen_program
from gtlc.interp import BlamedA, evaluate
from gtlc.optimize import (
    Verdict, _final_contract, analyze_slice, blameless_modules, compute_verdicts, copt,
    obliged_modules, optimize_program, slice_for_module,
)
from gtlc.syntax import (
    ANY_C, App, ArrowC, BOOL_C, BlameLabel, BoolLit, Expr, If, INT_C, IntLit, Lam, Let,
    Module, Mon, Opaque, Polarity, Var, format_expr, format_program, module_scope,
)
from gtlc.translate import boundaries, compile_program, erase, scan_boundaries

POS, NEG = Polarity.POS, Polarity.NEG


# -- slicing ---------------------------------------------------------------

def test_slice_keeps_target_only():
    # u1's body and require stay, and t1, the one module it shares a
    # require with, is a hole; u2 and main share none with u1 and are left
    # out.  With every module and require kept it is the full slice.
    p = parse_ok(ID_BOUNDARY)
    sliced = slice_for_module(p, "u1")
    assert format_program(sliced) == ("(module t1 (-> Int Int) opaque)\n"
                                      "(module u1 (require t1) (t1 5))\n")
    assert format_program(full_slice(p, "u1")) == \
        format_program(parse_ok(ID_BOUNDARY_SLICE_U1))


def test_slice_one_module_program_unchanged():
    p = parse_ok("(module main 5)")
    sliced = slice_for_module(p, "main")
    assert format_program(sliced) == format_program(p)


def test_slice_for_other_module():
    p = parse_ok(ID_BOUNDARY)
    sliced = slice_for_module(p, "u2")
    kinds = [isinstance(m.body, Opaque) for m in sliced.modules]
    assert kinds == [True, False, True]
    assert sliced.names() == ["t1", "u2", "main"]


def test_slice_unknown_module():
    p = parse_ok("(module main 5)")
    try:
        slice_for_module(p, "ghost")
    except ValueError:
        return
    raise AssertionError("expected ValueError")


def test_opaquely_required_modules_stay_opaque():
    p = parse_ok("(module lib (λ (x) x))\n"
                 "(module main (opaque-require lib) (lib 5))")
    sliced = slice_for_module(p, "lib")
    assert isinstance(sliced.modules[0].body, Opaque)


def test_opaque_require_limits_optimization_not_soundness():
    p = parse_ok("(module lib (-> Int Int) (λ (x : Int) x))\n"
                 "(module main (opaque-require lib) (lib 5))")
    # The marked module's body is never analyzed, so its own obligations
    # survive: no typed module is trusted.  The client still gets its side
    # dropped.
    _, report = optimize_program(p)
    (d,) = report.dispositions
    assert d.kind == "weakened" and d.after == ArrowC(ANY_C, INT_C)
    verdicts = {v.module: v.safe_against for v in report.verdicts}
    assert verdicts["lib"] == frozenset()


# -- analyzing a slice at its own boundaries ---------------------------------

# The seeds of test_slice_analysis_matches_golden_digest.
GOLDEN_CONFIGS = ([GenConfig(seed=s) for s in range(100)]
                  + [GenConfig(seed=s, expr_size=64, max_modules=16) for s in range(24)])


def _full_slice(p, module):
    """The blame set of `module`'s slice with every monitor kept."""
    return analyze(compile_program(full_slice(p, module)).root)


def _blameless(p):
    """The typed modules not joined, by a chain of requires between two
    typed modules, to one whose body holds an opaque term or that some
    module requires opaquely: `blameless_modules`, worked out as a
    fixpoint over the printed bodies."""
    typed = {m.name for m in p.modules if m.typed}
    links = [(m.name, r.target) for m in p.modules if m.typed
             for r in m.requires if r.target in typed]
    spoiled = {m.name for m in p.modules if m.typed and "opaque" in format_expr(m.body)}
    spoiled |= {r.target for m in p.modules for r in m.requires if r.opaque} & typed
    while True:
        more = {b for a, b in links if a in spoiled} | {a for a, b in links if b in spoiled}
        if more <= spoiled:
            return typed - spoiled
        spoiled |= more


def _verdicts_from_full_slices(p):
    """`compute_verdicts` as it reads with every monitor kept in each slice
    and with no slice skipped but a blameless typed module's (`_blameless`),
    which is safe against every other module unanalyzed.  A module that no
    monitor obliges is analyzed here too."""
    parties = frozenset(p.names())
    blameless = _blameless(p)
    out = []
    for m in p.modules:
        others = parties - {m.name}
        if m.name in blameless:
            out.append(Verdict(m.name, others, exhausted=False))
            continue
        bs = _full_slice(p, m.name)
        if bs.exhausted:
            out.append(Verdict(m.name, frozenset(), exhausted=True))
        else:
            blamed_toward = {l.holder for l in bs.labels if l.blamed == m.name}
            out.append(Verdict(m.name, others - blamed_toward, exhausted=False))
    return out


def test_narrowed_slice_keeps_exactly_the_labels_naming_its_module():
    slices = proven = 0
    for cfg in GOLDEN_CONFIGS:
        p = gen_program(cfg)
        for m in p.modules:
            x = m.name
            full = _full_slice(p, x)
            narrowed = analyze_slice(p, x)
            label = (cfg.seed, cfg.expr_size, x)
            assert narrowed.labels == {l for l in full.labels if x in (l.blamed, l.holder)}, label
            assert narrowed.exhausted == full.exhausted, label
            slices += 1
        # Every verdict is its full slice's, also where no monitor obliges
        # the module and its slice is not analyzed.
        verdicts = compute_verdicts(p)
        assert verdicts == _verdicts_from_full_slices(p), (cfg.seed, cfg.expr_size)
        unobliged = set(p.names()) - obliged_modules(p) - _blameless(p)
        for v in verdicts:
            if v.module in unobliged:
                assert (v.states, v.seconds) == (0, 0.0), (cfg.seed, cfg.expr_size, v.module)
                proven += 1
    assert slices == 495
    assert proven > 0


def _slice_programs(corpus_path):
    """The golden programs, the corpus and the conftest tables: holes under
    binders, scoped or not, a module that requires another twice, typed
    modules that require typed ones or re-export them, and a typed module
    that passes a typed neighbour its own hole."""
    programs = [gen_program(cfg) for cfg in GOLDEN_CONFIGS]
    for entry in sorted(d for d in corpus_path.iterdir() if d.is_dir()):
        programs += [parse_ok(f.read_text(encoding="utf-8")) for f in lattice_configs(entry)]
    return programs + [HOLES_UNDER_BINDERS, *map(parse_ok, (
        HOLES_UNDER_LAMBDAS, ID_BOUNDARY, OPAQUE_UNDER_LAMBDA, OWN_HOLE_ARGUMENT,
        REQUIRES_TWICE, TYPED_NEIGHBOURS, TYPED_REEXPORT))]


def _parties(p, x):
    """x and the modules of `p` it shares a require with, in program order."""
    required = {r.target for r in p.module_named(x).requires}
    return [m.name for m in p.modules
            if m.name == x or m.name in required or any(r.target == x for r in m.requires)]


def test_a_slice_has_exactly_its_partys_monitors(corpus_path):
    # Compiled, x's slice has the monitors of the program that have x as a
    # party, in the same order.  Its modules are x and its parties, in
    # program order, and each party's hole may reach what its module
    # requires in the program, whichever requires the slice keeps.
    slices = 0
    for i, p in enumerate(_slice_programs(corpus_path)):
        monitors = [(b.pos, b.neg, b.contract) for b in scan_boundaries(compile_program(p).root)]
        marked = {r.target for m in p.modules for r in m.requires if r.opaque}
        for m in p.modules:
            x = m.name
            sliced = slice_for_module(p, x)
            kept = scan_boundaries(compile_program(sliced).root)
            assert [(b.pos, b.neg, b.contract) for b in kept] == \
                [mon for mon in monitors if x in mon[:2]], (i, x)
            assert sliced.names() == _parties(p, x), (i, x)
            for hole in sliced.modules:
                original = p.module_named(hole.name)
                if original.name == x and x not in marked:
                    assert hole.body is original.body, (i, x)
                    continue
                assert type(hole.body) is Opaque, (i, x, original.name)
                assert hole.body.allowed == module_scope(original.requires), (i, x, original.name)
            slices += 1
    assert slices > 495


def _only_parties(p, x):
    """x's full slice (`full_slice`) restricted to x and its parties, each
    keeping the requires of a module the restriction keeps."""
    kept = set(_parties(p, x))
    return dataclasses.replace(p, modules=[
        dataclasses.replace(m, requires=[r for r in m.requires if r.target in kept])
        for m in full_slice(p, x).modules if m.name in kept])


def _keeping_parties_of(x):
    """A `final` that keeps a monitor iff x is one of its parties."""
    return lambda pos, neg, c: c if x in (pos, neg) else ANY_C


def test_slice_compiled_for_its_party_is_the_rewrite_that_drops_other_parties_monitors(corpus_path):
    # Oracle: each slice analyzes exactly like the full slice restricted to
    # x and its parties, compiled to keep a monitor iff x is one of its
    # parties, in labels, exhaustion and states, so each hole and body sees
    # the lets the slice keeps.
    slices = 0
    for i, p in enumerate(_slice_programs(corpus_path)):
        for m in p.modules:
            x = m.name
            oracle = analyze(compile_program(_only_parties(p, x), _keeping_parties_of(x)).root)
            bs = analyze_slice(p, x)
            assert (bs.labels, bs.exhausted, bs.states) == \
                (oracle.labels, oracle.exhausted, oracle.states), (i, x)
            slices += 1
    assert slices > 495


def test_leaving_out_the_modules_x_shares_no_require_with_loses_no_label(corpus_path):
    # Against the full slice with every module, compiled to keep x's
    # monitors only: the same labels and exhaustion, in no more states.
    slices = fewer = 0
    for i, p in enumerate(_slice_programs(corpus_path)):
        for m in p.modules:
            x = m.name
            every = analyze(compile_program(full_slice(p, x), _keeping_parties_of(x)).root)
            bs = analyze_slice(p, x)
            assert (bs.labels, bs.exhausted) == (every.labels, every.exhausted), (i, x)
            assert bs.states <= every.states, (i, x)
            slices += 1
            fewer += bs.states < every.states
    assert slices > 495
    assert fewer > 0


def test_an_unrelated_module_changes_no_other_slice(corpus_path):
    # A module that requires nothing and that nothing requires is in no
    # other module's slice, wherever it stands.
    for i, p in enumerate(_slice_programs(corpus_path)):
        at = p.names().index("main")
        zz = Module("zz", None, [], IntLit(5))
        grown = dataclasses.replace(p, modules=p.modules[:at] + [zz] + p.modules[at:])
        for x in p.names():
            assert format_program(slice_for_module(grown, x)) == \
                format_program(slice_for_module(p, x)), (i, x)
        assert slice_for_module(grown, "zz").names() == ["zz"], i


def test_slice_is_analyzed_without_other_parties_monitors(monkeypatch):
    p = parse_ok("(module t (-> Int Int) (λ (x : Int) x))\n"
                 "(module u (require t) (t 5))\n"
                 "(module v (require t) (λ (_) (t #f)))\n"
                 "(module main (require u) u)")
    roots = []

    def recording(root, *args, _analyze=optimize.analyze):
        roots.append(root)
        return _analyze(root, *args)

    monkeypatch.setattr(optimize, "analyze", recording)
    bs = analyze_slice(p, "u")
    (root,) = roots
    whole = compile_program(full_slice(p, "u")).root
    assert [(b.pos, b.neg) for b in scan_boundaries(whole)] == [("t", "u"), ("t", "v")]
    assert [(b.pos, b.neg) for b in scan_boundaries(root)] == [("t", "u")]
    assert bs.labels == {BlameLabel("t", "u")}
    assert BlameLabel("v", "t") in analyze(whole).labels


# -- typed modules proven by the blame theorem ---------------------------------

# Typed t calls x, which passes its argument on to untyped u.
CALLEE = """\
(module u (λ (n) n))
(module x (-> Int Int) (require/typed u (-> Int Int)) (λ (n : Int) (u n)))
(module t Int (require x) (x 1))
(module main (require t) t)
"""

# Typed t calls x, which returns unknown code.
OWN_HOLE_RESULT = """\
(module x (-> Int Int) (λ (n : Int) opaque))
(module t Int (require x) (x 1))
(module main (require t) t)
"""

# x re-exports unknown code two typed modules away.
NEIGHBOUR_HOLE = """\
(module t Int opaque)
(module s Int (require t) t)
(module x Int (require s) s)
(module main (require x) x)
"""

# x re-exports a typed module it requires opaquely.
OPAQUE_NEIGHBOUR = """\
(module t Int 1)
(module x Int (opaque-require t) t)
(module main (require x) x)
"""

# Typed a holds unknown code, and typed b reads it through untyped u's
# monitor only.
SEPARATE_ISLANDS = """\
(module a Int opaque)
(module u (require a) a)
(module b (-> Int Int) (require/typed u Int) (λ (n : Int) u))
(module main (require b) (b 1))
"""

# (program, its blameless modules, a module, the modules its verdict is
# safe against).  Every module named is blameless or obliged by a monitor.
TYPED_MODULES = [
    # x's slice lets t's hole be any value, and so blames x toward u; the
    # blame theorem proves x safe.
    (TYPED_REEXPORT, {"t", "x"}, "x", {"t", "u", "main"}),
    # An untyped module's verdict is its slice's, as ever.
    (TYPED_REEXPORT, {"t", "x"}, "u", {"t", "x", "main"}),
    # x's slice lets t's hole call x with anything; t passes only Ints.
    (CALLEE, {"t", "x"}, "x", {"t", "u", "main"}),
    (CALLEE, {"t", "x"}, "u", {"t", "x", "main"}),
    # Unknown code in x's own body reaches t unchecked and comes back: with
    # #t, t returns #t and the Int monitor between x and main blames x.
    (OWN_HOLE_ARGUMENT, set(), "x", {"t"}),
    # x's unknown code reaches t unchecked, and t is blamed toward main.
    (OWN_HOLE_RESULT, set(), "t", {"x"}),
    # So does unknown code in a typed neighbour, however far.
    (NEIGHBOUR_HOLE, set(), "x", {"t", "s"}),
    # The verifier never looks inside an opaquely required module.
    (OPAQUE_NEIGHBOUR, set(), "x", {"t"}),
    # A monitor blames u for what reaches b from a's unknown code.
    (SEPARATE_ISLANDS, {"b"}, "b", {"a", "u", "main"}),
    (SEPARATE_ISLANDS, {"b"}, "a", {"b", "main"}),
]


def _table_misses():
    """The rows of TYPED_MODULES whose blameless modules or verdict read
    otherwise, with what they read."""
    misses = []
    for text, blameless, x, safe in TYPED_MODULES:
        p = parse_ok(text)
        got = optimize.blameless_modules(p)
        (verdict,) = [v for v in compute_verdicts(p) if v.module == x]
        if got != blameless or verdict.safe_against != safe:
            misses.append((x, got, set(verdict.safe_against)))
    return misses


def _fill(e, value):
    """`e` with every opaque term replaced by `value`."""
    if isinstance(e, Opaque):
        return value
    changes = {f.name: _fill(getattr(e, f.name), value) for f in dataclasses.fields(e)
               if isinstance(getattr(e, f.name), EXPR_TYPES)}
    return dataclasses.replace(e, **changes) if changes else e


def _filled_disagreements():
    """The programs of TYPED_MODULES, with each fill of their opaque terms,
    whose unoptimized and optimized answers disagree."""
    fills = (IntLit(0), BoolLit(True), Lam("n", None, Var("n")))
    out = []
    for text in dict.fromkeys(text for text, *_ in TYPED_MODULES):
        p = parse_ok(text)
        optimized, _ = optimize_program(p)
        for value in fills:
            a0, _ = evaluate(_fill(compile_program(p).root, value))
            a1, _ = evaluate(_fill(optimized.root, value))
            if not answers_agree(a0, a1):
                out.append((text.splitlines()[0], format_expr(value)))
    return out


def test_typed_modules_by_hand():
    assert _table_misses() == []
    for text, _, x, _ in TYPED_MODULES:
        p = parse_ok(text)
        assert blameless_modules(p) == _blameless(p), x
    assert _filled_disagreements() == []


def test_typed_module_table_catches_a_loose_island(monkeypatch):
    # Taking a typed module as blameless when its own body holds no opaque
    # term, or when also no module requires it opaquely, misses unknown
    # code that reaches it unchecked: the table fails, and so do the runs
    # with the holes filled.
    def own_body(p):
        return {m.name for m in p.modules if m.typed and "opaque" not in format_expr(m.body)}

    def own_module(p, _marked=optimize._opaquely_required):
        return own_body(p) - _marked(p)

    for mutant in (own_body, own_module):
        monkeypatch.setattr(optimize, "blameless_modules", mutant)
        assert _table_misses(), mutant
        assert _filled_disagreements(), mutant
        monkeypatch.undo()
    assert _table_misses() == [] and _filled_disagreements() == []


def test_slice_of_a_typed_module_blames_no_typed_neighbour():
    # No monitor lies between two typed modules, so no label of a typed
    # module's slice blames a typed module but that one.
    programs = [gen_program(cfg) for cfg in GOLDEN_CONFIGS]
    programs += [parse_ok(TYPED_NEIGHBOURS)]
    typed_slices = 0
    for i, p in enumerate(programs):
        typed = {m.name for m in p.modules if m.typed}
        for x in typed:
            assert all(l.blamed not in typed - {x} for l in analyze_slice(p, x).labels), (i, x)
            typed_slices += 1
    assert typed_slices > 200


def _typed_module_sweep(corpus_path):
    """Generated programs at four typed fractions and two sizes, and every
    corpus configuration."""
    programs = []
    for fraction in (0.3, 0.5, 0.8, 1.0):
        programs += [gen_program(GenConfig(seed=s, typed_fraction=fraction))
                     for s in range(150)]
        programs += [gen_program(GenConfig(seed=s, typed_fraction=fraction,
                                           expr_size=64, max_modules=16))
                     for s in range(20)]
    generated = len(programs)
    for entry in sorted(d for d in corpus_path.iterdir() if d.is_dir()):
        programs += [parse_ok(f.read_text(encoding="utf-8")) for f in lattice_configs(entry)]
    return programs, generated


def test_trust_typed_is_a_shortcut(corpus_path):
    # No generated or corpus program has an opaque term in a typed body,
    # so every typed module that is not opaquely required is proven safe
    # against every other module.  So is every module that no monitor
    # obliges, typed or not, with no slice analyzed.  Every other module is
    # analyzed, and its verdict is its slice's.  The generated programs'
    # optimized answers agree with the unoptimized ones; criterion 3 runs
    # the corpus's.
    programs, generated = _typed_module_sweep(corpus_path)
    proven = unobliged = 0
    for i, p in enumerate(programs):
        marked = {r.target for m in p.modules for r in m.requires if r.opaque}
        obliged = obliged_modules(p)
        compiled, report = optimize_program(p)
        for m, v in zip(p.modules, report.verdicts):
            others = frozenset(p.names()) - {m.name}
            if m.typed and m.name not in marked:
                assert v.safe_against == others and v.states == 0, (i, m.name)
                proven += 1
            elif m.name not in obliged:
                assert v == Verdict(m.name, others, exhausted=False), (i, m.name)
                assert v.states == 0, (i, m.name)
                unobliged += 1
            else:
                bs = analyze_slice(p, m.name)
                safe = others - {l.holder for l in bs.labels if l.blamed == m.name}
                assert v == Verdict(m.name, frozenset() if bs.exhausted else safe,
                                    exhausted=bs.exhausted), (i, m.name)
                assert v.states == bs.states > 0, (i, m.name)
        if i < generated:
            assert run_differential(p)["agree"], i
    assert (len(programs), proven) == (692, 1202)
    assert unobliged > 0


# -- contract rewriting ------------------------------------------------------

def test_copt_flat_positive_dropped():
    assert copt(INT_C, POS) == ANY_C
    assert copt(BOOL_C, POS) == ANY_C


def test_copt_arrow_weakens_range_at_pos():
    assert copt(ArrowC(INT_C, INT_C), POS) == ArrowC(INT_C, ANY_C)


def test_copt_arrow_weakens_domain_at_neg():
    # By hand: the domain recurs at the flipped side, the range stays.
    assert copt(ArrowC(INT_C, INT_C), NEG) == ArrowC(ANY_C, INT_C)


def test_copt_trivial_arrow_collapses_at_pos():
    assert copt(ArrowC(ANY_C, ANY_C), POS) == ANY_C
    assert copt(ArrowC(ANY_C, ANY_C), NEG) == ArrowC(ANY_C, ANY_C)


def test_copt_idempotent_exhaustively():
    # Every contract of height at most 4 (leaves count as height 1).
    for c in contracts_up_to(4):
        for s in Polarity:
            once = copt(c, s)
            assert copt(once, s) == once, (c, s)


# -- expression rewriting ----------------------------------------------------

# The paper's rewrite for one proven pair, the oracle that the contracts
# `optimize_program` compiles in are checked against.

def opt(e: Expr, x: str, x2: str) -> Expr:
    """Rewrite monitors between `x` and `x2` given that no run can blame
    `x` toward `x2`; everything else recurs structurally."""
    match e:
        case Mon(pos, neg, contract, body):
            if pos == x and neg == x2:
                contract = copt(contract, Polarity.POS)
            elif pos == x2 and neg == x:
                contract = copt(contract, Polarity.NEG)
            return Mon(pos, neg, contract, opt(body, x, x2), span=e.span)
        case App(fn, arg):
            return App(opt(fn, x, x2), opt(arg, x, x2), span=e.span)
        case If(test, then, orelse):
            return If(opt(test, x, x2), opt(then, x, x2), opt(orelse, x, x2),
                      span=e.span)
        case Lam(param, ann, body):
            return Lam(param, ann, opt(body, x, x2), span=e.span)
        case Let(name, rhs, body):
            return Let(name, opt(rhs, x, x2), opt(body, x, x2), span=e.span)
        case _:
            return e


def normalize(e: Expr) -> Expr:
    """Erase monitors whose contract became trivial, then collapse the
    self-aliasing lets this leaves behind at former require boundaries."""
    match e:
        case Mon(pos, neg, contract, body):
            body = normalize(body)
            return body if contract == ANY_C else Mon(pos, neg, contract, body, span=e.span)
        case App(fn, arg):
            return App(normalize(fn), normalize(arg), span=e.span)
        case If(test, then, orelse):
            return If(normalize(test), normalize(then), normalize(orelse), span=e.span)
        case Lam(param, ann, body):
            return Lam(param, ann, normalize(body), span=e.span)
        case Let(name, rhs, body):
            rhs, body = normalize(rhs), normalize(body)
            if isinstance(rhs, Var) and rhs.name == name:
                return body
            return Let(name, rhs, body, span=e.span)
        case _:
            return e


def test_opt_golden_chain():
    compiled = compile_program(parse_ok(ID_BOUNDARY)).root
    step = opt(compiled, "u1", "t1")
    step = opt(step, "t1", "u1")
    step = opt(step, "t1", "u1")  # the collapse needs the re-weakened arrow
    step = opt(step, "t1", "u2")
    out = normalize(step)
    assert structurally_equal(erase(out), parse_expr(ID_BOUNDARY_OPTIMIZED_CORE))


def test_opt_unrelated_parties_untouched():
    e = parse_expr("(mon (a b) (-> int? int?) x)")
    assert opt(e, "c", "d") == e


def test_opt_without_monitors_is_identity():
    e = parse_expr("(λ (x) (if (int? x) (x 1) 2))")
    assert opt(e, "a", "b") == e


def test_opt_idempotent_per_pair():
    for seed in range(40):
        p = gen_program(GenConfig(seed=seed))
        root = compile_program(p).root
        names = p.names()
        for x, x2 in itertools.permutations(names, 2):
            once = opt(root, x, x2)
            assert opt(once, x, x2) == once


# -- whole-program optimization ----------------------------------------------

def test_optimize_id_boundary_both_trust_modes(id_boundary):
    compiled, report = optimize_program(id_boundary)
    assert structurally_equal(erase(compiled.root),
                              parse_expr(ID_BOUNDARY_OPTIMIZED_CORE))
    assert report.monitors_before == 2
    assert report.monitors_after == 1
    assert report.counts() == {"kept": 0, "weakened": 1, "removed": 1}


def test_optimize_fully_untyped_program():
    p = parse_ok("(module a (λ (x) x))\n(module main (require a) (a 1))")
    compiled, report = optimize_program(p)
    assert report.monitors_before == 0 and report.monitors_after == 0
    assert compiled.boundary_index == []


def test_disposition_counts_partition_boundaries():
    for seed in range(40):
        p = gen_program(GenConfig(seed=seed))
        _, report = optimize_program(p)
        counts = report.counts()
        assert counts["kept"] + counts["weakened"] + counts["removed"] == \
            report.monitors_before


def test_fully_verified_entry_loses_all_obligations(corpus_path):
    # Verify the per-module blame sets are empty before asserting on the
    # optimizer's output.
    for config in sorted((corpus_path / "chain").glob("*.gtl")):
        p = parse_ok(config.read_text(encoding="utf-8"))
        for m in p.modules:
            bs = analyze(compile_program(slice_for_module(p, m.name)).root)
            assert not bs.exhausted
            assert not any(l.blamed == m.name for l in bs.labels), (config, m.name)
        compiled, report = optimize_program(p)
        assert report.monitors_after == 0, config
        answer, metrics = evaluate(compiled.root)
        assert metrics.flat_checks == 0 and metrics.wrappers_allocated == 0


def test_exhausted_analysis_keeps_contracts(id_boundary):
    # With unknown code in t1's body, which no run reaches, every slice
    # that is analyzed exhausts: t1's, u1's and u2's, the parties of the
    # two monitors.  main is no party of any monitor, so it is proven safe
    # with no slice, and that drops nothing: every contract is kept.
    p = parse_ok(ID_BOUNDARY.replace("(λ (x : Int) x)", "(λ (x : Int) (if #t x opaque))"))
    compiled, report = optimize_program(p, budget=5)
    assert report.verdicts == [Verdict("t1", frozenset(), exhausted=True),
                               Verdict("u1", frozenset(), exhausted=True),
                               Verdict("u2", frozenset(), exhausted=True),
                               Verdict("main", frozenset({"t1", "u1", "u2"}), exhausted=False)]
    assert [v.states > 0 for v in report.verdicts] == [True, True, True, False]
    assert report.counts()["kept"] == report.monitors_before
    answer, _ = evaluate(compiled.root)
    assert isinstance(answer, BlamedA)
    # Blameless t1 needs no analysis: only its own obligations are dropped.
    compiled, report = optimize_program(id_boundary, budget=5)
    assert [v.exhausted for v in report.verdicts] == [False, True, True, False]
    assert all(d.after == copt(d.before, POS) for d in report.dispositions)
    answer, _ = evaluate(compiled.root)
    assert isinstance(answer, BlamedA)


def test_verdicts_trust_typed_skips_analysis(id_boundary):
    # Blameless t1 and unobliged main are proven without a slice.
    verdicts = {v.module: v for v in compute_verdicts(id_boundary)}
    assert verdicts["t1"].safe_against == frozenset({"u1", "u2", "main"})
    assert verdicts["main"].safe_against == frozenset({"t1", "u1", "u2"})
    assert verdicts["t1"].states == verdicts["main"].states == 0
    assert "t1" not in verdicts["u2"].safe_against


def _analyzed_modules(monkeypatch, p):
    """The modules whose slice `compute_verdicts` analyzes."""
    analyzed = []

    def recording(p, module, _slice=optimize.slice_for_module):
        analyzed.append(module)
        return _slice(p, module)

    monkeypatch.setattr(optimize, "slice_for_module", recording)
    compute_verdicts(p)
    monkeypatch.undo()
    return analyzed


def test_module_importing_only_a_typed_int_is_skipped(monkeypatch):
    # u is only the negative party of a flat contract, and main of no
    # monitor at all: no monitor can blame them, so both are proven safe
    # against every other module with no slice.
    p = parse_ok("(module n Int 5)\n"
                 "(module u (require n) n)\n"
                 "(module main (require u) u)")
    assert _analyzed_modules(monkeypatch, p) == []
    verdicts = {v.module: v for v in compute_verdicts(p)}
    assert verdicts["u"] == Verdict("u", frozenset({"n", "main"}), exhausted=False)
    assert verdicts["main"] == Verdict("main", frozenset({"n", "u"}), exhausted=False)
    assert verdicts["u"].states == verdicts["main"].states == 0
    # Proving n alone removes the flat contract, as the full analysis would.
    _, report = optimize_program(p)
    assert [(d.pos, d.neg, d.kind) for d in report.dispositions] == [("n", "u", "removed")]


def test_module_importing_a_typed_function_is_analyzed(monkeypatch):
    # u owes f the domain of an arrow, so its verdict can drop that check.
    p = parse_ok("(module f (-> Int Int) (λ (x : Int) x))\n"
                 "(module u (require f) (f 1))\n"
                 "(module main (require u) u)")
    assert _analyzed_modules(monkeypatch, p) == ["u"]
    _, report = optimize_program(p)
    assert [(d.pos, d.neg, d.kind) for d in report.dispositions] == [("f", "u", "removed")]


def test_module_imported_by_a_typed_module_is_analyzed(monkeypatch):
    # u is the positive party of t's import: its verdict can drop the flat
    # check on the value it exports.  main, importing t's Int, is skipped.
    p = parse_ok("(module u 5)\n"
                 "(module t Int (require/typed u Int) u)\n"
                 "(module main (require t) t)")
    assert _analyzed_modules(monkeypatch, p) == ["u"]
    _, report = optimize_program(p)
    assert [(d.pos, d.neg, d.kind) for d in report.dispositions] == \
        [("u", "t", "removed"), ("t", "main", "removed")]


def test_untrusted_verdicts_analyze_every_module(monkeypatch):
    # Every module that is obliged and not blameless, and no other: n, the
    # positive party of u's Int import, is analyzed with an opaque body and
    # blameless with the body 5.  u and main are obliged by no monitor.
    p = parse_ok("(module n Int opaque)\n"
                 "(module u (require n) n)\n"
                 "(module main (require u) u)")
    assert _analyzed_modules(monkeypatch, p) == ["n"]
    verdicts = {v.module: v for v in compute_verdicts(p)}
    assert verdicts["n"] == Verdict("n", frozenset({"main"}), exhausted=False)
    assert verdicts["n"].states > 0
    assert verdicts["u"] == Verdict("u", frozenset({"n", "main"}), exhausted=False)
    assert verdicts["main"] == Verdict("main", frozenset({"n", "u"}), exhausted=False)
    assert verdicts["u"].states == verdicts["main"].states == 0
    p = parse_ok("(module n Int 5)\n"
                 "(module u (require n) n)\n"
                 "(module main (require u) u)")
    assert _analyzed_modules(monkeypatch, p) == []
    verdicts = {v.module: v for v in compute_verdicts(p)}
    assert verdicts["n"] == Verdict("n", frozenset({"u", "main"}), exhausted=False)
    assert verdicts["n"].states == 0 and verdicts["n"].seconds == 0.0


def _oracle_programs(corpus_path):
    """Generated programs at two sizes and every corpus configuration."""
    programs = [gen_program(GenConfig(seed=seed)) for seed in range(300)]
    programs += [gen_program(GenConfig(seed=seed, expr_size=64, max_modules=16))
                 for seed in range(1000, 1024)]
    for entry in sorted(d for d in corpus_path.iterdir() if d.is_dir()):
        programs += [parse_ok(f.read_text(encoding="utf-8")) for f in lattice_configs(entry)]
    return programs


def test_skipping_unconsulted_slices_changes_no_output(corpus_path):
    # The modules no monitor obliges are proven without their slices, and
    # each verdict is the one the full slice gives: so are the tree and the
    # dispositions.
    unobliged = 0
    for i, p in enumerate(_oracle_programs(corpus_path)):
        compiled, report = optimize_program(p)
        every = _verdicts_from_full_slices(p)
        assert report.verdicts == every, i
        oracle, oracle_report = optimize_program(p, verdicts=every)
        assert format_expr(compiled.root) == format_expr(oracle.root), i
        assert report.dispositions == oracle_report.dispositions, i
        unobliged += len(set(p.names()) - obliged_modules(p) - _blameless(p))
    assert unobliged > 0


# Untyped u calls typed f with #t: the domain check of f's arrow blames u,
# which is only the negative party of that arrow.
ARROW_DOMAIN_BLAME = """\
(module f (-> Int Int) (λ (x : Int) x))
(module u (require f) (f #t))
(module main (require u) u)
"""


def _unobliged_misses(programs, fuel=300_000):
    """What the proof that a module outside `obliged_modules` can never be
    blamed gets wrong on `programs`: each unoptimized run, within `fuel`
    steps, that blames such a module, and each slice of such a module that
    has a label blaming it or that is exhausted."""
    misses = []
    for i, p in enumerate(programs):
        unobliged = set(p.names()) - optimize.obliged_modules(p)
        answer, _ = evaluate(compile_program(p).root, fuel=fuel)
        if isinstance(answer, BlamedA) and answer.label.blamed in unobliged:
            misses.append((i, "run", answer.label))
        for x in sorted(unobliged):
            bs = analyze_slice(p, x)
            if bs.exhausted or any(l.blamed == x for l in bs.labels):
                misses.append((i, x, bs.exhausted, sorted(bs.labels)))
    return misses


def test_a_module_no_monitor_obliges_is_never_blamed(corpus_path):
    # Only a monitor's positive party, or the negative party of an arrow
    # contract, can be blamed.  So neither a run nor a slice's analysis
    # ever blames a module that no monitor obliges, and proving it safe
    # without its slice loses nothing.
    programs = _oracle_programs(corpus_path) + [parse_ok(ARROW_DOMAIN_BLAME)]
    assert _unobliged_misses(programs) == []
    blaming = sum(isinstance(evaluate(compile_program(p).root, fuel=300_000)[0], BlamedA)
                  for p in programs)
    unobliged = sum(len(set(p.names()) - obliged_modules(p)) for p in programs)
    assert (len(programs), blaming, unobliged) == (337, 59, 512)


def test_unobliged_oracle_needs_the_negative_arrow_clause(monkeypatch):
    # Without the clause that obliges the negative party of an arrow, u
    # is taken as unobliged and proven safe toward f, although its run is
    # blamed: the oracle fails, and the optimized run no longer blames.
    p = parse_ok(ARROW_DOMAIN_BLAME)
    answer, _ = evaluate(compile_program(p).root)
    assert isinstance(answer, BlamedA) and answer.label == BlameLabel("u", "f")
    assert _unobliged_misses([p]) == []
    assert run_differential(p)["agree"]

    def positive_parties_only(p):
        return {r.target for _, monitored in boundaries(p) for r, _ in monitored}

    monkeypatch.setattr(optimize, "obliged_modules", positive_parties_only)
    assert [miss[:2] for miss in _unobliged_misses([p])] == [(0, "run"), (0, "u")]
    assert not run_differential(p)["agree"]


def test_trust_typed_is_accepted_and_ignored(corpus_path, id_boundary):
    # Callers that still pass `trust_typed` get the verdicts and the
    # optimized tree of a call without it, whatever they pass.
    programs = [id_boundary] + [gen_program(GenConfig(seed=seed)) for seed in range(40)]
    for entry in sorted(d for d in corpus_path.iterdir() if d.is_dir()):
        programs += [parse_ok(f.read_text(encoding="utf-8")) for f in lattice_configs(entry)]
    for i, p in enumerate(programs):
        verdicts = compute_verdicts(p)
        compiled, report = optimize_program(p)
        tree = format_expr(compiled.root)
        for trust in (True, False):
            label = (i, trust)
            again = compute_verdicts(p, trust_typed=trust)
            assert again == verdicts, label
            assert [v.states for v in again] == [v.states for v in verdicts], label
            compiled_t, report_t = optimize_program(p, trust_typed=trust)
            assert report_t.verdicts == report.verdicts, label
            assert report_t.dispositions == report.dispositions, label
            assert format_expr(compiled_t.root) == tree, label


def test_dispositions_match_rewritten_tree():
    for seed in range(80):
        p = gen_program(GenConfig(seed=seed))
        compiled, report = optimize_program(p)
        assert len(scan_boundaries(compiled.root)) == report.monitors_after
        survivors = sorted((d.pos, d.neg, str(d.after))
                           for d in report.dispositions if d.kind != "removed")
        in_tree = sorted((b.pos, b.neg, str(b.contract))
                         for b in compiled.boundary_index)
        assert survivors == in_tree, seed


def _layer_calls(monkeypatch, p):
    """How often `compute_verdicts` calls each layer name the benchmark
    wraps in `optimize` (benchmark/layers.py), and the first positional
    argument of each `analyze` call, which the benchmark reads."""
    calls = Counter()
    roots = []
    for name in ("slice_for_module", "compile_program", "analyze"):
        def counted(*args, _fn=getattr(optimize, name), _name=name, **kw):
            calls[_name] += 1
            if _name == "analyze":
                roots.append(args[0])
            return _fn(*args, **kw)
        monkeypatch.setattr(optimize, name, counted)
    verdicts = compute_verdicts(p)
    monkeypatch.undo()
    return calls, roots, verdicts


def test_compute_verdicts_reaches_layers_through_module_globals(monkeypatch, id_boundary):
    # The benchmark times and counts each layer by wrapping these names,
    # and fails a run in which one of them is never called.  Each analyzed
    # slice is sliced, compiled and analyzed once, as an expression.
    for p in (id_boundary, gen_program(GenConfig(seed=3, expr_size=64, max_modules=16))):
        calls, roots, verdicts = _layer_calls(monkeypatch, p)
        k = sum(1 for v in verdicts if v.states > 0)
        assert k > 0
        assert calls == {"slice_for_module": k, "compile_program": k, "analyze": k}
        assert all(isinstance(root, EXPR_TYPES) for root in roots)
        assert all(reachable_states(root) == analyze(root).states > 0 for root in roots)


def test_compute_verdicts_compiles_nothing_when_nothing_is_analyzed(monkeypatch):
    # Every module but main is typed and blameless, and main only imports
    # an Int, so no verdict can change a monitor: no slice is built.
    p = parse_ok("(module n Int 5)\n"
                 "(module t Int (require n) n)\n"
                 "(module main (require t) t)")
    calls, roots, verdicts = _layer_calls(monkeypatch, p)
    assert all(v.states == 0 for v in verdicts)
    assert not calls


def test_opaque_under_a_lambda_keeps_its_monitor():
    # The hole in u may call t with #f, so u is not safe toward t and the
    # domain check stays.
    p = parse_ok("(module t (-> Int Int) (λ (x : Int) x))\n"
                 "(module u (require t) ((λ (_) opaque) 0))\n"
                 "(module main (require u) u)")
    compiled, report = optimize_program(p)
    assert [(d.pos, d.neg, d.kind) for d in report.dispositions] == [("t", "u", "weakened")]
    assert [b.contract for b in compiled.boundary_index] == [ArrowC(INT_C, ANY_C)]


def test_check_reduction_on_generated_programs():
    for seed in range(60):
        p = gen_program(GenConfig(seed=seed))
        base, m0 = evaluate(compile_program(p).root, fuel=300_000)
        compiled, _ = optimize_program(p)
        _, m1 = evaluate(compiled.root, fuel=300_000)
        assert m1.flat_checks <= m0.flat_checks, f"seed {seed}"
        assert m1.wrappers_allocated <= m0.wrappers_allocated, f"seed {seed}"


# -- contracts eliminated while compiling, against the per-pair rewrite ---

def _fold_to_fixpoint(e, pairs):
    """The paper's rewrite: `opt` for each proven pair in turn, repeated
    until a round changes nothing."""
    while True:
        out = e
        for x, x2 in pairs:
            out = opt(out, x, x2)
        if out == e:
            return out
        e = out


def _per_pair_optimize(p, verdicts):
    """The optimized tree and the dispositions, pair by pair: the proven
    pairs are folded in module order, and each boundary's contract is what
    the same fold leaves of a lone monitor over it."""
    order = {name: i for i, name in enumerate(p.names())}
    pairs = sorted(((v.module, other) for v in verdicts for other in v.safe_against),
                   key=lambda xy: (order[xy[0]], xy[1]))
    compiled = compile_program(p)
    root = normalize(_fold_to_fixpoint(compiled.root, pairs))
    dispositions = []
    for b in compiled.boundary_index:
        after = _fold_to_fixpoint(Mon(b.pos, b.neg, b.contract, Var("x")), pairs).contract
        kind = ("removed" if after == ANY_C
                else "kept" if after == b.contract else "weakened")
        dispositions.append((b.pos, b.neg, b.contract, after, kind))
    return root, dispositions


def _assert_matches_per_pair(p, label):
    verdicts = compute_verdicts(p)
    compiled, report = optimize_program(p, verdicts=verdicts)
    root, dispositions = _per_pair_optimize(p, verdicts)
    assert structurally_equal(compiled.root, root), label
    assert [(d.pos, d.neg, d.before, d.after, d.kind)
            for d in report.dispositions] == dispositions, label


def test_one_walk_matches_per_pair_fixpoint():
    for seed in range(200):
        _assert_matches_per_pair(gen_program(GenConfig(seed=seed)), seed)


def test_one_walk_matches_per_pair_fixpoint_large():
    for seed in range(48):
        _assert_matches_per_pair(
            gen_program(GenConfig(seed=seed, expr_size=64, max_modules=10)), seed)


def test_final_contract_is_the_copt_fixpoint():
    # `_final_contract` in closed form against applying each proven side's
    # `copt` until nothing changes.
    for c in contracts_up_to(3):
        for pos_safe, neg_safe in itertools.product((False, True), repeat=2):
            proven = {("p", "n")} if pos_safe else set()
            proven |= {("n", "p")} if neg_safe else set()
            fixpoint = c
            while True:
                before = fixpoint
                if pos_safe:
                    fixpoint = copt(fixpoint, POS)
                if neg_safe:
                    fixpoint = copt(fixpoint, NEG)
                if fixpoint == before:
                    break
            assert _final_contract(c, "p", "n", proven) == fixpoint, (c, proven)


def test_both_directions_proven_erase_the_boundary():
    # One round of both sides' rewrites leaves (-> any/c any/c); only the
    # second round's positive rewrite collapses it.
    p = parse_ok("(module a (-> Int Int) (λ (x : Int) x))\n"
                 "(module b (require a) (a 1))\n"
                 "(module main (require b) b)")
    assert compile_program(p).boundary_index[0].contract == ArrowC(INT_C, INT_C)
    cases = [({"b"}, {"a"}, ANY_C),
             ({"b"}, set(), ArrowC(INT_C, ANY_C)),
             (set(), {"a"}, ArrowC(ANY_C, INT_C))]
    for a_safe, b_safe, expected in cases:
        verdicts = [Verdict("a", frozenset(a_safe), exhausted=False),
                    Verdict("b", frozenset(b_safe), exhausted=False),
                    Verdict("main", frozenset(), exhausted=False)]
        compiled, report = optimize_program(p, verdicts=verdicts)
        (d,) = report.dispositions
        assert d.after == expected
        assert [b.contract for b in compiled.boundary_index] == \
            ([] if expected == ANY_C else [expected])
        root, _ = _per_pair_optimize(p, verdicts)
        assert structurally_equal(compiled.root, root)
        if expected == ANY_C:
            assert structurally_equal(erase(compiled.root), parse_expr(
                "(let [a (λ (x) x)] (let [b (a 1)] (let [main b] main)))"))
