import itertools
from collections import Counter

from conftest import (
    ID_BOUNDARY, ID_BOUNDARY_OPTIMIZED_CORE, ID_BOUNDARY_SLICE_U1, parse_ok,
)
from gtlc import optimize
from gtlc.analysis import analyze, reachable_states
from gtlc.frontend import parse_expr
from gtlc.gen import GenConfig, gen_program
from gtlc.interp import BlamedA, evaluate
from gtlc.optimize import (
    Verdict, _final_contract, _strip, analyze_slice, compute_verdicts, copt,
    normalize, opt, optimize_program, slice_for_module,
)
from gtlc.syntax import (
    ANY_C, ArrowC, BOOL_C, BlameLabel, Expr, INT_C, Mon, Opaque, Polarity, Var,
    format_program, structurally_equal,
)
from gtlc.translate import compile_program, scan_boundaries

POS, NEG = Polarity.POS, Polarity.NEG


# -- slicing ---------------------------------------------------------------

def test_slice_keeps_target_only():
    p = parse_ok(ID_BOUNDARY)
    sliced = slice_for_module(p, "u1")
    expected = parse_ok(ID_BOUNDARY_SLICE_U1)
    assert format_program(sliced) == format_program(expected)


def test_slice_one_module_program_unchanged():
    p = parse_ok("(module main 5)")
    sliced = slice_for_module(p, "main")
    assert format_program(sliced) == format_program(p)


def test_slice_for_other_module():
    p = parse_ok(ID_BOUNDARY)
    sliced = slice_for_module(p, "u2")
    kinds = [isinstance(m.body, Opaque) for m in sliced.modules]
    assert kinds == [True, True, False, True]


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
    # The marked module is never analyzed, so its own obligations survive;
    # the client still gets its side dropped.
    _, report = optimize_program(p, trust_typed=False)
    (d,) = report.dispositions
    assert d.kind == "weakened" and d.after == ArrowC(ANY_C, INT_C)
    verdicts = {v.module: v.safe_against for v in report.verdicts}
    assert verdicts["lib"] == frozenset()
    # Trusting the type annotation overrides the mark.
    _, trusted = optimize_program(p, trust_typed=True)
    assert trusted.dispositions[0].kind == "removed"


# -- analyzing a slice at its own boundaries ---------------------------------

# The seeds of test_slice_analysis_matches_golden_digest.
GOLDEN_CONFIGS = ([GenConfig(seed=s) for s in range(100)]
                  + [GenConfig(seed=s, expr_size=64, max_modules=16) for s in range(24)])


def _full_slice(p, module):
    """The blame set of `module`'s slice with every monitor kept."""
    return analyze(compile_program(slice_for_module(p, module)).root)


def _verdicts_from_full_slices(p, trust_typed):
    """`compute_verdicts` as it reads with every monitor kept in each slice."""
    parties = frozenset(p.names())
    out = []
    for m in p.modules:
        others = parties - {m.name}
        if trust_typed and m.typed:
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
    slices = 0
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
        for trust in (True, False):
            assert compute_verdicts(p, trust_typed=trust) == \
                _verdicts_from_full_slices(p, trust), (cfg.seed, trust)
    assert slices == 495


def test_slice_compiled_for_its_party_is_the_rewrite_that_drops_other_parties_monitors():
    # Compiling with a party gives the tree the full rewrite walk gives
    # when it keeps a monitor iff the party is one of its parties.
    for cfg in GOLDEN_CONFIGS[::4]:
        p = gen_program(cfg)
        for m in p.modules:
            x = m.name
            sliced = slice_for_module(p, x)
            whole = _strip(compile_program(sliced).root,
                           lambda pos, neg, c: c if x in (pos, neg) else ANY_C)
            root = compile_program(sliced, x).root
            label = (cfg.seed, cfg.expr_size, x)
            assert root == whole, label
            assert ([b.span for b in scan_boundaries(root)]
                    == [b.span for b in scan_boundaries(whole)]), label


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
    whole = compile_program(slice_for_module(p, "u")).root
    assert [(b.pos, b.neg) for b in scan_boundaries(whole)] == [("t", "u"), ("t", "v")]
    assert [(b.pos, b.neg) for b in scan_boundaries(root)] == [("t", "u")]
    assert bs.labels == {BlameLabel("t", "u")}
    assert BlameLabel("v", "t") in analyze(whole).labels


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


def _contracts_of_height(n):
    if n == 1:
        return [INT_C, BOOL_C, ANY_C]
    smaller = _contracts_up_to(n - 1)
    return [ArrowC(d, c) for d in smaller for c in smaller]


def _contracts_up_to(n):
    out = []
    for k in range(1, n + 1):
        out.extend(_contracts_of_height(k))
    return out


def test_copt_idempotent_exhaustively():
    # Every contract of height at most 4 (leaves count as height 1).
    for c in _contracts_up_to(4):
        for s in Polarity:
            once = copt(c, s)
            assert copt(once, s) == once, (c, s)


# -- expression rewriting ----------------------------------------------------

def test_opt_golden_chain():
    compiled = compile_program(parse_ok(ID_BOUNDARY)).root
    step = opt(compiled, "u1", "t1")
    step = opt(step, "t1", "u1")
    step = opt(step, "t1", "u1")  # the collapse needs the re-weakened arrow
    step = opt(step, "t1", "u2")
    out = normalize(step)
    assert structurally_equal(out, parse_expr(ID_BOUNDARY_OPTIMIZED_CORE))


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
    for trust in (True, False):
        compiled, report = optimize_program(id_boundary, trust_typed=trust)
        assert structurally_equal(compiled.root,
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
        _, report = optimize_program(p, trust_typed=False)
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
        compiled, report = optimize_program(p, trust_typed=False)
        assert report.monitors_after == 0, config
        answer, metrics = evaluate(compiled.root)
        assert metrics.flat_checks == 0 and metrics.wrappers_allocated == 0


def test_exhausted_analysis_keeps_contracts(id_boundary):
    compiled, report = optimize_program(id_boundary, trust_typed=False, budget=5)
    assert all(v.exhausted and not v.safe_against for v in report.verdicts)
    assert report.counts()["kept"] == report.monitors_before
    answer, _ = evaluate(compiled.root)
    assert isinstance(answer, BlamedA)


def test_verdicts_trust_typed_skips_analysis(id_boundary):
    verdicts = {v.module: v for v in compute_verdicts(id_boundary, trust_typed=True)}
    assert verdicts["t1"].safe_against == frozenset({"u1", "u2", "main"})
    assert "t1" not in verdicts["u2"].safe_against


def test_dispositions_match_rewritten_tree():
    from gtlc.translate import scan_boundaries
    for seed in range(80):
        p = gen_program(GenConfig(seed=seed))
        for trust in (True, False):
            compiled, report = optimize_program(p, trust_typed=trust)
            assert len(scan_boundaries(compiled.root)) == report.monitors_after
            survivors = sorted((d.pos, d.neg, str(d.after))
                               for d in report.dispositions if d.kind != "removed")
            in_tree = sorted((b.pos, b.neg, str(b.contract))
                             for b in compiled.boundary_index)
            assert survivors == in_tree, (seed, trust)


def test_compute_verdicts_reaches_layers_through_module_globals(monkeypatch, id_boundary):
    # The benchmark times and counts each layer by wrapping these names in
    # `optimize` (benchmark/layers.py), and fails a run in which one of them
    # is never called; it reads the analyzed root as the first positional
    # argument of `analyze`.
    calls = Counter()
    roots = []
    for name in ("slice_for_module", "compile_program", "analyze"):
        def counted(*args, _fn=getattr(optimize, name), _name=name, **kw):
            calls[_name] += 1
            if _name == "analyze":
                roots.append(args[0])
            return _fn(*args, **kw)
        monkeypatch.setattr(optimize, name, counted)
    compute_verdicts(id_boundary, trust_typed=False)
    n = len(id_boundary.modules)
    assert calls == {"slice_for_module": n, "compile_program": n, "analyze": n}
    assert all(isinstance(root, Expr) for root in roots)
    assert all(reachable_states(root) == analyze(root).states > 0 for root in roots)


def test_opaque_under_a_lambda_keeps_its_monitor():
    # The hole in u may call t with #f, so u is not safe toward t and the
    # domain check stays.
    p = parse_ok("(module t (-> Int Int) (λ (x : Int) x))\n"
                 "(module u (require t) ((λ (_) opaque) 0))\n"
                 "(module main (require u) u)")
    for trust in (True, False):
        compiled, report = optimize_program(p, trust_typed=trust)
        assert [(d.pos, d.neg, d.kind) for d in report.dispositions] == \
            [("t", "u", "weakened")]
        assert [b.contract for b in compiled.boundary_index] == [ArrowC(INT_C, ANY_C)]


def test_check_reduction_on_generated_programs():
    for seed in range(60):
        p = gen_program(GenConfig(seed=seed))
        base, m0 = evaluate(compile_program(p).root, fuel=300_000)
        compiled, _ = optimize_program(p)
        _, m1 = evaluate(compiled.root, fuel=300_000)
        assert m1.flat_checks <= m0.flat_checks, f"seed {seed}"
        assert m1.wrappers_allocated <= m0.wrappers_allocated, f"seed {seed}"


# -- the one-walk rewrite against the per-pair definition ---------------------

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


def _assert_matches_per_pair(p, trust, label):
    verdicts = compute_verdicts(p, trust_typed=trust)
    compiled, report = optimize_program(p, trust_typed=trust, verdicts=verdicts)
    root, dispositions = _per_pair_optimize(p, verdicts)
    assert structurally_equal(compiled.root, root), label
    assert [(d.pos, d.neg, d.before, d.after, d.kind)
            for d in report.dispositions] == dispositions, label


def test_one_walk_matches_per_pair_fixpoint():
    for seed in range(200):
        p = gen_program(GenConfig(seed=seed))
        for trust in (True, False):
            _assert_matches_per_pair(p, trust, (seed, trust))


def test_one_walk_matches_per_pair_fixpoint_large():
    for seed in range(48):
        p = gen_program(GenConfig(seed=seed, expr_size=64, max_modules=10))
        for trust in (True, False):
            _assert_matches_per_pair(p, trust, (seed, trust))


def _contracts_up_to(height):
    level = [ANY_C, INT_C, BOOL_C]
    for _ in range(height - 1):
        level = [ANY_C, INT_C, BOOL_C] + [ArrowC(d, r) for d in level for r in level]
    return level


def test_final_contract_is_the_copt_fixpoint():
    # `_final_contract` in closed form against applying each proven side's
    # `copt` until nothing changes.
    for c in _contracts_up_to(3):
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
            assert structurally_equal(compiled.root, parse_expr(
                "(let [a (λ (x) x)] (let [b (a 1)] (let [main b] main)))"))
