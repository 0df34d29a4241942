import hashlib
import random
import re
import sys
from dataclasses import replace

import pytest

from conftest import (
    HOLES_UNDER_LAMBDAS, ID_BOUNDARY, ID_BOUNDARY_CORE,
    ID_BOUNDARY_OPTIMIZED_CORE, ID_BOUNDARY_SLICE_U1_CORE, expr_nodes, parse_ok,
)
from gtlc import frontend
from gtlc.bench import corpus_dir
from gtlc.frontend import (
    _check, _synth, _unbound, check_wellformed, parse_expr, parse_program, require_env,
)
from gtlc.gen import GenConfig, gen_program
from gtlc.interp import ValA, evaluate
from gtlc.syntax import (
    App, Lam, Module, Opaque, Program, Require, TArrow, T_INT, Var, format_expr,
    format_program, subterms,
)
from gtlc.translate import compile_program, erase

ARROW_II = TArrow(T_INT, T_INT)


def test_parse_id_boundary_shape():
    p = parse_ok(ID_BOUNDARY)
    assert p.names() == ["t1", "u1", "u2", "main"]
    t1, u1, u2, main = p.modules
    assert t1.ty == ARROW_II and not u1.typed and not u2.typed and not main.typed
    assert [r.target for r in u1.requires] == ["t1"]
    assert [r.target for r in u2.requires] == ["t1"]
    assert [r.target for r in main.requires] == ["u2"]


def test_parse_smallest_program():
    p, diags = parse_program("(module main 5)")
    assert not diags and len(p.modules) == 1
    assert p.modules[0].body.value == 5
    assert not check_wellformed(p)


def test_parse_unbalanced_paren():
    p, diags = parse_program("(module main (5")
    assert p is None
    assert any(d.kind == "parse" for d in diags)


def test_parse_diagnostic_spans_lie_in_text():
    text = "(module main (5"
    _, diags = parse_program(text)
    for d in diags:
        assert 0 <= d.span[0] <= d.span[1] <= len(text)


def test_comments():
    p, diags = parse_program("; only a comment before\n(module main 5)")
    assert not diags and p is not None


def test_core_forms_rejected_in_source():
    p, diags = parse_program("(module main (let [x 1] x))")
    assert p is None and any(d.kind == "parse" for d in diags)


def test_blame_is_a_name_not_a_form():
    # Blame is what a failed monitor check answers; the core has no term
    # for it, so `(blame a b)` is a list of three names like any other.
    with pytest.raises(frontend.ParseError) as err:
        parse_expr("(blame a b)")
    assert _diag_record([err.value.diagnostic]) == [
        ("parse", "expected an application of one argument, got 3 elements", (0, 11))]
    p = parse_ok("(module blame (λ (blame) blame))\n"
                 "(module main (require blame) (blame 7))")
    assert evaluate(compile_program(p).root)[0] == ValA(7)


# Diagnostics no other test reaches: (text, [(kind, message, span)]).  Each
# was recorded at the commit before the one that added this table, when the
# core still had a `blame` term, and none changed.  Typed modules come
# before a `main` so that only their own diagnostics show.
_MAIN = " (module main 1)"
_DIAGNOSTIC_TABLE = [
    ("(module t Int y)" + _MAIN, [("unbound", "unbound variable 'y'", (14, 15))]),
    ("(module t Bool (if int? #t #f))" + _MAIN,
     [("type-error", "int? must be applied", (19, 23))]),
    ("(module t Int ((opaque 1) 2))" + _MAIN,
     [("type-error", "cannot infer a type for an opaque term", (16, 22))]),
    ("(module t Int ((λ (x : Int) y) 1))" + _MAIN,
     [("unbound", "unbound variable 'y'", (28, 29))]),
    ("(module t Int ((if #t y y) 1))" + _MAIN,
     [("unbound", "unbound variable 'y'", (22, 23))]),
    ("(module t Int (1 2))" + _MAIN,
     [("type-error", "applied a non-function of type Int", (14, 19))]),
    ("(module t Int (λ (x : Int) x))" + _MAIN,
     [("type-error", "lambda where Int was expected", (14, 29))]),
    ("(module t (-> Int Int) (λ (x : Bool) 1))" + _MAIN,
     [("type-error", "parameter annotated Bool but Int expected", (23, 39))]),
    ("(module t Int (int? 1))" + _MAIN,
     [("type-error", "int? returns Bool, not Int", (14, 22))]),
    ("(module t Int (require q) 1)" + _MAIN,
     [("unbound", "require of unknown module 'q'", (14, 25))]),
    ("(module t Int (opaque-require a b c) 1)" + _MAIN,
     [("parse", "malformed opaque-require", (14, 36))]),
    ("(module t Int)" + _MAIN, [("parse", "typed module needs a body", (0, 14))]),
]


def test_diagnostics_table():
    for text, want in _DIAGNOSTIC_TABLE:
        program, diags = parse_program(text)
        if program is not None:
            diags = diags + check_wellformed(program)
        assert _diag_record(diags) == want, text
    # The reader rejects these first, so they are built through the API.
    diags = []
    assert _synth({}, parse_expr("(let [x 1] x)"), diags) is None
    assert _diag_record(diags) == [
        ("type-error", "core-language form in a surface program", (0, 13))]
    diags = []
    _check({}, parse_expr("(λ (x) x)"), ARROW_II, diags)
    assert _diag_record(diags) == [
        ("type-error", "unannotated lambda in a typed module body", (0, 9))]
    a, main = parse_ok("(module a 1) (module main (require a) a)").modules
    annotated = replace(main, requires=[replace(main.requires[0], ann=T_INT)])
    assert _diag_record(check_wellformed(Program([a, annotated]))) == [
        ("require-kind-mismatch", "annotated require in an untyped module", (26, 37))]


def _hole_scopes(e):
    return [n.allowed for n in expr_nodes(e) if isinstance(n, Opaque)]


def test_a_parsed_hole_is_scoped_to_its_requires_and_enclosing_parameters():
    p = parse_ok(HOLES_UNDER_LAMBDAS)
    assert {m.name: _hole_scopes(m.body) for m in p.modules} == {
        "n": [],
        "e": [frozenset()],
        "t": [frozenset({"n", "x", "y"})] * 2,
        "u": [frozenset({"n", "t", "a", "b"})],
        "h": [frozenset({"n"})],
        "main": [],
    }


def test_a_hole_read_by_parse_expr_is_unscoped():
    e = parse_expr("(λ (x) (let [y opaque] (opaque x)))")
    assert _hole_scopes(e) == [None, None]


def _typed(*requires):
    return Module("t", T_INT, list(requires), Opaque())


def _untyped(*requires):
    return Module("u", None, list(requires), Opaque())


def test_ty_env_plain_typed_target():
    t1 = Module("t1", ARROW_II, [], Opaque())
    env, diags = require_env(_typed(Require("t1")), {"t1": t1})
    assert env == {"t1": ARROW_II} and not diags


def test_ty_env_empty():
    assert require_env(_typed(), {}) == ({}, [])


def test_ty_env_annotated_untyped_target():
    u9 = Module("u9", None, [], Opaque())
    env, diags = require_env(_typed(Require("u9", ann=T_INT)), {"u9": u9})
    assert env == {"u9": T_INT} and not diags


def test_ty_env_kind_mismatches():
    t1 = Module("t1", ARROW_II, [], Opaque())
    u1 = Module("u1", None, [], Opaque())
    _, diags = require_env(_typed(Require("u1")), {"t1": t1, "u1": u1})
    assert any(d.kind == "require-kind-mismatch" for d in diags)
    _, diags = require_env(_typed(Require("t1", ann=T_INT)), {"t1": t1, "u1": u1})
    assert any(d.kind == "require-kind-mismatch" for d in diags)


def test_name_env():
    t1 = Module("t1", ARROW_II, [], Opaque())
    env, diags = require_env(_untyped(Require("t1")), {"t1": t1})
    assert env == {"t1": None} and not diags
    assert require_env(_untyped(), {}) == ({}, [])
    _, diags = require_env(_untyped(Require("ghost")), {"t1": t1})
    assert any(d.kind == "unbound" for d in diags)
    # Annotated requires, which the reader rejects in untyped modules, are
    # reported before unknown modules.
    _, diags = require_env(_untyped(Require("ghost"), Require("t1", ann=T_INT)), {"t1": t1})
    assert [d.kind for d in diags] == ["require-kind-mismatch", "unbound"]


def test_typecheck_unannotated_lambda_rejected():
    diags = []
    ty = _synth({}, frontend.parse_expr("(λ (x) x)"), diags)
    assert ty is None and diags


def test_typecheck_annotated_identity():
    p, _ = parse_program("(module t (-> Int Int) (λ (x : Int) x))")
    diags = []
    ty = _synth({}, p.modules[0].body, diags)
    assert ty == ARROW_II and not diags


def test_typecheck_application_of_import():
    p, _ = parse_program("(module t Int (t1 5))")
    body = p.modules[0].body
    diags = []
    ty = _synth({"t1": ARROW_II}, body, diags)
    assert ty == T_INT and not diags


def test_typecheck_bad_if_test():
    p, _ = parse_program("(module t Int (if 1 2 3))")
    diags = []
    ty = _synth({}, p.modules[0].body, diags)
    assert ty is None and any(d.kind == "type-error" for d in diags)


def test_typecheck_opaque_takes_expected_type():
    diags = []
    _check({}, Opaque(), ARROW_II, diags)
    assert diags == []


def _typed_bodies():
    """(environment, body) of every typed module of the corpus, of `gen`
    seeds 0-299 at `typed_fraction=1.0` and of `_flip_texts`, in the
    environment its requires induce."""
    programs = [parse_ok(f.read_text(encoding="utf-8"))
                for f in sorted(corpus_dir().glob("*/*.gtl"))]
    programs += [gen_program(GenConfig(seed=s, typed_fraction=1.0)) for s in range(300)]
    programs += [parse_program(text)[0] for text in _flip_texts()]
    for p in programs:
        defined = {}
        for m in p.modules:
            if m.typed:
                yield require_env(m, defined)[0], m.body
            defined.setdefault(m.name, m)


def test_synth_returns_a_type_exactly_when_it_appends_no_diagnostic():
    # Over each body and every subterm of it, in the body's environment, so
    # names bound inside the body read as unbound and fail too.
    bodies = terms = typed = 0
    for env, body in _typed_bodies():
        bodies += 1
        for e in subterms(body):
            # A sentinel first entry shows that `_synth` only appends.
            diags = ["sentinel"]
            ty = _synth(env, e, diags)
            assert diags[0] == "sentinel"
            assert (ty is not None) == (len(diags) == 1), format_expr(e)
            terms += 1
            typed += ty is not None
    assert (bodies, terms, typed) == (1_828, 16_410, 14_633)


# (body, names its requires bind, the unbound names `_unbound` reports)
_SCOPE_TABLE = [
    ("(let [x x] x)", [], ["x"]),           # a let's right-hand side is outside it
    ("(let [x 1] x)", [], []),
    ("((λ (a) a) a)", ["a"], []),           # a parameter shadows a require
    ("((λ (a) a) a)", [], ["a"]),           # and is out of scope after its lambda
    ("((λ (a) (λ (a) a)) a)", [], ["a"]),
    ("(mon (p q) int? y)", [], ["y"]),      # a monitor's body is walked
    ("(if #t (λ (z) z) z)", [], ["z"]),      # a branch binds nothing in another
    ("(b (a (c opaque)))", ["a"], ["b", "c"]),
]


def test_unbound_scope_rules():
    for text, names, want in _SCOPE_TABLE:
        assert _unbound(parse_expr(text), names)[0] == want, text


def test_a_deep_untyped_body_is_checked_without_recursion():
    # 20,000 nested (λ (xi) (... xi)) with one free name at the bottom,
    # built through the API: far deeper than Python's recursion limit.
    body = Var("free")
    for i in reversed(range(20_000)):
        body = Lam(f"x{i}", None, App(body, Var(f"x{i}")))
    diags = check_wellformed(Program([Module("main", None, [], body)]))
    assert _diag_record(diags) == [
        ("unbound", "unbound variable 'free' in module 'main'", (0, 0))]


def test_wellformed_id_boundary():
    assert not check_wellformed(parse_ok(ID_BOUNDARY))


def test_wellformed_forward_require():
    p, _ = parse_program("(module u1 (require t1) (t1 5))\n"
                         "(module t1 (-> Int Int) (λ (x : Int) x))\n"
                         "(module main 5)")
    diags = check_wellformed(p)
    assert any(d.kind == "unbound" for d in diags)


def test_wellformed_annotation_mismatch():
    p, _ = parse_program("(module t Bool 5)\n(module main 5)")
    diags = check_wellformed(p)
    assert any(d.kind == "type-error" for d in diags)


def test_wellformed_main_missing():
    p, _ = parse_program("(module t Bool #t)")
    assert any(d.kind == "main-missing" for d in check_wellformed(p))
    p2, diags2 = parse_program("")
    assert p2 is not None and not diags2
    assert any(d.kind == "main-missing" for d in check_wellformed(p2))


def test_wellformed_typed_main_rejected():
    p, _ = parse_program("(module main Int 5)")
    assert any(d.kind == "type-error" for d in check_wellformed(p))


def test_wellformed_duplicate_modules():
    p, _ = parse_program("(module a 1)\n(module a 2)\n(module main 5)")
    assert any(d.kind == "duplicate-module" for d in check_wellformed(p))
    # Requires see the first definition of a name.
    p, _ = parse_program("(module a Int 1) (module a 2) (module t Int (require a) a)"
                         " (module main 5)")
    assert [d.kind for d in check_wellformed(p)] == ["duplicate-module"]


def test_wellformed_require_typed_in_untyped_module():
    _, diags = parse_program("(module a 1)\n"
                             "(module main (require/typed a Int) 5)")
    assert any(d.kind == "require-kind-mismatch" for d in diags)


def test_core_forms_in_an_untyped_body_are_type_errors():
    # The reader rejects them in text, so the bodies are built through the
    # API.  Each body reports its first core form in pre-order, as a typed
    # body would.
    t = parse_ok("(module t (-> Int Int) (λ (x : Int) x)) (module main 1)").modules[0]
    for body, span in (("(let [x 1] (let [y x] y))", (0, 25)),
                       ("((mon (main t) int? t) 1)", (1, 22)),
                       ("((mon (main t) int? 1) (let [x 1] x))", (1, 22)),
                       ("(if (let [x #t] x) (mon (main t) int? 1) 2)", (4, 18)),
                       ("(λ (y) ((let [x y] x) (mon (main t) int? y)))", (8, 21))):
        main = Module("main", None, [Require("t")], parse_expr(body))
        assert _diag_record(check_wellformed(Program([t, main]))) == [
            ("type-error", "core-language form in a surface program", span)], body


def test_untyped_body_may_shadow_required_name():
    p, _ = parse_program("(module a 1)\n"
                         "(module main (require a) ((λ (a) a) 2))")
    assert not check_wellformed(p)


def test_roundtrip_on_generated_programs():
    for seed in range(150):
        p = gen_program(GenConfig(seed=seed))
        text = format_program(p)
        again, diags = parse_program(text)
        assert not diags and again == p, f"seed {seed}"


def test_generated_programs_are_wellformed():
    for seed in range(150):
        p = gen_program(GenConfig(seed=seed))
        assert not check_wellformed(p), f"seed {seed}"


def test_prefix_monotonicity():
    # Every prefix of a well-formed program is well-formed, once prefixes
    # are excused from needing a main module.
    from gtlc.syntax import Program
    for seed in range(60):
        p = gen_program(GenConfig(seed=seed))
        assert not check_wellformed(p)
        for k in range(len(p.modules)):
            diags = check_wellformed(Program(p.modules[:k]))
            assert all(d.kind == "main-missing" for d in diags), (seed, k)


# ---------------------------------------------------------------------------
# Reader parity: diagnostics and trees over seeded mutations
# ---------------------------------------------------------------------------

# Characters a mutation may insert or substitute: the language's own
# punctuation and atoms, characters it rejects, non-ASCII and whitespace.
_MUTATION_CHARS = "()[]()[] ;\n-0123456789#tfλx:>/?!_@{}'\"é\t\x00 "
_BRACKET_SWAP = {"(": "[", "[": "(", ")": "]", "]": ")"}


def _mutations(text, rng, count):
    """`count` seeded single-edit variants of `text`: truncations,
    substitutions, insertions, deletions and bracket swaps."""
    out = []
    brackets = [i for i, c in enumerate(text) if c in _BRACKET_SWAP]
    for k in range(count):
        i = rng.randrange(len(text) + 1)
        j = min(i, len(text) - 1)
        c = rng.choice(_MUTATION_CHARS)
        kind = k % 5
        if kind == 0:
            out.append(text[:i])
        elif kind == 1:
            out.append(text[:j] + c + text[j + 1:])
        elif kind == 2:
            out.append(text[:i] + c + text[i:])
        elif kind == 3:
            out.append(text[:j] + text[j + 1:])
        elif brackets:
            b = rng.choice(brackets)
            out.append(text[:b] + _BRACKET_SWAP[text[b]] + text[b + 1:])
    return out


def _expr_spans(e):
    """(type name, span) of every node under `e`, in pre-order."""
    found, stack = [], [e]
    while stack:
        e = stack.pop()
        found.append((type(e).__name__, e.span))
        for attr in ("body", "rhs", "orelse", "then", "test", "arg", "fn"):
            child = getattr(e, attr, None)
            if child is not None:
                stack.append(child)
    return found


def _program_record(program):
    return (format_program(program),
            [(m.span, [r.span for r in m.requires], _expr_spans(m.body))
             for m in program.modules])


def _diag_record(diags):
    return [(d.kind, d.message, d.span) for d in diags]


# Forms generated programs never contain: every require form in both kinds
# of module, core forms in source, comments, square brackets and keywords.
_HAND_WRITTEN = [
    "; lead\n(module a 1)\n(module t (-> Int Int) (require/typed a Int)"
    " (opaque-require a Int) (require a) (λ (x : Int) x)) ; trail\n"
    "(module main (require/typed a Int) (opaque-require a (-> Int Bool))"
    " (opaque-require t) (require t) ((lambda (y) (if (int? y) y #f)) (t -5)))",
    "(module main (let [x 1] (mon (a b) int? (blame a b))))\n(module m Int)\n(module)",
    "(module t Bool (bool? opaque))\n[module main [require t] [t [λ (_) 0]]]",
    "(module m (-> Int) 1) (module Int 1) (module n (require 5) (-> Int Int) #t)",
]


def _parity_texts():
    rng = random.Random(2024)
    bases = [f.read_text(encoding="utf-8")
             for f in sorted(corpus_dir().glob("*/*.gtl"))] + _HAND_WRITTEN
    bases += [format_program(gen_program(GenConfig(seed=s))) for s in range(40)]
    bases += [format_program(gen_program(GenConfig(seed=s, typed_fraction=1.0)))
              for s in range(40, 60)]
    texts = list(bases)
    for text in bases:
        texts += _mutations(text, rng, 30)
    return texts


def _core_texts():
    rng = random.Random(2025)
    bases = [ID_BOUNDARY_CORE, ID_BOUNDARY_SLICE_U1_CORE, ID_BOUNDARY_OPTIMIZED_CORE]
    bases += [format_expr(erase(compile_program(gen_program(GenConfig(seed=s))).root))
              for s in range(30)]
    bases += ["(blame a b)", "(let [x (mon (a b) (-> any/c bool?) y)] (x 1)) 2"]
    texts = list(bases)
    for text in bases:
        texts += _mutations(text, rng, 20)
    return texts


# sha256 over the parse outcome of every text of `_parity_texts` (2,356
# texts: diagnostics as (kind, message, span), and for a program its printed
# form and the span of every module, require and expression node) and of
# `parse_expr` over every text of `_core_texts` (735 texts).
GOLDEN_READER_DIGEST = "606292992260f9a796b430d9eef75e1ccb2b422a3f149b415abbe4ac35c22b94"


def test_reader_matches_golden_digest():
    h = hashlib.sha256()
    texts = _parity_texts()
    for text in texts:
        program, diags = parse_program(text)
        record = (_diag_record(diags),
                  None if program is None else _program_record(program))
        h.update(repr(record).encode())
    core = _core_texts()
    for text in core:
        try:
            e = frontend.parse_expr(text)
        except frontend.ParseError as err:
            record = _diag_record([err.diagnostic])
        else:
            record = (format_expr(e), _expr_spans(e))
        h.update(repr(record).encode())
    assert (len(texts), len(core)) == (2_356, 735)
    assert h.hexdigest() == GOLDEN_READER_DIGEST


def _flip_texts():
    """Typed programs with one `Int` or `Bool` token flipped: ten seeded
    flips of each base that has such a token (48 of the 60)."""
    rng = random.Random(2026)
    texts = []
    for s in range(60):
        base = format_program(gen_program(GenConfig(seed=s, typed_fraction=1.0)))
        tokens = [m.span() for m in re.finditer(r"\b(Int|Bool)\b", base)]
        for _ in range(10 if tokens else 0):
            i, j = rng.choice(tokens)
            texts.append(base[:i] + ("Bool" if base[i:j] == "Int" else "Int") + base[j:])
    return texts


# sha256 over the diagnostics, as (kind, message, span), that
# `parse_program` plus `check_wellformed` give every text of `_parity_texts`
# that parses (483 of 2,356) and every text of `_flip_texts` (480).  The
# parity texts give only 3 type errors, so the flips are what reach the
# typechecker.  Recorded before requires were resolved by one function and
# untyped bodies scoped by one iterative walk, and unchanged by that rewrite.
GOLDEN_WF_DIGEST = "21a32f612312d3244910f106e7c9bd0f8b965e381c5335e0ce3fed0ab7315abe"


def test_wellformedness_matches_golden_digest():
    h = hashlib.sha256()
    parsed = 0
    for text in _parity_texts():
        program, diags = parse_program(text)
        if program is not None:
            parsed += 1
            h.update(repr(_diag_record(diags + check_wellformed(program))).encode())
    flips = _flip_texts()
    type_errors = 0
    for text in flips:
        program, diags = parse_program(text)
        assert program is not None, text
        diags = diags + check_wellformed(program)
        type_errors += sum(d.kind == "type-error" for d in diags)
        h.update(repr(_diag_record(diags)).encode())
    assert (parsed, len(flips), type_errors) == (483, 480, 896)
    assert h.hexdigest() == GOLDEN_WF_DIGEST


def _spans_inside(diags, text):
    return all(0 <= d.span[0] <= d.span[1] <= len(text) for d in diags)


def test_reader_fuzz_gives_a_program_or_diagnostics():
    rng = random.Random(31)
    corpus = [f.read_text(encoding="utf-8") for f in sorted(corpus_dir().glob("*/*.gtl"))]
    texts = []
    for k in range(1_500):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(80)))
        texts.append(raw.decode("utf-8", errors="replace") if k % 2 else raw.decode("latin-1"))
        texts.append("".join(rng.choice(_MUTATION_CHARS) for _ in range(rng.randrange(80))))
    for text in corpus:
        texts += [text[:rng.randrange(len(text) + 1)] for _ in range(40)]
    for text in texts:
        program, diags = parse_program(text)
        assert program is not None or diags, repr(text)
        assert _spans_inside(diags, text), repr(text)
        try:
            frontend.parse_expr(text)
        except frontend.ParseError as err:
            assert _spans_inside([err.diagnostic], text), repr(text)


# Python 3.11 and later refuse to convert integer strings longer than this.
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digit_limit = pytest.mark.skipif(
    not _INT_DIGITS, reason="this interpreter converts integers of any length")


@needs_int_digit_limit
def test_overlong_integer_literal_is_a_parse_diagnostic():
    digits = "9" * max(5_000, _INT_DIGITS + 1)
    program, diags = parse_program(f"(module main {digits})")
    assert program is None
    assert [(d.kind, d.span) for d in diags] == [("parse", (13, 13 + len(digits)))]
    with pytest.raises(frontend.ParseError) as err:
        frontend.parse_expr(f"(f -{digits})")
    assert err.value.diagnostic.span == (3, 4 + len(digits))
