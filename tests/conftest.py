from typing import get_args

import pytest

from gtlc import analysis, frontend, interp, optimize
from gtlc.bench import answers_agree, corpus_dir
from gtlc.syntax import (
    ANY_C, App, ArrowC, BOOL_C, BoolLit, INT_C, IntLit, Expr, If, Lam, Let, Mon,
    Module, Opaque, Prim, Program, Require, TArrow, TBool, TInt, Var, module_scope,
)
from gtlc.translate import compile_program

# The four-module boundary program used throughout: a typed identity, a
# client that uses it correctly, one that does not, and an entry point.
ID_BOUNDARY = """\
(module t1 (-> Int Int) (λ (x : Int) x))
(module u1 (require t1) (t1 5))
(module u2 (require t1) (λ (_) (t1 #f)))
(module main (require u2) (u2 #f))
"""

# Its compilation into the contract core.
ID_BOUNDARY_CORE = """\
(let [t1 (λ (x) x)]
  (let [u1 (let [t1 (mon (t1 u1) (-> int? int?) t1)] (t1 5))]
    (let [u2 (let [t1 (mon (t1 u2) (-> int? int?) t1)] (λ (_) (t1 #f)))]
      (let [main (u2 #f)]
        main))))
"""

# The same program after one module body is kept and the rest are opaque.
ID_BOUNDARY_SLICE_U1 = """\
(module t1 (-> Int Int) opaque)
(module u1 (require t1) (t1 5))
(module u2 (require t1) opaque)
(module main (require u2) opaque)
"""

ID_BOUNDARY_SLICE_U1_CORE = """\
(let [t1 opaque]
  (let [u1 (let [t1 (mon (t1 u1) (-> int? int?) t1)] (t1 5))]
    (let [u2 (let [t1 (mon (t1 u2) (-> int? int?) t1)] opaque)]
      (let [main opaque]
        main))))
"""

# What the optimizer must produce from ID_BOUNDARY: the t1/u1 boundary is
# erased entirely, and u2's boundary keeps only the domain obligation.
ID_BOUNDARY_OPTIMIZED_CORE = """\
(let [t1 (λ (x) x)]
  (let [u1 (t1 5)]
    (let [u2 (let [t1 (mon (t1 u2) (-> int? any/c) t1)] (λ (_) (t1 #f)))]
      (let [main (u2 #f)]
        main))))
"""

# Holes in typed and untyped bodies, under lambdas or not, with requires
# or without.
HOLES_UNDER_LAMBDAS = """\
(module n Int 1)
(module e Int opaque)
(module t (-> Int (-> Bool Int)) (require n)
  (λ (x : Int) (λ (y : Bool) (if y opaque (opaque x)))))
(module u (require n) (require t) (λ (a) ((λ (b) (opaque b)) a)))
(module h (require n) opaque)
(module main (require u) u)
"""

OPAQUE_UNDER_LAMBDA = """\
(module t (-> Int Int) (λ (x : Int) x))
(module u (require t) ((λ (_) opaque) 0))
(module main (require u) u)
"""


# A typed program whose bodies have holes under lambdas and lets, built
# through the API, so every hole is unscoped.
HOLES_UNDER_BINDERS = Program([
    Module("t", TArrow(TInt(), TInt()), [],
           Lam("x", TInt(), Let("y", Opaque(),
                                App(Lam("z", TBool(), Opaque()), Var("x"))))),
    Module("u", None, [Require("t")],
           Let("f", Lam("a", None, Opaque()), App(Var("f"), Opaque()))),
    Module("main", TInt(), [Require("t"), Require("u", ann=TInt())],
           If(Opaque(), App(Var("t"), Let("t", Opaque(), Var("t"))), Var("u"))),
])


# A module that requires the same module twice: the second require's let
# rebinds the name the first one bound.
REQUIRES_TWICE = """\
(module t (-> Int Int) (λ (x : Int) x))
(module u (require t) (require t) ((λ (_) opaque) (t #f)))
(module main (require u) u)
"""

# Typed x re-exports typed t to untyped u.
TYPED_REEXPORT = """\
(module t (-> Int Int) (λ (n : Int) n))
(module x (-> Int Int) (require t) t)
(module u (require x) (x 5))
(module main (require u) u)
"""

# x passes typed t unknown code, which t returns to x.
OWN_HOLE_ARGUMENT = """\
(module t (-> Int Int) (λ (n : Int) n))
(module x Int (require t) (t opaque))
(module main (require x) x)
"""

# Typed modules that require typed modules: one twice, one opaquely, and
# both before and after an untyped module.
TYPED_NEIGHBOURS = """\
(module t (-> Int Int) (λ (n : Int) n))
(module o (-> Int Int) (λ (n : Int) opaque))
(module x (-> Int Int) (require t) (require t) (opaque-require o)
  (λ (n : Int) (t (o n))))
(module u (require x) (x 5))
(module y Int (require x) (require t) (x (t 1)))
(module main (require u) (require y) u)
"""

EXPR_TYPES = get_args(Expr)


def expr_nodes(e):
    """Every expression node of `e`, in pre-order."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack += reversed([v for v in vars(e).values() if type(v) in EXPR_TYPES])


def structurally_equal(a: Expr, b: Expr) -> bool:
    """Alpha-equivalence: identical trees up to consistent renaming of
    lambda- and let-bound identifiers.  Parties, contracts, literals and
    lambda annotations must match exactly."""
    return _alpha(a, b, {}, {}, 0)


def _alpha(a: Expr, b: Expr, ea: dict[str, int], eb: dict[str, int], depth: int) -> bool:
    if type(a) is not type(b):
        return False
    match a:
        case Var(name):
            # Both bound at the same binder depth, or both free with the same name.
            ia, ib = ea.get(name), eb.get(b.name)
            if ia is None and ib is None:
                return name == b.name
            return ia == ib
        case IntLit(v):
            return v == b.value
        case BoolLit(v):
            return v == b.value
        case Prim(op):
            return op == b.op
        case App(fn, arg):
            return _alpha(fn, b.fn, ea, eb, depth) and _alpha(arg, b.arg, ea, eb, depth)
        case If(t, th, el):
            return (_alpha(t, b.test, ea, eb, depth)
                    and _alpha(th, b.then, ea, eb, depth)
                    and _alpha(el, b.orelse, ea, eb, depth))
        case Lam(param, ann, body):
            if ann != b.ann:
                return False
            return _alpha(body, b.body,
                          {**ea, param: depth}, {**eb, b.param: depth}, depth + 1)
        case Opaque():
            return True
        case Let(name, rhs, body):
            if not _alpha(rhs, b.rhs, ea, eb, depth):
                return False
            return _alpha(body, b.body,
                          {**ea, name: depth}, {**eb, b.name: depth}, depth + 1)
        case Mon(pos, neg, contract, body):
            return (pos == b.pos and neg == b.neg and contract == b.contract
                    and _alpha(body, b.body, ea, eb, depth))
    raise TypeError(f"not an expression: {a!r}")


def run_differential(program: Program, fuel: int = 1_000_000,
                     budget: int = analysis.DEFAULT_BUDGET) -> dict:
    """Evaluate a program unoptimized and optimized and compare.  When one
    side runs out of fuel, both are retried with a hundredfold budget before
    the outcomes are compared."""
    original = compile_program(program)
    optimized, report = optimize.optimize_program(program, budget=budget)
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


def full_slice(p: Program, x: str) -> Program:
    """`x`'s slice of `p` with every module and every require kept: x's
    body as written, unless some module imports x opaquely, and every other
    body an opaque term scoped to what its module requires.  Compiled, it
    has every boundary monitor of `p`; `optimize.slice_for_module` keeps
    only x and the modules x shares a require with, and only the monitors
    that have x as a party."""
    marked = {r.target for m in p.modules for r in m.requires if r.opaque}
    return Program([
        m if m.name == x and x not in marked
        else Module(m.name, m.ty, m.requires, Opaque(module_scope(m.requires)), span=m.span)
        for m in p.modules])


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


def parse_ok(text):
    program, diags = frontend.parse_program(text)
    assert program is not None and not diags, diags
    wf = frontend.check_wellformed(program)
    assert not wf, wf
    return program


def contracts_up_to(height):
    """Every contract of height at most `height`, each once (leaves count
    as height 1)."""
    out = [ANY_C, INT_C, BOOL_C]
    for _ in range(height - 1):
        out = [ANY_C, INT_C, BOOL_C] + [ArrowC(d, r) for d in out for r in out]
    return out


@pytest.fixture(scope="session")
def id_boundary():
    return parse_ok(ID_BOUNDARY)


@pytest.fixture(scope="session")
def corpus_path():
    path = corpus_dir()
    assert path.is_dir()
    return path
