import copy
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from gtlc.frontend import parse_expr, parse_program
from gtlc.optimize import copt
from gtlc.syntax import (
    ANY_C, App, ArrowC, BOOL_C, BlameLabel, BoolLit, INT_C, IntLit, Lam, Let,
    Mon, Opaque, Polarity, Prim, T_BOOL, T_INT, TArrow, TInt, Var, flip,
    format_expr, structurally_equal,
)


def test_flip():
    assert flip(Polarity.POS) is Polarity.NEG
    assert flip(Polarity.NEG) is Polarity.POS


def test_flip_involution():
    for s in Polarity:
        assert flip(flip(s)) is s


def test_alpha_identity_lambdas():
    assert structurally_equal(parse_expr("(λ (x) x)"), parse_expr("(λ (y) y)"))


def test_alpha_distinct_constructors():
    assert not structurally_equal(Prim("int?"), Prim("bool?"))
    assert not structurally_equal(IntLit(1), BoolLit(True))


def test_alpha_party_mismatch():
    a = Mon("t1", "u1", INT_C, IntLit(5))
    b = Mon("t1", "u2", INT_C, IntLit(5))
    assert not structurally_equal(a, b)
    assert structurally_equal(a, Mon("t1", "u1", INT_C, IntLit(5)))


def test_alpha_let_vs_lambda_not_confused():
    assert not structurally_equal(parse_expr("(let [x 1] x)"),
                                  parse_expr("((λ (x) x) 1)"))


def test_alpha_free_variables_by_name():
    assert structurally_equal(Var("a"), Var("a"))
    assert not structurally_equal(Var("a"), Var("b"))


def test_alpha_shadowing():
    a = parse_expr("(λ (x) (λ (x) (λ (z) (x z))))")
    b = parse_expr("(λ (p) (λ (q) (λ (r) (q r))))")
    c = parse_expr("(λ (p) (λ (q) (λ (r) (r r))))")
    assert structurally_equal(a, b)
    assert not structurally_equal(a, c)


def test_every_constructor_roundtrips():
    samples = [
        Var("x"),
        IntLit(-42),
        BoolLit(True),
        BoolLit(False),
        Prim("int?"),
        Prim("bool?"),
        Opaque(),
        App(Var("f"), IntLit(1)),
        Lam("x", None, Var("x")),
        Let("x", IntLit(5), Var("x")),
        Mon("a", "b", ArrowC(INT_C, ANY_C), Var("a")),
        parse_expr("(blame u2 t1)"),
        parse_expr("(if (int? x) 1 2)"),
    ]
    for e in samples:
        again = parse_expr(format_expr(e))
        assert again == e, format_expr(e)


def test_blame_label_fields():
    label = BlameLabel("u2", "t1")
    assert label.blamed == "u2" and label.holder == "t1"


def test_types_and_contracts_are_interned():
    assert ArrowC(INT_C, INT_C) is ArrowC(INT_C, INT_C)
    assert TInt() is T_INT
    text = "(module t (-> Int Int) (λ (x : Int) x)) (module main 5)"
    first, second = (parse_program(text)[0].modules[0].ty for _ in range(2))
    assert first is second is TArrow(T_INT, T_INT)
    assert parse_expr("(mon (a b) (-> int? int?) a)").contract is ArrowC(INT_C, INT_C)
    assert len({hash(c) for c in (INT_C, BOOL_C, ANY_C)}) == 3
    assert copt(ArrowC(INT_C, INT_C), Polarity.POS) is ArrowC(INT_C, ANY_C)


@pytest.mark.parametrize("value", [INT_C, TArrow(T_INT, T_BOOL),
                                   ArrowC(ArrowC(INT_C, ANY_C), BOOL_C)], ids=str)
def test_copies_of_interned_values_are_the_original(value):
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert pickle.loads(pickle.dumps(value)) is value
    assert str(ArrowC(INT_C, BOOL_C)) == "(-> int? bool?)"


def test_threads_building_one_value_get_one_object():
    workers = 8
    barrier = threading.Barrier(workers)

    def build():
        barrier.wait(timeout=10)
        c, out = BOOL_C, []
        for i in range(2000):
            c = ArrowC(c, INT_C if i % 3 else ANY_C)
            out.append(c)
        return out

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(build) for _ in range(workers)]
            results = [f.result(timeout=30) for f in futures]
    finally:
        sys.setswitchinterval(old)
    for other in results[1:]:
        assert all(a is b for a, b in zip(results[0], other, strict=True))
