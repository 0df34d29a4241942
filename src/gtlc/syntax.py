"""Syntax trees for the surface language and the contract core.

The surface language is a sequence of modules, each either typed (carrying a
type annotation) or untyped.  The contract core is a plain lambda calculus
extended with `let`, contract monitors carrying a positive and a negative
party, blame terminals, and an opaque term standing for unknown code.  Both
languages share one expression node family; which constructors are legal
where is enforced by the frontend.

All nodes are immutable after construction and safe to share across threads.
Types and contracts are interned (hash-consed) in one table shared by every
thread, so equal values are one object and `==` and `hash` are identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Union

# Byte-offset half-open interval into the source text.
Span = tuple[int, int]


# ---------------------------------------------------------------------------
# Types and contracts
# ---------------------------------------------------------------------------

_INTERNED: dict[tuple, "_Interned"] = {}


class _Interned:
    """A constructor call returns the object `_INTERNED` holds for its class
    and fields, if any.  Fields are set before an object is published, and
    `setdefault` makes racing threads agree on one object."""

    def __new__(cls, *fields):
        key = (cls, *fields)
        self = _INTERNED.get(key)
        if self is None:
            self = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields, strict=True):
                object.__setattr__(self, name, value)
            self = _INTERNED.setdefault(key, self)
        return self

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor.
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)


@dataclass(frozen=True, eq=False, init=False)
class TInt(_Interned):
    def __str__(self) -> str:
        return "Int"


@dataclass(frozen=True, eq=False, init=False)
class TBool(_Interned):
    def __str__(self) -> str:
        return "Bool"


@dataclass(frozen=True, eq=False, init=False)
class TArrow(_Interned):
    dom: "Ty"
    cod: "Ty"

    def __str__(self) -> str:
        return f"(-> {self.dom} {self.cod})"


Ty = Union[TInt, TBool, TArrow]

T_INT = TInt()
T_BOOL = TBool()


@dataclass(frozen=True, eq=False, init=False)
class IntC(_Interned):
    def __str__(self) -> str:
        return "int?"


@dataclass(frozen=True, eq=False, init=False)
class BoolC(_Interned):
    def __str__(self) -> str:
        return "bool?"


@dataclass(frozen=True, eq=False, init=False)
class AnyC(_Interned):
    def __str__(self) -> str:
        return "any/c"


@dataclass(frozen=True, eq=False, init=False)
class ArrowC(_Interned):
    dom: "Contract"
    cod: "Contract"

    def __str__(self) -> str:
        return f"(-> {self.dom} {self.cod})"


Contract = Union[IntC, BoolC, AnyC, ArrowC]

INT_C = IntC()
BOOL_C = BoolC()
ANY_C = AnyC()


class Polarity(Enum):
    POS = "+"
    NEG = "-"


def flip(s: Polarity) -> Polarity:
    """Swap the side of a contract obligation; an involution."""
    return Polarity.NEG if s is Polarity.POS else Polarity.POS


class BlameLabel(NamedTuple):
    """`blamed` broke a contract it had with `holder`."""

    blamed: str
    holder: str


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def _span_field():
    return field(default=None, compare=False, repr=False)


@dataclass
class Var:
    name: str
    span: Optional[Span] = _span_field()


@dataclass
class IntLit:
    value: int
    span: Optional[Span] = _span_field()


@dataclass
class BoolLit:
    value: bool
    span: Optional[Span] = _span_field()


@dataclass
class Prim:
    op: str  # "int?" or "bool?"
    span: Optional[Span] = _span_field()


@dataclass
class App:
    fn: "Expr"
    arg: "Expr"
    span: Optional[Span] = _span_field()


@dataclass
class If:
    test: "Expr"
    then: "Expr"
    orelse: "Expr"
    span: Optional[Span] = _span_field()


@dataclass
class Lam:
    param: str
    ann: Optional[Ty]  # annotated in typed module bodies, None in untyped
    body: "Expr"
    span: Optional[Span] = _span_field()


@dataclass
class Opaque:
    # Names an instantiation of this hole may reference (the enclosing
    # module's requires plus local binders); None means unrestricted.
    # Not part of structural equality.
    allowed: Optional[frozenset[str]] = field(default=None, compare=False, repr=False)
    span: Optional[Span] = _span_field()


@dataclass
class Let:
    """Sugar for immediate application of a lambda; kept for readable output."""

    name: str
    rhs: "Expr"
    body: "Expr"
    span: Optional[Span] = _span_field()


@dataclass
class Mon:
    """Monitor `body` with `contract`; `pos` answers for the value, `neg` for its context."""

    pos: str
    neg: str
    contract: Contract
    body: "Expr"
    span: Optional[Span] = _span_field()


@dataclass
class Blame:
    label: BlameLabel
    span: Optional[Span] = _span_field()


Expr = Union[Var, IntLit, BoolLit, Prim, App, If, Lam, Opaque, Let, Mon, Blame]


# ---------------------------------------------------------------------------
# Modules and programs
# ---------------------------------------------------------------------------

@dataclass
class Require:
    """An import of `target`.  `ann` is set for annotated imports (a typed
    module importing an untyped one).  `opaque` marks the target as code the
    verifier must never look inside."""

    target: str
    ann: Optional[Ty] = None
    opaque: bool = False
    span: Optional[Span] = _span_field()


@dataclass
class Module:
    name: str
    ty: Optional[Ty]  # annotation of a typed module, None for untyped
    requires: list[Require]
    body: Expr
    span: Optional[Span] = _span_field()

    @property
    def typed(self) -> bool:
        return self.ty is not None


@dataclass
class Program:
    modules: list[Module]

    def module_named(self, name: str) -> Optional[Module]:
        for m in self.modules:
            if m.name == name:
                return m
        return None

    def names(self) -> list[str]:
        return [m.name for m in self.modules]


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

def free_vars(e: Expr) -> frozenset[str]:
    match e:
        case Var(name):
            return frozenset((name,))
        case App(fn, arg):
            return free_vars(fn) | free_vars(arg)
        case If(test, then, orelse):
            return free_vars(test) | free_vars(then) | free_vars(orelse)
        case Lam(param, _, body):
            return free_vars(body) - {param}
        case Let(name, rhs, body):
            return free_vars(rhs) | (free_vars(body) - {name})
        case Mon(_, _, _, body):
            return free_vars(body)
        case _:
            return frozenset()


def structurally_equal(a: Expr, b: Expr) -> bool:
    """Alpha-equivalence: identical trees up to consistent renaming of
    lambda- and let-bound identifiers.  Parties, contracts and literals
    must match exactly."""
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
        case Blame(label):
            return label == b.label
    raise TypeError(f"not an expression: {a!r}")


# ---------------------------------------------------------------------------
# Pretty-printing (re-parseable concrete syntax)
# ---------------------------------------------------------------------------

def format_ty(t: Ty) -> str:
    return str(t)


def format_contract(c: Contract) -> str:
    return str(c)


def format_expr(e: Expr) -> str:
    match e:
        case Var(name):
            return name
        case IntLit(v):
            return str(v)
        case BoolLit(v):
            return "#t" if v else "#f"
        case Prim(op):
            return op
        case App(fn, arg):
            return f"({format_expr(fn)} {format_expr(arg)})"
        case If(t, th, el):
            return f"(if {format_expr(t)} {format_expr(th)} {format_expr(el)})"
        case Lam(param, None, body):
            return f"(λ ({param}) {format_expr(body)})"
        case Lam(param, ann, body):
            return f"(λ ({param} : {format_ty(ann)}) {format_expr(body)})"
        case Opaque():
            return "opaque"
        case Let(name, rhs, body):
            return f"(let [{name} {format_expr(rhs)}] {format_expr(body)})"
        case Mon(pos, neg, contract, body):
            return f"(mon ({pos} {neg}) {format_contract(contract)} {format_expr(body)})"
        case Blame(label):
            return f"(blame {label.blamed} {label.holder})"
    raise TypeError(f"not an expression: {e!r}")


def format_require(r: Require) -> str:
    if r.opaque:
        if r.ann is not None:
            return f"(opaque-require {r.target} {format_ty(r.ann)})"
        return f"(opaque-require {r.target})"
    if r.ann is not None:
        return f"(require/typed {r.target} {format_ty(r.ann)})"
    return f"(require {r.target})"


def format_module(m: Module) -> str:
    parts = ["module", m.name]
    if m.ty is not None:
        parts.append(format_ty(m.ty))
    parts.extend(format_require(r) for r in m.requires)
    parts.append(format_expr(m.body))
    return "(" + " ".join(parts) + ")"


def format_program(p: Program) -> str:
    return "\n".join(format_module(m) for m in p.modules) + "\n"
