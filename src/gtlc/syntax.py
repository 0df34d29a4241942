"""Syntax trees for the surface language and the contract core.

The surface language is a sequence of modules, each either typed (carrying a
type annotation) or untyped.  The contract core is a plain lambda calculus
(variables, literals, primitives, application, `if` and λ) extended with
`let`, contract monitors carrying a positive and a negative party, and an
opaque term standing for unknown code.  Blame is not a term: it is what a
failed monitor check answers.  Both languages share one expression node
family; which constructors are legal where is enforced by the frontend.

Types and contracts are frozen dataclasses, immutable after construction.
Expression, module and program nodes are plain dataclasses: no pass mutates
them, so compiled trees share the parsed module bodies
(`test_no_pass_mutates_the_parsed_program` pins that).  Types and contracts
are interned (hash-consed) in one table shared by every thread, so equal
values are one object and `==` and `hash` are identity.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    # Names an instantiation of this hole may reference.  The reader gives
    # a hole in a module body its module's scope (`module_scope`) plus the
    # lambda parameters around it, and `slice_for_module` gives a module's
    # whole-body hole its module's scope.  None, as for holes built through
    # the API or read by `parse_expr`, means unrestricted: any name in
    # scope where the hole is evaluated.  Not part of structural equality.
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


Expr = Union[Var, IntLit, BoolLit, Prim, App, If, Lam, Opaque, Let, Mon]


def subterms(e: Expr) -> Iterator[Expr]:
    """`e` and every expression under it, in pre-order, children left to
    right.  The walk keeps its own stack, so nesting depth is bounded by
    memory, not by the interpreter's recursion limit."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        t = type(e)
        if t is App:
            stack += (e.arg, e.fn)
        elif t is If:
            stack += (e.orelse, e.then, e.test)
        elif t is Let:
            stack += (e.body, e.rhs)
        elif t is Lam or t is Mon:
            stack.append(e.body)


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


def module_scope(requires: list[Require]) -> frozenset[str]:
    """What unknown code in the body of a module with these requires may
    reference, besides the names bound around it: the modules it requires."""
    return frozenset(r.target for r in requires)


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
# Pretty-printing (concrete syntax; core text re-parses with `parse_expr`
# when the tree has no lambda annotations)
# ---------------------------------------------------------------------------

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
            return f"(λ ({param} : {ann}) {format_expr(body)})"
        case Opaque():
            return "opaque"
        case Let(name, rhs, body):
            return f"(let [{name} {format_expr(rhs)}] {format_expr(body)})"
        case Mon(pos, neg, contract, body):
            return f"(mon ({pos} {neg}) {contract} {format_expr(body)})"
    raise TypeError(f"not an expression: {e!r}")


def format_require(r: Require) -> str:
    if r.opaque:
        if r.ann is not None:
            return f"(opaque-require {r.target} {r.ann})"
        return f"(opaque-require {r.target})"
    if r.ann is not None:
        return f"(require/typed {r.target} {r.ann})"
    return f"(require {r.target})"


def format_module(m: Module) -> str:
    parts = ["module", m.name]
    if m.ty is not None:
        parts.append(str(m.ty))
    parts.extend(format_require(r) for r in m.requires)
    parts.append(format_expr(m.body))
    return "(" + " ".join(parts) + ")"


def format_program(p: Program) -> str:
    return "\n".join(format_module(m) for m in p.modules) + "\n"
