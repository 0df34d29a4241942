"""Compilation of module programs into the contract core.

Each module becomes one `let` binding, nested in program order, with the
variable `main` as the innermost body.  Within a module's right-hand side,
every import that crosses a typed/untyped boundary introduces an inner
`let` that rebinds the imported name to a monitored version; imports on the
same side of the boundary introduce no binding at all.  The module that
defines a monitored value is the positive party of its contract and the
importing module is the negative party.  A module's slice is compiled with
that module as its `party`, which monitors only the boundaries it is a party
of.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    ArrowC, App, Blame, BoolLit, BOOL_C, Contract, Expr, If, IntLit, INT_C,
    Lam, Let, Mon, Module, Opaque, Prim, Program, TArrow, TBool, TInt, Ty,
    Var,
)

@dataclass
class CompiledProgram:
    root: Expr

    @property
    def boundary_index(self) -> list[Mon]:
        """Every monitor of `root` (`scan_boundaries`)."""
        return scan_boundaries(self.root)


def compile_type(t: Ty) -> Contract:
    """Types map to contracts structurally; the trivial contract never
    appears in the image."""
    match t:
        case TInt():
            return INT_C
        case TBool():
            return BOOL_C
        case TArrow(dom, cod):
            return ArrowC(compile_type(dom), compile_type(cod))
    raise TypeError(f"not a type: {t!r}")


def erase(e: Expr, scope: "frozenset[str] | None" = None) -> Expr:
    """Strip lambda annotations; opaque terms map to themselves.  When
    `scope` is given, each opaque hole records the names a concrete
    instantiation of it may reference (scope plus enclosing binders), which
    the analyzer uses to bound what unknown code can reach."""
    match e:
        case Lam(param, _, body):
            inner = None if scope is None else scope | {param}
            return Lam(param, None, erase(body, inner))
        case App(fn, arg):
            return App(erase(fn, scope), erase(arg, scope))
        case If(test, then, orelse):
            return If(erase(test, scope), erase(then, scope), erase(orelse, scope))
        case Let(name, rhs, body):
            inner = None if scope is None else scope | {name}
            return Let(name, erase(rhs, scope), erase(body, inner))
        case Mon(pos, neg, contract, body):
            return Mon(pos, neg, contract, erase(body, scope))
        case Opaque():
            return Opaque(allowed=scope)
        case Var(_) | IntLit(_) | BoolLit(_) | Prim(_) | Blame(_):
            return e
    raise TypeError(f"not an expression: {e!r}")


def _module_rhs(m: Module, prior: dict[str, Module], party: str | None) -> Expr:
    """The right-hand side for module `m`: its erased body wrapped in one
    inner let per monitored require, in require order (first require
    outermost), the let and its monitor carrying the require's span.
    `prior` maps the names of the modules before `m`.  A require is
    monitored only when `party` is None or one of its two parties."""
    rhs = erase(m.body, frozenset(r.target for r in m.requires))
    for r in reversed(m.requires):
        target = prior.get(r.target)
        if target is None:
            raise ValueError(f"require of unknown module {r.target!r}")
        # A typed module monitors its annotated imports of untyped modules;
        # an untyped module monitors its imports of typed modules.
        ty = r.ann if m.typed else target.ty
        if ty is not None and party in (None, r.target, m.name):
            rhs = Let(r.target,
                      Mon(r.target, m.name, compile_type(ty), Var(r.target), span=r.span),
                      rhs, span=r.span)
    return rhs


def compile_program(p: Program, party: str | None = None) -> CompiledProgram:
    """Compile a well-formed program.  Evaluation order of module right-hand
    sides is program order, forced by the let nesting.  Given a `party`, only
    the boundaries that have it as a party are monitored."""
    prior: dict[str, Module] = {}
    rhss = []
    for m in p.modules:
        rhss.append(_module_rhs(m, prior, party))
        prior[m.name] = m
    root: Expr = Var("main")
    for m, rhs in zip(reversed(p.modules), reversed(rhss)):
        root = Let(m.name, rhs, root)
    return CompiledProgram(root)


def scan_boundaries(root: Expr) -> list[Mon]:
    """Every monitor in a compiled program, each marking a require boundary,
    in pre-order: the order the optimizer's rewrite meets them in."""
    found: list[Mon] = []
    stack = [root]
    while stack:
        e = stack.pop()
        t = type(e)
        if t is Mon:
            found.append(e)
            stack.append(e.body)
        elif t is App:
            stack += (e.arg, e.fn)
        elif t is If:
            stack += (e.orelse, e.then, e.test)
        elif t is Let:
            stack += (e.body, e.rhs)
        elif t is Lam:
            stack.append(e.body)
    return found
