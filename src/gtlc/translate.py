"""Compilation of module programs into the contract core.

Each module becomes one `let` binding, nested in program order, with the
variable `main` as the innermost body.  Within a module's right-hand side,
every import that crosses a typed/untyped boundary introduces an inner
`let` that rebinds the imported name to a monitored version; imports on the
same side of the boundary introduce no binding at all.  The module that
defines a monitored value is the positive party of its contract and the
importing module is the negative party.
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


def _module_rhs(m: Module, prior: dict[str, Module]) -> Expr:
    """The right-hand side for module `m`: its erased body wrapped in one
    inner let per monitored require, in require order (first require
    outermost), the let and its monitor carrying the require's span.
    `prior` maps the names of the modules before `m`.  These leading lets
    are the only place a compiled program has monitors, which `narrow_to`
    relies on."""
    rhs = erase(m.body, frozenset(r.target for r in m.requires))
    for r in reversed(m.requires):
        target = prior.get(r.target)
        if target is None:
            raise ValueError(f"require of unknown module {r.target!r}")
        if m.typed:
            monitored = r.ann is not None  # annotated import of an untyped module
            contract = compile_type(r.ann) if monitored else None
        else:
            monitored = target.typed  # plain import of a typed module
            contract = compile_type(target.ty) if monitored else None
        if monitored:
            rhs = Let(r.target,
                      Mon(r.target, m.name, contract, Var(r.target), span=r.span),
                      rhs, span=r.span)
    return rhs


def narrow_to(root: Expr, party: str) -> Expr:
    """`root` without the monitors that do not have `party` as a party,
    each together with the self-aliasing let it sits in, as `normalize`
    collapses a monitor made trivial.

    In a compiled program of a well-formed source program every monitor
    sits in a require let, and those lead each module's right-hand side
    (`_module_rhs`), which is itself the right-hand side of a let on the
    module spine that ends in `main`: source bodies hold no `let` or `mon`.
    So the walk visits only the spine and the leading lets of each
    right-hand side, and shares every subtree it leaves as it was.  On any
    other tree, the monitors it does not reach stay in place."""
    spine = []
    e = root
    while type(e) is Let:
        spine.append(e)
        e = e.body
    for m in reversed(spine):
        rhs = _narrow_requires(m.rhs, party)
        e = m if rhs is m.rhs and e is m.body else Let(m.name, rhs, e)
    return e


def _narrow_requires(rhs: Expr, party: str) -> Expr:
    """`rhs` without its leading require lets, `(let [t (mon (t m) c t)]
    ...)`, whose monitor is not on a boundary of `party`."""
    lets = []
    e = rhs
    while (type(e) is Let and type(e.rhs) is Mon and e.rhs.pos == e.name
           and type(e.rhs.body) is Var and e.rhs.body.name == e.name):
        lets.append(e)
        e = e.body
    for let in reversed(lets):
        if party in (let.rhs.pos, let.rhs.neg):
            e = let if e is let.body else Let(let.name, let.rhs, e, span=let.span)
    return e


def compile_program(p: Program) -> CompiledProgram:
    """Compile a well-formed program.  Evaluation order of module right-hand
    sides is program order, forced by the let nesting."""
    prior: dict[str, Module] = {}
    rhss = []
    for m in p.modules:
        rhss.append(_module_rhs(m, prior))
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
