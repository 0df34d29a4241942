"""Compilation of module programs into the contract core.

Each module becomes one `let` binding, nested in program order, with the
variable `main` as the innermost body.  Every module body, typed or
untyped, enters the core as written: the tree shares its nodes with the
program, and no pass reads the lambda annotations a typed body keeps, so
types matter only as the contracts at the boundaries (`erase` strips the
annotations, for printing core text).  Within a module's right-hand side,
every import that crosses a typed/untyped boundary introduces an inner
`let` that rebinds the imported name to a monitored version; imports on the
same side of the boundary introduce no binding at all.  The module that
defines a monitored value is the positive party of its contract and the
importing module is the negative party.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .syntax import (
    ANY_C, ArrowC, App, BoolLit, BOOL_C, Contract, Expr, If, IntLit, INT_C,
    Lam, Let, Mon, Module, Opaque, Prim, Program, Require, TArrow, TBool,
    TInt, Ty, Var, subterms,
)

# The contract a monitor gets, given its parties and its compiled contract.
Final = Callable[[str, str, Contract], Contract]

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


def erase(e: Expr) -> Expr:
    """`e` with its lambda annotations stripped: the tree core text
    (`format_expr`) can print.  Every node keeps its span, and a leaf, an
    opaque term among them, maps to itself."""
    match e:
        case Lam(param, _, body):
            return Lam(param, None, erase(body), span=e.span)
        case App(fn, arg):
            return App(erase(fn), erase(arg), span=e.span)
        case If(test, then, orelse):
            return If(erase(test), erase(then), erase(orelse), span=e.span)
        case Let(name, rhs, body):
            return Let(name, erase(rhs), erase(body), span=e.span)
        case Mon(pos, neg, contract, body):
            return Mon(pos, neg, contract, erase(body), span=e.span)
        case Var(_) | IntLit(_) | BoolLit(_) | Prim(_) | Opaque():
            return e
    raise TypeError(f"not an expression: {e!r}")


def boundaries(p: Program) -> Iterator[tuple[Module, list[tuple[Require, Ty]]]]:
    """Each module of `p` in program order, with the requires it monitors,
    in require order, each with the type its monitor's contract is compiled
    from (`compile_type`).  A require is monitored when it crosses a
    typed/untyped boundary: a typed module monitors its annotated imports
    of untyped modules, and an untyped module its imports of typed modules.
    The required module is the positive party and the requiring module the
    negative one."""
    prior: dict[str, Module] = {}
    for m in p.modules:
        monitored = []
        for r in m.requires:
            target = prior.get(r.target)
            if target is None:
                raise ValueError(f"require of unknown module {r.target!r}")
            ty = r.ann if m.typed else target.ty
            if ty is not None:
                monitored.append((r, ty))
        yield m, monitored
        prior[m.name] = m


def _module_rhs(m: Module, monitored: list[tuple[Require, Ty]],
                final: "Final | None") -> Expr:
    """The right-hand side for module `m`: its body, wrapped in one inner
    let per monitored require (`boundaries`), in require order (first
    require outermost), the let and its monitor carrying the require's
    span.  With `final`, each monitor gets the contract
    `final(pos, neg, contract)` returns, and one given `any/c` is left out
    with its let."""
    kept = []
    for r, ty in monitored:
        contract = compile_type(ty)
        if final is not None:
            contract = final(r.target, m.name, contract)
        if contract != ANY_C:
            kept.append((r, contract))
    rhs = m.body
    for r, contract in reversed(kept):
        rhs = Let(r.target,
                  Mon(r.target, m.name, contract, Var(r.target), span=r.span),
                  rhs, span=r.span)
    return rhs


def compile_program(p: Program, final: "Final | None" = None) -> CompiledProgram:
    """Compile a well-formed program.  Evaluation order of module right-hand
    sides is program order, forced by the let nesting.  Only the module
    spine is built; the bodies are shared with `p` (see above), so no pass
    may mutate a node it did not build.  `final`, when given, decides each monitor's
    contract as `_module_rhs` makes it.  It is called once per monitored
    require, in the `scan_boundaries` order of the program compiled without
    it; the optimizer eliminates contracts this way, passing what is left
    once the proven obligations are dropped."""
    rhss = [_module_rhs(m, monitored, final) for m, monitored in boundaries(p)]
    root: Expr = Var("main")
    for m, rhs in zip(reversed(p.modules), reversed(rhss)):
        root = Let(m.name, rhs, root)
    return CompiledProgram(root)


def scan_boundaries(root: Expr) -> list[Mon]:
    """Every monitor in a compiled program, each marking a require boundary,
    in pre-order: the order `compile_program` makes them in."""
    return [e for e in subterms(root) if type(e) is Mon]
