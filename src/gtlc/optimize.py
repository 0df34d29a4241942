"""Verdict-driven contract elimination.

For each module X the optimizer analyzes a slice of the program in which
every other module body is replaced by an opaque term (imports marked
opaque in the source stay opaque in every slice), compiled without the
monitors that do not have X as a party.  Such a monitor can only blame
other modules, and without it a run goes on with the value unwrapped, so
the slice still reaches every label naming X.  If the slice's blame set
has no label blaming X toward some party X2, then no run of the full
program can produce that label either, and every obligation of X at the
X/X2 boundary can be dropped: flat contracts where X is the positive party
become the trivial contract, arrow contracts recur with the usual reversal
of parties in the domain, and an arrow reduced to trivial on both sides in
positive position disappears entirely.

`opt` states this rewrite for one proven pair, as the paper does.  The
whole-program pass reaches the same result in a single walk: a monitor is
touched only by the two pairs over its own parties, so each monitor's
final contract is worked out on its own, and the walk records it for the
report as it goes.

Typed modules can be trusted to be blame-free outright (`trust_typed`);
their slices are then skipped.  An analysis that hits its state cap yields
no verdicts for its module, so exhaustion can only cost optimization
opportunity, never soundness.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from .analysis import BlameSet, analyze, DEFAULT_BUDGET
from .syntax import (
    ANY_C, AnyC, ArrowC, App, BoolC, Contract, Expr, If, IntC, Lam, Let, Mon,
    Module, Opaque, Polarity, Program, Var, flip,
)
from .translate import CompiledProgram, compile_program


@dataclass
class Verdict:
    module: str
    safe_against: frozenset[str]
    exhausted: bool
    # Wall time of the module's slice analysis; 0.0 when it was skipped.
    seconds: float = field(default=0.0, compare=False)

    def as_json(self) -> dict:
        return {"module": self.module,
                "safe_against": sorted(self.safe_against),
                "exhausted": self.exhausted}


@dataclass
class Disposition:
    pos: str
    neg: str
    before: Contract
    after: Contract
    kind: str  # kept | weakened | removed

    def as_json(self) -> dict:
        return {"pos": self.pos, "neg": self.neg,
                "before": str(self.before), "after": str(self.after),
                "kind": self.kind}


@dataclass
class OptimizationReport:
    dispositions: list[Disposition]
    verdicts: list[Verdict]

    @property
    def monitors_before(self) -> int:
        return len(self.dispositions)

    @property
    def monitors_after(self) -> int:
        return sum(1 for d in self.dispositions if d.kind != "removed")

    def counts(self) -> dict:
        out = {"kept": 0, "weakened": 0, "removed": 0}
        for d in self.dispositions:
            out[d.kind] += 1
        return out

    def as_json(self) -> dict:
        return {
            "monitors_before": self.monitors_before,
            "monitors_after": self.monitors_after,
            "dispositions": [d.as_json() for d in self.dispositions],
            "verdicts": [v.as_json() for v in self.verdicts],
            **self.counts(),
        }


# ---------------------------------------------------------------------------
# Slicing
# ---------------------------------------------------------------------------

def slice_for_module(p: Program, target: str) -> Program:
    """Keep `target`'s body; replace every other body (and the body of any
    module someone imported opaquely) with an opaque term.  Annotations and
    requires are untouched, so compiled without a `party`, the slice keeps
    every boundary monitor of `p`."""
    if p.module_named(target) is None:
        raise ValueError(f"unknown module {target!r}")
    marked = {r.target for m in p.modules for r in m.requires if r.opaque}
    out = []
    for m in p.modules:
        if m.name == target and m.name not in marked:
            out.append(m)
        else:
            out.append(Module(m.name, m.ty, m.requires, Opaque(), span=m.span))
    return Program(out)


# ---------------------------------------------------------------------------
# Contract and expression rewriting
# ---------------------------------------------------------------------------

@functools.cache
def copt(c: Contract, s: Polarity) -> Contract:
    """Drop the obligations of the party on side `s`.  Flat contracts are
    positive-party obligations only; the domain of an arrow swaps sides."""
    match c:
        case AnyC():
            return ANY_C
        case IntC() | BoolC():
            return ANY_C if s is Polarity.POS else c
        case ArrowC(dom, cod):
            d, r = copt(dom, flip(s)), copt(cod, s)
            if s is Polarity.POS and d == ANY_C and r == ANY_C:
                return ANY_C
            return ArrowC(d, r)
    raise TypeError(f"not a contract: {c!r}")


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
    return _strip(e, lambda pos, neg, contract: contract)


def _strip(e: Expr, final: Callable[[str, str, Contract], Contract]) -> Expr:
    """`normalize` after giving each monitor the contract `final(pos, neg,
    contract)` returns for it.  `final` meets the monitors in pre-order,
    the order of `scan_boundaries`, once each, so it can also record what
    became of them."""
    match e:
        case Mon(pos, neg, contract, body):
            contract = final(pos, neg, contract)
            body = _strip(body, final)
            if contract == ANY_C:
                return body
            return Mon(pos, neg, contract, body, span=e.span)
        case App(fn, arg):
            return App(_strip(fn, final), _strip(arg, final), span=e.span)
        case If(test, then, orelse):
            return If(_strip(test, final), _strip(then, final), _strip(orelse, final),
                      span=e.span)
        case Lam(param, ann, body):
            return Lam(param, ann, _strip(body, final), span=e.span)
        case Let(name, rhs, body):
            rhs = _strip(rhs, final)
            body = _strip(body, final)
            if isinstance(rhs, Var) and rhs.name == name:
                return body
            return Let(name, rhs, body, span=e.span)
        case _:
            return e


# ---------------------------------------------------------------------------
# Whole-program optimization
# ---------------------------------------------------------------------------

def analyze_slice(p: Program, module: str,
                  budget: int = DEFAULT_BUDGET) -> BlameSet:
    """The blame set of `module`'s slice of `p`, compiled with `module` as
    its party, so without the monitors between two other parties and every
    label in it names `module`.  Leaving such a monitor out only lets runs
    go on that would have blamed those others, passing values through
    unwrapped, so the labels naming `module` are a superset of the whole
    slice's and the verdicts stay sound."""
    return analyze(compile_program(slice_for_module(p, module), module).root,
                   budget)


def compute_verdicts(p: Program, trust_typed: bool = True,
                     budget: int = DEFAULT_BUDGET) -> list[Verdict]:
    """One verdict per module, in program order, each with the wall time its
    slice's compilation and analysis took."""
    parties = p.names()
    verdicts = []
    for m in p.modules:
        others = frozenset(n for n in parties if n != m.name)
        if trust_typed and m.typed:
            verdicts.append(Verdict(m.name, others, exhausted=False))
            continue
        t0 = time.perf_counter()
        bs = analyze_slice(p, m.name, budget)
        seconds = time.perf_counter() - t0
        if bs.exhausted:
            verdicts.append(Verdict(m.name, frozenset(), exhausted=True,
                                    seconds=seconds))
        else:
            blamed_toward = {l.holder for l in bs.labels if l.blamed == m.name}
            verdicts.append(Verdict(m.name, others - blamed_toward,
                                    exhausted=False, seconds=seconds))
    return verdicts


def _final_contract(c: Contract, pos: str, neg: str, proven: set[tuple[str, str]]) -> Contract:
    """What is left of a `pos`/`neg` monitor's contract once every proven
    pair has been applied.  Dropping both parties' obligations leaves
    nothing; dropping one side's is one `copt`."""
    pos_safe, neg_safe = (pos, neg) in proven, (neg, pos) in proven
    if pos_safe and neg_safe:
        return ANY_C
    if pos_safe:
        return copt(c, Polarity.POS)
    if neg_safe:
        return copt(c, Polarity.NEG)
    return c


def optimize_program(p: Program, trust_typed: bool = True,
                     budget: int = DEFAULT_BUDGET,
                     verdicts: "list[Verdict] | None" = None,
                     ) -> tuple[CompiledProgram, OptimizationReport]:
    """Analyze every module, then strip the contract obligations of every
    proven-safe ordered pair from the compiled program in one walk: each
    monitor gets its final contract (`_final_contract`), a monitor left
    trivial is erased, and so is the self-aliasing let it leaves behind.
    The result is what folding `opt` over the proven pairs to a fixpoint
    and then normalizing gives, and the walk records each monitor's
    disposition as it rewrites it."""
    compiled = compile_program(p)
    if verdicts is None:
        verdicts = compute_verdicts(p, trust_typed=trust_typed, budget=budget)

    proven = {(v.module, other) for v in verdicts for other in v.safe_against}
    dispositions: list[Disposition] = []

    def final(pos: str, neg: str, before: Contract) -> Contract:
        after = _final_contract(before, pos, neg, proven)
        if after == ANY_C:
            kind = "removed"
        elif after == before:
            kind = "kept"
        else:
            kind = "weakened"
        dispositions.append(Disposition(pos, neg, before, after, kind))
        return after

    root = _strip(compiled.root, final)
    return CompiledProgram(root), OptimizationReport(dispositions, verdicts)
