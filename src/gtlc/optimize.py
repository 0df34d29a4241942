"""Verdict-driven contract elimination.

For each module X the optimizer analyzes a slice of the program that
holds X and its parties, the modules X shares a require with, each party's
body replaced by an opaque term (imports marked opaque in the source stay
opaque in every slice), and only the requires that X is a party of, so the
slice has only X's monitors.  Any other monitor could only blame other
modules, and without it a run goes on with the value unwrapped, so the
slice still reaches every label naming X.  Any other module could reach X
only through a party, whose opaque term already yields any value, so it is
left out.  If the slice's blame set has no label blaming X toward some
party X2, then no run of the full program can produce that label either,
and every obligation of X at the X/X2 boundary can be dropped: flat
contracts where X is the positive party become the trivial contract,
arrow contracts recur with the usual reversal of parties in the domain,
and an arrow reduced to trivial on both sides in positive position
disappears entirely.

Each slice is built at the source (`slice_for_module`) and compiled as
any program is: `compile_program` shares the bodies, so a slice costs a
module spine as long as X's parties and the monitors it keeps, and X's
body enters the core as written, each opaque term of it keeping the scope
the reader gave it.  Lowered code belongs to the analysis alone.

The paper states this rewrite for one proven pair at a time, folded over
the proven pairs to a fixpoint.  A monitor is touched only by the two pairs
over its own parties, so each monitor's final contract is worked out on its
own.  And the only monitors are the require monitors that compilation
makes, since the reader rejects `mon` in source.  So no compiled tree is
rewritten: the contracts are eliminated as the program is compiled.
`compile_program` asks for each monitor's final contract as it makes the
monitor, the answer is recorded for the report, and a monitor left with
`any/c` is not emitted, nor is its `let`.

Typed modules.  A require between two typed modules has no monitor, so a
typed module's slice lets a typed neighbour's hole yield any value and
call the module's exports with any argument, and blames the module for
what only an ill-typed neighbour could do.  The blame theorem (Wadler and
Findler, *Well-Typed Programs Can't Be Blamed*) proves more without any
slice: a typed module is safe against every other module when no unknown
code can reach it unchecked (`blameless_modules`).  Such a module's slice
is not analyzed.  This assumes only that the program passed
`check_wellformed`.

A module's verdict is used for nothing but dropping its own obligations at
its boundaries, and only a monitor's positive party, or the negative party
of an arrow contract, can be blamed (`obliged_modules`).  So a module that
no monitor obliges is safe against every other module in every run, and
is proven so with no slice, as a blameless one is.  Only the obliged
modules that are not blameless are analyzed.  Short of exhaustion, every
verdict is the one analyzing its slice would give, and no typed module is
taken as safe unless the blame theorem proves it.  An analysis that hits
its state cap yields no verdicts for its module, so exhaustion can only
cost optimization opportunity, never soundness.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from .analysis import BlameSet, analyze, DEFAULT_BUDGET
from .syntax import (
    ANY_C, AnyC, ArrowC, BoolC, Contract, IntC, Module, Opaque, Polarity, Program,
    flip, module_scope, subterms,
)
from .translate import CompiledProgram, boundaries, compile_program, compile_type


@dataclass
class Verdict:
    module: str
    safe_against: frozenset[str]
    exhausted: bool
    # Wall time of building, compiling and analyzing the module's slice,
    # and the abstract states its analysis explored; 0.0 and 0 when the
    # module was proven without a slice.
    seconds: float = field(default=0.0, compare=False)
    states: int = field(default=0, compare=False)

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
    """`target`'s slice of `p`: `target` and its parties, the modules it
    shares a require with, in program order.  `target`'s body is as
    written, unless some module imports it opaquely, and each party's body
    an opaque term scoped to what its module requires (`module_scope` of
    all its requires).  Only the requires that `target` is a party of are
    kept, so compiled, the slice has exactly the boundary monitors of `p`
    that have `target` as a party.  Every other module is left out, `main`
    too unless it is a party (see above).  Annotations are untouched."""
    x = p.module_named(target)
    if x is None:
        raise ValueError(f"unknown module {target!r}")
    marked = _opaquely_required(p)
    required = {r.target for r in x.requires}
    out = []
    for m in p.modules:
        requires = [r for r in m.requires if target in (m.name, r.target)]
        if m.name != target and not requires and m.name not in required:
            continue
        body = m.body
        if m.name != target or m.name in marked:
            body = Opaque(module_scope(m.requires))
        out.append(Module(m.name, m.ty, requires, body, span=m.span))
    return Program(out)


def _opaquely_required(p: Program) -> set[str]:
    """The modules some module imports with `opaque-require`: their bodies
    stay holes in every slice."""
    return {r.target for m in p.modules for r in m.requires if r.opaque}


# ---------------------------------------------------------------------------
# Contract rewriting
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


# ---------------------------------------------------------------------------
# Whole-program optimization
# ---------------------------------------------------------------------------

def analyze_slice(p: Program, module: str,
                  budget: int = DEFAULT_BUDGET) -> BlameSet:
    """The blame set of `module`'s slice of `p` (`slice_for_module`), which
    keeps only the monitors that have `module` as a party, so every label
    in it names `module`.  Leaving another monitor out only lets runs go on
    that would have blamed those others, passing values through unwrapped,
    and leaving a module out only drops an unknown value that a party's
    hole yields already, so the labels naming `module` are a superset of
    those of the full slice, and the verdicts stay sound."""
    return analyze(compile_program(slice_for_module(p, module)).root, budget)


def obliged_modules(p: Program) -> set[str]:
    """The modules that some monitor of `p` obliges: a party of a monitor
    whose contract loses something when that party's side is dropped
    (`copt`).  That is every positive party, and every negative party of an
    arrow contract.  Only these can be blamed, and only their verdicts can
    change a monitor.  Read off the requires (`boundaries`), the boundaries
    `compile_program` monitors."""
    out = set()
    for m, monitored in boundaries(p):
        for r, ty in monitored:
            c = compile_type(ty)
            if copt(c, Polarity.POS) != c:
                out.add(r.target)
            if copt(c, Polarity.NEG) != c:
                out.add(m.name)
    return out


def blameless_modules(p: Program) -> set[str]:
    """The typed modules that no run of `p` can blame, by the blame theorem:
    those of an island with no unknown code.  An island is a set of typed
    modules joined by requires between two typed modules, which have no
    monitor.  A value entering an island from an untyped module passes a
    monitor that blames that module, and one leaving it is well-typed when
    every body of the island type checks as written, so no monitor blames
    a module of the island.  An `opaque` term in a typed body may be any
    value, whatever type its context demands, and an opaquely required
    module is code the verifier never looks inside: either spoils its
    island, since what it yields may reach any module there unchecked.
    `p` must have passed `check_wellformed`."""
    typed = {m.name: m for m in p.modules if m.typed}
    marked = _opaquely_required(p)
    linked: dict[str, set[str]] = {name: set() for name in typed}
    for m in typed.values():
        for r in m.requires:
            if r.target in typed:
                linked[m.name].add(r.target)
                linked[r.target].add(m.name)
    spoiled = {n for n, m in typed.items() if n in marked
               or any(type(e) is Opaque for e in subterms(m.body))}
    stack = list(spoiled)
    while stack:
        for n in linked[stack.pop()] - spoiled:
            spoiled.add(n)
            stack.append(n)
    return set(typed) - spoiled


def compute_verdicts(p: Program, trust_typed: bool = True,
                     budget: int = DEFAULT_BUDGET) -> list[Verdict]:
    """One verdict per module, in program order, each with the wall time its
    slice's building and analysis took and the states it explored.  A
    module in `blameless_modules`, or outside `obliged_modules`, is proven
    safe against every other module with no slice (0 seconds, 0 states).
    Every other module's slice is built, compiled and analyzed by
    `analyze_slice` within its module's seconds, so they sum to the whole
    slice analysis.  `trust_typed` is ignored: it is accepted so that
    callers that still pass it keep working.  `p` must have passed
    `check_wellformed`, as the blame theorem assumes."""
    parties = p.names()
    proven = blameless_modules(p) | (set(parties) - obliged_modules(p))
    verdicts = []
    for m in p.modules:
        others = frozenset(n for n in parties if n != m.name)
        if m.name in proven:
            verdicts.append(Verdict(m.name, others, exhausted=False))
            continue
        t0 = time.perf_counter()
        bs = analyze_slice(p, m.name, budget)
        seconds = time.perf_counter() - t0
        if bs.exhausted:
            safe = frozenset()
        else:
            safe = others - {l.holder for l in bs.labels if l.blamed == m.name}
        verdicts.append(Verdict(m.name, safe, bs.exhausted, seconds=seconds,
                                states=bs.states))
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
    """Take the verdicts (`compute_verdicts` unless they are given), then
    compile the program with the contract obligations of every proven-safe
    ordered pair dropped: `compile_program` gives each monitor its final
    contract (`_final_contract`) as it makes it, and emits neither a
    monitor left trivial nor its let.  The result is what folding the
    paper's per-pair rewrite over the proven pairs to a fixpoint and then
    erasing trivial monitors gives, and each monitor's disposition is
    recorded as its contract is decided.  `trust_typed` is ignored, as
    `compute_verdicts` ignores it."""
    if verdicts is None:
        verdicts = compute_verdicts(p, budget=budget)

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

    return compile_program(p, final), OptimizationReport(dispositions, verdicts)
