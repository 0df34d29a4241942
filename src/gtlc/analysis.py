"""Sound symbolic execution of the contract core with opaque terms.

The analyzer over-approximates every concrete instantiation of the opaque
parts of a program and reports the set of blame labels that some
instantiation could reach.  Finiteness comes from a monovariant abstract
machine: value and continuation addresses are keyed by syntactic position,
store entries are joined as sets, and exploration is a worklist fixpoint
with dependency-driven re-stepping.  The model language has no arithmetic,
so the abstract value universe for a fixed program is finite and the
fixpoint always terminates; a state cap is still enforced and reported via
`exhausted` so callers can fail safe.

Unknown code is explored through an escape pool: evaluating an opaque term
dumps every value in scope into the pool, and every function-like value
that ever enters the pool is applied to a fresh opaque argument, with the
result escaping back into the pool.  A fresh opaque branches both ways on
every contract check, so each monitor reachable by unknown code gets all
of its failure branches exercised under the parties recorded on the
monitor itself.  Errors internal to unknown code (stuck applications, a
non-boolean `if` test) have no blame label and simply prune the path.

Opaque values carry type-tag refinements so a value that passed `int?`
cannot fail it later on the same path.  Inside each branch of an
`(if (int? x) ...)` test, every read of `x` carries the branch's outcome
and refines what it reads by it, and monitor checks thread the refined
value through.

Lowered form.  Before exploring, the expression is lowered in one
iterative pre-order walk (`lower`): each node's label is its pre-order
index, and `code[label]` is a flat instruction tuple holding the node's
operator, its operands and its children's labels, e.g.
`(_APP, fn_label, arg_label)` or `(_IF, test, then, else)`.  The walk
resolves each variable to its address, once: a `let` or lambda binds its
variable at its own label.  Inside each branch of a refinable `if`, the
variable it tests is read with the outcome of that branch.  So a variable
holds its address, or None when it is unbound, and the refinements it is
read with; and an opaque term holds such a pair for each visible name its
own scope (`Opaque.allowed`) admits, or for every visible name when it
has none.  Literals carry their abstract value, built once.  Lambda
annotations are ignored, so a typed body lowers as its erasure does.  No
pass recurses on the host stack, so nesting depth is bounded by memory,
not by the interpreter's recursion limit.  Lowered code is private to
this module: `analyze` takes an expression and lowers it itself.

Atomic operands.  A variable, literal, primitive, lambda or opaque term is
atomic: its values come from the store or the code without a step of their
own (an opaque term's dump of the addresses it holds into the pool is a
join, which is idempotent).  So is a monitor of an atomic term, every
require monitor among them: it is checked in place, recording the blame of
each failure it can reach, and an arrow contract makes its guard there.
An application, `let`, `if` or monitor evaluates its atomic children in
place, in the state that needs their values, and becomes a reader of the
addresses they read; only a compound child gets a continuation address, a
frame and states of its own.  A `let` of an atomic term binds and goes on
to its body in the same state, so a chain of such lets, like the holes of
a module's parties in its slice, is one state, which re-runs the whole
chain when an address it read grows.  States are numbered once, so the
worklist and the dependency sets hold integers.  A frame that joins a
continuation address later is passed the values already waiting there,
each once, so a return address shared by many call sites costs linear,
not quadratic, work.

Values.  An abstract value is a plain tuple whose first item is a small
integer tag naming its class, built inline and tested by that tag:
`(_INT,)` is some integer (the model has no arithmetic, and its only tests
are `int?` and `bool?`, so every integer literal is this one value),
`(_BOOL, b)` a boolean (b is None when it may be either), `(_CLOS, lam)` a
closure, `(_PRIM, op)` a predicate, `(_OPQ, refs)` an unknown value and
`(_GUARD, contract, inner, pos, neg, site)` a monitored function.  No
transition asks where an unknown value came from, so it is only its
refinements: a hole, the result of calling unknown code and the argument
unknown code passes are one value, `(_OPQ, 0)`, until a test refines it.
A closure's `lam` is its lambda's label, which is also its parameter's
address.  It needs no environment, and neither does a state or a frame:
the machine is monovariant, so every variable's address is fixed by where
it is bound, and `lower` has resolved each one already.  A guard's `inner`
is the store address of the function it wraps, anchored at the monitor's
`site`.  Hashing and equality are tuple's, done in C, and distinct classes
never compare equal.  A tag test is one bit: int? is 1, bool? 2, and being
a function 4.  An opaque value's refinements `refs` are six bits: the bit
of each test it passed, and that bit shifted left by 3 for each test it
failed.  A read is refined by bits of the same form (`_refine`): an
opaque value records them, and a value of any other class, which passes
the test of its own tag and fails the others, is kept when that is
consistent with them and dropped when it is not.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    AnyC, ArrowC, App, BlameLabel, BoolC, BoolLit, Expr, If, IntC, IntLit,
    Lam, Let, Mon, Opaque, Prim, Var,
)

DEFAULT_BUDGET = 1_000_000


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------

_INT, _BOOL, _CLOS, _PRIM, _OPQ, _GUARD = range(6)

# Tag tests, and the refinements of a value of each class, indexed by tag:
# it passes the test of its tag and fails the other two.  An opaque value
# carries its own.
_INT_T, _BOOL_T, _FN_T = 1, 2, 4
_FACTS = tuple(None if t is None else t | (7 ^ t) << 3
               for t in (_INT_T, _BOOL_T, _FN_T, _FN_T, None, _FN_T))

_SOME_INT = (_INT,)
# What a hole, an opaque call or unknown code's argument can be: anything.
_SOME_VALUE = (_OPQ, 0)


@dataclass(frozen=True)
class BlameSet:
    labels: frozenset[BlameLabel]
    exhausted: bool
    # Abstract states the machine explored to find `labels`.
    states: int = field(compare=False)

    def as_json(self) -> dict:
        return {
            "labels": [{"blamed": l.blamed, "holder": l.holder}
                       for l in sorted(self.labels)],
            "exhausted": self.exhausted,
        }


def _admits(v: tuple, refs: int) -> bool:
    """Whether some portion of `v` is consistent with the test outcomes
    `refs`.  A non-opaque value passes the test of its own tag and fails
    the others; the outcomes are consistent when no test is both passed
    and failed, and at most one is passed, since the tags are disjoint."""
    tag = v[0]
    refs |= v[1] if tag == _OPQ else _FACTS[tag]
    passed = refs & 7
    return not (passed & refs >> 3 or passed & passed - 1)


def _refine(v: tuple, refs: int) -> Optional[tuple]:
    """The portion of `v` consistent with the test outcomes `refs`, or
    None; an opaque value records them in its refinements."""
    if not _admits(v, refs):
        return None
    if v[0] != _OPQ:
        return v
    return (_OPQ, v[1] | refs)


def _refined(vals, refs: int) -> set:
    """The portions of the values `vals` consistent with `refs`."""
    return {w for v in vals if (w := _refine(v, refs)) is not None}


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

_VAR, _VAL, _LAM, _OPAQUE, _APP, _LET, _IF, _MON = range(8)


def lower(root: Expr) -> list[tuple]:
    """One instruction tuple per node of `root`, the node at pre-order index
    i labelled i.  Each variable is resolved to its address: that of its
    innermost binder in `root`, else None (unbound).  It is read with the
    refinements of the tests around it: inside each branch of a refinable
    `if`, the bit of that branch's outcome.  An opaque term holds an
    (address, refinements) pair per visible name its own scope admits,
    and lambda annotations are ignored."""
    # The walk keeps `env` (name -> (address, refinements), None when
    # unbound) as it enters and leaves binders and branches: a (name,
    # binding) item on the stack rebinds `name`.  A leaf's instruction is
    # complete when the walk reaches it.
    env: dict = {}
    nodes: list[tuple[Expr, object]] = []
    stack: list = [root]
    while stack:
        e = stack.pop()
        t = type(e)
        if t is tuple:
            env[e[0]] = e[1]
            continue
        at = None
        if t is Var:
            at = (_VAR,) + (env.get(e.name) or (None, 0))
        elif t is Opaque:
            names = env if e.allowed is None else e.allowed
            at = (_OPAQUE, tuple([r for n in sorted(names) if (r := env.get(n)) is not None]))
        elif t is IntLit:
            at = (_VAL, _SOME_INT)
        elif t is BoolLit:
            at = (_VAL, (_BOOL, e.value))
        elif t is Prim:
            at = (_VAL, (_PRIM, e.op))
        elif t is App:
            stack += (e.arg, e.fn)
        elif t is Let:
            stack += ((e.name, env.get(e.name)), e.body,
                      (e.name, (len(nodes), 0)), e.rhs)
        elif t is Lam:
            stack += ((e.param, env.get(e.param)), e.body,
                      (e.param, (len(nodes), 0)))
        elif t is Mon:
            stack.append(e.body)
        elif t is If:
            test = _refinable_test(e)
            ref = test and env.get(test[0])
            if ref is None:
                stack += (e.orelse, e.then, e.test)
            else:
                (name, kind), (addr, refs) = test, ref
                stack += ((name, ref), e.orelse, (name, (addr, refs | kind << 3)),
                          e.then, (name, (addr, refs | kind)), e.test)
        else:
            raise TypeError(f"not a core expression: {t.__name__}")
        nodes.append((e, at))

    # Descendants have larger indices, so one backward sweep sees each
    # child's subtree size before its parent's.  A node's first child is
    # the next index, and each later child follows the subtree of the one
    # before it.
    n = len(nodes)
    size = [1] * n
    code: list[tuple] = [()] * n
    for i in range(n - 1, -1, -1):
        e, at = nodes[i]
        t = type(e)
        k0 = i + 1
        if t is Lam:
            size[i] += size[k0]
            code[i] = (_LAM, k0)
        elif t is Mon:
            size[i] += size[k0]
            code[i] = (_MON, e.contract, e.pos, e.neg, k0)
        elif t is App:
            k1 = k0 + size[k0]
            size[i] += size[k0] + size[k1]
            code[i] = (_APP, k0, k1)
        elif t is Let:
            k1 = k0 + size[k0]
            size[i] += size[k0] + size[k1]
            code[i] = (_LET, k0, k1)
        elif t is If:
            k1 = k0 + size[k0]
            k2 = k1 + size[k1]
            size[i] += size[k0] + size[k1] + size[k2]
            code[i] = (_IF, k0, k1, k2)
        else:
            code[i] = at
    return code


def _refinable_test(node: If):
    """(name, kind) when the test is a predicate applied to a variable, so
    each branch can read the variable refined by its outcome."""
    t = node.test
    if isinstance(t, App) and isinstance(t.fn, Prim) and isinstance(t.arg, Var):
        return (t.arg.name, _INT_T if t.fn.op == "int?" else _BOOL_T)
    return None


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------

# Addresses.  A let or a lambda binds its variable at its own label, and
# the continuation that receives a compound subexpression's value lives at
# that subexpression's label.  An atomic operand (a variable, literal,
# primitive, lambda, opaque term, or monitor of one) is evaluated in place
# by the state that needs its value, so it has no continuation.  Every
# other address is a tagged tuple.
_POOL = ("pool",)
_K_HALT = ("halt",)
_K_HAVOC = ("havoc",)

# States: evaluate the term at a label for a continuation address, pass a
# value to the frames at a continuation address, or apply a value that
# escaped to the pool.
_EV, _VA, _HV = range(3)


class _Machine:
    def __init__(self, code: list[tuple], budget: int):
        self.code = code
        self.budget = budget
        self.store: dict = defaultdict(set)
        self.kstore: dict = defaultdict(set)
        # addr -> ids of the states that read it, re-run when it grows
        self.vdeps: dict = defaultdict(set)
        # kaddr -> ids of the value states at it.  A frame added later is
        # passed each of their values through `pending`, instead of each
        # state re-running over every frame at the address.
        self.kdeps: dict = defaultdict(set)
        self.pending: list = []   # (state id, frame)
        self.found: set[BlameLabel] = set()
        # Each state is numbered once, in `ids`; `states` and `queued`
        # (whether it waits in `work`) are indexed by that number.
        self.ids: dict = {}
        self.states: list[tuple] = []
        self.queued: list[bool] = []
        self.work: deque = deque()
        self.exhausted = False

    # -- scheduling ---------------------------------------------------------

    def schedule(self, st) -> None:
        """Enqueue a state the first time it is discovered.  Seen states are
        only ever re-run through `reschedule`, when something they read grew."""
        if self.exhausted:
            return
        n = len(self.states)
        if self.ids.setdefault(st, n) != n:
            return
        if n >= self.budget:
            del self.ids[st]
            self.exhausted = True
            return
        self.states.append(st)
        self.queued.append(True)
        self.work.append(n)

    def reschedule(self, sid: int) -> None:
        if self.exhausted or self.queued[sid]:
            return
        self.queued[sid] = True
        self.work.append(sid)

    def join(self, addr, v) -> None:
        """`store_join` of the one value `v`."""
        if v not in self.store[addr]:
            self.store_join(addr, {v})

    def store_join(self, addr, vals) -> None:
        """Join the set `vals` into `addr`, re-running the states that read
        it if it grew."""
        cur = self.store[addr]
        new = vals - cur
        if not new:
            return
        cur |= new
        for sid in self.vdeps.get(addr, ()):
            self.reschedule(sid)
        if addr == _POOL:
            for v in new:
                self.schedule((_HV, v))

    def kstore_join(self, kaddr, frame) -> None:
        cur = self.kstore[kaddr]
        if frame in cur:
            return
        cur.add(frame)
        for sid in self.kdeps.get(kaddr, ()):
            self.pending.append((sid, frame))

    # -- driver ---------------------------------------------------------------

    def run(self) -> BlameSet:
        self.kstore[_K_HAVOC].add(("havocret",))
        self.schedule((_EV, 0, _K_HALT))
        work, pending = self.work, self.pending
        states, queued = self.states, self.queued
        while (work or pending) and not self.exhausted:
            if pending:
                sid, frame = pending.pop()
                self.frame(sid, frame, states[sid][1])
                continue
            sid = work.popleft()
            queued[sid] = False
            st = states[sid]
            tag = st[0]
            if tag == _EV:
                self.step_eval(sid, st)
            elif tag == _VA:
                self.step_value(sid, st)
            else:  # _HV
                self.havoc(st[1])
        return BlameSet(frozenset(self.found), self.exhausted, len(states))

    # -- transitions ----------------------------------------------------------

    def havoc(self, v) -> None:
        """Exercise a value that escaped to unknown code: apply it to a
        fresh opaque argument, with the result escaping in turn (via the
        havoc continuation), so every monitor wrapped around it is driven
        through all of its branches.  First-order values have no
        application successor."""
        if _admits(v, _FN_T):
            self.apply_abs(v, _SOME_VALUE, _K_HAVOC)

    def atom(self, sid: int, lbl: int):
        """The values of the term at `lbl` if it is atomic, else None.  A
        variable reads its address, and an opaque term first dumps the
        values at the addresses it holds into the pool, an idempotent
        join; either refines what it reads by the outcomes of the tests
        around it, and makes state `sid` a reader of those addresses, so it
        re-runs when they grow.  A monitor of an atomic term (of a chain of
        monitors, innermost first) checks its values in place."""
        code = self.code
        ins = code[lbl]
        op = ins[0]
        if op == _VAR:
            _, addr, refs = ins
            if addr is None:
                return ()  # unbound: prune
            self.vdeps[addr].add(sid)
            vals = self.store[addr]
            return _refined(vals, refs) if refs else tuple(vals)
        if op == _VAL:
            return (ins[1],)
        if op == _LAM:
            return ((_CLOS, lbl),)
        if op == _OPAQUE:
            for addr, refs in ins[1]:
                self.vdeps[addr].add(sid)
                vals = self.store[addr]
                self.store_join(_POOL, _refined(vals, refs) if refs else vals)
            return (_SOME_VALUE,)
        if op == _MON:
            mons = []
            while op == _MON:
                mons.append((lbl, ins))
                lbl = ins[4]
                ins = code[lbl]
                op = ins[0]
            if op >= _APP:
                return None
            vals = self.atom(sid, lbl)
            for site, (_, contract, pos, neg, _) in reversed(mons):
                vals = {w for v in vals
                        for w in self.mon_check(contract, pos, neg, site, v)}
            return vals
        return None

    def step_eval(self, sid: int, st) -> None:
        """Evaluate the term at a label.  A compound term evaluates each
        atomic child in place and continues at once; only a compound child
        gets a frame at its own label and a state of its own.  A `let` of
        an atomic term binds and goes on to its body in the same state."""
        _, lbl, kaddr = st
        code = self.code
        ins = code[lbl]
        op = ins[0]
        while op == _LET:
            _, rhs_lbl, body_lbl = ins
            vals = self.atom(sid, rhs_lbl)
            if vals is None:
                self.kstore_join(rhs_lbl, ("let", lbl, kaddr))
                self.schedule((_EV, rhs_lbl, rhs_lbl))
                return
            if not vals:
                return
            self.store_join(lbl, {*vals})
            lbl = body_lbl
            ins = code[lbl]
            op = ins[0]
        if op < _APP or op == _MON:
            vals = self.atom(sid, lbl)
            if vals is not None:
                for v in vals:
                    self.schedule((_VA, v, kaddr))
                return
        if op == _APP:
            _, fn_lbl, arg_lbl = ins
            fns = self.atom(sid, fn_lbl)
            if fns is None:
                self.kstore_join(fn_lbl, ("arg", arg_lbl, kaddr))
                self.schedule((_EV, fn_lbl, fn_lbl))
            else:
                self.call(sid, fns, arg_lbl, kaddr)
        elif op == _IF:
            test_lbl = ins[1]
            vals = self.atom(sid, test_lbl)
            if vals is None:
                self.kstore_join(test_lbl, ("if", lbl, kaddr))
                self.schedule((_EV, test_lbl, test_lbl))
            else:
                self.branch(vals, lbl, kaddr)
        else:
            # A monitor of a compound body: `atom` checks an atomic one in place.
            _, contract, pos, neg, body_lbl = ins
            self.kstore_join(body_lbl, ("mon", contract, pos, neg, lbl, kaddr))
            self.schedule((_EV, body_lbl, body_lbl))

    def step_value(self, sid: int, st) -> None:
        _, v, kaddr = st
        self.kdeps[kaddr].add(sid)
        for frame in list(self.kstore[kaddr]):
            self.frame(sid, frame, v)

    def frame(self, sid: int, frame, v) -> None:
        tag = frame[0]
        if tag == "arg":
            _, arg_lbl, nxt = frame
            self.call(sid, (v,), arg_lbl, nxt)
        elif tag == "call":
            _, fv, nxt = frame
            self.apply_abs(fv, v, nxt)
        elif tag == "calladdr":
            _, addr, nxt = frame
            self.vdeps[addr].add(sid)
            for fv in list(self.store[addr]):
                self.apply_abs(fv, v, nxt)
        elif tag == "let":
            _, let_lbl, nxt = frame
            self.store_join(let_lbl, {v})
            _, _, body_lbl = self.code[let_lbl]
            self.schedule((_EV, body_lbl, nxt))
        elif tag == "if":
            _, if_lbl, nxt = frame
            self.branch((v,), if_lbl, nxt)
        elif tag == "mon":
            _, contract, pos, neg, site, nxt = frame
            for w in self.mon_check(contract, pos, neg, site, v):
                self.schedule((_VA, w, nxt))
        elif tag == "havocret":
            self.join(_POOL, v)

    def call(self, sid: int, fns, arg_lbl, nxt) -> None:
        """Apply each operator value in `fns` to the operand at `arg_lbl`.
        Nothing evaluates the operand before there is an operator value."""
        if not fns:
            return
        args = self.atom(sid, arg_lbl)
        if args is None:
            for fv in fns:
                self.kstore_join(arg_lbl, ("call", fv, nxt))
            self.schedule((_EV, arg_lbl, arg_lbl))
            return
        for fv in fns:
            for av in args:
                self.apply_abs(fv, av, nxt)

    def branch(self, vals, if_lbl, nxt) -> None:
        """Take every branch that some test value in `vals` selects.  The
        reads inside a branch of a refinable test refine what they read by
        its outcome themselves (`atom`)."""
        _, _, then_lbl, else_lbl = self.code[if_lbl]
        for v in vals:
            if v[0] == _BOOL:
                branches = (True, False) if v[1] is None else (v[1],)
            elif v[0] == _OPQ:
                branches = (True, False) if _admits(v, _BOOL_T) else ()
            else:
                branches = ()  # non-boolean test: stuck, prune
            for taken in branches:
                self.schedule((_EV, then_lbl if taken else else_lbl, nxt))

    def apply_abs(self, fv, argv, nxt) -> None:
        tag = fv[0]
        if tag == _CLOS:
            lam = fv[1]
            self.join(lam, argv)
            self.schedule((_EV, self.code[lam][1], nxt))
        elif tag == _PRIM:
            kind = _INT_T if fv[1] == "int?" else _BOOL_T
            if _admits(argv, kind):
                self.schedule((_VA, (_BOOL, True), nxt))
            if _admits(argv, kind << 3):
                self.schedule((_VA, (_BOOL, False), nxt))
        elif tag == _GUARD:
            # Check the domain at once, then call the wrapped function
            # through `kc` and check its result through `kr`; every call of
            # the guard shares both continuations.
            _, c, inner, pos, neg, site = fv
            kr = ("kr", site)
            kc = ("kc", site)
            self.kstore_join(kr, ("mon", c.cod, pos, neg, ("r", site), nxt))
            self.kstore_join(kc, ("calladdr", inner, kr))
            for w in self.mon_check(c.dom, neg, pos, ("d", site), argv):
                self.schedule((_VA, w, kc))
        elif tag == _OPQ:
            if _admits(fv, _FN_T):
                self.join(_POOL, argv)
                self.schedule((_VA, _SOME_VALUE, nxt))
        # first-order values in operator position: stuck, prune

    def mon_check(self, contract, pos, neg, site, v) -> tuple:
        """The values `v` leaves a monitor of `contract` with, recording the
        blame of each failure the monitor can reach."""
        t = type(contract)
        if t is AnyC:
            return (v,)
        if t is IntC or t is BoolC:
            kind = _INT_T if t is IntC else _BOOL_T
            out = _refine(v, kind)
            if _admits(v, kind << 3):
                self.found.add(BlameLabel(pos, neg))
            return () if out is None else (out,)
        # ArrowC
        if _admits(v, _FN_T << 3):
            self.found.add(BlameLabel(pos, neg))
        as_fn = _refine(v, _FN_T)
        if as_fn is None:
            return ()
        inner = ("m", site)
        self.join(inner, as_fn)
        return ((_GUARD, contract, inner, pos, neg, site),)


def analyze(root: Expr, budget: int = DEFAULT_BUDGET) -> BlameSet:
    """Every blame label reachable by some concrete instantiation of the
    opaque parts of `root`, run from its lowered code's label 0.  When the
    state cap is hit, `exhausted` is set and callers must treat the label
    set as if it held every label."""
    return _Machine(lower(root), budget).run()


def reachable_states(root: Expr, budget: int = DEFAULT_BUDGET) -> int:
    """Size of the explored abstract state space.  `analyze(root).states`
    gives the same; this name is kept for the benchmark's census, which
    counts the states of every analyzed slice through it."""
    return analyze(root, budget).states
