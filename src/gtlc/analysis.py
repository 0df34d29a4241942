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
cannot fail it later on the same path; branches of an `(if (int? x) ...)`
test rebind `x` to a refined address, and monitor checks thread the
refined value through.

Lowered form.  Before exploring, the expression is lowered in one
iterative pre-order walk: each node's label is its pre-order index, and
`code[label]` is a flat instruction tuple holding the node's operator, its
operands and its children's labels, e.g. `(_APP, fn_label, arg_label)` or
`(_IF, test, then, else, refinable)`.  Literals carry their abstract value
and opaque terms their fresh opaque value, built once.  Free-variable sets
are kept only on lambdas, where they trim the captured environment; an
opaque term counts as free every name it may reference, and a node with
one child shares that child's set instead of copying it.  No pass
recurses on the host stack, so nesting depth is bounded by memory, not by
the interpreter's recursion limit.

Values.  An abstract value is a plain tuple whose first item is a small
integer tag naming its class, built inline and tested by that tag:
`(_INT,)` is some integer, `(_CONST, n)` the integer n, `(_BOOL, b)` a
boolean (b is None when it may be either), `(_CLOS, lam, param, body,
env)` a closure, `(_PRIM, op)` a predicate, `(_OPQ, site, refs)` an
unknown value and `(_GUARD, contract, inner, pos, neg, site)` a monitored
function.  A closure's `lam` is its lambda's label, which is also its
parameter's address, and `env` is `((name, addr), ...)` sorted by name; a
guard's `inner` is the store address of the function it wraps, anchored
at the monitor's `site`.  Hashing and equality are tuple's, done in C,
and distinct classes never compare equal.  A tag test is one bit: int? is
1, bool? 2, and being a function 4.  An opaque value's refinements `refs`
are six bits: the bit of each test it passed, and that bit shifted left
by 3 for each test it failed.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    AnyC, ArrowC, App, Blame, BlameLabel, BoolC, BoolLit, Expr, If, IntC,
    IntLit, Lam, Let, Mon, Opaque, Prim, Var,
)

DEFAULT_BUDGET = 1_000_000

# Widen exact integers at an address once this many distinct constants pile up.
_CONST_WIDTH = 8


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------

_INT, _CONST, _BOOL, _CLOS, _PRIM, _OPQ, _GUARD = range(7)

# Tag tests, and the one each non-opaque class passes, indexed by tag.
_INT_T, _BOOL_T, _FN_T = 1, 2, 4
_PASSES = (_INT_T, _INT_T, _BOOL_T, _FN_T, _FN_T, None, _FN_T)

_SOME_INT = (_INT,)


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


def _admits(v: tuple, kind: int, outcome: bool) -> bool:
    """Whether some portion of `v` is consistent with a test outcome.  The
    tags are mutually disjoint, so passing one test contradicts having
    failed it or having passed another."""
    tag = v[0]
    if tag != _OPQ:
        return (_PASSES[tag] == kind) is outcome
    return not v[2] & ((kind << 3 | 7 ^ kind) if outcome else kind)


def _refine_value(v: tuple, kind: int, outcome: bool) -> Optional[tuple]:
    """The portion of `v` consistent with a test outcome, or None; an
    opaque value records the outcome in its refinements."""
    if not _admits(v, kind, outcome):
        return None
    if v[0] != _OPQ:
        return v
    return (_OPQ, v[1], v[2] | (kind if outcome else kind << 3))


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

_VAR, _VAL, _LAM, _OPAQUE, _APP, _LET, _IF, _MON, _BLAME = range(9)


def _lower(root: Expr) -> list[tuple]:
    """One instruction tuple per node, indexed by pre-order label."""
    nodes: list[Expr] = []
    bound: set[str] = set()
    stack = [root]
    while stack:
        e = stack.pop()
        nodes.append(e)
        t = type(e)
        if t is App:
            stack += (e.arg, e.fn)
        elif t is Let:
            bound.add(e.name)
            stack += (e.body, e.rhs)
        elif t is If:
            stack += (e.orelse, e.then, e.test)
        elif t is Lam:
            bound.add(e.param)
            stack.append(e.body)
        elif t is Mon:
            stack.append(e.body)
    # An opaque term may reference whatever its `allowed` scope names, or,
    # without one, any variable the term binds; an enclosing lambda must
    # keep all of those.
    anything = frozenset(bound)

    # Descendants have larger labels, so one backward sweep sees each
    # child's subtree size and free variables before its parent's.  A
    # node's first child is the next label, and each later child follows
    # the subtree of the one before it.
    n = len(nodes)
    size = [1] * n
    free: list[frozenset[str]] = [frozenset()] * n
    code: list[tuple] = [()] * n
    for lbl in range(n - 1, -1, -1):
        e = nodes[lbl]
        t = type(e)
        k0 = lbl + 1
        if t is Var:
            free[lbl] = frozenset((e.name,))
            code[lbl] = (_VAR, e.name)
        elif t is IntLit:
            code[lbl] = (_VAL, (_CONST, e.value))
        elif t is BoolLit:
            code[lbl] = (_VAL, (_BOOL, e.value))
        elif t is Prim:
            code[lbl] = (_VAL, (_PRIM, e.op))
        elif t is Opaque:
            free[lbl] = anything if e.allowed is None else e.allowed
            code[lbl] = (_OPAQUE, e.allowed, (_OPQ, lbl, 0))
        elif t is Blame:
            code[lbl] = (_BLAME, e.label)
        elif t is Lam:
            size[lbl] += size[k0]
            fv = free[lbl] = _without(free[k0], e.param)
            code[lbl] = (_LAM, e.param, k0, fv)
        elif t is Mon:
            size[lbl] += size[k0]
            free[lbl] = free[k0]
            code[lbl] = (_MON, e.contract, e.pos, e.neg, k0)
        elif t is App:
            k1 = k0 + size[k0]
            size[lbl] += size[k0] + size[k1]
            free[lbl] = _union(free[k0], free[k1])
            code[lbl] = (_APP, k0, k1)
        elif t is Let:
            k1 = k0 + size[k0]
            size[lbl] += size[k0] + size[k1]
            free[lbl] = _union(free[k0], _without(free[k1], e.name))
            code[lbl] = (_LET, e.name, k0, k1)
        elif t is If:
            k1 = k0 + size[k0]
            k2 = k1 + size[k1]
            size[lbl] += size[k0] + size[k1] + size[k2]
            free[lbl] = _union(_union(free[k0], free[k1]), free[k2])
            code[lbl] = (_IF, k0, k1, k2, _refinable_test(e))
        else:
            raise TypeError(f"not a core expression: {t.__name__}")
    return code


def _union(a: frozenset, b: frozenset) -> frozenset:
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _without(s: frozenset, name: str) -> frozenset:
    return s - {name} if name in s else s


def _refinable_test(node: If):
    """(name, kind) when the test is a predicate applied to a variable, so
    the branches can rebind the variable to a refined address."""
    t = node.test
    if isinstance(t, App) and isinstance(t.fn, Prim) and isinstance(t.arg, Var):
        return (t.arg.name, _INT_T if t.fn.op == "int?" else _BOOL_T)
    return None


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------

# Addresses.  A let or a lambda binds its variable at its own label, and
# the continuation that receives a subexpression's value lives at that
# subexpression's label; every other address is a tagged tuple.
_POOL = ("pool",)
_K_HALT = ("halt",)
_K_HAVOC = ("havoc",)
_HAVOC_ARG = (_OPQ, ("havoc-arg",), 0)
_HAVOC_APP = ("havoc-app",)


class _Machine:
    def __init__(self, root: Expr, budget: int):
        self.code = _lower(root)
        self.budget = budget
        self.store: dict = defaultdict(set)
        self.nconst: dict = defaultdict(int)   # addr -> constants in store[addr]
        self.kstore: dict = defaultdict(set)
        self.vdeps: dict = defaultdict(set)
        self.kdeps: dict = defaultdict(set)
        self.redges: dict = defaultdict(list)  # addr -> [(dst, kind, outcome)]
        self.found: set[BlameLabel] = set()
        self.seen: dict = {}   # state -> whether it waits in `work`
        self.work: deque = deque()
        self.exhausted = False

    # -- scheduling ---------------------------------------------------------

    def schedule(self, st) -> None:
        """Enqueue a state the first time it is discovered.  Seen states are
        only ever re-run through `reschedule`, when something they read grew."""
        if self.exhausted:
            return
        seen = self.seen
        n = len(seen)
        seen.setdefault(st, True)
        if len(seen) == n:
            return
        if n >= self.budget:
            del seen[st]
            self.exhausted = True
            return
        self.work.append(st)

    def reschedule(self, st) -> None:
        if self.exhausted or self.seen[st]:
            return
        self.seen[st] = True
        self.work.append(st)

    def join(self, addr, v) -> None:
        """`store_join` of the one value `v`."""
        if v not in self.store[addr]:
            self.store_join(addr, {v})

    def store_join(self, addr, vals) -> None:
        """Join the set `vals` into `addr`.  What is new flows on along the
        refinement edges out of `addr`, one pending join at a time."""
        todo = [(addr, vals)]
        while todo:
            addr, vals = todo.pop()
            cur = self.store[addr]
            new = vals - cur
            if not new:
                continue
            consts = [v for v in new if v[0] == _CONST]
            if consts:
                if self.nconst[addr] >= _CONST_WIDTH:
                    new = {v for v in new if v[0] != _CONST}
                    new.add(_SOME_INT)
                    new -= cur
                    if not new:
                        continue
                else:
                    self.nconst[addr] += len(consts)
            cur |= new
            for dst, kind, outcome in self.redges.get(addr, ()):
                refined = {_refine_value(v, kind, outcome) for v in new}
                refined.discard(None)
                if refined:
                    todo.append((dst, refined))
            for st in self.vdeps.get(addr, ()):
                self.reschedule(st)
            if addr == _POOL:
                for v in new:
                    self.schedule(("hv", v))

    def kstore_join(self, kaddr, frame) -> None:
        cur = self.kstore[kaddr]
        if frame in cur:
            return
        cur.add(frame)
        for st in self.kdeps.get(kaddr, ()):
            self.reschedule(st)

    def ensure_redge(self, src, dst, kind, outcome) -> None:
        edge = (dst, kind, outcome)
        if edge in self.redges[src]:
            return
        self.redges[src].append(edge)
        refined = {_refine_value(v, kind, outcome) for v in self.store[src]}
        refined.discard(None)
        if refined:
            self.store_join(dst, refined)

    # -- driver ---------------------------------------------------------------

    def run(self) -> BlameSet:
        self.kstore[_K_HALT].add(("halt",))
        self.kstore[_K_HAVOC].add(("havocret",))
        self.schedule(("ev", 0, (), _K_HALT))
        work, seen = self.work, self.seen
        while work and not self.exhausted:
            st = work.popleft()
            seen[st] = False
            tag = st[0]
            if tag == "ev":
                self.step_eval(st)
            elif tag == "va":
                self.step_value(st)
            else:  # "hv"
                self.havoc(st, st[1])
        return BlameSet(frozenset(self.found), self.exhausted, len(self.seen))

    # -- transitions ----------------------------------------------------------

    def havoc(self, st, v) -> None:
        """Exercise a value that escaped to unknown code: apply it to a
        fresh opaque argument, with the result escaping in turn (via the
        havoc continuation), so every monitor wrapped around it is driven
        through all of its branches.  First-order values have no
        application successor."""
        if _admits(v, _FN_T, True):
            self.apply_abs(st, v, _HAVOC_ARG, _HAVOC_APP, _K_HAVOC)

    def step_eval(self, st) -> None:
        _, lbl, env, kaddr = st
        ins = self.code[lbl]
        op = ins[0]
        if op == _VAR:
            addr = _env_get(env, ins[1])
            if addr is None:
                return  # open term: prune
            self.vdeps[addr].add(st)
            for v in self.store[addr]:
                self.schedule(("va", v, kaddr))
        elif op == _VAL:
            self.schedule(("va", ins[1], kaddr))
        elif op == _LAM:
            _, param, body_lbl, keep = ins
            cenv = tuple([na for na in env if na[0] in keep])
            self.schedule(("va", (_CLOS, lbl, param, body_lbl, cenv), kaddr))
        elif op == _OPAQUE:
            _, allowed, fresh = ins
            for name, addr in env:
                if allowed is not None and name not in allowed:
                    continue
                self.vdeps[addr].add(st)
                self.store_join(_POOL, self.store[addr])
            self.schedule(("va", fresh, kaddr))
        elif op == _APP:
            _, fn_lbl, arg_lbl = ins
            self.kstore_join(fn_lbl, ("arg", arg_lbl, env, lbl, kaddr))
            self.schedule(("ev", fn_lbl, env, fn_lbl))
        elif op == _LET:
            _, name, rhs_lbl, body_lbl = ins
            self.kstore_join(rhs_lbl, ("let", name, lbl, body_lbl, env, kaddr))
            self.schedule(("ev", rhs_lbl, env, rhs_lbl))
        elif op == _IF:
            _, test_lbl, then_lbl, else_lbl, info = ins
            self.kstore_join(test_lbl, ("if", lbl, then_lbl, else_lbl, env, info, kaddr))
            self.schedule(("ev", test_lbl, env, test_lbl))
        elif op == _MON:
            _, contract, pos, neg, body_lbl = ins
            self.kstore_join(body_lbl, ("mon", contract, pos, neg, lbl, kaddr))
            self.schedule(("ev", body_lbl, env, body_lbl))
        else:  # _BLAME
            self.found.add(ins[1])

    def step_value(self, st) -> None:
        _, v, kaddr = st
        self.kdeps[kaddr].add(st)
        for frame in list(self.kstore[kaddr]):
            self.frame(st, frame, v)

    def frame(self, st, frame, v) -> None:
        tag = frame[0]
        if tag == "arg":
            _, arg_lbl, env, app_lbl, nxt = frame
            self.kstore_join(arg_lbl, ("call", v, app_lbl, nxt))
            self.schedule(("ev", arg_lbl, env, arg_lbl))
        elif tag == "call":
            _, fv, app_lbl, nxt = frame
            self.apply_abs(st, fv, v, app_lbl, nxt)
        elif tag == "calladdr":
            _, addr, app_lbl, nxt = frame
            self.vdeps[addr].add(st)
            for fv in list(self.store[addr]):
                self.apply_abs(st, fv, v, app_lbl, nxt)
        elif tag == "let":
            _, name, binder_lbl, body_lbl, env, nxt = frame
            self.join(binder_lbl, v)
            self.schedule(("ev", body_lbl, _env_set(env, name, binder_lbl), nxt))
        elif tag == "if":
            _, if_lbl, then_lbl, else_lbl, env, info, nxt = frame
            if v[0] == _BOOL:
                branches = (True, False) if v[1] is None else (v[1],)
            elif v[0] == _OPQ:
                branches = (True, False) if _admits(v, _BOOL_T, True) else ()
            else:
                branches = ()  # non-boolean test: stuck, prune
            for taken in branches:
                env2 = env
                if info is not None:
                    name, kind = info
                    src = _env_get(env, name)
                    if src is not None:
                        dst = ("rif", if_lbl, taken, name)
                        self.ensure_redge(src, dst, kind, taken)
                        env2 = _env_set(env, name, dst)
                self.schedule(("ev", then_lbl if taken else else_lbl, env2, nxt))
        elif tag == "mon":
            _, contract, pos, neg, site, nxt = frame
            self.mon_check(contract, pos, neg, site, nxt, v)
        elif tag == "havocret":
            self.join(_POOL, v)
        # "halt": program value, nothing to do

    def apply_abs(self, st, fv, argv, app_lbl, nxt) -> None:
        tag = fv[0]
        if tag == _CLOS:
            _, lam, param, body, env = fv
            self.join(lam, argv)
            self.schedule(("ev", body, _env_set(env, param, lam), nxt))
        elif tag == _PRIM:
            kind = _INT_T if fv[1] == "int?" else _BOOL_T
            if _admits(argv, kind, True):
                self.schedule(("va", (_BOOL, True), nxt))
            if _admits(argv, kind, False):
                self.schedule(("va", (_BOOL, False), nxt))
        elif tag == _GUARD:
            _, c, inner, pos, neg, site = fv
            kr = ("kr", site)
            kc = ("kc", site)
            kd = ("kd", site)
            self.kstore_join(kr, ("mon", c.cod, pos, neg, ("r", site), nxt))
            self.kstore_join(kc, ("calladdr", inner, app_lbl, kr))
            self.kstore_join(kd, ("mon", c.dom, neg, pos, ("d", site), kc))
            self.schedule(("va", argv, kd))
        elif tag == _OPQ:
            if _admits(fv, _FN_T, True):
                self.join(_POOL, argv)
                self.schedule(("va", (_OPQ, ("app", app_lbl), 0), nxt))
        # first-order values in operator position: stuck, prune

    def mon_check(self, contract, pos, neg, site, nxt, v) -> None:
        t = type(contract)
        if t is IntC or t is BoolC:
            kind = _INT_T if t is IntC else _BOOL_T
            passed = _refine_value(v, kind, True)
            if passed is not None:
                self.schedule(("va", passed, nxt))
            if _admits(v, kind, False):
                self.found.add(BlameLabel(pos, neg))
        elif t is AnyC:
            self.schedule(("va", v, nxt))
        else:  # ArrowC
            as_fn = _refine_value(v, _FN_T, True)
            if as_fn is not None:
                inner = ("m", site)
                self.join(inner, as_fn)
                self.schedule(("va", (_GUARD, contract, inner, pos, neg, site), nxt))
            if _admits(v, _FN_T, False):
                self.found.add(BlameLabel(pos, neg))


def _env_get(env: tuple, name: str):
    for n, a in env:
        if n == name:
            return a
    return None


def _env_set(env: tuple, name: str, addr) -> tuple:
    """`env` with `name` bound to `addr`; environments are kept sorted by
    name, one entry per name."""
    for i, (n, _) in enumerate(env):
        if n >= name:
            rest = env[i + 1:] if n == name else env[i:]
            return env[:i] + ((name, addr),) + rest
    return env + ((name, addr),)


def analyze(root: Expr, budget: int = DEFAULT_BUDGET) -> BlameSet:
    """Every blame label reachable by some concrete instantiation of the
    opaque parts of `root`.  When the state cap is hit, `exhausted` is set
    and callers must treat the label set as if it held every label."""
    return _Machine(root, budget).run()


def reachable_states(root: Expr, budget: int = DEFAULT_BUDGET) -> int:
    """Size of the explored abstract state space.  `analyze(root).states`
    gives the same; this name is kept for the benchmark's census, which
    counts the states of every analyzed slice through it."""
    return analyze(root, budget).states
