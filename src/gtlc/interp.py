"""Call-by-value evaluation of the contract core, with blame.

A flat monitor tests its value immediately and either passes it through or
blames the monitor's positive party.  An arrow monitor on a function value
allocates a guard; applying a guard checks the argument against the domain
contract with the parties swapped, applies the wrapped function, and checks
the result against the codomain contract.  An arrow monitor on a
non-function blames the positive party.  The trivial contract checks
nothing.

Evaluation uses an explicit frame stack, so deeply recursive object
programs are bounded by heap, not the host recursion limit.  Dynamic type
errors outside any monitor (applying a non-function, a non-boolean `if`
test) are stuck states, not blame: contracts are the only source of blame.

Environments.  The environment is a dict plus one pending innermost
binding, a name and its value, read before the dict.  Applying a closure
copies nothing: the closure's dict becomes the environment and its
parameter the pending binding.  The dict is copied, and the pending
binding written into the copy, only when a `λ` captures the environment
(there is then no pending binding until the next call or `let`) and when
a `let` binds a name other than the pending one (the let's name becomes
the pending binding; a `let` of the pending name just replaces its value,
which it shadows).  No dict is written after it is built, so closures and
frames share them freely.
No value is `None`, so a lookup that finds `None` is an unbound name.

Frames.  A call frame is the callee value itself, pushed once the
operator is a value.  Popping a closure binds its parameter and enters its
body right there.  Popping a guard whose domain is `int?`, `bool?` or
`any/c` and whose wrapped function is a closure checks the argument and
enters the closure the same way, in a branch of its own, when the fuel
admits its fused steps (see Steps).  Popping a primitive applies it on
the spot.  Any other callee (a guard around a guard or a primitive, a
guard with an arrow domain, or a non-function that gets stuck) goes to
the check/apply loop, which applies a guard's wrapped closure the same
way.  A guard's range check is a frame object of its own,
built once when the guard is, with the exact host type a flat codomain
needs: its pop checks a flat range on the spot and leaves `any/c` and
arrow codomains to the check/apply loop.  The other frames are tuples
tagged by their first field: an argument still to evaluate, a `let` body,
`if` branches, and a contract check, which a `mon` expression pushes (as
does a guard call taken in single steps, for its domain).  The first three
carry the environment they restore, as its dict and its pending binding.
No value is a tuple or a range check, so a frame's type tells the kinds
apart.  A pop tests for a tuple first, then its tag in the order `if`,
`let`, argument, check, and only then for a closure, a range check, a
guard and a primitive; an expression is tested in the order application,
variable, `if`, literal, `let`, `λ`, monitor, primitive.  Past the hot
loop's applications and reads, both orders put first what the generated
programs meet most.

Integers and booleans are the host's `int` and `bool`.  The host counts
`True == 1`, so they are always told apart by exact type (`type(v) is
int`), never by equality or `isinstance`.

Counters track exactly the work the optimizer is meant to remove: one
`flat_checks` tick per flat-contract test, one `wrappers_allocated` tick
per guard allocation, one `wrapped_calls` tick per application of a guard.
They and the step count are locals of the run loop, written to `Metrics`
once, in the `finally` that every exit of the loop passes through.

A primitive is its own value: evaluating a `Prim` node yields that node.

Steps.  One step is one transition of the machine.  An expression either
pushes a frame and moves into a subexpression (application, `let`, `if`,
monitor), or becomes a value and pops one frame; a value still in hand
after a pop that moved into no expression (a primitive call, a contract
check, a guard call that pushed its frames) pops the next frame in a step
of its own, and the pop of an empty stack is the answer.  The run loop
has a phase for each.  Its outer loop holds an expression and takes one
step per iteration.  Once a value is in hand, an inner loop pops frames
until a pop moves into an expression (an `if`, `let` or argument frame,
or a closure whose body is entered); each pop that follows one that moved
into no expression is checked against the fuel and counted as a step.
Where the next transitions are forced, the loop runs them in one
iteration and still counts each: an application whose operator is a
variable takes its own step, then the lookup with the pop of the argument
frame it pushed (2 steps); a closure whose body is a variable, popped as
the call frame or applied by a guard, is read in the value phase, the
read with the pop of the next frame (1 step, as if the body were
entered); applying a guard whose domain is `int?`, `bool?` or `any/c`
takes the call, the pop of the domain check and the pop of the call of
the wrapped function (3 steps), and pushes only the range check.  When
that guard's wrapped closure has a variable body, the read checks a flat
range in its own step, as the pop of the range check would, and the range
check is never pushed.  A fused path is taken only when the fuel admits
all of its steps, else the loop takes them one at a time, so answers,
counters and the point where fuel runs out are the same as with single
steps.  A variable body whose name is unbound is entered as an
expression, and is stuck there.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Optional, Union

from .syntax import (
    BOOL_C, INT_C, ArrowC, App, BlameLabel, BoolC, BoolLit, Expr, If, IntC, IntLit,
    Lam, Let, Mon, Opaque, Prim, Var,
)

DEFAULT_FUEL = 10_000_000


# Tags of the tuple frames.  A frame that is not a tuple is a callee, to be
# applied to the incoming value, or a guard's range check, a `VRange` (see
# Frames in the module docstring).  The environment of an `ARG`, `LET` or
# `IF` frame is the dict `env` under the pending binding `pn` -> `pv` (see
# Environments).
_F_ARG = 0    # (tag, arg_expr, env, pn, pv)     evaluate the argument next
_F_LET = 1    # (tag, name, body, env, pn, pv)
_F_IF = 2     # (tag, then, orelse, env, pn, pv)
_F_MON = 3    # (tag, contract, pos, neg)        check the incoming value:
              # a `mon`, or a guard's domain taken in single steps

# The exact host type that a flat contract, or a primitive, tests for.
_EXACT_TYPE = {INT_C: int, BOOL_C: bool}
_PRIM_TYPE = {"int?": int, "bool?": bool}


class VClosure:
    __slots__ = ("param", "body", "env")

    def __init__(self, param, body, env):
        self.param = param
        self.body = body
        self.env = env

    def __repr__(self):
        return f"VClosure({self.param})"


class VRange:
    """The range-check frame of every call of one guard: its codomain
    `cod`, the exact type `ty` a flat codomain needs (`int` or `bool`, else
    None), and the guard's parties."""
    __slots__ = ("cod", "ty", "pos", "neg")

    def __init__(self, cod, pos: str, neg: str):
        self.cod = cod
        self.ty = _EXACT_TYPE.get(cod)
        self.pos = pos
        self.neg = neg


class VGuard:
    """A function wrapped by an arrow monitor.  Worked out once, here: the
    exact type `dom_type` its flat domain needs (None for `any/c` and arrow
    domains), `closure`, the wrapped function when it is a closure and the
    domain is not an arrow (the calls that take the guard-call branch of
    the run loop; else None), and `range_frame`."""
    __slots__ = ("contract", "inner", "pos", "neg", "dom_type", "closure", "range_frame")

    def __init__(self, contract: ArrowC, inner, pos: str, neg: str):
        self.contract = contract
        self.inner = inner
        self.pos = pos
        self.neg = neg
        dom = contract.dom
        self.dom_type = _EXACT_TYPE.get(dom)
        self.closure = inner if type(inner) is VClosure and type(dom) is not ArrowC else None
        self.range_frame = VRange(contract.cod, pos, neg)

    def __repr__(self):
        return f"VGuard({self.contract}, {self.inner!r}, {self.pos}, {self.neg})"


Value = Union[int, bool, VClosure, Prim, VGuard]


def is_function(v: Value) -> bool:
    return isinstance(v, (VClosure, Prim, VGuard))


@dataclass
class ValA:
    value: Value


@dataclass
class BlamedA:
    label: BlameLabel


@dataclass
class StuckA:
    reason: str


@dataclass
class OutOfFuelA:
    pass


Answer = Union[ValA, BlamedA, StuckA, OutOfFuelA]


@dataclass
class Metrics:
    flat_checks: int = 0
    wrappers_allocated: int = 0
    wrapped_calls: int = 0
    steps: int = 0
    wall_time: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate(e: Expr, fuel: int = DEFAULT_FUEL) -> tuple[Answer, Metrics]:
    """Evaluate a closed core expression.  `fuel` is the number of steps
    (machine transitions, see the module docstring) allowed: an evaluation
    that needs more stops after exactly `fuel` steps with `OutOfFuelA`, an
    outcome of its own, distinct from stuck states."""
    m = Metrics()
    t0 = time.perf_counter()
    answer = _loop(e, fuel, m)
    m.wall_time = time.perf_counter() - t0
    return answer, m


def _loop(e: Expr, fuel: int, m: Metrics) -> Answer:
    stack: list = []
    # The environment: `env` under the pending binding `pn` -> `pv`, or
    # `env` alone while `pn` is None (see Environments).
    env: dict = {}
    pn: Optional[str] = None
    pv: Optional[Value] = None
    steps = flat_checks = wrappers_allocated = wrapped_calls = 0

    try:
        while True:
            # An expression in hand: one step.
            if steps >= fuel:
                return OutOfFuelA()
            steps += 1
            t = type(e)
            # Applications and reads first, for the hot loop; then the most
            # frequent forms of the generated programs.
            if t is App:
                fn = e.fn
                if type(fn) is Var and steps < fuel:
                    name = fn.name
                    v = pv if name == pn else env.get(name)
                    if v is not None:
                        # Fused: the lookup with the pop of the ARG frame
                        # this step would push.
                        steps += 1
                        stack.append(v)
                        e = e.arg
                        continue
                stack.append((_F_ARG, e.arg, env, pn, pv))
                e = fn
                continue
            if t is Var:
                name = e.name
                value = pv if name == pn else env.get(name)
                if value is None:
                    return StuckA(f"unbound variable {name!r}")
            elif t is If:
                stack.append((_F_IF, e.then, e.orelse, env, pn, pv))
                e = e.test
                continue
            elif t is BoolLit or t is IntLit:
                value = e.value
            elif t is Let:
                stack.append((_F_LET, e.name, e.body, env, pn, pv))
                e = e.rhs
                continue
            elif t is Lam:
                if pn is not None:  # the closure keeps the whole environment
                    env = env.copy()
                    env[pn] = pv
                    pn = None
                value = VClosure(e.param, e.body, env)
            elif t is Mon:
                stack.append((_F_MON, e.contract, e.pos, e.neg))
                e = e.body
                continue
            elif t is Prim:
                value = e
            elif t is Opaque:
                return StuckA("opaque term reached at run time")
            else:
                return StuckA(f"unknown expression {e!r}")

            # A value in hand: pop frames, in this step and, after a pop
            # that moves into no expression, in steps of their own, until a
            # pop moves into an expression.
            while True:
                if not stack:
                    return ValA(value)
                frame = stack.pop()
                tf = type(frame)

                # Tuple frames first, most frequent tag first: most pops of
                # generated programs are `if`s and `let`s.
                if tf is tuple:
                    tag = frame[0]
                    if tag is _F_IF:
                        if type(value) is not bool:
                            return StuckA("if test was not a boolean")
                        _, then, orelse, env, pn, pv = frame
                        e = then if value else orelse
                        break
                    if tag is _F_LET:
                        _, name, e, env, pn, pv = frame
                        # The let's name takes the pending place; a pending
                        # binding of that same name is shadowed, not kept.
                        if pn is not None and pn != name:
                            env = env.copy()
                            env[pn] = pv
                        pn, pv = name, value
                        break
                    if tag is _F_ARG:
                        _, e, env, pn, pv = frame
                        stack.append(value)  # the operator is the call frame
                        break
                    _, contract, pos, neg = frame  # _F_MON
                    fv = None
                elif tf is VClosure:
                    e = frame.body
                    if type(e) is Var and steps < fuel:
                        # Fused: the read of a variable body with the pop of
                        # the next frame, one step.
                        name = e.name
                        v = value if name == frame.param else frame.env.get(name)
                        if v is not None:
                            steps += 1
                            value = v
                            continue
                    env, pn, pv = frame.env, frame.param, value
                    break
                elif tf is VRange:
                    # A guard's range check: a flat one on the spot.
                    ty = frame.ty
                    if ty is None:  # `any/c` or an arrow: the check loop below
                        contract, pos, neg, fv = frame.cod, frame.pos, frame.neg, None
                    else:
                        flat_checks += 1
                        if type(value) is not ty:
                            return BlamedA(BlameLabel(frame.pos, frame.neg))
                        if steps >= fuel:
                            return OutOfFuelA()
                        steps += 1
                        continue
                elif tf is VGuard and frame.closure is not None and steps + 2 <= fuel:
                    # Fused: the call, the pop of the domain check and the
                    # pop of the call of the wrapped closure (3 steps).
                    wrapped_calls += 1
                    ty = frame.dom_type
                    if ty is not None:
                        flat_checks += 1
                        if type(value) is not ty:
                            steps += 1  # blamed in the pop of the domain check
                            return BlamedA(BlameLabel(frame.neg, frame.pos))
                    steps += 2
                    fv = frame.closure
                    e = fv.body
                    if type(e) is Var and steps < fuel:
                        name = e.name
                        v = value if name == fv.param else fv.env.get(name)
                        if v is not None:
                            # The read of the variable body, with the pop of
                            # the range frame, which is not pushed if flat.
                            steps += 1
                            value = v
                            rf = frame.range_frame
                            ty = rf.ty
                            if ty is None:
                                stack.append(rf)
                                continue
                            flat_checks += 1
                            if type(value) is not ty:
                                return BlamedA(BlameLabel(rf.pos, rf.neg))
                            if steps >= fuel:
                                return OutOfFuelA()
                            steps += 1
                            continue
                    stack.append(frame.range_frame)
                    env, pn, pv = fv.env, fv.param, value
                    break
                elif tf is Prim:
                    value = type(value) is _PRIM_TYPE[frame.op]
                    if steps >= fuel:
                        return OutOfFuelA()
                    steps += 1
                    continue
                else:  # any other callee: a guard or a non-function
                    fv = frame
                    contract = None

                # Check `value` against `contract` with parties (pos, neg), if
                # set (`any/c` checks nothing), then apply `fv` to it, if set.
                # Applying a guard whose domain is flat comes back round with
                # the domain check and the wrapped function instead of pushing
                # their frames, so nested guards loop.  A wrapped closure is
                # left in `fv`, to be applied below.
                while True:
                    if contract is not None:
                        tc = type(contract)
                        if tc is IntC:
                            flat_checks += 1
                            if type(value) is not int:
                                return BlamedA(BlameLabel(pos, neg))
                        elif tc is BoolC:
                            flat_checks += 1
                            if type(value) is not bool:
                                return BlamedA(BlameLabel(pos, neg))
                        elif tc is ArrowC:
                            if not is_function(value):
                                return BlamedA(BlameLabel(pos, neg))
                            wrappers_allocated += 1
                            value = VGuard(contract, value, pos, neg)
                        if fv is None:
                            break
                        steps += 1  # the fused pop of the inner call
                    tf = type(fv)
                    if tf is VClosure:
                        break
                    if tf is Prim:
                        value = type(value) is _PRIM_TYPE[fv.op]
                        break
                    if tf is not VGuard:
                        return StuckA("applied a non-function")
                    wrapped_calls += 1
                    stack.append(fv.range_frame)
                    contract = fv.contract.dom
                    if type(contract) is ArrowC or steps + 2 > fuel:
                        stack.append(fv.inner)
                        stack.append((_F_MON, contract, fv.neg, fv.pos))
                        break
                    steps += 1  # the fused pop of the domain check
                    pos, neg, fv = fv.neg, fv.pos, fv.inner

                # A guard's wrapped closure is applied as a popped one is,
                # above; the code is repeated so that pop takes no more tests.
                if type(fv) is VClosure:
                    e = fv.body
                    if type(e) is Var and steps < fuel:
                        name = e.name
                        v = value if name == fv.param else fv.env.get(name)
                        if v is not None:
                            steps += 1
                            value = v
                            continue
                    env, pn, pv = fv.env, fv.param, value
                    break
                # The pop moved into no expression: the next is a step of
                # its own.
                if steps >= fuel:
                    return OutOfFuelA()
                steps += 1
    finally:
        m.steps, m.flat_checks = steps, flat_checks
        m.wrappers_allocated, m.wrapped_calls = wrappers_allocated, wrapped_calls


def format_value(v: Value) -> str:
    t = type(v)
    if t is int:
        return str(v)
    if t is bool:
        return "#t" if v else "#f"
    return "#<procedure>"


def answer_to_json(a: Answer) -> dict:
    match a:
        case ValA(v):
            out: dict = {"kind": "value", "display": format_value(v)}
            if type(v) is int:
                out["value"] = {"type": "int", "n": v}
            elif type(v) is bool:
                out["value"] = {"type": "bool", "b": v}
            else:
                out["value"] = {"type": "function"}
            return out
        case BlamedA(label):
            return {"kind": "blame", "blamed": label.blamed, "holder": label.holder}
        case StuckA(reason):
            return {"kind": "stuck", "reason": reason}
        case OutOfFuelA():
            return {"kind": "fuel-exhausted"}
    raise TypeError(f"not an answer: {a!r}")
