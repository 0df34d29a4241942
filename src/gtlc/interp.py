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

Integers and booleans are the host's `int` and `bool`.  The host counts
`True == 1`, so they are always told apart by exact type (`type(v) is
int`), never by equality or `isinstance`.

Counters track exactly the work the optimizer is meant to remove: one
`flat_checks` tick per flat-contract test, one `wrappers_allocated` tick
per guard allocation, one `wrapped_calls` tick per application of a guard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

from .syntax import (
    AnyC, ArrowC, App, Blame, BlameLabel, BoolC, BoolLit, Expr, If, IntC,
    IntLit, Lam, Let, Mon, Opaque, Prim, Var,
)

DEFAULT_FUEL = 10_000_000


class VClosure:
    __slots__ = ("param", "body", "env")

    def __init__(self, param, body, env):
        self.param = param
        self.body = body
        self.env = env

    def __repr__(self):
        return f"VClosure({self.param})"


class VPrim:
    __slots__ = ("op",)

    def __init__(self, op: str):
        self.op = op

    def __repr__(self):
        return f"VPrim({self.op})"


class VGuard:
    __slots__ = ("contract", "inner", "pos", "neg")

    def __init__(self, contract: ArrowC, inner, pos: str, neg: str):
        self.contract = contract
        self.inner = inner
        self.pos = pos
        self.neg = neg

    def __repr__(self):
        return f"VGuard({self.contract}, {self.inner!r}, {self.pos}, {self.neg})"


Value = Union[int, bool, VClosure, VPrim, VGuard]


def is_function(v: Value) -> bool:
    return isinstance(v, (VClosure, VPrim, VGuard))


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
        return {
            "flat_checks": self.flat_checks,
            "wrappers_allocated": self.wrappers_allocated,
            "wrapped_calls": self.wrapped_calls,
            "steps": self.steps,
            "wall_time": self.wall_time,
        }


# Frame tags.
_F_ARG = 0    # (tag, arg_expr, env)         evaluate the argument next
_F_CALL = 1   # (tag, fn_value)              apply fn_value to the incoming value
_F_LET = 2    # (tag, name, body, env)
_F_IF = 3    # (tag, then, orelse, env)
_F_MON = 4    # (tag, contract, pos, neg)


def evaluate(e: Expr, fuel: int = DEFAULT_FUEL) -> tuple[Answer, Metrics]:
    """Evaluate a closed core expression.  `fuel` bounds machine
    transitions; running out is reported as its own outcome, distinct from
    stuck states."""
    m = Metrics()
    t0 = time.perf_counter()
    answer = _loop(e, fuel, m)
    m.wall_time = time.perf_counter() - t0
    return answer, m


def _loop(control: Optional[Expr], fuel: int, m: Metrics) -> Answer:
    stack: list = []
    env: dict = {}
    value: Optional[Value] = None
    steps = 0

    while True:
        if steps >= fuel:
            m.steps = steps
            return OutOfFuelA()
        steps += 1

        if control is not None:
            e = control
            t = type(e)
            if t is Var:
                v = env.get(e.name)
                if v is None:
                    m.steps = steps
                    return StuckA(f"unbound variable {e.name!r}")
                value, control = v, None
            elif t is IntLit or t is BoolLit:
                value, control = e.value, None
            elif t is Lam:
                value, control = VClosure(e.param, e.body, env), None
            elif t is App:
                stack.append((_F_ARG, e.arg, env))
                control = e.fn
            elif t is Let:
                stack.append((_F_LET, e.name, e.body, env))
                control = e.rhs
            elif t is If:
                stack.append((_F_IF, e.then, e.orelse, env))
                control = e.test
            elif t is Mon:
                stack.append((_F_MON, e.contract, e.pos, e.neg))
                control = e.body
            elif t is Prim:
                value, control = VPrim(e.op), None
            elif t is Blame:
                m.steps = steps
                return BlamedA(e.label)
            elif t is Opaque:
                m.steps = steps
                return StuckA("opaque term reached at run time")
            else:
                m.steps = steps
                return StuckA(f"unknown expression {e!r}")
            if control is not None:
                continue

        # value in hand; consume a frame
        if not stack:
            m.steps = steps
            return ValA(value)
        frame = stack.pop()
        tag = frame[0]

        if tag is _F_ARG:
            _, arg_expr, fenv = frame
            stack.append((_F_CALL, value))
            control, env = arg_expr, fenv
            value = None
        elif tag is _F_CALL:
            fv = frame[1]
            tf = type(fv)
            if tf is VClosure:
                env = dict(fv.env)
                env[fv.param] = value
                control = fv.body
                value = None
            elif tf is VPrim:
                if fv.op == "int?":
                    value = type(value) is int
                else:
                    value = type(value) is bool
            elif tf is VGuard:
                m.wrapped_calls += 1
                c = fv.contract
                stack.append((_F_MON, c.cod, fv.pos, fv.neg))
                stack.append((_F_CALL, fv.inner))
                stack.append((_F_MON, c.dom, fv.neg, fv.pos))
            else:
                m.steps = steps
                return StuckA("applied a non-function")
        elif tag is _F_LET:
            _, name, body, lenv = frame
            env = dict(lenv)
            env[name] = value
            control = body
            value = None
        elif tag is _F_IF:
            _, then, orelse, ienv = frame
            if type(value) is not bool:
                m.steps = steps
                return StuckA("if test was not a boolean")
            control = then if value else orelse
            env = ienv
            value = None
        else:  # _F_MON
            _, contract, pos, neg = frame
            tc = type(contract)
            if tc is IntC:
                m.flat_checks += 1
                if type(value) is not int:
                    m.steps = steps
                    return BlamedA(BlameLabel(pos, neg))
            elif tc is BoolC:
                m.flat_checks += 1
                if type(value) is not bool:
                    m.steps = steps
                    return BlamedA(BlameLabel(pos, neg))
            elif tc is AnyC:
                pass
            else:  # ArrowC
                if is_function(value):
                    m.wrappers_allocated += 1
                    value = VGuard(contract, value, pos, neg)
                else:
                    m.steps = steps
                    return BlamedA(BlameLabel(pos, neg))


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
